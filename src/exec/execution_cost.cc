#include "exec/execution_cost.h"

#include <cmath>

#include "common/check.h"

namespace aimai {

CostConstants CostConstants::True() { return CostConstants(); }

CostConstants CostConstants::OptimizerBelief() {
  CostConstants cc;
  // Classic industrial miscalibrations (directionally realistic):
  cc.key_lookup = 2.2e-4;      // Random access looks ~3.6x cheaper.
  cc.seek_leaf_row = 0.8e-4;   // Leaf walks look cheaper.
  cc.sort_row = 0.8e-4;        // Sorts look cheaper.
  cc.hj_build = 3.4e-4;        // Hash build looks dearer.
  cc.hj_probe = 1.0e-4;        // ... but probes look cheaper.
  cc.hash_agg_row = 1.6e-4;    // Hash aggregation looks cheaper.
  cc.mj_input = 6.0e-5;        // Merge looks cheaper (sorts hide the cost).
  cc.nlj_outer = 1.0e-5;       // Rebinds look cheaper.
  cc.seek_descend = 1.0e-3;    // Tree descents look cheaper.
  cc.scan_row = 1.4e-4;        // Scans look dearer.
  cc.bytes_factor = 1.0e-9;    // Bandwidth looks better.
  cc.batch_divisor = 11.0;     // Batch mode looks better than it is.
  cc.parallel_efficiency = 0.9;  // Parallelism looks closer to linear.
  cc.cache_effects = false;    // The analytical model is linear.
  return cc;
}

CostConstants CostConstants::PerturbedForNode(uint64_t seed,
                                              double sigma) const {
  CostConstants cc = *this;
  Rng rng(seed ^ 0x4a5d1e);
  auto jitter = [&rng, sigma](double* v) {
    *v *= std::exp(rng.Gaussian(0.0, sigma));
  };
  jitter(&cc.scan_row);
  jitter(&cc.pred_eval);
  jitter(&cc.seek_descend);
  jitter(&cc.seek_leaf_row);
  jitter(&cc.key_lookup);
  jitter(&cc.hj_build);
  jitter(&cc.hj_probe);
  jitter(&cc.join_output);
  jitter(&cc.mj_input);
  jitter(&cc.nlj_outer);
  jitter(&cc.sort_row);
  jitter(&cc.hash_agg_row);
  jitter(&cc.hash_agg_group);
  jitter(&cc.stream_agg_row);
  jitter(&cc.bytes_factor);
  // Cache knees vary with the node's cache sizes.
  cc.lookup_penalty *= std::exp(rng.Gaussian(0.0, sigma * 0.5));
  cc.hash_penalty *= std::exp(rng.Gaussian(0.0, sigma * 0.5));
  return cc;
}

namespace {

struct Cardinalities {
  double rows = 0;         // Output rows (total across executions).
  double execs = 1;        // Executions (rebinds).
  double access_rows = 0;  // Rows examined before residuals.
  double child_rows[2] = {0, 0};
};

Cardinalities Extract(const PlanNode& node, bool use_actual) {
  Cardinalities c;
  const NodeStats& s = node.stats;
  if (use_actual) {
    c.rows = s.actual_rows;
    c.execs = std::max(1.0, s.actual_executions);
    c.access_rows = s.actual_access_rows;
    for (size_t i = 0; i < node.children.size() && i < 2; ++i) {
      c.child_rows[i] = node.children[i]->stats.actual_rows;
    }
  } else {
    c.rows = s.est_rows;
    c.execs = std::max(1.0, s.est_executions);
    c.access_rows = s.est_access_rows;
    for (size_t i = 0; i < node.children.size() && i < 2; ++i) {
      c.child_rows[i] = node.children[i]->stats.est_rows;
    }
  }
  return c;
}

/// Logarithmic super-linear degradation beyond a working-set knee.
double CachePenalty(bool enabled, double size, double knee, double strength) {
  if (!enabled || size <= knee || knee <= 0) return 1.0;
  return 1.0 + strength * std::log10(size / knee);
}

bool IsBatchEligible(PhysOp op) {
  switch (op) {
    case PhysOp::kColumnstoreScan:
    case PhysOp::kFilter:
    case PhysOp::kHashJoin:
    case PhysOp::kHashAggregate:
      return true;
    default:
      return false;
  }
}

}  // namespace

double RowCountCost(PhysOp op, double rows, double left_rows,
                    double right_rows, const CostConstants& cc) {
  double cost = 0;
  switch (op) {
    case PhysOp::kNestedLoopJoin: {
      cost = left_rows * cc.nlj_outer;
      break;
    }
    case PhysOp::kHashJoin: {
      const double penalty = CachePenalty(cc.cache_effects, left_rows,
                                          5000.0, cc.hash_penalty);
      cost = (left_rows * cc.hj_build + right_rows * cc.hj_probe) * penalty +
             rows * cc.join_output;
      break;
    }
    case PhysOp::kMergeJoin: {
      cost = (left_rows + right_rows) * cc.mj_input + rows * cc.join_output;
      break;
    }
    case PhysOp::kSort: {
      const double n = left_rows;
      cost = n * cc.sort_row * std::log2(n + 2.0) *
             CachePenalty(cc.cache_effects, n, 10000.0, cc.sort_penalty);
      break;
    }
    case PhysOp::kHashAggregate: {
      cost = left_rows * cc.hash_agg_row *
                 CachePenalty(cc.cache_effects, rows, 5000.0,
                              cc.hash_penalty) +
             rows * cc.hash_agg_group;
      break;
    }
    case PhysOp::kStreamAggregate: {
      cost = left_rows * cc.stream_agg_row;
      break;
    }
    case PhysOp::kTop: {
      cost = rows * cc.top_row;
      break;
    }
    default:
      AIMAI_CHECK_MSG(false, "operator is not costed from row counts alone");
  }
  return cost;
}

double BatchDiscounted(PhysOp op, ExecMode mode, double cost,
                       const CostConstants& cc) {
  if (mode == ExecMode::kBatch && IsBatchEligible(op)) {
    cost /= cc.batch_divisor;
  }
  return cost;
}

double NodeCost(const PlanNode& node, const Database& db,
                const CostConstants& cc, bool use_actual, int dop) {
  const Cardinalities c = Extract(node, use_actual);
  const double npreds = static_cast<double>(node.residual_preds.size());
  double cost = 0;

  switch (node.op) {
    case PhysOp::kTableScan:
    case PhysOp::kColumnstoreScan:
    case PhysOp::kIndexScan: {
      cost = c.access_rows * (cc.scan_row + cc.pred_eval * npreds);
      // Bytes touched: a row-store scan reads full rows; a columnstore
      // scan reads only the referenced columns; an index scan reads the
      // index rows (keys + includes + row locator).
      double width;
      if (node.op == PhysOp::kColumnstoreScan) {
        width = RowWidthBytes(db, node.output_columns);
      } else if (node.op == PhysOp::kIndexScan) {
        const Table& t = db.table(node.table_id);
        width = 8;
        for (int col : node.index.key_columns) {
          width += static_cast<double>(
              t.column(static_cast<size_t>(col)).width_bytes());
        }
        for (int col : node.index.include_columns) {
          width += static_cast<double>(
              t.column(static_cast<size_t>(col)).width_bytes());
        }
      } else {
        const Table& t = db.table(node.table_id);
        width = static_cast<double>(t.SizeBytes()) /
                std::max<double>(1.0, static_cast<double>(t.num_rows()));
      }
      cost += c.access_rows * width * cc.bytes_factor;
      break;
    }
    case PhysOp::kIndexSeek: {
      // Repeated descents into a large index miss cache on the upper
      // levels too (nested-loop rebinds).
      const double table_rows =
          static_cast<double>(db.table(node.table_id).num_rows());
      cost = c.execs * cc.seek_descend *
                 CachePenalty(cc.cache_effects, table_rows, 4000.0, 0.35) +
             c.access_rows * (cc.seek_leaf_row + cc.pred_eval * npreds);
      break;
    }
    case PhysOp::kKeyLookup: {
      // Random accesses over the base table: cache misses grow with the
      // table's footprint.
      const double table_rows =
          static_cast<double>(db.table(node.table_id).num_rows());
      cost = c.child_rows[0] * cc.key_lookup *
             CachePenalty(cc.cache_effects, table_rows, 1500.0,
                          cc.lookup_penalty);
      break;
    }
    case PhysOp::kFilter: {
      cost = c.child_rows[0] * cc.pred_eval * std::max(1.0, npreds);
      break;
    }
    default:
      cost = RowCountCost(node.op, c.rows, c.child_rows[0], c.child_rows[1],
                          cc);
      break;
  }

  cost = BatchDiscounted(node.op, node.mode, cost, cc);
  if (node.parallel && dop > 1) {
    cost = cost / (cc.parallel_efficiency * static_cast<double>(dop)) +
           c.rows * cc.exchange_row / static_cast<double>(dop);
  }
  return cost;
}

double ExecutionCostModel::ComputeActualCost(PhysicalPlan* plan) const {
  AIMAI_CHECK(plan != nullptr && plan->root != nullptr);
  AIMAI_CHECK_MSG(plan->root->stats.executed, "plan must be executed first");
  double total = 0;
  const int dop = plan->degree_of_parallelism;
  plan->root->VisitMutable([&](PlanNode* n) {
    // A nested-loop inner side never runs when the outer side is empty;
    // such nodes did no work.
    if (!n->stats.executed) {
      n->stats.actual_cost = 0;
      return;
    }
    n->stats.actual_cost = NodeCost(*n, *db_, constants_, /*use_actual=*/true,
                                    dop);
    total += n->stats.actual_cost;
  });
  if (dop > 1) total += constants_.parallel_startup * dop;
  plan->actual_total_cost = total;
  return total;
}

double ExecutionCostModel::SampleNoisyCost(const PhysicalPlan& plan,
                                           Rng* rng) const {
  AIMAI_CHECK(plan.root != nullptr);
  double total = 0;
  const int dop = plan.degree_of_parallelism;
  plan.root->Visit([&](const PlanNode& n) {
    const double base =
        NodeCost(n, *db_, constants_, /*use_actual=*/true, dop);
    total += base * std::exp(rng->Gaussian(0.0, 0.06));
  });
  if (dop > 1) total += constants_.parallel_startup * dop;
  return total * std::exp(rng->Gaussian(0.0, 0.04));
}

}  // namespace aimai
