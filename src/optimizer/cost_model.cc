#include "optimizer/cost_model.h"

#include <algorithm>

#include "common/check.h"

namespace aimai {

double OptimizerCostModel::OutputWidth(const PlanNode& node) const {
  if (!node.output_columns.empty()) {
    return RowWidthBytes(*db_, node.output_columns);
  }
  return node.output_width_bytes;
}

double OptimizerCostModel::BytesProcessed(const PlanNode& node) const {
  switch (node.op) {
    case PhysOp::kTableScan: {
      const Table& t = db_->table(node.table_id);
      const double width =
          static_cast<double>(t.SizeBytes()) /
          std::max<double>(1.0, static_cast<double>(t.num_rows()));
      return node.stats.est_access_rows * width;
    }
    case PhysOp::kColumnstoreScan:
      return node.stats.est_access_rows * OutputWidth(node);
    case PhysOp::kIndexScan:
    case PhysOp::kIndexSeek: {
      const Table& t = db_->table(node.table_id);
      double width = 8;
      for (int col : node.index.key_columns) {
        width += static_cast<double>(
            t.column(static_cast<size_t>(col)).width_bytes());
      }
      for (int col : node.index.include_columns) {
        width += static_cast<double>(
            t.column(static_cast<size_t>(col)).width_bytes());
      }
      return node.stats.est_access_rows * width;
    }
    case PhysOp::kKeyLookup: {
      const Table& t = db_->table(node.table_id);
      const double width =
          static_cast<double>(t.SizeBytes()) /
          std::max<double>(1.0, static_cast<double>(t.num_rows()));
      return node.child(0)->stats.est_rows * width;
    }
    default: {
      double bytes = 0;
      for (const auto& c : node.children) bytes += c->stats.est_bytes;
      return bytes;
    }
  }
}

double OptimizerCostModel::AnnotateSubtree(PlanNode* node, int dop) const {
  for (auto& c : node->children) AnnotateSubtree(c.get(), dop);
  return AnnotateNode(node, dop);
}

double OptimizerCostModel::AnnotateNode(PlanNode* node, int dop) const {
  double subtree = 0;
  for (const auto& c : node->children) subtree += c->stats.est_subtree_cost;
  node->stats.est_bytes = node->stats.est_rows * OutputWidth(*node);
  node->stats.est_bytes_processed = BytesProcessed(*node);
  node->stats.est_cost =
      NodeCost(*node, *db_, constants_, /*use_actual=*/false, dop);
  node->stats.est_subtree_cost = subtree + node->stats.est_cost;
  return node->stats.est_subtree_cost;
}

double OptimizerCostModel::Annotate(PhysicalPlan* plan) const {
  AIMAI_CHECK(plan != nullptr && plan->root != nullptr);
  double total = AnnotateSubtree(plan->root.get(), plan->degree_of_parallelism);
  if (plan->degree_of_parallelism > 1) {
    total += constants_.parallel_startup * plan->degree_of_parallelism;
  }
  plan->est_total_cost = total;
  return total;
}

}  // namespace aimai
