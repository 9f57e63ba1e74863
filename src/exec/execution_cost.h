#ifndef AIMAI_EXEC_EXECUTION_COST_H_
#define AIMAI_EXEC_EXECUTION_COST_H_

#include "catalog/database.h"
#include "common/random.h"
#include "exec/plan.h"

namespace aimai {

/// Per-operator cost constants (milliseconds of CPU per unit of work).
///
/// Two calibrations exist:
///  - `True()`: the hardware the execution simulator runs on. Execution
///    cost (the paper's "CPU time") is computed from these constants and
///    the *actual* cardinalities, plus measurement noise.
///  - `OptimizerBelief()`: the analytical model inside the query optimizer.
///    It is deliberately miscalibrated in the directions industrial
///    optimizers err (random-access key lookups and sorts look cheaper
///    than they are, hash builds look dearer, batch mode looks better),
///    so that — together with cardinality-estimation errors — estimated
///    improvements sometimes regress, reproducing Figure 1.
struct CostConstants {
  double scan_row = 1.2e-4;       // Per row scanned (row mode).
  double pred_eval = 3.0e-5;      // Per row per residual predicate.
  double seek_descend = 2.0e-3;   // Per seek execution (B+-tree descent).
  double seek_leaf_row = 1.5e-4;  // Per seek-qualified row.
  double key_lookup = 8.0e-4;     // Per row fetched back from base table.
  double hj_build = 2.5e-4;       // Per build-side row.
  double hj_probe = 1.2e-4;       // Per probe-side row.
  double join_output = 3.0e-5;    // Per output row (hash & merge).
  double mj_input = 8.0e-5;       // Per input row (both merge sides).
  double nlj_outer = 2.0e-5;      // Per outer row (rebinding overhead).
  double sort_row = 1.2e-4;       // × n log2(n+2).
  double hash_agg_row = 2.2e-4;   // Per input row.
  double hash_agg_group = 1.0e-4; // Per output group.
  double stream_agg_row = 6.0e-5; // Per input row.
  double top_row = 1.0e-5;        // Per row consumed.
  double bytes_factor = 2.0e-9;   // Per byte processed by scans.
  double batch_divisor = 8.0;     // Vectorization speedup for batch ops.
  double parallel_efficiency = 0.75;  // Fraction of linear speedup.
  double exchange_row = 3.0e-5;   // Per row through the gather exchange.
  double parallel_startup = 0.1;  // Per worker thread, per plan.

  /// Real hardware shows super-linear degradation once working sets leave
  /// the cache hierarchy: random key lookups on big tables, hash builds
  /// beyond L2, large sorts. The true model applies logarithmic penalty
  /// factors above per-operator knees; the optimizer's analytical model
  /// (like industrial ones) stays linear — the single biggest source of
  /// "estimated improvement turns into regression" in this simulator.
  bool cache_effects = true;
  double lookup_penalty = 1.1;    // Strength for random key lookups.
  double hash_penalty = 0.7;      // Hash join/aggregate builds.
  double sort_penalty = 0.5;

  static CostConstants True();
  static CostConstants OptimizerBelief();

  /// Per-node hardware heterogeneity: cloud databases run on fleet nodes
  /// whose effective per-operator costs differ by tens of percent (CPU
  /// generation, memory bandwidth, noisy neighbors). Returns a copy with
  /// every per-unit constant jittered by exp(N(0, sigma)). The optimizer's
  /// belief model is NOT perturbed — one binary ships fleet-wide — which
  /// is one more reason train/test distributions differ across databases
  /// (§4.2) and local adaptation pays off (§4.3).
  CostConstants PerturbedForNode(uint64_t seed, double sigma = 0.25) const;
};

/// The own cost of an operator that reads nothing but cardinalities: the
/// three joins, Sort, both aggregates and Top. `rows` is the node's output
/// cardinality, `left_rows`/`right_rows` its children's (0 when absent).
/// Serial, before the batch discount. NodeCost computes these operators
/// through this function, so a candidate priced from its inputs' row
/// counts and the same node once built agree bit for bit.
double RowCountCost(PhysOp op, double rows, double left_rows,
                    double right_rows, const CostConstants& cc);

/// `cost` after the batch-mode discount an operator gets in `mode` (the
/// discount NodeCost applies to every node's serial own cost).
double BatchDiscounted(PhysOp op, ExecMode mode, double cost,
                       const CostConstants& cc);

/// Computes a single node's own cost from cardinalities. `use_actual`
/// selects between the node's actual_* (execution simulation) and est_*
/// (optimizer costing) statistics. Children must already carry their
/// row counts. `dop` is the plan's degree of parallelism.
double NodeCost(const PlanNode& node, const Database& db,
                const CostConstants& cc, bool use_actual, int dop);

/// The execution-cost simulator: turns actual cardinalities into a
/// simulated CPU time per node and for the whole plan.
class ExecutionCostModel {
 public:
  explicit ExecutionCostModel(const Database* db)
      : db_(db), constants_(CostConstants::True()) {}
  ExecutionCostModel(const Database* db, CostConstants constants)
      : db_(db), constants_(constants) {}

  /// Fills `stats.actual_cost` on every node (noise-free), sets the plan's
  /// `actual_total_cost`, and returns it. Must run after Executor::Execute.
  double ComputeActualCost(PhysicalPlan* plan) const;

  /// Samples one noisy "measured" CPU time for the plan: per-node
  /// multiplicative log-normal noise plus a plan-level disturbance. The
  /// plan must already have actual cardinalities. Does not mutate.
  double SampleNoisyCost(const PhysicalPlan& plan, Rng* rng) const;

  const CostConstants& constants() const { return constants_; }

 private:
  const Database* db_;
  CostConstants constants_;
};

}  // namespace aimai

#endif  // AIMAI_EXEC_EXECUTION_COST_H_
