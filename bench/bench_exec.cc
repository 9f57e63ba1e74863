// Vectorized execution engine: wall-time speedup of the columnar batch
// pipeline over the row-at-a-time interpreter on TPC-H-shaped plans, with
// bit-identity enforcement. Three single-table plan shapes over lineitem
// at SF 0.1:
//
//   filter    — Q6's selective conjunctive range predicates, output
//               materialized (scan + branchless filter kernels);
//   q6_agg    — the same predicates fused into an ungrouped SUM/COUNT
//               (Q6 proper: no intermediate row-set);
//   q1_group  — Q1's shape: a ~95%-pass date predicate under a grouped
//               aggregate over l_returnflag with the full function set.
//
// and the optimizer's plans for the first Q3 instance (customer x orders
// x lineitem, grouped, sorted, TOP 10) and the first Q14 instance
// (lineitem x part under a month of ship dates), each under the initial
// configuration and with indexes on the join keys:
//
//   q3_join, q3_join_idx, q14_join, q14_join_idx.
//
// Acceptance bars (nonzero exit on failure):
//   - every single-table shape's vectorized path >= 3x over the row path
//     (join shapes report their speedup without a bar);
//   - results, per-node actual cardinalities, and ExecutionCostModel
//     costs bit-identical between engines on every shape;
//   - a continuous-tuning run recommends identical configurations under
//     either engine.
//
// Emits machine-readable results to BENCH_exec.json in the working
// directory. Knobs: AIMAI_QUICK=1 shrinks the scale factor and repeats;
// AIMAI_SEED=<n>.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "exec/execution_cost.h"
#include "exec/executor.h"
#include "exec/vectorized_executor.h"
#include "harness.h"
#include "robustness/atomic_file.h"
#include "tuner/candidates.h"
#include "tuner/continuous_tuner.h"
#include "workloads/tpch_sf.h"

using namespace aimai;
using namespace aimai::bench;

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int ColId(const Table& t, const std::string& name) {
  for (size_t i = 0; i < t.num_columns(); ++i) {
    if (t.column(i).name() == name) return static_cast<int>(i);
  }
  std::fprintf(stderr, "FATAL: column %s not found in %s\n", name.c_str(),
               t.name().c_str());
  std::exit(2);
}

Predicate RangePred(int table, int col, CmpOp op, Value lo,
                    Value hi = Value()) {
  Predicate p;
  p.table_id = table;
  p.column_id = col;
  p.op = op;
  p.lo = lo;
  p.hi = hi;
  return p;
}

struct ShapeResult {
  std::string name;
  bool gated = true;  // Held to the 3x speedup bar.
  double row_ms = 0;
  double vec_ms = 0;
  bool identical = true;
  double speedup() const { return row_ms / vec_ms; }
};

std::string StatsFingerprint(const PhysicalPlan& plan, double cost) {
  std::string out = StrFormat("cost=%.17g", cost);
  plan.root->Visit([&out](const PlanNode& n) {
    out += StrFormat("|%d:%.17g:%.17g:%.17g", static_cast<int>(n.op),
                     n.stats.actual_rows, n.stats.actual_executions,
                     n.stats.actual_access_rows);
  });
  return out;
}

std::string ResultFingerprint(const ExecResult& r) {
  std::string out = r.is_agg ? "agg" : "rows";
  if (r.is_agg) {
    for (size_t g = 0; g < r.agg.size(); ++g) {
      for (double k : r.agg.group_keys[g]) out += StrFormat("|%.17g", k);
      for (double v : r.agg.agg_values[g]) out += StrFormat("|%.17g", v);
    }
  } else {
    out += StrFormat("|n=%zu", r.rows.size());
    for (size_t i = 0; i < r.rows.size(); i += 97) {  // Sampled.
      for (size_t s = 0; s < r.rows.width(); ++s) {
        out += StrFormat("|%u", r.rows.Tuple(i)[s]);
      }
    }
  }
  return out;
}

/// Times one engine over `plan` (fresh clone per repeat, best-of) and
/// returns the last run's result/stats fingerprint through `fp`.
double TimeEngine(const Database& db, IndexManager* indexes,
                  const PhysicalPlan& plan, ExecMode mode, int repeats,
                  std::string* fp) {
  double best = 0;
  for (int r = 0; r < repeats; ++r) {
    auto owned = plan.Clone();
    Executor exec(&db, indexes);
    exec.set_mode(mode);
    const double t0 = NowMs();
    const ExecResult result = exec.Execute(owned.get());
    const double ms = NowMs() - t0;
    if (r == 0 || ms < best) best = ms;
    ExecutionCostModel model(&db);
    const double cost = model.ComputeActualCost(owned.get());
    *fp = ResultFingerprint(result) + "#" + StatsFingerprint(*owned, cost);
  }
  return best;
}

ShapeResult RunShape(const std::string& name, const Database& db,
                     IndexManager* indexes, const PhysicalPlan& plan,
                     int repeats, bool gated = true) {
  ShapeResult out;
  out.name = name;
  out.gated = gated;
  if (!VectorizedExecutor::CanExecute(*plan.root)) {
    std::fprintf(stderr, "FATAL: %s plan not vectorizable\n", name.c_str());
    std::exit(2);
  }
  std::string row_fp, vec_fp;
  out.row_ms = TimeEngine(db, indexes, plan, ExecMode::kRow, repeats,
                          &row_fp);
  out.vec_ms = TimeEngine(db, indexes, plan, ExecMode::kBatch, repeats,
                          &vec_fp);
  out.identical = row_fp == vec_fp;
  return out;
}

/// Continuous tuning over a few Q6/Q1-family queries under one engine;
/// returns a fingerprint of every recommendation and measured cost. A
/// fresh same-seed database per engine: the noise RNG and index state
/// must start from the same point for a meaningful comparison.
std::string TuneFingerprint(const TpchSfOptions& topt, ExecMode mode,
                            size_t num_queries) {
  auto bdb = BuildTpchSf("exec_bench_tune", topt);
  TuningEnv env = bdb->MakeEnv(0);
  env.executor->set_mode(mode);
  CandidateGenerator candidates(bdb->db(), bdb->stats());
  ContinuousTuner::Options topts;
  topts.iterations = 2;
  ContinuousTuner tuner(&env, &candidates, topts);
  ContinuousTuner::ComparatorFactory factory =
      []() -> std::unique_ptr<CostComparator> {
    return std::make_unique<OptimizerComparator>(0.0, 0.2);
  };
  std::string out;
  for (size_t qi = 0; qi < num_queries && qi < bdb->queries().size(); ++qi) {
    const auto trace = tuner.TuneQuery(bdb->queries()[qi],
                                       bdb->initial_config(), factory,
                                       nullptr, nullptr);
    out += StrFormat("|%s:%.17g:%.17g:", trace.query_name.c_str(),
                     trace.initial_cost, trace.final_cost);
    out += trace.final_config.Fingerprint();
  }
  return out;
}

}  // namespace

int main() {
  const HarnessOptions opts = HarnessOptions::FromEnv();
  const bool quick = opts.scale_divisor > 2;
  const double sf = quick ? 0.02 : 0.1;
  const int repeats = opts.full ? 7 : 5;

  TpchSfOptions topt;
  topt.sf = sf;
  topt.seed = opts.seed;
  topt.instances_per_family = 2;
  auto bdb = BuildTpchSf("exec_bench", topt);
  const Database& db = *bdb->db();
  const int li = db.FindTable("lineitem");
  const Table& lineitem = db.table(li);
  const size_t n = lineitem.num_rows();
  std::fprintf(stderr, "lineitem: %zu rows (SF %.2f)\n", n, sf);

  const int c_qty = ColId(lineitem, "l_quantity");
  const int c_price = ColId(lineitem, "l_extendedprice");
  const int c_disc = ColId(lineitem, "l_discount");
  const int c_ship = ColId(lineitem, "l_shipdate");
  const int c_flag = ColId(lineitem, "l_returnflag");

  // Q6's predicate set: one shipdate year, a narrow discount band, small
  // quantities — ~0.5% of lineitem qualifies.
  const std::vector<Predicate> q6_preds = {
      RangePred(li, c_disc, CmpOp::kBetween, Value::Real(0.02),
                Value::Real(0.04)),
      RangePred(li, c_ship, CmpOp::kBetween, Value::Int(365),
                Value::Int(729)),
      RangePred(li, c_qty, CmpOp::kLt, Value::Int(12))};

  PhysicalPlan filter_plan;
  filter_plan.root = std::make_unique<PlanNode>();
  filter_plan.root->op = PhysOp::kTableScan;
  filter_plan.root->table_id = li;
  filter_plan.root->residual_preds = q6_preds;

  PhysicalPlan q6_plan;
  {
    auto scan = std::make_unique<PlanNode>();
    scan->op = PhysOp::kTableScan;
    scan->table_id = li;
    scan->residual_preds = q6_preds;
    auto agg = std::make_unique<PlanNode>();
    agg->op = PhysOp::kStreamAggregate;
    agg->table_id = li;
    agg->aggregates = {{AggFunc::kSum, ColumnRef{li, c_price}},
                       {AggFunc::kSum, ColumnRef{li, c_disc}},
                       {AggFunc::kCount, {}}};
    agg->children.push_back(std::move(scan));
    q6_plan.root = std::move(agg);
  }

  PhysicalPlan q1_plan;
  {
    auto scan = std::make_unique<PlanNode>();
    scan->op = PhysOp::kTableScan;
    scan->table_id = li;
    scan->residual_preds = {RangePred(li, c_ship, CmpOp::kLe,
                                      Value::Int(2400))};  // ~94% pass.
    auto agg = std::make_unique<PlanNode>();
    agg->op = PhysOp::kHashAggregate;
    agg->table_id = li;
    agg->group_by = {ColumnRef{li, c_flag}};
    agg->aggregates = {{AggFunc::kCount, {}},
                       {AggFunc::kSum, ColumnRef{li, c_qty}},
                       {AggFunc::kSum, ColumnRef{li, c_price}},
                       {AggFunc::kAvg, ColumnRef{li, c_price}},
                       {AggFunc::kMin, ColumnRef{li, c_price}},
                       {AggFunc::kMax, ColumnRef{li, c_price}}};
    agg->children.push_back(std::move(scan));
    q1_plan.root = std::move(agg);
  }

  std::vector<ShapeResult> shapes;
  shapes.push_back(
      RunShape("filter", db, bdb->indexes(), filter_plan, repeats));
  shapes.push_back(RunShape("q6_agg", db, bdb->indexes(), q6_plan, repeats));
  shapes.push_back(
      RunShape("q1_group", db, bdb->indexes(), q1_plan, repeats));

  // Join shapes: the optimizer's own plans, so they carry whatever join
  // algorithms and access paths it picks at this scale.
  auto first_instance = [&bdb](const std::string& family) -> const QuerySpec& {
    for (const QuerySpec& q : bdb->queries()) {
      if (q.name.rfind(family, 0) == 0) return q;
    }
    std::fprintf(stderr, "FATAL: no %s instance\n", family.c_str());
    std::exit(2);
  };
  auto key_index = [&db](const std::string& table, const std::string& col) {
    IndexDef def;
    def.table_id = db.FindTable(table);
    def.key_columns = {ColId(db.table(def.table_id), col)};
    return def;
  };
  Configuration q3_keys = bdb->initial_config();
  q3_keys.Add(key_index("orders", "o_custkey"));
  q3_keys.Add(key_index("lineitem", "l_orderkey"));
  Configuration q14_keys = bdb->initial_config();
  q14_keys.Add(key_index("part", "p_partkey"));
  const struct {
    const char* name;
    const char* family;
    const Configuration* config;
  } join_shapes[] = {{"q3_join", "q03", &bdb->initial_config()},
                     {"q3_join_idx", "q03", &q3_keys},
                     {"q14_join", "q14", &bdb->initial_config()},
                     {"q14_join_idx", "q14", &q14_keys}};
  for (const auto& js : join_shapes) {
    const auto plan =
        bdb->what_if()->Optimize(first_instance(js.family), *js.config);
    bdb->indexes()->Materialize(*js.config);  // Index builds are not timed.
    shapes.push_back(RunShape(js.name, db, bdb->indexes(), *plan, repeats,
                              /*gated=*/false));
  }

  std::vector<std::vector<std::string>> t1;
  t1.push_back({"shape", "row ms", "vectorized ms", "speedup", "identical"});
  for (const ShapeResult& s : shapes) {
    t1.push_back({s.name, F3(s.row_ms), F3(s.vec_ms),
                  StrFormat("%.2fx%s", s.speedup(), s.gated ? "" : " (info)"),
                  s.identical ? "yes" : "NO"});
  }
  PrintTable(StrFormat("Row vs vectorized execution (lineitem %zu rows, "
                       "best of %d)",
                       n, repeats),
             t1);

  // Recommendation cross-check: the engine choice must be invisible to
  // the tuner end to end.
  const size_t tune_queries = quick ? 3 : 5;
  TpchSfOptions tune_opt = topt;
  tune_opt.sf = quick ? 0.01 : 0.02;  // Tuning executes many plans.
  const std::string fp_row =
      TuneFingerprint(tune_opt, ExecMode::kRow, tune_queries);
  const std::string fp_vec =
      TuneFingerprint(tune_opt, ExecMode::kBatch, tune_queries);
  const bool tune_match = fp_row == fp_vec;
  std::fprintf(stderr, "tuning recommendations %s\n",
               tune_match ? "identical" : "DIVERGED");

  std::string json = StrFormat(
      "{\n  \"sf\": %.2f,\n  \"lineitem_rows\": %zu,\n  \"shapes\": {\n",
      sf, n);
  for (size_t i = 0; i < shapes.size(); ++i) {
    const ShapeResult& s = shapes[i];
    json += StrFormat(
        "    \"%s\": {\"row_ms\": %.3f, \"vectorized_ms\": %.3f, "
        "\"speedup\": %.2f, \"gated\": %s, \"identical\": %s}%s\n",
        s.name.c_str(), s.row_ms, s.vec_ms, s.speedup(),
        s.gated ? "true" : "false", s.identical ? "true" : "false",
        i + 1 < shapes.size() ? "," : "");
  }
  json += StrFormat("  },\n  \"tuning_identical\": %s\n}\n",
                    tune_match ? "true" : "false");
  const Status wrote = WriteFileAtomic("BENCH_exec.json", json);
  if (!wrote.ok()) {
    std::fprintf(stderr, "warning: %s\n", wrote.ToString().c_str());
  }

  bool ok = true;
  for (const ShapeResult& s : shapes) {
    if (!s.identical) {
      std::fprintf(stderr,
                   "FAIL: %s results/stats/costs diverged between "
                   "engines\n",
                   s.name.c_str());
      ok = false;
    }
    if (s.gated && s.speedup() < 3.0) {
      std::fprintf(stderr, "FAIL: %s vectorized speedup was %.2fx "
                   "(need >= 3x)\n",
                   s.name.c_str(), s.speedup());
      ok = false;
    }
  }
  if (!tune_match) {
    std::fprintf(stderr,
                 "FAIL: tuning recommendations diverged between engines\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
