// Parity tests for the batch execution engine: for every plan the
// optimizer emits, and for hand-built edge shapes, its results (order
// included), per-node actual statistics, and derived execution costs must
// be bit-identical to the row-at-a-time reference interpreter in
// reference_executor.h. The tuner's training labels come from these
// numbers, so any divergence silently corrupts the learned comparator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "exec/execution_cost.h"
#include "exec/executor.h"
#include "reference_executor.h"
#include "storage/data_generator.h"
#include "tuner/candidates.h"
#include "workloads/customer.h"
#include "workloads/tpcds_like.h"
#include "workloads/tpch_like.h"
#include "workloads/tpch_sf.h"

namespace aimai {
namespace {

using testing_ref::ExpectMatchesReference;

struct SweepCounts {
  size_t plans = 0;
  size_t hash_joins = 0;
  size_t nl_joins = 0;
};

// Sweeps every query of a benchmark database under (a) the initial
// configuration and (b) a candidate-enriched configuration, comparing the
// executor with the reference on the optimizer's chosen plans. `joins_only` restricts the
// sweep to multi-table queries.
SweepCounts SweepWorkload(BenchmarkDatabase* bdb, size_t max_queries,
                          bool joins_only = false) {
  SweepCounts counts;
  CandidateGenerator candidates(bdb->db(), bdb->stats());
  Rng rng(7);
  size_t nq = std::min(max_queries, bdb->queries().size());
  for (size_t qi = 0; qi < nq; ++qi) {
    const QuerySpec& q = bdb->queries()[qi];
    if (joins_only && q.joins.empty()) continue;
    std::vector<Configuration> configs = {bdb->initial_config()};
    Configuration enriched = bdb->initial_config();
    for (const IndexDef& def : candidates.Generate(q, {})) {
      if (rng.Bernoulli(0.5)) enriched.Add(def);
    }
    configs.push_back(enriched);
    for (size_t ci = 0; ci < configs.size(); ++ci) {
      const auto plan = bdb->what_if()->Optimize(q, configs[ci]);
      const std::string context =
          q.name + " config#" + std::to_string(ci);
      ++counts.plans;
      if (!Executor::CanExecute(*plan->root)) {
        ADD_FAILURE() << "optimizer plan outside the batch engine: "
                      << context;
        continue;
      }
      ExpectMatchesReference(*bdb->db(), bdb->indexes(), *plan, context);
      plan->root->Visit([&counts](const PlanNode& n) {
        counts.hash_joins += n.op == PhysOp::kHashJoin;
        counts.nl_joins += n.op == PhysOp::kNestedLoopJoin;
      });
    }
  }
  return counts;
}

std::unique_ptr<BenchmarkDatabase> BuildSweepCustomer(uint64_t seed) {
  CustomerProfile prof;
  prof.num_tables = 4;
  prof.min_rows = 100;
  prof.max_rows = 800;
  prof.num_queries = 10;
  prof.max_joins = 2;
  prof.zipf_s = 0.8;
  return BuildCustomer("vb_cust", prof, seed);
}

std::unique_ptr<BenchmarkDatabase> BuildSweepTpchSf(uint64_t seed) {
  TpchSfOptions opt;
  opt.sf = 0.01;
  opt.seed = seed;
  opt.instances_per_family = 2;
  return BuildTpchSf("vb_sf", opt);
}

TEST(ExecBatchTest, TpchWorkloadParity) {
  auto bdb = BuildTpchLike("vb_tpch", 1, 0.9, 11);
  const SweepCounts c = SweepWorkload(bdb.get(), 12);
  EXPECT_GT(c.plans, 0u);
}

TEST(ExecBatchTest, TpcdsWorkloadParity) {
  auto bdb = BuildTpcdsLike("vb_tpcds", 1, 0.9, /*with_columnstore=*/true, 12);
  const SweepCounts c = SweepWorkload(bdb.get(), bdb->queries().size());
  EXPECT_GT(c.plans, 0u);
}

TEST(ExecBatchTest, CustomerWorkloadParity) {
  auto bdb = BuildSweepCustomer(13);
  const SweepCounts c = SweepWorkload(bdb.get(), 10);
  EXPECT_GT(c.plans, 0u);
}

TEST(ExecBatchTest, TpchSfWorkloadParity) {
  auto bdb = BuildSweepTpchSf(14);
  const SweepCounts c = SweepWorkload(bdb.get(), 10);
  EXPECT_GT(c.plans, 0u);
}

TEST(ExecBatchTest, JoinPlansRunOnBatchEngine) {
  // The join queries of the four workload families, at seeds the parity
  // sweeps above do not use: every plan must pass CanExecute and match
  // the reference exactly, and the sweep must cover both join
  // algorithms the optimizer picks at these sizes.
  SweepCounts total;
  auto add = [&total](const SweepCounts& c) {
    total.plans += c.plans;
    total.hash_joins += c.hash_joins;
    total.nl_joins += c.nl_joins;
  };
  add(SweepWorkload(BuildTpchLike("vb_join", 1, 0.9, 31).get(), 64, true));
  add(SweepWorkload(
      BuildTpcdsLike("vb_join_ds", 1, 0.9, /*with_columnstore=*/true, 32)
          .get(),
      64, true));
  add(SweepWorkload(BuildSweepCustomer(33).get(), 10, true));
  add(SweepWorkload(BuildSweepTpchSf(34).get(), 64, true));
  EXPECT_GT(total.plans, 0u);
  EXPECT_GT(total.hash_joins, 0u);
  EXPECT_GT(total.nl_joins, 0u);
}

// ------------------------------------------------- hand-built edge cases

// Small mixed-type table: int key, double measure, dictionary string.
std::unique_ptr<Database> MakeEdgeDb() {
  auto db = std::make_unique<Database>("edge");
  DataGenerator gen(Rng{21});
  auto t = std::make_unique<Table>("t");
  gen.FillSequentialInt(t->AddColumn("a", DataType::kInt64), 500);
  gen.FillUniformDouble(t->AddColumn("b", DataType::kDouble), 500, -10, 10);
  gen.FillDictString(t->AddColumn("s", DataType::kString), 500, 12, 0.7, "w");
  t->SealRows();
  db->AddTable(std::move(t));
  return db;
}

PhysicalPlan MakeScanFilterPlan(std::vector<Predicate> preds) {
  PhysicalPlan plan;
  plan.root = std::make_unique<PlanNode>();
  plan.root->op = PhysOp::kTableScan;
  plan.root->table_id = 0;
  plan.root->residual_preds = std::move(preds);
  return plan;
}

Predicate MakePred(int col, CmpOp op, Value lo, Value hi = Value()) {
  Predicate p;
  p.table_id = 0;
  p.column_id = col;
  p.op = op;
  p.lo = lo;
  p.hi = hi;
  return p;
}

TEST(ExecBatchTest, EmptyResultFilter) {
  auto dbp = MakeEdgeDb();
  Database& db = *dbp;
  IndexManager indexes(&db);
  const auto plan = MakeScanFilterPlan({MakePred(0, CmpOp::kGt,
                                                 Value::Int(100000))});
  ASSERT_TRUE(Executor::CanExecute(*plan.root));
  ExpectMatchesReference(db, &indexes, plan, "empty-result");

  auto vec_plan = plan.Clone();
  Executor exec(&db, &indexes);
  const ExecResult r = exec.Execute(vec_plan.get());
  EXPECT_EQ(r.rows.size(), 0u);
  EXPECT_EQ(vec_plan->root->stats.actual_rows, 0.0);
  EXPECT_EQ(vec_plan->root->stats.actual_access_rows, 500.0);
}

TEST(ExecBatchTest, AllPassFilter) {
  auto dbp = MakeEdgeDb();
  Database& db = *dbp;
  IndexManager indexes(&db);
  const auto plan = MakeScanFilterPlan({MakePred(0, CmpOp::kGe,
                                                 Value::Int(0))});
  ASSERT_TRUE(Executor::CanExecute(*plan.root));
  ExpectMatchesReference(db, &indexes, plan, "all-pass");

  auto vec_plan = plan.Clone();
  Executor exec(&db, &indexes);
  const ExecResult r = exec.Execute(vec_plan.get());
  EXPECT_EQ(r.rows.size(), 500u);
  EXPECT_EQ(vec_plan->root->stats.actual_rows, 500.0);
}

TEST(ExecBatchTest, DictionaryColumnFilter) {
  auto dbp = MakeEdgeDb();
  Database& db = *dbp;
  IndexManager indexes(&db);
  const Column& s = db.table(0).column(2);
  ASSERT_FALSE(s.dictionary().empty());
  // Equality on a dictionary word plus a range over codes (string
  // comparisons resolve to dictionary-code bounds).
  const std::string word = s.dictionary()[s.dictionary().size() / 2];
  {
    const auto plan =
        MakeScanFilterPlan({MakePred(2, CmpOp::kEq, Value::Str(word))});
    ASSERT_TRUE(Executor::CanExecute(*plan.root));
    ExpectMatchesReference(db, &indexes, plan, "dict-eq");
  }
  {
    const auto plan =
        MakeScanFilterPlan({MakePred(2, CmpOp::kLe, Value::Str(word)),
                            MakePred(0, CmpOp::kLt, Value::Int(400))});
    ASSERT_TRUE(Executor::CanExecute(*plan.root));
    ExpectMatchesReference(db, &indexes, plan, "dict-range-plus-int");
  }
}

TEST(ExecBatchTest, GroupedAggregateOverDictionaryColumn) {
  auto dbp = MakeEdgeDb();
  Database& db = *dbp;
  IndexManager indexes(&db);
  PhysicalPlan plan;
  auto scan = std::make_unique<PlanNode>();
  scan->op = PhysOp::kTableScan;
  scan->table_id = 0;
  scan->residual_preds = {MakePred(0, CmpOp::kLt, Value::Int(300))};
  auto agg = std::make_unique<PlanNode>();
  agg->op = PhysOp::kHashAggregate;
  agg->table_id = 0;
  agg->group_by = {ColumnRef{0, 2}};
  agg->aggregates = {{AggFunc::kCount, {}},
                     {AggFunc::kSum, ColumnRef{0, 1}},
                     {AggFunc::kAvg, ColumnRef{0, 1}},
                     {AggFunc::kMin, ColumnRef{0, 1}},
                     {AggFunc::kMax, ColumnRef{0, 1}}};
  agg->children.push_back(std::move(scan));
  plan.root = std::move(agg);
  ASSERT_TRUE(Executor::CanExecute(*plan.root));
  ExpectMatchesReference(db, &indexes, plan, "dict-group-agg");

  // Sanity: COUNTs sum to the filtered row count.
  auto vec_plan = plan.Clone();
  Executor exec(&db, &indexes);
  const ExecResult r = exec.Execute(vec_plan.get());
  ASSERT_TRUE(r.is_agg);
  double total = 0;
  for (const auto& v : r.agg.agg_values) total += v[0];
  EXPECT_EQ(total, 300.0);
}

// ------------------------------------------------ hand-built join shapes

// Two tables for hand-built join plans. l (table 0) and r (table 1) each
// carry an int key full of duplicates (k), a double key holding NaN and
// both signed zeros (d), and an int payload (v). r.k, the indexed inner
// key, has no NaN: B+-tree keys are numbers.
std::unique_ptr<Database> MakeJoinDb() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto db = std::make_unique<Database>("join_edge");
  auto l = std::make_unique<Table>("l");
  Column* lk = l->AddColumn("k", DataType::kInt64);
  Column* ld = l->AddColumn("d", DataType::kDouble);
  Column* lv = l->AddColumn("v", DataType::kInt64);
  const double l_d[] = {nan, 0.0, -0.0, 1.0, nan, 2.0, -0.0, 1.0};
  for (int i = 0; i < 300; ++i) {
    lk->AppendInt(i % 7);
    ld->AppendDouble(l_d[i % 8]);
    lv->AppendInt((i * 37) % 11);
  }
  l->SealRows();
  db->AddTable(std::move(l));
  auto r = std::make_unique<Table>("r");
  Column* rk = r->AddColumn("k", DataType::kInt64);
  Column* rd = r->AddColumn("d", DataType::kDouble);
  Column* rv = r->AddColumn("v", DataType::kInt64);
  const double r_d[] = {0.0, nan, 1.0, -0.0, 3.0};
  for (int i = 0; i < 120; ++i) {
    rk->AppendInt((i * 3) % 5);
    rd->AppendDouble(r_d[i % 5]);
    rv->AppendInt(i % 13);
  }
  r->SealRows();
  db->AddTable(std::move(r));
  return db;
}

constexpr int kL = 0;
constexpr int kR = 1;
constexpr int kK = 0;
constexpr int kD = 1;
constexpr int kV = 2;

Predicate PredOn(int table, int col, CmpOp op, Value lo) {
  Predicate p = MakePred(col, op, lo);
  p.table_id = table;
  return p;
}

std::unique_ptr<PlanNode> Scan(int table, std::vector<Predicate> preds = {}) {
  auto n = std::make_unique<PlanNode>();
  n->op = PhysOp::kTableScan;
  n->table_id = table;
  n->residual_preds = std::move(preds);
  return n;
}

std::unique_ptr<PlanNode> Over(PhysOp op, std::unique_ptr<PlanNode> child) {
  auto n = std::make_unique<PlanNode>();
  n->op = op;
  n->children.push_back(std::move(child));
  return n;
}

std::unique_ptr<PlanNode> SortOn(std::unique_ptr<PlanNode> child,
                                 std::vector<SortKey> keys) {
  auto n = Over(PhysOp::kSort, std::move(child));
  n->sort_keys = std::move(keys);
  return n;
}

// A join node; merge joins get sorted inputs, like the optimizer's.
std::unique_ptr<PlanNode> Join(PhysOp op, std::unique_ptr<PlanNode> left,
                               std::unique_ptr<PlanNode> right,
                               ColumnRef left_col, ColumnRef right_col) {
  if (op == PhysOp::kMergeJoin) {
    left = SortOn(std::move(left), {SortKey{left_col, true}});
    right = SortOn(std::move(right), {SortKey{right_col, true}});
  }
  auto n = Over(op, std::move(left));
  n->children.push_back(std::move(right));
  n->join.left = left_col;
  n->join.right = right_col;
  return n;
}

// Nested-loop inner side: a seek on an index over r.k, optionally under a
// KeyLookup + Filter on r.v.
std::unique_ptr<PlanNode> SeekInnerOnRk(bool with_filter) {
  auto seek = std::make_unique<PlanNode>();
  seek->op = PhysOp::kIndexSeek;
  seek->table_id = kR;
  seek->index.table_id = kR;
  seek->index.key_columns = {kK};
  if (!with_filter) return seek;
  auto lookup = Over(PhysOp::kKeyLookup, std::move(seek));
  lookup->table_id = kR;  // The cost model prices lookups by table size.
  auto filter = Over(PhysOp::kFilter, std::move(lookup));
  filter->residual_preds = {PredOn(kR, kV, CmpOp::kLt, Value::Int(7))};
  return filter;
}

PhysicalPlan PlanOf(std::unique_ptr<PlanNode> root) {
  PhysicalPlan plan;
  plan.root = std::move(root);
  return plan;
}

// Runs `plan` on the batch engine alone (fresh clone).
ExecResult RunBatch(const Database& db, IndexManager* indexes,
                    const PhysicalPlan& plan,
                    std::unique_ptr<PhysicalPlan>* ran = nullptr) {
  auto owned = plan.Clone();
  Executor exec(&db, indexes);
  ExecResult r = exec.Execute(owned.get());
  if (ran != nullptr) *ran = std::move(owned);
  return r;
}

// Brute-force equi-join size under double ==.
size_t CountEqualPairs(const Database& db, ColumnRef a, ColumnRef b) {
  const Column& ca = db.table(a.table_id).column(static_cast<size_t>(a.column_id));
  const Column& cb = db.table(b.table_id).column(static_cast<size_t>(b.column_id));
  size_t n = 0;
  for (size_t i = 0; i < ca.size(); ++i) {
    for (size_t j = 0; j < cb.size(); ++j) {
      n += ca.NumericAt(i) == cb.NumericAt(j);
    }
  }
  return n;
}

TEST(ExecBatchTest, DuplicateJoinKeysKeepCanonicalOrder) {
  auto db = MakeJoinDb();
  IndexManager indexes(db.get());
  const ColumnRef lk{kL, kK}, rk{kR, kK};
  const auto plan =
      PlanOf(Join(PhysOp::kHashJoin, Scan(kL), Scan(kR), lk, rk));
  ASSERT_TRUE(Executor::CanExecute(*plan.root));
  ExpectMatchesReference(*db, &indexes, plan, "hash-dup-keys");

  // Probe order, then build-input order within one probe row.
  const ExecResult r = RunBatch(*db, &indexes, plan);
  ASSERT_EQ(r.rows.tables, (std::vector<int>{kR, kL}));
  ASSERT_EQ(r.rows.size(), CountEqualPairs(*db, lk, rk));
  for (size_t t = 1; t < r.rows.size(); ++t) {
    const uint32_t* prev = r.rows.Tuple(t - 1);
    const uint32_t* cur = r.rows.Tuple(t);
    ASSERT_LE(prev[0], cur[0]) << t;
    if (prev[0] == cur[0]) {
      ASSERT_LT(prev[1], cur[1]) << t;
    }
  }

  const auto merge =
      PlanOf(Join(PhysOp::kMergeJoin, Scan(kL), Scan(kR), lk, rk));
  ASSERT_TRUE(Executor::CanExecute(*merge.root));
  ExpectMatchesReference(*db, &indexes, merge, "merge-dup-keys");
  EXPECT_EQ(RunBatch(*db, &indexes, merge).rows.size(),
            CountEqualPairs(*db, lk, rk));
}

TEST(ExecBatchTest, NanAndSignedZeroJoinKeys) {
  auto db = MakeJoinDb();
  IndexManager indexes(db.get());
  const ColumnRef ld{kL, kD}, rd{kR, kD}, rk{kR, kK};
  struct Case {
    std::string name;
    PhysicalPlan plan;
    size_t expected;
  };
  std::vector<Case> cases;
  cases.push_back({"hash", PlanOf(Join(PhysOp::kHashJoin, Scan(kL), Scan(kR),
                                       ld, rd)),
                   CountEqualPairs(*db, ld, rd)});
  cases.push_back({"merge", PlanOf(Join(PhysOp::kMergeJoin, Scan(kL),
                                        Scan(kR), ld, rd)),
                   CountEqualPairs(*db, ld, rd)});
  cases.push_back({"nlj-scan", PlanOf(Join(PhysOp::kNestedLoopJoin, Scan(kL),
                                           Scan(kR), ld, rd)),
                   CountEqualPairs(*db, ld, rd)});
  cases.push_back({"nlj-seek",
                   PlanOf(Join(PhysOp::kNestedLoopJoin, Scan(kL),
                               SeekInnerOnRk(false), ld, rk)),
                   CountEqualPairs(*db, ld, rk)});
  for (const Case& c : cases) {
    ASSERT_TRUE(Executor::CanExecute(*c.plan.root)) << c.name;
    ExpectMatchesReference(*db, &indexes, c.plan, c.name);
    EXPECT_EQ(RunBatch(*db, &indexes, c.plan).rows.size(), c.expected)
        << c.name;
  }
  // The fixture really holds both zeros and NaN on the matched sides.
  EXPECT_GT(CountEqualPairs(*db, ld, rd), 0u);
  EXPECT_TRUE(std::signbit(db->table(kL).column(kD).NumericAt(2)));
}

TEST(ExecBatchTest, NestedLoopJoinInnerChainAndRebindStats) {
  auto db = MakeJoinDb();
  IndexManager indexes(db.get());
  const ColumnRef lk{kL, kK}, rk{kR, kK};
  const auto plan = PlanOf(Join(PhysOp::kNestedLoopJoin,
                                Scan(kL, {PredOn(kL, kV, CmpOp::kLt,
                                                 Value::Int(6))}),
                                SeekInnerOnRk(true), lk, rk));
  ASSERT_TRUE(Executor::CanExecute(*plan.root));
  ExpectMatchesReference(*db, &indexes, plan, "nlj-seek-chain");

  // Every inner node rebinds once per outer tuple.
  std::unique_ptr<PhysicalPlan> ran;
  RunBatch(*db, &indexes, plan, &ran);
  const double outer_rows = ran->root->child(0)->stats.actual_rows;
  ASSERT_GT(outer_rows, 0);
  ran->root->child(1)->Visit([outer_rows](const PlanNode& n) {
    EXPECT_EQ(n.stats.actual_executions, outer_rows);
    EXPECT_TRUE(n.stats.executed);
  });
}

TEST(ExecBatchTest, EmptyOuterNestedLoopJoinLeavesInnerUnexecuted) {
  auto db = MakeJoinDb();
  const ColumnRef lk{kL, kK}, rk{kR, kK};
  const auto plan = PlanOf(Join(
      PhysOp::kNestedLoopJoin,
      Scan(kL, {PredOn(kL, kK, CmpOp::kGt, Value::Int(1000))}),
      SeekInnerOnRk(true), lk, rk));
  ASSERT_TRUE(Executor::CanExecute(*plan.root));
  {
    IndexManager indexes(db.get());
    ExpectMatchesReference(*db, &indexes, plan, "nlj-empty-outer");
  }
  IndexManager indexes(db.get());
  std::unique_ptr<PhysicalPlan> ran;
  const ExecResult r = RunBatch(*db, &indexes, plan, &ran);
  EXPECT_EQ(r.rows.size(), 0u);
  EXPECT_EQ(r.rows.tables, (std::vector<int>{kL, kR}));
  EXPECT_EQ(indexes.num_built(), 0u);  // The inner seek never ran.
  ExecutionCostModel model(db.get());
  model.ComputeActualCost(ran.get());
  ran->root->child(1)->Visit([](const PlanNode& n) {
    EXPECT_FALSE(n.stats.executed);
    EXPECT_EQ(n.stats.actual_executions, 0.0);
    EXPECT_EQ(n.stats.actual_cost, 0.0);
  });
}

TEST(ExecBatchTest, MultiTableFilterAboveJoin) {
  auto db = MakeJoinDb();
  IndexManager indexes(db.get());
  const ColumnRef lk{kL, kK}, rk{kR, kK};
  auto join = Join(PhysOp::kHashJoin, Scan(kL), Scan(kR), lk, rk);
  auto on_l = Over(PhysOp::kFilter, std::move(join));
  on_l->residual_preds = {PredOn(kL, kV, CmpOp::kGe, Value::Int(4))};
  auto on_r = Over(PhysOp::kFilter, std::move(on_l));
  on_r->residual_preds = {PredOn(kR, kV, CmpOp::kLt, Value::Int(9)),
                          PredOn(kR, kV, CmpOp::kGt, Value::Int(1))};
  const auto plan = PlanOf(std::move(on_r));
  ASSERT_TRUE(Executor::CanExecute(*plan.root));
  ExpectMatchesReference(*db, &indexes, plan, "filter-over-join");
  const ExecResult r = RunBatch(*db, &indexes, plan);
  EXPECT_GT(r.rows.size(), 0u);
  for (size_t t = 0; t < r.rows.size(); ++t) {
    EXPECT_GE(db->table(kL).column(kV).NumericAt(r.rows.Tuple(t)[1]), 4.0);
  }
}

TEST(ExecBatchTest, TopOverJoin) {
  auto db = MakeJoinDb();
  IndexManager indexes(db.get());
  const ColumnRef lk{kL, kK}, rk{kR, kK};
  for (PhysOp op : {PhysOp::kHashJoin, PhysOp::kNestedLoopJoin,
                    PhysOp::kMergeJoin}) {
    auto top = Over(PhysOp::kTop,
                    Join(op, Scan(kL),
                         op == PhysOp::kNestedLoopJoin ? SeekInnerOnRk(false)
                                                       : Scan(kR),
                         lk, rk));
    top->top_n = 5;
    const auto plan = PlanOf(std::move(top));
    const std::string name = std::string("top-over-") + PhysOpName(op);
    ASSERT_TRUE(Executor::CanExecute(*plan.root)) << name;
    ExpectMatchesReference(*db, &indexes, plan, name);
    EXPECT_EQ(RunBatch(*db, &indexes, plan).rows.size(), 5u) << name;
  }
}

TEST(ExecBatchTest, SortWithTiesIsStable) {
  auto db = MakeJoinDb();
  IndexManager indexes(db.get());
  const ColumnRef lk{kL, kK}, lv{kL, kV}, rk{kR, kK}, rv{kR, kV};
  // Single key: 300 rows over 7 key values, so ties keep scan order.
  const auto single = PlanOf(SortOn(Scan(kL), {SortKey{lk, false}}));
  ASSERT_TRUE(Executor::CanExecute(*single.root));
  ExpectMatchesReference(*db, &indexes, single, "sort-ties");
  const ExecResult r = RunBatch(*db, &indexes, single);
  const Column& k = db->table(kL).column(kK);
  for (size_t t = 1; t < r.rows.size(); ++t) {
    const uint32_t a = r.rows.Tuple(t - 1)[0];
    const uint32_t b = r.rows.Tuple(t)[0];
    ASSERT_GE(k.NumericAt(a), k.NumericAt(b));
    if (k.NumericAt(a) == k.NumericAt(b)) {
      ASSERT_LT(a, b);
    }
  }
  // Several keys over a join's output, NaN and signed zeros included,
  // then an aggregate over the multi-table rows.
  auto joined = Join(PhysOp::kHashJoin, Scan(kL), Scan(kR), lk, rk);
  const auto multi = PlanOf(SortOn(
      std::move(joined),
      {SortKey{ColumnRef{kR, kD}, true}, SortKey{lv, false}}));
  ASSERT_TRUE(Executor::CanExecute(*multi.root));
  ExpectMatchesReference(*db, &indexes, multi, "sort-multi-key-over-join");

  auto agg = Over(PhysOp::kHashAggregate,
                  Join(PhysOp::kHashJoin, Scan(kL), Scan(kR), lk, rk));
  agg->group_by = {rv};
  agg->aggregates = {{AggFunc::kCount, {}},
                     {AggFunc::kSum, lv},
                     {AggFunc::kAvg, ColumnRef{kR, kK}},
                     {AggFunc::kMax, lv}};
  const auto grouped = PlanOf(SortOn(std::move(agg), {SortKey{rv, true}}));
  ASSERT_TRUE(Executor::CanExecute(*grouped.root));
  ExpectMatchesReference(*db, &indexes, grouped, "agg-over-join");
}


// ------------------------------------------- TPC-H lineitem plan shapes

// The Q1 / Q6 shapes over lineitem as hand-built plans (no sweep emits
// exactly these: Q6's predicates in one scan, materialized and under an
// ungrouped stream aggregate; Q1's ~95%-pass date filter under a grouped
// aggregate with the full function set), plus the optimizer's plans for
// the first Q3 and Q14 instances under the initial configuration and with
// indexes on their join keys.
TEST(ExecBatchTest, LineitemShapesMatchReference) {
  TpchSfOptions opt;
  opt.sf = 0.01;
  opt.seed = 42;
  opt.instances_per_family = 2;
  auto bdb = BuildTpchSf("vb_lineitem", opt);
  const Database& db = *bdb->db();
  const int li = db.FindTable("lineitem");
  const Table& lineitem = db.table(li);
  auto col = [&lineitem](const char* name) {
    const int c = lineitem.ColumnIndex(name);
    EXPECT_GE(c, 0) << name;
    return c;
  };
  const int qty = col("l_quantity"), price = col("l_extendedprice"),
            disc = col("l_discount"), ship = col("l_shipdate"),
            flag = col("l_returnflag");
  auto pred = [li](int c, CmpOp op, Value lo, Value hi = Value()) {
    Predicate p = PredOn(li, c, op, lo);
    p.hi = hi;
    return p;
  };
  // ~0.5% of lineitem: one shipdate year, a discount band, small
  // quantities.
  const std::vector<Predicate> q6_preds = {
      pred(disc, CmpOp::kBetween, Value::Real(0.02), Value::Real(0.04)),
      pred(ship, CmpOp::kBetween, Value::Int(365), Value::Int(729)),
      pred(qty, CmpOp::kLt, Value::Int(12))};

  const auto filter = PlanOf(Scan(li, q6_preds));
  auto q6 = Over(PhysOp::kStreamAggregate, Scan(li, q6_preds));
  q6->aggregates = {{AggFunc::kSum, ColumnRef{li, price}},
                    {AggFunc::kSum, ColumnRef{li, disc}},
                    {AggFunc::kCount, {}}};
  const auto q6_agg = PlanOf(std::move(q6));
  auto q1 = Over(PhysOp::kHashAggregate,
                 Scan(li, {pred(ship, CmpOp::kLe, Value::Int(2400))}));
  q1->group_by = {ColumnRef{li, flag}};
  q1->aggregates = {{AggFunc::kCount, {}},
                    {AggFunc::kSum, ColumnRef{li, qty}},
                    {AggFunc::kSum, ColumnRef{li, price}},
                    {AggFunc::kAvg, ColumnRef{li, price}},
                    {AggFunc::kMin, ColumnRef{li, price}},
                    {AggFunc::kMax, ColumnRef{li, price}}};
  const auto q1_group = PlanOf(std::move(q1));
  for (const auto& [name, plan] :
       {std::pair<const char*, const PhysicalPlan*>{"filter", &filter},
        {"q6_agg", &q6_agg},
        {"q1_group", &q1_group}}) {
    ASSERT_TRUE(Executor::CanExecute(*plan->root)) << name;
    ExpectMatchesReference(db, bdb->indexes(), *plan, name);
  }
  EXPECT_GT(RunBatch(db, bdb->indexes(), filter).rows.size(), 0u);
  EXPECT_GT(RunBatch(db, bdb->indexes(), q1_group).agg.size(), 1u);

  auto first_instance = [&bdb](const std::string& family) {
    for (const QuerySpec& q : bdb->queries()) {
      if (q.name.rfind(family, 0) == 0) return q;
    }
    ADD_FAILURE() << "no " << family << " instance";
    return QuerySpec{};
  };
  auto key_index = [&db](const char* table, const char* column) {
    IndexDef def;
    def.table_id = db.FindTable(table);
    def.key_columns = {db.table(def.table_id).ColumnIndex(column)};
    return def;
  };
  Configuration q3_keys = bdb->initial_config();
  q3_keys.Add(key_index("orders", "o_custkey"));
  q3_keys.Add(key_index("lineitem", "l_orderkey"));
  Configuration q14_keys = bdb->initial_config();
  q14_keys.Add(key_index("part", "p_partkey"));
  const QuerySpec q3 = first_instance("q03");
  const QuerySpec q14 = first_instance("q14");
  size_t joins = 0;
  for (const auto& [name, query, config] :
       {std::tuple<const char*, const QuerySpec*, const Configuration*>{
            "q3_join", &q3, &bdb->initial_config()},
        {"q3_join_idx", &q3, &q3_keys},
        {"q14_join", &q14, &bdb->initial_config()},
        {"q14_join_idx", &q14, &q14_keys}}) {
    const auto plan = bdb->what_if()->Optimize(*query, *config);
    ASSERT_TRUE(Executor::CanExecute(*plan->root)) << name;
    ExpectMatchesReference(db, bdb->indexes(), *plan, name);
    plan->root->Visit([&joins](const PlanNode& n) {
      joins += n.op == PhysOp::kHashJoin || n.op == PhysOp::kMergeJoin ||
               n.op == PhysOp::kNestedLoopJoin;
    });
  }
  EXPECT_GT(joins, 0u);
}

// ------------------------------------------------------ malformed plans

// A filter whose predicate names a table its input does not carry: no
// optimizer emits it, CanExecute rejects it, and Execute treats running
// it as a programming error instead of detouring to another engine.
TEST(ExecBatchTest, MalformedPlanIsAProgrammingError) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto db = MakeJoinDb();
  IndexManager indexes(db.get());
  auto filter = Over(PhysOp::kFilter, Scan(kL));
  filter->residual_preds = {PredOn(kR, kV, CmpOp::kLt, Value::Int(7))};
  const auto plan = PlanOf(std::move(filter));
  EXPECT_FALSE(Executor::CanExecute(*plan.root));
  EXPECT_DEATH(RunBatch(*db, &indexes, plan), "batch engine");
}

}  // namespace
}  // namespace aimai
