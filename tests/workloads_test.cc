// Unit tests for workloads/: generators produce well-formed databases and
// queries; the collection driver produces consistent repositories.

#include <gtest/gtest.h>

#include <set>

#include "workloads/collection.h"
#include "workloads/customer.h"
#include "workloads/query_stream.h"
#include "workloads/tpcds_like.h"
#include "workloads/tpch_like.h"

namespace aimai {
namespace {

void ValidateQueries(BenchmarkDatabase* bdb) {
  std::set<std::string> names;
  for (const QuerySpec& q : bdb->queries()) {
    EXPECT_TRUE(names.insert(q.name).second) << "duplicate " << q.name;
    ASSERT_FALSE(q.tables.empty()) << q.name;
    // Tables are distinct.
    std::set<int> tset(q.tables.begin(), q.tables.end());
    EXPECT_EQ(tset.size(), q.tables.size()) << q.name;
    // A query over n tables has exactly n-1 join conditions (join trees).
    EXPECT_EQ(q.joins.size(), q.tables.size() - 1) << q.name;
    // Every join endpoint is a table in the query, with valid columns.
    for (const JoinCond& j : q.joins) {
      EXPECT_TRUE(tset.count(j.left.table_id)) << q.name;
      EXPECT_TRUE(tset.count(j.right.table_id)) << q.name;
      EXPECT_LT(static_cast<size_t>(j.left.column_id),
                bdb->db()->table(j.left.table_id).num_columns());
    }
    // Predicates reference query tables.
    for (const Predicate& p : q.predicates) {
      EXPECT_TRUE(tset.count(p.table_id)) << q.name;
    }
    // Every query must be optimizable and executable under C0.
    const auto plan =
        bdb->what_if()->Optimize(q, bdb->initial_config());
    ASSERT_NE(plan, nullptr) << q.name;
    EXPECT_GT(plan->est_total_cost, 0) << q.name;
  }
}

TEST(TpchLikeTest, SchemaAndQueriesWellFormed) {
  auto bdb = BuildTpchLike("w_tpch", 2, 0.9, 71);
  EXPECT_EQ(bdb->db()->num_tables(), 8);
  EXPECT_GE(bdb->queries().size(), 24u);
  EXPECT_GT(bdb->db()->table(bdb->db()->FindTable("lineitem")).num_rows(),
            bdb->db()->table(bdb->db()->FindTable("orders")).num_rows());
  ValidateQueries(bdb.get());
}

TEST(TpchLikeTest, ScaleParameterScalesRows) {
  auto small = BuildTpchLike("w_s", 1, 0.9, 72);
  auto big = BuildTpchLike("w_b", 4, 0.9, 72);
  const int li_s = small->db()->FindTable("lineitem");
  const int li_b = big->db()->FindTable("lineitem");
  EXPECT_EQ(big->db()->table(li_b).num_rows(),
            4 * small->db()->table(li_s).num_rows());
}

TEST(TpcdsLikeTest, SchemaQueriesAndColumnstoreConfig) {
  auto plain = BuildTpcdsLike("w_ds", 2, 0.8, false, 73);
  EXPECT_EQ(plain->db()->num_tables(), 11);
  EXPECT_TRUE(plain->initial_config().empty());
  ValidateQueries(plain.get());

  auto cs = BuildTpcdsLike("w_ds_cs", 2, 0.8, true, 73);
  EXPECT_EQ(cs->initial_config().size(), 3u);  // Three fact tables.
  for (const IndexDef& def : cs->initial_config().indexes()) {
    EXPECT_TRUE(def.is_columnstore);
  }
  ValidateQueries(cs.get());
}

TEST(CustomerTest, ProfilesProduceValidDatabases) {
  for (int c : {1, 4, 6, 9, 11}) {
    CustomerProfile prof = CustomerProfileFor(c);
    prof.max_rows = std::min<size_t>(prof.max_rows, 5000);
    auto bdb = BuildCustomer("w_c" + std::to_string(c), prof, 74 + c);
    EXPECT_EQ(bdb->db()->num_tables(), prof.num_tables);
    EXPECT_GE(static_cast<int>(bdb->queries().size()), prof.num_queries);
    ValidateQueries(bdb.get());
  }
}

TEST(CustomerTest, Customer6IsDeepest) {
  const CustomerProfile p6 = CustomerProfileFor(6);
  for (int c = 1; c <= 11; ++c) {
    if (c == 6) continue;
    EXPECT_GE(p6.max_joins, CustomerProfileFor(c).max_joins);
  }
}

TEST(SuiteTest, SmallSuiteBuildsAndCollects) {
  auto suite = BuildSmallSuite(75);
  ASSERT_EQ(suite.size(), 3u);
  ExecutionDataRepository repo;
  CollectionOptions copts;
  copts.configs_per_query = 4;
  CollectSuite(&suite, copts, &repo);
  EXPECT_GT(repo.num_plans(), 100u);
  const auto stats = repo.Stats();
  EXPECT_EQ(stats.size(), 3u);

  // Every record has consistent features and positive costs.
  for (size_t i = 0; i < repo.num_plans(); ++i) {
    const ExecutedPlan& p = repo.plan(i);
    EXPECT_GT(p.exec_cost, 0);
    EXPECT_GT(p.est_cost, 0);
    EXPECT_EQ(p.features.values.size(), AllChannels().size());
    EXPECT_NE(p.plan, nullptr);
    EXPECT_TRUE(p.plan->root->stats.executed);
  }
}

TEST(SuiteTest, BenchmarkSuiteHasFifteenDatabases) {
  auto suite = BuildBenchmarkSuite(76, /*scale_divisor=*/4);
  EXPECT_EQ(suite.size(), 15u);
  std::set<std::string> names;
  for (const auto& bdb : suite) {
    EXPECT_TRUE(names.insert(bdb->name()).second);
    EXPECT_FALSE(bdb->queries().empty());
  }
}

TEST(CollectionTest, SameQueryDifferentConfigsShareGroup) {
  auto bdb = BuildTpchLike("w_cg", 1, 0.9, 77);
  ExecutionDataRepository repo;
  CollectionOptions copts;
  copts.configs_per_query = 5;
  CollectExecutionData(bdb.get(), 0, copts, &repo);
  std::map<int, std::set<std::string>> configs_per_group;
  for (size_t i = 0; i < repo.num_plans(); ++i) {
    configs_per_group[repo.QueryGroupOf(static_cast<int>(i))].insert(
        repo.plan(static_cast<int>(i)).config_fp);
  }
  int multi = 0;
  for (const auto& [g, configs] : configs_per_group) {
    if (configs.size() >= 2) ++multi;
  }
  EXPECT_GT(multi, 10);
}

TEST(RegistryTest, PreparedStreamsDispatchEveryBuiltinKind) {
  auto build = [](const std::string& kind, int scale, double sf,
                  uint64_t seed) -> std::unique_ptr<BenchmarkDatabase> {
    auto gen = MakePreparedQueryStream(QueryStreamSpec()
                                           .WithKind(kind)
                                           .WithScale(scale)
                                           .WithSf(sf)
                                           .WithSeed(seed));
    if (!gen.ok()) return nullptr;
    return (*gen)->TakeDatabase();
  };
  auto tpch = build("tpch", 1, 0.0, 81);
  ASSERT_NE(tpch, nullptr);
  EXPECT_GE(tpch->db()->FindTable("lineitem"), 0);

  auto tpcds = build("tpcds", 1, 0.0, 82);
  ASSERT_NE(tpcds, nullptr);
  EXPECT_GE(tpcds->db()->FindTable("store_sales"), 0);

  auto customer = build("customer3", 1, 0.0, 83);
  ASSERT_NE(customer, nullptr);
  EXPECT_FALSE(customer->queries().empty());

  // tpch_sf honors the fractional scale factor, not `scale`.
  auto sf = build("tpch_sf", 99, 0.001, 84);
  ASSERT_NE(sf, nullptr);
  EXPECT_EQ(sf->db()->table(sf->db()->FindTable("lineitem")).num_rows(),
            6000u);

  EXPECT_EQ(build("no_such_kind", 1, 0.01, 85), nullptr);
}

TEST(RegistryTest, KnowsAndKindsCoverEveryBuiltinFamily) {
  QueryStreamRegistry& reg = QueryStreamRegistry::Global();
  EXPECT_TRUE(reg.Knows("tpch"));
  EXPECT_TRUE(reg.Knows("tpcds"));
  EXPECT_TRUE(reg.Knows("tpch_sf"));
  EXPECT_TRUE(reg.Knows("synthetic"));
  EXPECT_TRUE(reg.Knows("customer7"));  // Prefix dispatch.
  EXPECT_FALSE(reg.Knows("no_such_kind"));

  const std::vector<std::string> kinds = reg.Kinds();
  const std::set<std::string> kind_set(kinds.begin(), kinds.end());
  EXPECT_TRUE(kind_set.count("tpch"));
  EXPECT_TRUE(kind_set.count("synthetic"));
  EXPECT_TRUE(kind_set.count("customer*"));

  EXPECT_EQ(reg.Create(QueryStreamSpec().WithKind("no_such_kind"))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(RegistryTest, ExternalKindsRegisterOnceAndDispatch) {
  QueryStreamRegistry& reg = QueryStreamRegistry::Global();
  auto delegate = [](const QueryStreamSpec& spec) {
    QueryStreamSpec inner = spec;
    inner.kind = "synthetic";
    if (inner.db_name.empty()) inner.db_name = "wt_custom_db";
    return QueryStreamRegistry::Global().Create(inner);
  };
  ASSERT_TRUE(reg.Register("wt_custom", delegate).ok());
  EXPECT_EQ(reg.Register("wt_custom", delegate).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(reg.Knows("wt_custom"));
  auto gen =
      MakePreparedQueryStream(QueryStreamSpec().WithKind("wt_custom"));
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  EXPECT_EQ((*gen)->database()->name(), "wt_custom_db");
}

TEST(QueryStreamTest, DdlListsEveryTable) {
  auto gen = MakePreparedQueryStream(
      QueryStreamSpec().WithKind("tpch").WithScale(1).WithSeed(92));
  ASSERT_TRUE(gen.ok());
  const std::string ddl = (*gen)->GetDdl();
  EXPECT_NE(ddl.find("CREATE TABLE lineitem"), std::string::npos);
  EXPECT_NE(ddl.find("CREATE TABLE orders"), std::string::npos);
}

TEST(QueryStreamTest, StreamsAreDeterministicAndOpenEnded) {
  const QueryStreamSpec spec =
      QueryStreamSpec().WithKind("synthetic").WithSeed(93);
  auto a = MakePreparedQueryStream(spec);
  auto b = MakePreparedQueryStream(spec);
  ASSERT_TRUE(a.ok() && b.ok());
  std::set<std::string> seen;
  for (int round = 0; round < 3; ++round) {
    const auto batch_a = (*a)->NextQueryBatch(7).value();
    const auto batch_b = (*b)->NextQueryBatch(7).value();
    ASSERT_EQ(batch_a.size(), 7u);
    ASSERT_EQ(batch_b.size(), batch_a.size());
    for (size_t i = 0; i < batch_a.size(); ++i) {
      EXPECT_EQ(batch_a[i].name, batch_b[i].name);
      EXPECT_EQ(batch_a[i].tables, batch_b[i].tables);
      EXPECT_EQ(batch_a[i].predicates.size(), batch_b[i].predicates.size());
      // Names are unique across the stream's lifetime.
      EXPECT_TRUE(seen.insert(batch_a[i].name).second) << batch_a[i].name;
      // Every instance is optimizable against the built database.
      EXPECT_NE((*a)->database()->what_if()->Optimize(
                    batch_a[i], (*a)->database()->initial_config()),
                nullptr)
          << batch_a[i].name;
    }
  }
}

TEST(QueryStreamTest, ReplayFamiliesCycleWithFreshInstanceNames) {
  auto gen = MakePreparedQueryStream(
      QueryStreamSpec().WithKind("tpch").WithScale(1).WithSeed(94));
  ASSERT_TRUE(gen.ok());
  const size_t templates = (*gen)->database()->queries().size();
  // Draw well past one full cycle: instance names must stay unique even
  // though the underlying templates repeat.
  const auto batch =
      (*gen)->NextQueryBatch(static_cast<int>(3 * templates)).value();
  ASSERT_EQ(batch.size(), 3 * templates);
  std::set<std::string> names;
  for (const QuerySpec& q : batch) {
    EXPECT_TRUE(names.insert(q.name).second) << q.name;
  }
  EXPECT_EQ((*gen)->NextQueryBatch(0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryStreamTest, TakeDatabaseExhaustsTheGenerator) {
  auto gen = MakePreparedQueryStream(
      QueryStreamSpec().WithKind("customer2").WithSeed(95));
  ASSERT_TRUE(gen.ok());
  auto db = (*gen)->TakeDatabase();
  ASSERT_NE(db, nullptr);
  EXPECT_EQ((*gen)->database(), nullptr);
  EXPECT_EQ((*gen)->NextQueryBatch(1).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace aimai
