// End-to-end cost-based optimizer tests (`ctest -L opt`): result
// equivalence between the cost plan and the FROM-order, no-Bloom oracle of
// tests/from_order_oracle.h at DOP 1 and 4, row gates that show the cost
// plan and the adaptive re-plan join fewer rows than the plans they
// replace, the `est=` annotations and `exec.card_est_error` feedback in
// EXPLAIN ANALYZE, Bloom semi-join pushdown metrics, and the legacy
// `SET OPTIMIZER` / `SET ADAPTIVE` statements, which are accepted and
// ignored.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "from_order_oracle.h"
#include "sql/engine.h"
#include "workloads/star_schema.h"

namespace dashdb {
namespace {

bench::StarScale SmallScale() {
  bench::StarScale s;
  s.fact_rows = 20000;
  s.customers = 2000;
  s.products = 800;
  s.stores = 100;
  s.dates = 200;
  s.seed = 11;
  return s;
}

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() : engine_(MakeConfig()), session_(engine_.CreateSession()) {
    bench::StarSchemaWorkload workload(SmallScale());
    auto s = workload.Setup(&engine_);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }

  static EngineConfig MakeConfig() {
    EngineConfig cfg;
    cfg.query_parallelism = 4;
    return cfg;
  }

  QueryResult Exec(const std::string& sql) {
    auto r = engine_.Execute(session_.get(), sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? *r : QueryResult{};
  }

  static std::string Digest(const QueryResult& r) {
    std::vector<std::string> rows;
    for (size_t i = 0; i < r.rows.num_rows(); ++i) {
      std::string row;
      for (const ColumnVector& cv : r.rows.columns) {
        Value v = cv.GetValue(i);
        row += v.is_null() ? "<null>" : v.ToString();
        row += '|';
      }
      rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end());
    std::string all;
    for (const auto& row : rows) all += row + "\n";
    return all;
  }

  /// Runs `sql` and its FROM-order oracle at DOP 1 and 4 and expects
  /// identical digests. The oracle must take the FROM-order tree and
  /// install no Bloom filter, or it would not be independent of the plan
  /// it checks.
  void ExpectModesAgree(const std::string& sql) {
    Counter* installs =
        MetricRegistry::Global().GetCounter("exec.bloom_pushdowns");
    const std::string oracle_sql = oracle::FromOrderSql(sql);
    for (int dop : {1, 4}) {
      Exec("SET DOP " + std::to_string(dop));
      EXPECT_EQ(Exec("EXPLAIN " + oracle_sql).message.find("AdaptiveJoin"),
                std::string::npos)
          << oracle_sql;
      const uint64_t i0 = installs->value();
      std::string oracle = Digest(Exec(oracle_sql));
      EXPECT_EQ(installs->value(), i0) << "oracle installed a Bloom filter: "
                                       << oracle_sql;
      EXPECT_EQ(Digest(Exec(sql)), oracle) << "dop " << dop << ": " << sql;
    }
    Exec("SET DOP ANY");
  }

  /// Output rows of the HashJoin spans in the trace of an EXPLAIN ANALYZE
  /// of `sql`, summed; only those under an AdaptiveJoin span when
  /// `under_adaptive` is set. The total work the join order decides.
  uint64_t HashJoinRows(const std::string& sql, bool under_adaptive) {
    Exec("EXPLAIN ANALYZE " + sql);
    std::shared_ptr<const Trace> trace = session_->last_trace();
    EXPECT_NE(trace, nullptr) << sql;
    if (trace == nullptr) return 0;
    const std::vector<TraceSpan>& spans = trace->spans();
    uint64_t rows = 0;
    for (const TraceSpan& s : spans) {
      if (s.name != "HashJoin") continue;
      bool counted = !under_adaptive;
      for (uint32_t p = s.parent; !counted && p != Trace::kNoParent;
           p = spans[p - 1].parent) {
        counted = spans[p - 1].name == "AdaptiveJoin";
      }
      if (counted) rows += s.rows;
    }
    return rows;
  }

  static std::string StarSql() {
    return "SELECT C.REGION, COUNT(*), SUM(S.AMT) "
           "FROM DATEDIM D, SALES S, STORE T, CUSTOMER C, PRODUCT P "
           "WHERE S.DATE_ID = D.DATE_ID AND S.STORE_ID = T.STORE_ID "
           "AND S.CUST_ID = C.CUST_ID AND S.PROD_ID = P.PROD_ID "
           "AND P.PRICE <= 10 GROUP BY C.REGION";
  }

  /// 11 relations: greedy ordering, SEGMENT mis-estimate, CATEGORY
  /// outrigger reachable only through PRODUCT (same shape as the bench).
  static std::string AdaptiveSql() {
    std::string sql =
        "SELECT COUNT(*), SUM(S.AMT) "
        "FROM SALES S, CUSTOMER C, PRODUCT P, CATEGORY G";
    for (int k = 1; k <= 7; ++k) sql += ", STORE T" + std::to_string(k);
    sql +=
        " WHERE S.CUST_ID = C.CUST_ID AND S.PROD_ID = P.PROD_ID"
        " AND P.CAT_ID = G.CAT_ID";
    for (int k = 1; k <= 7; ++k) {
      sql += " AND S.STORE_ID = T" + std::to_string(k) + ".STORE_ID";
    }
    sql += " AND C.SEGMENT = 0 AND G.KIND = 2";
    return sql;
  }

  Engine engine_;
  std::shared_ptr<Session> session_;
};

// ---------------------------------------------------- result equivalence --

TEST_F(OptimizerTest, CostMatchesHeuristicOnMultiJoins) {
  ExpectModesAgree(StarSql());
  // Snowflake chain through the CATEGORY outrigger.
  ExpectModesAgree(
      "SELECT P.CAT_ID, COUNT(*) FROM SALES S, PRODUCT P, CATEGORY G "
      "WHERE S.PROD_ID = P.PROD_ID AND P.CAT_ID = G.CAT_ID AND G.KIND = 2 "
      "GROUP BY P.CAT_ID");
  // Non-aggregate projection with a residual cross-table predicate.
  ExpectModesAgree(
      "SELECT COUNT(*) FROM SALES S, CUSTOMER C, STORE T "
      "WHERE S.CUST_ID = C.CUST_ID AND S.STORE_ID = T.STORE_ID "
      "AND C.REGION < T.REGION");
}

TEST_F(OptimizerTest, OuterJoinFallsBackToHeuristicPath) {
  // LEFT JOIN in a 3-way FROM keeps the legacy join tree (the cost path
  // gates itself to inner/cross chains) and must stay correct either way.
  const std::string sql =
      "SELECT COUNT(*), COUNT(C.REGION) "
      "FROM STORE T LEFT JOIN CUSTOMER C ON T.STORE_ID = C.CUST_ID, "
      "CATEGORY G";
  ExpectModesAgree(sql);
}

// ------------------------------------------------------------- row gates --

TEST_F(OptimizerTest, StarCostPlanJoinsAtMostHalfTheOracleRows) {
  // The cost plan streams SALES through small builds behind a Bloom
  // filter; FROM order joins the whole fact table first. Measured at
  // SmallScale: 1,084 rows for the cost plan against 80,000 for the oracle.
  const std::string oracle_sql = oracle::FromOrderSql(StarSql());
  for (int dop : {1, 4}) {
    Exec("SET DOP " + std::to_string(dop));
    const uint64_t cost = HashJoinRows(StarSql(), false);
    const uint64_t from_order = HashJoinRows(oracle_sql, false);
    EXPECT_GT(cost, 0u) << "dop " << dop;
    EXPECT_LE(2 * cost, from_order) << "dop " << dop;
  }
}

// ------------------------------------------------- estimates in EXPLAIN --

TEST_F(OptimizerTest, ExplainAnalyzeShowsEstimates) {
  QueryResult r = Exec("EXPLAIN ANALYZE " + StarSql());
  EXPECT_NE(r.message.find("est="), std::string::npos) << r.message;
  EXPECT_NE(r.message.find("AdaptiveJoin"), std::string::npos) << r.message;
  // Plain EXPLAIN carries no runtime metrics, so no estimate annotations.
  QueryResult plan = Exec("EXPLAIN " + StarSql());
  EXPECT_EQ(plan.message.find("est="), std::string::npos) << plan.message;
}

TEST_F(OptimizerTest, CardinalityErrorHistogramPopulated) {
  Histogram* h = MetricRegistry::Global().GetHistogram(
      "exec.card_est_error", {-4, -2, -1, 0, 1, 2, 4});
  uint64_t before = h->count();
  Exec(StarSql());
  EXPECT_GT(h->count(), before);
}

// --------------------------------------------------------- Bloom pushdown --

TEST_F(OptimizerTest, BloomPushdownFiresUnderCostOptimizer) {
  Counter* installs =
      MetricRegistry::Global().GetCounter("exec.bloom_pushdowns");
  Counter* dropped =
      MetricRegistry::Global().GetCounter("exec.bloom_rows_dropped");
  uint64_t i0 = installs->value(), d0 = dropped->value();
  Exec(StarSql());
  EXPECT_GT(installs->value(), i0);
  EXPECT_GT(dropped->value(), d0);
}

// ---------------------------------------------------- adaptive re-planning --

TEST_F(OptimizerTest, AdaptiveReplanFiresAndPreservesResults) {
  Counter* replans =
      MetricRegistry::Global().GetCounter("exec.adaptive_replans");
  const std::string oracle = Digest(Exec(oracle::FromOrderSql(AdaptiveSql())));
  for (int dop : {1, 4}) {
    Exec("SET DOP " + std::to_string(dop));
    const uint64_t r0 = replans->value();
    EXPECT_EQ(Digest(Exec(AdaptiveSql())), oracle) << "dop " << dop;
    EXPECT_GT(replans->value(), r0) << "19x SEGMENT mis-estimate must trigger";
    // The re-plan pulls PRODUCT -> CATEGORY ahead of the seven STORE joins.
    // Measured at DOP 1 and 4 before re-planning became unconditional:
    // 68,204 joined rows with it and 173,218 with the greedy order kept.
    EXPECT_LT(HashJoinRows(AdaptiveSql(), true), 110000u) << "dop " << dop;
  }
}

// --------------------------------------------------- legacy SET statements --

TEST_F(OptimizerTest, LegacyOptimizerSetsAreAcceptedAndIgnored) {
  // Old scripts still run: the cost optimizer, Bloom pushdown and adaptive
  // re-planning are not session settings, so these change nothing.
  for (const char* set :
       {"SET OPTIMIZER HEURISTIC", "SET OPTIMIZER SYNTACTIC",
        "SET JOIN_ORDER HEURISTIC", "SET ADAPTIVE OFF"}) {
    Exec(set);
  }
  const std::string plan = Exec("EXPLAIN ANALYZE " + StarSql()).message;
  EXPECT_NE(plan.find("AdaptiveJoin"), std::string::npos) << plan;
  const size_t blooms = plan.find("blooms=");
  ASSERT_NE(blooms, std::string::npos) << plan;
  EXPECT_GT(std::stoull(plan.substr(blooms + 7)), 0u) << plan;
  Counter* replans =
      MetricRegistry::Global().GetCounter("exec.adaptive_replans");
  const uint64_t r0 = replans->value();
  Exec(AdaptiveSql());
  EXPECT_GT(replans->value(), r0);
}

}  // namespace
}  // namespace dashdb
