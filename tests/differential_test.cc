// Differential execution testing: the same query corpus must produce
// byte-identical results at DOP=1, DOP=4, and DOP=4 with a node killed
// mid-query — parallelism and fault recovery are performance levers, never
// semantic ones. EXPLAIN ANALYZE is held to the same standard: the row
// counts it reports must be the actual cardinalities of the plain run.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "common/metrics.h"
#include "corpus_util.h"
#include "from_order_oracle.h"
#include "mpp/mpp.h"

namespace dashdb {
namespace {

constexpr const char* kShardExec = "mpp.shard_exec";

using corpus::kCorpus;
using corpus::kCorpusSize;
using corpus::MakeLoadedDb;
using corpus::ResultKey;

class DifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().ResetForTest();
    MetricRegistry::Global().ResetForTest();
  }
  void TearDown() override { FaultInjector::Global().ResetForTest(); }

  std::vector<std::string> RunCorpus(MppDatabase* db) {
    std::vector<std::string> keys;
    for (const char* q : kCorpus) {
      auto r = db->Execute(q);
      EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
      keys.push_back(r.ok() ? ResultKey(r->result) : "<error>");
    }
    return keys;
  }
};

TEST_F(DifferentialTest, Dop1VersusDop4ByteIdentical) {
  auto serial = MakeLoadedDb(1);
  auto parallel = MakeLoadedDb(4);
  std::vector<std::string> base = RunCorpus(serial.get());
  std::vector<std::string> par = RunCorpus(parallel.get());
  ASSERT_EQ(base.size(), par.size());
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(par[i], base[i]) << "corpus query " << i << ": " << kCorpus[i];
  }
}

TEST_F(DifferentialTest, Dop4WithShardKillMatchesSerialBaseline) {
  std::vector<std::string> base;
  {
    auto serial = MakeLoadedDb(1);
    base = RunCorpus(serial.get());
  }
  // Kill the owning node exactly when shard k's first attempt starts; the
  // retried shard must reproduce its partition bit-for-bit at DOP=4.
  const int num_shards = MakeLoadedDb(1)->num_shards();
  for (size_t qi = 0; qi < kCorpusSize; ++qi) {
    for (int k = 0; k < num_shards; k += 3) {  // sample shards 0, 3, 6
      auto db = MakeLoadedDb(4);
      FaultSpec kill;
      kill.code = StatusCode::kUnavailable;
      kill.message = "node lost";
      kill.skip_hits = static_cast<uint64_t>(k);
      kill.max_fires = 1;
      // Test-scoped arming: disarms at end of iteration even on failure.
      ScopedFault fault(7000 + k, kShardExec, kill);
      auto r = db->Execute(kCorpus[qi]);
      ASSERT_TRUE(r.ok()) << kCorpus[qi] << ": " << r.status().ToString();
      EXPECT_EQ(ResultKey(r->result), base[qi])
          << "query " << qi << " diverged after node kill at shard " << k;
      EXPECT_GE(r->exec.shard_retries, 1u);
      EXPECT_EQ(r->exec.failovers, 1u);
    }
  }
}

TEST_F(DifferentialTest, HeuristicVersusCostOptimizerByteIdentical) {
  // Join order and Bloom pushdown are performance levers, never semantic
  // ones: the whole corpus must agree between the FROM-order, no-Bloom
  // oracle (tests/from_order_oracle.h) and the cost-based optimizer, at
  // both degrees of parallelism. The oracle runs ship and install no
  // filter, so they stay independent of the plans they check.
  Counter* shipped = MetricRegistry::Global().GetCounter("mpp.bloom_filters");
  Counter* installs =
      MetricRegistry::Global().GetCounter("exec.bloom_pushdowns");
  for (int dop : {1, 4}) {
    auto db = MakeLoadedDb(dop);
    std::vector<std::string> cost = RunCorpus(db.get());
    ASSERT_EQ(cost.size(), kCorpusSize);
    for (size_t i = 0; i < kCorpusSize; ++i) {
      const std::string sql = oracle::FromOrderSql(kCorpus[i]);
      const uint64_t s0 = shipped->value(), i0 = installs->value();
      auto r = db->Execute(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      EXPECT_EQ(shipped->value(), s0) << sql;
      EXPECT_EQ(installs->value(), i0) << sql;
      EXPECT_EQ(cost[i], ResultKey(r->result))
          << "cost plan diverged from the FROM-order oracle (dop=" << dop
          << ") on corpus query " << i << ": " << kCorpus[i];
    }
  }
}

TEST_F(DifferentialTest, CrossShardBloomPushdownShipsFilters) {
  auto db = MakeLoadedDb(4);
  Counter* filters = MetricRegistry::Global().GetCounter("mpp.bloom_filters");
  Counter* bytes = MetricRegistry::Global().GetCounter("mpp.bloom_bytes");
  uint64_t f0 = filters->value(), b0 = bytes->value();
  auto r = db->Execute(
      "SELECT COUNT(*), SUM(t.V) FROM T t, H h "
      "WHERE t.ID = h.ID AND h.W <= 40");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(filters->value(), f0);
  EXPECT_GT(bytes->value(), b0);
}

TEST_F(DifferentialTest, ShippedBloomDropsSameShardRowsAtDop1AndDop4) {
  // The coordinator ships the build side's filter to every shard scan,
  // which drops probe rows in the page bitmap before decoding them.
  const char* q =
      "SELECT t.ID, t.V, h.W FROM T t, H h WHERE t.ID = h.ID AND h.W <= 40";
  Counter* shipped = MetricRegistry::Global().GetCounter("mpp.bloom_filters");
  Counter* dropped =
      MetricRegistry::Global().GetCounter("exec.bloom_rows_dropped");
  std::string keys[2];
  uint64_t drops[2];
  const int dops[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    auto db = MakeLoadedDb(dops[i]);
    const uint64_t s0 = shipped->value(), d0 = dropped->value();
    auto r = db->Execute(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GT(shipped->value(), s0) << "dop " << dops[i];
    keys[i] = ResultKey(r->result);
    drops[i] = dropped->value() - d0;
  }
  EXPECT_EQ(keys[0], keys[1]);
  EXPECT_GT(drops[0], 0u);
  EXPECT_EQ(drops[0], drops[1]);
  // Filters never change the answer: the derived-table oracle ships none.
  auto db = MakeLoadedDb(4);
  const uint64_t s0 = shipped->value();
  auto unfiltered = db->Execute(oracle::FromOrderSql(q));
  ASSERT_TRUE(unfiltered.ok()) << unfiltered.status().ToString();
  EXPECT_EQ(shipped->value(), s0);
  EXPECT_EQ(ResultKey(unfiltered->result), keys[0]);
}

TEST_F(DifferentialTest, ExplainAnalyzeCardinalitiesMatchPlainRun) {
  for (int dop : {1, 4}) {
    auto db = MakeLoadedDb(dop);
    for (const char* q : kCorpus) {
      auto plain = db->Execute(q);
      ASSERT_TRUE(plain.ok()) << q;
      auto analyzed = db->Execute(std::string("EXPLAIN ANALYZE ") + q);
      ASSERT_TRUE(analyzed.ok()) << q << ": " << analyzed.status().ToString();
      // MPP EXPLAIN ANALYZE returns the real rows plus the report.
      EXPECT_EQ(ResultKey(analyzed->result), ResultKey(plain->result))
          << "analyzed run changed results for: " << q;
      std::ostringstream want;
      want << "rows=" << plain->result.rows.num_rows();
      EXPECT_NE(analyzed->result.message.find(want.str()), std::string::npos)
          << "reported cardinality mismatch (dop=" << dop << ") for " << q
          << "\n" << analyzed->result.message;
      ASSERT_NE(analyzed->trace, nullptr) << q;
      EXPECT_EQ(analyzed->trace->spans()[0].rows,
                plain->result.rows.num_rows());
    }
  }
}

}  // namespace
}  // namespace dashdb
