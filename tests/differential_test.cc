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
  // Join order and runtime join filters are performance levers, never
  // semantic ones: the whole corpus must agree between the FROM-order,
  // no-filter oracle (tests/from_order_oracle.h) and the cost-based
  // optimizer, at both degrees of parallelism. The oracle runs install no
  // filter, so they stay independent of the plans they check.
  Counter* installs =
      MetricRegistry::Global().GetCounter("exec.bloom_pushdowns");
  for (int dop : {1, 4}) {
    auto db = MakeLoadedDb(dop);
    std::vector<std::string> cost = RunCorpus(db.get());
    ASSERT_EQ(cost.size(), kCorpusSize);
    for (size_t i = 0; i < kCorpusSize; ++i) {
      const std::string sql = oracle::FromOrderSql(kCorpus[i]);
      const uint64_t i0 = installs->value();
      auto r = db->Execute(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      EXPECT_EQ(installs->value(), i0) << sql;
      EXPECT_EQ(cost[i], ResultKey(r->result))
          << "cost plan diverged from the FROM-order oracle (dop=" << dop
          << ") on corpus query " << i << ": " << kCorpus[i];
    }
  }
}

/// The `filter=` list of every `ColumnScan(PUBLIC.<table> ` line of an
/// EXPLAIN ANALYZE report, in order ("" for a scan with no filter).
std::vector<std::string> ScanFilterKinds(const std::string& report,
                                         const std::string& table) {
  std::vector<std::string> kinds;
  std::istringstream lines(report);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("ColumnScan(PUBLIC." + table + " ") == std::string::npos) {
      continue;
    }
    const size_t at = line.find(" filter=");
    if (at == std::string::npos) {
      kinds.emplace_back();
      continue;
    }
    const size_t begin = at + 8;
    kinds.push_back(line.substr(begin, line.find(' ', begin) - begin));
  }
  return kinds;
}

TEST_F(DifferentialTest, ShardScansTakeTheirFiltersFromTheirOwnJoins) {
  // Dimensions are replicated, so each shard binds the plan a single node
  // would: its hash join over the filtered H puts an exact dense key set on
  // its T scan, and no other filter reaches that scan.
  const char* q =
      "SELECT t.ID, t.V, h.W FROM T t, H h WHERE t.ID = h.ID AND h.W <= 40";
  Counter* dropped =
      MetricRegistry::Global().GetCounter("exec.bloom_rows_dropped");
  std::string keys[2];
  uint64_t drops[2];
  const int dops[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    auto db = MakeLoadedDb(dops[i]);
    const uint64_t d0 = dropped->value();
    auto r = db->Execute(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    keys[i] = ResultKey(r->result);
    drops[i] = dropped->value() - d0;

    auto analyzed = db->Execute(std::string("EXPLAIN ANALYZE ") + q);
    ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    const std::string& report = analyzed->result.message;
    const std::vector<std::string> kinds = ScanFilterKinds(report, "T");
    EXPECT_EQ(kinds.size(), static_cast<size_t>(db->num_shards())) << report;
    for (const std::string& k : kinds) {
      EXPECT_EQ(k, "dense") << "dop " << dops[i] << "\n" << report;
    }

    // Filters never change the answer: the derived-table oracle has none.
    auto unfiltered = db->Execute(oracle::FromOrderSql(q));
    ASSERT_TRUE(unfiltered.ok()) << unfiltered.status().ToString();
    EXPECT_EQ(ResultKey(unfiltered->result), keys[i]) << "dop " << dops[i];

    // No corpus scan stacks a Bloom filter in front of a dense set over
    // the same keys.
    for (const char* cq : kCorpus) {
      auto a = db->Execute(std::string("EXPLAIN ANALYZE ") + cq);
      ASSERT_TRUE(a.ok()) << cq << ": " << a.status().ToString();
      EXPECT_EQ(a->result.message.find("bloom,dense"), std::string::npos)
          << "dop " << dops[i] << ": " << cq << "\n" << a->result.message;
    }
  }
  EXPECT_EQ(keys[0], keys[1]);
  EXPECT_GT(drops[0], 0u);
  EXPECT_EQ(drops[0], drops[1]);
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
