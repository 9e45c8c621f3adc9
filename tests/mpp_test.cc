// Tests for the MPP layer: topology/HA/elasticity (paper II.E, Figure 9),
// distributed query execution (Figure 2), and concurrent statements on one
// cluster.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injector.h"
#include "common/rng.h"
#include "corpus_util.h"
#include "mpp/mpp.h"

namespace dashdb {
namespace {

// ---------------------------------------------------------------- topology --

TEST(TopologyTest, InitialBalancedLayout) {
  ClusterTopology t(4, 6, 16, size_t{64} << 30);
  EXPECT_EQ(t.num_nodes(), 4);
  EXPECT_EQ(t.num_shards(), 24);
  for (int n = 0; n < 4; ++n) EXPECT_EQ(t.ShardsOnNode(n).size(), 6u);
}

TEST(TopologyTest, ShardsCappedByCores) {
  // Paper: shard count "not larger than the cumulative number of cores".
  ClusterTopology t(2, 100, 8, size_t{1} << 30);
  EXPECT_EQ(t.num_shards(), 16);
}

TEST(TopologyTest, Figure9Failover) {
  // The paper's example: 4 servers x 6 shards; server D fails; survivors
  // serve 8 shards each.
  ClusterTopology t(4, 6, 16, size_t{64} << 30);
  auto stats = t.FailNode(3);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->shards_moved, 6u);
  EXPECT_EQ(stats->surviving_nodes, 3);
  EXPECT_EQ(stats->max_shards_per_node, 8u);
  EXPECT_EQ(stats->min_shards_per_node, 8u);
  for (int n = 0; n < 3; ++n) EXPECT_EQ(t.ShardsOnNode(n).size(), 8u);
  EXPECT_EQ(t.ShardsOnNode(3).size(), 0u);
  // Per-shard resources shrink accordingly (II.E).
  EXPECT_EQ(t.CoresPerShard(0), 2);  // 16 cores / 8 shards
}

TEST(TopologyTest, RepairRebalancesBack) {
  ClusterTopology t(4, 6, 16, size_t{64} << 30);
  ASSERT_TRUE(t.FailNode(3).ok());
  auto stats = t.RepairNode(3);
  ASSERT_TRUE(stats.ok());
  for (int n = 0; n < 4; ++n) EXPECT_EQ(t.ShardsOnNode(n).size(), 6u);
}

TEST(TopologyTest, CannotFailLastAliveNode) {
  ClusterTopology t(2, 4, 8, size_t{8} << 30);
  ASSERT_TRUE(t.FailNode(0).ok());
  auto last = t.FailNode(1);
  ASSERT_FALSE(last.ok()) << "losing the last node must be a clean error";
  EXPECT_EQ(last.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(t.num_alive_nodes(), 1) << "survivor untouched by the refusal";
  EXPECT_EQ(t.ShardsOnNode(1).size(), 8u) << "all shards still served";
  // Deliberate removal shares the FailNode mechanics and the guard.
  EXPECT_FALSE(t.RemoveNode(1).ok());
}

TEST(TopologyTest, DoubleFailAndDoubleRepairAreCleanErrors) {
  ClusterTopology t(3, 4, 8, size_t{8} << 30);
  ASSERT_TRUE(t.FailNode(2).ok());
  auto twice = t.FailNode(2);
  ASSERT_FALSE(twice.ok());
  EXPECT_EQ(twice.status().code(), StatusCode::kUnavailable);
  ASSERT_TRUE(t.RepairNode(2).ok());
  auto again = t.RepairNode(2);
  ASSERT_FALSE(again.ok()) << "repairing an up node must not rebalance";
  EXPECT_EQ(again.status().code(), StatusCode::kInvalidArgument);
  for (int n = 0; n < 3; ++n) EXPECT_EQ(t.ShardsOnNode(n).size(), 4u);
  // Out-of-range ids on both paths.
  EXPECT_EQ(t.FailNode(-1).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.RepairNode(99).status().code(), StatusCode::kInvalidArgument);
}

TEST(TopologyTest, ElasticGrowAndShrink) {
  ClusterTopology t(3, 8, 16, size_t{64} << 30);  // 24 shards
  auto grow = t.AddNode(16, size_t{64} << 30);
  ASSERT_TRUE(grow.ok());
  EXPECT_EQ(t.num_alive_nodes(), 4);
  EXPECT_EQ(grow->max_shards_per_node, 6u);
  auto shrink = t.RemoveNode(0);
  ASSERT_TRUE(shrink.ok());
  EXPECT_EQ(t.num_alive_nodes(), 3);
  EXPECT_EQ(shrink->max_shards_per_node, 8u);
}

TEST(TopologyTest, CannotFailLastNode) {
  ClusterTopology t(2, 4, 8, size_t{1} << 30);
  ASSERT_TRUE(t.FailNode(0).ok());
  EXPECT_EQ(t.FailNode(1).status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(t.FailNode(0).status().code(),
            StatusCode::kUnavailable);  // already down
}

TEST(TopologyTest, MakespanModelsScaling) {
  // Equal work per shard: doubling the node count halves the makespan.
  ClusterTopology t4(4, 4, 4, size_t{1} << 30);
  ClusterTopology t8(8, 4, 4, size_t{1} << 30);
  std::vector<double> work4(t4.num_shards(), 1.0);
  std::vector<double> work8(t8.num_shards(), 1.0);
  // Same total data spread over more shards means each shard holds less:
  // model by scaling per-shard time with shard count.
  for (auto& w : work8) w = 0.5;
  double m4 = t4.Makespan(work4);
  double m8 = t8.Makespan(work8);
  EXPECT_NEAR(m8, m4 / 2, 1e-9);
}

TEST(TopologyTest, FailoverSlowsByExpectedFactor) {
  // Figure 9 arithmetic: losing 1 of 4 nodes leaves 3/4 of the compute;
  // with per-shard parallelism rescaled (work-conserving model), uniform
  // work slows by exactly 4/3.
  ClusterTopology t(4, 6, 6, size_t{1} << 30);
  std::vector<double> work(t.num_shards(), 1.0);
  double before = t.Makespan(work);
  ASSERT_TRUE(t.FailNode(3).ok());
  double after = t.Makespan(work);
  EXPECT_NEAR(after / before, 4.0 / 3.0, 1e-9);
}

// --------------------------------------------------------------- database --

class MppTest : public ::testing::Test {
 protected:
  MppTest() : db_(4, 4, 8, size_t{8} << 30) {
    TableSchema sales(
        "PUBLIC", "SALES",
        {{"ID", TypeId::kInt64, false, 0, false},
         {"CUST", TypeId::kInt64, true, 0, false},
         {"AMT", TypeId::kDouble, true, 0, false}});
    sales.set_distribution_key(0);
    EXPECT_TRUE(db_.CreateTable(sales).ok());
    TableSchema cust("PUBLIC", "CUST",
                     {{"C_ID", TypeId::kInt64, false, 0, false},
                      {"NAME", TypeId::kVarchar, true, 0, false}});
    EXPECT_TRUE(db_.CreateTable(cust, /*replicated=*/true).ok());

    RowBatch rows;
    rows.columns.emplace_back(TypeId::kInt64);
    rows.columns.emplace_back(TypeId::kInt64);
    rows.columns.emplace_back(TypeId::kDouble);
    for (int i = 0; i < 10000; ++i) {
      rows.columns[0].AppendInt(i);
      rows.columns[1].AppendInt(i % 50);
      rows.columns[2].AppendDouble(i % 100);
    }
    EXPECT_TRUE(db_.Load("PUBLIC", "SALES", rows).ok());
    RowBatch custs;
    custs.columns.emplace_back(TypeId::kInt64);
    custs.columns.emplace_back(TypeId::kVarchar);
    for (int i = 0; i < 50; ++i) {
      custs.columns[0].AppendInt(i);
      custs.columns[1].AppendString("c" + std::to_string(i));
    }
    EXPECT_TRUE(db_.Load("PUBLIC", "CUST", custs).ok());
  }

  MppDatabase db_;
};

TEST_F(MppTest, HashDistributionBalances) {
  auto counts = db_.ShardRowCounts("PUBLIC", "SALES");
  ASSERT_TRUE(counts.ok());
  size_t total = 0;
  for (size_t c : *counts) {
    total += c;
    EXPECT_GT(c, 10000u / 16 / 2) << "shard badly unbalanced";
  }
  EXPECT_EQ(total, 10000u);
}

TEST_F(MppTest, ReplicatedTableOnEveryShard) {
  auto counts = db_.ShardRowCounts("PUBLIC", "CUST");
  ASSERT_TRUE(counts.ok());
  for (size_t c : *counts) EXPECT_EQ(c, 50u);
}

TEST_F(MppTest, GlobalCount) {
  auto r = db_.Execute("SELECT COUNT(*) FROM sales");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->result.rows.columns[0].GetInt(0), 10000);
}

TEST_F(MppTest, GlobalAggregates) {
  auto r = db_.Execute(
      "SELECT COUNT(*), SUM(amt), MIN(amt), MAX(amt), AVG(amt) FROM sales");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const RowBatch& rb = r->result.rows;
  EXPECT_EQ(rb.columns[0].GetInt(0), 10000);
  EXPECT_DOUBLE_EQ(rb.columns[2].GetDouble(0), 0.0);
  EXPECT_DOUBLE_EQ(rb.columns[3].GetDouble(0), 99.0);
  EXPECT_NEAR(rb.columns[4].GetDouble(0), 49.5, 0.01);
}

TEST_F(MppTest, GroupByMergesAcrossShards) {
  auto r = db_.Execute(
      "SELECT cust, COUNT(*), SUM(amt) FROM sales GROUP BY cust "
      "ORDER BY cust LIMIT 5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->result.rows.num_rows(), 5u);
  // Every customer has 200 rows regardless of sharding.
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(r->result.rows.columns[1].GetInt(i), 200);
  }
}

TEST_F(MppTest, WherePushdownAcrossShards) {
  auto r = db_.Execute("SELECT COUNT(*) FROM sales WHERE id < 100");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result.rows.columns[0].GetInt(0), 100);
}

TEST(MppExtremesTest, DoubleMinMaxMatchSingleNodeBitForBit) {
  // Signed zeros and NaNs of both signs spread over 16 shards: the
  // coordinator merges shard partials in the same total order the single
  // node folds in (-0.0 below +0.0, NaN above +inf), whichever shard
  // answers first.
  TableSchema z("PUBLIC", "Z", {{"K", TypeId::kInt64, false, 0, false},
                                {"D", TypeId::kDouble, true, 0, false}});
  z.set_distribution_key(0);
  RowBatch rows;
  rows.columns.emplace_back(TypeId::kInt64);
  rows.columns.emplace_back(TypeId::kDouble);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < 400; ++i) {
    rows.columns[0].AppendInt(i);
    rows.columns[1].AppendDouble(i % 97 == 5    ? nan
                                 : i % 89 == 7 ? std::copysign(nan, -1.0)
                                 : i % 2 == 0  ? 0.0
                                               : -0.0);
  }
  MppDatabase mpp(4, 4, 8, size_t{8} << 30);
  ASSERT_TRUE(mpp.CreateTable(z).ok());
  ASSERT_TRUE(mpp.Load("PUBLIC", "Z", rows).ok());
  Engine single;
  auto table = single.CreateColumnTable(z);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_TRUE((*table)->Load(rows).ok());
  auto session = single.CreateSession();
  auto bits = [](const RowBatch& b) {
    std::string s;
    for (size_t r = 0; r < b.num_rows(); ++r) {
      for (const ColumnVector& c : b.columns) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%a|",
                      c.type() == TypeId::kDouble
                          ? c.GetDouble(r)
                          : static_cast<double>(c.GetInt(r)));
        s += buf;
      }
      s += '\n';
    }
    return s;
  };
  for (const char* sql :
       {"SELECT MIN(D) AS LO, MAX(D) AS HI FROM Z",
        "SELECT K % 7 AS G, MIN(D) AS LO, MAX(D) AS HI FROM Z "
        "GROUP BY K % 7 ORDER BY G"}) {
    SCOPED_TRACE(sql);
    auto want = single.Execute(session.get(), sql);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    auto got = mpp.Execute(sql);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(bits(got->result.rows), bits(want->rows));
    EXPECT_NE(bits(want->rows).find("-0x0p+0"), std::string::npos);
  }
}

TEST_F(MppTest, ShardLocalJoinWithReplicatedDim) {
  auto r = db_.Execute(
      "SELECT COUNT(*) FROM sales s JOIN cust c ON s.cust = c.c_id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->result.rows.columns[0].GetInt(0), 10000);
}

TEST_F(MppTest, NonAggSelectMergesAndSorts) {
  auto r = db_.Execute(
      "SELECT id, amt FROM sales WHERE id < 20 ORDER BY id DESC LIMIT 3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->result.rows.num_rows(), 3u);
  EXPECT_EQ(r->result.rows.columns[0].GetInt(0), 19);
  EXPECT_EQ(r->result.rows.columns[0].GetInt(2), 17);
}

TEST_F(MppTest, RoutedInsertLandsOnOneShard) {
  auto before = *db_.ShardRowCounts("PUBLIC", "SALES");
  auto r = db_.Execute("INSERT INTO sales VALUES (990001, 1, 5.0)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto after = *db_.ShardRowCounts("PUBLIC", "SALES");
  size_t changed = 0;
  for (size_t s = 0; s < before.size(); ++s) {
    if (after[s] != before[s]) ++changed;
  }
  EXPECT_EQ(changed, 1u);
  auto c = db_.Execute("SELECT COUNT(*) FROM sales WHERE id = 990001");
  EXPECT_EQ(c->result.rows.columns[0].GetInt(0), 1);
}

TEST_F(MppTest, BroadcastDeleteAndUpdate) {
  auto d = db_.Execute("DELETE FROM sales WHERE cust = 7");
  ASSERT_TRUE(d.ok());
  // The cluster's count, not one shard's: 200 rows have cust = 7.
  EXPECT_EQ(d->result.affected_rows, 200);
  EXPECT_EQ(d->result.message, "DELETED 200");
  auto c = db_.Execute("SELECT COUNT(*) FROM sales");
  EXPECT_EQ(c->result.rows.columns[0].GetInt(0), 9800);
  auto u = db_.Execute("UPDATE sales SET amt = 0 WHERE cust = 8");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->result.affected_rows, 200);
  EXPECT_EQ(u->result.message, "UPDATED 200");
  auto s = db_.Execute("SELECT SUM(amt) FROM sales WHERE cust = 8");
  EXPECT_DOUBLE_EQ(s->result.rows.columns[1 - 1].GetDouble(0), 0.0);
  // Every shard holds a full copy of a replicated table: one replica's
  // count.
  auto rd = db_.Execute("DELETE FROM cust WHERE c_id < 5");
  ASSERT_TRUE(rd.ok());
  EXPECT_EQ(rd->result.affected_rows, 5);
  auto ru = db_.Execute("UPDATE cust SET c_id = c_id + 100 WHERE c_id >= 45");
  ASSERT_TRUE(ru.ok());
  EXPECT_EQ(ru->result.affected_rows, 5);
}

TEST_F(MppTest, QueriesSurviveNodeFailure) {
  // HA story: after failover the same queries return the same answers —
  // shards moved, data did not.
  ASSERT_TRUE(db_.topology()->FailNode(2).ok());
  auto r = db_.Execute("SELECT COUNT(*) FROM sales");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result.rows.columns[0].GetInt(0), 10000);
  // The survivors absorbed the failed node's shards (Figure 9).
  size_t max_shards = 0;
  for (int n = 0; n < db_.topology()->num_nodes(); ++n) {
    max_shards = std::max(max_shards, db_.topology()->ShardsOnNode(n).size());
  }
  EXPECT_GE(max_shards, 5u);  // 16 shards over 3 survivors
  EXPECT_EQ(db_.topology()->ShardsOnNode(2).size(), 0u);
}

TEST_F(MppTest, ExplicitDdlBroadcast) {
  auto r = db_.Execute("CREATE TABLE t2 (x INT)");
  ASSERT_TRUE(r.ok());
  auto i = db_.Execute("INSERT INTO t2 VALUES (1)");
  ASSERT_TRUE(i.ok());
  auto c = db_.Execute("SELECT COUNT(*) FROM t2");
  EXPECT_EQ(c->result.rows.columns[0].GetInt(0), 1);
}

TEST_F(MppTest, SequenceReferencesAreRejectedTyped) {
  // CREATE SEQUENCE broadcasts, but each shard session keeps its own
  // counter, so an MPP SELECT cannot hand out cluster-wide values.
  ASSERT_TRUE(db_.Execute("CREATE SEQUENCE seq1").ok());
  for (const char* sql :
       {"SELECT seq1.NEXTVAL FROM sales", "SELECT id FROM sales WHERE id = "
                                          "seq1.CURRVAL",
        "SELECT COUNT(*) FROM sales WHERE id < NEXT VALUE FOR seq1",
        "SELECT cust, COUNT(*) FROM sales GROUP BY cust ORDER BY "
        "seq1.NEXTVAL"}) {
    auto r = db_.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented)
        << sql << ": " << r.status().ToString();
  }
  // The rejection happens before any shard runs; plain queries still work.
  auto c = db_.Execute("SELECT COUNT(*) FROM sales");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->result.rows.columns[0].GetInt(0), 10000);
}

TEST_F(MppTest, SpeculativeAttemptsKeepEverySessionSetting) {
  // S2.SALES holds 300 rows beside PUBLIC.SALES' 10000: an attempt that
  // lost SET SCHEMA would count the wrong table.
  ASSERT_TRUE(db_.Execute("CREATE SCHEMA S2").ok());
  TableSchema s2("S2", "SALES",
                 {{"ID", TypeId::kInt64, false, 0, false},
                  {"AMT", TypeId::kDouble, true, 0, false}});
  s2.set_distribution_key(0);
  ASSERT_TRUE(db_.CreateTable(s2).ok());
  RowBatch rows;
  rows.columns.emplace_back(TypeId::kInt64);
  rows.columns.emplace_back(TypeId::kDouble);
  for (int i = 0; i < 300; ++i) {
    rows.columns[0].AppendInt(i);
    rows.columns[1].AppendDouble(1.0);
  }
  ASSERT_TRUE(db_.Load("S2", "SALES", rows).ok());
  // A primary still running after 20 ms gets a speculative duplicate; the
  // stalled one's duplicate wins.
  db_.failover_policy().straggler_after_seconds = 0.02;
  auto speculated_count = [&]() -> int64_t {
    FaultSpec stall;
    stall.code = StatusCode::kOk;
    stall.stall_seconds = 0.3;
    stall.max_fires = 1;
    ScopedFault fault("mpp.shard_stall", stall);
    auto r = db_.Execute("SELECT COUNT(*) FROM sales");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return -1;
    EXPECT_GE(r->exec.speculative_wins, 1u);
    return r->result.rows.columns[0].GetInt(0);
  };
  ASSERT_TRUE(db_.Execute("SET SCHEMA S2").ok());
  EXPECT_EQ(speculated_count(), 300);
  ASSERT_TRUE(db_.Execute("SET DOP = 2").ok());
  EXPECT_EQ(speculated_count(), 300);
}

// ------------------------------------------------------------ concurrency --
//
// One MppDatabase serves concurrent statements: SELECT and EXPLAIN run side
// by side, every other statement alone, and each statement's shards run
// concurrently. A reader must return the bytes of a serial run whatever
// else is in flight.

/// Canonical bytes of one statement's outcome: its rows, or its error.
std::string Outcome(MppDatabase* db, const std::string& sql) {
  auto r = db->Execute(sql);
  return r.ok() ? corpus::ResultKey(r->result)
                : "error: " + r.status().ToString();
}

class MppConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = corpus::MakeLoadedDb(1);
    // The differential corpus plus the fault suite's shapes; EXPLAIN
    // ANALYZE returns the rows too (its timed report is not compared).
    queries_.assign(std::begin(corpus::kCorpus), std::end(corpus::kCorpus));
    queries_.push_back("SELECT ID, V FROM T ORDER BY ID LIMIT 25");
    queries_.push_back(
        "EXPLAIN ANALYZE SELECT GRP, COUNT(*), SUM(V) FROM T GROUP BY GRP "
        "ORDER BY GRP");
    for (const auto& q : queries_) {
      serial_.push_back(Outcome(db_.get(), q));
      ASSERT_EQ(serial_.back().rfind("error", 0), std::string::npos) << q;
    }
  }

  /// Runs every query `passes` times on each of `readers` threads (staggered
  /// starts) while `during` runs on this thread; expects the serial bytes.
  void ReadWhile(int readers, int passes, const std::function<void()>& during) {
    std::vector<std::string> diverged(readers);
    std::vector<std::thread> threads;
    for (int t = 0; t < readers; ++t) {
      threads.emplace_back([&, t] {
        for (int p = 0; p < passes; ++p) {
          for (size_t i = 0; i < queries_.size(); ++i) {
            const size_t q = (i + 5 * static_cast<size_t>(t)) % queries_.size();
            if (diverged[t].empty() &&
                Outcome(db_.get(), queries_[q]) != serial_[q]) {
              diverged[t] = queries_[q];
            }
          }
        }
      });
    }
    during();
    for (auto& th : threads) th.join();
    for (int t = 0; t < readers; ++t) {
      EXPECT_EQ(diverged[t], "") << "reader " << t << " diverged";
    }
  }

  std::unique_ptr<MppDatabase> db_;
  std::vector<std::string> queries_;
  std::vector<std::string> serial_;
};

TEST_F(MppConcurrencyTest, ConcurrentReadersMatchSerialRun) {
  ReadWhile(/*readers=*/6, /*passes=*/2, [] {});
}

TEST_F(MppConcurrencyTest, WritesAndSetsInterleaveWithReaders) {
  std::vector<std::string> errors;
  ReadWhile(/*readers=*/4, /*passes=*/2, [&] {
    auto run = [&](const std::string& sql, int64_t want_rows) {
      auto r = db_->Execute(sql);
      if (!r.ok()) {
        errors.push_back(sql + ": " + r.status().ToString());
      } else if (want_rows >= 0 && r->result.affected_rows != want_rows) {
        errors.push_back(sql + ": " + std::to_string(r->result.affected_rows) +
                         " rows");
      }
    };
    for (int i = 0; i < 6; ++i) {
      const std::string w = "PUBLIC.W" + std::to_string(i);
      run("CREATE TABLE " + w + " (ID BIGINT NOT NULL, V BIGINT)", -1);
      run("INSERT INTO " + w + " VALUES (1, 10), (2, 20), (3, 30)", 3);
      // Plan-shape knobs: every reader's bytes are the same under both.
      run(i % 2 ? "SET DOP ANY" : "SET DOP 1", -1);
      run("UPDATE " + w + " SET V = V + 1 WHERE ID >= 2", 2);
      // The coordinator's result cache: readers' repeats may hit it while
      // these writes bump the data version, and must still match.
      run(i % 2 ? "SET RESULT_CACHE OFF" : "SET RESULT_CACHE ON", -1);
      run("DELETE FROM " + w + " WHERE ID = 1", 1);
      const std::string sum =
          Outcome(db_.get(), "SELECT COUNT(*), SUM(V) FROM " + w);
      if (sum.find("\n2|52|\n") == std::string::npos) {
        errors.push_back(w + ": " + sum);
      }
      run("DROP TABLE " + w, -1);
    }
  });
  for (const auto& e : errors) ADD_FAILURE() << e;
}

TEST_F(MppConcurrencyTest, CancellingOneStatementLeavesOthersUntouched) {
  const std::string sql = "SELECT S, V, ID FROM T ORDER BY S, V DESC, ID";
  const std::string want = Outcome(db_.get(), sql);
  std::vector<std::string> errors;
  ReadWhile(/*readers=*/4, /*passes=*/1, [&] {
    // Each victim ends cancelled or with the serial bytes.
    auto victim = [&](std::shared_ptr<QueryContext> qc, bool must_cancel) {
      auto r = db_->Execute(sql, std::move(qc));
      if (r.ok() ? must_cancel || corpus::ResultKey(r->result) != want
                 : !r.status().IsCancelled()) {
        errors.push_back(r.ok() ? "victim ran to a wrong or uncancelled end"
                                : r.status().ToString());
      }
    };
    for (int i = 0; i < 8; ++i) {
      // Cancelled before it starts, at one of its first governor checks,
      // and from another thread mid-flight.
      auto before = std::make_shared<QueryContext>();
      before->Cancel();
      victim(before, /*must_cancel=*/true);
      auto early = std::make_shared<QueryContext>();
      early->CancelAfterChecks(1 + i);
      victim(early, /*must_cancel=*/false);
      auto mid = std::make_shared<QueryContext>();
      std::thread killer([mid] {
        std::this_thread::sleep_for(std::chrono::microseconds(300));
        mid->Cancel();
      });
      victim(mid, /*must_cancel=*/false);
      killer.join();
    }
  });
  for (const auto& e : errors) ADD_FAILURE() << e;
}

}  // namespace
}  // namespace dashdb
