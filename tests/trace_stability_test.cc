// Trace determinism: the span tree EXPLAIN ANALYZE records is a replayable
// artifact, not a best-effort log. Same query + same fault seed must yield
// an identical StructureDigest across runs (ids, nesting, names, rows,
// attempt/retry attrs — never timing), and across DOP the attr-free digest
// must match wherever the plan shape is unchanged (an operator's span kind
// is its label up to the parameter list, so a scan's dop= never enters it).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/fault_injector.h"
#include "common/metrics.h"
#include "mpp/mpp.h"
#include "sql/engine.h"

namespace dashdb {
namespace {

constexpr const char* kShardExec = "mpp.shard_exec";

std::unique_ptr<MppDatabase> MakeLoadedDb(int dop) {
  EngineConfig cfg;
  cfg.query_parallelism = dop;
  auto db = std::make_unique<MppDatabase>(4, 2, 8, size_t{8} << 30, cfg);
  TableSchema schema("PUBLIC", "T",
                     {{"ID", TypeId::kInt64, false, 0, false},
                      {"GRP", TypeId::kInt64, true, 0, false},
                      {"V", TypeId::kInt64, true, 0, false}});
  schema.set_distribution_key(0);
  EXPECT_TRUE(db->CreateTable(schema).ok());
  RowBatch rows;
  for (int i = 0; i < 3; ++i) rows.columns.emplace_back(TypeId::kInt64);
  for (int i = 0; i < 400; ++i) {
    rows.columns[0].AppendInt(i);
    rows.columns[1].AppendInt(i % 7);
    rows.columns[2].AppendInt(i * 31 % 101);
  }
  EXPECT_TRUE(db->Load("PUBLIC", "T", rows).ok());
  return db;
}

constexpr const char* kQuery =
    "EXPLAIN ANALYZE SELECT GRP, COUNT(*), SUM(V) FROM T GROUP BY GRP "
    "ORDER BY GRP";

/// One fresh cluster + injector run (failover mutates topology, so every
/// run starts from a virgin database and a freshly seeded injector).
std::shared_ptr<const Trace> RunOnce(int dop, uint64_t seed, bool inject) {
  auto db = MakeLoadedDb(dop);
  FaultInjector::Global().Reset(seed);
  if (inject) {
    FaultSpec kill;
    kill.code = StatusCode::kUnavailable;
    kill.message = "node lost";
    kill.skip_hits = 2;
    kill.max_fires = 1;
    FaultInjector::Global().Arm(kShardExec, kill);
  }
  auto r = db->Execute(kQuery);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return nullptr;
  EXPECT_NE(r->trace, nullptr);
  return r->trace;
}

class TraceStabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().ResetForTest();
    MetricRegistry::Global().ResetForTest();
  }
  void TearDown() override { FaultInjector::Global().ResetForTest(); }
};

TEST_F(TraceStabilityTest, SameSeedReplaysIdenticalSpanTree) {
  auto a = RunOnce(4, 99, /*inject=*/false);
  auto b = RunOnce(4, 99, /*inject=*/false);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->StructureDigest(), b->StructureDigest())
      << "fault-free trees must replay bit-for-bit\nA:\n"
      << a->TreeString() << "B:\n" << b->TreeString();
}

TEST_F(TraceStabilityTest, SameFaultSeedReplaysRetriesAndFailovers) {
  auto a = RunOnce(4, 424242, /*inject=*/true);
  auto b = RunOnce(4, 424242, /*inject=*/true);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // Full digest includes the attempt/retry/failover attrs: the whole fault
  // schedule replays, not just the plan shape.
  EXPECT_EQ(a->StructureDigest(), b->StructureDigest())
      << "A:\n" << a->TreeString() << "B:\n" << b->TreeString();
  // And the injected kill is actually visible in the spans.
  bool saw_retry = false;
  for (const auto& s : a->spans()) {
    auto it = s.attrs.find("retries");
    if (it != s.attrs.end() && it->second > 0) saw_retry = true;
  }
  EXPECT_TRUE(saw_retry) << "expected a retried shard span:\n"
                         << a->TreeString();
}

TEST_F(TraceStabilityTest, CrossDopTreesMatchWithoutAttrs) {
  auto serial = RunOnce(1, 7, /*inject=*/false);
  auto parallel = RunOnce(4, 7, /*inject=*/false);
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(parallel, nullptr);
  // `dop` lives in the attrs, so the attr-free digest isolates plan shape +
  // cardinalities — which parallelism must not change.
  EXPECT_EQ(serial->StructureDigest(false), parallel->StructureDigest(false))
      << "DOP=1:\n" << serial->TreeString() << "DOP=4:\n"
      << parallel->TreeString();
  EXPECT_NE(serial->StructureDigest(false), "");
}

TEST_F(TraceStabilityTest, EngineTraceStableAcrossRuns) {
  auto digest_once = [](int dop) {
    EngineConfig cfg;
    cfg.query_parallelism = dop;
    Engine engine(cfg);
    auto session = engine.CreateSession();
    EXPECT_TRUE(engine
                    .Execute(session.get(),
                             "CREATE TABLE t (id INT, grp INT, v INT)")
                    .ok());
    EXPECT_TRUE(engine
                    .Execute(session.get(),
                             "INSERT INTO t VALUES (1,1,10), (2,1,20), "
                             "(3,2,30), (4,2,40)")
                    .ok());
    auto r = engine.Execute(
        session.get(),
        "EXPLAIN ANALYZE SELECT grp, SUM(v) FROM t GROUP BY grp");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    auto trace = session->last_trace();
    EXPECT_NE(trace, nullptr);
    return trace ? trace->StructureDigest(false) : std::string();
  };
  std::string a = digest_once(1);
  std::string b = digest_once(1);
  std::string c = digest_once(4);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c) << "plan shape unchanged across DOP for this query";
  EXPECT_NE(a, "");
}

}  // namespace
}  // namespace dashdb
