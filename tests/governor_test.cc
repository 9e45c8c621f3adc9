// Query lifecycle governance (DESIGN.md "Query governance"): cooperative
// cancellation at every morsel/batch boundary, statement deadlines, memory
// budgets with clean kResourceExhausted aborts, and admission control —
// exercised at DOP 1 and 4, through the MPP coordinator, and over fluid
// remote scans. The cancellation storm sweeps a deterministic trip point
// across every governor check of a query, so each abort site is hit without
// racing a second thread; a real cross-thread CANCEL is drilled separately.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injector.h"
#include "common/metrics.h"
#include "common/query_context.h"
#include "common/threadpool.h"
#include "exec/admission.h"
#include "exec/operator.h"
#include "exec/sort.h"
#include "fluid/nickname.h"
#include "fluid/remote_store.h"
#include "mpp/mpp.h"
#include "sql/engine.h"

namespace dashdb {
namespace {

uint64_t CounterValue(const char* name) {
  return MetricRegistry::Global().GetCounter(name)->value();
}

/// Canonical string form of a single-node result.
std::string RowsKey(const QueryResult& r) {
  std::ostringstream os;
  for (const auto& c : r.columns) os << c.name << '|';
  os << '\n';
  for (size_t i = 0; i < r.rows.num_rows(); ++i) {
    for (size_t c = 0; c < r.rows.columns.size(); ++c) {
      os << r.rows.columns[c].GetValue(i).ToString() << '|';
    }
    os << '\n';
  }
  return os.str();
}

std::string MppKey(const MppQueryResult& r) { return RowsKey(r.result); }

EngineConfig ParallelConfig() {
  EngineConfig cfg;
  cfg.query_parallelism = 8;
  return cfg;
}

/// Loads an ID/GRP/V column table with `n` rows.
void LoadRows(Engine* engine, const std::string& name, int64_t n) {
  TableSchema schema("PUBLIC", name,
                     {{"ID", TypeId::kInt64, false, 0, false},
                      {"GRP", TypeId::kInt64, true, 0, false},
                      {"V", TypeId::kInt64, true, 0, false}});
  auto t = engine->CreateColumnTable(schema);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  RowBatch rows;
  for (int c = 0; c < 3; ++c) rows.columns.emplace_back(TypeId::kInt64);
  for (int64_t i = 0; i < n; ++i) {
    rows.columns[0].AppendInt(i);
    rows.columns[1].AppendInt(i % 97);
    rows.columns[2].AppendInt(i * 31 % 101);
  }
  ASSERT_TRUE(t.value()->Append(rows).ok());
}

Result<QueryResult> Exec(Engine& e, Session* s, const std::string& sql) {
  return e.Execute(s, sql);
}

void SetDop(Engine& e, Session* s, int dop) {
  auto r = e.Execute(s, "SET DOP = " + std::to_string(dop));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

/// Runs `sql` under an injected governor and returns the checks it made.
uint64_t GovernedChecks(Engine& e, Session* s, const std::string& sql,
                        std::string* key = nullptr) {
  auto qc = std::make_shared<QueryContext>();
  s->InjectNextQueryContext(qc);
  auto r = e.Execute(s, sql);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (r.ok() && key != nullptr) *key = RowsKey(*r);
  return qc->checks();
}

class GovernorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().ResetForTest();
    MetricRegistry::Global().ResetForTest();
  }
  void TearDown() override { FaultInjector::Global().ResetForTest(); }
};

// ---------------------------------------------------------------------------
// Governed ParallelFor

TEST_F(GovernorTest, ParallelForAbandonsTailOnCancel) {
  ThreadPool pool(4);
  QueryContext qc;
  qc.CancelAfterChecks(8);
  std::atomic<size_t> ran{0};
  // Returns normally with the tail abandoned — callers re-probe their own
  // governor to observe the abort.
  pool.ParallelFor(100000, [&](size_t) { ran.fetch_add(1); }, 4, &qc);
  EXPECT_LT(ran.load(), 100000u);
  EXPECT_TRUE(qc.cancelled());
}

TEST_F(GovernorTest, ParallelForInlinePathChecksPerItem) {
  ThreadPool pool(4);
  QueryContext qc;
  qc.CancelAfterChecks(5);
  std::atomic<size_t> ran{0};
  // max_workers=1 runs inline: exactly the items before the tripping check.
  pool.ParallelFor(100, [&](size_t) { ran.fetch_add(1); }, 1, &qc);
  EXPECT_EQ(ran.load(), 4u);
}

// ---------------------------------------------------------------------------
// Cancellation storm: trip at EVERY governor check of a scan, a join, and
// an aggregation, at DOP 1 and DOP 4. Every run must either fail kCancelled
// or (when the trip lands past the query's last check) return the baseline
// result; the engine must stay healthy throughout.

TEST_F(GovernorTest, CancellationStormAtEveryCheck) {
  Engine engine(ParallelConfig());
  auto session = engine.CreateSession();
  LoadRows(&engine, "S", 30000);
  const std::string queries[] = {
      "SELECT COUNT(*) FROM S WHERE V > 50",
      "SELECT COUNT(*) FROM S A, S B WHERE A.ID = B.ID",
      "SELECT GRP, COUNT(*), SUM(V) FROM S GROUP BY GRP ORDER BY GRP",
  };
  for (const std::string& sql : queries) {
    for (int dop : {1, 4}) {
      SetDop(engine, session.get(), dop);
      auto baseline = Exec(engine, session.get(), sql);
      ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
      const std::string want = RowsKey(*baseline);
      const uint64_t total = GovernedChecks(engine, session.get(), sql);
      ASSERT_GT(total, 0u);
      uint64_t cancelled_runs = 0;
      for (uint64_t n = 1; n <= total; ++n) {
        auto qc = std::make_shared<QueryContext>();
        qc->CancelAfterChecks(n);
        session->InjectNextQueryContext(qc);
        auto r = engine.Execute(session.get(), sql);
        if (r.ok()) {
          // DOP 4 check counts vary run to run; a late trip can miss.
          EXPECT_EQ(RowsKey(*r), want) << sql << " n=" << n;
        } else {
          EXPECT_TRUE(r.status().IsCancelled())
              << sql << " n=" << n << ": " << r.status().ToString();
          ++cancelled_runs;
        }
      }
      EXPECT_GT(cancelled_runs, 0u) << sql << " dop=" << dop;
      // Engine healthy after the storm: ungoverned rerun is byte-identical.
      auto after = Exec(engine, session.get(), sql);
      ASSERT_TRUE(after.ok()) << after.status().ToString();
      EXPECT_EQ(RowsKey(*after), want);
    }
  }
  EXPECT_GT(CounterValue("exec.cancelled"), 0u);
}

// ---------------------------------------------------------------------------
// 1M-row promptness: a cancel tripping on an early check must stop the
// query after a bounded number of further checks (the in-flight morsels),
// not run it to completion — at DOP 1 and 4, for scan/join/agg shapes.

TEST_F(GovernorTest, MillionRowQueriesCancelWithinOneMorsel) {
  Engine engine(ParallelConfig());
  auto session = engine.CreateSession();
  LoadRows(&engine, "BIG", 1000000);
  const std::string queries[] = {
      "SELECT COUNT(*) FROM BIG WHERE V > 50",
      "SELECT COUNT(*) FROM BIG A, BIG B WHERE A.ID = B.ID",
      "SELECT GRP, COUNT(*), SUM(V) FROM BIG GROUP BY GRP",
  };
  for (const std::string& sql : queries) {
    for (int dop : {1, 4}) {
      SetDop(engine, session.get(), dop);
      auto qc = std::make_shared<QueryContext>();
      qc->CancelAfterChecks(3);
      session->InjectNextQueryContext(qc);
      auto r = engine.Execute(session.get(), sql);
      ASSERT_FALSE(r.ok()) << sql << " dop=" << dop;
      EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
      // Stragglers may each consume a few more checks before observing the
      // flag, but the query must not have kept grinding morsels.
      EXPECT_LE(qc->checks(), 3u + 160u) << sql << " dop=" << dop;
    }
  }
}

TEST_F(GovernorTest, CrossThreadCancelDrainsCleanly) {
  Engine engine(ParallelConfig());
  auto session = engine.CreateSession();
  LoadRows(&engine, "BIG", 1000000);
  SetDop(engine, session.get(), 4);
  const std::string sql = "SELECT COUNT(*) FROM BIG A, BIG B WHERE A.ID = B.ID";
  for (int round = 0; round < 3; ++round) {
    std::thread killer([&] {
      for (;;) {
        auto qc = session->current_query();
        if (qc != nullptr && qc->checks() > 4) {
          EXPECT_TRUE(session->CancelCurrentQuery());
          return;
        }
        std::this_thread::yield();
      }
    });
    auto r = engine.Execute(session.get(), sql);
    killer.join();
    ASSERT_FALSE(r.ok()) << "round " << round;
    EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
  }
  // All worker threads drained: the next statement runs normally.
  auto ok = Exec(engine, session.get(), "SELECT COUNT(*) FROM BIG");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->rows.columns[0].GetValue(0).AsInt(), 1000000);
}

// ---------------------------------------------------------------------------
// Deadlines

TEST_F(GovernorTest, StatementTimeoutTripsAndClears) {
  Engine engine(ParallelConfig());
  auto session = engine.CreateSession();
  LoadRows(&engine, "BIG", 1000000);
  SetDop(engine, session.get(), 4);
  const std::string sql =
      "SELECT GRP, COUNT(*), SUM(V) FROM BIG GROUP BY GRP ORDER BY GRP";
  auto baseline = Exec(engine, session.get(), sql);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(Exec(engine, session.get(),
                   "SET STATEMENT_TIMEOUT = 0.000001").ok());
  auto r = engine.Execute(session.get(), sql);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimeout()) << r.status().ToString();
  EXPECT_GE(CounterValue("exec.statement_timeouts"), 1u);
  // Disarm; the session recovers byte-identically.
  ASSERT_TRUE(Exec(engine, session.get(), "SET STATEMENT_TIMEOUT NONE").ok());
  auto after = Exec(engine, session.get(), sql);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(RowsKey(*after), RowsKey(*baseline));
}

// ---------------------------------------------------------------------------
// Memory budgets

TEST_F(GovernorTest, MemBudgetExceededFailsCleanlyAndRecovers) {
  Engine engine(ParallelConfig());
  auto session = engine.CreateSession();
  LoadRows(&engine, "BIG", 1000000);
  SetDop(engine, session.get(), 4);
  const std::string sql =
      "SELECT GRP, COUNT(*), SUM(V) FROM BIG GROUP BY GRP ORDER BY GRP";
  auto baseline = Exec(engine, session.get(), sql);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(Exec(engine, session.get(), "SET MEM_BUDGET = 10000").ok());
  auto r = engine.Execute(session.get(), sql);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("budget"), std::string::npos);
  EXPECT_GE(CounterValue("exec.mem_budget_exceeded"), 1u);
  // The engine stays healthy and the next (ungoverned) run is identical.
  ASSERT_TRUE(Exec(engine, session.get(), "SET MEM_BUDGET NONE").ok());
  auto after = Exec(engine, session.get(), sql);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(RowsKey(*after), RowsKey(*baseline));
}

TEST_F(GovernorTest, AllocPressureFaultPointDrills) {
  Engine engine(ParallelConfig());
  auto session = engine.CreateSession();
  LoadRows(&engine, "S", 30000);
  // Parallel aggregation emits groups in a scheduling-dependent order, so
  // the byte comparison below needs the ORDER BY.
  const std::string sql =
      "SELECT GRP, SUM(V) FROM S GROUP BY GRP ORDER BY GRP";
  auto baseline = Exec(engine, session.get(), sql);
  ASSERT_TRUE(baseline.ok());
  FaultSpec pressure;
  pressure.code = StatusCode::kResourceExhausted;
  pressure.message = "simulated allocation pressure";
  pressure.max_fires = 1;
  FaultInjector::Global().Arm("exec.alloc_pressure", pressure);
  auto r = engine.Execute(session.get(), sql);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("allocation pressure"),
            std::string::npos);
  // One fire only: the next run succeeds, byte-identical.
  auto after = Exec(engine, session.get(), sql);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(RowsKey(*after), RowsKey(*baseline));
}

TEST_F(GovernorTest, ExplainAnalyzeReportsOperatorPeakBytes) {
  Engine engine(ParallelConfig());
  auto session = engine.CreateSession();
  LoadRows(&engine, "S", 30000);
  auto r = Exec(engine, session.get(),
                "EXPLAIN ANALYZE SELECT COUNT(*) FROM S A, S B "
                "WHERE A.ID = B.ID");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->message.find(" mem="), std::string::npos) << r->message;
}

// ---------------------------------------------------------------------------
// Hash-join probe fan-out at DOP 4: a cancel, a deadline and a budget trip
// landing while probe batches run on the pool end in their typed Status —
// never in an OK result missing the abandoned batches.

constexpr size_t kDrillProbeBatches = 16;
constexpr size_t kDrillBatchRows = 1024;

/// ID/GRP/V batches; on_emit(i) runs as batch i leaves, so a test can arm
/// the governor at an exact point of the probe.
class DrillSourceOp : public Operator {
 public:
  DrillSourceOp(size_t batches, size_t rows, std::function<void(size_t)> on_emit)
      : batches_(batches), rows_(rows), on_emit_(std::move(on_emit)) {
    output_ = {{"ID", TypeId::kInt64},
               {"GRP", TypeId::kInt64},
               {"V", TypeId::kInt64}};
  }
  Status OpenImpl() override {
    emitted_ = 0;
    return Status::OK();
  }
  Result<bool> NextImpl(RowBatch* out) override {
    if (emitted_ == batches_) return false;
    out->columns.assign(3, ColumnVector(TypeId::kInt64));
    for (size_t r = 0; r < rows_; ++r) {
      const int64_t id = static_cast<int64_t>(emitted_ * rows_ + r);
      out->columns[0].AppendInt(id);
      out->columns[1].AppendInt(id % 97);
      out->columns[2].AppendInt(id * 31 % 101);
    }
    if (on_emit_) on_emit_(emitted_);
    ++emitted_;
    return true;
  }
  std::string label() const override { return "DrillSource"; }
  size_t emitted() const { return emitted_; }

 private:
  size_t batches_, rows_;
  std::function<void(size_t)> on_emit_;
  size_t emitted_ = 0;
};

/// PROBE.GRP = DIM.ID over 16 x 1024 probe rows and a 97-row build: every
/// probe row matches once, and each 8-batch window fans out over the pool.
struct JoinDrill {
  explicit JoinDrill(ThreadPool* pool,
                     std::function<void(size_t)> on_emit = nullptr,
                     size_t probe_batches = kDrillProbeBatches) {
    ctx.pool = pool;
    ctx.dop = 4;
    auto p = std::make_unique<DrillSourceOp>(probe_batches, kDrillBatchRows,
                                             std::move(on_emit));
    probe = p.get();
    join = std::make_unique<HashJoinOp>(
        std::move(p), std::make_unique<DrillSourceOp>(1, 97, nullptr),
        std::vector<ExprPtr>{std::make_shared<ColumnRefExpr>(1, TypeId::kInt64)},
        std::vector<ExprPtr>{std::make_shared<ColumnRefExpr>(0, TypeId::kInt64)},
        JoinType::kInner, &ctx);
  }
  ExecContext ctx;
  DrillSourceOp* probe = nullptr;
  std::unique_ptr<HashJoinOp> join;
};

std::string BatchKey(const RowBatch& b) {
  std::ostringstream os;
  for (size_t i = 0; i < b.num_rows(); ++i) {
    for (const auto& c : b.columns) os << c.GetValue(i).ToString() << '|';
    os << '\n';
  }
  return os.str();
}

/// Pulls `op` batch by batch, appending each batch's rows to *got, until
/// end of stream or the first error, which is returned.
Status DrainRows(Operator* op, std::string* got) {
  DASHDB_RETURN_IF_ERROR(op->Open());
  RowBatch b;
  for (;;) {
    DASHDB_ASSIGN_OR_RETURN(bool more, op->Next(&b));
    if (!more) return Status::OK();
    *got += BatchKey(b);
  }
}

TEST_F(GovernorTest, JoinProbeCancelAtEveryCheckAtDop4) {
  ThreadPool pool(4);
  std::string want;
  uint64_t total = 0;
  // Checks made before the first fan-out: everything up to the window's
  // last pull runs on the calling thread, so the count is the same in
  // every run. The fan-out's 8 chunk claims and the re-probe follow.
  uint64_t before_fanout = 0;
  {
    QueryContext qc;  // outlives the plan, which releases into it
    JoinDrill drill(&pool, [&](size_t i) {
      if (i == 7) before_fanout = qc.checks();
    });
    AttachQueryContext(drill.join.get(), &qc);
    ASSERT_TRUE(DrainRows(drill.join.get(), &want).ok());
    ASSERT_EQ(std::count(want.begin(), want.end(), '\n'),
              static_cast<long>(kDrillProbeBatches * kDrillBatchRows));
    total = qc.checks();
  }
  ASSERT_GT(before_fanout, 0u);
  uint64_t cancelled = 0;
  for (uint64_t n = 1; n <= total + 4; ++n) {
    QueryContext qc;
    qc.CancelAfterChecks(n);
    JoinDrill drill(&pool);
    AttachQueryContext(drill.join.get(), &qc);
    std::string got;
    Status st = DrainRows(drill.join.get(), &got);
    const bool in_fanout = n > before_fanout && n <= before_fanout + 9;
    if (st.ok()) {
      // Pool helpers' claims vary run to run, so a late trip can miss.
      EXPECT_FALSE(in_fanout) << "n=" << n;
      EXPECT_EQ(got, want) << "n=" << n;
      continue;
    }
    EXPECT_TRUE(st.IsCancelled()) << "n=" << n << ": " << st.ToString();
    ++cancelled;
    // Whatever came out before the cancel is a prefix of the full result.
    EXPECT_EQ(want.compare(0, got.size(), got), 0) << "n=" << n;
    // A trip on a chunk claim leaves the window with abandoned slots;
    // none of that window may be emitted.
    if (in_fanout) {
      EXPECT_EQ(drill.probe->emitted(), 8u) << "n=" << n;
      EXPECT_TRUE(got.empty()) << "n=" << n;
    }
  }
  EXPECT_GT(cancelled, 0u);
}

TEST_F(GovernorTest, JoinProbeDeadlineMidFanOutAtDop4) {
  ThreadPool pool(4);
  QueryContext qc;
  // Armed as the window's last batch leaves: the first check after it is
  // a chunk claim inside the probe fan-out.
  JoinDrill drill(&pool, [&qc](size_t i) {
    if (i == 7) qc.SetTimeout(1e-9);
  });
  AttachQueryContext(drill.join.get(), &qc);
  auto r = DrainOperator(drill.join.get());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimeout()) << r.status().ToString();
  EXPECT_EQ(drill.probe->emitted(), 8u);
  EXPECT_EQ(drill.join->metrics().batches_out, 0u);
}

TEST_F(GovernorTest, JoinProbeBudgetTripsMidProbeAtDop4) {
  ThreadPool pool(4);
  // What the build alone reserves: the same join over an empty probe.
  int64_t build_bytes = 0;
  {
    QueryContext qc;
    JoinDrill drill(&pool, nullptr, /*probe_batches=*/0);
    AttachQueryContext(drill.join.get(), &qc);
    auto r = DrainOperator(drill.join.get());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    build_bytes = qc.mem_peak();
    ASSERT_GT(build_bytes, 0);
  }
  // Room for the build but not for one probe window of joined output.
  QueryContext qc;
  qc.SetMemBudget(build_bytes + 1024);
  {
    JoinDrill drill(&pool);
    AttachQueryContext(drill.join.get(), &qc);
    auto r = DrainOperator(drill.join.get());
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
    EXPECT_NE(r.status().message().find("probe window"), std::string::npos)
        << r.status().ToString();
    EXPECT_EQ(drill.probe->emitted(), 8u);
    EXPECT_EQ(drill.join->metrics().batches_out, 0u);
    EXPECT_LE(qc.mem_peak(), build_bytes + 1024);
  }
  EXPECT_EQ(qc.mem_used(), 0);
  // A budget that holds the build and a window runs to completion.
  QueryContext roomy;
  roomy.SetMemBudget(build_bytes + (int64_t{8} << 20));
  JoinDrill drill(&pool);
  AttachQueryContext(drill.join.get(), &roomy);
  auto ok = DrainOperator(drill.join.get());
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->num_rows(), kDrillProbeBatches * kDrillBatchRows);
}

TEST_F(GovernorTest, DenseJoinIndexChargesTheBudgetAtDop1AndDop4) {
  ThreadPool pool(4);
  // Build keys ID = 0..4095: a direct-address index of one 4-byte slot per
  // key and one 4-byte chain link per row, on top of the drained rows.
  constexpr size_t kBuildRows = 4096;
  DrillSourceOp source(1, kBuildRows, nullptr);
  auto data = DrainOperator(&source);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  const int64_t data_bytes = BatchMemoryBytes(*data);
  const int64_t index_bytes = 2 * kBuildRows * sizeof(int32_t);
  auto col = [](int i) {
    return std::make_shared<ColumnRefExpr>(i, TypeId::kInt64);
  };
  for (int dop : {1, 4}) {
    SCOPED_TRACE("dop " + std::to_string(dop));
    // Unbudgeted, then with room for the rows but not for their index.
    for (int64_t budget : {int64_t{0}, data_bytes + index_bytes / 2}) {
      QueryContext qc;  // outlives the plan, which releases into it
      if (budget > 0) qc.SetMemBudget(budget);
      ExecContext ctx;
      ctx.pool = &pool;
      ctx.dop = dop;
      HashJoinOp join(
          std::make_unique<DrillSourceOp>(kDrillProbeBatches, kDrillBatchRows,
                                          nullptr),
          std::make_unique<DrillSourceOp>(1, kBuildRows, nullptr),
          {col(1)}, {col(0)}, JoinType::kInner, &ctx);
      AttachQueryContext(&join, &qc);
      auto r = DrainOperator(&join);
      if (budget == 0) {
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(r->num_rows(), kDrillProbeBatches * kDrillBatchRows);
        EXPECT_NE(join.AnalyzeString().find("index=dense range=4096"),
                  std::string::npos)
            << join.AnalyzeString();
        EXPECT_GE(qc.mem_peak(), data_bytes + index_bytes);
        continue;
      }
      ASSERT_FALSE(r.ok());
      EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
      EXPECT_NE(r.status().message().find("hash join index"),
                std::string::npos)
          << r.status().ToString();
      EXPECT_EQ(join.metrics().batches_out, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Aggregation and Top-N windows at DOP 4: the same drills, landing while a
// window's morsels run on the pool.

/// GROUP BY GRP with SUM(V), or ORDER BY V DESC, ID LIMIT 10, over the
/// 16 x 1024-row drill source (or `batches` of them): each window, 8
/// batches at first, fans out over 4 lanes.
struct BreakerDrill {
  BreakerDrill(ThreadPool* pool, bool topn,
               std::function<void(size_t)> on_emit = nullptr,
               size_t batches = kDrillProbeBatches) {
    ctx.pool = pool;
    ctx.dop = 4;
    auto src = std::make_unique<DrillSourceOp>(batches, kDrillBatchRows,
                                               std::move(on_emit));
    source = src.get();
    auto col = [](int i) {
      return std::make_shared<ColumnRefExpr>(i, TypeId::kInt64);
    };
    if (topn) {
      std::vector<SortKey> keys = {{col(2), true}, {col(0), false}};
      op = std::make_unique<TopNOp>(std::move(src), std::move(keys), 10, 0,
                                    &ctx);
    } else {
      std::vector<AggSpec> aggs(1);
      aggs[0].kind = AggKind::kSum;
      aggs[0].arg = col(2);
      op = std::make_unique<HashAggOp>(
          std::move(src), std::vector<ExprPtr>{col(1)},
          std::vector<std::string>{"GRP"}, std::move(aggs),
          std::vector<std::string>{"S"}, &ctx);
    }
  }
  ExecContext ctx;
  DrillSourceOp* source = nullptr;
  OperatorPtr op;
};

TEST_F(GovernorTest, AggAndTopNCancelAtEveryCheckAtDop4) {
  ThreadPool pool(4);
  for (bool topn : {false, true}) {
    std::string want;
    uint64_t total = 0, before_fanout = 0;
    {
      QueryContext qc;
      BreakerDrill drill(&pool, topn, [&](size_t i) {
        if (i == 7) before_fanout = qc.checks();
      });
      AttachQueryContext(drill.op.get(), &qc);
      ASSERT_TRUE(DrainRows(drill.op.get(), &want).ok());
      ASSERT_FALSE(want.empty());
      total = qc.checks();
    }
    ASSERT_GT(before_fanout, 0u);
    uint64_t cancelled = 0;
    for (uint64_t n = 1; n <= total + 4; ++n) {
      QueryContext qc;
      qc.CancelAfterChecks(n);
      BreakerDrill drill(&pool, topn);
      AttachQueryContext(drill.op.get(), &qc);
      std::string got;
      Status st = DrainRows(drill.op.get(), &got);
      // The first window's 4 lane claims and the re-probe after them.
      const bool in_fanout = n > before_fanout && n <= before_fanout + 5;
      if (st.ok()) {
        EXPECT_FALSE(in_fanout) << "topn=" << topn << " n=" << n;
        EXPECT_EQ(got, want) << "topn=" << topn << " n=" << n;
        continue;
      }
      EXPECT_TRUE(st.IsCancelled())
          << "topn=" << topn << " n=" << n << ": " << st.ToString();
      ++cancelled;
      // Pipeline breakers emit nothing before their input is consumed, and
      // then everything (a trip on the trailing pull follows it).
      EXPECT_TRUE(got.empty() || got == want) << "topn=" << topn << " n=" << n;
      if (in_fanout) {
        EXPECT_EQ(drill.source->emitted(), 8u) << "n=" << n;
      }
    }
    EXPECT_GT(cancelled, 0u) << "topn=" << topn;
  }
}

TEST_F(GovernorTest, AggAndTopNDeadlineMidFanOutAtDop4) {
  ThreadPool pool(4);
  for (bool topn : {false, true}) {
    QueryContext qc;
    // Armed as the window's last batch leaves: the next check is a lane
    // claim inside the first window's fan-out.
    BreakerDrill drill(&pool, topn, [&qc](size_t i) {
      if (i == 7) qc.SetTimeout(1e-9);
    });
    AttachQueryContext(drill.op.get(), &qc);
    auto r = DrainOperator(drill.op.get());
    ASSERT_FALSE(r.ok()) << "topn=" << topn;
    EXPECT_TRUE(r.status().IsTimeout()) << r.status().ToString();
    EXPECT_EQ(drill.source->emitted(), 8u) << "topn=" << topn;
    EXPECT_EQ(drill.op->metrics().batches_out, 0u) << "topn=" << topn;
  }
}

TEST_F(GovernorTest, AggAndTopNBudgetTripsOnTheInputWindowAtDop4) {
  ThreadPool pool(4);
  for (bool topn : {false, true}) {
    // 8 batches x 1024 rows x 3 BIGINT columns do not fit in 64 KiB.
    QueryContext qc;
    qc.SetMemBudget(64 << 10);
    {
      BreakerDrill drill(&pool, topn);
      AttachQueryContext(drill.op.get(), &qc);
      auto r = DrainOperator(drill.op.get());
      ASSERT_FALSE(r.ok()) << "topn=" << topn;
      EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
      EXPECT_NE(r.status().message().find("input window"), std::string::npos)
          << r.status().ToString();
      EXPECT_EQ(drill.source->emitted(), 8u) << "topn=" << topn;
      EXPECT_LE(qc.mem_peak(), 64 << 10);
    }
    EXPECT_EQ(qc.mem_used(), 0);
    // Room for one window (192 KiB) and the tables, but not for the whole
    // stream (384 KiB), runs to completion: windows release their input
    // once consumed.
    QueryContext roomy;
    roomy.SetMemBudget(350 << 10);
    BreakerDrill drill(&pool, topn);
    AttachQueryContext(drill.op.get(), &roomy);
    auto ok = DrainOperator(drill.op.get());
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_EQ(ok->num_rows(), topn ? 10u : 97u);
  }
}

/// The window count of an EXPLAIN ANALYZE line's " fanouts=a/b".
size_t WindowsOf(const std::string& analyze) {
  size_t fanned = 0, windows = 0;
  const size_t at = analyze.find(" fanouts=");
  if (at == std::string::npos ||
      std::sscanf(analyze.c_str() + at, " fanouts=%zu/%zu", &fanned,
                  &windows) != 2) {
    return 0;
  }
  return windows;
}

TEST_F(GovernorTest, AggAndTopNWindowsGrowOnlyAsFarAsTheBudgetAtDop4) {
  // 200 batches of 24 KiB. Unbudgeted, the windows grow to 16 x dop = 64
  // batches (1.5 MiB). A 640 KiB budget holds the first window (8 batches,
  // 192 KiB) and one doubling (384 KiB) but not the next (768 KiB): the
  // stream completes in more, smaller windows.
  ThreadPool pool(4);
  for (bool topn : {false, true}) {
    std::string want, unbudgeted;
    {
      QueryContext qc;
      BreakerDrill drill(&pool, topn, nullptr, 200);
      AttachQueryContext(drill.op.get(), &qc);
      ASSERT_TRUE(DrainRows(drill.op.get(), &want).ok());
      unbudgeted = drill.op->AnalyzeString();
      EXPECT_GT(qc.mem_peak(), 1 << 20) << "topn=" << topn;
    }
    QueryContext qc;
    qc.SetMemBudget(640 << 10);
    BreakerDrill drill(&pool, topn, nullptr, 200);
    AttachQueryContext(drill.op.get(), &qc);
    std::string got;
    const Status st = DrainRows(drill.op.get(), &got);
    ASSERT_TRUE(st.ok()) << "topn=" << topn << ": " << st.ToString();
    EXPECT_EQ(got, want) << "topn=" << topn;
    EXPECT_EQ(drill.source->emitted(), 200u);
    EXPECT_LE(qc.mem_peak(), 640 << 10) << "topn=" << topn;
    EXPECT_GE(qc.mem_peak(), 384 << 10) << "topn=" << topn;
    EXPECT_GT(WindowsOf(drill.op->AnalyzeString()), WindowsOf(unbudgeted))
        << drill.op->AnalyzeString() << " vs " << unbudgeted;
  }
}

// ---------------------------------------------------------------------------
// Column scan window: the decoded pages of one window (2 x dop pages at
// first, doubling up to 16 x dop within MEM_BUDGET) are held until emitted,
// so the window counts against the budget — but never more than one window.

TEST_F(GovernorTest, ParallelScanPagesChargeTheBudgetAtDop4) {
  ThreadPool pool(4);
  TableSchema schema("PUBLIC", "PAGES",
                     {{"ID", TypeId::kInt64, false, 0, false},
                      {"GRP", TypeId::kInt64, true, 0, false},
                      {"V", TypeId::kInt64, true, 0, false}});
  auto table = std::make_shared<ColumnTable>(schema, 950);
  RowBatch rows;
  for (int c = 0; c < 3; ++c) rows.columns.emplace_back(TypeId::kInt64);
  for (int64_t i = 0; i < 40000; ++i) {
    rows.columns[0].AppendInt(i);
    rows.columns[1].AppendInt(i % 97);
    rows.columns[2].AppendInt(i * 31 % 101);
  }
  ASSERT_TRUE(table->Load(rows).ok());
  ScanOptions opts;
  opts.exec_pool = &pool;
  opts.dop = 4;
  // One window: 8 full pages x 3 BIGINT columns (768 KiB); the whole
  // table is 40000 rows (~938 KiB).
  const int64_t window_bytes = 2 * 4 * int64_t{kPageRows} * 3 * 8;
  ASSERT_LT(window_bytes, 40000 * 3 * 8);
  {
    QueryContext qc;
    qc.SetMemBudget(256 << 10);
    {
      ColumnScanOp op(table, {}, {0, 1, 2}, opts);
      AttachQueryContext(&op, &qc);
      auto r = DrainOperator(&op);
      ASSERT_FALSE(r.ok());
      EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
      EXPECT_NE(r.status().message().find("column scan"), std::string::npos)
          << r.status().ToString();
    }
    EXPECT_EQ(qc.mem_used(), 0);
  }
  // Room for one window but not the whole table: the scan completes, each
  // page's charge is returned as it is emitted, and the peak is one window.
  QueryContext roomy;
  roomy.SetMemBudget(800 << 10);
  ASSERT_LT(roomy.mem_budget(), 40000 * 3 * 8);
  ColumnScanOp op(table, {}, {0, 1, 2}, opts);
  AttachQueryContext(&op, &roomy);
  ASSERT_TRUE(op.Open().ok());
  RowBatch batch;
  size_t emitted = 0;
  for (;;) {
    auto more = op.Next(&batch);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    emitted += batch.num_rows();
  }
  EXPECT_EQ(emitted, 40000u);
  EXPECT_GT(roomy.mem_peak(), 0);
  EXPECT_LE(roomy.mem_peak(), window_bytes);
  EXPECT_EQ(roomy.mem_used(), 0);
}

TEST_F(GovernorTest, ScanWindowsGrowOnlyAsFarAsTheBudgetAtDop4) {
  // 100 pages. The first window, 8 pages of 3 BIGINT columns, is 768 KiB;
  // a 2 MiB budget lets it double once (1.5 MiB) but not grow to the
  // 64-page window an unbudgeted scan reaches: the scan completes.
  ThreadPool pool(4);
  TableSchema schema("PUBLIC", "PAGES",
                     {{"ID", TypeId::kInt64, false, 0, false},
                      {"GRP", TypeId::kInt64, true, 0, false},
                      {"V", TypeId::kInt64, true, 0, false}});
  auto table = std::make_shared<ColumnTable>(schema, 951);
  RowBatch rows;
  for (int c = 0; c < 3; ++c) rows.columns.emplace_back(TypeId::kInt64);
  const int64_t n = 100 * int64_t{kPageRows};
  for (int64_t i = 0; i < n; ++i) {
    rows.columns[0].AppendInt(i);
    rows.columns[1].AppendInt(i % 97);
    rows.columns[2].AppendInt(i * 31 % 101);
  }
  ASSERT_TRUE(table->Load(rows).ok());
  ScanOptions opts;
  opts.exec_pool = &pool;
  opts.dop = 4;
  for (int64_t budget : {int64_t{0}, int64_t{2} << 20}) {
    QueryContext qc;
    qc.SetMemBudget(budget);
    ColumnScanOp op(table, {}, {0, 1, 2}, opts);
    AttachQueryContext(&op, &qc);
    auto r = DrainOperator(&op);
    ASSERT_TRUE(r.ok()) << "budget=" << budget << ": " << r.status().ToString();
    EXPECT_EQ(r->num_rows(), static_cast<size_t>(n));
    if (budget == 0) {
      EXPECT_GT(qc.mem_peak(), int64_t{2} << 20);
    } else {
      EXPECT_LE(qc.mem_peak(), budget);
      EXPECT_GT(qc.mem_peak(), 1 << 20);
    }
  }
}

// ---------------------------------------------------------------------------
// Admission control

TEST_F(GovernorTest, AdmissionShedsOnTimeoutAndQueueFull) {
  EngineConfig cfg = ParallelConfig();
  cfg.admission.cheap_slots = 0;
  cfg.admission.expensive_slots = 0;
  cfg.admission.queue_timeout_seconds = 0.02;
  Engine engine(cfg);
  auto session = engine.CreateSession();
  LoadRows(&engine, "S", 1000);
  // No slots at all: the wait times out and the query is shed.
  auto r = engine.Execute(session.get(), "SELECT COUNT(*) FROM S");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  EXPECT_GE(CounterValue("exec.admission_shed"), 1u);
  // Full queue: shed immediately instead of waiting.
  AdmissionConfig full = cfg.admission;
  full.max_queued = 0;
  engine.admission().Configure(full);
  auto r2 = engine.Execute(session.get(), "SELECT COUNT(*) FROM S");
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(r2.status().ToString().find("queue full"), std::string::npos);
  // SET ADMISSION OFF bypasses the controller for this session.
  ASSERT_TRUE(Exec(engine, session.get(), "SET ADMISSION OFF").ok());
  auto r3 = engine.Execute(session.get(), "SELECT COUNT(*) FROM S");
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  EXPECT_EQ(r3->rows.columns[0].GetValue(0).AsInt(), 1000);
}

TEST_F(GovernorTest, AdmissionSlotsReleaseToWaiters) {
  AdmissionConfig cfg;
  cfg.cheap_slots = 1;
  cfg.queue_timeout_seconds = 5.0;
  AdmissionController ac(cfg);
  auto held = ac.Admit(QueryClass::kCheap);
  ASSERT_TRUE(held.ok());
  EXPECT_EQ(ac.running(QueryClass::kCheap), 1);
  std::thread holder([tk = std::move(held).value()]() mutable {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });  // ticket destroyed when the thread exits -> slot released
  auto waited = ac.Admit(QueryClass::kCheap);
  EXPECT_TRUE(waited.ok());
  holder.join();
  EXPECT_GE(CounterValue("exec.admission_queued"), 1u);
}

TEST_F(GovernorTest, AdmissionClassifiesByRootEstimate) {
  AdmissionController ac;
  EXPECT_EQ(ac.Classify(10.0), QueryClass::kCheap);
  EXPECT_EQ(ac.Classify(-1.0), QueryClass::kCheap);  // no estimate
  EXPECT_EQ(ac.Classify(1e6), QueryClass::kExpensive);
}

// ---------------------------------------------------------------------------
// SET knob parsing

TEST_F(GovernorTest, SessionKnobParsing) {
  Engine engine;
  auto session = engine.CreateSession();
  ASSERT_TRUE(Exec(engine, session.get(), "SET STATEMENT_TIMEOUT = 5").ok());
  EXPECT_DOUBLE_EQ(session->statement_timeout_seconds(), 5.0);
  ASSERT_TRUE(Exec(engine, session.get(), "SET STATEMENT_TIMEOUT NONE").ok());
  EXPECT_DOUBLE_EQ(session->statement_timeout_seconds(), 0.0);
  EXPECT_FALSE(Exec(engine, session.get(), "SET STATEMENT_TIMEOUT = -1").ok());
  ASSERT_TRUE(Exec(engine, session.get(), "SET MEM_BUDGET = 1048576").ok());
  EXPECT_EQ(session->mem_budget_bytes(), 1048576);
  ASSERT_TRUE(Exec(engine, session.get(), "SET MEM_BUDGET NONE").ok());
  EXPECT_EQ(session->mem_budget_bytes(), 0);
  EXPECT_FALSE(Exec(engine, session.get(), "SET MEM_BUDGET = -4").ok());
  ASSERT_TRUE(Exec(engine, session.get(), "SET ADMISSION OFF").ok());
  EXPECT_FALSE(session->admission_enabled());
  ASSERT_TRUE(Exec(engine, session.get(), "SET ADMISSION ON").ok());
  EXPECT_TRUE(session->admission_enabled());
  EXPECT_FALSE(Exec(engine, session.get(), "SET ADMISSION = MAYBE").ok());
}

// ---------------------------------------------------------------------------
// MPP: governed cluster execution

std::unique_ptr<MppDatabase> MakeMppDb() {
  auto db = std::make_unique<MppDatabase>(4, 2, 8, size_t{8} << 30);
  TableSchema schema("PUBLIC", "T",
                     {{"ID", TypeId::kInt64, false, 0, false},
                      {"GRP", TypeId::kInt64, true, 0, false},
                      {"V", TypeId::kInt64, true, 0, false}});
  schema.set_distribution_key(0);
  EXPECT_TRUE(db->CreateTable(schema).ok());
  RowBatch rows;
  for (int c = 0; c < 3; ++c) rows.columns.emplace_back(TypeId::kInt64);
  for (int i = 0; i < 4000; ++i) {
    rows.columns[0].AppendInt(i);
    rows.columns[1].AppendInt(i % 7);
    rows.columns[2].AppendInt(i * 31 % 101);
  }
  EXPECT_TRUE(db->Load("PUBLIC", "T", rows).ok());
  return db;
}

TEST_F(GovernorTest, MppCancellationStormAcrossShards) {
  auto db = MakeMppDb();
  const std::string queries[] = {
      "SELECT GRP, COUNT(*), SUM(V) FROM T GROUP BY GRP ORDER BY GRP",
      "SELECT ID, V FROM T ORDER BY ID LIMIT 25",
  };
  for (const std::string& sql : queries) {
    auto baseline = db->Execute(sql);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    const std::string want = MppKey(*baseline);
    auto probe = std::make_shared<QueryContext>();
    auto counted = db->Execute(sql, probe);
    ASSERT_TRUE(counted.ok());
    const uint64_t total = probe->checks();
    ASSERT_GT(total, 0u);
    uint64_t cancelled_runs = 0;
    for (uint64_t n = 1; n <= total; ++n) {
      auto qc = std::make_shared<QueryContext>();
      qc->CancelAfterChecks(n);
      auto r = db->Execute(sql, qc);
      if (r.ok()) {
        EXPECT_EQ(MppKey(*r), want) << sql << " n=" << n;
      } else {
        EXPECT_TRUE(r.status().IsCancelled())
            << sql << " n=" << n << ": " << r.status().ToString();
        ++cancelled_runs;
      }
    }
    EXPECT_GT(cancelled_runs, 0u) << sql;
    // Cluster healthy: the next ungoverned run is byte-identical.
    auto after = db->Execute(sql);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(MppKey(*after), want);
  }
}

TEST_F(GovernorTest, MppDeadlineAndBudget) {
  auto db = MakeMppDb();
  const std::string sql =
      "SELECT GRP, COUNT(*), SUM(V) FROM T GROUP BY GRP ORDER BY GRP";
  auto baseline = db->Execute(sql);
  ASSERT_TRUE(baseline.ok());
  auto timed = std::make_shared<QueryContext>();
  timed->SetTimeout(1e-6);
  auto r = db->Execute(sql, timed);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimeout()) << r.status().ToString();
  auto tight = std::make_shared<QueryContext>();
  tight->SetMemBudget(64);
  auto r2 = db->Execute(sql, tight);
  ASSERT_FALSE(r2.ok());
  EXPECT_TRUE(r2.status().IsResourceExhausted()) << r2.status().ToString();
  auto after = db->Execute(sql);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(MppKey(*after), MppKey(*baseline));
}

TEST_F(GovernorTest, MppBudgetTripsWhileShardsRun) {
  auto db = MakeMppDb();
  // A plain scan: the shard plans charge nothing, so every byte charged is
  // a shard result travelling to the coordinator (4000 rows x 3 BIGINTs).
  const std::string sql = "SELECT ID, GRP, V FROM T";
  const int64_t result_bytes = 4000 * 3 * 8;
  auto baseline = db->Execute(sql);
  ASSERT_TRUE(baseline.ok());
  // Half the result: the shards' own charges trip before the coordinator
  // holds every shard's result, and everything charged is returned.
  auto tight = std::make_shared<QueryContext>();
  tight->SetMemBudget(result_bytes / 2);
  auto r = db->Execute(sql, tight);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("MPP shard result"), std::string::npos)
      << r.status().ToString();
  EXPECT_LE(tight->mem_peak(), result_bytes / 2);
  EXPECT_EQ(tight->mem_used(), 0);
  // Room for the shard results plus one shard's copy in the merged result:
  // each shard batch is freed once appended, so the query fits.
  auto roomy = std::make_shared<QueryContext>();
  roomy->SetMemBudget(result_bytes + result_bytes / 2);
  auto ok = db->Execute(sql, roomy);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(MppKey(*ok), MppKey(*baseline));
  EXPECT_EQ(roomy->mem_used(), 0);
}

TEST_F(GovernorTest, SpeculationActivelyCancelsLosingAttempt) {
  auto db = MakeMppDb();
  const std::string sql = "SELECT COUNT(*), SUM(V), MIN(V), MAX(V) FROM T";
  auto clean = db->Execute(sql);
  ASSERT_TRUE(clean.ok());
  db->failover_policy().straggler_after_seconds = 0.05;
  FaultInjector::Global().Reset(77);
  FaultSpec stall;
  stall.code = StatusCode::kOk;  // stall only
  stall.stall_seconds = 0.4;
  stall.max_fires = 1;
  FaultInjector::Global().Arm("mpp.shard_stall", stall);
  auto r = db->Execute(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(MppKey(*r), MppKey(*clean));
  EXPECT_EQ(r->exec.speculative_launches, 1u);
  EXPECT_EQ(r->exec.speculative_wins, 1u);
  EXPECT_EQ(r->exec.shard_retries, 0u);
  // The losing primary was actively cancelled (and joined), not abandoned.
  EXPECT_GE(CounterValue("exec.cancelled"), 1u);
}

// ---------------------------------------------------------------------------
// Fluid: governed remote scans

TEST_F(GovernorTest, RemoteScanCancelsAndChargesBudget) {
  Engine engine(ParallelConfig());
  auto session = engine.CreateSession();
  TableSchema rschema("PUBLIC", "RWEB",
                      {{"ID", TypeId::kInt64, false, 0, false},
                       {"V", TypeId::kInt64, true, 0, false}});
  auto store = std::make_shared<fluid::SimHadoopStore>(rschema);
  RowBatch rows;
  rows.columns.emplace_back(TypeId::kInt64);
  rows.columns.emplace_back(TypeId::kInt64);
  for (int i = 0; i < 20000; ++i) {
    rows.columns[0].AppendInt(i);
    rows.columns[1].AppendInt(i % 13);
  }
  ASSERT_TRUE(store->Load(rows).ok());
  ASSERT_TRUE(fluid::CreateNickname(&engine, "PUBLIC", "RWEB", store).ok());
  const std::string sql = "SELECT COUNT(*) FROM RWEB";
  auto baseline = Exec(engine, session.get(), sql);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_EQ(baseline->rows.columns[0].GetValue(0).AsInt(), 20000);
  // Cancel before the transfer starts: the retry loop must not run.
  auto qc = std::make_shared<QueryContext>();
  qc->CancelAfterChecks(1);
  session->InjectNextQueryContext(qc);
  auto r = engine.Execute(session.get(), sql);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
  EXPECT_EQ(store->stats().failed_requests, 0u);
  // The materialized transfer charges the query budget.
  ASSERT_TRUE(Exec(engine, session.get(), "SET MEM_BUDGET = 1000").ok());
  auto r2 = engine.Execute(session.get(), sql);
  ASSERT_FALSE(r2.ok());
  EXPECT_TRUE(r2.status().IsResourceExhausted()) << r2.status().ToString();
  ASSERT_TRUE(Exec(engine, session.get(), "SET MEM_BUDGET NONE").ok());
  auto after = Exec(engine, session.get(), sql);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(RowsKey(*after), RowsKey(*baseline));
}

}  // namespace
}  // namespace dashdb
