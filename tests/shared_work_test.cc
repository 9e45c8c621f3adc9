// Shared-work-under-concurrency battery (DESIGN.md "Shared work under
// concurrency"): concurrent scans of one table, the versioned result cache,
// the flow-controlled MPP exchange, and the LRU scan-resistance fix must all
// be invisible to results — byte-identical to solo/serial runs — while the
// cache and the exchange actually share the work. Labeled `share` and swept
// under ASan and TSan by scripts/check.sh (concurrent scans and cache
// invalidation races are exactly the shapes TSan exists for).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bufferpool/bufferpool.h"
#include "common/metrics.h"
#include "corpus_util.h"
#include "mpp/mpp.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/engine.h"
#include "sql/result_cache.h"

namespace dashdb {
namespace {

using corpus::kCorpus;
using corpus::kCorpusSize;
using corpus::MakeLoadedDb;
using corpus::ResultKey;

// ---------------------------------------------------------------------------
// Concurrent scans through the engine: many sessions scanning one table at
// once must stay byte-identical to a serial baseline at DOP 1 and DOP 4.
// ---------------------------------------------------------------------------

/// Multi-page table (kPageRows = 4096; 40k rows = 10 pages per column) with
/// a row-order-sensitive ID column, so any emission out of page order fails
/// the differential check.
std::unique_ptr<Engine> MakeScanEngine(int dop) {
  EngineConfig cfg;
  cfg.query_parallelism = dop;
  auto engine = std::make_unique<Engine>(cfg);
  TableSchema schema("PUBLIC", "SCANT",
                     {{"ID", TypeId::kInt64, false, 0, false},
                      {"GRP", TypeId::kInt64, true, 0, false},
                      {"V", TypeId::kInt64, true, 0, false}});
  auto t = engine->CreateColumnTable(schema);
  EXPECT_TRUE(t.ok());
  RowBatch rows;
  for (int i = 0; i < 3; ++i) rows.columns.emplace_back(TypeId::kInt64);
  for (int64_t i = 0; i < 40000; ++i) {
    rows.columns[0].AppendInt(i);
    rows.columns[1].AppendInt(i % 7);
    rows.columns[2].AppendInt(i * 31 % 1001);
  }
  EXPECT_TRUE((*t)->Append(rows).ok());
  return engine;
}

const char* kScanQueries[] = {
    "SELECT COUNT(*), SUM(V), MIN(V), MAX(V) FROM SCANT WHERE V >= 0",
    "SELECT GRP, COUNT(*), SUM(V) FROM SCANT GROUP BY GRP ORDER BY GRP",
    // COUNT with a second aggregate, so the scan operator runs rather than
    // the CountStarScan fast path.
    "SELECT COUNT(*), MIN(ID) FROM SCANT WHERE V > 500",
    "SELECT SUM(ID) FROM SCANT WHERE GRP = 3",
    // No ORDER BY: emission order itself is under test (page-order slots).
    "SELECT ID FROM SCANT WHERE ID % 4096 = 17",
};
constexpr size_t kScanQueryCount = sizeof(kScanQueries) / sizeof(kScanQueries[0]);

std::string ExecKey(Engine* engine, Session* sess, const std::string& sql) {
  auto r = engine->Execute(sess, sql);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  return r.ok() ? ResultKey(*r) : "<error>";
}

void RunConcurrentScans(int dop) {
  auto engine = MakeScanEngine(dop);

  // Serial baseline.
  std::vector<std::string> base;
  {
    auto sess = engine->CreateSession();
    for (const char* q : kScanQueries) base.push_back(ExecKey(engine.get(), sess.get(), q));
  }

  constexpr int kThreads = 8;
  constexpr int kIters = 6;
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  for (int c = 0; c < kThreads; ++c) {
    threads.emplace_back([&, c] {
      auto sess = engine->CreateSession();
      for (int it = 0; it < kIters; ++it) {
        // Stagger so different threads contend on different queries.
        const size_t qi = (static_cast<size_t>(it) + static_cast<size_t>(c)) %
                          kScanQueryCount;
        auto r = engine->Execute(sess.get(), kScanQueries[qi]);
        if (!r.ok()) {
          errors[c] = std::string(kScanQueries[qi]) + ": " + r.status().ToString();
          return;
        }
        if (ResultKey(*r) != base[qi]) {
          errors[c] = std::string("diverged on ") + kScanQueries[qi];
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < kThreads; ++c) {
    EXPECT_TRUE(errors[c].empty()) << "thread " << c << ": " << errors[c];
  }
}

TEST(ConcurrentScanTest, ByteIdenticalAtDop1) { RunConcurrentScans(1); }
TEST(ConcurrentScanTest, ByteIdenticalAtDop4) { RunConcurrentScans(4); }

// ---------------------------------------------------------------------------
// Buffer pool scan resistance (LRU cold-end admission for tagged scans)
// ---------------------------------------------------------------------------

TEST(BufferPoolScanResistanceTest, TaggedScanDoesNotEvictHotSetUnderLru) {
  constexpr size_t kPage = 1024;
  // Hot working set of 50 pages in a 100-page pool, then a 500-page
  // one-pass scan. Tagged: the scan victimizes its own probationary pages
  // and the hot set survives. Untagged (classic LRU): the scan flushes it.
  auto run = [&](bool tagged) {
    BufferPool pool(100 * kPage, ReplacementPolicy::kLru);
    for (uint32_t p = 0; p < 50; ++p) pool.Access({1, 0, p}, kPage);
    for (uint32_t p = 0; p < 500; ++p) pool.Access({2, 0, p}, kPage, tagged);
    uint64_t hot_hits = 0;
    for (uint32_t p = 0; p < 50; ++p) {
      if (pool.Access({1, 0, p}, kPage)) ++hot_hits;
    }
    return hot_hits;
  };
  EXPECT_EQ(run(/*tagged=*/true), 50u);
  EXPECT_EQ(run(/*tagged=*/false), 0u);
}

TEST(BufferPoolScanResistanceTest, RepeatedScanEarnsResidency) {
  constexpr size_t kPage = 1024;
  BufferPool pool(100 * kPage, ReplacementPolicy::kLru);
  // A 20-page table scanned twice with the scan tag: the first pass admits
  // probationally, the second pass hits and PROMOTES — the small table has
  // earned residency and survives a later big scan.
  for (uint32_t p = 0; p < 20; ++p) pool.Access({1, 0, p}, kPage, true);
  uint64_t second_pass_hits = 0;
  for (uint32_t p = 0; p < 20; ++p) {
    if (pool.Access({1, 0, p}, kPage, true)) ++second_pass_hits;
  }
  EXPECT_EQ(second_pass_hits, 20u);
  for (uint32_t p = 0; p < 500; ++p) pool.Access({2, 0, p}, kPage, true);
  uint64_t after_big_scan = 0;
  for (uint32_t p = 0; p < 20; ++p) {
    if (pool.Access({1, 0, p}, kPage, true)) ++after_big_scan;
  }
  EXPECT_EQ(after_big_scan, 20u);
}

// ---------------------------------------------------------------------------
// Flow-controlled exchange: channel semantics and wire format
// ---------------------------------------------------------------------------

TEST(ExchangeChannelTest, DeliversInOrderAndCountsBackpressureStalls) {
  ExchangeChannel ch(/*window=*/2);
  constexpr int kChunks = 8;
  std::thread producer([&] {
    for (int i = 0; i < kChunks; ++i) {
      ExchangeChunk c;
      c.payload = std::string(1, static_cast<char>('a' + i));
      c.rows = static_cast<size_t>(i);
      ch.Push(std::move(c));
    }
    ch.Close(Status::OK());
  });
  std::string order;
  ExchangeChunk c;
  Status st;
  while (ch.Pop(&c, &st)) {
    order += c.payload;
    // Slow consumer: the producer must hit the credit window and stall.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  producer.join();
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(order, "abcdefgh");
  EXPECT_GT(ch.stalls(), 0u);
  EXPECT_LE(ch.high_water(), 2u);
}

TEST(ExchangeChannelTest, CloseWithErrorDrainsThenReports) {
  ExchangeChannel ch(4);
  ExchangeChunk c;
  c.payload = "x";
  ch.Push(std::move(c));
  ch.Close(Status::Internal("shard lost"));
  ExchangeChunk got;
  Status st;
  ASSERT_TRUE(ch.Pop(&got, &st));  // buffered chunk still delivered
  EXPECT_EQ(got.payload, "x");
  ASSERT_FALSE(ch.Pop(&got, &st));
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST(ExchangeChannelTest, CancelConsumerUnblocksStalledProducer) {
  ExchangeChannel ch(/*window=*/1);
  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (int i = 0; i < 16; ++i) {
      ExchangeChunk c;
      c.payload = "p";
      ch.Push(std::move(c));  // blocks on the window until cancelled
    }
    ch.Close(Status::OK());
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ch.CancelConsumer();
  producer.join();
  EXPECT_TRUE(done.load());
}

TEST(ExchangeWireTest, RoundTripIntsDoublesStringsAndNulls) {
  RowBatch batch;
  batch.columns.emplace_back(TypeId::kInt64);
  batch.columns.emplace_back(TypeId::kDouble);
  batch.columns.emplace_back(TypeId::kVarchar);
  for (int i = 0; i < 100; ++i) {
    if (i % 9 == 0) batch.columns[0].AppendNull();
    else batch.columns[0].AppendInt(i * 1000003 - 50);
    if (i % 7 == 0) batch.columns[1].AppendNull();
    else batch.columns[1].AppendDouble(i * 0.25 - 3.5);
    if (i % 11 == 0) batch.columns[2].AppendNull();
    else batch.columns[2].AppendString("s" + std::to_string(i % 5));
  }
  const std::string payload = EncodeExchangeBatch(batch, 0, batch.num_rows());

  RowBatch out;
  out.columns.emplace_back(TypeId::kInt64);
  out.columns.emplace_back(TypeId::kDouble);
  out.columns.emplace_back(TypeId::kVarchar);
  ASSERT_TRUE(DecodeExchangeBatch(payload, &out).ok());
  ASSERT_EQ(out.num_rows(), batch.num_rows());
  for (size_t i = 0; i < batch.num_rows(); ++i) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(out.columns[c].IsNull(i), batch.columns[c].IsNull(i))
          << "row " << i << " col " << c;
      EXPECT_EQ(out.columns[c].GetValue(i).ToString(),
                batch.columns[c].GetValue(i).ToString())
          << "row " << i << " col " << c;
    }
  }
}

TEST(ExchangeWireTest, DictionaryCodesCompressRepetitiveStrings) {
  RowBatch batch;
  batch.columns.emplace_back(TypeId::kVarchar);
  const std::string values[] = {"warehouse-east", "warehouse-west", "depot"};
  size_t raw = 0;
  for (int i = 0; i < 4096; ++i) {
    batch.columns[0].AppendString(values[i % 3]);
    raw += values[i % 3].size();
  }
  const std::string payload = EncodeExchangeBatch(batch, 0, batch.num_rows());
  // 3 dictionary entries + 1-byte codes: far below the raw string bytes.
  EXPECT_LT(payload.size(), raw / 4);

  RowBatch out;
  out.columns.emplace_back(TypeId::kVarchar);
  ASSERT_TRUE(DecodeExchangeBatch(payload, &out).ok());
  ASSERT_EQ(out.num_rows(), batch.num_rows());
  for (size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(out.columns[0].GetValue(i).ToString(), values[i % 3]);
  }
}

TEST(ExchangeWireTest, DecodeRejectsCorruptPayloads) {
  RowBatch batch;
  batch.columns.emplace_back(TypeId::kInt64);
  batch.columns[0].AppendInt(42);
  std::string payload = EncodeExchangeBatch(batch, 0, 1);

  RowBatch out;
  out.columns.emplace_back(TypeId::kInt64);
  EXPECT_FALSE(DecodeExchangeBatch(payload.substr(0, payload.size() - 3), &out).ok());
  RowBatch wrong;
  wrong.columns.emplace_back(TypeId::kVarchar);
  EXPECT_FALSE(DecodeExchangeBatch(payload, &wrong).ok());
}

// ---------------------------------------------------------------------------
// ResultCache unit tests
// ---------------------------------------------------------------------------

std::shared_ptr<const QueryResult> MakeResult(int64_t v) {
  auto r = std::make_shared<QueryResult>();
  r->columns.push_back({"X", TypeId::kInt64});
  r->rows.columns.emplace_back(TypeId::kInt64);
  r->rows.columns[0].AppendInt(v);
  return r;
}

TEST(ResultCacheTest, VersionMismatchEvictsOnSight) {
  ResultCache cache(1 << 20);
  const ResultCache::Versions v1{1, 1, 1};
  cache.Insert("SELECT 1", Dialect::kAnsi, "PUBLIC", v1, MakeResult(10), 100);
  EXPECT_NE(cache.Lookup("SELECT 1", Dialect::kAnsi, "PUBLIC", v1), nullptr);
  // Any stamp moved (here: data version) -> stale, evicted on sight.
  const ResultCache::Versions v2{1, 1, 2};
  EXPECT_EQ(cache.Lookup("SELECT 1", Dialect::kAnsi, "PUBLIC", v2), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  // Gone for the old stamps too: the stale entry was dropped, not skipped.
  EXPECT_EQ(cache.Lookup("SELECT 1", Dialect::kAnsi, "PUBLIC", v1), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(ResultCacheTest, KeysSeparateDialectAndSchema) {
  ResultCache cache(1 << 20);
  const ResultCache::Versions v{1, 1, 1};
  cache.Insert("SELECT * FROM T", Dialect::kAnsi, "PUBLIC", v, MakeResult(1), 50);
  EXPECT_EQ(cache.Lookup("SELECT * FROM T", Dialect::kAnsi, "S2", v), nullptr);
  EXPECT_EQ(cache.Lookup("SELECT * FROM T", Dialect::kOracle, "PUBLIC", v), nullptr);
  EXPECT_NE(cache.Lookup("SELECT * FROM T", Dialect::kAnsi, "PUBLIC", v), nullptr);
}

TEST(ResultCacheTest, ByteBoundedLruEvictionAndOversizedReject) {
  ResultCache cache(/*capacity_bytes=*/250);
  const ResultCache::Versions v{1, 1, 1};
  cache.Insert("Q1", Dialect::kAnsi, "P", v, MakeResult(1), 100);
  cache.Insert("Q2", Dialect::kAnsi, "P", v, MakeResult(2), 100);
  // Touch Q1 so Q2 is the LRU victim when Q3 needs room.
  EXPECT_NE(cache.Lookup("Q1", Dialect::kAnsi, "P", v), nullptr);
  cache.Insert("Q3", Dialect::kAnsi, "P", v, MakeResult(3), 100);
  EXPECT_NE(cache.Lookup("Q1", Dialect::kAnsi, "P", v), nullptr);
  EXPECT_EQ(cache.Lookup("Q2", Dialect::kAnsi, "P", v), nullptr);
  EXPECT_NE(cache.Lookup("Q3", Dialect::kAnsi, "P", v), nullptr);
  EXPECT_GE(cache.evictions(), 1u);
  EXPECT_LE(cache.bytes(), 250u);

  // A result bigger than the whole cache never evicts the world.
  cache.Insert("BIG", Dialect::kAnsi, "P", v, MakeResult(4), 1000);
  EXPECT_EQ(cache.Lookup("BIG", Dialect::kAnsi, "P", v), nullptr);
  EXPECT_NE(cache.Lookup("Q1", Dialect::kAnsi, "P", v), nullptr);
}

// ---------------------------------------------------------------------------
// Result cache through the engine
// ---------------------------------------------------------------------------

class ResultCacheEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<Engine>();
    sess_ = engine_->CreateSession();
    Exec("CREATE TABLE ITEMS (ID BIGINT NOT NULL, GRP BIGINT, V BIGINT)");
    for (int i = 0; i < 64; ++i) {
      Exec("INSERT INTO ITEMS VALUES (" + std::to_string(i) + ", " +
           std::to_string(i % 5) + ", " + std::to_string(i * 13 % 97) + ")");
    }
    Exec("SET RESULT_CACHE ON");
  }

  QueryResult Exec(const std::string& sql) {
    auto r = engine_->Execute(sess_.get(), sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? *r : QueryResult{};
  }

  std::unique_ptr<Engine> engine_;
  std::shared_ptr<Session> sess_;
};

TEST_F(ResultCacheEngineTest, HitServesByteIdenticalResult) {
  MetricDeltaScope metrics;
  const std::string q = "SELECT GRP, COUNT(*), SUM(V) FROM ITEMS GROUP BY GRP ORDER BY GRP";
  const std::string first = ResultKey(Exec(q));
  const std::string second = ResultKey(Exec(q));
  EXPECT_EQ(first, second);
  EXPECT_EQ(metrics.Delta("server.result_cache_hits"), 1);
  EXPECT_EQ(metrics.Delta("server.result_cache_misses"), 1);
  EXPECT_EQ(engine_->result_cache().size(), 1u);
  // Literal-differing text is a different entry, not a wrong hit.
  Exec("SELECT COUNT(*) FROM ITEMS WHERE V > 10");
  Exec("SELECT COUNT(*) FROM ITEMS WHERE V > 11");
  EXPECT_EQ(metrics.Delta("server.result_cache_hits"), 1);
}

TEST_F(ResultCacheEngineTest, EveryWriteClassInvalidates) {
  const std::string q = "SELECT COUNT(*), SUM(V) FROM ITEMS";
  struct Case {
    const char* write;
    bool row_change;
  };
  const Case cases[] = {
      {"INSERT INTO ITEMS VALUES (1000, 1, 40)", true},
      {"UPDATE ITEMS SET V = V + 1 WHERE ID = 3", true},
      {"DELETE FROM ITEMS WHERE ID = 1000", true},
      {"CREATE TABLE SIDE_DDL (A BIGINT)", false},
      {"CALL RUNSTATS()", false},
  };
  for (const Case& c : cases) {
    const std::string before = ResultKey(Exec(q));
    EXPECT_EQ(ResultKey(Exec(q)), before);  // warm the entry
    const uint64_t hits_before = engine_->result_cache().hits();
    Exec(c.write);
    const std::string after = ResultKey(Exec(q));
    // The post-write read recomputed (no new hit) and reflects the write.
    EXPECT_EQ(engine_->result_cache().hits(), hits_before) << c.write;
    if (c.row_change) {
      EXPECT_NE(after, before) << c.write;
    } else {
      EXPECT_EQ(after, before) << c.write;
    }
  }
  // TRUNCATE invalidates too.
  const std::string before = ResultKey(Exec(q));
  Exec("TRUNCATE TABLE ITEMS");
  EXPECT_NE(ResultKey(Exec(q)), before);
}

TEST_F(ResultCacheEngineTest, ClockReadingQueriesNeverCache) {
  MetricDeltaScope metrics;
  Exec("SELECT COUNT(*) FROM ITEMS WHERE CURRENT_DATE > DATE '1970-01-01'");
  Exec("SELECT COUNT(*) FROM ITEMS WHERE CURRENT_DATE > DATE '1970-01-01'");
  EXPECT_EQ(metrics.Delta("server.result_cache_hits"), 0);
  EXPECT_EQ(metrics.Delta("server.result_cache_misses"), 0);
  EXPECT_EQ(engine_->result_cache().size(), 0u);
}

TEST_F(ResultCacheEngineTest, DefaultSchemaKeysTheResult) {
  Exec("CREATE SCHEMA APP");
  Exec("CREATE TABLE APP.ITEMS (ID BIGINT, GRP BIGINT, V BIGINT)");
  Exec("INSERT INTO APP.ITEMS VALUES (1, 1, 1)");

  const std::string q = "SELECT COUNT(*) FROM ITEMS";
  const std::string pub = ResultKey(Exec(q));
  auto app_sess = engine_->CreateSession();
  app_sess->set_default_schema("APP");
  auto on = engine_->Execute(app_sess.get(), "SET RESULT_CACHE ON");
  ASSERT_TRUE(on.ok());
  auto r = engine_->Execute(app_sess.get(), q);
  ASSERT_TRUE(r.ok());
  // Same text, different default schema: different table, different entry.
  EXPECT_NE(ResultKey(*r), pub);
  auto r2 = engine_->Execute(app_sess.get(), q);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(ResultKey(*r2), ResultKey(*r));
}

TEST_F(ResultCacheEngineTest, SessionsWithCacheOffBypass) {
  const std::string q = "SELECT SUM(V) FROM ITEMS";
  Exec(q);
  Exec(q);  // warm: entry exists and serves this session
  const uint64_t hits = engine_->result_cache().hits();
  auto off_sess = engine_->CreateSession();
  auto r = engine_->Execute(off_sess.get(), q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(engine_->result_cache().hits(), hits);  // bypassed, no lookup
}

// Invalidation races: readers over a data-constant table must see the same
// bytes on every read while writers churn OTHER tables, RUNSTATS bumps the
// stats epoch, and DDL bumps the catalog version. Run under TSan by the
// `share` sweep in scripts/check.sh.
TEST(ResultCacheConcurrencyTest, ReadersByteIdenticalUnderDdlAndRunstatsChurn) {
  Engine engine;
  auto setup = engine.CreateSession();
  auto exec = [&](Session* s, const std::string& sql) {
    auto r = engine.Execute(s, sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  };
  exec(setup.get(), "CREATE TABLE STABLE_T (ID BIGINT, V BIGINT)");
  exec(setup.get(), "CREATE TABLE CHURN_T (ID BIGINT, V BIGINT)");
  for (int i = 0; i < 32; ++i) {
    exec(setup.get(), "INSERT INTO STABLE_T VALUES (" + std::to_string(i) +
                          ", " + std::to_string(i * 7) + ")");
  }
  std::string base;
  {
    auto r = engine.Execute(setup.get(), "SELECT COUNT(*), SUM(V) FROM STABLE_T");
    ASSERT_TRUE(r.ok());
    base = ResultKey(*r);
  }

  constexpr int kReaders = 4;
  constexpr int kIters = 25;
  std::vector<std::string> errors(kReaders + 2);
  std::vector<std::thread> threads;
  for (int c = 0; c < kReaders; ++c) {
    threads.emplace_back([&, c] {
      auto sess = engine.CreateSession();
      auto on = engine.Execute(sess.get(), "SET RESULT_CACHE ON");
      if (!on.ok()) { errors[c] = on.status().ToString(); return; }
      for (int i = 0; i < kIters; ++i) {
        auto r = engine.Execute(sess.get(), "SELECT COUNT(*), SUM(V) FROM STABLE_T");
        if (!r.ok()) { errors[c] = r.status().ToString(); return; }
        if (ResultKey(*r) != base) { errors[c] = "stale or torn read"; return; }
      }
    });
  }
  // Writer: DML on the churn table (bumps the shared data version).
  threads.emplace_back([&] {
    auto sess = engine.CreateSession();
    for (int i = 0; i < kIters; ++i) {
      auto r = engine.Execute(sess.get(), "INSERT INTO CHURN_T VALUES (" +
                                              std::to_string(i) + ", 1)");
      if (!r.ok()) { errors[kReaders] = r.status().ToString(); return; }
    }
  });
  // Writer: RUNSTATS + DDL churn (stats epoch + catalog version).
  threads.emplace_back([&] {
    auto sess = engine.CreateSession();
    for (int i = 0; i < kIters; ++i) {
      auto r1 = engine.Execute(sess.get(), "CALL RUNSTATS()");
      if (!r1.ok()) { errors[kReaders + 1] = r1.status().ToString(); return; }
      auto r2 = engine.Execute(sess.get(), "CREATE TABLE DDL_CHURN_" +
                                               std::to_string(i) + " (A BIGINT)");
      if (!r2.ok()) { errors[kReaders + 1] = r2.status().ToString(); return; }
    }
  });
  for (auto& t : threads) t.join();
  for (size_t c = 0; c < errors.size(); ++c) {
    EXPECT_TRUE(errors[c].empty()) << "thread " << c << ": " << errors[c];
  }
}

// ---------------------------------------------------------------------------
// MPP coordinator result cache + differential corpus with everything on
// ---------------------------------------------------------------------------

TEST(MppSharedWorkTest, CoordinatorCacheHitsAndInvalidatesOnInsert) {
  auto db = MakeLoadedDb(1);
  ASSERT_TRUE(db->Execute("SET RESULT_CACHE ON").ok());
  MetricDeltaScope metrics;
  const char* q = kCorpus[1];  // GRP rollup over T
  auto r1 = db->Execute(q);
  ASSERT_TRUE(r1.ok());
  auto r2 = db->Execute(q);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(ResultKey(r1->result), ResultKey(r2->result));
  EXPECT_EQ(metrics.Delta("server.result_cache_hits"), 1);

  // A routed INSERT must invalidate; the re-read matches a cache-less db
  // that took the same write.
  ASSERT_TRUE(db->Execute("INSERT INTO T VALUES (9001, 1, 1, 5, 's1')").ok());
  auto r3 = db->Execute(q);
  ASSERT_TRUE(r3.ok());
  EXPECT_NE(ResultKey(r3->result), ResultKey(r1->result));

  auto fresh = MakeLoadedDb(1);
  ASSERT_TRUE(fresh->Execute("INSERT INTO T VALUES (9001, 1, 1, 5, 's1')").ok());
  auto want = fresh->Execute(q);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(ResultKey(r3->result), ResultKey(want->result));
}

/// Serial in-process ground truth at DOP 1, no sharing features.
std::vector<std::string> SerialBaseline() {
  auto db = MakeLoadedDb(1);
  std::vector<std::string> keys;
  for (const char* q : kCorpus) {
    auto r = db->Execute(q);
    EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    keys.push_back(r.ok() ? ResultKey(r->result) : "<error>");
  }
  return keys;
}

TEST(MppSharedWorkTest, WireCorpusByteIdenticalWithResultCacheOn) {
  std::vector<std::string> base = SerialBaseline();

  auto db = MakeLoadedDb(4);
  MppBackend backend(db.get());
  ServerConfig cfg;
  cfg.worker_threads = 8;
  Server server(&backend, cfg);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 8;
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      WireClient client;
      Status st = client.Connect(server.port());
      if (!st.ok()) { errors[c] = "connect: " + st.ToString(); return; }
      auto on = client.Query("SET RESULT_CACHE ON");
      if (!on.ok()) { errors[c] = "SET RESULT_CACHE ON: " + on.status().ToString(); return; }
      // Two staggered passes: the second pass is the repeat traffic the
      // result cache exists for, and must still match the cold baseline.
      for (int pass = 0; pass < 2; ++pass) {
        for (size_t i = 0; i < kCorpusSize; ++i) {
          const size_t qi = (i + static_cast<size_t>(c) * 3) % kCorpusSize;
          auto r = client.Query(kCorpus[qi]);
          if (!r.ok()) {
            errors[c] = std::string(kCorpus[qi]) + ": " + r.status().ToString();
            return;
          }
          if (ResultKey(*r) != base[qi]) {
            errors[c] = "pass " + std::to_string(pass) + " diverged on corpus query " +
                        std::to_string(qi) + ": " + kCorpus[qi];
            return;
          }
        }
      }
      client.Close();
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(errors[c].empty()) << "client " << c << ": " << errors[c];
  }
  server.Stop();
}

}  // namespace
}  // namespace dashdb
