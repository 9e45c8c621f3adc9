// Shared work under concurrency: 64 wire clients replaying dashboard-style
// traffic — a 90/10 mix of repeated and unique aggregates over one hot
// table — against a single engine, A/B with the result cache off (every
// query recomputes from scratch) and on (SET RESULT_CACHE ON: repeat
// traffic is served from the versioned result cache). Reports QPS, p99
// latency, pages scanned per query (exec.morsels delta), the cache hit
// rate, and a per-client result checksum that must agree across every
// client AND both arms — the cache may never change bytes.
//
// Writes BENCH_shared.json. Exits nonzero unless the ON arm's QPS is
// >= 2x the OFF arm's and every checksum agrees.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/metrics.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/engine.h"

namespace dashdb {
namespace {

constexpr int kClients = 64;
constexpr int64_t kHotRows = 200000;  // ~49 pages/column at 4096 rows/page
constexpr double kRunSeconds = 2.0;

// The 90% repeat traffic: the dashboard panel queries every client re-issues.
const char* kRepeated[] = {
    "SELECT COUNT(*), SUM(V), MIN(V), MAX(V) FROM HOT WHERE V >= 0",
    "SELECT GRP, COUNT(*), SUM(V) FROM HOT GROUP BY GRP ORDER BY GRP",
    "SELECT COUNT(*), MAX(ID) FROM HOT WHERE V > 500",
    "SELECT SUM(ID), COUNT(*) FROM HOT WHERE GRP = 3",
    "SELECT GRP, MIN(V), MAX(V) FROM HOT WHERE GRP < 20 GROUP BY GRP ORDER BY GRP",
    "SELECT COUNT(*), SUM(V) FROM HOT WHERE V % 7 = 0",
    "SELECT GRP, COUNT(*) FROM HOT WHERE V > 250 GROUP BY GRP ORDER BY GRP",
    "SELECT MIN(ID), MAX(ID), SUM(V) FROM HOT WHERE GRP >= 40",
};
constexpr size_t kRepeatedCount = sizeof(kRepeated) / sizeof(kRepeated[0]);

void LoadHot(Engine* engine) {
  TableSchema schema("PUBLIC", "HOT",
                     {{"ID", TypeId::kInt64, false, 0, false},
                      {"GRP", TypeId::kInt64, true, 0, false},
                      {"V", TypeId::kInt64, true, 0, false}});
  auto t = engine->CreateColumnTable(schema);
  if (!t.ok()) {
    std::fprintf(stderr, "load HOT: %s\n", t.status().ToString().c_str());
    std::exit(1);
  }
  RowBatch rows;
  for (int c = 0; c < 3; ++c) rows.columns.emplace_back(TypeId::kInt64);
  for (int64_t i = 0; i < kHotRows; ++i) {
    rows.columns[0].AppendInt(i);
    rows.columns[1].AppendInt(i % 97);
    rows.columns[2].AppendInt(i * 31 % 1009);
  }
  if (!t.value()->Append(rows).ok()) std::exit(1);
}

/// Canonical checksum of one result (column names + every row in order).
size_t ResultChecksum(const QueryResult& r) {
  std::string key;
  for (const auto& c : r.columns) key += c.name + "|";
  key += "\n";
  for (size_t i = 0; i < r.rows.num_rows(); ++i) {
    for (size_t c = 0; c < r.rows.columns.size(); ++c) {
      key += r.rows.columns[c].GetValue(i).ToString() + "|";
    }
    key += "\n";
  }
  return std::hash<std::string>{}(key);
}

struct ModeResult {
  std::string name;
  bool cache_on = false;
  uint64_t completed = 0;
  uint64_t errors = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double qps = 0;
  double pages_per_query = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  double cache_hit_rate = 0;
  /// checksum per repeated query, identical across all clients or 0-filled
  /// on divergence (checked before aggregation).
  std::vector<size_t> checksums;
  bool checksums_agree = true;
};

double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[static_cast<size_t>(p * static_cast<double>(v.size() - 1))];
}

ModeResult RunMode(int port, const std::string& name, bool cache_on) {
  ModeResult out;
  out.name = name;
  out.cache_on = cache_on;

  std::vector<std::unique_ptr<WireClient>> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    auto cl = std::make_unique<WireClient>();
    if (!cl->Connect(port).ok()) {
      std::fprintf(stderr, "client %d connect failed\n", c);
      std::exit(1);
    }
    if (!cl->Query(cache_on ? "SET RESULT_CACHE ON" : "SET RESULT_CACHE OFF")
             .ok()) {
      std::exit(1);
    }
    clients.push_back(std::move(cl));
  }

  MetricDeltaScope metrics;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> done{0}, errors{0};
  std::vector<std::vector<double>> lat_ms(kClients);
  // Per-client checksum of each repeated query's result; every repetition
  // and every client must agree (byte-identity is the contract).
  std::vector<std::vector<size_t>> sums(kClients,
                                        std::vector<size_t>(kRepeatedCount, 0));
  std::vector<bool> self_consistent(kClients, true);
  std::vector<std::thread> threads;
  auto bench_start = std::chrono::steady_clock::now();
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      WireClient& cl = *clients[c];
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        std::string sql;
        size_t rep_idx = kRepeatedCount;
        if (i % 10 == 9) {
          // The 10% unique tail: a literal no other request ever used, so
          // it can never be served from the cache.
          sql = "SELECT COUNT(*), SUM(V) FROM HOT WHERE V > " +
                std::to_string(1000 + (static_cast<uint64_t>(c) << 32 | i) % 500);
          sql += " AND ID >= " + std::to_string(static_cast<uint64_t>(c) * 1000000 + i);
        } else {
          rep_idx = (static_cast<size_t>(c) + i) % kRepeatedCount;
          sql = kRepeated[rep_idx];
        }
        auto t0 = std::chrono::steady_clock::now();
        auto r = cl.Query(sql);
        auto t1 = std::chrono::steady_clock::now();
        if (!r.ok()) {
          errors.fetch_add(1);
          return;
        }
        done.fetch_add(1);
        lat_ms[c].push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        if (rep_idx < kRepeatedCount) {
          const size_t sum = ResultChecksum(*r);
          if (sums[c][rep_idx] == 0) {
            sums[c][rep_idx] = sum;
          } else if (sums[c][rep_idx] != sum) {
            self_consistent[c] = false;  // same text, different bytes
          }
        }
        ++i;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(kRunSeconds));
  stop.store(true);
  for (auto& th : threads) th.join();
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - bench_start)
                             .count();
  for (auto& cl : clients) cl->Close();

  out.completed = done.load();
  out.errors = errors.load();
  std::vector<double> all;
  for (auto& v : lat_ms) all.insert(all.end(), v.begin(), v.end());
  out.p50_ms = Percentile(all, 0.50);
  out.p99_ms = Percentile(all, 0.99);
  out.qps = elapsed > 0 ? static_cast<double>(out.completed) / elapsed : 0;
  out.pages_per_query =
      out.completed
          ? static_cast<double>(metrics.Delta("exec.morsels")) /
                static_cast<double>(out.completed)
          : 0;
  out.cache_hits = metrics.Delta("server.result_cache_hits");
  out.cache_misses = metrics.Delta("server.result_cache_misses");
  out.cache_hit_rate =
      out.cache_hits + out.cache_misses
          ? static_cast<double>(out.cache_hits) /
                static_cast<double>(out.cache_hits + out.cache_misses)
          : 0;

  // Cross-client agreement: every client that saw repeated query q must
  // have the same checksum.
  out.checksums.assign(kRepeatedCount, 0);
  for (size_t q = 0; q < kRepeatedCount; ++q) {
    for (int c = 0; c < kClients; ++c) {
      if (sums[c][q] == 0) continue;  // client never drew this query
      if (out.checksums[q] == 0) {
        out.checksums[q] = sums[c][q];
      } else if (out.checksums[q] != sums[c][q]) {
        out.checksums_agree = false;
      }
    }
  }
  for (int c = 0; c < kClients; ++c) {
    if (!self_consistent[c]) out.checksums_agree = false;
  }
  return out;
}

}  // namespace
}  // namespace dashdb

int main() {
  using namespace dashdb;
  EngineConfig cfg = bench::DashDbConfig();
  cfg.query_parallelism = 2;
  cfg.admission.cheap_slots = 64;
  cfg.admission.expensive_slots = 8;
  cfg.admission.max_queued = 256;
  Engine engine(cfg);
  LoadHot(&engine);

  EngineBackend backend(&engine);
  ServerConfig scfg;
  scfg.worker_threads = 16;
  Server server(&backend, scfg);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    return 1;
  }

  bench::PrintHeader("Shared work: " + std::to_string(kClients) +
                     " wire clients, result cache A/B");
  bench::PrintNote("90% repeated / 10% unique aggregates over " +
                   std::to_string(kHotRows) + " rows, " +
                   std::to_string(kRunSeconds) + "s per mode");
  const unsigned host_cores = std::max(1u, std::thread::hardware_concurrency());
  std::printf("  host cores: %u\n", host_cores);

  // Warm every repeated shape once so neither arm pays first-touch costs
  // (and the OFF arm is not penalized for cold plan-cache misses).
  {
    WireClient warm;
    if (!warm.Connect(server.port()).ok()) return 1;
    for (const char* q : kRepeated) warm.Query(q);
    warm.Close();
  }

  ModeResult off = RunMode(server.port(), "cache_off", false);
  engine.result_cache().Clear();  // arms start equal
  ModeResult on = RunMode(server.port(), "cache_on", true);

  for (const ModeResult* m : {&off, &on}) {
    bench::PrintHeader(m->name);
    bench::PrintRow("completed", static_cast<double>(m->completed), "");
    bench::PrintRow("errors", static_cast<double>(m->errors), "");
    bench::PrintRow("QPS", m->qps, "q/s");
    bench::PrintRow("p50", m->p50_ms, "ms");
    bench::PrintRow("p99", m->p99_ms, "ms");
    bench::PrintRow("pages scanned / query", m->pages_per_query, "");
    bench::PrintRow("result cache hit rate", m->cache_hit_rate * 100.0, "%");
    bench::PrintRow("checksums agree", m->checksums_agree ? 1 : 0, "");
  }

  const double speedup = off.qps > 0 ? on.qps / off.qps : 0;
  bool identical_across_arms = off.checksums_agree && on.checksums_agree;
  for (size_t q = 0; q < kRepeatedCount; ++q) {
    if (off.checksums[q] != 0 && on.checksums[q] != 0 &&
        off.checksums[q] != on.checksums[q]) {
      identical_across_arms = false;
    }
  }
  bench::PrintHeader("summary");
  bench::PrintRow("QPS speedup (on/off)", speedup, "x");
  bench::PrintRow("byte-identical across arms", identical_across_arms ? 1 : 0,
                  "");

  FILE* json = std::fopen("BENCH_shared.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot write BENCH_shared.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"host_cores\": %u,\n  \"clients\": %d,\n"
               "  \"hot_rows\": %lld,\n  \"run_seconds\": %.2f,\n"
               "  \"repeated_fraction\": 0.9,\n  \"modes\": [\n",
               host_cores, kClients, static_cast<long long>(kHotRows),
               kRunSeconds);
  bool first = true;
  for (const ModeResult* m : {&off, &on}) {
    std::fprintf(
        json,
        "%s    {\"name\": \"%s\", \"result_cache_on\": %s,\n"
        "     \"completed\": %llu, \"errors\": %llu, \"qps\": %.1f,\n"
        "     \"p50_ms\": %.3f, \"p99_ms\": %.3f,\n"
        "     \"pages_per_query\": %.2f,\n"
        "     \"result_cache\": {\"hits\": %lld, \"misses\": %lld, "
        "\"hit_rate\": %.4f},\n"
        "     \"checksums_agree\": %s}",
        first ? "" : ",\n", m->name.c_str(), m->cache_on ? "true" : "false",
        static_cast<unsigned long long>(m->completed),
        static_cast<unsigned long long>(m->errors), m->qps, m->p50_ms,
        m->p99_ms, m->pages_per_query, static_cast<long long>(m->cache_hits),
        static_cast<long long>(m->cache_misses), m->cache_hit_rate,
        m->checksums_agree ? "true" : "false");
    first = false;
  }
  std::fprintf(json,
               "\n  ],\n  \"qps_speedup\": %.2f,\n"
               "  \"byte_identical_across_arms\": %s\n}\n",
               speedup, identical_across_arms ? "true" : "false");
  std::fclose(json);
  server.Stop();
  std::printf("\nwrote BENCH_shared.json\n");
  if (!identical_across_arms) {
    std::fprintf(stderr, "FAIL: results diverged between clients or arms\n");
    return 1;
  }
  if (speedup < 2.0) {
    std::fprintf(stderr, "FAIL: cache-on QPS is %.2fx cache-off, below 2x\n",
                 speedup);
    return 1;
  }
  return 0;
}
