// dashbench: drives the deployed system the way its users do and reports
// what they would see.
//
//   dashbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale <f>] [--spans <file>]
//
// One process runs one workload: it generates the inputs and the expected
// results on a staging instance of its own (untimed, freed first), deploys
// the system five times (the median is setup_s), warms up, then measures.
// Untraced (--trace 0), closed-loop wire clients run for --seconds and the
// end-to-end metrics are reported. Traced (--trace 1), half the window runs
// over the wire and half through the in-process traced pipeline, followed
// by a solo pass that compares the traced layers with the plain call and
// the wire round trip; the per-layer metrics are reported. The last stdout
// line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A failed statement or a result that differs from its oracle makes
// "correct" false and the exit code 1; a setup failure exits 2 without a
// result.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/metrics.h"
#include "server/client.h"

namespace dashbench {
namespace {

using dashdb::MetricRegistry;
using dashdb::MetricSnapshot;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      o->workload = v;
      continue;
    } else if (k == "--spans") {
      o->spans_path = v;
      continue;
    } else if (k == "--seed") {
      o->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      o->seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      o->trace = std::strtol(v.c_str(), &end, 10) != 0;
    } else if (k == "--scale") {
      o->scale = std::strtod(v.c_str(), &end);
    } else {
      return false;
    }
    if (end == nullptr || *end != '\0') return false;
  }
  return (argc % 2) == 1 && !o->workload.empty() && o->seconds > 0 &&
         o->scale > 0;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadOptions& opts) {
  if (name == "star_analytics") return MakeStarAnalytics(opts);
  if (name == "dashboard_concurrent") return MakeDashboardConcurrent(opts);
  if (name == "etl_mixed") return MakeEtlMixed(opts);
  if (name == "mpp_rollup") return MakeMppRollup(opts);
  return nullptr;
}

// --- running the clients ----------------------------------------------------

enum class Mode { kWire, kTraced };

struct Client {
  int id = 0;
  const Script* script = nullptr;
  size_t cursor = 0;
  dashdb::WireClient wire;
  SpanLog log;
};

/// What one phase of the run observed, over all clients.
struct Phase {
  double elapsed = 0;
  uint64_t attempted = 0, completed = 0, failed = 0, mismatched = 0;
  std::vector<double> lat_ms, read_ms, write_ms;
  double cpu_s = 0;
  MetricSnapshot delta;
  /// Robust throughput: completions are cut into consecutive rounds of one
  /// script round per client, and the rate is a round's statements over the
  /// median round duration. A burst of host noise then costs a round or
  /// two, not the whole window.
  double round_qps = 0;

  double qps() const { return elapsed > 0 ? completed / elapsed : 0; }
  int64_t Delta(const std::string& name) const {
    auto it = delta.find(name);
    return it == delta.end() ? 0 : it->second;
  }
};

/// Statements per client in a throughput round: the whole script when it
/// is a short cycle (so every round runs the same mix), else 64.
size_t RoundLength(const Script& s) {
  return s.seq.size() <= 64 ? s.seq.size() : 64;
}

std::mutex g_report_mu;
int g_reports = 0;

/// Prints the first few failures; the counts tell the rest.
void Report(const std::string& what, const Stmt& st) {
  std::lock_guard<std::mutex> lk(g_report_mu);
  if (++g_reports > 8) return;
  std::fprintf(stderr, "dashbench: %s\n  in: %s\n", what.c_str(),
               st.sql.c_str());
}

/// Runs every client in its own thread, closed loop: each sends its next
/// statement when the previous reply arrived. With `seconds` > 0 the
/// clients cycle through their scripts until the window closes; otherwise
/// each runs its next counts[c] statements once.
Phase RunPhase(Target* target, std::vector<Client>* clients, Mode mode,
               double seconds, const std::vector<size_t>& counts = {}) {
  struct Acc {
    Phase p;
    Clock::time_point last;
    std::vector<double> done_s;  ///< completion times of completed statements
  };
  std::vector<Acc> acc(clients->size());
  std::atomic<bool> stop{false};
  const MetricSnapshot before = MetricRegistry::Global().Snapshot();
  const ProcessUsage u0 = ReadProcessUsage();
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients->size(); ++c) {
    threads.emplace_back([&, c] {
      Client& cl = (*clients)[c];
      Acc& a = acc[c];
      a.last = t0;
      const auto& seq = cl.script->seq;
      for (size_t k = 0; seconds > 0 ? !stop.load(std::memory_order_relaxed)
                                     : k < counts[c];
           ++k) {
        const Stmt& st = *seq[cl.cursor++ % seq.size()];
        const auto s = Clock::now();
        Result<QueryResult> r = mode == Mode::kWire
                                    ? cl.wire.Query(st.sql)
                                    : target->ExecuteTraced(cl.id, st, &cl.log);
        const auto e = Clock::now();
        ++a.p.attempted;
        if (!r.ok()) {
          ++a.p.failed;  // shed statements (kResourceExhausted) included
          Report(r.status().ToString(), st);
          continue;
        }
        const std::string why = Verify(st, *r);
        if (!why.empty()) {
          ++a.p.mismatched;
          Report(why, st);
        }
        ++a.p.completed;
        a.done_s.push_back(SecondsBetween(t0, e));
        const double ms = SecondsBetween(s, e) * 1e3;        a.p.lat_ms.push_back(ms);
        (IsWrite(st.cls) ? a.p.write_ms : a.p.read_ms).push_back(ms);
        a.last = e;
      }
    });
  }
  if (seconds > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
  }
  for (auto& t : threads) t.join();
  Phase out;
  auto last = t0;
  for (Acc& a : acc) {
    out.attempted += a.p.attempted;
    out.completed += a.p.completed;
    out.failed += a.p.failed;
    out.mismatched += a.p.mismatched;
    out.lat_ms.insert(out.lat_ms.end(), a.p.lat_ms.begin(), a.p.lat_ms.end());
    out.read_ms.insert(out.read_ms.end(), a.p.read_ms.begin(), a.p.read_ms.end());
    out.write_ms.insert(out.write_ms.end(), a.p.write_ms.begin(), a.p.write_ms.end());
    last = std::max(last, a.last);
  }
  out.elapsed = SecondsBetween(t0, last);
  std::vector<double> done;
  for (const Acc& a : acc) done.insert(done.end(), a.done_s.begin(), a.done_s.end());
  std::sort(done.begin(), done.end());
  const size_t round = RoundLength(*(*clients)[0].script) * clients->size();
  std::vector<double> rounds_s;
  for (size_t i = round; i <= done.size(); i += round) {
    rounds_s.push_back(done[i - 1] - (i == round ? 0.0 : done[i - round - 1]));
  }
  out.round_qps = rounds_s.empty() ? out.qps()
                                   : round / Percentile(rounds_s, 0.5);
  out.cpu_s = ReadProcessUsage().cpu_seconds - u0.cpu_seconds;
  out.delta = dashdb::SnapshotDelta(before, MetricRegistry::Global().Snapshot());
  return out;
}

// --- the traced run's solo pass ---------------------------------------------

/// Sum of the spans that partition the plain in-process call of statement
/// `stmt`. Single node: every layer under the statement root. MPP: the
/// coordinator's parse and the shards; the replayed bind is left out, as
/// each shard's bind already lies inside its shard span.
double CoveredSeconds(const SpanLog& log, size_t from, uint32_t stmt) {
  bool mpp = false;
  for (size_t i = from; i < log.spans.size(); ++i) {
    if (log.spans[i].stmt == stmt && log.spans[i].layer == Layer::kMppExecute) mpp = true;
  }
  double sum = 0;
  for (size_t i = from; i < log.spans.size(); ++i) {
    const Span& s = log.spans[i];
    if (s.stmt != stmt) continue;
    if (mpp ? (s.layer == Layer::kShard || s.layer == Layer::kParse)
            : s.layer != Layer::kStatement) {
      sum += s.dur_s;
    }
  }
  return sum;
}

struct Solo {
  double coverage = 0;
  double roundtrip_us = 0;
  uint64_t attempted = 0, failed = 0, mismatched = 0;
  SpanLog log;                            ///< spans of the layered calls
  std::map<const Stmt*, double> plain_s;  ///< median plain call per statement
};

/// One client, nothing else running: each sample statement with its layers
/// spelled out (Target::ExecuteSolo), as the plain in-process call and over
/// the wire, best of at least four.
Solo RunSolo(Target* target, Client* client,
             const std::vector<const Stmt*>& sample) {
  // At least four rounds, more for short statements, so the best of each
  // mode is not one timer tick or one cache miss away from the others.
  constexpr int kMinReps = 4, kMaxReps = 256;
  constexpr double kMinStmtSeconds = 0.05;
  Solo out;
  double covered = 0, plain = 0;
  std::vector<double> overhead;
  SpanLog& log = out.log;
  for (const Stmt* st : sample) {
    double best_layers = 1e300, best_plain = 1e300, best_wire = 1e300;
    std::vector<double> plain_s;
    const auto stmt_start = Clock::now();
    for (int rep = 0;
         rep < kMinReps ||
         (rep < kMaxReps && rep % 2 == 1) ||
         (rep < kMaxReps &&
          SecondsBetween(stmt_start, Clock::now()) < kMinStmtSeconds);
         ++rep) {
      const size_t from = log.spans.size();
      const uint32_t id = log.next_stmt;
      auto check = [&](const Result<QueryResult>& r) {
        ++out.attempted;
        if (!r.ok()) {
          ++out.failed;
          Report(r.status().ToString(), *st);
          return false;
        }
        const std::string why = Verify(*st, *r);
        if (!why.empty()) {
          ++out.mismatched;
          Report(why, *st);
        }
        return true;
      };
      auto traced = [&] {
        if (check(target->ExecuteSolo(client->id, *st, &log))) {
          best_layers = std::min(best_layers, CoveredSeconds(log, from, id));
        }
      };
      auto plain_call = [&] {
        const auto a = Clock::now();
        if (check(target->Execute(client->id, st->sql))) {
          plain_s.push_back(SecondsBetween(a, Clock::now()));
          best_plain = std::min(best_plain, plain_s.back());
        }
      };
      // Alternate which of the two in-process calls runs first after the
      // wire call, so neither always meets caches the wire round trip
      // disturbed.
      if (rep % 2 == 0) {
        traced();
        plain_call();
      } else {
        plain_call();
        traced();
      }
      const auto a = Clock::now();
      if (check(client->wire.Query(st->sql))) {
        best_wire = std::min(best_wire, SecondsBetween(a, Clock::now()));
      }
    }
    if (best_layers < 1e300 && best_plain < 1e300 && best_wire < 1e300) {
      covered += best_layers;
      plain += best_plain;      overhead.push_back((best_wire - best_plain) * 1e6);
    }
    out.plain_s[st] = Percentile(std::move(plain_s), 0.5);
  }
  out.coverage = plain > 0 ? covered / plain : 0;
  out.roundtrip_us = Percentile(overhead, 0.5);
  return out;
}

// --- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;  ///< 0 when the value is not a sample statistic
};

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<double> LayerDurations(const std::vector<const SpanLog*>& logs,
                                   Layer l, double unit) {
  std::vector<double> out;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans) {
      if (s.layer == l) out.push_back(s.dur_s * unit);
    }
  }
  return out;
}

/// Writes every client's spans, then the solo pass's (client "solo").
void WriteSpans(const std::string& path, const std::vector<Client>& clients,
                const SpanLog& solo) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "dashbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "client,stmt,layer,parent,start_s,dur_s\n");
  auto write = [f](const std::string& client, const SpanLog& log) {
    for (const Span& s : log.spans) {
      const char* parent = s.layer == Layer::kStatement ? ""
                           : s.layer == Layer::kShard   ? LayerName(Layer::kMppExecute)
                                                        : LayerName(Layer::kStatement);
      std::fprintf(f, "%s,%u,%s,%s,%.9f,%.9f\n", client.c_str(), s.stmt,
                   LayerName(s.layer), parent, s.start_s, s.dur_s);
    }
  };
  for (const Client& c : clients) write(std::to_string(c.id), c.log);
  write("solo", solo);
  std::fclose(f);
}

/// Prints every metric with its unit (and sample count), then the JSON line
/// of `metrics`; `shown` is printed only.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics,
                 const std::vector<Metric>& shown) {
  std::vector<Metric> all = metrics;
  all.insert(all.end(), shown.begin(), shown.end());
  for (const Metric& m : all) {
    if (m.samples > 0) {
      std::printf("  %-34s %14.6f %-6s (n=%zu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("  %-34s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "dashbench: %s\n", what.c_str());
  return 2;
}

int Run(const Options& o) {
  WorkloadOptions wopts{o.seed, o.seconds, o.scale};
  std::unique_ptr<Workload> wl = MakeWorkload(o.workload, wopts);
  if (!wl) return Fail("unknown workload " + o.workload);
  std::printf("dashbench %s seed=%llu seconds=%g trace=%d scale=%g cores=%u\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, o.scale,
              std::thread::hardware_concurrency());

  Status prepared = wl->Prepare();
  if (!prepared.ok()) return Fail("prepare: " + prepared.ToString());

  // Setup: deploy, load, serve — several times, each from scratch.
  const int setups = o.trace ? 1 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<Target> target;
  LoadStats load;
  for (int i = 0; i < setups; ++i) {
    target.reset();
    load = LoadStats{};
    const auto t0 = Clock::now();
    Result<std::unique_ptr<Target>> t = wl->Deploy(&load);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    if (!t.ok()) return Fail("setup: " + t.status().ToString());
    target = std::move(t).value();
  }

  std::vector<Client> clients(wl->clients());
  for (int c = 0; c < wl->clients(); ++c) {
    clients[c].id = c;
    clients[c].script = &wl->script(c);
    Status st = clients[c].wire.Connect(target->port());
    if (!st.ok()) return Fail("connect: " + st.ToString());
  }

  // Warm-up, then the measured window(s). Fixed-count scripts split by
  // statement count instead of by time.
  std::vector<Phase> phases;  // measured phases: [untraced] or [untraced, traced]
  if (wl->fixed_count()) {
    std::vector<size_t> warm, first, second;
    for (const Client& c : clients) {
      const size_t rest = c.script->seq.size() - c.script->warmup;
      warm.push_back(c.script->warmup);
      first.push_back(o.trace ? rest / 2 : rest);
      second.push_back(rest - first.back());
    }
    RunPhase(target.get(), &clients, Mode::kWire, 0, warm);
    phases.push_back(RunPhase(target.get(), &clients, Mode::kWire, 0, first));
    if (o.trace) {
      phases.push_back(RunPhase(target.get(), &clients, Mode::kTraced, 0, second));
    }
  } else {
    RunPhase(target.get(), &clients, Mode::kWire, WarmupSeconds(o.seconds));
    const double window = o.trace ? o.seconds / 2 : o.seconds;
    phases.push_back(RunPhase(target.get(), &clients, Mode::kWire, window));
    if (o.trace) {
      phases.push_back(RunPhase(target.get(), &clients, Mode::kTraced, window));
    }
  }
  Solo solo;
  if (o.trace) solo = RunSolo(target.get(), &clients[0], wl->SoloSample());

  std::string digest;
  Status final_state = wl->VerifyFinalState(target.get(), &digest);
  if (!final_state.ok()) {
    std::fprintf(stderr, "dashbench: final state: %s\n",
                 final_state.ToString().c_str());
  }
  if (!digest.empty()) std::printf("  final_state_digest %s\n", digest.c_str());

  uint64_t attempted = solo.attempted, failed = solo.failed,
           mismatched = solo.mismatched;
  for (const Phase& p : phases) {
    attempted += p.attempted;
    failed += p.failed;
    mismatched += p.mismatched;
  }
  // No workload is meant to fail a statement: a failure is a wrong result.
  const bool correct = failed == 0 && mismatched == 0 && final_state.ok();
  const Phase& u = phases[0];

  std::vector<Metric> m, shown;
  if (!o.trace) {
    m.push_back({"setup_s", Median(setup_s), "s", setup_s.size()});
    m.push_back({"qps", u.round_qps, "1/s", u.completed});
    m.push_back({"latency_p50_ms", Percentile(u.lat_ms, 0.50), "ms", u.lat_ms.size()});
    m.push_back({"latency_p95_ms", Percentile(u.lat_ms, 0.95), "ms", u.lat_ms.size()});
    m.push_back({"peak_rss_mb", ReadProcessUsage().peak_rss_mb, "MB", 0});
    // Printed for reading, not compared: p99 has ten samples beyond it only
    // on dashboard_concurrent and etl_mixed, and only etl_mixed writes.
    shown.push_back({"latency_p99_ms", Percentile(u.lat_ms, 0.99), "ms", u.lat_ms.size()});
    shown.push_back({"read_p50_ms", Percentile(u.read_ms, 0.5), "ms", u.read_ms.size()});
    shown.push_back({"read_p99_ms", Percentile(u.read_ms, 0.99), "ms", u.read_ms.size()});
    shown.push_back({"write_p50_ms", Percentile(u.write_ms, 0.5), "ms", u.write_ms.size()});
    shown.push_back({"write_p99_ms", Percentile(u.write_ms, 0.99), "ms", u.write_ms.size()});
    shown.push_back({"qps_window_mean", u.qps(), "1/s", u.completed});
    shown.push_back({"error_ratio", Ratio(u.failed, u.attempted), "ratio", 0});
  } else {
    const Phase& t = phases[1];
    // The layers inside a statement come from the traced clients; on MPP,
    // whose traced clients see only MppBackend, from the solo pass.
    std::vector<const SpanLog*> logs;
    for (const Client& c : clients) {
      if (!c.log.drain_s.empty()) logs.push_back(&c.log);
    }
    if (logs.empty()) logs.push_back(&solo.log);
    // Admission waits: the engine's Admit spans; on MPP, the wait for
    // MppBackend's statement lock, i.e. a statement's backend span minus
    // its median solo time.
    std::vector<const SpanLog*> client_logs;
    for (const Client& c : clients) client_logs.push_back(&c.log);
    std::vector<double> admission = LayerDurations(client_logs, Layer::kAdmission, 1e6);
    for (const Client& c : clients) {
      for (const auto& [st, span_s] : c.log.backend_calls) {
        auto it = solo.plain_s.find(st);
        if (it != solo.plain_s.end()) {
          admission.push_back(std::max(0.0, span_s - it->second) * 1e6);
        }
      }
    }
    std::vector<double> drain;
    double self[static_cast<int>(OpFamily::kCount)] = {};
    double mem_peak = 0, scan_rows = 0, shard_s = 0, execute_s = 0, makespan_s = 0;
    std::vector<double> skew;
    for (const SpanLog* log : logs) {
      drain.insert(drain.end(), log->drain_s.begin(), log->drain_s.end());
      for (int f = 0; f < static_cast<int>(OpFamily::kCount); ++f) self[f] += log->self_s[f];
      for (double mb : log->mem_peak_mb) mem_peak = std::max(mem_peak, mb);
      scan_rows += log->scan_rows;
      skew.insert(skew.end(), log->shard_skew.begin(), log->shard_skew.end());
      shard_s += log->mpp_shard_s;
      execute_s += log->mpp_execute_s;
      makespan_s += log->mpp_makespan_s;
    }
    double self_total = 0;
    for (double s : self) self_total += s;
    auto total = [&](Layer l) {
      double sum = 0;
      for (double d : LayerDurations(logs, l, 1.0)) sum += d;
      return sum;
    };
    const double stmt_total = total(Layer::kStatement);
    const double n = static_cast<double>(t.completed);
    const double hits = static_cast<double>(u.Delta("server.plan_cache_hits"));
    const double misses = static_cast<double>(u.Delta("server.plan_cache_misses"));
    const double dropped = static_cast<double>(t.Delta("exec.bloom_rows_dropped"));

    std::vector<double> parse = LayerDurations(logs, Layer::kParse, 1e6);
    std::vector<double> bind = LayerDurations(logs, Layer::kBind, 1e6);
    m.push_back({"sql.parse_us", Median(parse), "us", parse.size()});
    m.push_back({"sql.bind_us", Median(bind), "us", bind.size()});
    m.push_back({"sql.plan_cache_hit_ratio", Ratio(hits, hits + misses), "ratio", 0});
    m.push_back({"exec.admission_wait_us", Median(admission), "us", admission.size()});
    m.push_back({"exec.admission_wait_p99_us", Percentile(admission, 0.99), "us",
                 admission.size()});
    m.push_back({"exec.admission_queued", static_cast<double>(u.Delta("exec.admission_queued")),
                 "count", 0});
    m.push_back({"exec.admission_shed", static_cast<double>(u.Delta("exec.admission_shed")),
                 "count", 0});
    m.push_back({"exec.drain_ms", Median(drain) * 1e3, "ms", drain.size()});
    for (int f = 0; f < static_cast<int>(OpFamily::kCount); ++f) {
      m.push_back({std::string("exec.self_share.") + OpFamilyName(static_cast<OpFamily>(f)),
                   Ratio(self[f], self_total), "ratio", 0});
    }
    m.push_back({"exec.rows_per_stmt", Ratio(t.Delta("exec.rows_out"), n), "count", 0});
    m.push_back({"exec.morsels_per_stmt", Ratio(t.Delta("exec.morsels"), n), "count", 0});
    m.push_back({"exec.bloom_drop_ratio", Ratio(dropped, dropped + scan_rows), "ratio", 0});
    m.push_back({"exec.sort_rows_per_stmt", Ratio(t.Delta("exec.sort_rows"), n), "count", 0});
    m.push_back({"exec.topn_fused_per_stmt", Ratio(t.Delta("exec.topn_fused"), n), "count", 0});
    m.push_back({"exec.card_est_error_mean",
                 Ratio(t.Delta("exec.card_est_error.sum"), t.Delta("exec.card_est_error.count")),
                 "log2", 0});
    m.push_back({"exec.mem_peak_mb", mem_peak, "MB", 0});
    m.push_back({"engine.write_share", Ratio(total(Layer::kWrite), stmt_total), "ratio", 0});
    m.push_back({"catalog.ddl_share", Ratio(total(Layer::kDdl), stmt_total), "ratio", 0});
    m.push_back({"server.roundtrip_overhead_us", solo.roundtrip_us, "us", 0});
    m.push_back({"storage.load_rows_per_s", Ratio(load.rows, load.seconds), "1/s", 0});
    m.push_back({"storage.compression_ratio", Ratio(load.raw_bytes, load.compressed_bytes),
                 "ratio", 0});
    m.push_back({"mpp.coordinator_share", Ratio(execute_s - shard_s, execute_s), "ratio", 0});
    m.push_back({"mpp.shard_skew", Median(skew), "ratio", skew.size()});
    m.push_back({"mpp.exchange_compression",
                 Ratio(t.Delta("mpp.exchange_bytes"), t.Delta("mpp.exchange_compressed_bytes")),
                 "ratio", 0});
    m.push_back({"mpp.exchange_stalls_per_stmt", Ratio(t.Delta("mpp.exchange_stalls"), n),
                 "count", 0});
    m.push_back({"mpp.shard_retries", static_cast<double>(t.Delta("mpp.shard_retries")),
                 "count", 0});
    // Modelled, never measured: the LPT makespan of the measured shard
    // times on the 2-node topology, as a share of the measured Execute.
    m.push_back({"mpp.makespan_modelled_share", Ratio(makespan_s, execute_s), "ratio", 0});
    m.push_back({"process.cpu_ms_per_stmt", Ratio(u.cpu_s * 1e3, u.completed), "ms", 0});
    m.push_back({"process.cores_busy", Ratio(u.cpu_s, u.elapsed), "cores", 0});
    m.push_back({"trace.coverage", solo.coverage, "ratio", 0});
    m.push_back({"trace.overhead", Ratio(t.round_qps, u.round_qps), "ratio", 0});
    if (!o.spans_path.empty()) WriteSpans(o.spans_path, clients, solo.log);
  }
  PrintResult(correct, attempted, failed, m, shown);
  for (Client& c : clients) c.wire.Close();
  target.reset();
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace dashbench

int main(int argc, char** argv) {
  dashbench::Options o;
  if (!dashbench::ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: dashbench --workload <star_analytics|"
                 "dashboard_concurrent|etl_mixed|mpp_rollup> --seed <n> "
                 "--seconds <s> --trace <0|1> [--scale <f>] [--spans <file>]\n");
    return 2;
  }
  return dashbench::Run(o);
}
