#include "common/query_context.h"

#include <string>

#include "common/fault_injector.h"
#include "common/metrics.h"

namespace dashdb {
namespace {

/// Deterministic budget-exhaustion drills arm this point (DESIGN.md "Fault
/// injection"): every Charge() evaluates one hit, so a FaultSpec with
/// skip_hits targets the Nth allocation of a query exactly.
constexpr const char* kAllocPressurePoint = "exec.alloc_pressure";

struct GovernorInstruments {
  Counter* cancelled;
  Counter* statement_timeouts;
  Counter* mem_charged_bytes;
  Counter* mem_budget_exceeded;
};

GovernorInstruments& GlobalGovernorInstruments() {
  auto& reg = MetricRegistry::Global();
  static GovernorInstruments in{
      reg.GetCounter("exec.cancelled"),
      reg.GetCounter("exec.statement_timeouts"),
      reg.GetCounter("exec.mem_charged_bytes"),
      reg.GetCounter("exec.mem_budget_exceeded"),
  };
  return in;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void QueryContext::SetTimeout(double seconds) {
  if (seconds <= 0) {
    deadline_ns_.store(0, std::memory_order_relaxed);
    return;
  }
  deadline_ns_.store(NowNs() + static_cast<int64_t>(seconds * 1e9),
                     std::memory_order_relaxed);
}

Status QueryContext::CheckAlive() {
  QueryContext* root = Root();
  const uint64_t n = root->checks_.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint64_t trip =
      root->cancel_after_checks_.load(std::memory_order_relaxed);
  if (trip != 0 && n >= trip) root->Cancel();

  int64_t now_ns = -1;
  for (QueryContext* c = this; c != nullptr; c = c->parent_) {
    if (c->cancelled_.load(std::memory_order_acquire)) {
      if (c->timed_out_.load(std::memory_order_acquire)) {
        return Status::Timeout("statement timeout exceeded");
      }
      if (!root->cancel_counted_.exchange(true, std::memory_order_relaxed)) {
        GlobalGovernorInstruments().cancelled->Add(1);
      }
      return Status::Cancelled("query cancelled");
    }
    const int64_t dl = c->deadline_ns_.load(std::memory_order_relaxed);
    if (dl != 0) {
      if (now_ns < 0) now_ns = NowNs();
      if (now_ns >= dl) {
        // Sticky: once past the deadline every subsequent check (any
        // thread, any shard) agrees the query timed out.
        c->timed_out_.store(true, std::memory_order_release);
        c->cancelled_.store(true, std::memory_order_release);
        if (!root->timeout_counted_.exchange(true,
                                             std::memory_order_relaxed)) {
          GlobalGovernorInstruments().statement_timeouts->Add(1);
        }
        return Status::Timeout("statement timeout exceeded");
      }
    }
  }
  return Status::OK();
}

void QueryContext::SetMemBudget(int64_t bytes) {
  Root()->mem_budget_.store(bytes > 0 ? bytes : 0, std::memory_order_relaxed);
}

int64_t QueryContext::mem_budget() const {
  return Root()->mem_budget_.load(std::memory_order_relaxed);
}

Status QueryContext::Charge(int64_t bytes, const char* what) {
  if (bytes <= 0) return Status::OK();
  QueryContext* root = Root();
  Status injected = FaultInjector::Global().Evaluate(kAllocPressurePoint);
  if (!injected.ok()) {
    GlobalGovernorInstruments().mem_budget_exceeded->Add(1);
    return injected.WithContext(std::string("allocation pressure in ") + what);
  }
  GlobalGovernorInstruments().mem_charged_bytes->Add(
      static_cast<uint64_t>(bytes));
  const int64_t used =
      root->mem_used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  const int64_t budget = root->mem_budget_.load(std::memory_order_relaxed);
  if (budget > 0 && used > budget) {
    root->mem_used_.fetch_sub(bytes, std::memory_order_relaxed);
    GlobalGovernorInstruments().mem_budget_exceeded->Add(1);
    return Status::ResourceExhausted(
        std::string(what) + " needs " + std::to_string(bytes) +
        " bytes but the query budget is " + std::to_string(budget) +
        " with " + std::to_string(used - bytes) + " in use");
  }
  // Racy-but-monotonic high-water mark: good enough for EXPLAIN ANALYZE.
  int64_t peak = root->mem_peak_.load(std::memory_order_relaxed);
  while (used > peak && !root->mem_peak_.compare_exchange_weak(
                            peak, used, std::memory_order_relaxed)) {
  }
  return Status::OK();
}

void QueryContext::Release(int64_t bytes) {
  if (bytes <= 0) return;
  Root()->mem_used_.fetch_sub(bytes, std::memory_order_relaxed);
}

int64_t QueryContext::mem_used() const {
  return Root()->mem_used_.load(std::memory_order_relaxed);
}

int64_t QueryContext::mem_peak() const {
  return Root()->mem_peak_.load(std::memory_order_relaxed);
}

}  // namespace dashdb
