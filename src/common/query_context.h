// Per-statement governor state: cooperative cancellation, a wall-clock
// deadline, and an atomically accounted memory budget (DESIGN.md "Query
// governance").
//
// One QueryContext is created per statement and plumbed into every layer
// that does unbounded work: operator Open/Next wrappers, ParallelFor morsel
// claims, MPP shard dispatch, and fluid remote-scan retry loops. Workers
// call CheckAlive() at batch/morsel granularity; the first failing check
// returns kCancelled / kTimeout and every sibling worker observes the same
// flag within one morsel of work, so threads drain instead of being killed.
//
// Memory-hungry operators reserve bytes through Charge()/Release(). The
// budget and the usage counters live on the ROOT context: child contexts
// (one per MPP shard attempt) share their root's accounting, so a query's
// footprint is bounded globally, not per shard. Exceeding the budget fails
// that one query with kResourceExhausted — the process stays healthy.
//
// Cancellation is one-way and sticky: Cancel() on a context stops that
// context and all of its descendants (checks walk the parent chain), which
// is what lets straggler speculation abort the losing duplicate attempt
// without touching the winner.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/status.h"

namespace dashdb {

class QueryContext {
 public:
  QueryContext() = default;
  /// A child context (e.g. one MPP shard attempt): has its own cancel flag
  /// but shares the root's deadline, memory budget, and check counter.
  explicit QueryContext(QueryContext* parent) : parent_(parent) {}

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  // --- cancellation & deadline -------------------------------------------

  /// Requests the query (and all descendants of this context) to stop at
  /// the next governor check. Safe from any thread, idempotent.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }

  /// True if this context or any ancestor was cancelled.
  bool cancelled() const {
    for (const QueryContext* c = this; c != nullptr; c = c->parent_) {
      if (c->cancelled_.load(std::memory_order_acquire)) return true;
    }
    return false;
  }

  /// Arms a deadline `seconds` from now on this context (root: the
  /// statement timeout; child: a per-attempt budget). <= 0 clears it.
  void SetTimeout(double seconds);

  bool has_deadline() const {
    return deadline_ns_.load(std::memory_order_relaxed) != 0;
  }

  /// The per-batch/per-morsel liveness probe. OK while the query may keep
  /// running; kCancelled once any owning context was cancelled; kTimeout
  /// once a deadline on the chain has passed. Also drives the
  /// CancelAfterChecks() test hook and the exec.cancelled /
  /// exec.statement_timeouts counters (each counted once per query).
  Status CheckAlive();

  // --- memory budget ------------------------------------------------------

  /// Sets the budget on the ROOT context. <= 0 means unlimited.
  void SetMemBudget(int64_t bytes);
  int64_t mem_budget() const;

  /// Reserves `bytes` against the root budget. On breach the reservation is
  /// rolled back and kResourceExhausted returned; the caller aborts its
  /// query but the engine keeps serving. `what` names the charging operator
  /// for the error message. Also the hook point for the
  /// `exec.alloc_pressure` fault (deterministic budget-exhaustion drills).
  Status Charge(int64_t bytes, const char* what);

  /// Returns a reservation. Safe to call with the exact total previously
  /// charged (operators release their peak on Close/destruction).
  void Release(int64_t bytes);

  int64_t mem_used() const;
  /// High-water mark of mem_used() over the query's lifetime.
  int64_t mem_peak() const;

  // --- deterministic cancellation for tests -------------------------------

  /// Trips Cancel() on the Nth governor check (1-based, counted at the
  /// root across all threads and child contexts). Lets tests sweep "cancel
  /// at every morsel boundary" without racing a second thread. 0 disarms.
  void CancelAfterChecks(uint64_t n) {
    Root()->cancel_after_checks_.store(n, std::memory_order_relaxed);
  }

  /// Governor checks observed so far (root-wide).
  uint64_t checks() const {
    return Root()->checks_.load(std::memory_order_relaxed);
  }

  QueryContext* parent() const { return parent_; }

 private:
  QueryContext* Root() {
    QueryContext* c = this;
    while (c->parent_ != nullptr) c = c->parent_;
    return c;
  }
  const QueryContext* Root() const {
    return const_cast<QueryContext*>(this)->Root();
  }

  QueryContext* const parent_ = nullptr;
  std::atomic<bool> cancelled_{false};
  /// Set with cancelled_ once this context's deadline passed, so every
  /// later check reports the timeout rather than a plain cancel.
  std::atomic<bool> timed_out_{false};
  /// steady_clock nanos-since-epoch; 0 = no deadline.
  std::atomic<int64_t> deadline_ns_{0};

  // Root-only fields (ignored on children; accessors route to Root()).
  std::atomic<int64_t> mem_budget_{0};
  std::atomic<int64_t> mem_used_{0};
  std::atomic<int64_t> mem_peak_{0};
  std::atomic<uint64_t> checks_{0};
  std::atomic<uint64_t> cancel_after_checks_{0};
  std::atomic<bool> cancel_counted_{false};
  std::atomic<bool> timeout_counted_{false};
};

/// Bytes reserved against one statement's memory budget, returned when the
/// holder is reset or destroyed. It keeps the ROOT context, so it may
/// outlive the child context it was made from (an MPP shard attempt's
/// result outlives the attempt). Move-only.
class MemCharge {
 public:
  MemCharge() = default;
  explicit MemCharge(QueryContext* qc) : qc_(qc) {
    while (qc_ != nullptr && qc_->parent() != nullptr) qc_ = qc_->parent();
  }
  MemCharge(MemCharge&& o) noexcept : qc_(o.qc_), bytes_(o.bytes_) {
    o.bytes_ = 0;
  }
  MemCharge& operator=(MemCharge&& o) noexcept {
    if (this != &o) {
      Reset();
      qc_ = o.qc_;
      bytes_ = o.bytes_;
      o.bytes_ = 0;
    }
    return *this;
  }
  ~MemCharge() { Reset(); }

  /// Charges `bytes` more; on breach nothing is added and the statement's
  /// kResourceExhausted comes back.
  Status Add(int64_t bytes, const char* what) {
    if (qc_ == nullptr || bytes <= 0) return Status::OK();
    DASHDB_RETURN_IF_ERROR(qc_->Charge(bytes, what));
    bytes_ += bytes;
    return Status::OK();
  }
  /// Returns everything charged so far.
  void Reset() {
    if (qc_ != nullptr && bytes_ > 0) qc_->Release(bytes_);
    bytes_ = 0;
  }
  int64_t bytes() const { return bytes_; }

 private:
  QueryContext* qc_ = nullptr;
  int64_t bytes_ = 0;
};

}  // namespace dashdb
