#include "common/threadpool.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/query_context.h"

namespace dashdb {

ThreadPool::ThreadPool(int num_threads) {
  num_threads = std::max(1, num_threads);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

namespace {

/// Shared state of one ParallelFor call. Held by shared_ptr so helper tasks
/// that start after the caller returned (all chunks already claimed) still
/// have valid state to look at.
struct ParallelForState {
  std::function<void(size_t)> fn;
  QueryContext* qctx = nullptr;
  size_t n = 0;
  size_t chunk = 1;
  std::atomic<size_t> next{0};
  std::atomic<int> active{0};  ///< threads currently inside the drain loop
  std::mutex mu;
  std::condition_variable done_cv;
  std::exception_ptr first_error;
  /// Thread CPU the helpers spent running chunks, in nanoseconds.
  std::atomic<int64_t> helper_cpu_ns{0};

  /// Claims and runs chunks until the range is exhausted. On exception,
  /// records the first error and steals the remaining range so other
  /// threads stop early. A helper reads its thread CPU clock at its first
  /// claim and once more when it leaves.
  void Drain(bool helper) {
    active.fetch_add(1, std::memory_order_acq_rel);
    double cpu0 = -1;
    for (;;) {
      size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) break;
      if (helper && cpu0 < 0) cpu0 = ThreadCpuSeconds();
      // Governor probe only after a successful claim: begin < n proves the
      // caller is still inside ParallelFor (it drains until the range runs
      // dry before waiting), so qctx is alive. A helper that starts after
      // the caller returned claims begin >= n and never touches qctx.
      if (qctx != nullptr && !qctx->CheckAlive().ok()) {
        next.store(n, std::memory_order_relaxed);  // abandon remaining chunks
        break;
      }
      size_t end = std::min(n, begin + chunk);
      try {
        for (size_t i = begin; i < end; ++i) fn(i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lk(mu);
          if (!first_error) first_error = std::current_exception();
        }
        next.store(n, std::memory_order_relaxed);  // abandon remaining chunks
        break;
      }
    }
    if (cpu0 >= 0) {
      helper_cpu_ns.fetch_add(
          static_cast<int64_t>((ThreadCpuSeconds() - cpu0) * 1e9),
          std::memory_order_relaxed);
    }
    if (active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lk(mu);  // pair with the waiter's check
      done_cv.notify_all();
    }
  }
};

}  // namespace

double ThreadCpuSeconds() {
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                             int max_workers, QueryContext* qctx,
                             double* helper_cpu_seconds) {
  if (n == 0) return;
  int workers = max_workers > 0 ? std::min(max_workers, num_threads() + 1)
                                : num_threads() + 1;
  if (workers <= 1 || n < static_cast<size_t>(workers)) {
    // Degenerate job (fewer items than workers would strand helpers on
    // sub-item work): run inline to avoid scheduling overhead. Callers with
    // coarse units (partitions, merge shards) rely on n == workers fanning
    // out, so the threshold must not exceed n == workers.
    for (size_t i = 0; i < n; ++i) {
      if (qctx != nullptr && !qctx->CheckAlive().ok()) return;
      fn(i);
    }
    return;
  }
  auto st = std::make_shared<ParallelForState>();
  st->fn = fn;
  st->qctx = qctx;
  st->n = n;
  // Coarse-grained calls (n comparable to workers — radix partitions,
  // merge shards) get chunk 1 so every unit can land on its own thread;
  // larger ranges use ~8 chunks per worker to amortize the atomic claim.
  st->chunk = std::max<size_t>(1, n / (static_cast<size_t>(workers) * 8));
  // The caller is one of the workers, so enqueue workers-1 helpers. A helper
  // that only starts once the range is exhausted returns immediately.
  for (int t = 0; t < workers - 1; ++t) {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.emplace_back([st] { st->Drain(/*helper=*/true); });
  }
  cv_.notify_all();
  st->Drain(/*helper=*/false);
  {
    // Wait for helpers that claimed chunks before the range ran dry; helpers
    // still queued will see next >= n on arrival and never touch fn.
    std::unique_lock<std::mutex> lk(st->mu);
    st->done_cv.wait(lk, [&] {
      return st->active.load(std::memory_order_acquire) == 0;
    });
    if (helper_cpu_seconds != nullptr) {
      *helper_cpu_seconds +=
          st->helper_cpu_ns.load(std::memory_order_relaxed) * 1e-9;
    }
    if (st->first_error) std::rethrow_exception(st->first_error);
  }
}

}  // namespace dashdb
