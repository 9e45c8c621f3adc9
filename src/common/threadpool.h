// Fixed-size worker pool. Used for intra-query parallelism (strides
// scheduled across cores, paper II.B.6), per-node MPP workers, and the
// sparklite executors.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace dashdb {

class QueryContext;

/// CPU time the calling thread has consumed (CLOCK_THREAD_CPUTIME_ID), in
/// seconds.
double ThreadCpuSeconds();

class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `fn`; returns a future for completion/result.
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lk(mu_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion.
  /// Work is chunked so n can be large (e.g. one index per stride).
  ///
  /// The calling thread participates in draining chunks, so this is safe to
  /// invoke from a pool worker (nested parallelism — e.g. an MPP node task
  /// fanning out a morsel scan): even with every worker blocked inside a
  /// ParallelFor, each call completes on its caller's thread. Helper tasks
  /// that start after all chunks are claimed return without touching `fn`.
  ///
  /// `max_workers` caps the number of threads cooperating on this call
  /// (caller included); 0 means caller + all pool workers. The first
  /// exception thrown by `fn` on any thread is rethrown here after every
  /// in-flight chunk has settled; remaining chunks are abandoned.
  ///
  /// `qctx`, when set, makes the loop governable: every thread probes
  /// QueryContext::CheckAlive() before claiming its next chunk (and the
  /// degenerate inline path probes per item), so a cancel/timeout stops
  /// the loop within one chunk of work per cooperating thread. The loop
  /// returns normally with the tail abandoned — callers observe the
  /// cancellation through their own governor check, which keeps the
  /// exception path reserved for real faults.
  ///
  /// `helper_cpu_seconds`, when set, is incremented by the thread CPU the
  /// pool workers spent running chunks of this call (the caller's own share
  /// is on its thread clock already). Each helper reads its clock once when
  /// it claims its first chunk and once when it leaves.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   int max_workers = 0, QueryContext* qctx = nullptr,
                   double* helper_cpu_seconds = nullptr);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace dashdb
