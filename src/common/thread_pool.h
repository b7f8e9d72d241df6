// Fixed-size worker thread pool — the parallel execution substrate for the
// compute hot paths (minidl kernels, concurrent replica stepping, chunked
// allreduce).
//
// Design constraints, in priority order:
//   1. *Determinism of results.* parallel_for only hands out disjoint index
//      ranges; each index is processed exactly once and callers keep the
//      per-element operation order independent of the partition, so results
//      are bit-identical for any thread count (the minidl replication
//      invariant rides on this — see DESIGN.md "Parallel runtime").
//   2. *Deterministic shutdown.* The destructor joins every worker; no
//      detached threads, no tasks outliving the pool.
//   3. *Exception transparency.* A task that throws has the exception
//      captured and rethrown to the waiter (futures for submit(), the calling
//      thread for parallel_for()).
//
// Sizing: the global() pool reads the ELAN_THREADS environment variable once
// at first use (falling back to std::thread::hardware_concurrency()); CLI
// tools and benches can override it at runtime with set_global_threads()
// after parsing a --threads flag (common/flags). Both take at most
// kMaxThreads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "common/sync.h"

namespace elan {

class ThreadPool {
 public:
  /// Spawns `threads` workers. `threads == 1` is a valid degenerate pool:
  /// submit() and parallel_for() then run everything inline on the caller's
  /// thread (no worker hop, no locking on the hot path).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return threads_; }

  /// Enqueues `fn` and returns a future for its result. Exceptions thrown by
  /// `fn` surface on future.get().
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    auto future = task->get_future();
    if (threads_ <= 1) {
      (*task)();
      return future;
    }
    enqueue([task] { (*task)(); });
    return future;
  }

  /// Splits [begin, end) into contiguous chunks of at most `grain` indices
  /// and runs `fn(chunk_begin, chunk_end)` for each, in parallel. Blocks
  /// until every chunk completed; rethrows the first task exception. Chunk
  /// boundaries depend only on (begin, end, grain) — never on the thread
  /// count — so a caller whose per-element work is order-independent across
  /// chunks gets bit-identical results at any pool size.
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    const std::function<void(std::int64_t, std::int64_t)>& fn);

  /// Largest global pool that ELAN_THREADS or set_global_threads may ask
  /// for.
  static constexpr int kMaxThreads = 256;

  /// Process-wide pool. Sized from ELAN_THREADS (env) at first use; defaults
  /// to hardware_concurrency(), at most kMaxThreads.
  static ThreadPool& global();

  /// Re-sizes the global pool (tools/benches after flag parsing; tests that
  /// sweep thread counts) to [1, kMaxThreads] threads. Blocks until the old
  /// pool drained.
  static void set_global_threads(int threads);

  /// Thread count the global pool would use if created now.
  static int default_threads();

  /// Reads an ELAN_THREADS value: all of `text` one base-10 number in
  /// [1, kMaxThreads]. Anything else throws InvalidArgument naming
  /// ELAN_THREADS and the range.
  static int parse_threads(std::string_view text);

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();
  /// Pops and runs one queued task if any; returns whether it did (the
  /// "help while waiting" primitive behind nested parallel_for).
  bool try_run_one();

  int threads_ = 1;           // set once in the constructor
  std::vector<std::thread> workers_;  // written in ctor, joined in dtor only
  Mutex mutex_{"thread_pool"};
  CondVar cv_;
  std::deque<std::function<void()>> queue_ ELAN_GUARDED_BY(mutex_);
  bool stop_ ELAN_GUARDED_BY(mutex_) = false;
};

}  // namespace elan
