#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <utility>

#include "common/flags.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace elan {

ThreadPool::ThreadPool(int threads) : threads_(threads) {
  require(threads >= 1, "ThreadPool: need at least one thread");
  if (threads_ <= 1) return;  // inline pool, no workers
  workers_.reserve(static_cast<std::size_t>(threads_));
  for (int i = 0; i < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  static auto& tasks_total = obs::MetricsRegistry::instance().counter(
      "elan_threadpool_tasks_total", "Tasks submitted to the thread pool");
  tasks_total.add(1);
  if (obs::Tracer::enabled()) {
    // Wrap the task so the trace shows queue-wait separately from run time.
    // The wrapper allocates, but only when tracing is on. Inside a sim run
    // (obs::RunScope) the enqueue time is virtual and cannot be compared
    // with a worker's real clock, so such a task gets no queue-wait span.
    auto& tracer = obs::Tracer::instance();
    const bool real_clock = !tracer.has_custom_clock();
    const double enqueued_us = tracer.now_us();
    task = [inner = std::move(task), enqueued_us, real_clock] {
      auto& tracer = obs::Tracer::instance();
      const double start_us = tracer.now_us();
      if (real_clock && start_us > enqueued_us) {
        tracer.complete("threadpool", "queue_wait", enqueued_us, start_us - enqueued_us);
      }
      ELAN_TRACE_SCOPE("threadpool", "task_run");
      inner();
    };
  }
  {
    MutexLock lock(mutex_);
    ELAN_CHECK(!stop_, "ThreadPool: submit after shutdown");
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  {
    MutexLock lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  task();
  return true;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stop_ && queue_.empty()) cv_.wait(mutex_);
      if (queue_.empty()) return;  // stop_ set and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                              const std::function<void(std::int64_t, std::int64_t)>& fn) {
  require(grain >= 1, "parallel_for: non-positive grain");
  if (begin >= end) return;
  if (threads_ <= 1 || end - begin <= grain) {
    // Inline path: same chunk boundaries as the pooled path (the partition
    // is part of the contract — callers may rely on per-chunk behaviour
    // being identical at every thread count).
    for (std::int64_t b = begin; b < end; b += grain) {
      fn(b, std::min(end, b + grain));
    }
    return;
  }

  struct Sync {
    Mutex m{"parallel_for_sync"};
    CondVar done;
    std::int64_t pending ELAN_GUARDED_BY(m) = 0;
    std::exception_ptr error ELAN_GUARDED_BY(m);
  };
  auto sync = std::make_shared<Sync>();
  {
    MutexLock lock(sync->m);
    sync->pending = (end - begin + grain - 1) / grain;
  }

  for (std::int64_t b = begin; b < end; b += grain) {
    const std::int64_t e = std::min(end, b + grain);
    // `fn` is captured by reference: the loop below does not return before
    // every chunk completed, so the reference outlives the tasks.
    enqueue([sync, &fn, b, e] {
      try {
        fn(b, e);
      } catch (...) {
        MutexLock lock(sync->m);
        if (!sync->error) sync->error = std::current_exception();
      }
      bool last = false;
      {
        MutexLock lock(sync->m);
        last = --sync->pending == 0;
      }
      if (last) sync->done.notify_all();
    });
  }

  // Help while waiting: run queued tasks instead of sleeping. This is what
  // makes nested parallelism deadlock-free — a worker that entered a nested
  // parallel_for drains the queue (including its own sub-chunks) rather than
  // blocking a pool slot. Sleeping is safe only once the queue is empty: our
  // remaining chunks are then running on other threads, and any task those
  // threads enqueue afterwards is drained by their own help loops.
  for (;;) {
    {
      MutexLock lock(sync->m);
      if (sync->pending == 0) break;
    }
    if (try_run_one()) continue;
    MutexLock lock(sync->m);
    while (sync->pending != 0) sync->done.wait(sync->m);
    break;
  }
  std::exception_ptr error;
  {
    MutexLock lock(sync->m);
    error = sync->error;
  }
  if (error) std::rethrow_exception(error);
}

namespace {

std::unique_ptr<ThreadPool>& global_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

Mutex& global_mutex() {
  static Mutex m("thread_pool_global");
  return m;
}

}  // namespace

int ThreadPool::parse_threads(std::string_view text) {
  return static_cast<int>(parse_int(text, 1, kMaxThreads, "ELAN_THREADS"));
}

int ThreadPool::default_threads() {
  if (const char* env = std::getenv("ELAN_THREADS")) return parse_threads(env);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min<unsigned>(hw, kMaxThreads));
}

ThreadPool& ThreadPool::global() {
  MutexLock lock(global_mutex());
  auto& slot = global_slot();
  if (!slot) slot = std::make_unique<ThreadPool>(default_threads());
  return *slot;
}

void ThreadPool::set_global_threads(int threads) {
  ELAN_REQUIRE(threads >= 1 && threads <= kMaxThreads,
               "set_global_threads: expected 1 to " + std::to_string(kMaxThreads) +
                   " threads, got " + std::to_string(threads));
  MutexLock lock(global_mutex());
  auto& slot = global_slot();
  if (slot && slot->size() == threads) return;
  slot.reset();  // join the old workers before spawning the new pool
  slot = std::make_unique<ThreadPool>(threads);
}

}  // namespace elan
