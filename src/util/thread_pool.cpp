#include "util/thread_pool.hpp"

#include <atomic>
#include <cstdint>
#include <exception>
#include <thread>

#include "obs/obs.hpp"
#include "util/annotations.hpp"
#include "util/env.hpp"
#include "util/mutex.hpp"

namespace csrl {

namespace {

// Set while a thread (worker or caller) executes chunks of some
// parallel_for; nested calls detect it and run inline.
thread_local bool tls_in_parallel_region = false;

// Nesting depth of ForceSerialGuard on this thread; positive forces
// parallel_for to dispatch inline.
thread_local int tls_force_serial = 0;

}  // namespace

ForceSerialGuard::ForceSerialGuard() { ++tls_force_serial; }
ForceSerialGuard::~ForceSerialGuard() { --tls_force_serial; }

struct ThreadPool::Impl {
  explicit Impl(std::size_t workers) {
    threads.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
      threads.emplace_back([this] { worker_loop(); });
  }

  ~Impl() {
    {
      MutexLock lock(mutex);
      stop = true;
    }
    work_ready.notify_all();
    for (std::thread& t : threads) t.join();
  }

  /// Run `job` on every worker plus the calling thread; returns once all
  /// participants finished the current job.  Dispatches are serialized so
  /// independent callers (e.g. two Checkers on user threads) can share the
  /// pool; the second caller blocks until the first job drained.
  void run(const std::function<void()>& job) CSRL_EXCLUDES(run_mutex, mutex) {
    MutexLock dispatch(run_mutex);
    {
      MutexLock lock(mutex);
      current = &job;
      ++generation;
      active = threads.size();
    }
    work_ready.notify_all();

    tls_in_parallel_region = true;
    job();
    tls_in_parallel_region = false;

    {
      MutexLock lock(mutex);
      while (active != 0) work_done.wait(mutex);
      current = nullptr;
    }
  }

  void worker_loop() CSRL_EXCLUDES(mutex) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void()>* job = nullptr;
      {
        // Idle time is only metered while recording: the clock reads cost
        // more than the dormant-site budget allows, and the wait itself is
        // where a worker spends its whole life between jobs.
        const bool meter = CSRL_OBS_ACTIVE();
        [[maybe_unused]] const std::int64_t idle_from =
            meter ? obs::now_ns() : 0;
        MutexLock lock(mutex);
        while (!stop && generation == seen) work_ready.wait(mutex);
        if (meter)
          CSRL_COUNT("pool/worker_idle_ns",
                     static_cast<std::uint64_t>(obs::now_ns() - idle_from));
        if (stop) return;
        seen = generation;
        job = current;
      }
      tls_in_parallel_region = true;
      (*job)();
      tls_in_parallel_region = false;
      {
        MutexLock lock(mutex);
        if (--active == 0) work_done.notify_all();
      }
    }
  }

  /// Lock order: run_mutex (dispatch serialization) strictly before
  /// mutex (job state); worker threads only ever take mutex.
  Mutex run_mutex CSRL_ACQUIRED_BEFORE(mutex);
  Mutex mutex;
  CondVar work_ready;  // signalled with `mutex` held state changed:
                       // stop set or generation bumped
  CondVar work_done;   // signalled when `active` drops to zero
  const std::function<void()>* current CSRL_GUARDED_BY(mutex) = nullptr;
  std::uint64_t generation CSRL_GUARDED_BY(mutex) = 0;
  std::size_t active CSRL_GUARDED_BY(mutex) = 0;
  bool stop CSRL_GUARDED_BY(mutex) = false;
  std::vector<std::thread> threads;  // immutable after construction
};

ThreadPool::ThreadPool(std::size_t num_threads)
    : num_threads_(resolve_threads(num_threads)) {
  if (num_threads_ > 1)
    impl_ = std::make_unique<Impl>(num_threads_ - 1);
}

ThreadPool::~ThreadPool() = default;

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& chunk_fn) const {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const std::size_t range = end - begin;
  if (impl_ == nullptr || range <= grain || tls_in_parallel_region ||
      tls_force_serial > 0) {
    CSRL_COUNT("pool/inline_runs", 1);
    chunk_fn(begin, end);
    return;
  }

  const std::size_t num_chunks = (range + grain - 1) / grain;
  CSRL_COUNT("pool/dispatches", 1);
  CSRL_COUNT("pool/chunks", num_chunks);
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error = nullptr;
  Mutex error_mutex;
  std::atomic<bool> failed{false};

  const std::function<void()> job = [&] {
    for (;;) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks || failed.load(std::memory_order_relaxed)) return;
      const std::size_t lo = begin + c * grain;
      const std::size_t hi = std::min(lo + grain, end);
      try {
        chunk_fn(lo, hi);
      } catch (...) {
        MutexLock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  impl_->run(job);
  if (first_error) std::rethrow_exception(first_error);
}

std::size_t ThreadPool::resolve_threads(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<std::size_t>(
      env_uint("CSRL_THREADS", 1, kMaxEnvThreads, hw > 0 ? hw : 1));
}

namespace {
Mutex global_pool_mutex;
std::shared_ptr<ThreadPool> global_pool CSRL_GUARDED_BY(global_pool_mutex);
}  // namespace

std::shared_ptr<ThreadPool> ThreadPool::global_ptr() {
  // lint:allow hot-lock (guards the global pool pointer; taken once per parallel dispatch, never per element)
  MutexLock lock(global_pool_mutex);
  // lint:allow hot-alloc (one-time lazy construction of the global pool; every later dispatch takes the pointer-copy path)
  if (!global_pool) global_pool = std::make_shared<ThreadPool>(0);
  return global_pool;
}

void ThreadPool::set_global_threads(std::size_t num_threads) {
  const std::size_t resolved = resolve_threads(num_threads);
  MutexLock lock(global_pool_mutex);
  if (global_pool && global_pool->num_threads() == resolved) return;
  global_pool = std::make_shared<ThreadPool>(resolved);
}

}  // namespace csrl
