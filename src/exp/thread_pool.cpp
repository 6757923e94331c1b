#include "exp/thread_pool.hpp"

#include <atomic>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <utility>

namespace sigcomp::exp {

std::size_t ThreadPool::default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_thread_count();
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (pool.size() <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  // Per-call completion state so concurrent parallel_for calls on one pool
  // never wait on each other's tasks.  The waiter blocks until every spawned
  // task has returned, which also guarantees no worker still references
  // `body` (or its captures) once parallel_for returns -- including on the
  // error path, where unclaimed indices are abandoned.
  struct State {
    std::atomic<std::size_t> next{0};  ///< next unclaimed index
    std::size_t total = 0;
    std::size_t tasks = 0;
    std::size_t finished_tasks = 0;  ///< guarded by mutex
    std::exception_ptr error;        ///< first exception, guarded by mutex
    std::mutex mutex;
    std::condition_variable cv;
  };
  auto state = std::make_shared<State>();
  state->total = n;
  state->tasks = pool.size() < n ? pool.size() : n;

  for (std::size_t t = 0; t < state->tasks; ++t) {
    pool.submit([state, &body] {
      for (;;) {
        const std::size_t i = state->next.fetch_add(1);
        if (i >= state->total) break;
        try {
          body(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(state->mutex);
          if (!state->error) state->error = std::current_exception();
          // Stop further claims; workers drain out via the break above.
          state->next.store(state->total);
        }
      }
      const std::lock_guard<std::mutex> lock(state->mutex);
      ++state->finished_tasks;
      if (state->finished_tasks == state->tasks) state->cv.notify_all();
    });
  }

  std::unique_lock<std::mutex> lock(state->mutex);
  state->cv.wait(lock,
                 [&state] { return state->finished_tasks == state->tasks; });
  if (state->error) std::rethrow_exception(state->error);
}

namespace {

/// Loads a waiter spends polling the phase gate before it blocks in
/// std::atomic::wait.  A hand-off faster than the budget never reaches the
/// futex; a longer wait stops burning its core.  At ~19 ns per pause (the
/// 2.1 GHz Xeon of docs/PERFORMANCE.md) this is ~0.3 ms: longer than a
/// farmbench `relay` epoch's usual wait for its slowest shard, which 2^12
/// spins did not cover (docs/PERFORMANCE.md, "`relay`: lockstep epochs in
/// one pool round trip").
constexpr int kPhaseSpinIterations = 1 << 14;

/// Tells the core this is a spin-wait loop (a no-op off x86).
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Shared state of one parallel_phases run.  Items are claimed through one
/// monotone ticket counter: ticket t is item t % n of phase t / n, so claims
/// run in index order within a phase and never need resetting between
/// phases.  A thread holding a ticket of a phase that has not opened yet
/// waits at the gate.  The per-item `done` increments form one release
/// sequence, so the thread whose increment completes a phase acquires every
/// write of that phase; its release store to `gate` then publishes them
/// (plus end_of_phase's) to the next phase.
struct PhaseRun {
  /// `gate` once the run has stopped, normally or on an exception.
  static constexpr std::uint64_t kStopped =
      std::numeric_limits<std::uint64_t>::max();

  std::atomic<std::uint64_t> next{0};  ///< next unclaimed ticket
  std::atomic<std::uint64_t> done{0};  ///< items finished, all phases
  /// Phases opened so far (phase p may run once gate > p), or kStopped.
  std::atomic<std::uint64_t> gate{1};
  std::uint64_t items = 0;
  std::size_t tasks = 0;
  std::size_t finished_tasks = 0;  ///< guarded by mutex
  std::exception_ptr error;        ///< first exception, guarded by mutex
  std::mutex mutex;
  std::condition_variable cv;

  /// Blocks until phase `phase` opens or the run stops; returns the gate.
  std::uint64_t await(std::uint64_t phase) {
    std::uint64_t g = gate.load(std::memory_order_acquire);
    for (int spin = 0; g <= phase && spin < kPhaseSpinIterations; ++spin) {
      cpu_relax();
      g = gate.load(std::memory_order_acquire);
    }
    while (g <= phase) {
      gate.wait(g, std::memory_order_acquire);
      g = gate.load(std::memory_order_acquire);
    }
    return g;
  }

  void open(std::uint64_t value) {
    gate.store(value, std::memory_order_release);
    gate.notify_all();
  }

  void fail(std::exception_ptr e) {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      if (!error) error = std::move(e);
    }
    open(kStopped);
  }

  /// One pool task: claim, run and complete items until the run stops.
  void work(const std::function<void(std::size_t, std::size_t)>& item,
            const std::function<bool(std::size_t)>& end_of_phase) {
    for (;;) {
      const std::uint64_t ticket = next.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t phase = ticket / items;
      if (await(phase) == kStopped) return;
      try {
        item(static_cast<std::size_t>(phase),
             static_cast<std::size_t>(ticket % items));
      } catch (...) {
        // A failed item never counts as done, so its phase never completes
        // and no later phase opens.
        fail(std::current_exception());
        return;
      }
      const std::uint64_t finished =
          done.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (finished != (phase + 1) * items) continue;
      bool more = false;
      try {
        more = end_of_phase(static_cast<std::size_t>(phase));
      } catch (...) {
        fail(std::current_exception());
        return;
      }
      open(more ? phase + 2 : kStopped);
      if (!more) return;
    }
  }
};

}  // namespace

void parallel_phases(
    ThreadPool& pool, std::size_t n,
    const std::function<void(std::size_t phase, std::size_t item)>& item,
    const std::function<bool(std::size_t phase)>& end_of_phase) {
  if (pool.size() <= 1 || n <= 1) {
    for (std::size_t phase = 0;; ++phase) {
      for (std::size_t i = 0; i < n; ++i) item(phase, i);
      if (!end_of_phase(phase)) return;
    }
  }

  // Shared ownership and the final join keep the run state, `item` and
  // `end_of_phase` alive until the last task has returned -- including
  // tasks that start only after the run has stopped, which claim one
  // ticket, find the gate stopped and leave.
  auto state = std::make_shared<PhaseRun>();
  state->items = n;
  state->tasks = pool.size() < n ? pool.size() : n;
  for (std::size_t t = 0; t < state->tasks; ++t) {
    pool.submit([state, &item, &end_of_phase] {
      state->work(item, end_of_phase);
      const std::lock_guard<std::mutex> lock(state->mutex);
      ++state->finished_tasks;
      if (state->finished_tasks == state->tasks) state->cv.notify_all();
    });
  }

  std::unique_lock<std::mutex> lock(state->mutex);
  state->cv.wait(lock,
                 [&state] { return state->finished_tasks == state->tasks; });
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace sigcomp::exp
