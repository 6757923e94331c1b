// Fixed-size thread pool for the experiment engine.
//
// Deliberately work-stealing-free: a single locked queue is plenty when the
// unit of work is a whole simulation replica or an analytic solve (tens of
// microseconds and up), and the simple structure keeps scheduling easy to
// reason about.  Determinism of results is guaranteed one level up, in
// ParallelSweep, by keying every result to its grid index rather than to
// the order in which workers finish.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sigcomp::exp {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains the queue (running every task already submitted), then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task.  Tasks must not throw; wrap anything that can (see
  /// parallel_for, which captures the first exception and rethrows it on
  /// the calling thread).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished and the queue is empty.
  void wait_idle();

  /// hardware_concurrency with a floor of 1 (the standard allows 0).
  [[nodiscard]] static std::size_t default_thread_count();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< signals workers: task ready / stop
  std::condition_variable idle_cv_;  ///< signals wait_idle: all work done
  std::size_t in_flight_ = 0;        ///< queued + currently running tasks
  bool stop_ = false;
};

/// Runs body(0), ..., body(n-1) across the pool and blocks until all are
/// done.  Indices are claimed dynamically (contiguous counter), so uneven
/// per-index cost load-balances; callers that need deterministic output
/// must key results by index, never by completion order.  If any invocation
/// throws, the first exception (by completion time) is rethrown here after
/// every claimed index has finished; remaining unclaimed indices are
/// abandoned.  A pool of size 1 degenerates to a serial loop on the calling
/// thread.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

/// Runs a sequence of phases of n items each across the pool, inside ONE
/// pool round trip, and blocks until the sequence stops.  In phase p every
/// item(p, i), i in [0, n), runs exactly once; threads claim items
/// dynamically, in index order.  The thread that finishes a phase's last
/// item then runs end_of_phase(p) serially, with every write of the phase
/// visible to it; its writes, and the phase's, are visible to every item of
/// phase p + 1.  Returning true starts phase p + 1, false stops.
///
/// Completion counts items, not threads: whichever threads are live claim
/// the next item, so a single free pool thread finishes the run even when
/// every other pool thread is busy elsewhere.  A thread with nothing to
/// claim in the current phase spins for a bounded number of iterations,
/// then blocks until the next phase opens.  If an item or end_of_phase
/// throws, no later phase starts, and the first exception is rethrown here
/// once every thread has left the run.  A pool of size 1, or n <= 1, runs
/// the phases serially on the calling thread.
void parallel_phases(
    ThreadPool& pool, std::size_t n,
    const std::function<void(std::size_t phase, std::size_t item)>& item,
    const std::function<bool(std::size_t phase)>& end_of_phase);

}  // namespace sigcomp::exp
