#include "exp/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace sigcomp::exp {
namespace {

TEST(ThreadPool, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), ThreadPool::default_thread_count());
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { ++count; });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleOnFreshPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++count;
      });
    }
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  parallel_for(pool, hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ParallelFor, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelFor, SingleThreadRunsOnCallingThread) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  parallel_for(pool, seen.size(), [&seen, caller](std::size_t i) {
    seen[i] = std::this_thread::get_id();
  });
  for (const std::thread::id id : seen) EXPECT_EQ(id, caller);
}

TEST(ParallelFor, SameResultAcrossThreadCounts) {
  // Index-keyed output: 1, 2 and 8 threads must produce identical vectors.
  std::vector<std::vector<double>> results;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<double> out(257);
    parallel_for(pool, out.size(), [&out](std::size_t i) {
      out[i] = static_cast<double>(i * i) / 3.0;
    });
    results.push_back(std::move(out));
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(ParallelFor, RethrowsFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(pool, 64,
                   [](std::size_t i) {
                     if (i == 13) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool must stay usable after an exception.
  std::atomic<int> count{0};
  parallel_for(pool, 10, [&count](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ParallelFor, MoreItemsThanThreadsLoadBalances) {
  ThreadPool pool(2);
  std::vector<int> out(1001, -1);
  parallel_for(pool, out.size(),
               [&out](std::size_t i) { out[i] = static_cast<int>(i); });
  const long long sum = std::accumulate(out.begin(), out.end(), 0LL);
  EXPECT_EQ(sum, 1000LL * 1001 / 2);
}

TEST(ParallelFor, PoolIsReusableAcrossManyCalls) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    parallel_for(pool, 50, [&count](std::size_t) { ++count; });
    ASSERT_EQ(count.load(), 50) << "round " << round;
  }
}

// ---------------------------------------------------------- parallel_phases
//
// Suite names carry "Parallel" so the CI TSan leg runs them: the ordering
// these tests rely on (each phase's plain writes visible to the next) rests
// on the phase gate's acquire/release atomics, which TSan checks.

/// Runs `phases` phases of `n` items on `pool` and returns how often each
/// (phase, item) ran.  Cells are plain ints: a double claim is a data race
/// TSan reports, and the count catches it anywhere.
std::vector<std::vector<int>> phase_hits(ThreadPool& pool, std::size_t n,
                                         std::size_t phases) {
  std::vector<std::vector<int>> hits(phases, std::vector<int>(n, 0));
  parallel_phases(
      pool, n,
      [&hits](std::size_t phase, std::size_t i) { ++hits[phase][i]; },
      [phases](std::size_t phase) { return phase + 1 < phases; });
  return hits;
}

/// Holds each of the first `threads` items of phase 0 until all of them
/// have started, so every pool thread is inside the run before the phases
/// begin handing off.  Otherwise the first thread to wake can finish a
/// short run alone, and no phase's writes ever cross threads.
void rendezvous(std::atomic<std::size_t>& arrived, std::size_t threads,
                std::size_t phase, std::size_t i) {
  if (phase != 0 || i >= threads) return;
  ++arrived;
  while (arrived.load() < threads) std::this_thread::yield();
}

/// Raises `max` to `value` if it is lower.
void record_max(std::atomic<std::size_t>& max, std::size_t value) {
  std::size_t seen = max.load();
  while (seen < value && !max.compare_exchange_weak(seen, value)) {
  }
}

TEST(ParallelPhases, EveryItemRunsExactlyOncePerPhase) {
  // A 1-thread pool (serial on the caller), fewer items than workers, as
  // many, more, and the degenerate 0- and 1-item phases.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {4, 13}, {1, 5}, {8, 3}, {4, 4}, {2, 40}, {3, 1}, {3, 0}};
  for (const auto& [threads, items] : shapes) {
    ThreadPool pool(threads);
    const std::vector<std::vector<int>> hits = phase_hits(pool, items, 200);
    ASSERT_EQ(hits.size(), 200u);
    for (std::size_t p = 0; p < hits.size(); ++p) {
      for (std::size_t i = 0; i < items; ++i) {
        ASSERT_EQ(hits[p][i], 1) << threads << " threads, " << items
                                 << " items: phase " << p << " item " << i;
      }
    }
  }
}

TEST(ParallelPhases, PhaseWritesAreVisibleToTheNextPhase) {
  // Phase p's items write row p % 2 and read every cell of the other row,
  // written by phase p - 1, plus the value end_of_phase(p - 1) left behind.
  // All plain memory: only the gate orders it.
  ThreadPool pool(4);
  constexpr std::size_t kItems = 9;
  constexpr std::size_t kPhases = 300;
  std::atomic<std::size_t> arrived{0};
  std::vector<std::size_t> rows[2] = {std::vector<std::size_t>(kItems, 0),
                                      std::vector<std::size_t>(kItems, 0)};
  std::size_t serial_value = 0;
  std::vector<int> stale(kPhases, 0);  // written by end_of_phase only
  std::vector<std::vector<int>> bad(kPhases, std::vector<int>(kItems, 0));
  parallel_phases(
      pool, kItems,
      [&](std::size_t phase, std::size_t i) {
        rendezvous(arrived, pool.size(), phase, i);
        if (phase > 0) {
          const std::vector<std::size_t>& prev = rows[(phase + 1) % 2];
          for (std::size_t j = 0; j < kItems; ++j) {
            if (prev[j] != (phase - 1) * kItems + j) ++bad[phase][i];
          }
          if (serial_value != phase - 1) ++bad[phase][i];
        }
        rows[phase % 2][i] = phase * kItems + i;
      },
      [&](std::size_t phase) {
        // Every write of this phase is visible here too.
        for (std::size_t j = 0; j < kItems; ++j) {
          if (rows[phase % 2][j] != phase * kItems + j) ++stale[phase];
        }
        serial_value = phase;
        return phase + 1 < kPhases;
      });
  for (std::size_t p = 0; p < kPhases; ++p) {
    ASSERT_EQ(stale[p], 0) << "end of phase " << p;
    for (std::size_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(bad[p][i], 0) << "phase " << p << " item " << i;
    }
  }
}

TEST(ParallelPhases, EndOfPhaseRunsOncePerPhaseAndFalseStops) {
  ThreadPool pool(4);
  std::vector<std::size_t> ends;  // written only by the serial step
  std::atomic<std::size_t> items{0};
  std::atomic<std::size_t> last_phase{0};
  parallel_phases(
      pool, 6,
      [&](std::size_t phase, std::size_t) {
        ++items;
        record_max(last_phase, phase);
      },
      [&ends](std::size_t phase) {
        ends.push_back(phase);
        return phase < 9;
      });
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(ends, expected);
  EXPECT_EQ(items.load(), 60u);
  EXPECT_EQ(last_phase.load(), 9u);  // phase 10 never started
}

TEST(ParallelPhases, CompletesWhenOnlyOnePoolThreadIsFree) {
  // Three of four pool threads sit on a latch for the whole run, so the
  // run's other tasks stay queued: the one free thread must claim every
  // item of every phase itself.
  ThreadPool pool(4);
  std::latch parked(3);
  std::latch release(1);
  for (int t = 0; t < 3; ++t) {
    pool.submit([&parked, &release] {
      parked.count_down();
      release.wait();
    });
  }
  parked.wait();
  const std::vector<std::vector<int>> hits = phase_hits(pool, 7, 100);
  release.count_down();
  pool.wait_idle();
  for (std::size_t p = 0; p < hits.size(); ++p) {
    for (std::size_t i = 0; i < hits[p].size(); ++i) {
      ASSERT_EQ(hits[p][i], 1) << "phase " << p << " item " << i;
    }
  }
}

TEST(ParallelPhases, ItemExceptionStopsTheRunAndIsRethrown) {
  ThreadPool pool(4);
  std::atomic<std::size_t> max_phase{0};
  std::atomic<std::size_t> ends{0};
  EXPECT_THROW(
      parallel_phases(
          pool, 10,
          [&max_phase](std::size_t phase, std::size_t i) {
            record_max(max_phase, phase);
            if (phase == 3 && i == 5) throw std::runtime_error("item");
          },
          [&ends](std::size_t) {
            ++ends;
            return true;
          }),
      std::runtime_error);
  EXPECT_EQ(max_phase.load(), 3u);  // no later phase started
  EXPECT_EQ(ends.load(), 3u);       // phase 3 never completed
  // The pool stays usable.
  const std::vector<std::vector<int>> hits = phase_hits(pool, 5, 4);
  EXPECT_EQ(hits[3][4], 1);
}

TEST(ParallelPhases, EndOfPhaseExceptionStopsTheRunAndIsRethrown) {
  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    std::atomic<std::size_t> max_phase{0};
    EXPECT_THROW(
        parallel_phases(
            pool, 10,
            [&max_phase](std::size_t phase, std::size_t) {
              record_max(max_phase, phase);
            },
            [](std::size_t phase) {
              if (phase == 2) throw std::logic_error("end of phase");
              return true;
            }),
        std::logic_error);
    EXPECT_EQ(max_phase.load(), 2u) << threads << " threads";
  }
}

}  // namespace
}  // namespace sigcomp::exp
