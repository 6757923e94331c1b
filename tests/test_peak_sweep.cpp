// Tests of the farm reduce's exact peak sweep (exp/peak_sweep.hpp) against
// a naive oracle that sorts every start and every end globally and sweeps
// them once, as the reduce did before it swept per-shard runs.  Suite
// names carry "Sweep" so the CI TSan leg picks them up.
#include "exp/peak_sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "exp/thread_pool.hpp"
#include "sim/rng.hpp"

namespace sigcomp::exp {
namespace {

/// One session's [begin, completion] interval.
struct Interval {
  double start;
  double end;
};

/// Intervals cut into runs, laid out the way the farm store holds them.
struct Runs {
  std::vector<double> starts;
  std::vector<double> ends;
  std::vector<std::size_t> bounds{0};
};

/// Lays `runs` out end to end and sorts each run's starts and ends on
/// their own, as each shard does with its slices.
Runs lay_out(const std::vector<std::vector<Interval>>& runs) {
  Runs out;
  for (const std::vector<Interval>& run : runs) {
    const std::size_t first = out.starts.size();
    for (const Interval& interval : run) {
      out.starts.push_back(interval.start);
      out.ends.push_back(interval.end);
    }
    const auto from = static_cast<std::ptrdiff_t>(first);
    std::sort(out.starts.begin() + from, out.starts.end());
    std::sort(out.ends.begin() + from, out.ends.end());
    out.bounds.push_back(out.starts.size());
  }
  return out;
}

/// The oracle: a global sort of every start and every end, then one sweep
/// that counts a start at exactly an end's time as overlapping.
std::size_t naive_peak(const std::vector<std::vector<Interval>>& runs) {
  std::vector<double> starts;
  std::vector<double> ends;
  for (const std::vector<Interval>& run : runs) {
    for (const Interval& interval : run) {
      starts.push_back(interval.start);
      ends.push_back(interval.end);
    }
  }
  std::sort(starts.begin(), starts.end());
  std::sort(ends.begin(), ends.end());
  std::size_t active = 0;
  std::size_t peak = 0;
  std::size_t next_end = 0;
  for (const double start : starts) {
    while (next_end < ends.size() && ends[next_end] < start) {
      --active;
      ++next_end;
    }
    peak = std::max(peak, ++active);
  }
  return peak;
}

std::size_t swept_peak(const std::vector<std::vector<Interval>>& runs,
                       std::size_t threads) {
  Runs laid = lay_out(runs);
  ThreadPool pool(threads);
  return peak_in_flight(laid.starts, laid.ends, laid.bounds, pool);
}

/// The sweep at 1, 2 and 8 threads against the oracle, and the oracle
/// against the value the case was built to have.
void expect_peak(const std::vector<std::vector<Interval>>& runs,
                 std::size_t expected) {
  EXPECT_EQ(naive_peak(runs), expected);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    EXPECT_EQ(swept_peak(runs, threads), expected) << threads << " threads";
  }
}

TEST(PeakSweep, StartAtAnotherRunsEndOverlaps) {
  // [0, 5] in one run, [5, 9] in another: in flight together at t = 5.
  expect_peak({{{0.0, 5.0}}, {{5.0, 9.0}}}, 2);
  // A hair later they no longer overlap.
  expect_peak({{{0.0, 5.0}}, {{5.000001, 9.0}}}, 1);
}

TEST(PeakSweep, EqualStartsAcrossRunsAllCount) {
  // Every run begins one session at t = 0, as every shared relay does.
  std::vector<std::vector<Interval>> runs;
  for (int r = 0; r < 6; ++r) {
    runs.push_back({{0.0, 1.0 + r}, {2.0 + r, 3.0 + r}});
  }
  expect_peak(runs, 6);
}

TEST(PeakSweep, EmptyRunsAreSkipped) {
  expect_peak({{}, {{1.0, 4.0}, {2.0, 3.0}}, {}, {{3.0, 6.0}}, {}}, 3);
}

TEST(PeakSweep, RunsOfLengthOne) {
  std::vector<std::vector<Interval>> runs;
  for (int i = 0; i < 40; ++i) {
    const double start = 0.5 * i;
    runs.push_back({{start, start + 2.0}});
  }
  // Each session overlaps the four that start after it within 2 s.
  expect_peak(runs, 5);
}

TEST(PeakSweep, MoreRunsThanThreads) {
  // 64 runs of 3 at 2 threads and at 8: nested intervals that all contain
  // t = 100, so every session is in flight there.
  std::vector<std::vector<Interval>> runs;
  for (int r = 0; r < 64; ++r) {
    std::vector<Interval> run;
    for (int k = 0; k < 3; ++k) {
      const double width = 1.0 + r * 3 + k;
      run.push_back({100.0 - width, 100.0 + width});
    }
    runs.push_back(std::move(run));
  }
  expect_peak(runs, 192);
}

TEST(PeakSweep, RandomTiedRunsMatchTheOracle) {
  // Times on a coarse grid, so starts tie with starts and with ends inside
  // runs, across runs and across chunk edges; sizes large enough to cut
  // the time axis into many chunks.  Run lengths vary, and some are empty:
  // up to 18,000 sessions, or up to 6, which the sweep sorts together in
  // groups of adjacent runs before it cuts the chunks.
  for (const double unit : {3000.0, 2.0}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      sim::Rng rng(seed, 0);
      std::vector<std::vector<Interval>> runs;
      std::size_t total = 0;
      while (total < 60000) {
        const auto length =
            static_cast<std::size_t>(rng.uniform() * unit) * (runs.size() % 7);
        std::vector<Interval> run;
        for (std::size_t i = 0; i < length; ++i) {
          const double start = static_cast<double>(
              static_cast<int>(rng.uniform() * 400.0));
          const double span = static_cast<double>(
              static_cast<int>(rng.exponential(10.0)));
          run.push_back({start, start + span});
        }
        total += length;
        runs.push_back(std::move(run));
      }
      const std::size_t expected = naive_peak(runs);
      for (const std::size_t threads : {1u, 3u, 8u}) {
        EXPECT_EQ(swept_peak(runs, threads), expected)
            << "unit " << unit << ", seed " << seed << ", " << threads
            << " threads";
      }
    }
  }
}

}  // namespace
}  // namespace sigcomp::exp
