// More pool threads than cores: the calling thread is pinned to one CPU
// and an 8-thread pool is built under that mask (its threads inherit it),
// so every pool thread competes for one core and any of them can be
// descheduled at any point.  Both farm loops -- relay-free shards that run
// to completion on whichever thread claims them, and the shared-relay
// farm's lockstep epochs inside parallel_phases -- and the phase gate
// itself must then still run every item exactly once and give the 1-thread
// results bit for bit.  Only completion and equality are asserted, never a
// time.  Suite names carry "Farm" or "Parallel" so the TSan leg runs them.
#include <gtest/gtest.h>

#ifdef __linux__

#include <sched.h>

#include <cstddef>
#include <vector>

#include "core/metrics.hpp"
#include "core/params.hpp"
#include "core/protocol.hpp"
#include "exp/parallel.hpp"
#include "exp/session_farm.hpp"
#include "exp/thread_pool.hpp"

namespace sigcomp::exp {
namespace {

constexpr std::size_t kPoolThreads = 8;

/// Pins the calling thread (only it: pid 0 names the caller) to the first
/// CPU of its affinity mask for the scope, and restores the mask on exit.
class PinnedToOneCpu {
 public:
  PinnedToOneCpu() {
    CPU_ZERO(&saved_);
    saved_ok_ = sched_getaffinity(0, sizeof(saved_), &saved_) == 0;
    if (!saved_ok_) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &one);
        break;
      }
    }
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinnedToOneCpu() {
    if (saved_ok_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinnedToOneCpu(const PinnedToOneCpu&) = delete;
  PinnedToOneCpu& operator=(const PinnedToOneCpu&) = delete;

  /// True when the caller now runs on exactly one CPU.
  [[nodiscard]] bool pinned() const {
    cpu_set_t now;
    CPU_ZERO(&now);
    return pinned_ && sched_getaffinity(0, sizeof(now), &now) == 0 &&
           CPU_COUNT(&now) == 1;
  }

 private:
  cpu_set_t saved_;
  bool saved_ok_ = false;
  bool pinned_ = false;
};

/// Every per-session metric and every counter of two runs of one farm.
void expect_same_farm(const SessionFarmResult& got,
                      const SessionFarmResult& want) {
  ASSERT_EQ(got.per_session.size(), want.per_session.size());
  for (std::size_t i = 0; i < want.per_session.size(); ++i) {
    const Metrics& g = got.per_session[i];
    const Metrics& w = want.per_session[i];
    EXPECT_EQ(g.inconsistency, w.inconsistency) << "session " << i;
    EXPECT_EQ(g.message_rate, w.message_rate) << "session " << i;
    EXPECT_EQ(g.raw_message_rate, w.raw_message_rate) << "session " << i;
    EXPECT_EQ(g.session_length, w.session_length) << "session " << i;
    EXPECT_EQ(g.breakdown.trigger, w.breakdown.trigger) << "session " << i;
    EXPECT_EQ(g.breakdown.refresh, w.breakdown.refresh) << "session " << i;
    EXPECT_EQ(g.breakdown.explicit_removal, w.breakdown.explicit_removal)
        << "session " << i;
    EXPECT_EQ(g.breakdown.reliable_trigger, w.breakdown.reliable_trigger)
        << "session " << i;
    EXPECT_EQ(g.breakdown.reliable_removal, w.breakdown.reliable_removal)
        << "session " << i;
  }
  EXPECT_EQ(got.events_executed, want.events_executed);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.receiver_timeouts, want.receiver_timeouts);
  EXPECT_EQ(got.relay_installs, want.relay_installs);
  EXPECT_EQ(got.relay_refreshes, want.relay_refreshes);
  EXPECT_EQ(got.relay_soft_timeouts, want.relay_soft_timeouts);
  EXPECT_EQ(got.fabric_dropped, want.fabric_dropped);
  EXPECT_EQ(got.horizon, want.horizon);
  EXPECT_EQ(got.peak_sessions_in_flight, want.peak_sessions_in_flight);
  EXPECT_EQ(got.fabric_messages, want.fabric_messages);
  EXPECT_EQ(got.fabric_epochs, want.fabric_epochs);
}

/// Runs `options` once on one thread, then on an 8-thread pool confined to
/// one CPU, compares the two and returns the confined run.
SessionFarmResult expect_oversubscribed_run_matches_one_thread(
    ProtocolKind kind, SessionFarmOptions options) {
  options.keep_per_session = true;
  options.engine = nullptr;
  options.threads = 1;
  const SessionFarmResult serial =
      run_session_farm(kind, SingleHopParams::kazaa_defaults(), options);

  const PinnedToOneCpu pin;
  EXPECT_TRUE(pin.pinned());
  ParallelSweep engine(kPoolThreads);
  options.engine = &engine;
  SessionFarmResult crowded =
      run_session_farm(kind, SingleHopParams::kazaa_defaults(), options);
  expect_same_farm(crowded, serial);
  return crowded;
}

TEST(SessionFarm, MoreThreadsThanAllowedCoresMatchOneThread) {
  // 40 relay-free shards, five per pool thread.
  SessionFarmOptions options;
  options.seed = 23;
  options.sessions = 2000;
  options.shard_size = 50;
  options.arrival_rate = 100.0;
  options.session_lifetime = 60.0;
  const SessionFarmResult crowded =
      expect_oversubscribed_run_matches_one_thread(ProtocolKind::kSSRT,
                                                   options);
  EXPECT_EQ(crowded.shards, 40u);
}

TEST(SharedRelayFarm, MoreThreadsThanAllowedCoresMatchOneThread) {
  // 25 subscriber shards and one relay shard in lockstep epochs.
  SessionFarmOptions options;
  options.seed = 29;
  options.sessions = 400;
  options.shard_size = 16;
  options.arrival_rate = 20.0;
  options.session_lifetime = 30.0;
  options.shared_relays = 8;
  options.subscribers_per_relay = 25;
  const SessionFarmResult crowded =
      expect_oversubscribed_run_matches_one_thread(ProtocolKind::kSSER,
                                                   options);
  EXPECT_EQ(crowded.shards, 26u);
  EXPECT_GT(crowded.fabric_messages, 0u);
}

TEST(ParallelPhases, MoreThreadsThanAllowedCoresRunEachItemOnce) {
  constexpr std::size_t kItems = 13;
  constexpr std::size_t kPhases = 200;
  // Plain ints: a double claim is a data race TSan reports, and the count
  // catches it anywhere.
  std::vector<std::vector<int>> hits(kPhases, std::vector<int>(kItems, 0));
  std::vector<int> ends(kPhases, 0);
  {
    const PinnedToOneCpu pin;
    ASSERT_TRUE(pin.pinned());
    ThreadPool pool(kPoolThreads);
    parallel_phases(
        pool, kItems,
        [&hits](std::size_t phase, std::size_t i) { ++hits[phase][i]; },
        [&ends](std::size_t phase) {
          ++ends[phase];
          return phase + 1 < kPhases;
        });
  }
  for (std::size_t p = 0; p < kPhases; ++p) {
    ASSERT_EQ(ends[p], 1) << "end of phase " << p;
    for (std::size_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(hits[p][i], 1) << "phase " << p << " item " << i;
    }
  }
}

}  // namespace
}  // namespace sigcomp::exp

#endif  // __linux__
