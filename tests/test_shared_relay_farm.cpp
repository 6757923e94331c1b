// Tests of the shared-relay workload: the SharedRelayHub protocol endpoint
// in isolation, the fabric farm's determinism contract (element-wise
// identical per-session results across thread counts, shard sizes AND
// event-queue backends), the new counters, option validation, and the
// explicit-teardown pricing satellite.  Suite names carry "SharedRelay" so
// the CI TSan leg picks them up.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <latch>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/params.hpp"
#include "core/protocol.hpp"
#include "core/rng_streams.hpp"
#include "exp/parallel.hpp"
#include "exp/session_farm.hpp"
#include "protocols/message.hpp"
#include "protocols/shared_relay.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace sigcomp::exp {
namespace {

using protocols::Message;
using protocols::MessageType;
using protocols::SharedRelayHub;
using protocols::TimerSettings;

SessionFarmOptions relay_farm(std::size_t sessions, std::size_t relays,
                              std::size_t subscribers_per_relay) {
  SessionFarmOptions options;
  options.seed = 17;
  options.sessions = sessions;
  options.arrival_rate = static_cast<double>(sessions) / 20.0;
  options.session_lifetime = 30.0;
  options.threads = 1;
  options.shared_relays = relays;
  options.subscribers_per_relay = subscribers_per_relay;
  options.keep_per_session = true;
  return options;
}

/// Arrivals over 400 s with 10 s lifetimes: each subscriber arena slot --
/// and the relay-client state stored by slot -- is reused many times over.
/// Pinned by GoldenTrace.RecyclingSharedRelayFarmMetricStreamIsPinned.
SessionFarmOptions recycling_relay_farm() {
  SessionFarmOptions options = relay_farm(400, 8, 25);
  options.arrival_rate = 1.0;
  options.session_lifetime = 10.0;
  return options;
}

TEST(SharedRelayHubUnit, InstallExpireReinstallAndComplete) {
  sim::Simulator sim;
  sim::Rng rng(1, 2);
  std::vector<std::pair<std::uint64_t, Message>> sent;
  bool completed = false;
  // SS mechanisms: soft-state timeout on, so an unrefreshed slot expires.
  SharedRelayHub hub(
      sim, rng, mechanisms(ProtocolKind::kSS),
      TimerSettings{sim::Distribution::kDeterministic, 5.0, 15.0, 0.5},
      {9, 3},  // unsorted on purpose: the hub canonicalizes
      [&sent](std::uint64_t dest, const Message& m) {
        sent.emplace_back(dest, m);
      },
      [&completed] { completed = true; });
  hub.begin();

  // Install from subscriber 3 at t = 0: acknowledged immediately.
  hub.handle(3, Message{MessageType::kTrigger, 3, 1, 0});
  EXPECT_EQ(hub.installs(), 1u);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].first, 3u);
  EXPECT_EQ(sent[0].second.type, MessageType::kAckTrigger);

  // An unknown source is counted and dropped.
  hub.handle(5, Message{MessageType::kTrigger, 5, 1, 0});
  EXPECT_EQ(hub.unknown_dropped(), 1u);
  EXPECT_EQ(hub.installs(), 1u);

  // Fan-out echoes the held value every refresh period (5 s); the slot
  // expires unrefreshed at t = 15, after which fan-out has nothing to echo
  // and the subscriber counts as missing.
  sim.run_until(30.0);
  std::size_t fanout_echoes = 0;
  for (const auto& [dest, msg] : sent) {
    if (msg.type == MessageType::kRefresh) {
      EXPECT_EQ(dest, 3u);
      ++fanout_echoes;
    }
  }
  EXPECT_EQ(fanout_echoes, 2u);  // t = 5 and t = 10; expired afterwards
  EXPECT_EQ(hub.soft_timeouts(), 1u);
  // Missing over [15, 30] of a 30 s window, one of two subscribers.
  EXPECT_NEAR(hub.missing_fraction(30.0), 0.25, 1e-12);

  // A refresh that finds the slot expired re-installs (priced as install).
  hub.handle(3, Message{MessageType::kRefresh, 3, 7, 0});
  EXPECT_EQ(hub.installs(), 2u);
  EXPECT_EQ(hub.refreshes(), 0u);

  // Departures: complete exactly when the last subscriber's REMOVE lands.
  hub.handle(3, Message{MessageType::kRemove, 3, 8, 0});
  EXPECT_FALSE(completed);
  EXPECT_FALSE(hub.complete());
  hub.handle(9, Message{MessageType::kRemove, 9, 1, 0});
  EXPECT_TRUE(completed);
  EXPECT_TRUE(hub.complete());
}

TEST(SharedRelayFarm, RunsAndReportsFabricCounters) {
  const SessionFarmOptions options = relay_farm(48, 4, 6);
  const SessionFarmResult result = run_session_farm(
      ProtocolKind::kSS, SingleHopParams::kazaa_defaults(), options);
  // 48 subscribers + 4 relay sessions, every one completed and measured.
  EXPECT_EQ(result.sessions, 52u);
  EXPECT_EQ(result.relay_sessions, 4u);
  EXPECT_EQ(result.summary.replications, 52u);
  EXPECT_EQ(result.per_session.size(), 52u);
  // 24 participating subscribers: at least one install each, and every
  // install/refresh/remove crossed the fabric.
  EXPECT_GE(result.relay_installs, 24u);
  EXPECT_GT(result.relay_refreshes, 0u);
  EXPECT_GT(result.fabric_messages, 48u);
  // Echoes the hubs fan out after a subscriber has completed are dropped
  // at its shard.
  EXPECT_GT(result.fabric_dropped, 0u);
  EXPECT_LT(result.fabric_dropped, result.fabric_messages);
  EXPECT_GT(result.fabric_rings, 0u);
  EXPECT_GT(result.fabric_epochs, 0u);
  // Relay metrics ride in the tail of per_session: relays live from t = 0,
  // far longer than any subscriber's exponential lifetime window.
  for (std::size_t r = 48; r < 52; ++r) {
    EXPECT_GT(result.per_session[r].session_length, 20.0);
  }
  // A hub timeout shorter than the refresh interval expires subscriber
  // slots between refreshes.  Each expiry counts as a relay soft timeout
  // and as a receiver timeout, and every install past a subscriber's first
  // re-installs an expired slot.
  SingleHopParams expiring = SingleHopParams::kazaa_defaults();
  expiring.timeout_timer = 0.8 * expiring.refresh_timer;
  const SessionFarmResult expired =
      run_session_farm(ProtocolKind::kSS, expiring, options);
  EXPECT_GT(expired.relay_soft_timeouts, 0u);
  EXPECT_LE(expired.relay_soft_timeouts, expired.receiver_timeouts);
  ASSERT_GE(expired.relay_installs, 24u);
  EXPECT_GE(expired.relay_soft_timeouts, expired.relay_installs - 24u);
}

TEST(SharedRelayFarm, ElementWiseIdenticalAcrossThreadsAndShardSizes) {
  // The crown-jewel contract extended to communicating sessions: per-session
  // results and every fabric counter must be identical -- element-wise,
  // bitwise -- at any thread count and any shard size.  (Event counts are
  // NOT compared across shard sizes: the flush-event count legitimately
  // depends on the number of shards.)  Two inputs: a hold-like farm whose
  // slots barely recycle, and one whose subscriber slots recycle many times.
  const SingleHopParams params = SingleHopParams::kazaa_defaults();
  for (const SessionFarmOptions& base :
       {relay_farm(48, 4, 6), recycling_relay_farm()}) {
    const SessionFarmResult golden =
        run_session_farm(ProtocolKind::kSS, params, base);
    const std::size_t total = base.sessions + base.shared_relays;
    ASSERT_EQ(golden.per_session.size(), total);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      for (const std::size_t shard_size : {7u, 64u, 4096u}) {
        SessionFarmOptions options = base;
        options.threads = threads;
        options.shard_size = shard_size;
        const SessionFarmResult result =
            run_session_farm(ProtocolKind::kSS, params, options);
        SCOPED_TRACE(testing::Message()
                     << "sessions=" << base.sessions << " threads=" << threads
                     << " shard_size=" << shard_size);
        ASSERT_EQ(result.per_session.size(), golden.per_session.size());
        for (std::size_t i = 0; i < golden.per_session.size(); ++i) {
          EXPECT_EQ(result.per_session[i].inconsistency,
                    golden.per_session[i].inconsistency)
              << "session " << i;
          EXPECT_EQ(result.per_session[i].session_length,
                    golden.per_session[i].session_length)
              << "session " << i;
          EXPECT_EQ(result.per_session[i].raw_message_rate,
                    golden.per_session[i].raw_message_rate)
              << "session " << i;
          EXPECT_EQ(result.per_session[i].message_rate,
                    golden.per_session[i].message_rate)
              << "session " << i;
        }
        EXPECT_EQ(result.messages, golden.messages);
        EXPECT_EQ(result.fabric_messages, golden.fabric_messages);
        EXPECT_EQ(result.fabric_dropped, golden.fabric_dropped);
        EXPECT_EQ(result.fabric_epochs, golden.fabric_epochs);
        EXPECT_EQ(result.relay_installs, golden.relay_installs);
        EXPECT_EQ(result.relay_refreshes, golden.relay_refreshes);
        EXPECT_EQ(result.relay_soft_timeouts, golden.relay_soft_timeouts);
        EXPECT_EQ(result.receiver_timeouts, golden.receiver_timeouts);
        EXPECT_EQ(result.peak_sessions_in_flight,
                  golden.peak_sessions_in_flight);
      }
    }
  }
  // At shard size 4096 the recycling farm's 400 subscribers share one
  // shard, whose arena must reuse slots rather than hold all 400.
  SessionFarmOptions one_shard = recycling_relay_farm();
  one_shard.shard_size = 4096;
  const SessionFarmResult recycled =
      run_session_farm(ProtocolKind::kSS, params, one_shard);
  EXPECT_LT(recycled.arena_slot_high_water, one_shard.sessions);
}

TEST(SharedRelayFarm, PeakCountsEveryRelayFromTimeZero) {
  // Every relay begins at t = 0, so the relays' starts tie, within a relay
  // shard and across relay shards.  The farm's sweep over per-shard sorted
  // runs must match a global sort of every session's [begin, completion]
  // interval.  The oracle's intervals come from per-session results: a
  // relay's session_length is its completion time, and a subscriber's
  // begin is the first draw of its kSessionLifecycle stream (the draw the
  // farm makes), its completion that plus its session_length.
  const SingleHopParams params = SingleHopParams::kazaa_defaults();
  const SessionFarmOptions base = recycling_relay_farm();
  const SessionFarmResult golden =
      run_session_farm(ProtocolKind::kSS, params, base);
  ASSERT_EQ(golden.per_session.size(), base.sessions + base.shared_relays);
  const double window =
      static_cast<double>(base.sessions) / base.arrival_rate;
  std::vector<double> starts;
  std::vector<double> ends;
  for (std::size_t g = 0; g < golden.per_session.size(); ++g) {
    double start = 0.0;
    if (g < base.sessions) {
      sim::Rng lifecycle(replica_seed(base.seed, g, 0),
                         rng::kSessionLifecycle);
      start = window * lifecycle.uniform();
    }
    starts.push_back(start);
    ends.push_back(start + golden.per_session[g].session_length);
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
  // The relays outlive the arrival window, so they are all in the peak.
  EXPECT_GT(peak, base.shared_relays);
  for (const std::size_t threads : {1u, 8u}) {
    for (const std::size_t shard_size : {7u, 4096u}) {
      SessionFarmOptions options = base;
      options.threads = threads;
      options.shard_size = shard_size;
      const SessionFarmResult result =
          run_session_farm(ProtocolKind::kSS, params, options);
      EXPECT_EQ(result.peak_sessions_in_flight, peak)
          << "threads=" << threads << " shard_size=" << shard_size;
    }
  }
}

TEST(SharedRelayFarm, BitIdenticalAcrossEventQueueBackends) {
  // Same decomposition, both backends: the negotiated epoch horizons (via
  // next_pending_within) and every event must agree exactly, so even the
  // executed-event count matches.
  const SingleHopParams params = SingleHopParams::kazaa_defaults();
  SessionFarmOptions heap_options = relay_farm(48, 4, 6);
  heap_options.shard_size = 16;
  heap_options.threads = 2;
  heap_options.event_queue = sim::EventQueueBackend::kHeap;
  SessionFarmOptions wheel_options = heap_options;
  wheel_options.event_queue = sim::EventQueueBackend::kWheel;
  const SessionFarmResult heap =
      run_session_farm(ProtocolKind::kSSRT, params, heap_options);
  const SessionFarmResult wheel =
      run_session_farm(ProtocolKind::kSSRT, params, wheel_options);
  ASSERT_EQ(heap.per_session.size(), wheel.per_session.size());
  for (std::size_t i = 0; i < heap.per_session.size(); ++i) {
    EXPECT_EQ(heap.per_session[i].inconsistency,
              wheel.per_session[i].inconsistency);
    EXPECT_EQ(heap.per_session[i].raw_message_rate,
              wheel.per_session[i].raw_message_rate);
  }
  EXPECT_EQ(heap.messages, wheel.messages);
  EXPECT_EQ(heap.fabric_messages, wheel.fabric_messages);
  EXPECT_EQ(heap.fabric_epochs, wheel.fabric_epochs);
  EXPECT_EQ(heap.events_executed, wheel.events_executed);
  EXPECT_EQ(heap.horizon, wheel.horizon);
}

/// Every per-session result, events_executed and fabric counter of two
/// runs of one farm configuration.
void expect_same_farm(const SessionFarmResult& got,
                      const SessionFarmResult& want) {
  ASSERT_EQ(got.per_session.size(), want.per_session.size());
  for (std::size_t i = 0; i < want.per_session.size(); ++i) {
    EXPECT_EQ(got.per_session[i].inconsistency,
              want.per_session[i].inconsistency)
        << "session " << i;
    EXPECT_EQ(got.per_session[i].session_length,
              want.per_session[i].session_length)
        << "session " << i;
    EXPECT_EQ(got.per_session[i].raw_message_rate,
              want.per_session[i].raw_message_rate)
        << "session " << i;
    EXPECT_EQ(got.per_session[i].message_rate,
              want.per_session[i].message_rate)
        << "session " << i;
  }
  EXPECT_EQ(got.events_executed, want.events_executed);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.fabric_messages, want.fabric_messages);
  EXPECT_EQ(got.fabric_dropped, want.fabric_dropped);
  EXPECT_EQ(got.fabric_rings, want.fabric_rings);
  EXPECT_EQ(got.fabric_epochs, want.fabric_epochs);
  EXPECT_EQ(got.fabric_ring_high_water, want.fabric_ring_high_water);
  EXPECT_EQ(got.relay_installs, want.relay_installs);
  EXPECT_EQ(got.relay_refreshes, want.relay_refreshes);
  EXPECT_EQ(got.relay_soft_timeouts, want.relay_soft_timeouts);
}

TEST(SharedRelayFarm, BitIdenticalOnABusyPool) {
  // The epoch loop counts shards, not threads: with all but one pool thread
  // parked elsewhere, the one free thread runs every shard of every phase
  // and the farm comes out identical to the free-pool run.
  const SingleHopParams params = SingleHopParams::kazaa_defaults();
  ParallelSweep engine(4);
  SessionFarmOptions options = recycling_relay_farm();
  options.shard_size = 64;  // 7 subscriber shards + 1 relay shard
  options.engine = &engine;
  const SessionFarmResult free_pool =
      run_session_farm(ProtocolKind::kSSER, params, options);

  std::latch parked(3);
  std::latch release(1);
  for (int t = 0; t < 3; ++t) {
    engine.pool().submit([&parked, &release] {
      parked.count_down();
      release.wait();
    });
  }
  parked.wait();
  const SessionFarmResult busy_pool =
      run_session_farm(ProtocolKind::kSSER, params, options);
  release.count_down();
  engine.pool().wait_idle();
  EXPECT_GT(free_pool.fabric_epochs, 0u);
  expect_same_farm(busy_pool, free_pool);
}

TEST(SharedRelayFarm, RingHighWaterIsThreadInvariantAndBounded) {
  const SingleHopParams params = SingleHopParams::kazaa_defaults();
  SessionFarmOptions options = recycling_relay_farm();
  options.shard_size = 64;
  const SessionFarmResult golden =
      run_session_farm(ProtocolKind::kSS, params, options);
  EXPECT_GT(golden.fabric_ring_high_water, 0u);
  EXPECT_LE(golden.fabric_ring_high_water, golden.fabric_messages);
  for (const std::size_t threads : {2u, 8u}) {
    options.threads = threads;
    EXPECT_EQ(run_session_farm(ProtocolKind::kSS, params, options)
                  .fabric_ring_high_water,
              golden.fabric_ring_high_water)
        << threads << " threads";
  }
  const SessionFarmResult relay_free = run_session_farm(
      ProtocolKind::kSS, params, relay_farm(60, 0, 16));
  EXPECT_EQ(relay_free.fabric_ring_high_water, 0u);
}

TEST(SharedRelayFarm, ZeroRelaysLeavesFabricCountersZero) {
  SessionFarmOptions options = relay_farm(60, 0, 16);
  const SessionFarmResult result = run_session_farm(
      ProtocolKind::kSS, SingleHopParams::kazaa_defaults(), options);
  EXPECT_EQ(result.sessions, 60u);
  EXPECT_EQ(result.relay_sessions, 0u);
  EXPECT_EQ(result.fabric_messages, 0u);
  EXPECT_EQ(result.fabric_rings, 0u);
  EXPECT_EQ(result.fabric_epochs, 0u);
  EXPECT_EQ(result.fabric_dropped, 0u);
  EXPECT_EQ(result.relay_installs, 0u);
  EXPECT_EQ(result.teardown_messages, 0u);
}

TEST(SharedRelayFarm, ValidatesRelayOptions) {
  const SingleHopParams params = SingleHopParams::kazaa_defaults();
  // More subscriptions than sessions.
  SessionFarmOptions options = relay_farm(40, 4, 11);
  EXPECT_THROW((void)run_session_farm(ProtocolKind::kSS, params, options),
               std::invalid_argument);
  // Relays without subscribers are meaningless.
  options = relay_farm(40, 4, 0);
  EXPECT_THROW((void)run_session_farm(ProtocolKind::kSS, params, options),
               std::invalid_argument);
  // Shared relays are a single-hop workload.
  MultiHopParams chain;
  chain.hops = 2;
  options = relay_farm(40, 4, 4);
  EXPECT_THROW((void)run_session_farm(ProtocolKind::kSSRT, chain, options),
               std::invalid_argument);
  // Exactly at the bound is legal.
  options = relay_farm(40, 4, 10);
  const SessionFarmResult result =
      run_session_farm(ProtocolKind::kSS, params, options);
  EXPECT_EQ(result.sessions, 44u);
}

TEST(SharedRelayTeardown, TreeFarmPricesExplicitTeardown) {
  // The teardown flag replaces the silent window-end stop() with an
  // explicit remove() plus grace period: the removal traffic shows up both
  // in the per-session message counts and in teardown_messages, while the
  // measurement window itself -- and thus inconsistency -- is untouched.
  MultiHopParams chain;
  chain.hops = 3;
  SessionFarmOptions options;
  options.seed = 23;
  options.sessions = 60;
  options.arrival_rate = 3.0;
  options.session_lifetime = 30.0;
  options.threads = 1;
  const SessionFarmResult silent =
      run_session_farm(ProtocolKind::kSSRT, chain, options);
  SessionFarmOptions teardown_options = options;
  teardown_options.teardown = true;
  const SessionFarmResult teardown =
      run_session_farm(ProtocolKind::kSSRT, chain, teardown_options);
  EXPECT_EQ(silent.teardown_messages, 0u);
  EXPECT_GT(teardown.teardown_messages, 0u);
  EXPECT_EQ(teardown.messages, silent.messages + teardown.teardown_messages);
  EXPECT_EQ(teardown.sessions, silent.sessions);
  EXPECT_EQ(teardown.summary.mean.inconsistency,
            silent.summary.mean.inconsistency);
  EXPECT_GT(teardown.summary.mean.raw_message_rate,
            silent.summary.mean.raw_message_rate);

  // Teardown pricing obeys the determinism contract too.
  SessionFarmOptions parallel_options = teardown_options;
  parallel_options.threads = 4;
  parallel_options.shard_size = 13;
  const SessionFarmResult parallel =
      run_session_farm(ProtocolKind::kSSRT, chain, parallel_options);
  EXPECT_EQ(parallel.teardown_messages, teardown.teardown_messages);
  EXPECT_EQ(parallel.messages, teardown.messages);
}

TEST(SharedRelayTeardown, SingleHopRejectsTeardownFlag) {
  SessionFarmOptions options;
  options.sessions = 10;
  options.teardown = true;
  EXPECT_THROW(
      (void)run_session_farm(ProtocolKind::kSS,
                             SingleHopParams::kazaa_defaults(), options),
      std::invalid_argument);
}

}  // namespace
}  // namespace sigcomp::exp
