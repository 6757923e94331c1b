// Tests of the many-session scale harness (exp/session_farm).
#include "exp/session_farm.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "core/params.hpp"
#include "core/protocol.hpp"
#include "exp/parallel.hpp"
#include "protocols/single_hop_run.hpp"

namespace sigcomp::exp {
namespace {

SessionFarmOptions small_farm(std::size_t sessions) {
  SessionFarmOptions options;
  options.seed = 11;
  options.sessions = sessions;
  options.arrival_rate = static_cast<double>(sessions) / 20.0;
  options.session_lifetime = 30.0;
  options.threads = 1;
  return options;
}

TEST(SessionFarm, CompletesEverySession) {
  const SessionFarmResult result = run_session_farm(
      ProtocolKind::kSS, SingleHopParams::kazaa_defaults(), small_farm(300));
  EXPECT_EQ(result.sessions, 300u);
  EXPECT_EQ(result.summary.replications, 300u);
  EXPECT_GT(result.messages, 0u);
  EXPECT_GT(result.events_executed, 0u);
  EXPECT_GT(result.horizon, 0.0);
  EXPECT_GT(result.peak_sessions_in_flight, 0u);
  EXPECT_LE(result.peak_sessions_in_flight, 300u);
}

TEST(SessionFarm, AllFiveProtocolsRun) {
  for (const ProtocolKind kind : kAllProtocols) {
    const SessionFarmResult result = run_session_farm(
        kind, SingleHopParams::kazaa_defaults(), small_farm(100));
    EXPECT_EQ(result.sessions, 100u) << to_string(kind);
    EXPECT_GE(result.summary.mean.inconsistency, 0.0) << to_string(kind);
    EXPECT_LE(result.summary.mean.inconsistency, 1.0) << to_string(kind);
    EXPECT_GT(result.summary.mean.session_length, 0.0) << to_string(kind);
  }
}

TEST(SessionFarm, BitIdenticalAcrossThreadCounts) {
  SessionFarmOptions base = small_farm(400);
  base.shard_size = 64;
  const SessionFarmResult serial = run_session_farm(
      ProtocolKind::kSSRT, SingleHopParams::kazaa_defaults(), base);
  for (const std::size_t threads : {2u, 8u}) {
    SessionFarmOptions opt = base;
    opt.threads = threads;
    const SessionFarmResult parallel = run_session_farm(
        ProtocolKind::kSSRT, SingleHopParams::kazaa_defaults(), opt);
    EXPECT_EQ(serial.summary.mean.inconsistency,
              parallel.summary.mean.inconsistency);
    EXPECT_EQ(serial.summary.mean.message_rate,
              parallel.summary.mean.message_rate);
    EXPECT_EQ(serial.summary.inconsistency.half_width,
              parallel.summary.inconsistency.half_width);
    EXPECT_EQ(serial.messages, parallel.messages);
    EXPECT_EQ(serial.events_executed, parallel.events_executed);
    EXPECT_EQ(serial.horizon, parallel.horizon);
    EXPECT_EQ(serial.receiver_timeouts, parallel.receiver_timeouts);
  }
}

TEST(SessionFarm, BitIdenticalAcrossEventQueueBackends) {
  // The determinism contract extends to the event-core backend: heap and
  // wheel farms must agree on every aggregate, down to the event count.
  SessionFarmOptions base = small_farm(400);
  base.shard_size = 64;
  base.event_queue = sim::EventQueueBackend::kHeap;
  const SessionFarmResult heap = run_session_farm(
      ProtocolKind::kSSRT, SingleHopParams::kazaa_defaults(), base);
  SessionFarmOptions wheel_opt = base;
  wheel_opt.event_queue = sim::EventQueueBackend::kWheel;
  const SessionFarmResult wheel = run_session_farm(
      ProtocolKind::kSSRT, SingleHopParams::kazaa_defaults(), wheel_opt);
  EXPECT_EQ(heap.summary.mean.inconsistency, wheel.summary.mean.inconsistency);
  EXPECT_EQ(heap.summary.mean.message_rate, wheel.summary.mean.message_rate);
  EXPECT_EQ(heap.summary.inconsistency.half_width,
            wheel.summary.inconsistency.half_width);
  EXPECT_EQ(heap.messages, wheel.messages);
  EXPECT_EQ(heap.events_executed, wheel.events_executed);
  EXPECT_EQ(heap.horizon, wheel.horizon);
  EXPECT_EQ(heap.receiver_timeouts, wheel.receiver_timeouts);
  EXPECT_EQ(heap.peak_sessions_in_flight, wheel.peak_sessions_in_flight);
}

TEST(SessionFarm, BitIdenticalAcrossShardSizes) {
  // Stronger than thread independence: per-session randomness is keyed to
  // the global session index, so even the shard decomposition cannot move
  // a single output bit of the per-session aggregates.
  SessionFarmOptions base = small_farm(400);
  base.shard_size = 400;  // one shard
  const SessionFarmResult one_shard = run_session_farm(
      ProtocolKind::kSS, SingleHopParams::kazaa_defaults(), base);
  for (const std::size_t shard_size : {1u, 7u, 64u, 399u}) {
    SessionFarmOptions opt = base;
    opt.shard_size = shard_size;
    const SessionFarmResult sharded = run_session_farm(
        ProtocolKind::kSS, SingleHopParams::kazaa_defaults(), opt);
    EXPECT_EQ(one_shard.summary.mean.inconsistency,
              sharded.summary.mean.inconsistency)
        << "shard_size " << shard_size;
    EXPECT_EQ(one_shard.summary.mean.message_rate,
              sharded.summary.mean.message_rate)
        << "shard_size " << shard_size;
    EXPECT_EQ(one_shard.summary.mean.session_length,
              sharded.summary.mean.session_length)
        << "shard_size " << shard_size;
    EXPECT_EQ(one_shard.summary.inconsistency.half_width,
              sharded.summary.inconsistency.half_width)
        << "shard_size " << shard_size;
    EXPECT_EQ(one_shard.messages, sharded.messages)
        << "shard_size " << shard_size;
    EXPECT_EQ(one_shard.receiver_timeouts, sharded.receiver_timeouts)
        << "shard_size " << shard_size;
  }
}

TEST(SessionFarm, SharedEngineMatchesPrivatePool) {
  SessionFarmOptions base = small_farm(200);
  const SessionFarmResult own_pool = run_session_farm(
      ProtocolKind::kSSER, SingleHopParams::kazaa_defaults(), base);
  ParallelSweep engine(4);
  SessionFarmOptions shared = base;
  shared.engine = &engine;
  const SessionFarmResult with_engine = run_session_farm(
      ProtocolKind::kSSER, SingleHopParams::kazaa_defaults(), shared);
  EXPECT_EQ(own_pool.summary.mean.inconsistency,
            with_engine.summary.mean.inconsistency);
  EXPECT_EQ(own_pool.messages, with_engine.messages);
}

TEST(SessionFarm, SoftStateSeesOrphanWindowHardStateDoesNot) {
  // A farm session ends with a graceful removal; soft-state receivers hold
  // orphaned state until timeout only when the removal message is lost, so
  // with losses pure SS (no explicit removal at all -- every session ends
  // by timeout) must be much more inconsistent than SS+RTR/HS.
  SessionFarmOptions options = small_farm(300);
  SingleHopParams params = SingleHopParams::kazaa_defaults();
  params.loss = 0.05;
  const SessionFarmResult ss =
      run_session_farm(ProtocolKind::kSS, params, options);
  const SessionFarmResult ssrtr =
      run_session_farm(ProtocolKind::kSSRTR, params, options);
  EXPECT_GT(ss.summary.mean.inconsistency,
            ssrtr.summary.mean.inconsistency);
  EXPECT_GT(ss.receiver_timeouts, ssrtr.receiver_timeouts);
}

TEST(SessionFarm, PerSessionMetricsMatchRenewalHarnessScale) {
  // The farm measures the same per-session quantities as the renewal
  // harness (protocols/run_single_hop); with matched lifetimes the mean
  // session length must agree within statistical noise.
  SessionFarmOptions options = small_farm(500);
  options.session_lifetime = 30.0;
  SingleHopParams params = SingleHopParams::kazaa_defaults();
  params.removal_rate = 1.0 / 30.0;
  const SessionFarmResult farm =
      run_session_farm(ProtocolKind::kSSRTR, params, options);
  protocols::SimOptions renewal_options;
  renewal_options.sessions = 500;
  renewal_options.seed = 11;
  const protocols::SimResult renewal =
      protocols::run_single_hop(ProtocolKind::kSSRTR, params, renewal_options);
  EXPECT_NEAR(farm.summary.mean.session_length, renewal.metrics.session_length,
              0.25 * renewal.metrics.session_length);
  EXPECT_NEAR(farm.summary.mean.message_rate, renewal.metrics.message_rate,
              0.25 * renewal.metrics.message_rate);
}

TEST(SessionFarm, MultiHopChainsRunAndTearDown) {
  MultiHopParams params;
  params.hops = 3;
  SessionFarmOptions options = small_farm(100);
  for (const ProtocolKind kind : kMultiHopProtocols) {
    const SessionFarmResult result = run_session_farm(kind, params, options);
    EXPECT_EQ(result.sessions, 100u) << to_string(kind);
    EXPECT_GT(result.messages, 0u) << to_string(kind);
    EXPECT_GE(result.summary.mean.inconsistency, 0.0) << to_string(kind);
    EXPECT_LT(result.summary.mean.inconsistency, 0.5) << to_string(kind);
  }
}

TEST(SessionFarm, MultiHopBitIdenticalAcrossShardSizes) {
  MultiHopParams params;
  params.hops = 2;
  SessionFarmOptions base = small_farm(120);
  base.shard_size = 120;
  const SessionFarmResult one_shard =
      run_session_farm(ProtocolKind::kSSRT, params, base);
  SessionFarmOptions sharded_options = base;
  sharded_options.shard_size = 11;
  const SessionFarmResult sharded =
      run_session_farm(ProtocolKind::kSSRT, params, sharded_options);
  EXPECT_EQ(one_shard.summary.mean.inconsistency,
            sharded.summary.mean.inconsistency);
  EXPECT_EQ(one_shard.messages, sharded.messages);
  EXPECT_EQ(one_shard.receiver_timeouts, sharded.receiver_timeouts);
}

TEST(SessionFarm, ValidatesOptions) {
  const SingleHopParams params = SingleHopParams::kazaa_defaults();
  SessionFarmOptions options = small_farm(10);
  options.sessions = 0;
  EXPECT_THROW((void)run_session_farm(ProtocolKind::kSS, params, options),
               std::invalid_argument);
  options = small_farm(10);
  options.arrival_rate = 0.0;
  EXPECT_THROW((void)run_session_farm(ProtocolKind::kSS, params, options),
               std::invalid_argument);
  options = small_farm(10);
  options.session_lifetime = -1.0;
  EXPECT_THROW((void)run_session_farm(ProtocolKind::kSS, params, options),
               std::invalid_argument);
  options = small_farm(10);
  options.shard_size = 0;
  EXPECT_THROW((void)run_session_farm(ProtocolKind::kSS, params, options),
               std::invalid_argument);
  // Leaf churn prunes trees; a single-hop farm has none to prune.
  options = small_farm(10);
  options.leaf_churn.leaf_lifetime = 30.0;
  EXPECT_THROW((void)run_session_farm(ProtocolKind::kSS, params, options),
               std::invalid_argument);
  // Churn knobs must be sane even for chain/tree farms.
  MultiHopParams chain;
  options = small_farm(10);
  options.leaf_churn.leaf_lifetime = -2.0;
  EXPECT_THROW((void)run_session_farm(ProtocolKind::kSS, chain, options),
               std::invalid_argument);
}

TEST(SessionFarm, RejectsShardSizeBeyondThirtyTwoBitIndices) {
  // Arena slots and the simulator's arrival cursor index a shard's
  // sessions with 32 bits, so a wider shard must fail loudly up front --
  // on every farm type -- rather than wrap.
  constexpr std::size_t kMax = std::numeric_limits<std::uint32_t>::max();
  const SingleHopParams params = SingleHopParams::kazaa_defaults();
  SessionFarmOptions options = small_farm(10);
  options.shard_size = kMax + 1;
  EXPECT_THROW((void)run_session_farm(ProtocolKind::kSS, params, options),
               std::invalid_argument);
  EXPECT_THROW((void)run_session_farm(ProtocolKind::kSS, MultiHopParams{},
                                      options),
               std::invalid_argument);
  options.shared_relays = 2;
  options.subscribers_per_relay = 2;
  EXPECT_THROW((void)run_session_farm(ProtocolKind::kSS, params, options),
               std::invalid_argument);
  // The widest legal value runs (clamped to the session count).
  options = small_farm(10);
  options.shard_size = kMax;
  EXPECT_EQ(run_session_farm(ProtocolKind::kSS, params, options).sessions,
            10u);
}

}  // namespace
}  // namespace sigcomp::exp
