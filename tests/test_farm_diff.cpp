// Farm differential suite: the arena/shard-worker farm
// (src/exp/session_farm.cpp) against the preserved pre-arena reference
// (tests/reference_session_farm.cpp), diffed ELEMENT-WISE per session --
// every double of every session's Metrics compared bitwise, not just the
// aggregates -- across all five protocols x {single-hop, chain, tree}
// topologies x {1, 2, 8} threads x shard sizes {7, 64, 4096}, plus a
// churn+scenario configuration, a bursts-only one, one where HS false
// signals fire and one with bursty loss and heavy-tailed delays.  This is
// the lock on the rewrite's core claim: arenas, slot recycling, sliced
// execution and batched expiry delivery change WHERE sessions live and
// WHEN their events are popped, never what they compute.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "analytic/tree_paths.hpp"
#include "core/params.hpp"
#include "core/protocol.hpp"
#include "exp/session_farm.hpp"
#include "protocols/membership.hpp"
#include "protocols/scenario.hpp"
#include "reference_session_farm.hpp"
#include "sim/channel_process.hpp"

namespace sigcomp::exp {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};
constexpr std::size_t kShardSizes[] = {7, 64, 4096};

/// Small enough that the full matrix (and its TSan leg) stays fast, large
/// enough that every shard size in kShardSizes exercises a different
/// decomposition (72 sessions -> 11 shards of 7, 2 of 64, 1 of 4096).
constexpr std::size_t kSessions = 72;

SessionFarmOptions diff_farm() {
  SessionFarmOptions options;
  options.seed = 23;
  options.sessions = kSessions;
  options.arrival_rate = static_cast<double>(kSessions) / 12.0;
  options.session_lifetime = 20.0;
  options.threads = 1;
  options.keep_per_session = true;
  return options;
}

MultiHopParams diff_hop_params() {
  MultiHopParams params;
  params.loss = 0.02;
  params.delay = 0.01;
  params.update_rate = 1.0 / 15.0;
  return params;
}

/// Bitwise equality of two per-session metric vectors, element-wise: any
/// divergence names the first offending session and field.
void expect_sessions_identical(const std::vector<Metrics>& expected,
                               const std::vector<Metrics>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const Metrics& e = expected[i];
    const Metrics& a = actual[i];
    EXPECT_EQ(e.inconsistency, a.inconsistency) << "session " << i;
    EXPECT_EQ(e.message_rate, a.message_rate) << "session " << i;
    EXPECT_EQ(e.raw_message_rate, a.raw_message_rate) << "session " << i;
    EXPECT_EQ(e.session_length, a.session_length) << "session " << i;
    EXPECT_EQ(e.breakdown.trigger, a.breakdown.trigger) << "session " << i;
    EXPECT_EQ(e.breakdown.refresh, a.breakdown.refresh) << "session " << i;
    EXPECT_EQ(e.breakdown.explicit_removal, a.breakdown.explicit_removal)
        << "session " << i;
    EXPECT_EQ(e.breakdown.reliable_trigger, a.breakdown.reliable_trigger)
        << "session " << i;
    EXPECT_EQ(e.breakdown.reliable_removal, a.breakdown.reliable_removal)
        << "session " << i;
  }
}

/// Everything except peak_sessions_in_flight, which the reference computes
/// as a summed-per-shard upper bound (exact only at a single shard) while
/// the production farm computes it exactly at any shard size -- the peak
/// lock tests below cover it.
void expect_farms_identical(const SessionFarmResult& reference,
                            const SessionFarmResult& arena) {
  expect_sessions_identical(reference.per_session, arena.per_session);
  EXPECT_EQ(reference.sessions, arena.sessions);
  EXPECT_EQ(reference.shards, arena.shards);
  EXPECT_EQ(reference.messages, arena.messages);
  EXPECT_EQ(reference.events_executed, arena.events_executed);
  EXPECT_EQ(reference.receiver_timeouts, arena.receiver_timeouts);
  EXPECT_EQ(reference.horizon, arena.horizon);
  EXPECT_EQ(reference.relay_crashes, arena.relay_crashes);
  EXPECT_EQ(reference.relay_recoveries, arena.relay_recoveries);
  EXPECT_EQ(reference.teardown_messages, arena.teardown_messages);
  EXPECT_TRUE(reference.churn == arena.churn);
  EXPECT_EQ(reference.summary.mean.inconsistency,
            arena.summary.mean.inconsistency);
  EXPECT_EQ(reference.summary.mean.message_rate,
            arena.summary.mean.message_rate);
  EXPECT_EQ(reference.summary.mean.session_length,
            arena.summary.mean.session_length);
}

/// Runs one protocol x topology cell of the matrix: the reference once per
/// shard size (its results are thread-invariant, locked elsewhere), the
/// arena farm at every thread count against it.
template <typename Params>
void diff_matrix_cell(ProtocolKind kind, const Params& params,
                      const SessionFarmOptions& base) {
  for (const std::size_t shard_size : kShardSizes) {
    SessionFarmOptions ref_options = base;
    ref_options.shard_size = shard_size;
    const SessionFarmResult reference =
        testing::run_reference_session_farm(kind, params, ref_options);
    ASSERT_EQ(reference.per_session.size(), base.sessions);
    for (const std::size_t threads : kThreadCounts) {
      SessionFarmOptions options = ref_options;
      options.threads = threads;
      const SessionFarmResult arena = run_session_farm(kind, params, options);
      SCOPED_TRACE(::testing::Message()
                   << to_string(kind) << " shard=" << shard_size
                   << " threads=" << threads);
      expect_farms_identical(reference, arena);
    }
  }
}

TEST(FarmDiff, SingleHopAllProtocolsAllShardSizesAllThreadCounts) {
  for (const ProtocolKind kind : kAllProtocols) {
    diff_matrix_cell(kind, SingleHopParams::kazaa_defaults(), diff_farm());
  }
}

TEST(FarmDiff, ChainAllProtocolsAllShardSizesAllThreadCounts) {
  MultiHopParams params = diff_hop_params();
  params.hops = 3;
  for (const ProtocolKind kind : kMultiHopProtocols) {
    diff_matrix_cell(kind, params, diff_farm());
  }
}

TEST(FarmDiff, TreeAllProtocolsAllShardSizesAllThreadCounts) {
  const analytic::TreeParams params =
      analytic::TreeParams::balanced(diff_hop_params(), 2, 2);
  for (const ProtocolKind kind : kMultiHopProtocols) {
    diff_matrix_cell(kind, params, diff_farm());
  }
}

TEST(FarmDiff, ChurnAndScenarioTreeMatchesReference) {
  // The full correlated-event stack at once: leaf churn, flash-crowd
  // rejoin storms, shared-risk leave bursts and relay crash/recovery --
  // every per-session substream in play.
  SessionFarmOptions base = diff_farm();
  base.leaf_churn.leaf_lifetime = 8.0;
  base.leaf_churn.rejoin_rate = 1.0 / 4.0;
  base.scenario.failure =
      protocols::FailureConfig::relay_crash(1.0 / 30.0, 4.0, 2.0);
  base.scenario.arrival = protocols::ArrivalConfig::flash_crowd(15.0, 1.0, 20.0);
  base.scenario.shared_risk = protocols::SharedRiskConfig::bursts(1.0 / 60.0);
  const analytic::TreeParams params =
      analytic::TreeParams::balanced(diff_hop_params(), 2, 2);
  diff_matrix_cell(ProtocolKind::kSSRT, params, base);
}

TEST(FarmDiff, FiringFalseSignalsTreeMatchesReference) {
  // The default tree false_signal_rate (0.02^4 per second) never fires
  // within a session, so this cell raises it until HS relays take several
  // false external signals each: the schedule, fire and re-arm path, and
  // the cancellation of the pending signals at the end of the window.
  analytic::TreeParams params =
      analytic::TreeParams::balanced(diff_hop_params(), 2, 2);
  params.false_signal_rate = 1.0 / 10.0;
  diff_matrix_cell(ProtocolKind::kHS, params, diff_farm());
}

TEST(FarmDiff, SharedRiskBurstsWithoutLeafChurnMatchReference) {
  // Shared-risk bursts alone: leaf churn is off, yet every session owns a
  // MembershipController, so the farm must still store and reduce each
  // session's churn report -- the case where the predicate that sizes the
  // farm's churn store and the one that builds the controller could drift.
  SessionFarmOptions base = diff_farm();
  base.scenario.shared_risk = protocols::SharedRiskConfig::bursts(1.0 / 5.0);
  const analytic::TreeParams params =
      analytic::TreeParams::balanced(diff_hop_params(), 2, 2);
  diff_matrix_cell(ProtocolKind::kSS, params, base);
  const SessionFarmResult result =
      run_session_farm(ProtocolKind::kSS, params, base);
  EXPECT_GT(result.churn.leaves, 0u);
}

TEST(FarmDiff, RecyclingTreesMatchReference) {
  // Tree sessions reuse their arena slots once quiescent.  Four-second
  // lifetimes over a 120 s arrival window keep a handful of the 72 trees in
  // flight, so every slot is reused -- while each session churns its
  // leaves, takes shared-risk bursts and flash-crowd rejoins, and has
  // relays crash.  A burst-driven leave leaves the leaf's leave timer
  // pending and its rejoin arms a second one, so a finished tree can own
  // several pending timers per leaf: all of them must be defused before
  // the slot is reused.  HS never times its state out and its crashed
  // relays stay deaf after the session ends; SS+RT re-arms timeouts on
  // every straggler.  Teardown on and off: with it a session cools only
  // after a timeout interval of removal traffic.  Half-second hops keep
  // messages on the wire when the next arrival looks for a free slot, so
  // a tree reused before its channels drain would be caught.
  SessionFarmOptions base = diff_farm();
  base.arrival_rate = static_cast<double>(kSessions) / 120.0;
  base.session_lifetime = 4.0;
  base.leaf_churn.leaf_lifetime = 3.0;
  base.leaf_churn.rejoin_rate = 1.0;
  base.scenario.failure = protocols::FailureConfig::relay_crash(0.2, 2.0, 1.0);
  base.scenario.arrival =
      protocols::ArrivalConfig::flash_crowd(20.0, 2.0, 60.0);
  base.scenario.shared_risk = protocols::SharedRiskConfig::bursts(0.5);
  MultiHopParams hop = diff_hop_params();
  hop.delay = 0.5;
  hop.retrans_timer = 2.0;  // 4D
  const analytic::TreeParams params =
      analytic::TreeParams::balanced(hop, 2, 2);
  for (const bool teardown : {false, true}) {
    for (const ProtocolKind kind : {ProtocolKind::kHS, ProtocolKind::kSSRT}) {
      SCOPED_TRACE(::testing::Message()
                   << to_string(kind) << " teardown=" << teardown);
      SessionFarmOptions options = base;
      options.teardown = teardown;
      diff_matrix_cell(kind, params, options);
      // One shard of all 72: its slot high-water mark is the most trees
      // ever constructed at once, so staying below 72 means slots were
      // reused.
      options.shard_size = kSessions;
      const SessionFarmResult result = run_session_farm(kind, params, options);
      EXPECT_LT(result.arena_slot_high_water, kSessions);
      EXPECT_GT(result.churn.leaves, 0u);
      EXPECT_GT(result.relay_crashes, 0u);
    }
  }
}

TEST(FarmDiff, BurstyHeavyTailLinksMatchReference) {
  // Gilbert-Elliott loss with four-message bursts and Pareto delays on
  // every link: the channel paths that step a per-channel chain and draw
  // heavy-tailed latencies, single-hop and on a churning tree.  The farm's
  // sessions read one run-wide link configuration; the reference builds
  // each session's own copies, so a channel that shared its chain state
  // or wrote to the run's link would diverge here.
  SessionFarmOptions base = diff_farm();
  base.delay_model = sim::DelayModel::kPareto;
  base.delay_shape = 1.5;
  {
    SingleHopParams params = SingleHopParams::kazaa_defaults();
    params.loss = 0.1;
    SCOPED_TRACE("single-hop SS+RT");
    diff_matrix_cell(ProtocolKind::kSSRT, params.with_bursty_loss(4.0), base);
  }
  {
    MultiHopParams hop = diff_hop_params();
    hop.loss = 0.1;
    const analytic::TreeParams params =
        analytic::TreeParams::balanced(hop.with_bursty_loss(4.0), 2, 2);
    SessionFarmOptions options = base;
    options.leaf_churn.leaf_lifetime = 8.0;
    options.leaf_churn.rejoin_rate = 1.0 / 4.0;
    SCOPED_TRACE("churning tree HS");
    diff_matrix_cell(ProtocolKind::kHS, params, options);
    const SessionFarmResult result =
        run_session_farm(ProtocolKind::kHS, params, options);
    EXPECT_GT(result.churn.leaves, 0u);
  }
}

TEST(FarmDiff, ChurnFreeFarmsReportNoChurn) {
  // Without a membership process no session stores a churn report, and the
  // reduced report stays all-zero on every session type.
  const SessionFarmOptions base = diff_farm();
  MultiHopParams chain = diff_hop_params();
  chain.hops = 3;
  const analytic::TreeParams tree =
      analytic::TreeParams::balanced(diff_hop_params(), 2, 2);
  EXPECT_TRUE(run_session_farm(ProtocolKind::kSS,
                               SingleHopParams::kazaa_defaults(), base)
                  .churn == protocols::ChurnReport{});
  EXPECT_TRUE(run_session_farm(ProtocolKind::kSSRT, chain, base).churn ==
              protocols::ChurnReport{});
  EXPECT_TRUE(run_session_farm(ProtocolKind::kHS, tree, base).churn ==
              protocols::ChurnReport{});
}

// ------------------------------------------------------- exact peak lock --

/// The peak fix: a single-shard farm's in-simulator peak is exact ground
/// truth, and the production farm's sweep over per-shard sorted runs must
/// reproduce it at ANY shard size (where the reference's summed bound only
/// exceeds it) -- down to shard size 1, 150 runs of one session each, and
/// at more threads than the sweep has chunks.
TEST(FarmDiff, ShardedPeakEqualsSingleShardTruthSingleHop) {
  SessionFarmOptions single = diff_farm();
  single.sessions = 150;
  single.arrival_rate = 150.0 / 12.0;
  single.shard_size = single.sessions;
  const SessionFarmResult truth = testing::run_reference_session_farm(
      ProtocolKind::kSS, SingleHopParams::kazaa_defaults(), single);
  for (const std::size_t threads : {2u, 8u}) {
    for (const std::size_t shard_size : {std::size_t{1}, kShardSizes[0],
                                         kShardSizes[1], kShardSizes[2]}) {
      SessionFarmOptions sharded = single;
      sharded.shard_size = shard_size;
      sharded.threads = threads;
      const SessionFarmResult arena = run_session_farm(
          ProtocolKind::kSS, SingleHopParams::kazaa_defaults(), sharded);
      EXPECT_EQ(arena.shards, (single.sessions + shard_size - 1) / shard_size);
      EXPECT_EQ(arena.peak_sessions_in_flight, truth.peak_sessions_in_flight)
          << "shard_size=" << shard_size << " threads=" << threads;
    }
  }
}

TEST(FarmDiff, ShardedPeakEqualsSingleShardTruthTree) {
  const analytic::TreeParams params =
      analytic::TreeParams::balanced(diff_hop_params(), 2, 2);
  SessionFarmOptions single = diff_farm();
  single.shard_size = single.sessions;
  const SessionFarmResult truth = testing::run_reference_session_farm(
      ProtocolKind::kSSRT, params, single);
  SessionFarmOptions sharded = single;
  sharded.shard_size = 7;
  sharded.threads = 2;
  const SessionFarmResult arena =
      run_session_farm(ProtocolKind::kSSRT, params, sharded);
  EXPECT_EQ(arena.peak_sessions_in_flight, truth.peak_sessions_in_flight);
}

/// With teardown a tree session completes one grace period after its
/// window end but records the window end, so a shard's completion times,
/// appended in completion order, must still form a sorted run.  Shards of
/// one session give sorted runs whatever the order, so they are the
/// reference here.  (The farm's peak counts a session to its window end,
/// so with teardown it is below the single-shard in-simulator peak, which
/// counts the grace period too.)
TEST(FarmDiff, ShardedPeakWithTeardownMatchesOneSessionShards) {
  const analytic::TreeParams params =
      analytic::TreeParams::balanced(diff_hop_params(), 2, 2);
  SessionFarmOptions options = diff_farm();
  options.teardown = true;
  options.threads = 2;
  options.shard_size = 1;
  const std::size_t expected =
      run_session_farm(ProtocolKind::kSSRT, params, options)
          .peak_sessions_in_flight;
  for (const std::size_t shard_size : {std::size_t{7}, options.sessions}) {
    options.shard_size = shard_size;
    EXPECT_EQ(run_session_farm(ProtocolKind::kSSRT, params, options)
                  .peak_sessions_in_flight,
              expected)
        << "shard_size=" << shard_size;
  }
}

/// Teardown moves a tree session's completion event one grace period past
/// its window end, but the session records the window end, and teardown
/// draws nothing from the lifecycle stream that places the window, so the
/// exact peak is the same farm's peak without teardown.
TEST(FarmDiff, TeardownLeavesTheTreePeakAtTheWindowEnds) {
  const analytic::TreeParams params =
      analytic::TreeParams::balanced(diff_hop_params(), 2, 2);
  SessionFarmOptions options = diff_farm();
  options.threads = 2;
  options.shard_size = 7;
  const SessionFarmResult silent =
      run_session_farm(ProtocolKind::kSSRT, params, options);
  options.teardown = true;
  const SessionFarmResult torn_down =
      run_session_farm(ProtocolKind::kSSRT, params, options);
  EXPECT_GT(torn_down.teardown_messages, 0u);
  EXPECT_EQ(torn_down.peak_sessions_in_flight, silent.peak_sessions_in_flight);
}

}  // namespace
}  // namespace sigcomp::exp
