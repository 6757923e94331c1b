// Golden-trace determinism lock: run every protocol single- and multi-hop
// (and on a fan-out tree) under a pinned seed, hash the full TraceLog
// record stream, and compare against checked-in digests.
//
// The digest covers every record's time (as IEEE-754 bits), category and
// detail string, so ANY change in event ordering, channel arithmetic, RNG
// consumption or trace formatting moves it.  This is the tripwire for
// accidental behavior changes from event-core/scheduler refactors: when a
// digest moves and the change is *intended*, regenerate by running this
// test and copying the "actual" values from the failure message.  The full
// recipe -- including how to add a digest for a new protocol or topology --
// lives in docs/TESTING.md.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "analytic/tree_paths.hpp"
#include "core/params.hpp"
#include "core/protocol.hpp"
#include "exp/session_farm.hpp"
#include "protocols/single_hop_run.hpp"
#include "protocols/tree_run.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace sigcomp {
namespace {

/// FNV-1a 64-bit over the full record stream.
class TraceDigest {
 public:
  void add_bytes(const void* data, std::size_t n) noexcept {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }

  void add_record(const sim::TraceRecord& record) noexcept {
    const auto time_bits = std::bit_cast<std::uint64_t>(record.time);
    add_bytes(&time_bits, sizeof(time_bits));
    const auto category = static_cast<unsigned char>(record.category);
    add_bytes(&category, 1);
    add_bytes(record.detail.data(), record.detail.size());
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest_of(const sim::TraceLog& log) {
  TraceDigest digest;
  for (const sim::TraceRecord& record : log.records()) {
    digest.add_record(record);
  }
  return digest.value();
}

std::string hex(std::uint64_t v) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

std::uint64_t single_hop_digest(
    ProtocolKind kind,
    sim::EventQueueBackend backend = sim::EventQueueBackend::kHeap) {
  sim::TraceLog log(1 << 20);
  protocols::SimOptions options;
  options.event_queue = backend;
  options.seed = 2024;
  options.sessions = 30;
  options.trace = &log;
  SingleHopParams params = SingleHopParams::kazaa_defaults();
  params.removal_rate = 1.0 / 30.0;  // short sessions keep the trace bounded
  const auto result = protocols::run_single_hop(kind, params, options);
  EXPECT_EQ(result.sessions, 30u);
  EXPECT_LT(log.total_recorded(), log.capacity())  // nothing evicted
      << "trace overflowed; the digest would silently cover a suffix only";
  return digest_of(log);
}

/// Tree harness under the multi-hop pin conditions (seed 2024, 300 s,
/// per-edge defaults from MultiHopParams).
std::uint64_t tree_digest(
    ProtocolKind kind, const analytic::TreeParams& tree,
    sim::EventQueueBackend backend = sim::EventQueueBackend::kHeap) {
  sim::TraceLog log(1 << 20);
  protocols::TreeSimOptions options;
  options.event_queue = backend;
  options.seed = 2024;
  options.duration = 300.0;
  options.trace = &log;
  (void)protocols::run_tree(kind, tree, options);
  EXPECT_LT(log.total_recorded(), log.capacity())
      << "trace overflowed; the digest would silently cover a suffix only";
  return digest_of(log);
}

/// The 3-hop chain: the tree harness on the fan-out-1 tree.
std::uint64_t multi_hop_digest(
    ProtocolKind kind,
    sim::EventQueueBackend backend = sim::EventQueueBackend::kHeap) {
  MultiHopParams chain;
  chain.hops = 3;
  return tree_digest(kind, analytic::TreeParams::chain(chain), backend);
}

struct GoldenEntry {
  ProtocolKind kind;
  std::uint64_t digest;
};

// Pinned against the PR 3 event core.  See docs/TESTING.md before "fixing"
// a mismatch by editing these constants.
constexpr GoldenEntry kSingleHopGolden[] = {
    {ProtocolKind::kSS, 0x5369480b0c5f602dULL},
    {ProtocolKind::kSSER, 0xe9b3b8395351ff0aULL},
    {ProtocolKind::kSSRT, 0xea6c3714f0f6b7b9ULL},
    {ProtocolKind::kSSRTR, 0xd967c29bef6d3287ULL},
    {ProtocolKind::kHS, 0x4cd155646150f6f1ULL},
};

// The 3-hop chain digests (the tree harness on TreeParams::chain).  SS+ER
// and SS+RTR never remove state here, so they replay SS / SS+RT exactly,
// hence the duplicated digests.
constexpr GoldenEntry kMultiHopGolden[] = {
    {ProtocolKind::kSS, 0xeca1ca36a4fe8658ULL},
    {ProtocolKind::kSSER, 0xeca1ca36a4fe8658ULL},
    {ProtocolKind::kSSRT, 0xf9691707db6155edULL},
    {ProtocolKind::kSSRTR, 0xf9691707db6155edULL},
    {ProtocolKind::kHS, 0x7ddfdce05e469af2ULL},
};

TEST(GoldenTrace, SingleHopRecordStreamsArePinned) {
  for (const GoldenEntry& entry : kSingleHopGolden) {
    const std::uint64_t actual = single_hop_digest(entry.kind);
    EXPECT_EQ(actual, entry.digest)
        << "single-hop " << to_string(entry.kind)
        << " trace digest moved; actual " << hex(actual);
  }
}

TEST(GoldenTrace, MultiHopRecordStreamsArePinned) {
  for (const GoldenEntry& entry : kMultiHopGolden) {
    const std::uint64_t actual = multi_hop_digest(entry.kind);
    EXPECT_EQ(actual, entry.digest)
        << "multi-hop " << to_string(entry.kind)
        << " trace digest moved; actual " << hex(actual);
  }
}

TEST(GoldenTrace, FanOutTreeRecordStreamsArePinned) {
  // A genuinely branching topology: balanced binary tree of depth 2
  // (7 nodes, 4 receivers).  SS/SS+RT/HS pinned in PR 4; SS+ER/SS+RTR
  // pinned in PR 5 (without removals they replay SS/SS+RT bit-for-bit --
  // see kMultiHopGolden).
  constexpr GoldenEntry kTreeGolden[] = {
      {ProtocolKind::kSS, 0x398cd857f28012f5ULL},
      {ProtocolKind::kSSER, 0x398cd857f28012f5ULL},
      {ProtocolKind::kSSRT, 0x16122c3c8a08afebULL},
      {ProtocolKind::kSSRTR, 0x16122c3c8a08afebULL},
      {ProtocolKind::kHS, 0xc5fc6d8b5c262977ULL},
  };
  const analytic::TreeParams params =
      analytic::TreeParams::balanced(MultiHopParams{}, 2, 2);
  for (const GoldenEntry& entry : kTreeGolden) {
    const std::uint64_t actual = tree_digest(entry.kind, params);
    EXPECT_EQ(actual, entry.digest)
        << "fan-out tree " << to_string(entry.kind)
        << " trace digest moved; actual " << hex(actual);
  }
}

TEST(GoldenTrace, LeafChurnRecordStreamsArePinned) {
  // The membership machinery under a pinned seed: a fanout-2 depth-2 tree
  // whose leaves join and leave IGMP-style.  Here the five protocols all
  // genuinely differ (prunes exercise each one's removal semantics), so
  // five distinct digests.  Pinned in PR 5.
  constexpr GoldenEntry kChurnGolden[] = {
      {ProtocolKind::kSS, 0x32f2444f130b1f46ULL},
      {ProtocolKind::kSSER, 0x7c8a56c25b35a20aULL},
      {ProtocolKind::kSSRT, 0x97302a018c6111daULL},
      {ProtocolKind::kSSRTR, 0xd822b1ee59d1e9f2ULL},
      {ProtocolKind::kHS, 0xc44152476a608295ULL},
  };
  const analytic::TreeParams params =
      analytic::TreeParams::balanced(MultiHopParams{}, 2, 2);
  for (const GoldenEntry& entry : kChurnGolden) {
    sim::TraceLog log(1 << 20);
    protocols::TreeSimOptions options;
    options.seed = 2024;
    options.duration = 300.0;
    options.trace = &log;
    options.churn.leaf_lifetime = 30.0;
    options.churn.rejoin_rate = 1.0 / 15.0;
    const protocols::TreeSimResult result =
        protocols::run_tree(entry.kind, params, options);
    EXPECT_GT(result.churn.leaves, 0u) << to_string(entry.kind);
    EXPECT_LT(log.total_recorded(), log.capacity())
        << "trace overflowed; the digest would silently cover a suffix only";
    const std::uint64_t actual = digest_of(log);
    EXPECT_EQ(actual, entry.digest)
        << "leaf-churn " << to_string(entry.kind)
        << " trace digest moved; actual " << hex(actual);
  }
}

/// The full scenario stack on the fanout-2 depth-2 tree under the pin
/// conditions: leaf churn, interior-relay crashes, a flash-crowd rejoin
/// storm, shared-risk leave bursts and HS false external signals at
/// `false_signal_rate` per relay.
protocols::TreeSimResult scenario_run(ProtocolKind kind,
                                      double false_signal_rate,
                                      sim::TraceLog& log) {
  analytic::TreeParams params =
      analytic::TreeParams::balanced(MultiHopParams{}, 2, 2);
  params.false_signal_rate = false_signal_rate;
  protocols::TreeSimOptions options;
  options.seed = 2024;
  options.duration = 300.0;
  options.trace = &log;
  options.churn.leaf_lifetime = 30.0;
  options.churn.rejoin_rate = 1.0 / 15.0;
  options.scenario.failure =
      protocols::FailureConfig::relay_crash(1.0 / 30.0, 10.0, 5.0);
  options.scenario.arrival =
      protocols::ArrivalConfig::flash_crowd(100.0, 1.0, 50.0);
  options.scenario.shared_risk =
      protocols::SharedRiskConfig::bursts(1.0 / 60.0);
  return protocols::run_tree(kind, params, options);
}

TEST(GoldenTrace, ScenarioRecordStreamsArePinned) {
  // The harness with every scenario process and HS false signals firing:
  // relay crashes and recoveries, storms, bursts and false removals all
  // land in the record stream.
  constexpr double kFalseSignalRate = 1.0 / 50.0;
  constexpr GoldenEntry kScenarioGolden[] = {
      {ProtocolKind::kSS, 0x9fbd0367841a6a8dULL},
      {ProtocolKind::kSSER, 0xded2bc71ee7a4943ULL},
      {ProtocolKind::kSSRT, 0x3bc3ad94a2debacdULL},
      {ProtocolKind::kSSRTR, 0x9143485a16274c25ULL},
      {ProtocolKind::kHS, 0x3d6cf9b57115cde9ULL},
  };
  for (const GoldenEntry& entry : kScenarioGolden) {
    sim::TraceLog log(1 << 20);
    const protocols::TreeSimResult result =
        scenario_run(entry.kind, kFalseSignalRate, log);
    EXPECT_GT(result.churn.leaves, 0u) << to_string(entry.kind);
    EXPECT_GT(result.relay_crashes, 0u) << to_string(entry.kind);
    EXPECT_GT(result.relay_recoveries, 0u) << to_string(entry.kind);
    EXPECT_LT(log.total_recorded(), log.capacity())
        << "trace overflowed; the digest would silently cover a suffix only";
    const std::uint64_t actual = digest_of(log);
    EXPECT_EQ(actual, entry.digest)
        << "scenario " << to_string(entry.kind)
        << " trace digest moved; actual " << hex(actual);
  }
  // The false signals really fire: without them HS records another stream.
  sim::TraceLog quiet(1 << 20);
  (void)scenario_run(ProtocolKind::kHS, 0.0, quiet);
  EXPECT_NE(digest_of(quiet), kScenarioGolden[4].digest);
}

TEST(GoldenTrace, IrregularTreeRecordStreamsArePinned) {
  // A tree no builder makes: the root's children are edges {0, 1, 5} and
  // node 1's are {2, 4}, so no node numbers its child edges contiguously;
  // fan-outs are 3, 2, 1, 1 and 1; leaf 6 hangs at depth 1 beside leaves 7
  // and 8 at depth 3.  Leaf churn and interior-relay crashes run on it, so
  // every per-child route (ACKs, notices, grafts, prunes, re-grafts after
  // recovery) is taken on a child index that differs from the edge id.
  // Pinned on the per-node-vector layout, before the flat tree layout.
  constexpr GoldenEntry kIrregularGolden[] = {
      {ProtocolKind::kSS, 0x832cae42c6c5fafeULL},
      {ProtocolKind::kSSER, 0xda4574c582900059ULL},
      {ProtocolKind::kSSRT, 0xde8c3a9c4ec48a10ULL},
      {ProtocolKind::kSSRTR, 0x744109bdd1f1519cULL},
      {ProtocolKind::kHS, 0x45c3e4258291997eULL},
  };
  const analytic::TreeParams params = analytic::TreeParams::uniform(
      MultiHopParams{}, TreeSpec{{0, 0, 1, 2, 1, 0, 3, 5}});
  for (const GoldenEntry& entry : kIrregularGolden) {
    sim::TraceLog log(1 << 20);
    protocols::TreeSimOptions options;
    options.seed = 2024;
    options.duration = 300.0;
    options.trace = &log;
    options.churn.leaf_lifetime = 30.0;
    options.churn.rejoin_rate = 1.0 / 15.0;
    options.scenario.failure =
        protocols::FailureConfig::relay_crash(1.0 / 30.0, 10.0, 5.0);
    const protocols::TreeSimResult result =
        protocols::run_tree(entry.kind, params, options);
    EXPECT_GT(result.churn.leaves, 0u) << to_string(entry.kind);
    EXPECT_GT(result.relay_crashes, 0u) << to_string(entry.kind);
    EXPECT_LT(log.total_recorded(), log.capacity())
        << "trace overflowed; the digest would silently cover a suffix only";
    const std::uint64_t actual = digest_of(log);
    EXPECT_EQ(actual, entry.digest)
        << "irregular tree " << to_string(entry.kind)
        << " trace digest moved; actual " << hex(actual);
  }
}

TEST(GoldenTrace, WheelBackendReproducesEveryPinnedDigest) {
  // The backend-equivalence contract at golden-trace scale: the timing
  // wheel must replay the SAME pinned constants as the heap backend --
  // single-hop, chain and fan-out tree alike.  A digest that moves here
  // but not in the heap tests means the wheel reordered events.
  for (const GoldenEntry& entry : kSingleHopGolden) {
    const std::uint64_t actual =
        single_hop_digest(entry.kind, sim::EventQueueBackend::kWheel);
    EXPECT_EQ(actual, entry.digest)
        << "single-hop " << to_string(entry.kind)
        << " diverged on the wheel backend; actual " << hex(actual);
  }
  for (const GoldenEntry& entry : kMultiHopGolden) {
    const std::uint64_t actual =
        multi_hop_digest(entry.kind, sim::EventQueueBackend::kWheel);
    EXPECT_EQ(actual, entry.digest)
        << "multi-hop " << to_string(entry.kind)
        << " diverged on the wheel backend; actual " << hex(actual);
  }
  const analytic::TreeParams tree =
      analytic::TreeParams::balanced(MultiHopParams{}, 2, 2);
  constexpr GoldenEntry kTreeGolden[] = {
      {ProtocolKind::kSS, 0x398cd857f28012f5ULL},
      {ProtocolKind::kSSER, 0x398cd857f28012f5ULL},
      {ProtocolKind::kSSRT, 0x16122c3c8a08afebULL},
      {ProtocolKind::kSSRTR, 0x16122c3c8a08afebULL},
      {ProtocolKind::kHS, 0xc5fc6d8b5c262977ULL},
  };
  for (const GoldenEntry& entry : kTreeGolden) {
    const std::uint64_t actual =
        tree_digest(entry.kind, tree, sim::EventQueueBackend::kWheel);
    EXPECT_EQ(actual, entry.digest)
        << "fan-out tree " << to_string(entry.kind)
        << " diverged on the wheel backend; actual " << hex(actual);
  }
}

// ------------------------------------------------- farm metric digests --

/// FNV-1a over the farm's per-session metrics stream, every double as
/// IEEE-754 bits in global session order.  The farm analogue of the trace
/// digests above: any change in per-session RNG keying, event ordering,
/// shard reduction order or metric arithmetic moves it.
std::uint64_t farm_digest_of(const std::vector<Metrics>& sessions) {
  TraceDigest digest;
  for (const Metrics& m : sessions) {
    for (const double v :
         {m.inconsistency, m.message_rate, m.raw_message_rate,
          m.session_length, m.breakdown.trigger, m.breakdown.refresh,
          m.breakdown.explicit_removal, m.breakdown.reliable_trigger,
          m.breakdown.reliable_removal}) {
      const auto bits = std::bit_cast<std::uint64_t>(v);
      digest.add_bytes(&bits, sizeof(bits));
    }
  }
  return digest.value();
}

/// Pin conditions: 60 sessions, multi-shard (16) so the digest also locks
/// the shard decomposition and reduce order, single worker thread (the
/// farm is bit-identical at any thread count -- locked elsewhere).
exp::SessionFarmOptions farm_pin_options(sim::EventQueueBackend backend) {
  exp::SessionFarmOptions options;
  options.event_queue = backend;
  options.seed = 2024;
  options.sessions = 60;
  options.arrival_rate = 6.0;
  options.session_lifetime = 15.0;
  options.threads = 1;
  options.shard_size = 16;
  options.keep_per_session = true;
  return options;
}

TEST(GoldenTrace, SingleHopFarmMetricStreamIsPinned) {
  for (const sim::EventQueueBackend backend :
       {sim::EventQueueBackend::kHeap, sim::EventQueueBackend::kWheel}) {
    const exp::SessionFarmResult result =
        exp::run_session_farm(ProtocolKind::kSS, SingleHopParams::kazaa_defaults(),
                              farm_pin_options(backend));
    const std::uint64_t actual = farm_digest_of(result.per_session);
    EXPECT_EQ(actual, 0xaad070c3903a7241ULL)
        << "single-hop farm metric digest moved; actual " << hex(actual);
  }
}

TEST(GoldenTrace, ChainFarmMetricStreamIsPinned) {
  MultiHopParams params;
  params.hops = 3;
  for (const sim::EventQueueBackend backend :
       {sim::EventQueueBackend::kHeap, sim::EventQueueBackend::kWheel}) {
    const exp::SessionFarmResult result = exp::run_session_farm(
        ProtocolKind::kSSRT, params, farm_pin_options(backend));
    const std::uint64_t actual = farm_digest_of(result.per_session);
    EXPECT_EQ(actual, 0xfe1367601978d13cULL)
        << "chain farm metric digest moved; actual " << hex(actual);
  }
}

TEST(GoldenTrace, TreeFarmMetricStreamIsPinned) {
  MultiHopParams base;
  base.hops = 2;
  const analytic::TreeParams tree = analytic::TreeParams::balanced(base, 2, 2);
  for (const sim::EventQueueBackend backend :
       {sim::EventQueueBackend::kHeap, sim::EventQueueBackend::kWheel}) {
    const exp::SessionFarmResult result =
        exp::run_session_farm(ProtocolKind::kHS, tree, farm_pin_options(backend));
    const std::uint64_t actual = farm_digest_of(result.per_session);
    EXPECT_EQ(actual, 0x4b3eace907484c39ULL)
        << "tree farm metric digest moved; actual " << hex(actual);
  }
}

TEST(GoldenTrace, RecyclingSharedRelayFarmMetricStreamIsPinned) {
  // Arrivals over 400 s with 10 s lifetimes: subscriber arena slots (and
  // the relay-client state that rides with them) recycle many times over,
  // so the digest locks slot reuse inside the cross-shard fabric.
  exp::SessionFarmOptions options =
      farm_pin_options(sim::EventQueueBackend::kHeap);
  options.seed = 17;
  options.sessions = 400;
  options.arrival_rate = 1.0;
  options.session_lifetime = 10.0;
  options.shard_size = 4096;
  options.shared_relays = 8;
  options.subscribers_per_relay = 25;
  for (const sim::EventQueueBackend backend :
       {sim::EventQueueBackend::kHeap, sim::EventQueueBackend::kWheel}) {
    options.event_queue = backend;
    const exp::SessionFarmResult result = exp::run_session_farm(
        ProtocolKind::kSSRT, SingleHopParams::kazaa_defaults(), options);
    const std::uint64_t actual = farm_digest_of(result.per_session);
    EXPECT_EQ(actual, 0xacd695dc87649d3bULL)
        << "recycling shared-relay farm metric digest moved; actual "
        << hex(actual);
  }
}

TEST(GoldenTrace, DigestIsReproducibleWithinProcess) {
  // The digest itself must be a pure function of the run.
  EXPECT_EQ(single_hop_digest(ProtocolKind::kSS),
            single_hop_digest(ProtocolKind::kSS));
  EXPECT_EQ(multi_hop_digest(ProtocolKind::kSSRT),
            multi_hop_digest(ProtocolKind::kSSRT));
}

TEST(GoldenTrace, DigestIsSensitiveToEveryField) {
  sim::TraceRecord a{1.0, sim::TraceCategory::kSend, "fwd TRIGGER"};
  TraceDigest base;
  base.add_record(a);

  TraceDigest time_moved;
  time_moved.add_record({1.0000000001, a.category, a.detail});
  EXPECT_NE(base.value(), time_moved.value());

  TraceDigest category_moved;
  category_moved.add_record({a.time, sim::TraceCategory::kDeliver, a.detail});
  EXPECT_NE(base.value(), category_moved.value());

  TraceDigest detail_moved;
  detail_moved.add_record({a.time, a.category, "fwd REFRESH"});
  EXPECT_NE(base.value(), detail_moved.value());
}

}  // namespace
}  // namespace sigcomp
