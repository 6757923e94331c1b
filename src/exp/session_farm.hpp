// Many-session scale harness: drives N concurrent signaling sessions --
// single-hop sender/receiver pairs, multi-hop chains, or fan-out trees --
// inside shared discrete-event simulators, the way a real RSVP/IGMP-style
// router juggles hundreds of thousands of soft-state sessions at once.
//
// Workload model: session i (i = 0..N-1) arrives at a time drawn uniformly
// from the arrival window [0, N / arrival_rate) -- the order statistics of a
// Poisson process of rate `arrival_rate` conditioned on N arrivals -- lives
// an exponential lifetime with the configured mean, is removed gracefully,
// and is measured from arrival to absorption (single-hop) or over its
// lifetime window (multi-hop).  Per-session metrics aggregate into the
// MetricsSummary machinery: each session is one "replica".
//
// Determinism contract (the ParallelSweep contract, extended): every
// session's randomness is keyed to its GLOBAL index through
// replica_seed(seed, session, stream), so results are bit-identical at any
// thread count AND any shard size.  Shards partition [0, N) into fixed
// consecutive blocks, each simulated in its own Simulator and fanned across
// the pool; each shard writes its sessions' metrics in place into one
// farm-wide store indexed by global session index, which is summarized in
// that order.  Without shared relays sessions never interact.
// With them (SessionFarmOptions::shared_relays), subscribers talk to relay
// sessions in other shards through the stamped cross-shard fabric
// (exp/shard_ring.hpp), whose delivery order is itself independent of
// threads and shard size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "analytic/tree_paths.hpp"
#include "core/params.hpp"
#include "core/protocol.hpp"
#include "exp/parallel.hpp"
#include "protocols/membership.hpp"
#include "protocols/scenario.hpp"
#include "sim/channel_process.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace sigcomp::exp {

/// Workload and execution options of a session-farm run.
struct SessionFarmOptions {
  std::uint64_t seed = 1;        ///< base seed of the per-session keying
  /// Event-queue backend of the run's Simulator.  A pure performance knob:
  /// both backends pop in the identical (time, insertion-seq) order, so the
  /// run -- golden digests included -- is bit-identical either way.
  sim::EventQueueBackend event_queue = sim::kDefaultEventQueueBackend;
  std::size_t sessions = 1000;   ///< N: total sessions to drive
  /// Poisson arrival rate (sessions/second).  The arrival window is
  /// N / arrival_rate long; with lifetimes longer than the window most of
  /// the N sessions are concurrently in flight.
  double arrival_rate = 100.0;
  double session_lifetime = 60.0;  ///< mean exponential lifetime (seconds)
  sim::Distribution timer_dist = sim::Distribution::kDeterministic;
  sim::DelayModel delay_model = sim::DelayModel::kExponential;
  double delay_shape = 1.5;
  /// Sessions per shard (per Simulator).  Shard boundaries are fixed by
  /// this value alone, so results do not depend on the thread count; they
  /// do not depend on the shard size either (see the file comment): one
  /// 100k-session simulator and many small ones give the same numbers.
  std::size_t shard_size = 4096;
  /// Worker threads when no engine is passed (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Optional shared pool; `threads` is ignored when set.
  ParallelSweep* engine = nullptr;
  /// Per-leaf lifetime model (tree/chain sessions only): when enabled,
  /// every leaf of every session churns independently -- joined for a mean
  /// `leaf_churn.leaf_lifetime`, detached until its rejoin timer --
  /// while the session itself still spans its own lifetime window.  The
  /// churn timers draw from a dedicated per-session stream keyed to the
  /// session's global index, so the determinism contract (bit-identical
  /// across thread counts AND shard sizes) extends to churn runs.
  /// Single-hop farms reject enabled churn (there is no tree to prune).
  protocols::ChurnOptions leaf_churn;
  /// Correlated-event scenario per session (flash-crowd rejoin storms,
  /// shared-risk subtree leave bursts, interior-relay crash/recovery).  The
  /// scenario processes draw from two dedicated per-session streams keyed
  /// to the global index (kSessionScenarioArrival/kSessionScenarioFailure),
  /// so the bit-identity contract extends to scenario runs -- and with
  /// every rate at zero those streams are never touched and the run
  /// replays the scenario-free farm exactly.  Single-hop farms reject an
  /// enabled scenario (there is no tree to crash or burst).
  protocols::ScenarioOptions scenario;
  /// When true, SessionFarmResult::per_session carries every session's
  /// Metrics in global session order -- the differential suite diffs these
  /// element-wise; the farm golden digests and farmbench's pins hash them.
  /// Off by default: a million-session run should not haul a million
  /// Metrics back unless asked.
  bool keep_per_session = false;
  /// Shared relay sessions (single-hop farms only).  0 -- the default --
  /// runs the exact pre-fabric farm code path, bit for bit.  R > 0 adds R
  /// relay sessions at global indices [sessions, sessions + R): the first
  /// R * subscribers_per_relay farm sessions each install state through
  /// relay (index mod R) across the cross-shard message ring, with fan-in
  /// at the relay and per-subscriber refresh fan-out back (see
  /// protocols/shared_relay.hpp and docs/ARCHITECTURE.md, "The cross-shard
  /// fabric").  Results stay element-wise identical across thread counts
  /// AND shard sizes; the fabric's epoch-batched delivery (latency up to
  /// one fabric slice) is part of the workload model.
  std::size_t shared_relays = 0;
  /// Subscribers wired to each shared relay.  Requires
  /// shared_relays * subscribers_per_relay <= sessions (every subscriber is
  /// an ordinary farm session; the rest of the farm runs undisturbed).
  std::size_t subscribers_per_relay = 16;
  /// Teardown pricing (tree/chain farms only): when true, a session's
  /// lifetime window ends with an explicit TreeSender::remove() -- removal
  /// messages propagate down every branch, priced into the session's
  /// message counts and surfaced in SessionFarmResult::teardown_messages --
  /// followed by a deterministic grace period of one timeout interval
  /// before the tree is silently stopped.  The default (false) keeps the
  /// historical silent Topology::stop(), bit for bit.
  bool teardown = false;
};

/// The counters a farm run sums over its shards: each shard keeps one set,
/// and the reduce adds them up in shard order.
struct FarmCounters {
  std::uint64_t messages = 0;  ///< signaling messages across all sessions
  std::uint64_t events_executed = 0;  ///< simulator events across all shards
  std::uint64_t receiver_timeouts = 0;  ///< soft-state timeout expirations
  /// Interior-relay crashes across all sessions (0 without a failure
  /// scenario).
  std::uint64_t relay_crashes = 0;
  /// Completed relay recoveries across all sessions.
  std::uint64_t relay_recoveries = 0;
  /// Messages attributable to explicit session teardown (tree/chain farms
  /// with SessionFarmOptions::teardown; 0 otherwise): everything sent
  /// between the window-end remove() and the end of the grace period.
  std::uint64_t teardown_messages = 0;
  /// Installs accepted across every relay hub (first installs plus
  /// re-installs after a soft-state expiry).
  std::uint64_t relay_installs = 0;
  /// Subscriber refreshes accepted across every relay hub.
  std::uint64_t relay_refreshes = 0;
  /// Soft-state expirations across every relay hub's subscriber slots.
  std::uint64_t relay_soft_timeouts = 0;
  /// Fabric deliveries dropped at the destination (the session had already
  /// completed, or the hub rejected the source).  Deterministic: drop
  /// decisions depend only on the decomposition-invariant epoch timeline.
  std::uint64_t fabric_dropped = 0;

  FarmCounters& operator+=(const FarmCounters& other) noexcept;
};

/// Aggregate outcome of a farm run: the summed FarmCounters plus what the
/// reduce derives from the per-session results.
struct SessionFarmResult : FarmCounters {
  /// Per-session metrics summarized as mean/stddev/95%-CI ("replications"
  /// = completed sessions).
  MetricsSummary summary;
  std::size_t sessions = 0;  ///< completed sessions (== options.sessions)
  std::size_t shards = 0;
  /// Latest session end time across shards (the simulated horizon).
  double horizon = 0.0;
  /// Peak number of sessions simultaneously in flight -- EXACT at any shard
  /// size: each shard leaves its sessions' [begin, completion] endpoints as
  /// two sorted runs, and the reduce sweeps all runs in parallel chunks of
  /// the time axis (exp::peak_in_flight), so the sharded value equals the
  /// single-shard truth (tests lock this).  A session's recorded completion
  /// is its window end: with SessionFarmOptions::teardown a tree session
  /// completes one grace period later but still records its window end, so
  /// teardown leaves the peak unchanged (the grace period is not counted).
  std::size_t peak_sessions_in_flight = 0;
  /// Leaf-churn outcome summed across sessions in global session order
  /// (all-zero when churn is disabled).
  protocols::ChurnReport churn;
  /// Every session's metrics in global session order; filled only when
  /// SessionFarmOptions::keep_per_session is set (empty otherwise).
  std::vector<Metrics> per_session;
  /// Largest per-shard arena high-water mark (SessionArena::slot_capacity):
  /// the most sessions any shard ever held constructed at once.  Under
  /// churn this sits far below the shard's session count, for single-hop
  /// and tree sessions alike -- the free-list recycling proof the soak and
  /// differential tests assert.
  std::size_t arena_slot_high_water = 0;
  /// Total arena chunk allocations across shards
  /// (SessionArena::chunk_allocations summed).  Flat once the pools reach
  /// their high-water marks -- the farm's zero-steady-state-allocation
  /// counter.
  std::size_t arena_chunk_allocations = 0;
  /// Largest per-shard event-queue slot high-water mark
  /// (sim::Simulator::slot_capacity): the most events any shard ever held
  /// pending at once.  Arrivals wait outside the queue, so under churn this
  /// tracks sessions in flight, not the shard's session count.
  std::size_t queue_slot_high_water = 0;
  /// Shared relay sessions driven (== options.shared_relays; their metrics
  /// occupy the last relay_sessions entries of per_session).  `sessions`
  /// counts them too when relays are enabled.
  std::size_t relay_sessions = 0;
  /// Messages carried by the cross-shard ring fabric (every stamped entry
  /// pushed by clients and hubs; 0 without shared relays).
  std::uint64_t fabric_messages = 0;
  /// ShardRings materialized (directed shard pairs that carry traffic).
  std::size_t fabric_rings = 0;
  /// Epochs executed by the fabric's lockstep worker loop.
  std::size_t fabric_epochs = 0;
  /// The most fabric entries any one shard drained in one epoch: how far
  /// the unbounded ShardRing outboxes feeding a shard grew.  It counts per
  /// destination shard, so it depends on shard_size, but it is identical
  /// across thread counts.  0 without shared relays.
  std::size_t fabric_ring_high_water = 0;
};

/// Runs N single-hop sessions of `kind`.  `params.removal_rate` is ignored
/// (the lifetime law comes from the options); everything else -- loss
/// process, delay, timers, update rate -- is honored per session.  Throws
/// std::invalid_argument on bad options.
[[nodiscard]] SessionFarmResult run_session_farm(
    ProtocolKind kind, const SingleHopParams& params,
    const SessionFarmOptions& options);

/// Runs N multi-hop chain sessions of `kind` (any of the five protocols)
/// with `params.hops` hops each.  Sessions are measured over their lifetime
/// window and then torn down: silently (protocols::TreeSender::stop) by
/// default, or through the explicit removal handshake with
/// SessionFarmOptions::teardown.
[[nodiscard]] SessionFarmResult run_session_farm(
    ProtocolKind kind, const MultiHopParams& params,
    const SessionFarmOptions& options);

/// Runs N tree sessions of `kind` (any of the five protocols), each one a
/// full `params.tree` topology (protocols::Topology) with per-edge
/// channels.  Like chain sessions, they are measured over their lifetime
/// window and then torn down; `receiver_timeouts` counts soft-state
/// timeouts across every relay of every session.
[[nodiscard]] SessionFarmResult run_session_farm(
    ProtocolKind kind, const analytic::TreeParams& params,
    const SessionFarmOptions& options);

}  // namespace sigcomp::exp
