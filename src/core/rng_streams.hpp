// RNG substream registry: the single source of truth for every (seed, stream)
// substream ID used anywhere in the library.
//
// Bit-identity across threads, shards and event-queue backends rests on two
// properties of the randomness plan: (1) every subsystem draws from its own
// dedicated substream of sim::Rng, and (2) no two subsystems ever share a
// substream ID by accident.  Both are enforced here: every stream ID is a
// named constant, and a static_assert rejects duplicates at compile time.
// tools/lint/sigcomp_lint.py rejects any numeric-literal stream ID outside
// this header (rule `rng-stream-literal`), so adding a stream means adding a
// constant here -- which is exactly where the uniqueness check lives.
//
// Layouts (see docs/ARCHITECTURE.md, "RNG stream registry"):
//  * Single-hop session layout (streams 0-5): used both by the single-hop
//    replication harness (protocols/single_hop_run.cpp) and, keyed to the
//    session's global index via exp::replica_seed, by every session of the
//    farm (exp/session_farm.cpp).  The two MUST stay identical -- the farm
//    mirrors the harness stream-for-stream.  kSessionMembership is consumed
//    only by churn-enabled tree sessions but is reserved in the shared
//    layout so enabling churn never shifts the other five streams.
//  * Tree harness layout (streams 100-106): used by the tree harness
//    (protocols/tree_run.cpp), which also runs every chain as a fan-out-1
//    tree.  kTreeMembership is the dedicated leaf-churn substream, so a
//    zero-churn run replays the static tree exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace sigcomp::rng {

// ------------------------------------------ single-hop session layout --

/// Channel loss/delay draws (both directions share one stream).
inline constexpr std::uint64_t kSessionChannel = 0;
/// Sender-side timers (refresh, retransmission, backoff).
inline constexpr std::uint64_t kSessionSender = 1;
/// Receiver-side timers (soft-state timeout).
inline constexpr std::uint64_t kSessionReceiver = 2;
/// Session lifecycle: arrival stagger and lifetime draws.
inline constexpr std::uint64_t kSessionLifecycle = 3;
/// False-external-signal (crash) injection.
inline constexpr std::uint64_t kSessionFailure = 4;
/// Per-leaf membership churn timers (farm tree sessions only; reserved in
/// the shared layout so enabling churn never shifts streams 0-4).
inline constexpr std::uint64_t kSessionMembership = 5;
/// Scenario arrival modulation (flash-crowd / diurnal rejoin rates) for
/// farm tree sessions; reserved so enabling a scenario never shifts 0-5.
inline constexpr std::uint64_t kSessionScenarioArrival = 6;
/// Scenario failure process (interior-relay crash/recovery/detection and
/// shared-risk leave bursts) for farm tree sessions.
inline constexpr std::uint64_t kSessionScenarioFailure = 7;
/// Shared-relay client timers (install/refresh jitter toward the shared
/// relay) for farm sessions subscribed to a cross-shard relay.  Reserved in
/// the shared layout so enabling shared relays never shifts streams 0-7 --
/// which is what keeps a `--shared-relays 0` run bit-identical to the
/// pre-fabric farm.
inline constexpr std::uint64_t kSessionRelay = 8;

// ------------------------------------------- tree/chain harness layout --

/// Per-edge channel loss/delay draws (all edges share one stream).
inline constexpr std::uint64_t kTreeChannel = 100;
/// Node timers for sender and every relay (refresh, timeout, retrans).
inline constexpr std::uint64_t kTreeNodes = 101;
/// Run lifecycle: trigger and removal scheduling.
inline constexpr std::uint64_t kTreeLifecycle = 102;
/// False-external-signal (crash) injection.
inline constexpr std::uint64_t kTreeFailure = 103;
/// Leaf join/leave churn timers (MembershipController).
inline constexpr std::uint64_t kTreeMembership = 104;
/// Scenario arrival modulation (flash-crowd / diurnal rejoin rates).
inline constexpr std::uint64_t kTreeScenarioArrival = 105;
/// Scenario failure process (interior-relay crash/recovery/detection and
/// shared-risk leave bursts).
inline constexpr std::uint64_t kTreeScenarioFailure = 106;

namespace detail {

/// Every registered substream ID.  Append new streams here as well as
/// above; the uniqueness check below covers exactly this list.
inline constexpr std::uint64_t kAllStreams[] = {
    kSessionChannel,
    kSessionSender,
    kSessionReceiver,
    kSessionLifecycle,
    kSessionFailure,
    kSessionMembership,
    kSessionScenarioArrival,
    kSessionScenarioFailure,
    kSessionRelay,
    kTreeChannel,
    kTreeNodes,
    kTreeLifecycle,
    kTreeFailure,
    kTreeMembership,
    kTreeScenarioArrival,
    kTreeScenarioFailure,
};

/// True when no two registered stream IDs collide.
constexpr bool all_streams_unique() noexcept {
  constexpr std::size_t n = std::size(kAllStreams);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (kAllStreams[i] == kAllStreams[j]) return false;
    }
  }
  return true;
}

}  // namespace detail

static_assert(detail::all_streams_unique(),
              "duplicate RNG substream ID in core/rng_streams.hpp -- two "
              "subsystems would draw correlated randomness");

}  // namespace sigcomp::rng
