// One tree session, shared by the tree harness (protocols/tree_run.cpp,
// chains included) and the session farm (exp/session_farm.cpp): the wired
// Topology, its membership, relay-failure, update and false-signal
// processes, and the paper's inconsistency rule on trees -- a required
// node mirrors the sender, a detached node holds nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "analytic/tree_paths.hpp"
#include "core/protocol.hpp"
#include "protocols/membership.hpp"
#include "protocols/scenario.hpp"
#include "protocols/state_slot.hpp"
#include "protocols/topology.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace sigcomp::protocols {

/// The RNG streams one tree session draws, seeded by the owner with its
/// own stream IDs (core/rng_streams.hpp), so the core moves no draw.
struct TreeSessionRngs {
  sim::Rng channel;           ///< every per-edge channel
  sim::Rng nodes;             ///< every node's timers
  sim::Rng lifecycle;         ///< update times
  sim::Rng failure;           ///< per-relay false external signals
  sim::Rng membership;        ///< iid leaf join/leave times
  sim::Rng scenario_arrival;  ///< modulated rejoins, shared-risk bursts
  sim::Rng scenario_failure;  ///< interior-relay crashes
};

/// One tree session's processes and consistency rule; passive until
/// start().
class TreeSessionCore {
 public:
  /// Builds the Topology on `shape`, which must be
  /// TreeShape::of(params, ...), then the MembershipController and the
  /// RelayFailureProcess when enabled.  All three call `on_change` on every
  /// state change.  `params`, `shape`, `rngs` and `trace` must outlive the
  /// core.
  TreeSessionCore(sim::Simulator& sim, ProtocolKind kind,
                  const analytic::TreeParams& params, const TreeShape& shape,
                  const TimerSettings& timers, const ChurnOptions& churn,
                  const ScenarioOptions& scenario, TreeSessionRngs& rngs,
                  const std::function<void()>& on_change,
                  sim::TraceLog* trace = nullptr);

  TreeSessionCore(const TreeSessionCore&) = delete;  ///< events hold `this`
  TreeSessionCore& operator=(const TreeSessionCore&) = delete;  ///< ditto

  /// True when a session owns a MembershipController: leaf churn or a
  /// scenario membership process.
  [[nodiscard]] static bool owns_membership(
      const ChurnOptions& churn, const ScenarioOptions& scenario) noexcept {
    return churn.enabled() || scenario.membership_processes();
  }

  /// Starts the sender, then the update, false-signal (hard state only),
  /// membership and failure processes.
  void start();

  /// Freezes the membership report (defusing its pending leave, join and
  /// burst events) and cancels the pending failure, update and
  /// false-signal events; the tree itself keeps running.  Afterwards only
  /// the tree's own channels and timers refer to the core, so once
  /// Topology::quiescent() holds, nothing pending does.
  void stop();

  /// Tells the membership controller, then applies the consistency rule:
  /// true when every relay is consistent; a non-empty `node_ok` gets 1 or
  /// 0 per relay.  Allocates nothing.
  bool on_state_change(std::span<char> node_ok = {});

  /// The tree's parameters.
  [[nodiscard]] const analytic::TreeParams& params() const noexcept {
    return params_;
  }
  /// The wired tree.
  [[nodiscard]] Topology& topology() noexcept { return *topology_; }
  /// The wired tree (const).
  [[nodiscard]] const Topology& topology() const noexcept {
    return *topology_;
  }
  /// The membership controller, or null without one.
  [[nodiscard]] const MembershipController* membership() const noexcept {
    return membership_.get();
  }
  /// The relay-failure process, or null without a failure scenario.
  [[nodiscard]] const RelayFailureProcess* failure() const noexcept {
    return failure_.get();
  }

 private:
  void schedule_update();
  void schedule_false_signal(std::size_t relay);

  sim::Simulator& sim_;
  const analytic::TreeParams& params_;
  TreeSessionRngs& rngs_;
  std::unique_ptr<Topology> topology_;
  std::unique_ptr<MembershipController> membership_;
  std::unique_ptr<RelayFailureProcess> failure_;
  std::int64_t version_ = 0;
  sim::EventId update_event_;
  std::vector<sim::EventId> false_signal_events_;  ///< per relay, if armed
};

}  // namespace sigcomp::protocols
