// Dynamic leaf membership (IGMP-style churn) on a live signaling tree.
//
// The paper motivates the protocol spectrum with multicast group
// membership: hosts join and leave while the tree keeps running, and the
// cost of a protocol shows up in two windows -- how long a fresh member
// waits for state to reach it (setup latency) and how long removed members'
// state lingers on the pruned branch (the orphan window, IGMPv1's
// timeout-only leave vs IGMPv2's explicit Leave).  MembershipController
// drives that workload over a protocols::Topology: every leaf alternates
// joined (mean `leaf_lifetime`) and detached (rejoin rate `rejoin_rate`)
// periods, joins graft state down the path only where missing, and leaves
// prune with the protocol's own removal semantics (timeout, best-effort
// removal, reliable removal, or hard-state teardown).
//
// Determinism: every timer draw comes from the single Rng handed in, and
// membership events interleave with protocol events through the simulator's
// deterministic order, so a run is a pure function of (seed, options) --
// the churn benches exploit this for thread- and shard-identity checks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "protocols/scenario.hpp"
#include "protocols/topology.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace sigcomp::protocols {

/// Workload knobs of the leaf-churn process.  Defaults disable churn
/// entirely (a static tree -- the bit-identity baseline).
struct ChurnOptions {
  /// Mean joined duration of a leaf in seconds (exponential); <= 0 disables
  /// churn: all leaves stay joined forever.
  double leaf_lifetime = 0.0;
  /// Rejoin rate of a detached leaf (1/s, exponential waiting time); <= 0
  /// means departed leaves never come back.
  double rejoin_rate = 0.0;

  /// True when the controller has anything to do.
  [[nodiscard]] bool enabled() const noexcept { return leaf_lifetime > 0.0; }

  /// Throws std::invalid_argument on non-finite or negative values.
  void validate() const;
};

/// Aggregate churn outcome.  Plain counters and sums (no streaming
/// variance) so reports can be summed across sessions in a deterministic
/// order and compared bit-for-bit across thread counts and shard sizes.
struct ChurnReport {
  std::uint64_t joins = 0;   ///< join events driven
  std::uint64_t leaves = 0;  ///< leave events driven
  /// Joins whose setup completed (the leaf held the sender's current value).
  std::uint64_t completed_joins = 0;
  /// Leaves whose pruned branch fully dropped its state (or held none).
  std::uint64_t resolved_orphans = 0;
  double setup_latency_sum = 0.0;  ///< over completed joins, seconds
  double setup_latency_max = 0.0;  ///< worst completed join
  double orphan_window_sum = 0.0;  ///< over resolved leaves, seconds
  double orphan_window_max = 0.0;  ///< worst resolved leave
  /// Joins / pruned branches still unresolved when the run ended.
  std::uint64_t pending_joins = 0;
  std::uint64_t pending_orphans = 0;
  /// Right-censored orphan time: the elapsed (still-running) windows of the
  /// branches counted in pending_orphans, frozen at the horizon.  Without
  /// this term the mean is biased low exactly when orphaning is worst
  /// (slow soft-state timeouts, crashed relays) -- the windows that never
  /// resolve are the longest ones.
  double censored_orphan_window_sum = 0.0;

  /// Mean per-join setup latency over completed joins (0 when none).
  [[nodiscard]] double mean_setup_latency() const noexcept;
  /// Mean orphan window over resolved leaves (0 when none).  Excludes the
  /// censored windows -- see mean_orphan_window_bound for the
  /// censoring-aware companion.
  [[nodiscard]] double mean_orphan_window() const noexcept;
  /// Censoring-aware lower bound on the mean orphan window: still-orphaned
  /// branches at the horizon contribute their elapsed windows (a lower
  /// bound on their eventual lengths), averaged over resolved AND pending
  /// orphans.  Equals mean_orphan_window when nothing was pending.
  [[nodiscard]] double mean_orphan_window_bound() const noexcept;
  /// Accumulates `other` (counters add, maxima combine).
  void absorb(const ChurnReport& other) noexcept;

  friend bool operator==(const ChurnReport&,
                         const ChurnReport&) = default;  ///< field-wise
};

/// Drives the join/leave process of every leaf of a topology and measures
/// per-join setup latency and per-leave orphan windows.  All leaves start
/// joined (matching the static tree).  The owner must invoke
/// on_state_change() from its topology on_change hook so pending joins and
/// orphans resolve the instant node state moves.
class MembershipController {
 public:
  /// `changed` (may be null) fires after every membership flip so the
  /// owner's consistency monitors can resample; `rng` must outlive the
  /// controller and is its only randomness source.
  MembershipController(sim::Simulator& sim, Topology& topology, sim::Rng& rng,
                       const ChurnOptions& options,
                       std::function<void()> changed);

  /// Scenario-aware overload: `scenario` may modulate the rejoin process
  /// (flash crowds / diurnal rates) and add shared-risk subtree leave
  /// bursts, all drawing from `scenario_rng` (the dedicated scenario
  /// substream; must be non-null and outlive the controller whenever
  /// scenario.membership_processes() is true).  With every scenario rate
  /// at zero this is bit-identical to the plain overload: the iid churn
  /// draws come from `rng` exactly as before and `scenario_rng` is never
  /// touched.
  MembershipController(sim::Simulator& sim, Topology& topology, sim::Rng& rng,
                       const ChurnOptions& options,
                       const ScenarioOptions& scenario,
                       sim::Rng* scenario_rng, std::function<void()> changed);

  MembershipController(const MembershipController&) = delete;  ///< non-copyable
  MembershipController& operator=(const MembershipController&) = delete;

  /// Schedules the first leave timer of every (joined) leaf.  No-op when
  /// churn is disabled.
  void start();

  /// Resolves pending joins and orphan windows against the current node
  /// state; called by the owner on every topology state change.
  void on_state_change();

  /// Freezes the report: whatever is still pending is counted as such.
  /// Call once, after the simulation horizon.  Every leave, join and burst
  /// event still pending is defused (Simulator::defuse): it keeps its place
  /// in the event stream, runs nothing and no longer refers to the
  /// controller, so membership stops changing with the report frozen and
  /// the owner may destroy the controller once its own events have drained.
  void finish();

  /// The (possibly frozen) churn outcome.
  [[nodiscard]] const ChurnReport& report() const noexcept { return report_; }

 private:
  template <typename Handler>
  void schedule_tracked(double delay, Handler handler);
  void schedule_leave(std::size_t leaf);
  void schedule_join(std::size_t leaf);
  void do_leave(std::size_t leaf);
  void do_join(std::size_t leaf);
  void schedule_burst();
  void do_burst();

  /// One join awaiting its first consistent sample at the leaf.
  struct PendingJoin {
    std::size_t leaf = 0;
    double at = 0.0;
  };
  /// One pruned branch whose relays still held state at leave time.
  struct Orphan {
    double at = 0.0;
    std::vector<std::size_t> relays;  ///< relay ids still holding state
  };

  sim::Simulator& sim_;
  Topology& topology_;
  sim::Rng& rng_;
  ChurnOptions options_;
  ScenarioOptions scenario_;
  sim::Rng* scenario_rng_ = nullptr;  ///< scenario substream (may be null)
  ArrivalProcess arrival_;            ///< rejoin-process sampler
  std::function<void()> changed_;

  /// Handles of every pending leave, join and burst event, for finish()
  /// to defuse.  One per leaf is not enough: a burst-driven leave leaves
  /// the leaf's leave timer pending and the rejoin arms a second one.  A
  /// firing event empties its own entry, and scheduling reuses the first
  /// empty one.
  std::vector<sim::EventId> timers_;
  std::vector<PendingJoin> pending_joins_;
  std::vector<Orphan> orphans_;
  ChurnReport report_;
  bool finished_ = false;
};

}  // namespace sigcomp::protocols
