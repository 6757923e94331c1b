// Pluggable arrival and failure scenario processes on live signaling trees.
//
// The paper's churn model is per-leaf iid exponential; real control planes
// die of *correlated* events.  This header factors the scenario out of
// MembershipController exactly the way sim/channel_process factored loss
// out of sim::Channel -- a plain config aggregate plus a stateful sampler:
//
//  - ArrivalConfig / ArrivalProcess: how detached leaves come back.  Pure
//    Poisson (the PR 5 model, default), a flash-crowd storm (an IGMP join
//    burst: the rejoin rate jumps by `flash_rate` for `flash_duration`
//    seconds after the trigger instant `flash_time`, sampled exactly by
//    piecewise-constant hazard inversion), or a diurnal sinusoid (sampled
//    by Lewis-Shedler thinning).
//  - FailureConfig / RelayFailureProcess: interior-relay crash/recovery on
//    a live Topology -- the single-hop ext_crash_recovery contrast
//    generalized onto trees.  A crashed relay goes silent and deaf, so its
//    whole subtree orphans at once; soft state self-heals via the next
//    refresh after recovery, hard state needs the external failure
//    detector, whose (configurable) latency is the crossover knob.
//  - SharedRiskConfig: correlated leave bursts keyed to a subtree -- one
//    shared-risk event detaches every joined leaf below a uniformly drawn
//    relay at once (complementing TreeParams::set_edge_bursty, which
//    correlates *loss* on shared edges).
//
// Determinism: every draw comes from the dedicated scenario substreams in
// core/rng_streams.hpp (kTreeScenario*/kSessionScenario*), so a run with
// every scenario rate at zero consumes no scenario randomness and replays
// the static/iid-churn traces bit-for-bit -- the pinned golden digests
// hold with the layer compiled in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "protocols/topology.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace sigcomp::protocols {

/// Which arrival (rejoin) process detached leaves follow.
enum class ArrivalModel {
  kPoisson,     ///< homogeneous Poisson at the churn rejoin rate (default)
  kFlashCrowd,  ///< rate jumps by flash_rate inside the storm window
  kDiurnal,     ///< rate modulated by a sinusoid (period, amplitude)
};

/// Full description of an arrival process.  Plain aggregate so options
/// structs can embed and compare it; the base rejoin rate stays in
/// ChurnOptions::rejoin_rate -- this config only describes the modulation.
struct ArrivalConfig {
  ArrivalModel model = ArrivalModel::kPoisson;  ///< which process runs
  double flash_time = 0.0;      ///< storm trigger instant (seconds)
  double flash_rate = 0.0;      ///< extra rejoin rate inside the storm (1/s)
  double flash_duration = 0.0;  ///< storm length (seconds)
  double period = 0.0;          ///< diurnal period (seconds)
  double amplitude = 0.0;       ///< diurnal relative amplitude in [0, 1]

  /// Homogeneous Poisson rejoins (the PR 5 iid model).
  [[nodiscard]] static ArrivalConfig poisson();

  /// Flash-crowd storm: the rejoin rate is base + `rate` for t in
  /// [`at`, `at` + `duration`), base otherwise.
  [[nodiscard]] static ArrivalConfig flash_crowd(double at, double rate,
                                                 double duration);

  /// Diurnal modulation: rate(t) = base * (1 + amplitude * sin(2 pi t /
  /// period)).
  [[nodiscard]] static ArrivalConfig diurnal(double period, double amplitude);

  /// True when the process differs from homogeneous Poisson (and therefore
  /// draws from the dedicated scenario substream).
  [[nodiscard]] bool modulated() const noexcept {
    return model != ArrivalModel::kPoisson;
  }

  /// Throws std::invalid_argument (name-labelled) on negative times/rates,
  /// amplitude outside [0, 1], or a diurnal model without a positive period.
  void validate() const;

  friend bool operator==(const ArrivalConfig&,
                         const ArrivalConfig&) = default;  ///< field-wise
};

/// Stateful sampler of an ArrivalConfig: draws the waiting time until a
/// detached leaf's next (re)join attempt from the configured
/// non-homogeneous Poisson process.
class ArrivalProcess {
 public:
  /// No arrivals ever (base rate zero, pure Poisson).
  ArrivalProcess() = default;

  /// Validates the configuration (throws std::invalid_argument).
  /// `base_rate` is the homogeneous component -- ChurnOptions::rejoin_rate.
  ArrivalProcess(ArrivalConfig config, double base_rate);

  /// The configuration this process samples.
  [[nodiscard]] const ArrivalConfig& config() const noexcept {
    return config_;
  }
  /// The homogeneous base rate (1/s).
  [[nodiscard]] double base_rate() const noexcept { return base_rate_; }

  /// The instantaneous rate lambda(t).
  [[nodiscard]] double rate_at(double t) const noexcept;

  /// Draws the delay from `now` until the next arrival; +infinity when no
  /// further arrival can occur (all remaining rate is zero).  Flash crowds
  /// invert the piecewise-constant integrated hazard exactly; diurnal
  /// rates use Lewis-Shedler thinning at lambda_max = base * (1 +
  /// amplitude).
  [[nodiscard]] double next_delay(double now, sim::Rng& rng) const;

 private:
  ArrivalConfig config_{};
  double base_rate_ = 0.0;
};

/// Interior-relay crash/recovery workload knobs.  Defaults disable the
/// process (no crashes: the bit-identity baseline).
struct FailureConfig {
  /// Tree-wide crash rate (crashes/s, exponential inter-crash times);
  /// <= 0 disables the process.  Each crash picks a uniform interior relay.
  double crash_rate = 0.0;
  /// Mean relay downtime in seconds (exponential).
  double recovery_time = 10.0;
  /// Mean latency of the hard-state external failure detector in seconds
  /// (exponential); repair (re-graft from the parent's cached copy) happens
  /// at max(recovery, detection).  Soft-state protocols ignore it -- they
  /// self-heal via the first refresh after recovery.
  double detector_delay = 5.0;

  /// Interior-relay crashes at `rate` with the given mean downtime and
  /// detector latency.
  [[nodiscard]] static FailureConfig relay_crash(double rate,
                                                 double recovery = 10.0,
                                                 double detector = 5.0);

  /// True when the process has anything to do.
  [[nodiscard]] bool enabled() const noexcept { return crash_rate > 0.0; }

  /// Throws std::invalid_argument (name-labelled) on non-finite or
  /// negative values.
  void validate() const;

  friend bool operator==(const FailureConfig&,
                         const FailureConfig&) = default;  ///< field-wise
};

/// Shared-risk correlated leave bursts.  Defaults disable the process.
struct SharedRiskConfig {
  /// Tree-wide burst rate (bursts/s, exponential inter-burst times); <= 0
  /// disables the process.  Each burst detaches every joined leaf below a
  /// uniformly drawn relay at once.
  double burst_rate = 0.0;

  /// Subtree leave bursts at `rate`.
  [[nodiscard]] static SharedRiskConfig bursts(double rate);

  /// True when the process has anything to do.
  [[nodiscard]] bool enabled() const noexcept { return burst_rate > 0.0; }

  /// Throws std::invalid_argument (name-labelled) on non-finite or
  /// negative values.
  void validate() const;

  friend bool operator==(const SharedRiskConfig&,
                         const SharedRiskConfig&) = default;  ///< field-wise
};

/// The full scenario of a run: arrival modulation, shared-risk leave
/// bursts and interior-relay failures.  All defaults off -- the static /
/// iid-churn baseline every golden digest pins.
struct ScenarioOptions {
  ArrivalConfig arrival;      ///< how detached leaves come back
  SharedRiskConfig shared_risk;  ///< correlated subtree leave bursts
  FailureConfig failure;      ///< interior-relay crash/recovery

  /// True when the membership controller needs the scenario substream
  /// (modulated arrivals or shared-risk bursts).
  [[nodiscard]] bool membership_processes() const noexcept {
    return arrival.modulated() || shared_risk.enabled();
  }

  /// True when any scenario process is active.
  [[nodiscard]] bool enabled() const noexcept {
    return membership_processes() || failure.enabled();
  }

  /// Validates every embedded config (throws std::invalid_argument with
  /// the offending option named).
  void validate() const;

  friend bool operator==(const ScenarioOptions&,
                         const ScenarioOptions&) = default;  ///< field-wise
};

/// Drives interior-relay crashes and recoveries on a live Topology.
///
/// Crash semantics: the victim relay loses its state copy and every pending
/// timer silently and goes deaf (TreeRelay::crash) -- its subtree is
/// orphaned at once.  The parent keeps the edge active.  Recovery
/// (TreeRelay::recover) restores message processing but NOT state; repair
/// is protocol-shaped:
///  - soft state (refresh-driven): the first refresh forwarded by the
///    parent after recovery re-installs the copy, so the expected outage is
///    about downtime + refresh/2 -- no detector involved;
///  - hard state (external_failure_detector): nothing refreshes, so the
///    process models an external detector with exponential latency
///    `detector_delay`; the parent's cached copy is re-grafted down the
///    edge (Topology::regraft_edge) at max(recovery, detection).
/// Crossing the detector latency over the soft-state refresh interval
/// reproduces the single-hop ext_crash_recovery contrast on trees.
class RelayFailureProcess {
 public:
  /// `external_detector` selects the hard-state repair path (pass
  /// MechanismSet::external_failure_detector).  `rng` must outlive the
  /// process and must be the dedicated scenario-failure substream.
  /// Validates `config` (throws std::invalid_argument).
  RelayFailureProcess(sim::Simulator& sim, Topology& topology, sim::Rng& rng,
                      const FailureConfig& config, bool external_detector);

  RelayFailureProcess(const RelayFailureProcess&) = delete;  ///< non-copyable
  RelayFailureProcess& operator=(const RelayFailureProcess&) = delete;

  /// Schedules the first crash.  No-op when the config is disabled or the
  /// tree has no interior relay (a single-hop star's relays are all
  /// leaves).
  void start();

  /// Cancels every pending crash/recovery/detection event (the session-farm
  /// teardown path: a finished session must leave no straggler events).
  void stop();

  /// Crashes driven so far.
  [[nodiscard]] std::uint64_t crashes() const noexcept { return crashes_; }
  /// Recoveries completed so far.
  [[nodiscard]] std::uint64_t recoveries() const noexcept {
    return recoveries_;
  }
  /// True while relay `r` is crashed by this process.
  [[nodiscard]] bool down(std::size_t r) const { return down_[r] != 0; }

 private:
  void schedule_crash();
  void crash_tick();
  void complete_recovery(std::size_t r);
  void complete_detection(std::size_t r);

  sim::Simulator& sim_;
  Topology& topology_;
  sim::Rng& rng_;
  FailureConfig config_;
  bool external_detector_ = false;

  std::vector<std::size_t> interior_;  ///< relays with fanout > 0
  std::vector<char> down_;             ///< per relay: currently crashed
  std::vector<char> detected_;         ///< per relay: detector fired already
  std::vector<sim::EventId> recovery_event_;  ///< per relay
  std::vector<sim::EventId> detect_event_;    ///< per relay
  sim::EventId crash_timer_;
  std::uint64_t crashes_ = 0;
  std::uint64_t recoveries_ = 0;
};

}  // namespace sigcomp::protocols
