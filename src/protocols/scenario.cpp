#include "protocols/scenario.hpp"

#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <string>

namespace sigcomp::protocols {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void require_finite_nonnegative(double value, const char* name) {
  if (!std::isfinite(value) || value < 0.0) {
    throw std::invalid_argument(std::string("ScenarioOptions: ") + name +
                                " must be finite and >= 0");
  }
}

}  // namespace

// --------------------------------------------------------- ArrivalConfig --

ArrivalConfig ArrivalConfig::poisson() { return ArrivalConfig{}; }

ArrivalConfig ArrivalConfig::flash_crowd(double at, double rate,
                                         double duration) {
  ArrivalConfig out;
  out.model = ArrivalModel::kFlashCrowd;
  out.flash_time = at;
  out.flash_rate = rate;
  out.flash_duration = duration;
  out.validate();
  return out;
}

ArrivalConfig ArrivalConfig::diurnal(double period, double amplitude) {
  ArrivalConfig out;
  out.model = ArrivalModel::kDiurnal;
  out.period = period;
  out.amplitude = amplitude;
  out.validate();
  return out;
}

void ArrivalConfig::validate() const {
  require_finite_nonnegative(flash_time, "flash_time");
  require_finite_nonnegative(flash_rate, "flash_rate");
  require_finite_nonnegative(flash_duration, "flash_duration");
  require_finite_nonnegative(period, "period");
  require_finite_nonnegative(amplitude, "amplitude");
  if (amplitude > 1.0) {
    throw std::invalid_argument(
        "ScenarioOptions: amplitude must be within [0, 1]");
  }
  if (model == ArrivalModel::kDiurnal && period <= 0.0) {
    throw std::invalid_argument(
        "ScenarioOptions: a diurnal arrival model needs period > 0");
  }
}

// -------------------------------------------------------- ArrivalProcess --

ArrivalProcess::ArrivalProcess(ArrivalConfig config, double base_rate)
    : config_(config), base_rate_(base_rate) {
  config_.validate();
  require_finite_nonnegative(base_rate, "base rejoin rate");
}

double ArrivalProcess::rate_at(double t) const noexcept {
  switch (config_.model) {
    case ArrivalModel::kPoisson:
      return base_rate_;
    case ArrivalModel::kFlashCrowd:
      return base_rate_ + (t >= config_.flash_time &&
                                   t < config_.flash_time +
                                           config_.flash_duration
                               ? config_.flash_rate
                               : 0.0);
    case ArrivalModel::kDiurnal:
      return base_rate_ *
             (1.0 + config_.amplitude *
                        std::sin(2.0 * std::numbers::pi * t / config_.period));
  }
  return base_rate_;  // unreachable; keeps -Werror=return-type happy
}

double ArrivalProcess::next_delay(double now, sim::Rng& rng) const {
  switch (config_.model) {
    case ArrivalModel::kPoisson:
      return base_rate_ > 0.0 ? rng.exponential(1.0 / base_rate_) : kInf;
    case ArrivalModel::kFlashCrowd: {
      // Exact inversion of the piecewise-constant integrated hazard: walk
      // the [now, flash), [flash, flash_end), [flash_end, inf) segments
      // spending the unit-mean exponential target as we go.
      double need = rng.exponential(1.0);
      double t = now;
      const double storm_start = config_.flash_time;
      const double storm_end = config_.flash_time + config_.flash_duration;
      while (true) {
        double rate = base_rate_;
        double segment_end = kInf;
        if (t < storm_start) {
          segment_end = storm_start;
        } else if (t < storm_end) {
          rate += config_.flash_rate;
          segment_end = storm_end;
        }
        if (rate > 0.0) {
          const double dt = need / rate;
          if (t + dt <= segment_end) return t + dt - now;
          need -= rate * (segment_end - t);
        }
        if (!std::isfinite(segment_end)) return kInf;  // tail rate is zero
        t = segment_end;
      }
    }
    case ArrivalModel::kDiurnal: {
      if (base_rate_ <= 0.0) return kInf;
      // Lewis-Shedler thinning at the envelope rate base * (1 + amplitude);
      // the acceptance probability is at least (1 - a) / (1 + a), so the
      // loop terminates quickly for every amplitude < 1 (and almost surely
      // at a = 1).
      const double rate_max = base_rate_ * (1.0 + config_.amplitude);
      double t = now;
      while (true) {
        t += rng.exponential(1.0 / rate_max);
        if (rng.uniform() * rate_max <= rate_at(t)) return t - now;
      }
    }
  }
  return kInf;  // unreachable; keeps -Werror=return-type happy
}

// --------------------------------------------------------- FailureConfig --

FailureConfig FailureConfig::relay_crash(double rate, double recovery,
                                         double detector) {
  FailureConfig out;
  out.crash_rate = rate;
  out.recovery_time = recovery;
  out.detector_delay = detector;
  out.validate();
  return out;
}

void FailureConfig::validate() const {
  require_finite_nonnegative(crash_rate, "crash_rate");
  require_finite_nonnegative(recovery_time, "recovery_time");
  require_finite_nonnegative(detector_delay, "detector_delay");
}

// ------------------------------------------------------ SharedRiskConfig --

SharedRiskConfig SharedRiskConfig::bursts(double rate) {
  SharedRiskConfig out;
  out.burst_rate = rate;
  out.validate();
  return out;
}

void SharedRiskConfig::validate() const {
  require_finite_nonnegative(burst_rate, "burst_rate");
}

// -------------------------------------------------------- ScenarioOptions --

void ScenarioOptions::validate() const {
  arrival.validate();
  shared_risk.validate();
  failure.validate();
}

// --------------------------------------------------- RelayFailureProcess --

RelayFailureProcess::RelayFailureProcess(sim::Simulator& sim,
                                         Topology& topology, sim::Rng& rng,
                                         const FailureConfig& config,
                                         bool external_detector)
    : sim_(sim),
      topology_(topology),
      rng_(rng),
      config_(config),
      external_detector_(external_detector),
      down_(topology.relays(), 0),
      detected_(topology.relays(), 0),
      recovery_event_(topology.relays()),
      detect_event_(topology.relays()) {
  config_.validate();
  for (std::size_t r = 0; r < topology_.relays(); ++r) {
    if (topology_.relay(r).fanout() > 0) interior_.push_back(r);
  }
}

void RelayFailureProcess::start() {
  if (!config_.enabled() || interior_.empty()) return;
  schedule_crash();
}

void RelayFailureProcess::stop() {
  sim_.cancel_timer(crash_timer_);
  for (std::size_t r = 0; r < down_.size(); ++r) {
    sim_.cancel_timer(recovery_event_[r]);
    sim_.cancel_timer(detect_event_[r]);
  }
}

void RelayFailureProcess::schedule_crash() {
  crash_timer_ = sim_.schedule_in(rng_.exponential(1.0 / config_.crash_rate),
                                  [this] { crash_tick(); });
}

void RelayFailureProcess::crash_tick() {
  crash_timer_.reset();
  // The victim draw happens on every tick (a fixed number of draws per
  // crash event keeps the stream layout simple); a victim that is already
  // down just wastes the tick.
  const std::size_t r = interior_[rng_.uniform_int(interior_.size())];
  if (down_[r] == 0) {
    ++crashes_;
    down_[r] = 1;
    detected_[r] = 0;
    topology_.relay(r).crash();
    recovery_event_[r] =
        sim_.schedule_in(rng_.exponential(config_.recovery_time),
                         [this, r] { complete_recovery(r); });
    if (external_detector_) {
      detect_event_[r] =
          sim_.schedule_in(rng_.exponential(config_.detector_delay),
                           [this, r] { complete_detection(r); });
    }
  }
  schedule_crash();
}

void RelayFailureProcess::complete_recovery(std::size_t r) {
  recovery_event_[r].reset();
  down_[r] = 0;
  ++recoveries_;
  topology_.relay(r).recover();
  // Hard state repairs at max(recovery, detection); soft state is left to
  // the next refresh forwarded by the parent.
  if (external_detector_ && detected_[r] != 0) topology_.regraft_edge(r);
}

void RelayFailureProcess::complete_detection(std::size_t r) {
  detect_event_[r].reset();
  detected_[r] = 1;
  if (down_[r] == 0) topology_.regraft_edge(r);
}

}  // namespace sigcomp::protocols
