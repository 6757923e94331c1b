#include "analytic/multi_hop.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "markov/stationary.hpp"

namespace sigcomp::analytic {

PathParams PathParams::from_homogeneous(const MultiHopParams& params) {
  params.validate();
  PathParams out;
  out.loss.assign(params.hops, params.loss);
  out.delay.assign(params.hops, params.delay);
  out.update_rate = params.update_rate;
  out.refresh_timer = params.refresh_timer;
  out.timeout_timer = params.timeout_timer;
  out.retrans_timer = params.retrans_timer;
  out.false_signal_rate = params.false_signal_rate;
  return out;
}

double PathParams::survival_through(std::size_t k) const {
  if (k > loss.size()) {
    throw std::out_of_range("PathParams::survival_through");
  }
  double p = 1.0;
  for (std::size_t i = 0; i < k; ++i) p *= 1.0 - loss[i];
  return p;
}

double PathParams::expected_hop_transmissions() const {
  double expected = 0.0;
  for (std::size_t i = 0; i < hops(); ++i) expected += survival_through(i);
  return expected;
}

double PathParams::recovery_rate() const {
  const double path_delay = std::accumulate(delay.begin(), delay.end(), 0.0);
  return 1.0 / (2.0 * path_delay);
}

void PathParams::validate() const {
  if (loss.empty()) {
    throw std::invalid_argument("PathParams: at least one hop required");
  }
  if (loss.size() != delay.size()) {
    throw std::invalid_argument(
        "PathParams: loss and delay vectors must have equal size");
  }
  for (const double pl : loss) {
    if (!std::isfinite(pl) || pl < 0.0 || pl >= 1.0) {
      throw std::invalid_argument("PathParams: loss must be in [0, 1)");
    }
  }
  for (const double d : delay) {
    if (!std::isfinite(d) || d <= 0.0) {
      throw std::invalid_argument("PathParams: delay must be > 0");
    }
  }
  if (!std::isfinite(update_rate) || update_rate < 0.0) {
    throw std::invalid_argument("PathParams: update_rate must be >= 0");
  }
  for (const double timer : {refresh_timer, timeout_timer, retrans_timer}) {
    if (!std::isfinite(timer) || timer <= 0.0) {
      throw std::invalid_argument("PathParams: timers must be > 0");
    }
  }
  if (!std::isfinite(false_signal_rate) || false_signal_rate < 0.0) {
    throw std::invalid_argument("PathParams: false_signal_rate must be >= 0");
  }
}

double MultiHopModel::timeout_rate(const PathParams& params, std::size_t j) {
  const double exponent = params.timeout_timer / params.refresh_timer;
  const double upper = std::pow(1.0 - params.survival_through(j + 1), exponent);
  const double lower =
      j == 0 ? 0.0 : std::pow(1.0 - params.survival_through(j), exponent);
  return std::max(0.0, upper - lower) / params.timeout_timer;
}

MultiHopModel::MultiHopModel(ProtocolKind kind, PathParams params)
    : kind_(kind), params_(std::move(params)) {
  params_.validate();
  if (!supports_multi_hop(kind_)) {
    throw std::invalid_argument("MultiHopModel: unsupported protocol " +
                                std::string(to_string(kind_)));
  }
  const MechanismSet mech = mechanisms(kind_);
  const std::size_t k_hops = params_.hops();

  for (std::size_t k = 0; k <= k_hops; ++k) {
    fast_.push_back(chain_.add_state("(" + std::to_string(k) + ",fast)"));
  }
  for (std::size_t k = 0; k < k_hops; ++k) {
    slow_.push_back(chain_.add_state("(" + std::to_string(k) + ",slow)"));
  }
  if (mech.external_failure_detector) {
    recovery_ = chain_.add_state("recovery");
    has_recovery_ = true;
  }

  // --- Fast path: the in-flight trigger either crosses hop k+1 or is lost
  // there; hop k+1 has its own loss and delay.
  for (std::size_t k = 0; k < k_hops; ++k) {
    const double pl = params_.loss[k];
    const double d = params_.delay[k];
    chain_.add_rate(fast_[k], fast_[k + 1], (1.0 - pl) / d);
    chain_.add_rate(fast_[k], slow_[k], pl / d);
  }

  // --- Slow path repair (Eqs. 10-11): a refresh must survive hops 1..k+1
  // to repair hop k+1; a hop-local retransmission must survive hop k+1.
  for (std::size_t k = 0; k < k_hops; ++k) {
    double repair = 0.0;
    if (mech.refresh) {
      repair += params_.survival_through(k + 1) / params_.refresh_timer;
    }
    if (mech.reliable_trigger) {
      repair += (1.0 - params_.loss[k]) / params_.retrans_timer;
    }
    chain_.add_rate(slow_[k], fast_[k + 1], repair);
  }

  // --- Updates: a new value restarts propagation from scratch.
  for (std::size_t k = 1; k <= k_hops; ++k) {
    chain_.add_rate(fast_[k], fast_[0], params_.update_rate);
  }
  for (std::size_t k = 0; k < k_hops; ++k) {
    chain_.add_rate(slow_[k], fast_[0], params_.update_rate);
  }

  // --- Soft-state timeout (Eq. 9): first expiry at hop j+1 wipes hops
  // j+1..K; applied from states where no trigger is in flight toward an
  // earlier hop (the consistent state and slow-path states), matching the
  // single-hop serialization convention.
  if (mech.soft_timeout) {
    for (std::size_t j = 0; j < k_hops; ++j) {
      const double rate = timeout_rate(params_, j);
      if (rate <= 0.0) continue;
      chain_.add_rate(fast_[k_hops], slow_[j], rate);
      for (std::size_t i = j + 1; i < k_hops; ++i) {
        chain_.add_rate(slow_[i], slow_[j], rate);
      }
    }
  }

  // --- HS false removal: a false external signal at any of the K receivers
  // tears down state; the chain enters the recovery state until the
  // notification crosses the chain and the sender re-triggers.
  if (mech.external_failure_detector) {
    const double rate = static_cast<double>(k_hops) * params_.false_signal_rate;
    if (rate > 0.0) {
      chain_.add_rate(fast_[k_hops], recovery_, rate);
      for (std::size_t k = 0; k < k_hops; ++k) {
        chain_.add_rate(slow_[k], recovery_, rate);
      }
      chain_.add_rate(recovery_, fast_[0], params_.recovery_rate());
    }
  }

  pi_ = markov::stationary_distribution_from(chain_, fast_[0]);
}

double MultiHopModel::stationary(std::size_t k, int s) const {
  if (s == 0) {
    if (k >= fast_.size()) {
      throw std::out_of_range("MultiHopModel: k out of range");
    }
    return pi_[fast_[k]];
  }
  if (s == 1) {
    if (k >= slow_.size()) return 0.0;
    return pi_[slow_[k]];
  }
  throw std::invalid_argument("MultiHopModel::stationary: s must be 0 or 1");
}

double MultiHopModel::recovery_probability() const {
  return has_recovery_ ? pi_[recovery_] : 0.0;
}

double MultiHopModel::inconsistency() const {
  return 1.0 - stationary(params_.hops(), 0);
}

double MultiHopModel::hop_inconsistency(std::size_t hop) const {
  if (hop < 1 || hop > params_.hops()) {
    throw std::out_of_range(
        "MultiHopModel::hop_inconsistency: hop out of range");
  }
  double p = recovery_probability();
  for (std::size_t k = 0; k < hop; ++k) {
    p += stationary(k, 0);
    p += stationary(k, 1);
  }
  return p;
}

MessageRateBreakdown MultiHopModel::message_rates() const {
  const MechanismSet mech = mechanisms(kind_);
  const std::size_t k_hops = params_.hops();
  MessageRateBreakdown m;

  // In every fast-path state one hop-transmission of the in-flight trigger
  // completes at rate 1/D of the hop it is crossing.
  for (std::size_t k = 0; k < k_hops; ++k) {
    m.trigger += stationary(k, 0) / params_.delay[k];
  }

  // Refreshes: the sender emits one per R; each costs the expected number of
  // per-hop transmissions of an end-to-end message.
  if (mech.refresh) {
    m.refresh = params_.expected_hop_transmissions() / params_.refresh_timer;
  }

  if (mech.reliable_trigger) {
    // Hop-local retransmissions in slow-path states, plus one ACK per
    // successful hop delivery (fast-path crossings and repaired hops).
    double retransmissions = 0.0;
    double acks = 0.0;
    for (std::size_t k = 0; k < k_hops; ++k) {
      const double q = 1.0 - params_.loss[k];
      retransmissions += stationary(k, 1) / params_.retrans_timer;
      acks += stationary(k, 0) * q / params_.delay[k] +
              stationary(k, 1) * q / params_.retrans_timer;
    }
    m.reliable_trigger = retransmissions + acks;
  }

  if (mech.external_failure_detector) {
    // Each recovery event floods ~2K notification/teardown messages across
    // the chain (receiver -> everyone, sender re-trigger pre-flight).
    const double recovery_events =
        recovery_probability() * params_.recovery_rate();
    m.reliable_removal = recovery_events * 2.0 * static_cast<double>(k_hops);
  }
  return m;
}

Metrics MultiHopModel::metrics() const {
  Metrics out;
  out.inconsistency = inconsistency();
  out.breakdown = message_rates();
  out.raw_message_rate = out.breakdown.total();
  out.message_rate = out.raw_message_rate;
  out.session_length = 0.0;
  return out;
}

Metrics evaluate_multi_hop(ProtocolKind kind, const MultiHopParams& params) {
  return MultiHopModel(kind, PathParams::from_homogeneous(params)).metrics();
}

}  // namespace sigcomp::analytic
