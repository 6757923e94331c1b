#include "sim/channel_process.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "markov/dense_matrix.hpp"
#include "markov/stationary.hpp"

namespace sigcomp::sim {

namespace {

void check_unit_interval(double p, const char* name) {
  if (!std::isfinite(p) || p < 0.0 || p > 1.0) {
    throw std::invalid_argument(std::string("LossConfig: ") + name +
                                " must be in [0, 1]");
  }
}

}  // namespace

LossConfig LossConfig::iid(double loss) {
  LossConfig config;
  config.model = LossModel::kIid;
  config.loss = loss;
  return config;
}

LossConfig LossConfig::gilbert_elliott(double p_gb, double p_bg,
                                       double loss_bad, double loss_good) {
  LossConfig config;
  config.model = LossModel::kGilbertElliott;
  config.p_gb = p_gb;
  config.p_bg = p_bg;
  config.loss_bad = loss_bad;
  config.loss_good = loss_good;
  return config;
}

LossConfig LossConfig::gilbert_elliott_matched(double mean_loss,
                                               double burst_length,
                                               double loss_bad,
                                               double loss_good) {
  check_unit_interval(mean_loss, "mean_loss");
  check_unit_interval(loss_bad, "loss_bad");
  check_unit_interval(loss_good, "loss_good");
  if (!std::isfinite(burst_length) || burst_length < 1.0) {
    throw std::invalid_argument(
        "LossConfig: burst_length must be >= 1 message");
  }
  if (!(loss_good <= mean_loss && mean_loss < loss_bad)) {
    throw std::invalid_argument(
        "LossConfig: need loss_good <= mean_loss < loss_bad to match the "
        "stationary mean");
  }
  // pi_bad solves mean = (1 - pi_bad) loss_good + pi_bad loss_bad, and the
  // two-state balance equation pi_bad p_bg = pi_good p_gb fixes p_gb.
  const double p_bg = 1.0 / burst_length;
  const double pi_bad = (mean_loss - loss_good) / (loss_bad - loss_good);
  const double p_gb = p_bg * pi_bad / (1.0 - pi_bad);
  if (p_gb > 1.0) {
    throw std::invalid_argument(
        "LossConfig: mean_loss too high for this burst_length (implied "
        "good->bad probability exceeds 1)");
  }
  return gilbert_elliott(p_gb, p_bg, loss_bad, loss_good);
}

double LossConfig::mean_loss() const {
  if (model == LossModel::kIid) return loss;
  // Degenerate chains are reducible (the GTH solver rightly refuses them):
  // the process starts in the good state, so p_gb = 0 never leaves it, and
  // p_bg = 0 (with p_gb > 0) is eventually absorbed in the bad state.
  if (p_gb <= 0.0) return loss_good;
  if (p_bg <= 0.0) return loss_bad;
  markov::DenseMatrix generator(2, 2);
  generator(0, 0) = -p_gb;
  generator(0, 1) = p_gb;
  generator(1, 0) = p_bg;
  generator(1, 1) = -p_bg;
  const std::vector<double> pi = markov::stationary_distribution(generator);
  return pi[0] * loss_good + pi[1] * loss_bad;
}

double LossConfig::mean_burst_length() const {
  if (model == LossModel::kIid) {
    return loss >= 1.0 ? std::numeric_limits<double>::infinity()
                       : 1.0 / (1.0 - loss);
  }
  return p_bg <= 0.0 ? std::numeric_limits<double>::infinity() : 1.0 / p_bg;
}

void LossConfig::validate() const {
  if (model == LossModel::kIid) {
    check_unit_interval(loss, "loss");
    return;
  }
  check_unit_interval(p_gb, "p_gb");
  check_unit_interval(p_bg, "p_bg");
  check_unit_interval(loss_good, "loss_good");
  check_unit_interval(loss_bad, "loss_bad");
}

bool LossProcess::drop(const LossConfig& config, bool& bad,
                       Rng& rng) noexcept {
  if (config.model == LossModel::kIid) return rng.bernoulli(config.loss);
  // Step the chain, then drop according to the post-step state.  Sampling
  // "next state is bad" as u < P(bad | current) makes the degenerate
  // parameterization (p_gb = p, p_bg = 1 - p) consume the stream exactly
  // like iid Bernoulli(p): u < p on every send regardless of state.
  const double to_bad = bad ? 1.0 - config.p_bg : config.p_gb;
  bad = rng.bernoulli(to_bad);
  return rng.bernoulli(bad ? config.loss_bad : config.loss_good);
}

DelayConfig DelayConfig::deterministic(double mean) {
  return DelayConfig{DelayModel::kDeterministic, mean, 0.0};
}

DelayConfig DelayConfig::exponential(double mean) {
  return DelayConfig{DelayModel::kExponential, mean, 0.0};
}

DelayConfig DelayConfig::pareto(double mean, double shape) {
  return DelayConfig{DelayModel::kPareto, mean, shape};
}

DelayConfig DelayConfig::lognormal(double mean, double sigma) {
  return DelayConfig{DelayModel::kLognormal, mean, sigma};
}

DelayConfig DelayConfig::from(Distribution dist, double mean) {
  switch (dist) {
    case Distribution::kDeterministic: return deterministic(mean);
    case Distribution::kExponential: return exponential(mean);
  }
  return exponential(mean);
}

double DelayConfig::sample(Rng& rng) const noexcept {
  switch (model) {
    case DelayModel::kDeterministic: return mean < 0.0 ? 0.0 : mean;
    case DelayModel::kExponential: return rng.exponential(mean);
    case DelayModel::kPareto: return rng.pareto_with_mean(shape, mean);
    case DelayModel::kLognormal: return rng.lognormal_with_mean(mean, shape);
  }
  return mean;
}

void DelayConfig::validate() const {
  if (!std::isfinite(mean) || mean < 0.0) {
    throw std::invalid_argument("DelayConfig: mean must be >= 0");
  }
  if (model == DelayModel::kPareto && !(std::isfinite(shape) && shape > 1.0)) {
    throw std::invalid_argument(
        "DelayConfig: Pareto delay needs tail index > 1 (finite mean)");
  }
  if (model == DelayModel::kLognormal &&
      !(std::isfinite(shape) && shape >= 0.0)) {
    throw std::invalid_argument("DelayConfig: lognormal sigma must be >= 0");
  }
}

}  // namespace sigcomp::sim
