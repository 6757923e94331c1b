#include "core/params.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace sigcomp {

namespace {

void require(bool condition, const std::string& message) {
  if (!condition) throw std::invalid_argument(message);
}

void check_probability(double p, const char* name) {
  require(std::isfinite(p) && p >= 0.0 && p < 1.0,
          std::string(name) + " must be in [0, 1)");
}

void check_positive(double v, const char* name) {
  require(std::isfinite(v) && v > 0.0, std::string(name) + " must be > 0");
}

void check_non_negative(double v, const char* name) {
  require(std::isfinite(v) && v >= 0.0, std::string(name) + " must be >= 0");
}

/// Copies a matched GE parameterization into the ge_* fields shared by the
/// single- and multi-hop parameter structs.
template <typename Params>
Params bursty_copy(const Params& base, double burst_length, double loss_bad) {
  const sim::LossConfig config = sim::LossConfig::gilbert_elliott_matched(
      base.loss, burst_length, loss_bad);
  Params p = base;
  p.loss_model = sim::LossModel::kGilbertElliott;
  p.ge_p_gb = config.p_gb;
  p.ge_p_bg = config.p_bg;
  p.ge_loss_good = config.loss_good;
  p.ge_loss_bad = config.loss_bad;
  return p;
}

template <typename Params>
sim::LossConfig loss_config_of(const Params& p) {
  if (p.loss_model == sim::LossModel::kIid) return sim::LossConfig::iid(p.loss);
  return sim::LossConfig::gilbert_elliott(p.ge_p_gb, p.ge_p_bg, p.ge_loss_bad,
                                          p.ge_loss_good);
}

/// Analytic results use `loss`, the simulator uses the GE chain; silently
/// letting them disagree would make every model-vs-sim comparison
/// apples-to-oranges, so validation pins `loss` to the stationary mean.
void check_mean_loss_coherence(const sim::LossConfig& config, double loss) {
  if (config.model == sim::LossModel::kIid) return;
  if (std::abs(config.mean_loss() - loss) > 1e-9) {
    throw std::invalid_argument(
        "loss must equal the Gilbert-Elliott stationary mean; use "
        "with_bursty_loss(), or set loss = loss_config().mean_loss()");
  }
}

}  // namespace

double SingleHopParams::false_removal_rate() const {
  if (loss <= 0.0) return 0.0;
  return std::pow(loss, timeout_timer / refresh_timer) / timeout_timer;
}

SingleHopParams SingleHopParams::with_delay_scaled_retrans(double new_delay) const {
  SingleHopParams p = *this;
  p.delay = new_delay;
  p.retrans_timer = 4.0 * new_delay;
  return p;
}

SingleHopParams SingleHopParams::with_refresh_scaled_timeout(double new_refresh) const {
  SingleHopParams p = *this;
  p.refresh_timer = new_refresh;
  p.timeout_timer = 3.0 * new_refresh;
  return p;
}

sim::LossConfig SingleHopParams::loss_config() const {
  return loss_config_of(*this);
}

SingleHopParams SingleHopParams::with_bursty_loss(double burst_length,
                                                  double loss_bad) const {
  return bursty_copy(*this, burst_length, loss_bad);
}

void SingleHopParams::validate() const {
  check_probability(loss, "loss");
  loss_config().validate();
  check_mean_loss_coherence(loss_config(), loss);
  check_positive(delay, "delay");
  check_non_negative(update_rate, "update_rate");
  check_positive(removal_rate, "removal_rate");
  check_positive(refresh_timer, "refresh_timer");
  check_positive(timeout_timer, "timeout_timer");
  check_positive(retrans_timer, "retrans_timer");
  check_non_negative(false_signal_rate, "false_signal_rate");
}

sim::LossConfig MultiHopParams::loss_config() const {
  return loss_config_of(*this);
}

MultiHopParams MultiHopParams::with_bursty_loss(double burst_length,
                                                double loss_bad) const {
  return bursty_copy(*this, burst_length, loss_bad);
}

void MultiHopParams::validate() const {
  require(hops >= 1, "hops must be >= 1");
  check_probability(loss, "loss");
  loss_config().validate();
  check_mean_loss_coherence(loss_config(), loss);
  check_positive(delay, "delay");
  check_non_negative(update_rate, "update_rate");
  check_positive(refresh_timer, "refresh_timer");
  check_positive(timeout_timer, "timeout_timer");
  check_positive(retrans_timer, "retrans_timer");
  check_non_negative(false_signal_rate, "false_signal_rate");
}

}  // namespace sigcomp
