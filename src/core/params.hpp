// Parameter sets for the single-hop and multi-hop signaling models.
//
// Defaults reproduce the paper's evaluation settings: the single-hop
// "Kazaa peer <-> supernode" scenario (Sec. III-A.3) and the multi-hop
// "bandwidth reservation along a path" scenario (Sec. III-B.2).
#pragma once

#include <cstddef>

#include "core/protocol.hpp"
#include "sim/channel_process.hpp"

namespace sigcomp {

/// Parameters of the single-hop sender/receiver model (Sec. III-A).
///
/// All times are in seconds, all rates in 1/seconds, loss is a probability.
struct SingleHopParams {
  double loss = 0.02;            ///< pl: per-message loss probability
  double delay = 0.030;          ///< D: one-way channel delay (mean)
  double update_rate = 1.0 / 20.0;    ///< lambda_u: state updates per second
  double removal_rate = 1.0 / 1800.0; ///< lambda_r: 1/mean session lifetime
  double refresh_timer = 5.0;    ///< R: soft-state refresh interval
  double timeout_timer = 15.0;   ///< T: receiver state-timeout interval
  double retrans_timer = 0.120;  ///< Gamma: retransmission timer (default 4D)
  double false_signal_rate = 1e-4;  ///< lambda_e: HS external false signal rate

  /// Loss-process selection for the simulator.  `loss` always remains the
  /// *average* loss rate (the analytic model only sees averages); under
  /// kGilbertElliott the simulator drops messages in correlated bursts
  /// driven by the ge_* chain parameters instead of iid coin flips.
  /// validate() enforces that `loss` equals the chain's stationary mean,
  /// so model-vs-sim comparisons stay apples-to-apples -- prefer
  /// with_bursty_loss(), which guarantees it by construction.
  sim::LossModel loss_model = sim::LossModel::kIid;
  double ge_p_gb = 0.0;       ///< GE: P(good -> bad) per message
  double ge_p_bg = 1.0;       ///< GE: P(bad -> good) per message
  double ge_loss_good = 0.0;  ///< GE: drop probability in the good state
  double ge_loss_bad = 1.0;   ///< GE: drop probability in the bad state

  /// Paper defaults for the Kazaa scenario (already the member defaults;
  /// spelled out for readability at call sites).
  [[nodiscard]] static SingleHopParams kazaa_defaults() { return {}; }

  /// The loss process the simulator should run for this parameter set.
  [[nodiscard]] sim::LossConfig loss_config() const;

  /// Returns a copy with Gilbert-Elliott bursty loss whose stationary mean
  /// equals the current `loss` and whose mean burst length is
  /// `burst_length` messages (sim::LossConfig::gilbert_elliott_matched) --
  /// the analytic prediction is unchanged, only the correlation structure
  /// of the simulated channel moves.
  [[nodiscard]] SingleHopParams with_bursty_loss(double burst_length,
                                                 double loss_bad = 1.0) const;

  /// lambda_F: rate at which soft state is falsely removed at the receiver
  /// because every refresh within a timeout interval was lost:
  /// pl^(T/R) / T  (Sec. III-A.1).
  [[nodiscard]] double false_removal_rate() const;

  /// Expected session lifetime 1/lambda_r.
  [[nodiscard]] double mean_lifetime() const { return 1.0 / removal_rate; }

  /// Returns a copy with delay changed and the retransmission timer kept
  /// proportional (Gamma = 4D), as the paper does when sweeping delay.
  [[nodiscard]] SingleHopParams with_delay_scaled_retrans(double new_delay) const;

  /// Returns a copy with the refresh timer changed and the timeout timer kept
  /// at 3R, as the paper does when sweeping the refresh timer (Fig. 6, 7, 9).
  [[nodiscard]] SingleHopParams with_refresh_scaled_timeout(double new_refresh) const;

  /// Throws std::invalid_argument if any parameter is out of domain
  /// (loss outside [0,1), non-positive delay/timers, negative rates, ...).
  void validate() const;

  friend bool operator==(const SingleHopParams&, const SingleHopParams&) = default;
};

/// Parameters of the multi-hop chain model (Sec. III-B).  State lifetime is
/// infinite; only update propagation is studied.
struct MultiHopParams {
  std::size_t hops = 20;        ///< K: number of links in the chain
  double loss = 0.02;           ///< pl: per-hop loss probability (iid)
  double delay = 0.030;         ///< D: per-hop one-way delay (mean)
  double update_rate = 1.0 / 60.0;  ///< lambda_u: sender update rate
  double refresh_timer = 5.0;   ///< R
  double timeout_timer = 15.0;  ///< T
  double retrans_timer = 0.120; ///< Gamma (default 4D)
  /// lambda_e: HS per-receiver false external-signal rate.  The paper sets
  /// this to a power of the loss rate (OCR-ambiguous exponent); we use pl^4.
  double false_signal_rate = 0.02 * 0.02 * 0.02 * 0.02;

  /// Loss-process selection for the simulator (applied to every hop; see
  /// SingleHopParams, and analytic::TreeParams::set_edge_bursty for per-hop
  /// heterogeneous burstiness).  `loss` stays the per-hop average.
  sim::LossModel loss_model = sim::LossModel::kIid;
  double ge_p_gb = 0.0;       ///< GE: P(good -> bad) per message
  double ge_p_bg = 1.0;       ///< GE: P(bad -> good) per message
  double ge_loss_good = 0.0;  ///< GE: drop probability in the good state
  double ge_loss_bad = 1.0;   ///< GE: drop probability in the bad state

  [[nodiscard]] static MultiHopParams reservation_defaults() { return {}; }

  /// The per-hop loss process the simulator should run.
  [[nodiscard]] sim::LossConfig loss_config() const;

  /// Returns a copy with per-hop GE bursty loss matched to the current
  /// per-hop mean `loss` (see SingleHopParams::with_bursty_loss).
  [[nodiscard]] MultiHopParams with_bursty_loss(double burst_length,
                                                double loss_bad = 1.0) const;

  /// Throws std::invalid_argument if any parameter is out of domain.
  void validate() const;

  friend bool operator==(const MultiHopParams&, const MultiHopParams&) = default;
};

/// Integrated-cost weight (Eq. 8): C = w * I + M.  Paper uses w = 10 msg/s.
inline constexpr double kDefaultCostWeight = 10.0;

}  // namespace sigcomp
