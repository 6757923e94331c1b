// Multi-hop signaling model (Sec. III-B of the paper).
//
// A sender installs state along a chain of K hops.  State lifetime is
// infinite; the model studies how updates propagate.  Markov states are
// (k, s): k = number of consistent hops (0..K), s = fast path (a trigger is
// being forwarded hop-by-hop) or slow path (the trigger was lost and repair
// waits for a refresh and/or retransmission).  (K, fast) is the fully
// consistent state.  The HS protocol adds a recovery state entered on a
// false external removal signal.
//
// The paper's chain has K identical hops (PathParams::from_homogeneous).
// Each hop may also carry its own loss and delay -- one congested peering
// link, or one root-to-leaf path of a tree (analytic/tree_paths.hpp) --
// and the model is the paper's whenever all hops are equal.
#pragma once

#include <cstddef>
#include <vector>

#include "core/metrics.hpp"
#include "core/params.hpp"
#include "core/protocol.hpp"
#include "markov/ctmc.hpp"

namespace sigcomp::analytic {

/// Per-hop channel characteristics and timers of a K-hop chain.
struct PathParams {
  std::vector<double> loss;   ///< per-hop *average* loss probability (size = K)
  std::vector<double> delay;  ///< per-hop one-way delay (size = K)
  double update_rate = 1.0 / 60.0;  ///< lambda_u: sender update rate
  double refresh_timer = 5.0;       ///< R
  double timeout_timer = 15.0;      ///< T
  double retrans_timer = 0.120;     ///< Gamma
  /// lambda_e: HS per-receiver false external-signal rate.
  double false_signal_rate = 0.02 * 0.02 * 0.02 * 0.02;

  [[nodiscard]] std::size_t hops() const noexcept { return loss.size(); }

  /// The paper's chain: params.hops hops, each with params.loss and
  /// params.delay.  Throws std::invalid_argument on bad params.
  [[nodiscard]] static PathParams from_homogeneous(
      const MultiHopParams& params);

  /// Probability that a message from the sender survives hops 1..k.
  [[nodiscard]] double survival_through(std::size_t k) const;

  /// Expected per-hop transmissions of one end-to-end message (a refresh):
  /// the message crosses hop i+1 iff it survived hops 1..i.
  [[nodiscard]] double expected_hop_transmissions() const;

  /// Rate of leaving the HS recovery state: the false-removal notification
  /// must reach the other receivers and the sender across the chain before
  /// a fresh trigger is emitted; approximated as 1 / (2 * total path delay).
  [[nodiscard]] double recovery_rate() const;

  /// Throws std::invalid_argument on empty/mismatched vectors or values
  /// out of domain.
  void validate() const;
};

/// Multi-hop analytic model for SS, SS+RT or HS (the protocols the paper
/// analyzes in the multi-hop setting).
class MultiHopModel {
 public:
  /// Throws std::invalid_argument on bad params or a protocol outside
  /// supports_multi_hop.  SS+ER and SS+RTR reduce to their base chains: the
  /// chain has no removal transitions.
  MultiHopModel(ProtocolKind kind, PathParams params);

  [[nodiscard]] ProtocolKind kind() const noexcept { return kind_; }
  [[nodiscard]] const PathParams& params() const noexcept { return params_; }
  [[nodiscard]] const markov::Ctmc& chain() const noexcept { return chain_; }

  /// Stationary probability of (k, s); s = 0 fast path, s = 1 slow path.
  /// (K, 1) does not exist and reports 0.
  [[nodiscard]] double stationary(std::size_t k, int s) const;

  /// Stationary probability of the HS recovery state (0 for SS/SS+RT).
  [[nodiscard]] double recovery_probability() const;

  /// I (Eq. 12): 1 - pi(K, fast).
  [[nodiscard]] double inconsistency() const;

  /// Fraction of time hop i (1-based, 1 <= i <= K) is inconsistent: the
  /// probability that fewer than i hops are consistent (Fig. 17).  The HS
  /// recovery state counts as all-hops-inconsistent.
  [[nodiscard]] double hop_inconsistency(std::size_t hop) const;

  /// Raw stationary message rate in msg/s across the whole chain, counting
  /// per-hop transmissions (Eqs. 13-17; see DESIGN.md section 3.2 for the
  /// exact accounting reproduced here).
  [[nodiscard]] MessageRateBreakdown message_rates() const;

  /// Metrics bundle; message_rate == raw_message_rate (no lifetime
  /// normalization in the infinite-lifetime model), session_length == 0.
  [[nodiscard]] Metrics metrics() const;

  /// First timeout at hop j+1 (none earlier), Eq. (9) with the refresh
  /// delivery probability through hop j taken as a product of per-hop
  /// survival probabilities (s_j = (1-pl)^j on the paper's chain):
  /// [ (1 - s_(j+1))^(T/R) - (1 - s_j)^(T/R) ] / T.
  [[nodiscard]] static double timeout_rate(const PathParams& params,
                                           std::size_t j);

 private:
  ProtocolKind kind_;
  PathParams params_;
  markov::Ctmc chain_;
  std::vector<markov::StateId> fast_;   ///< (k, 0) for k = 0..K
  std::vector<markov::StateId> slow_;   ///< (k, 1) for k = 0..K-1
  std::size_t recovery_ = 0;            ///< HS recovery state id
  bool has_recovery_ = false;
  std::vector<double> pi_;
};

/// Convenience: metrics for one protocol at one point of the paper's
/// homogeneous chain.
[[nodiscard]] Metrics evaluate_multi_hop(ProtocolKind kind,
                                         const MultiHopParams& params);

}  // namespace sigcomp::analytic
