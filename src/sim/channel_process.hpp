// Pluggable channel loss and delay processes.
//
// The paper models the network as a channel with iid Bernoulli loss and a
// single delay distribution.  Real signaling paths exhibit *bursty*
// (correlated) loss and heavy-tailed delay, which stress soft-state refresh
// and hard-state reliable retransmission very differently at the same
// average loss rate.  This header factors both choices out of sim::Channel:
//
//  - LossConfig / LossProcess::drop: iid Bernoulli (the paper's model,
//    default) or a two-state Gilbert-Elliott Markov chain -- good/bad
//    states with per-message transition probabilities p_gb/p_bg and
//    per-state drop probabilities.  The GE stationary mean loss rate is
//    computed with the markov/stationary GTH solver, so bursty-vs-iid
//    comparisons can hold the average loss fixed while sweeping burst
//    length.
//  - DelayConfig: deterministic/exponential as before, plus Pareto and
//    lognormal heavy-tail laws reusing the Rng primitives (no bench-local
//    sampling hacks).
//  - LinkConfig: one link's loss and delay configuration, built once and
//    borrowed by every channel that runs the link.
#pragma once

#include "sim/rng.hpp"

namespace sigcomp::sim {

/// Which loss process a channel runs.
enum class LossModel {
  kIid,             ///< iid Bernoulli(loss) -- the paper's channel
  kGilbertElliott,  ///< two-state bursty loss (good/bad Markov chain)
};

/// Full description of a channel loss process.  Plain aggregate so parameter
/// structs can embed and compare it.
struct LossConfig {
  LossModel model = LossModel::kIid;  ///< which process the channel runs
  double loss = 0.0;       ///< iid drop probability (unused under GE)
  double p_gb = 0.0;       ///< GE: P(good -> bad) per message
  double p_bg = 1.0;       ///< GE: P(bad -> good) per message
  double loss_good = 0.0;  ///< GE: drop probability in the good state
  double loss_bad = 1.0;   ///< GE: drop probability in the bad state

  /// iid Bernoulli loss (the paper's channel).
  [[nodiscard]] static LossConfig iid(double loss);

  /// Gilbert-Elliott loss from raw chain parameters.
  [[nodiscard]] static LossConfig gilbert_elliott(double p_gb, double p_bg,
                                                  double loss_bad = 1.0,
                                                  double loss_good = 0.0);

  /// Gilbert-Elliott loss with the stationary mean pinned to `mean_loss`
  /// and the mean bad-state sojourn pinned to `burst_length` messages
  /// (p_bg = 1/burst_length; p_gb follows from the stationary equations).
  /// With the default loss_bad = 1, loss_good = 0, `burst_length` is the
  /// mean number of consecutively dropped messages.  Throws
  /// std::invalid_argument when no such chain exists (e.g. mean_loss not in
  /// [loss_good, loss_bad), or the implied p_gb would exceed 1).
  [[nodiscard]] static LossConfig gilbert_elliott_matched(
      double mean_loss, double burst_length, double loss_bad = 1.0,
      double loss_good = 0.0);

  /// Long-run average drop probability.  For GE this solves the two-state
  /// chain's stationary distribution with the GTH solver
  /// (markov::stationary_distribution) and mixes the per-state drop
  /// probabilities; degenerate chains (p_gb = 0 or p_bg = 0) are resolved
  /// analytically (the process starts in the good state).
  [[nodiscard]] double mean_loss() const;

  /// Expected length of a loss burst (consecutive dropped messages) when
  /// drops are deterministic per state (loss_bad = 1, loss_good = 0):
  /// 1/p_bg for GE, 1/(1 - loss) for iid.  The two agree on the degenerate
  /// parameterization p_gb = loss, p_bg = 1 - loss, which *is* iid.
  [[nodiscard]] double mean_burst_length() const;

  /// Throws std::invalid_argument when any probability is outside [0, 1].
  void validate() const;

  friend bool operator==(const LossConfig&,
                         const LossConfig&) = default;  ///< field-wise equality
};

/// The loss process's step.  Not an object: each sim::Channel keeps its
/// own Gilbert-Elliott state bit and steps the LossConfig of the link it
/// runs, so every channel on one link reads one configuration.
class LossProcess {
 public:
  LossProcess() = delete;

  /// Advances `config`'s process, whose GE state is `bad`, by one message
  /// and returns whether that message is dropped.
  ///
  /// GE steps the chain first and drops according to the *post-step* state.
  /// The next state is sampled as `u < P(bad | current)`, so the degenerate
  /// parameterization p_gb = p, p_bg = 1 - p, loss_bad = 1, loss_good = 0
  /// consumes the random stream exactly like iid Bernoulli(p) and produces
  /// a bit-identical drop sequence under a shared seed.
  [[nodiscard]] static bool drop(const LossConfig& config, bool& bad,
                                 Rng& rng) noexcept;
};

/// Which delay law a channel draws per-message latencies from.
enum class DelayModel {
  kDeterministic,  ///< always exactly the mean
  kExponential,    ///< exponential with the given mean (the model's choice)
  kPareto,         ///< heavy tail; `shape` is the tail index (> 1)
  kLognormal,      ///< skewed; `shape` is sigma (log-scale spread)
};

/// Full description of a channel delay process.
struct DelayConfig {
  DelayModel model = DelayModel::kExponential;  ///< which law to draw from
  double mean = 0.0;   ///< mean one-way delay in seconds
  double shape = 1.5;  ///< Pareto tail index (> 1) or lognormal sigma

  /// Fixed delay of exactly `mean`.
  [[nodiscard]] static DelayConfig deterministic(double mean);
  /// Exponential delay with the given mean (the model's assumption).
  [[nodiscard]] static DelayConfig exponential(double mean);
  /// Heavy-tailed Pareto delay with the given mean and tail index.
  [[nodiscard]] static DelayConfig pareto(double mean, double shape = 1.5);
  /// Skewed lognormal delay with the given mean and log-scale sigma.
  [[nodiscard]] static DelayConfig lognormal(double mean, double sigma = 1.5);

  /// Bridges the legacy two-valued Distribution enum (protocol timers keep
  /// using it; channels moved to DelayModel).
  [[nodiscard]] static DelayConfig from(Distribution dist, double mean);

  /// Draws one delay; all laws have mean `mean`.
  [[nodiscard]] double sample(Rng& rng) const noexcept;

  /// Throws std::invalid_argument on a negative/non-finite mean or an
  /// out-of-domain shape (Pareto needs shape > 1 for a finite mean,
  /// lognormal needs sigma >= 0).
  void validate() const;

  friend bool operator==(const DelayConfig&,
                         const DelayConfig&) = default;  ///< field-wise equality
};

/// One link of the network model: its loss process and its delay law.
/// Immutable once built and shared: every sim::Channel reads its link
/// through a pointer, so the two directions of a tree edge, or the
/// channels of every session of a farm run, borrow one LinkConfig and keep
/// only their own mutable state.
struct LinkConfig {
  LossConfig loss;    ///< what the link drops
  DelayConfig delay;  ///< how long a surviving message takes

  /// Throws std::invalid_argument on an invalid loss or delay
  /// configuration.
  void validate() const {
    loss.validate();
    delay.validate();
  }

  friend bool operator==(const LinkConfig&,
                         const LinkConfig&) = default;  ///< field-wise equality
};

}  // namespace sigcomp::sim
