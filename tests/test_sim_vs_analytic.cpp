// Integration tests: the discrete-event simulator, configured with the
// analytic model's own assumptions (exponential timers, exponential channel
// delay), must converge to the Markov model's predictions -- the strongest
// end-to-end check that both implementations encode the same protocols.
//
// With deterministic timers the paper reports ~1% absolute difference in I
// and 5-15% in M (Sec. III-A.3 / Figs. 11-12); we check those bands too.
#include <gtest/gtest.h>

#include "analytic/multi_hop.hpp"
#include "analytic/single_hop.hpp"
#include "analytic/tree_paths.hpp"
#include "protocols/single_hop_run.hpp"
#include "protocols/tree_run.hpp"

namespace sigcomp {
namespace {

class SimVsAnalytic : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(SimVsAnalytic, ExponentialDelayMatchesModel) {
  // Exponential channel delay (the model's assumption) with deterministic
  // protocol timers: the closest apples-to-apples configuration a real
  // protocol can run.  Note the model's *timer* exponentiality cannot be
  // simulated faithfully: a memoryless timeout timer races the refresh
  // stream and fires with probability ~R/(R+T) per refresh even without
  // loss, which the model abstracts into the (tiny) lambda_F term -- see
  // MemorylessTimeoutArtifact below.
  const ProtocolKind kind = GetParam();
  const SingleHopParams params = SingleHopParams::kazaa_defaults();
  const Metrics model = analytic::evaluate_single_hop(kind, params);

  protocols::SimOptions options;
  options.sessions = 400;
  options.seed = 1234;
  options.timer_dist = sim::Distribution::kDeterministic;
  options.delay_model = sim::DelayModel::kExponential;
  const protocols::ReplicatedResult sim =
      protocols::run_single_hop_replicated(kind, params, options, 8);

  const double i_tolerance =
      std::max(3.0 * sim.inconsistency.half_width, 0.30 * model.inconsistency);
  EXPECT_NEAR(sim.inconsistency.mean, model.inconsistency, i_tolerance)
      << to_string(kind);

  const double m_tolerance =
      std::max(3.0 * sim.message_rate.half_width, 0.20 * model.message_rate);
  EXPECT_NEAR(sim.message_rate.mean, model.message_rate, m_tolerance)
      << to_string(kind);
}

TEST(SimVsAnalyticArtifacts, MemorylessTimeoutArtifact) {
  // The analytic model assumes exponentially distributed timers but models
  // false removal separately (lambda_F = pl^(T/R)/T).  Running a *real*
  // soft-state receiver with a memoryless timeout races the timer against
  // refreshes: with R = 5 and T = 15 the timeout wins a race with
  // probability (1/T)/(1/T + 1/R) = 25%, so state thrashes regardless of
  // loss.  This is why deployed protocols use deterministic timers, and why
  // the paper's deterministic-timer simulation (not an exponential-timer
  // one) validates the model.
  const SingleHopParams params = SingleHopParams::kazaa_defaults();
  const Metrics model = analytic::evaluate_single_hop(ProtocolKind::kSS, params);

  protocols::SimOptions options;
  options.sessions = 300;
  options.seed = 5;
  options.timer_dist = sim::Distribution::kExponential;
  const protocols::SimResult sim =
      protocols::run_single_hop(ProtocolKind::kSS, params, options);

  EXPECT_GT(sim.metrics.inconsistency, 5.0 * model.inconsistency);
  EXPECT_GT(sim.receiver_timeouts, 10u * sim.sessions / 10u);
}

TEST_P(SimVsAnalytic, DeterministicTimersStayInPaperBands) {
  const ProtocolKind kind = GetParam();
  const SingleHopParams params = SingleHopParams::kazaa_defaults();
  const Metrics model = analytic::evaluate_single_hop(kind, params);

  protocols::SimOptions options;
  options.sessions = 400;
  options.seed = 777;
  options.timer_dist = sim::Distribution::kDeterministic;
  const protocols::ReplicatedResult sim =
      protocols::run_single_hop_replicated(kind, params, options, 8);

  // Paper band: |I_sim - I_model| < 1% absolute (generously doubled).
  EXPECT_NEAR(sim.inconsistency.mean, model.inconsistency, 0.02)
      << to_string(kind);
  // Paper band: message rate differs 5-15%; allow up to 25%.
  EXPECT_NEAR(sim.message_rate.mean, model.message_rate,
              0.25 * model.message_rate)
      << to_string(kind);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, SimVsAnalytic,
                         ::testing::ValuesIn(kAllProtocols),
                         [](const auto& param_info) {
                           std::string name{to_string(param_info.param)};
                           for (char& c : name) {
                             if (c == '+') c = '_';
                           }
                           return name;
                         });

class MultiHopSimVsAnalytic : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(MultiHopSimVsAnalytic, SimTracksModelShape) {
  const ProtocolKind kind = GetParam();
  MultiHopParams params = MultiHopParams::reservation_defaults();
  params.hops = 10;
  const analytic::MultiHopModel model(
      kind, analytic::PathParams::from_homogeneous(params));

  protocols::TreeSimOptions options;
  options.duration = 30000.0;
  options.seed = 55;
  const protocols::TreeSimResult sim =
      protocols::run_tree(kind, analytic::TreeParams::chain(params), options);

  // End-to-end inconsistency within 35% relative (the sim's hop-by-hop
  // recovery is richer than the model's lumped approximation).
  EXPECT_NEAR(sim.metrics.inconsistency, model.inconsistency(),
              0.35 * model.inconsistency())
      << to_string(kind);

  // Per-hop inconsistency is within a factor band at the far end.
  const double model_far = model.hop_inconsistency(params.hops);
  const double sim_far = sim.node_inconsistency.back();
  EXPECT_GT(sim_far, 0.4 * model_far) << to_string(kind);
  EXPECT_LT(sim_far, 1.8 * model_far) << to_string(kind);

  // Message rate within 40% (ACK accounting details differ).
  EXPECT_NEAR(sim.metrics.raw_message_rate, model.metrics().raw_message_rate,
              0.40 * model.metrics().raw_message_rate)
      << to_string(kind);
}

INSTANTIATE_TEST_SUITE_P(MultiHopProtocols, MultiHopSimVsAnalytic,
                         ::testing::ValuesIn(kMultiHopProtocols),
                         [](const auto& param_info) {
                           std::string name{to_string(param_info.param)};
                           for (char& c : name) {
                             if (c == '+') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace sigcomp
