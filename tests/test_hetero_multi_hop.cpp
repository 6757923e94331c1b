#include "analytic/hetero_multi_hop.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "analytic/multi_hop.hpp"
#include "analytic/tree_paths.hpp"
#include "protocols/tree_run.hpp"

namespace sigcomp::analytic {
namespace {

const MultiHopParams kHomogeneous = [] {
  MultiHopParams p = MultiHopParams::reservation_defaults();
  p.hops = 8;
  return p;
}();

TEST(HeteroParams, FromHomogeneousCopiesEverything) {
  const HeteroMultiHopParams p =
      HeteroMultiHopParams::from_homogeneous(kHomogeneous);
  EXPECT_EQ(p.hops(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(p.loss[i], kHomogeneous.loss);
    EXPECT_DOUBLE_EQ(p.delay[i], kHomogeneous.delay);
  }
  EXPECT_DOUBLE_EQ(p.update_rate, kHomogeneous.update_rate);
  EXPECT_NO_THROW(p.validate());
}

TEST(HeteroParams, SurvivalIsProductOfPerHopSurvival) {
  HeteroMultiHopParams p = HeteroMultiHopParams::from_homogeneous(kHomogeneous);
  p.loss = {0.1, 0.2, 0.0};
  p.delay = {0.01, 0.01, 0.01};
  EXPECT_DOUBLE_EQ(p.survival_through(0), 1.0);
  EXPECT_DOUBLE_EQ(p.survival_through(1), 0.9);
  EXPECT_DOUBLE_EQ(p.survival_through(2), 0.9 * 0.8);
  EXPECT_DOUBLE_EQ(p.survival_through(3), 0.9 * 0.8);
  EXPECT_THROW((void)p.survival_through(4), std::out_of_range);
}

TEST(HeteroParams, ExpectedHopTransmissionsMatchesHomogeneousFormula) {
  const HeteroMultiHopParams p =
      HeteroMultiHopParams::from_homogeneous(kHomogeneous);
  EXPECT_NEAR(p.expected_hop_transmissions(),
              kHomogeneous.expected_hop_transmissions(), 1e-12);
}

TEST(HeteroParams, RecoveryRateUsesTotalPathDelay) {
  HeteroMultiHopParams p = HeteroMultiHopParams::from_homogeneous(kHomogeneous);
  p.loss = {0.01, 0.01};
  p.delay = {0.02, 0.08};
  EXPECT_NEAR(p.recovery_rate(), 1.0 / (2.0 * 0.1), 1e-12);
}

TEST(HeteroParams, ValidationCatchesBadInput) {
  HeteroMultiHopParams p = HeteroMultiHopParams::from_homogeneous(kHomogeneous);
  p.delay.pop_back();
  EXPECT_THROW(p.validate(), std::invalid_argument);  // size mismatch
  p = HeteroMultiHopParams::from_homogeneous(kHomogeneous);
  p.loss[3] = 1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = HeteroMultiHopParams::from_homogeneous(kHomogeneous);
  p.delay[0] = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = HeteroMultiHopParams::from_homogeneous(kHomogeneous);
  p.loss.clear();
  p.delay.clear();
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(HeteroModel, ReducesToHomogeneousModelExactly) {
  // The key regression guard: equal hops must reproduce the paper's model
  // to numerical precision, for every supported protocol.
  for (const ProtocolKind kind : kMultiHopProtocols) {
    const MultiHopModel base(kind, kHomogeneous);
    const HeteroMultiHopModel hetero(
        kind, HeteroMultiHopParams::from_homogeneous(kHomogeneous));
    EXPECT_NEAR(hetero.inconsistency(), base.inconsistency(), 1e-12)
        << to_string(kind);
    for (std::size_t hop = 1; hop <= kHomogeneous.hops; ++hop) {
      EXPECT_NEAR(hetero.hop_inconsistency(hop), base.hop_inconsistency(hop),
                  1e-12)
          << to_string(kind) << " hop " << hop;
    }
    EXPECT_NEAR(hetero.metrics().raw_message_rate,
                base.metrics().raw_message_rate, 1e-9)
        << to_string(kind);
  }
}

TEST(HeteroModel, TimeoutRateMatchesHomogeneousFormula) {
  const HeteroMultiHopParams p =
      HeteroMultiHopParams::from_homogeneous(kHomogeneous);
  for (std::size_t j = 0; j < 8; ++j) {
    EXPECT_NEAR(HeteroMultiHopModel::timeout_rate(p, j),
                MultiHopModel::timeout_rate(kHomogeneous, j), 1e-15)
        << "j = " << j;
  }
}

TEST(HeteroModel, ExplicitRemovalProtocolsReduceToTheirBaseChain) {
  // No removal transitions in the chain CTMC: SS+ER == SS, SS+RTR == SS+RT.
  const HeteroMultiHopParams p =
      HeteroMultiHopParams::from_homogeneous(kHomogeneous);
  EXPECT_EQ(HeteroMultiHopModel(ProtocolKind::kSSER, p).inconsistency(),
            HeteroMultiHopModel(ProtocolKind::kSS, p).inconsistency());
  EXPECT_EQ(HeteroMultiHopModel(ProtocolKind::kSSRTR, p).inconsistency(),
            HeteroMultiHopModel(ProtocolKind::kSSRT, p).inconsistency());
}

TEST(HeteroModel, BadHopHurtsSoftStateMoreWhenEarly) {
  // An early lossy hop starves every downstream refresh; a late one only
  // the tail.  End-to-end I(SS) must be (weakly) worse with the bad hop at
  // position 1 than at position K.
  HeteroMultiHopParams early = HeteroMultiHopParams::from_homogeneous(kHomogeneous);
  early.loss[0] = 0.25;
  HeteroMultiHopParams late = HeteroMultiHopParams::from_homogeneous(kHomogeneous);
  late.loss[7] = 0.25;
  const double i_early =
      HeteroMultiHopModel(ProtocolKind::kSS, early).inconsistency();
  const double i_late =
      HeteroMultiHopModel(ProtocolKind::kSS, late).inconsistency();
  EXPECT_GE(i_early, i_late);
  // Early-hop damage shows up at hop 1 already.
  EXPECT_GT(HeteroMultiHopModel(ProtocolKind::kSS, early).hop_inconsistency(1),
            HeteroMultiHopModel(ProtocolKind::kSS, late).hop_inconsistency(1));
}

TEST(HeteroModel, HopByHopReliabilityContainsTheDamage) {
  // One bad hop inflates end-to-end SS inconsistency by a much larger
  // factor than SS+RT's: every SS refresh must cross the bad link, while
  // SS+RT repairs it with one-hop retransmissions.
  const HeteroMultiHopParams base =
      HeteroMultiHopParams::from_homogeneous(kHomogeneous);
  HeteroMultiHopParams degraded = base;
  degraded.loss[0] = 0.25;
  const double ss_factor =
      HeteroMultiHopModel(ProtocolKind::kSS, degraded).inconsistency() /
      HeteroMultiHopModel(ProtocolKind::kSS, base).inconsistency();
  const double rt_factor =
      HeteroMultiHopModel(ProtocolKind::kSSRT, degraded).inconsistency() /
      HeteroMultiHopModel(ProtocolKind::kSSRT, base).inconsistency();
  EXPECT_GT(ss_factor, 1.5);
  EXPECT_LT(rt_factor, 1.4);
  EXPECT_GT(ss_factor, 1.5 * rt_factor);
}

TEST(HeteroModel, BadHopIncreasesInconsistencyVsBaseline) {
  const HeteroMultiHopParams base =
      HeteroMultiHopParams::from_homogeneous(kHomogeneous);
  HeteroMultiHopParams degraded = base;
  degraded.loss[4] = 0.3;
  for (const ProtocolKind kind : kMultiHopProtocols) {
    EXPECT_GT(HeteroMultiHopModel(kind, degraded).inconsistency(),
              HeteroMultiHopModel(kind, base).inconsistency())
        << to_string(kind);
  }
}

TEST(HeteroSim, HomogeneousOverloadMatchesHeteroOverloadExactly) {
  MultiHopParams p = kHomogeneous;
  p.hops = 4;
  protocols::TreeSimOptions options;
  options.duration = 2000.0;
  options.seed = 17;
  const auto direct = protocols::run_tree(ProtocolKind::kSSRT,
                                          TreeParams::chain(p), options);
  const auto via_hetero = protocols::run_tree(
      ProtocolKind::kSSRT,
      TreeParams::chain(HeteroMultiHopParams::from_homogeneous(p)), options);
  EXPECT_EQ(direct.messages, via_hetero.messages);
  EXPECT_DOUBLE_EQ(direct.metrics.inconsistency,
                   via_hetero.metrics.inconsistency);
}

TEST(HeteroSim, TracksHeteroModelWithABadHop) {
  // Cross-validation of the extension: simulated heterogeneous chain vs the
  // generalized analytic model, with a 10x-loss hop in the middle.
  MultiHopParams base = kHomogeneous;
  base.hops = 6;
  HeteroMultiHopParams p = HeteroMultiHopParams::from_homogeneous(base);
  p.loss[2] = 0.2;
  protocols::TreeSimOptions options;
  options.duration = 30000.0;
  options.seed = 23;
  for (const ProtocolKind kind : kMultiHopProtocols) {
    const HeteroMultiHopModel model(kind, p);
    const auto sim = protocols::run_tree(kind, TreeParams::chain(p), options);
    // Same order of magnitude: the lumped slow-path approximation diverges
    // most on a very lossy hop (ACK losses trigger extra hop-by-hop
    // retransmission cycles the model does not see).
    EXPECT_GT(sim.metrics.inconsistency, 0.5 * model.inconsistency())
        << to_string(kind);
    EXPECT_LT(sim.metrics.inconsistency, 2.2 * model.inconsistency())
        << to_string(kind);
  }
}

TEST(HeteroSim, BadHopShowsUpInPerHopProfile) {
  MultiHopParams base = kHomogeneous;
  base.hops = 6;
  HeteroMultiHopParams p = HeteroMultiHopParams::from_homogeneous(base);
  p.loss[2] = 0.25;  // hop 3 is bad
  protocols::TreeSimOptions options;
  options.duration = 20000.0;
  options.seed = 29;
  const auto sim =
      protocols::run_tree(ProtocolKind::kSSRT, TreeParams::chain(p), options);
  // The jump across the bad hop dominates the profile's increments.
  const double jump_bad =
      sim.node_inconsistency[2] - sim.node_inconsistency[1];
  const double jump_good =
      sim.node_inconsistency[1] - sim.node_inconsistency[0];
  EXPECT_GT(jump_bad, 2.0 * jump_good);
}

TEST(HeteroModel, SlowHopDominatesDelay) {
  // One hop with 10x delay inflates the fast-path propagation time and
  // therefore update inconsistency.
  const HeteroMultiHopParams base =
      HeteroMultiHopParams::from_homogeneous(kHomogeneous);
  HeteroMultiHopParams slow = base;
  slow.delay[3] = 0.3;
  EXPECT_GT(HeteroMultiHopModel(ProtocolKind::kSS, slow).inconsistency(),
            HeteroMultiHopModel(ProtocolKind::kSS, base).inconsistency());
}

}  // namespace
}  // namespace sigcomp::analytic
