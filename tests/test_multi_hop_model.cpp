#include "analytic/multi_hop.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

namespace sigcomp::analytic {
namespace {

const MultiHopParams kDefaults = MultiHopParams::reservation_defaults();
const PathParams kDefaultPath = PathParams::from_homogeneous(kDefaults);

/// The paper's chain (K equal hops) at a homogeneous parameter point.
MultiHopModel paper_chain(ProtocolKind kind, const MultiHopParams& p) {
  return MultiHopModel(kind, PathParams::from_homogeneous(p));
}

double raw_rate(ProtocolKind kind, const MultiHopParams& p) {
  return paper_chain(kind, p).metrics().raw_message_rate;
}

TEST(MultiHopModel, ExplicitRemovalProtocolsReduceToTheirBaseChain) {
  // The chain CTMC has no removal transitions (infinite state lifetime),
  // so the explicit-removal variants must reproduce their base protocol's
  // stationary numbers exactly: SS+ER == SS and SS+RTR == SS+RT.
  const MultiHopModel ss = paper_chain(ProtocolKind::kSS, kDefaults);
  const MultiHopModel sser = paper_chain(ProtocolKind::kSSER, kDefaults);
  EXPECT_EQ(sser.inconsistency(), ss.inconsistency());
  const MultiHopModel ssrt = paper_chain(ProtocolKind::kSSRT, kDefaults);
  const MultiHopModel ssrtr = paper_chain(ProtocolKind::kSSRTR, kDefaults);
  EXPECT_EQ(ssrtr.inconsistency(), ssrt.inconsistency());
  EXPECT_EQ(ssrtr.metrics().raw_message_rate, ssrt.metrics().raw_message_rate);
}

TEST(MultiHopModel, StateSpaceSize) {
  MultiHopParams p = kDefaults;
  p.hops = 5;
  // (k, fast) for k = 0..5, (k, slow) for k = 0..4.
  EXPECT_EQ(paper_chain(ProtocolKind::kSS, p).chain().num_states(), 11u);
  // HS adds the recovery state.
  EXPECT_EQ(paper_chain(ProtocolKind::kHS, p).chain().num_states(), 12u);
}

TEST(MultiHopModel, TimeoutRateFirstHopMatchesSingleHopFalseRemoval) {
  // j = 0: first timeout at hop 1 has probability pl^(T/R) -- identical to
  // the single-hop lambda_F.
  const double rate = MultiHopModel::timeout_rate(kDefaultPath, 0);
  EXPECT_NEAR(rate,
              std::pow(kDefaults.loss,
                       kDefaults.timeout_timer / kDefaults.refresh_timer) /
                  kDefaults.timeout_timer,
              1e-15);
}

TEST(MultiHopModel, TimeoutRatesArePartialTelescope) {
  // Summing the "first timeout at hop j+1" probabilities over all j gives
  // the probability that a timeout happens anywhere, which is bounded by
  // [1 - (1-pl)^K]^(T/R).
  double total = 0.0;
  for (std::size_t j = 0; j < kDefaults.hops; ++j) {
    const double r = MultiHopModel::timeout_rate(kDefaultPath, j);
    EXPECT_GE(r, 0.0);
    total += r * kDefaults.timeout_timer;
  }
  const double anywhere = std::pow(
      1.0 - std::pow(1.0 - kDefaults.loss, double(kDefaults.hops)),
      kDefaults.timeout_timer / kDefaults.refresh_timer);
  EXPECT_NEAR(total, anywhere, 1e-12);
}

TEST(MultiHopModel, TimeoutRateIncreasesWithHopIndex) {
  // Later hops are behind more lossy links, so the "first timeout here"
  // probability grows with j at small j.
  EXPECT_GT(MultiHopModel::timeout_rate(kDefaultPath, 1),
            MultiHopModel::timeout_rate(kDefaultPath, 0));
}

TEST(MultiHopModel, StationarySumsToOne) {
  for (const ProtocolKind kind : kMultiHopProtocols) {
    const MultiHopModel model = paper_chain(kind, kDefaults);
    double total = model.recovery_probability();
    for (std::size_t k = 0; k <= kDefaults.hops; ++k) {
      total += model.stationary(k, 0);
      if (k < kDefaults.hops) total += model.stationary(k, 1);
    }
    EXPECT_NEAR(total, 1.0, 1e-10) << to_string(kind);
  }
}

TEST(MultiHopModel, InconsistencyComplementOfFullConsistency) {
  for (const ProtocolKind kind : kMultiHopProtocols) {
    const MultiHopModel model = paper_chain(kind, kDefaults);
    EXPECT_NEAR(model.inconsistency(),
                1.0 - model.stationary(kDefaults.hops, 0), 1e-12);
    EXPECT_GT(model.inconsistency(), 0.0);
    EXPECT_LT(model.inconsistency(), 1.0);
  }
}

TEST(MultiHopModel, RecoveryOnlyForHardState) {
  const auto recovery = [](ProtocolKind kind) {
    return paper_chain(kind, kDefaults).recovery_probability();
  };
  EXPECT_DOUBLE_EQ(recovery(ProtocolKind::kSS), 0.0);
  EXPECT_DOUBLE_EQ(recovery(ProtocolKind::kSSRT), 0.0);
  EXPECT_GT(recovery(ProtocolKind::kHS), 0.0);
}

TEST(MultiHopModel, HopInconsistencyIncreasesWithDistance) {
  // Fig. 17: hops further from the sender are inconsistent more often.
  for (const ProtocolKind kind : kMultiHopProtocols) {
    const MultiHopModel model = paper_chain(kind, kDefaults);
    for (std::size_t hop = 2; hop <= kDefaults.hops; ++hop) {
      EXPECT_GE(model.hop_inconsistency(hop), model.hop_inconsistency(hop - 1))
          << to_string(kind) << " hop " << hop;
    }
  }
}

TEST(MultiHopModel, LastHopInconsistencyEqualsTotal) {
  // "All hops consistent" fails exactly when fewer than K hops are
  // consistent, which is the hop-K inconsistency event.
  for (const ProtocolKind kind : kMultiHopProtocols) {
    const MultiHopModel model = paper_chain(kind, kDefaults);
    EXPECT_NEAR(model.hop_inconsistency(kDefaults.hops), model.inconsistency(),
                1e-9)
        << to_string(kind);
  }
}

TEST(MultiHopModel, HopInconsistencyRangeChecked) {
  const MultiHopModel model = paper_chain(ProtocolKind::kSS, kDefaults);
  EXPECT_THROW((void)model.hop_inconsistency(0), std::out_of_range);
  EXPECT_THROW((void)model.hop_inconsistency(kDefaults.hops + 1), std::out_of_range);
}

TEST(MultiHopModel, InconsistencyGrowsWithHops) {
  // Fig. 18(a).
  for (const ProtocolKind kind : kMultiHopProtocols) {
    double previous = 0.0;
    for (const std::size_t hops : {1u, 5u, 10u, 20u}) {
      MultiHopParams p = kDefaults;
      p.hops = hops;
      const double inconsistency = paper_chain(kind, p).inconsistency();
      EXPECT_GT(inconsistency, previous) << to_string(kind) << " K=" << hops;
      previous = inconsistency;
    }
  }
}

TEST(MultiHopModel, MessageRateGrowsWithHops) {
  // Fig. 18(b).
  for (const ProtocolKind kind : kMultiHopProtocols) {
    double previous = 0.0;
    for (const std::size_t hops : {1u, 5u, 10u, 20u}) {
      MultiHopParams p = kDefaults;
      p.hops = hops;
      const double rate = raw_rate(kind, p);
      EXPECT_GT(rate, previous) << to_string(kind) << " K=" << hops;
      previous = rate;
    }
  }
}

TEST(MultiHopModel, ProtocolOrderingAtDefaults) {
  // Fig. 17/18: SS is much worse; HS has a slight edge over SS+RT.
  const double ss = paper_chain(ProtocolKind::kSS, kDefaults).inconsistency();
  const double ssrt =
      paper_chain(ProtocolKind::kSSRT, kDefaults).inconsistency();
  const double hs = paper_chain(ProtocolKind::kHS, kDefaults).inconsistency();
  EXPECT_GT(ss, 3.0 * ssrt);
  EXPECT_LT(hs, ssrt);
  EXPECT_NEAR(hs, ssrt, 0.2 * ssrt);  // but comparable
}

TEST(MultiHopModel, ReliableTriggerCostsLittleExtra) {
  // Fig. 18(b): SS+RT adds only modest signaling overhead over SS.
  const double ss = raw_rate(ProtocolKind::kSS, kDefaults);
  const double ssrt = raw_rate(ProtocolKind::kSSRT, kDefaults);
  EXPECT_GT(ssrt, ss);
  EXPECT_LT(ssrt, 1.25 * ss);
}

TEST(MultiHopModel, HardStateUsesFarFewerMessages) {
  const double ss = raw_rate(ProtocolKind::kSS, kDefaults);
  const double hs = raw_rate(ProtocolKind::kHS, kDefaults);
  EXPECT_LT(hs, 0.3 * ss);
}

TEST(MultiHopModel, RefreshBreakdownOnlyForSoftState) {
  const auto refresh = [](ProtocolKind kind) {
    return paper_chain(kind, kDefaults).message_rates().refresh;
  };
  EXPECT_GT(refresh(ProtocolKind::kSS), 0.0);
  EXPECT_GT(refresh(ProtocolKind::kSSRT), 0.0);
  EXPECT_DOUBLE_EQ(refresh(ProtocolKind::kHS), 0.0);
}

TEST(MultiHopModel, SsMessageRateFallsWithLongerRefresh) {
  // Fig. 19(b).
  MultiHopParams fast = kDefaults;
  fast.refresh_timer = 1.0;
  fast.timeout_timer = 3.0;
  MultiHopParams slow = kDefaults;
  slow.refresh_timer = 50.0;
  slow.timeout_timer = 150.0;
  EXPECT_GT(raw_rate(ProtocolKind::kSS, fast),
            raw_rate(ProtocolKind::kSS, slow));
}

TEST(MultiHopModel, HsInsensitiveToRefreshTimer) {
  MultiHopParams a = kDefaults;
  a.refresh_timer = 1.0;
  a.timeout_timer = 3.0;
  MultiHopParams b = kDefaults;
  b.refresh_timer = 100.0;
  b.timeout_timer = 300.0;
  EXPECT_NEAR(paper_chain(ProtocolKind::kHS, a).inconsistency(),
              paper_chain(ProtocolKind::kHS, b).inconsistency(), 1e-12);
  EXPECT_NEAR(raw_rate(ProtocolKind::kHS, a), raw_rate(ProtocolKind::kHS, b),
              1e-12);
}

TEST(MultiHopModel, SingleHopChainDegenerates) {
  MultiHopParams p = kDefaults;
  p.hops = 1;
  const MultiHopModel model = paper_chain(ProtocolKind::kSS, p);
  EXPECT_EQ(model.chain().num_states(), 3u);  // (0,f), (1,f), (0,s)
  EXPECT_GT(model.inconsistency(), 0.0);
}

TEST(MultiHopModel, LossFreeChainStillHasPropagationInconsistency) {
  MultiHopParams p = kDefaults;
  p.loss = 0.0;
  const MultiHopModel model = paper_chain(ProtocolKind::kSS, p);
  // Updates still need K x D to propagate: inconsistency cannot vanish.
  EXPECT_GT(model.inconsistency(), 0.0);
  // But it is tiny compared to the lossy default.
  EXPECT_LT(model.inconsistency(),
            paper_chain(ProtocolKind::kSS, kDefaults).inconsistency());
}

// ------------------------------------------------ the paper's closed forms --
// On K equal hops the chain must be the paper's Sec. III-B model: each
// check below writes the paper's closed form out in the test.

const MultiHopParams kHomogeneous = [] {
  MultiHopParams p = MultiHopParams::reservation_defaults();
  p.hops = 8;
  return p;
}();

/// Eq. (9): rate of a first timeout at hop j+1 on K equal hops,
/// [(1 - (1-pl)^(j+1))^(T/R) - (1 - (1-pl)^j)^(T/R)] / T.
double eq9_timeout_rate(const MultiHopParams& p, std::size_t j) {
  const double q = 1.0 - p.loss;
  const double n = p.timeout_timer / p.refresh_timer;
  const double upper =
      std::pow(1.0 - std::pow(q, static_cast<double>(j + 1)), n);
  const double lower =
      j == 0 ? 0.0 : std::pow(1.0 - std::pow(q, static_cast<double>(j)), n);
  return (upper - lower) / p.timeout_timer;
}

TEST(HeteroModel, ReducesToHomogeneousModelExactly) {
  // States are added as (0..K, fast), (0..K-1, slow), then HS's recovery.
  const std::size_t k_hops = kHomogeneous.hops;
  const double pl = kHomogeneous.loss;
  const double q = 1.0 - pl;
  const double d = kHomogeneous.delay;
  const auto slow = [k_hops](std::size_t k) { return k_hops + 1 + k; };
  for (const ProtocolKind kind : kMultiHopProtocols) {
    const MechanismSet mech = mechanisms(kind);
    const MultiHopModel model = paper_chain(kind, kHomogeneous);
    const markov::Ctmc& chain = model.chain();
    for (std::size_t k = 0; k < k_hops; ++k) {
      ASSERT_EQ(chain.name(slow(k)), "(" + std::to_string(k) + ",slow)");
      EXPECT_NEAR(chain.rate(k, k + 1), q / d, 1e-12);
      EXPECT_NEAR(chain.rate(k, slow(k)), pl / d, 1e-12);
      // Eqs. 10-11: a refresh repairs hop k+1 if it survives k+1 hops; a
      // retransmission if it survives one.
      double repair = 0.0;
      if (mech.refresh) {
        repair += std::pow(q, static_cast<double>(k + 1)) /
                  kHomogeneous.refresh_timer;
      }
      if (mech.reliable_trigger) repair += q / kHomogeneous.retrans_timer;
      EXPECT_NEAR(chain.rate(slow(k), k + 1), repair, 1e-12)
          << to_string(kind) << " k " << k;
      const double timeout =
          mech.soft_timeout ? eq9_timeout_rate(kHomogeneous, k) : 0.0;
      EXPECT_NEAR(chain.rate(k_hops, slow(k)), timeout, 1e-15)
          << to_string(kind) << " j " << k;
    }
    // One refresh costs sum_i (1-pl)^i = (1 - (1-pl)^K) / pl transmissions.
    const double per_refresh =
        (1.0 - std::pow(q, static_cast<double>(k_hops))) / pl;
    EXPECT_NEAR(model.message_rates().refresh,
                mech.refresh ? per_refresh / kHomogeneous.refresh_timer : 0.0,
                1e-12)
        << to_string(kind);
    if (mech.external_failure_detector) {
      // HS recovery leaves at 1 / (2 K D).
      EXPECT_NEAR(chain.rate(2 * k_hops + 1, 0),
                  1.0 / (2.0 * static_cast<double>(k_hops) * d), 1e-9);
    }
  }
}

TEST(HeteroModel, TimeoutRateMatchesHomogeneousFormula) {
  const PathParams p = PathParams::from_homogeneous(kHomogeneous);
  for (std::size_t j = 0; j < kHomogeneous.hops; ++j) {
    EXPECT_NEAR(MultiHopModel::timeout_rate(p, j),
                eq9_timeout_rate(kHomogeneous, j), 1e-15)
        << "j = " << j;
  }
}

TEST(HeteroParams, ExpectedHopTransmissionsMatchesHomogeneousFormula) {
  // sum_{i=0}^{K-1} (1-pl)^i = (1 - (1-pl)^K) / pl.
  const double q = 1.0 - kHomogeneous.loss;
  EXPECT_NEAR(
      PathParams::from_homogeneous(kHomogeneous).expected_hop_transmissions(),
      (1.0 - std::pow(q, static_cast<double>(kHomogeneous.hops))) /
          kHomogeneous.loss,
      1e-12);
}

TEST(MultiHopParams, ExpectedHopTransmissionsClosedForm) {
  MultiHopParams p;
  p.hops = 20;
  p.loss = 0.02;
  EXPECT_NEAR(PathParams::from_homogeneous(p).expected_hop_transmissions(),
              (1.0 - std::pow(0.98, 20.0)) / 0.02, 1e-9);
}

TEST(MultiHopParams, ExpectedHopTransmissionsLossFreeEqualsHops) {
  MultiHopParams p;
  p.hops = 7;
  p.loss = 0.0;
  EXPECT_DOUBLE_EQ(
      PathParams::from_homogeneous(p).expected_hop_transmissions(), 7.0);
}

TEST(MultiHopParams, RecoveryRateIsInverseRoundTrip) {
  MultiHopParams p;
  p.hops = 10;
  p.delay = 0.05;
  EXPECT_NEAR(PathParams::from_homogeneous(p).recovery_rate(),
              1.0 / (2.0 * 10 * 0.05), 1e-12);
}

TEST(MultiHopParams, EndToEndDeliveryProbability) {
  MultiHopParams p;
  p.hops = 3;
  p.loss = 0.1;
  EXPECT_NEAR(PathParams::from_homogeneous(p).survival_through(3),
              0.9 * 0.9 * 0.9, 1e-12);
}

// ------------------------------------------------------------ uneven hops --

TEST(HeteroParams, FromHomogeneousCopiesEverything) {
  const PathParams p = PathParams::from_homogeneous(kHomogeneous);
  EXPECT_EQ(p.hops(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(p.loss[i], kHomogeneous.loss);
    EXPECT_DOUBLE_EQ(p.delay[i], kHomogeneous.delay);
  }
  EXPECT_DOUBLE_EQ(p.update_rate, kHomogeneous.update_rate);
  EXPECT_NO_THROW(p.validate());
}

TEST(HeteroParams, SurvivalIsProductOfPerHopSurvival) {
  PathParams p = PathParams::from_homogeneous(kHomogeneous);
  p.loss = {0.1, 0.2, 0.0};
  p.delay = {0.01, 0.01, 0.01};
  EXPECT_DOUBLE_EQ(p.survival_through(0), 1.0);
  EXPECT_DOUBLE_EQ(p.survival_through(1), 0.9);
  EXPECT_DOUBLE_EQ(p.survival_through(2), 0.9 * 0.8);
  EXPECT_DOUBLE_EQ(p.survival_through(3), 0.9 * 0.8);
  EXPECT_THROW((void)p.survival_through(4), std::out_of_range);
}

TEST(HeteroParams, RecoveryRateUsesTotalPathDelay) {
  PathParams p = PathParams::from_homogeneous(kHomogeneous);
  p.loss = {0.01, 0.01};
  p.delay = {0.02, 0.08};
  EXPECT_NEAR(p.recovery_rate(), 1.0 / (2.0 * 0.1), 1e-12);
}

TEST(HeteroParams, ValidationCatchesBadInput) {
  PathParams p = PathParams::from_homogeneous(kHomogeneous);
  p.delay.pop_back();
  EXPECT_THROW(p.validate(), std::invalid_argument);  // size mismatch
  p = PathParams::from_homogeneous(kHomogeneous);
  p.loss[3] = 1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = PathParams::from_homogeneous(kHomogeneous);
  p.delay[0] = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = PathParams::from_homogeneous(kHomogeneous);
  p.loss.clear();
  p.delay.clear();
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(HeteroModel, BadHopHurtsSoftStateMoreWhenEarly) {
  // An early lossy hop starves every downstream refresh; a late one only
  // the tail.  End-to-end I(SS) must be (weakly) worse with the bad hop at
  // position 1 than at position K.
  PathParams early = PathParams::from_homogeneous(kHomogeneous);
  early.loss[0] = 0.25;
  PathParams late = PathParams::from_homogeneous(kHomogeneous);
  late.loss[7] = 0.25;
  const MultiHopModel ss_early(ProtocolKind::kSS, early);
  const MultiHopModel ss_late(ProtocolKind::kSS, late);
  EXPECT_GE(ss_early.inconsistency(), ss_late.inconsistency());
  // Early-hop damage shows up at hop 1 already.
  EXPECT_GT(ss_early.hop_inconsistency(1), ss_late.hop_inconsistency(1));
}

TEST(HeteroModel, HopByHopReliabilityContainsTheDamage) {
  // One bad hop inflates end-to-end SS inconsistency by a much larger
  // factor than SS+RT's: every SS refresh must cross the bad link, while
  // SS+RT repairs it with one-hop retransmissions.
  const PathParams base = PathParams::from_homogeneous(kHomogeneous);
  PathParams degraded = base;
  degraded.loss[0] = 0.25;
  const double ss_factor =
      MultiHopModel(ProtocolKind::kSS, degraded).inconsistency() /
      MultiHopModel(ProtocolKind::kSS, base).inconsistency();
  const double rt_factor =
      MultiHopModel(ProtocolKind::kSSRT, degraded).inconsistency() /
      MultiHopModel(ProtocolKind::kSSRT, base).inconsistency();
  EXPECT_GT(ss_factor, 1.5);
  EXPECT_LT(rt_factor, 1.4);
  EXPECT_GT(ss_factor, 1.5 * rt_factor);
}

TEST(HeteroModel, BadHopIncreasesInconsistencyVsBaseline) {
  const PathParams base = PathParams::from_homogeneous(kHomogeneous);
  PathParams degraded = base;
  degraded.loss[4] = 0.3;
  for (const ProtocolKind kind : kMultiHopProtocols) {
    EXPECT_GT(MultiHopModel(kind, degraded).inconsistency(),
              MultiHopModel(kind, base).inconsistency())
        << to_string(kind);
  }
}

TEST(HeteroModel, SlowHopDominatesDelay) {
  // One hop with 10x delay inflates the fast-path propagation time and
  // therefore update inconsistency.
  const PathParams base = PathParams::from_homogeneous(kHomogeneous);
  PathParams slow = base;
  slow.delay[3] = 0.3;
  EXPECT_GT(MultiHopModel(ProtocolKind::kSS, slow).inconsistency(),
            MultiHopModel(ProtocolKind::kSS, base).inconsistency());
}

}  // namespace
}  // namespace sigcomp::analytic
