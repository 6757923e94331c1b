// Parameterized property tests: model invariants must hold across the whole
// (protocol x loss x refresh-timer x lifetime) grid, not just at defaults.
#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <string>
#include <tuple>

#include "analytic/single_hop.hpp"

namespace sigcomp::analytic {
namespace {

using Grid = std::tuple<ProtocolKind, double /*loss*/, double /*refresh*/,
                        double /*lifetime*/>;

SingleHopParams grid_params(double loss, double refresh, double lifetime) {
  SingleHopParams p = SingleHopParams::kazaa_defaults();
  p.loss = loss;
  p.removal_rate = 1.0 / lifetime;
  return p.with_refresh_scaled_timeout(refresh);
}

class SingleHopGrid : public ::testing::TestWithParam<Grid> {
 protected:
  static SingleHopParams params() {
    const auto& [kind, loss, refresh, lifetime] = GetParam();
    (void)kind;
    return grid_params(loss, refresh, lifetime);
  }
  static ProtocolKind kind() { return std::get<0>(GetParam()); }
};

TEST_P(SingleHopGrid, ProbabilityMassIsConserved) {
  const SingleHopModel model(kind(), params());
  double total = 0.0;
  for (const ShState s : kAllShStates) total += model.stationary(s);
  EXPECT_NEAR(total, 1.0, 1e-9);
  for (const ShState s : kAllShStates) {
    EXPECT_GE(model.stationary(s), -1e-12) << to_string(s);
    EXPECT_LE(model.stationary(s), 1.0 + 1e-12) << to_string(s);
  }
}

TEST_P(SingleHopGrid, InconsistencyIsAProbability) {
  const SingleHopModel model(kind(), params());
  EXPECT_GT(model.inconsistency(), 0.0);
  EXPECT_LT(model.inconsistency(), 1.0);
}

TEST_P(SingleHopGrid, SessionLengthIsFiniteAndPositive) {
  const SingleHopModel model(kind(), params());
  const double length = model.session_length();
  EXPECT_TRUE(std::isfinite(length));
  EXPECT_GT(length, 0.0);
  // A session is at least as long as the sender's own mean lifetime share
  // reachable before removal; sanity lower bound of half the lifetime.
  EXPECT_GT(length, 0.5 * params().mean_lifetime());
}

TEST_P(SingleHopGrid, MessageRatesAreFiniteAndNonNegative) {
  const SingleHopModel model(kind(), params());
  const MessageRateBreakdown b = model.message_rates();
  for (const double rate : {b.trigger, b.refresh, b.explicit_removal,
                            b.reliable_trigger, b.reliable_removal}) {
    EXPECT_TRUE(std::isfinite(rate));
    EXPECT_GE(rate, 0.0);
  }
  EXPECT_GT(b.total(), 0.0);
}

TEST_P(SingleHopGrid, NormalizedRateConsistentWithRawRate) {
  const SingleHopModel model(kind(), params());
  const Metrics m = model.metrics();
  EXPECT_NEAR(m.message_rate,
              m.session_length * m.raw_message_rate * params().removal_rate,
              1e-9 * std::max(1.0, m.message_rate));
}

TEST_P(SingleHopGrid, AbsorptionIsReachableFromEveryTransientState) {
  const SingleHopModel model(kind(), params());
  const auto& chain = model.transient_chain();
  const auto absorbing = chain.absorbing_states();
  ASSERT_EQ(absorbing.size(), 1u);
  for (markov::StateId s = 0; s < chain.num_states(); ++s) {
    if (s == absorbing[0]) continue;
    EXPECT_TRUE(chain.reachable(s, absorbing[0])) << chain.name(s);
  }
}

TEST_P(SingleHopGrid, IntegratedCostIsFinite) {
  const Metrics m = SingleHopModel(kind(), params()).metrics();
  EXPECT_TRUE(std::isfinite(integrated_cost(m)));
  EXPECT_GT(integrated_cost(m), 0.0);
}

/// Names a grid point after its protocol and its loss, refresh timer and
/// lifetime.
std::string grid_name(const Grid& point) {
  const auto& [kind, loss, refresh, lifetime] = point;
  std::string name{to_string(kind)};
  for (char& c : name) {
    if (c == '+') c = '_';
  }
  name += "_loss" + std::to_string(int(loss * 100));
  name += "_R" + std::to_string(int(refresh * 10));
  name += "_L" + std::to_string(int(lifetime));
  return name;
}

constexpr double kLosses[] = {0.0, 0.02, 0.1, 0.3};
constexpr double kRefreshes[] = {0.5, 5.0, 50.0};
constexpr double kLifetimes[] = {60.0, 1800.0, 20000.0};

INSTANTIATE_TEST_SUITE_P(
    Grid, SingleHopGrid,
    ::testing::Combine(::testing::ValuesIn(kAllProtocols),
                       ::testing::ValuesIn(kLosses),
                       ::testing::ValuesIn(kRefreshes),
                       ::testing::ValuesIn(kLifetimes)),
    [](const auto& param_info) { return grid_name(param_info.param); });

// Pairing properties: adding a mechanism to a protocol never raises its
// inconsistency.  Each property runs only over the (base, improved) pairs it
// compares.  A TEST_P would run on every protocol of the grid above, so the
// pairs are registered into the Grid/SingleHopGrid suite directly, each
// named after its base protocol's grid point.

class PairingTest : public SingleHopGrid {
 public:
  PairingTest(Grid point, ProtocolKind improved)
      : point_(point), improved_(improved) {}

  void TestBody() override {
    const auto& [base, loss, refresh, lifetime] = point_;
    const SingleHopParams p = grid_params(loss, refresh, lifetime);
    const double base_value = SingleHopModel(base, p).inconsistency();
    const double improved = SingleHopModel(improved_, p).inconsistency();
    EXPECT_LE(improved, base_value * (1.0 + 1e-9));
  }

 private:
  Grid point_;
  ProtocolKind improved_;
};

struct Pairing {
  ProtocolKind base;
  ProtocolKind improved;
};

bool register_pairing(const std::string& property,
                      std::initializer_list<Pairing> pairs) {
  for (const Pairing pair : pairs) {
    for (const double loss : kLosses) {
      for (const double refresh : kRefreshes) {
        for (const double lifetime : kLifetimes) {
          const Grid point{pair.base, loss, refresh, lifetime};
          ::testing::RegisterTest(
              "Grid/SingleHopGrid", (property + "/" + grid_name(point)).c_str(),
              nullptr, ::testing::PrintToString(point).c_str(), __FILE__,
              __LINE__, [point, pair]() -> SingleHopGrid* {
                return new PairingTest(point, pair.improved);
              });
        }
      }
    }
  }
  return true;
}

[[maybe_unused]] const bool kPairingsRegistered =
    register_pairing("ExplicitRemovalNeverHurtsConsistency",
                     {{ProtocolKind::kSS, ProtocolKind::kSSER},
                      {ProtocolKind::kSSRT, ProtocolKind::kSSRTR}}) &&
    register_pairing("ReliableTriggersNeverHurtConsistency",
                     {{ProtocolKind::kSS, ProtocolKind::kSSRT},
                      {ProtocolKind::kSSER, ProtocolKind::kSSRTR}});

// Monotonicity sweeps (separate suite so the grid above stays cheap).

class LossMonotonicity : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(LossMonotonicity, InconsistencyIsNonDecreasingInLoss) {
  double previous = 0.0;
  for (const double loss : {0.0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4}) {
    SingleHopParams p = SingleHopParams::kazaa_defaults();
    p.loss = loss;
    const double inconsistency = SingleHopModel(GetParam(), p).inconsistency();
    EXPECT_GE(inconsistency, previous - 1e-12) << "loss " << loss;
    previous = inconsistency;
  }
}

TEST_P(LossMonotonicity, DelayIncreasesInconsistency) {
  double previous = 0.0;
  for (const double delay : {0.01, 0.05, 0.1, 0.3, 0.6, 1.0}) {
    const SingleHopParams p =
        SingleHopParams::kazaa_defaults().with_delay_scaled_retrans(delay);
    const double inconsistency = SingleHopModel(GetParam(), p).inconsistency();
    EXPECT_GT(inconsistency, previous) << "delay " << delay;
    previous = inconsistency;
  }
}

TEST_P(LossMonotonicity, SlowerRetransmissionNeverHelpsConsistency) {
  // For protocols with reliable transmission, I is non-decreasing in Gamma;
  // for the others it is exactly flat (Fig. 8(b)).
  const bool reliable = mechanisms(GetParam()).reliable_trigger ||
                        mechanisms(GetParam()).reliable_removal;
  double previous = 0.0;
  bool first = true;
  for (const double gamma : {0.05, 0.12, 0.5, 1.0, 4.0}) {
    SingleHopParams p = SingleHopParams::kazaa_defaults();
    p.retrans_timer = gamma;
    const double inconsistency = SingleHopModel(GetParam(), p).inconsistency();
    if (!first) {
      if (reliable) {
        EXPECT_GE(inconsistency, previous - 1e-15) << "gamma " << gamma;
      } else {
        EXPECT_NEAR(inconsistency, previous, 1e-12) << "gamma " << gamma;
      }
    }
    previous = inconsistency;
    first = false;
  }
}

TEST_P(LossMonotonicity, CostWeightOnlyScalesTheInconsistencyTerm) {
  const Metrics m = SingleHopModel(GetParam(), SingleHopParams::kazaa_defaults())
                        .metrics();
  for (const double w : {0.0, 1.0, 10.0, 100.0}) {
    EXPECT_NEAR(integrated_cost(m, w), w * m.inconsistency + m.message_rate,
                1e-12)
        << "w " << w;
  }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, LossMonotonicity,
                         ::testing::ValuesIn(kAllProtocols),
                         [](const auto& param_info) {
                           std::string name{to_string(param_info.param)};
                           for (char& c : name) {
                             if (c == '+') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace sigcomp::analytic
