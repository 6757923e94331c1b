// Parameterized property tests for the multi-hop model across the
// (protocol x hops x loss) grid.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "analytic/multi_hop.hpp"

namespace sigcomp::analytic {
namespace {

using Grid = std::tuple<ProtocolKind, std::size_t /*hops*/, double /*loss*/>;

MultiHopParams grid_params(std::size_t hops, double loss) {
  MultiHopParams p = MultiHopParams::reservation_defaults();
  p.hops = hops;
  p.loss = loss;
  p.false_signal_rate = std::pow(loss, 4.0);
  return p;
}

class MultiHopGrid : public ::testing::TestWithParam<Grid> {
 protected:
  static MultiHopParams params() {
    const auto& [kind, hops, loss] = GetParam();
    (void)kind;
    return grid_params(hops, loss);
  }
  static ProtocolKind kind() { return std::get<0>(GetParam()); }
};

TEST_P(MultiHopGrid, ProbabilityMassIsConserved) {
  const MultiHopModel model(kind(), PathParams::from_homogeneous(params()));
  double total = model.recovery_probability();
  for (std::size_t k = 0; k <= params().hops; ++k) {
    total += model.stationary(k, 0);
    if (k < params().hops) total += model.stationary(k, 1);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_P(MultiHopGrid, InconsistencyIsAProbability) {
  const MultiHopModel model(kind(), PathParams::from_homogeneous(params()));
  EXPECT_GT(model.inconsistency(), 0.0);
  EXPECT_LT(model.inconsistency(), 1.0);
}

TEST_P(MultiHopGrid, HopInconsistencyIsMonotoneInHop) {
  const MultiHopModel model(kind(), PathParams::from_homogeneous(params()));
  for (std::size_t hop = 2; hop <= params().hops; ++hop) {
    EXPECT_GE(model.hop_inconsistency(hop),
              model.hop_inconsistency(hop - 1) - 1e-12)
        << "hop " << hop;
  }
}

TEST_P(MultiHopGrid, HopInconsistencyBoundedByTotal) {
  const MultiHopModel model(kind(), PathParams::from_homogeneous(params()));
  for (std::size_t hop = 1; hop <= params().hops; ++hop) {
    EXPECT_LE(model.hop_inconsistency(hop), model.inconsistency() + 1e-12);
  }
}

TEST_P(MultiHopGrid, MessageRatesAreFiniteAndNonNegative) {
  const MultiHopModel model(kind(), PathParams::from_homogeneous(params()));
  const MessageRateBreakdown b = model.message_rates();
  for (const double rate : {b.trigger, b.refresh, b.explicit_removal,
                            b.reliable_trigger, b.reliable_removal}) {
    EXPECT_TRUE(std::isfinite(rate));
    EXPECT_GE(rate, 0.0);
  }
  EXPECT_GT(b.total(), 0.0);
}

/// Names a grid point after its protocol, its hop count and its loss.
std::string grid_name(const Grid& point) {
  const auto& [kind, hops, loss] = point;
  std::string name{to_string(kind)};
  for (char& c : name) {
    if (c == '+') c = '_';
  }
  name += "_K" + std::to_string(hops);
  name += "_loss" + std::to_string(int(loss * 1000));
  return name;
}

constexpr std::size_t kHops[] = {1, 4, 12, 20};
constexpr double kLosses[] = {0.005, 0.02, 0.1};

INSTANTIATE_TEST_SUITE_P(
    Grid, MultiHopGrid,
    ::testing::Combine(::testing::ValuesIn(kMultiHopProtocols),
                       ::testing::ValuesIn(kHops),
                       ::testing::ValuesIn(kLosses)),
    [](const auto& param_info) { return grid_name(param_info.param); });

// Pairing property: reliable triggers never raise a chain's inconsistency.
// It runs only over the (SS, SS+RT) pair it compares.  A TEST_P would run on
// every protocol of the grid above, so the pair's points are registered into
// the Grid/MultiHopGrid suite directly, each named after SS's grid point.

class TriggerPairTest : public MultiHopGrid {
 public:
  explicit TriggerPairTest(Grid point) : point_(point) {}

  void TestBody() override {
    const auto& [kind, hops, loss] = point_;
    const MultiHopParams p = grid_params(hops, loss);
    const PathParams path = PathParams::from_homogeneous(p);
    const double ss = MultiHopModel(kind, path).inconsistency();
    const double ssrt =
        MultiHopModel(ProtocolKind::kSSRT, path).inconsistency();
    EXPECT_LE(ssrt, ss * (1.0 + 1e-9));
  }

 private:
  Grid point_;
};

bool register_trigger_pairs() {
  for (const std::size_t hops : kHops) {
    for (const double loss : kLosses) {
      const Grid point{ProtocolKind::kSS, hops, loss};
      ::testing::RegisterTest(
          "Grid/MultiHopGrid",
          ("ReliableTriggersNeverHurtConsistency/" + grid_name(point)).c_str(),
          nullptr, ::testing::PrintToString(point).c_str(), __FILE__, __LINE__,
          [point]() -> MultiHopGrid* { return new TriggerPairTest(point); });
    }
  }
  return true;
}

[[maybe_unused]] const bool kTriggerPairsRegistered = register_trigger_pairs();

class HopMonotonicity : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(HopMonotonicity, InconsistencyGrowsWithChainLength) {
  double previous = 0.0;
  for (const std::size_t hops : {1u, 2u, 4u, 8u, 16u}) {
    MultiHopParams p = MultiHopParams::reservation_defaults();
    p.hops = hops;
    const double inconsistency =
        MultiHopModel(GetParam(), PathParams::from_homogeneous(p))
            .inconsistency();
    EXPECT_GT(inconsistency, previous) << "hops " << hops;
    previous = inconsistency;
  }
}

TEST_P(HopMonotonicity, MessageRateGrowsWithChainLength) {
  double previous = 0.0;
  for (const std::size_t hops : {1u, 2u, 4u, 8u, 16u}) {
    MultiHopParams p = MultiHopParams::reservation_defaults();
    p.hops = hops;
    const double rate =
        MultiHopModel(GetParam(), PathParams::from_homogeneous(p))
            .metrics()
            .raw_message_rate;
    EXPECT_GT(rate, previous) << "hops " << hops;
    previous = rate;
  }
}

INSTANTIATE_TEST_SUITE_P(MultiHopProtocols, HopMonotonicity,
                         ::testing::ValuesIn(kMultiHopProtocols),
                         [](const auto& param_info) {
                           std::string name{to_string(param_info.param)};
                           for (char& c : name) {
                             if (c == '+') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace sigcomp::analytic
