#include "sim/channel_process.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/stats.hpp"

namespace sigcomp::sim {
namespace {

TEST(LossConfig, IidMeanLossIsTheLossItself) {
  EXPECT_DOUBLE_EQ(LossConfig::iid(0.0).mean_loss(), 0.0);
  EXPECT_DOUBLE_EQ(LossConfig::iid(0.3).mean_loss(), 0.3);
}

TEST(LossConfig, GeStationaryMeanMatchesClosedForm) {
  // pi_bad = p_gb / (p_gb + p_bg); the GTH route must agree with it.
  const LossConfig config = LossConfig::gilbert_elliott(0.01, 0.2, 0.8, 0.001);
  const double pi_bad = 0.01 / (0.01 + 0.2);
  const double expected = (1.0 - pi_bad) * 0.001 + pi_bad * 0.8;
  EXPECT_NEAR(config.mean_loss(), expected, 1e-12);
}

TEST(LossConfig, GeDegenerateChainsResolveAnalytically) {
  // p_gb = 0: the chain starts good and never leaves it.
  EXPECT_DOUBLE_EQ(LossConfig::gilbert_elliott(0.0, 0.5, 1.0, 0.1).mean_loss(),
                   0.1);
  // p_bg = 0 with p_gb > 0: eventually absorbed in the bad state.
  EXPECT_DOUBLE_EQ(LossConfig::gilbert_elliott(0.5, 0.0, 0.9, 0.0).mean_loss(),
                   0.9);
}

TEST(LossConfig, MatchedConstructionPinsMeanAndBurstLength) {
  for (const double burst : {1.0, 2.0, 5.0, 20.0}) {
    const LossConfig config = LossConfig::gilbert_elliott_matched(0.05, burst);
    EXPECT_NEAR(config.mean_loss(), 0.05, 1e-12) << "burst " << burst;
    EXPECT_NEAR(config.mean_burst_length(), burst, 1e-12) << "burst " << burst;
  }
  // With loss_good > 0 the mean still pins.
  const LossConfig mixed =
      LossConfig::gilbert_elliott_matched(0.1, 4.0, 0.9, 0.01);
  EXPECT_NEAR(mixed.mean_loss(), 0.1, 1e-12);
}

TEST(LossConfig, MatchedConstructionRejectsInfeasibleChains) {
  EXPECT_THROW((void)LossConfig::gilbert_elliott_matched(0.05, 0.5),
               std::invalid_argument);  // burst < 1 message
  EXPECT_THROW((void)LossConfig::gilbert_elliott_matched(1.0, 5.0),
               std::invalid_argument);  // mean >= loss_bad
  EXPECT_THROW((void)LossConfig::gilbert_elliott_matched(0.05, 5.0, 0.5, 0.2),
               std::invalid_argument);  // mean < loss_good
  // Mean so high the implied p_gb would exceed 1.
  EXPECT_THROW((void)LossConfig::gilbert_elliott_matched(0.9, 1.0, 0.91),
               std::invalid_argument);
}

TEST(LossConfig, ValidateRejectsOutOfRangeProbabilities) {
  EXPECT_THROW(LossConfig::iid(-0.1).validate(), std::invalid_argument);
  EXPECT_THROW(LossConfig::iid(1.1).validate(), std::invalid_argument);
  EXPECT_THROW(LossConfig::iid(std::nan("")).validate(), std::invalid_argument);
  EXPECT_NO_THROW(LossConfig::iid(1.0).validate());  // blackhole is legal
  EXPECT_THROW(LossConfig::gilbert_elliott(1.5, 0.5).validate(),
               std::invalid_argument);
  EXPECT_THROW(LossConfig::gilbert_elliott(0.5, -0.5).validate(),
               std::invalid_argument);
  EXPECT_THROW(LossConfig::gilbert_elliott(0.5, 0.5, 2.0).validate(),
               std::invalid_argument);
  EXPECT_NO_THROW(LossConfig::gilbert_elliott(0.5, 0.5, 1.0, 0.0).validate());
}

TEST(LossConfig, MeanBurstLengthAgreesAcrossModelsOnDegenerateChain) {
  // p_gb = p, p_bg = 1 - p *is* iid Bernoulli(p); the burst formulas agree.
  const double p = 0.3;
  const LossConfig iid = LossConfig::iid(p);
  const LossConfig degenerate = LossConfig::gilbert_elliott(p, 1.0 - p);
  EXPECT_NEAR(iid.mean_burst_length(), degenerate.mean_burst_length(), 1e-12);
  EXPECT_DOUBLE_EQ(LossConfig::iid(1.0).mean_burst_length(),
                   std::numeric_limits<double>::infinity());
}

TEST(LossProcess, EmpiricalLossRateMatchesStationaryWithin95Ci) {
  // Block means of the drop indicator across independent replicas; the 95%
  // CI of their average must cover the GTH-derived stationary mean.
  const LossConfig config = LossConfig::gilbert_elliott(0.02, 0.25, 0.9, 0.005);
  const double stationary = config.mean_loss();
  RunningStats blocks;
  constexpr int kReplicas = 40;
  constexpr int kDrawsPerReplica = 20000;
  for (int r = 0; r < kReplicas; ++r) {
    Rng rng(1234, static_cast<std::uint64_t>(r));
    bool bad = false;
    int drops = 0;
    for (int i = 0; i < kDrawsPerReplica; ++i) {
      drops += LossProcess::drop(config, bad, rng);
    }
    blocks.add(static_cast<double>(drops) / kDrawsPerReplica);
  }
  const ConfidenceInterval ci = confidence_interval_95(blocks);
  EXPECT_TRUE(ci.contains(stationary))
      << "empirical " << ci.mean << " +/- " << ci.half_width
      << " vs stationary " << stationary;
}

TEST(LossProcess, MeanBurstLengthScalesAsInversePbg) {
  for (const double p_bg : {0.5, 0.2, 0.1}) {
    // Keep the stationary mean fixed at 0.05 while the burst length moves.
    const LossConfig config =
        LossConfig::gilbert_elliott_matched(0.05, 1.0 / p_bg);
    Rng rng(77);
    bool bad = false;
    std::vector<int> bursts;
    int current = 0;
    for (int i = 0; i < 400000; ++i) {
      if (LossProcess::drop(config, bad, rng)) {
        ++current;
      } else if (current > 0) {
        bursts.push_back(current);
        current = 0;
      }
    }
    double total = 0.0;
    for (const int b : bursts) total += b;
    const double mean_burst = total / static_cast<double>(bursts.size());
    EXPECT_NEAR(mean_burst, 1.0 / p_bg, 0.1 / p_bg)
        << "p_bg " << p_bg << " (" << bursts.size() << " bursts)";
  }
}

TEST(LossProcess, DegenerateGeIsBitIdenticalToIid) {
  // p_gb = p, p_bg = 1 - p, loss_bad = 1, loss_good = 0 consumes the random
  // stream exactly like iid Bernoulli(p): same seed, same drop sequence,
  // bit for bit.
  const double p = 0.13;
  Rng rng_iid(2024);
  Rng rng_ge(2024);
  const LossConfig iid = LossConfig::iid(p);
  const LossConfig ge = LossConfig::gilbert_elliott(p, 1.0 - p, 1.0, 0.0);
  bool iid_bad = false;
  bool ge_bad = false;
  for (int i = 0; i < 100000; ++i) {
    ASSERT_EQ(LossProcess::drop(iid, iid_bad, rng_iid),
              LossProcess::drop(ge, ge_bad, rng_ge))
        << "draw " << i;
  }
  // The underlying generators stayed in lockstep, too.
  EXPECT_EQ(rng_iid.next_u64(), rng_ge.next_u64());
}

TEST(DelayConfig, LegacyBridgeMatchesSampleHelper) {
  Rng a(17), b(17);
  const DelayConfig exponential =
      DelayConfig::from(Distribution::kExponential, 0.4);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_DOUBLE_EQ(exponential.sample(a),
                     sample(b, Distribution::kExponential, 0.4));
  }
  const DelayConfig deterministic =
      DelayConfig::from(Distribution::kDeterministic, 0.4);
  EXPECT_DOUBLE_EQ(deterministic.sample(a), 0.4);
}

TEST(DelayConfig, HeavyTailLawsHaveRequestedMean) {
  Rng rng(23);
  constexpr int kSamples = 400000;
  double pareto_sum = 0.0;
  double lognormal_sum = 0.0;
  const DelayConfig pareto = DelayConfig::pareto(0.1, 2.5);
  const DelayConfig lognormal = DelayConfig::lognormal(0.1, 1.0);
  for (int i = 0; i < kSamples; ++i) {
    pareto_sum += pareto.sample(rng);
    lognormal_sum += lognormal.sample(rng);
  }
  EXPECT_NEAR(pareto_sum / kSamples, 0.1, 0.005);
  EXPECT_NEAR(lognormal_sum / kSamples, 0.1, 0.005);
}

TEST(DelayConfig, ValidateRejectsOutOfDomainParameters) {
  EXPECT_THROW(DelayConfig::exponential(-1.0).validate(),
               std::invalid_argument);
  EXPECT_THROW(DelayConfig::pareto(0.1, 1.0).validate(), std::invalid_argument);
  EXPECT_THROW(DelayConfig::lognormal(0.1, -0.5).validate(),
               std::invalid_argument);
  EXPECT_NO_THROW(DelayConfig::pareto(0.1, 1.5).validate());
  EXPECT_NO_THROW(DelayConfig::deterministic(0.0).validate());
}

}  // namespace
}  // namespace sigcomp::sim
