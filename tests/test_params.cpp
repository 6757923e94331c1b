#include "core/params.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace sigcomp {
namespace {

TEST(SingleHopParams, KazaaDefaultsMatchPaper) {
  const SingleHopParams p = SingleHopParams::kazaa_defaults();
  EXPECT_DOUBLE_EQ(p.loss, 0.02);
  EXPECT_DOUBLE_EQ(p.delay, 0.030);
  EXPECT_DOUBLE_EQ(1.0 / p.update_rate, 20.0);
  EXPECT_DOUBLE_EQ(1.0 / p.removal_rate, 1800.0);
  EXPECT_DOUBLE_EQ(p.refresh_timer, 5.0);
  EXPECT_DOUBLE_EQ(p.timeout_timer, 15.0);
  EXPECT_DOUBLE_EQ(p.retrans_timer, 4.0 * p.delay);
  EXPECT_DOUBLE_EQ(p.false_signal_rate, 1e-4);
  EXPECT_NO_THROW(p.validate());
}

TEST(SingleHopParams, FalseRemovalRateFormula) {
  const SingleHopParams p = SingleHopParams::kazaa_defaults();
  // lambda_F = pl^(T/R) / T with T/R = 3.
  EXPECT_NEAR(p.false_removal_rate(), std::pow(0.02, 3.0) / 15.0, 1e-18);
}

TEST(SingleHopParams, FalseRemovalRateZeroWithoutLoss) {
  SingleHopParams p;
  p.loss = 0.0;
  EXPECT_DOUBLE_EQ(p.false_removal_rate(), 0.0);
}

TEST(SingleHopParams, FalseRemovalGrowsWithShorterTimeout) {
  SingleHopParams fast;
  fast.timeout_timer = 5.0;
  SingleHopParams slow;
  slow.timeout_timer = 30.0;
  EXPECT_GT(fast.false_removal_rate(), slow.false_removal_rate());
}

TEST(SingleHopParams, MeanLifetime) {
  SingleHopParams p;
  p.removal_rate = 0.004;
  EXPECT_DOUBLE_EQ(p.mean_lifetime(), 250.0);
}

TEST(SingleHopParams, WithDelayScaledRetrans) {
  const SingleHopParams p =
      SingleHopParams::kazaa_defaults().with_delay_scaled_retrans(0.5);
  EXPECT_DOUBLE_EQ(p.delay, 0.5);
  EXPECT_DOUBLE_EQ(p.retrans_timer, 2.0);
  EXPECT_DOUBLE_EQ(p.loss, 0.02);  // everything else untouched
}

TEST(SingleHopParams, WithRefreshScaledTimeout) {
  const SingleHopParams p =
      SingleHopParams::kazaa_defaults().with_refresh_scaled_timeout(2.0);
  EXPECT_DOUBLE_EQ(p.refresh_timer, 2.0);
  EXPECT_DOUBLE_EQ(p.timeout_timer, 6.0);
}

TEST(SingleHopParams, ValidateRejectsBadValues) {
  const auto expect_invalid = [](auto mutate) {
    SingleHopParams p;
    mutate(p);
    EXPECT_THROW(p.validate(), std::invalid_argument);
  };
  expect_invalid([](auto& p) { p.loss = -0.1; });
  expect_invalid([](auto& p) { p.loss = 1.0; });
  expect_invalid([](auto& p) { p.loss = std::nan(""); });
  expect_invalid([](auto& p) { p.delay = 0.0; });
  expect_invalid([](auto& p) { p.delay = -1.0; });
  expect_invalid([](auto& p) { p.update_rate = -1.0; });
  expect_invalid([](auto& p) { p.removal_rate = 0.0; });
  expect_invalid([](auto& p) { p.refresh_timer = 0.0; });
  expect_invalid([](auto& p) { p.timeout_timer = -5.0; });
  expect_invalid([](auto& p) { p.retrans_timer = 0.0; });
  expect_invalid([](auto& p) { p.false_signal_rate = -1e-9; });
}

TEST(SingleHopParams, ZeroUpdateRateIsAllowed) {
  SingleHopParams p;
  p.update_rate = 0.0;
  EXPECT_NO_THROW(p.validate());
}

TEST(SingleHopParams, WithBurstyLossPinsStationaryMean) {
  SingleHopParams p;
  p.loss = 0.05;
  const SingleHopParams bursty = p.with_bursty_loss(10.0);
  EXPECT_EQ(bursty.loss_model, sim::LossModel::kGilbertElliott);
  EXPECT_DOUBLE_EQ(bursty.loss, 0.05);  // the advertised average is kept
  EXPECT_NEAR(bursty.loss_config().mean_loss(), 0.05, 1e-12);
  EXPECT_NO_THROW(bursty.validate());
}

TEST(SingleHopParams, ValidateRejectsIncoherentGeMeanLoss) {
  // A GE chain whose stationary mean disagrees with `loss` would make every
  // model-vs-sim comparison apples-to-oranges.
  SingleHopParams p;
  p.loss_model = sim::LossModel::kGilbertElliott;
  p.ge_p_gb = 0.3;  // stationary mean ~0.23, but loss still says 0.02
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.loss = p.loss_config().mean_loss();
  EXPECT_NO_THROW(p.validate());
  MultiHopParams mh;
  mh.loss_model = sim::LossModel::kGilbertElliott;
  mh.ge_p_gb = 0.3;
  EXPECT_THROW(mh.validate(), std::invalid_argument);
}

TEST(MultiHopParams, ReservationDefaultsMatchPaper) {
  const MultiHopParams p = MultiHopParams::reservation_defaults();
  EXPECT_EQ(p.hops, 20u);
  EXPECT_DOUBLE_EQ(p.loss, 0.02);
  EXPECT_DOUBLE_EQ(p.delay, 0.030);
  EXPECT_DOUBLE_EQ(1.0 / p.update_rate, 60.0);
  EXPECT_DOUBLE_EQ(p.refresh_timer, 5.0);
  EXPECT_DOUBLE_EQ(p.timeout_timer, 15.0);
  EXPECT_NO_THROW(p.validate());
}

TEST(MultiHopParams, ValidateRejectsBadValues) {
  const auto expect_invalid = [](auto mutate) {
    MultiHopParams p;
    mutate(p);
    EXPECT_THROW(p.validate(), std::invalid_argument);
  };
  expect_invalid([](auto& p) { p.hops = 0; });
  expect_invalid([](auto& p) { p.loss = 1.0; });
  expect_invalid([](auto& p) { p.delay = 0.0; });
  expect_invalid([](auto& p) { p.refresh_timer = 0.0; });
  expect_invalid([](auto& p) { p.timeout_timer = 0.0; });
  expect_invalid([](auto& p) { p.retrans_timer = 0.0; });
  expect_invalid([](auto& p) { p.false_signal_rate = -1.0; });
}

}  // namespace
}  // namespace sigcomp
