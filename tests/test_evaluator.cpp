#include "core/evaluator.hpp"

#include <gtest/gtest.h>

#include "analytic/multi_hop.hpp"
#include "analytic/single_hop.hpp"

namespace sigcomp {
namespace {

TEST(Evaluator, SingleHopFacadeMatchesDirectModel) {
  const SingleHopParams params = SingleHopParams::kazaa_defaults();
  for (const ProtocolKind kind : kAllProtocols) {
    const Metrics facade = evaluate_analytic(kind, params);
    const Metrics direct = analytic::SingleHopModel(kind, params).metrics();
    EXPECT_DOUBLE_EQ(facade.inconsistency, direct.inconsistency) << to_string(kind);
    EXPECT_DOUBLE_EQ(facade.message_rate, direct.message_rate) << to_string(kind);
  }
}

TEST(Evaluator, MultiHopFacadeMatchesDirectModel) {
  const MultiHopParams params = MultiHopParams::reservation_defaults();
  for (const ProtocolKind kind : kMultiHopProtocols) {
    const Metrics facade = evaluate_analytic(kind, params);
    const analytic::PathParams path =
        analytic::PathParams::from_homogeneous(params);
    const Metrics direct = analytic::MultiHopModel(kind, path).metrics();
    EXPECT_DOUBLE_EQ(facade.inconsistency, direct.inconsistency) << to_string(kind);
    EXPECT_DOUBLE_EQ(facade.raw_message_rate, direct.raw_message_rate)
        << to_string(kind);
  }
}

TEST(Evaluator, SimulatedFacadeRunsBothSettings) {
  protocols::SimOptions single_options;
  single_options.sessions = 30;
  const auto single = evaluate_simulated(
      ProtocolKind::kSSER, SingleHopParams::kazaa_defaults(), single_options);
  EXPECT_EQ(single.sessions, 30u);

  MultiHopParams mh = MultiHopParams::reservation_defaults();
  mh.hops = 3;
  protocols::TreeSimOptions multi_options;
  multi_options.duration = 500.0;
  const auto multi = evaluate_simulated(ProtocolKind::kSS, mh, multi_options);
  EXPECT_EQ(multi.node_inconsistency.size(), 3u);
}

TEST(Evaluator, CompareAllSingleHopCoversAllProtocolsInOrder) {
  const auto rows = compare_all(SingleHopParams::kazaa_defaults());
  ASSERT_EQ(rows.size(), kAllProtocols.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].kind, kAllProtocols[i]);
    EXPECT_GT(rows[i].metrics.inconsistency, 0.0);
  }
}

TEST(Evaluator, CompareAllMultiHopCoversPaperProtocols) {
  const auto rows = compare_all(MultiHopParams::reservation_defaults());
  ASSERT_EQ(rows.size(), kMultiHopProtocols.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].kind, kMultiHopProtocols[i]);
  }
}

TEST(Evaluator, CompareAllReproducesHeadlineClaims) {
  // The abstract's claims as executable assertions.
  const auto rows = compare_all(SingleHopParams::kazaa_defaults());
  const auto metric = [&](ProtocolKind kind) {
    for (const auto& row : rows) {
      if (row.kind == kind) return row.metrics;
    }
    throw std::logic_error("protocol missing");
  };
  // "soft-state + explicit removal substantially improves consistency ...
  // while introducing little additional signaling overhead"
  EXPECT_LT(metric(ProtocolKind::kSSER).inconsistency,
            0.6 * metric(ProtocolKind::kSS).inconsistency);
  EXPECT_LT(metric(ProtocolKind::kSSER).message_rate,
            1.05 * metric(ProtocolKind::kSS).message_rate);
  // "reliable explicit setup/update/removal achieves comparable (and
  // sometimes better) consistency than hard state"
  EXPECT_LE(metric(ProtocolKind::kSSRTR).inconsistency,
            metric(ProtocolKind::kHS).inconsistency * 1.05);
}

}  // namespace
}  // namespace sigcomp
