// The multi-hop chain simulation (Sec. III-B): the tree harness on the
// fan-out-1 tree, analytic::TreeParams::chain.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "analytic/multi_hop.hpp"
#include "analytic/tree_paths.hpp"
#include "protocols/tree_run.hpp"

namespace sigcomp::protocols {
namespace {

MultiHopParams small_chain() {
  MultiHopParams p = MultiHopParams::reservation_defaults();
  p.hops = 5;
  return p;
}

TreeSimOptions quick_options(std::uint64_t seed = 1) {
  TreeSimOptions o;
  o.seed = seed;
  o.duration = 4000.0;
  return o;
}

/// Runs one replication on the homogeneous chain `params` describes.
TreeSimResult run_chain(ProtocolKind kind, const MultiHopParams& params,
                        const TreeSimOptions& options) {
  return run_tree(kind, analytic::TreeParams::chain(params), options);
}

TEST(MultiHopSim, ProducesValidMetricsForSupportedProtocols) {
  for (const ProtocolKind kind : kMultiHopProtocols) {
    const TreeSimResult result =
        run_chain(kind, small_chain(), quick_options());
    EXPECT_GT(result.metrics.inconsistency, 0.0) << to_string(kind);
    EXPECT_LT(result.metrics.inconsistency, 1.0) << to_string(kind);
    EXPECT_GT(result.messages, 0u) << to_string(kind);
    EXPECT_EQ(result.node_inconsistency.size(), 5u) << to_string(kind);
    EXPECT_DOUBLE_EQ(result.duration, 4000.0) << to_string(kind);
    // The chain's one leaf path covers every node.
    ASSERT_EQ(result.leaf_path_inconsistency.size(), 1u) << to_string(kind);
    EXPECT_EQ(result.leaf_path_inconsistency[0], result.metrics.inconsistency)
        << to_string(kind);
  }
}

TEST(MultiHopSim, DegenerateGilbertElliottReproducesIidBitForBit) {
  const MultiHopParams iid = small_chain();
  MultiHopParams ge = iid;
  ge.loss_model = sim::LossModel::kGilbertElliott;
  ge.ge_p_gb = iid.loss;
  ge.ge_p_bg = 1.0 - iid.loss;
  ge.ge_loss_bad = 1.0;
  ge.ge_loss_good = 0.0;
  const TreeSimResult a = run_chain(ProtocolKind::kSS, iid, quick_options(17));
  const TreeSimResult b = run_chain(ProtocolKind::kSS, ge, quick_options(17));
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_DOUBLE_EQ(a.metrics.inconsistency, b.metrics.inconsistency);
  EXPECT_EQ(a.relay_timeouts, b.relay_timeouts);
}

TEST(MultiHopSim, PerHopBurstyLossIsHeterogeneous) {
  // One bursty hop in an otherwise iid chain: the chain still runs, the
  // bursty hop's mean loss is unchanged, and making *every* hop bursty
  // degrades soft state at equal average loss.
  MultiHopParams base = small_chain();
  base.loss = 0.05;
  analytic::TreeParams one_bursty = analytic::TreeParams::chain(base);
  one_bursty.set_edge_bursty(2, 10.0);
  one_bursty.validate();
  EXPECT_EQ(one_bursty.loss_process.size(), 5u);
  EXPECT_NEAR(one_bursty.edge_loss_config(2).mean_loss(), 0.05, 1e-12);
  EXPECT_EQ(one_bursty.edge_loss_config(0).model, sim::LossModel::kIid);

  TreeSimOptions options = quick_options(5);
  options.duration = 20000.0;
  const double iid_inconsistency =
      run_chain(ProtocolKind::kSS, base, options).metrics.inconsistency;
  const double all_bursty =
      run_chain(ProtocolKind::kSS, base.with_bursty_loss(10.0), options)
          .metrics.inconsistency;
  EXPECT_GT(all_bursty, 1.3 * iid_inconsistency);

  // End to end, one bursty hop sits between the all-iid and all-bursty
  // chains.
  const TreeSimResult mixed = run_tree(ProtocolKind::kSS, one_bursty, options);
  EXPECT_EQ(mixed.node_inconsistency.size(), 5u);
  EXPECT_GT(mixed.metrics.inconsistency, iid_inconsistency);
  EXPECT_LT(mixed.metrics.inconsistency, all_bursty);
}

TEST(MultiHopSim, ExplicitRemovalProtocolsRunAndMatchTheirBaseChain) {
  // The harness never removes state (infinite session), so the
  // explicit-removal variants must replay their base protocol bit-for-bit:
  // the removal mechanisms are pure dead weight until someone leaves.
  const TreeSimResult ss =
      run_chain(ProtocolKind::kSS, small_chain(), quick_options());
  const TreeSimResult sser =
      run_chain(ProtocolKind::kSSER, small_chain(), quick_options());
  EXPECT_EQ(sser.messages, ss.messages);
  EXPECT_EQ(sser.metrics.inconsistency, ss.metrics.inconsistency);
  const TreeSimResult ssrt =
      run_chain(ProtocolKind::kSSRT, small_chain(), quick_options());
  const TreeSimResult ssrtr =
      run_chain(ProtocolKind::kSSRTR, small_chain(), quick_options());
  EXPECT_EQ(ssrtr.messages, ssrt.messages);
  EXPECT_EQ(ssrtr.metrics.inconsistency, ssrt.metrics.inconsistency);
}

TEST(MultiHopSim, RejectsNonPositiveDuration) {
  TreeSimOptions options;
  options.duration = 0.0;
  EXPECT_THROW((void)run_chain(ProtocolKind::kSS, small_chain(), options),
               std::invalid_argument);
}

TEST(MultiHopSim, SameSeedIsReproducible) {
  const TreeSimResult a =
      run_chain(ProtocolKind::kSSRT, small_chain(), quick_options(4));
  const TreeSimResult b =
      run_chain(ProtocolKind::kSSRT, small_chain(), quick_options(4));
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_DOUBLE_EQ(a.metrics.inconsistency, b.metrics.inconsistency);
}

TEST(MultiHopSim, FarHopsAreWorseOff) {
  // Fig. 17's monotone trend; compare first vs last hop with margin to
  // absorb noise.
  for (const ProtocolKind kind : kMultiHopProtocols) {
    TreeSimOptions options = quick_options(8);
    options.duration = 8000.0;
    const TreeSimResult result = run_chain(kind, small_chain(), options);
    EXPECT_GT(result.node_inconsistency.back(),
              result.node_inconsistency.front())
        << to_string(kind);
  }
}

TEST(MultiHopSim, SsIsLeastConsistent) {
  TreeSimOptions options = quick_options(10);
  options.duration = 8000.0;
  const double ss = run_chain(ProtocolKind::kSS, small_chain(), options)
                        .metrics.inconsistency;
  const double ssrt = run_chain(ProtocolKind::kSSRT, small_chain(), options)
                          .metrics.inconsistency;
  const double hs = run_chain(ProtocolKind::kHS, small_chain(), options)
                        .metrics.inconsistency;
  EXPECT_GT(ss, ssrt);
  EXPECT_GT(ss, hs);
}

TEST(MultiHopSim, HardStateSendsFarFewerMessages) {
  const TreeSimResult ss =
      run_chain(ProtocolKind::kSS, small_chain(), quick_options(12));
  const TreeSimResult hs =
      run_chain(ProtocolKind::kHS, small_chain(), quick_options(12));
  EXPECT_LT(hs.messages, ss.messages / 2);
}

TEST(MultiHopSim, SoftStateTimeoutsOccurUnderLoss) {
  MultiHopParams p = small_chain();
  p.loss = 0.3;
  TreeSimOptions options = quick_options(14);
  options.duration = 20000.0;
  const TreeSimResult result = run_chain(ProtocolKind::kSS, p, options);
  EXPECT_GT(result.relay_timeouts, 0u);
}

TEST(MultiHopSim, HardStateNeverTimesOut) {
  const TreeSimResult result =
      run_chain(ProtocolKind::kHS, small_chain(), quick_options(16));
  EXPECT_EQ(result.relay_timeouts, 0u);
}

TEST(MultiHopSim, LossFreeChainIsNearlyAlwaysConsistent) {
  MultiHopParams p = small_chain();
  p.loss = 0.0;
  const TreeSimResult result =
      run_chain(ProtocolKind::kSS, p, quick_options(18));
  // Only update propagation (5 hops x 30 ms every ~60 s) is inconsistent.
  EXPECT_LT(result.metrics.inconsistency, 0.01);
}

TEST(MultiHopSim, HsRecoversFromFalseExternalSignals) {
  MultiHopParams p = small_chain();
  p.false_signal_rate = 1.0 / 500.0;  // frequent false signals
  TreeSimOptions options = quick_options(20);
  options.duration = 10000.0;
  const TreeSimResult result = run_chain(ProtocolKind::kHS, p, options);
  // Signals happen (~20 per relay) yet consistency recovers each time.
  EXPECT_GT(result.metrics.inconsistency, 0.0);
  EXPECT_LT(result.metrics.inconsistency, 0.2);
}

TEST(MultiHopSimReplicated, ProducesConfidenceIntervals) {
  TreeSimOptions options = quick_options();
  options.duration = 1500.0;
  const TreeReplicatedResult result =
      run_tree_replicated(ProtocolKind::kSS,
                          analytic::TreeParams::chain(small_chain()), options,
                          6);
  EXPECT_EQ(result.replications, 6u);
  EXPECT_GT(result.inconsistency.mean, 0.0);
  EXPECT_GT(result.inconsistency.half_width, 0.0);
  EXPECT_GT(result.message_rate.mean, 0.0);
  EXPECT_GE(result.worst_leaf_inconsistency.mean,
            result.inconsistency.mean * 0.5);
}

TEST(MultiHopSimReplicated, CoversTheAnalyticModel) {
  MultiHopParams p = small_chain();
  TreeSimOptions options = quick_options(40);
  options.duration = 6000.0;
  const TreeReplicatedResult sim = run_tree_replicated(
      ProtocolKind::kSS, analytic::TreeParams::chain(p), options, 8);
  const double model =
      analytic::MultiHopModel(ProtocolKind::kSS,
                              analytic::PathParams::from_homogeneous(p))
          .inconsistency();
  // Within 4 CI half-widths or 30% relative.
  const double tolerance =
      std::max(4.0 * sim.inconsistency.half_width, 0.30 * model);
  EXPECT_NEAR(sim.inconsistency.mean, model, tolerance);
}

TEST(MultiHopSimReplicated, ZeroReplicationsRejected) {
  EXPECT_THROW(
      (void)run_tree_replicated(ProtocolKind::kSS,
                                analytic::TreeParams::chain(small_chain()),
                                TreeSimOptions{}, 0),
      std::invalid_argument);
}

TEST(MultiHopSim, SingleHopChainWorks) {
  MultiHopParams p = small_chain();
  p.hops = 1;
  const TreeSimResult result =
      run_chain(ProtocolKind::kSSRT, p, quick_options(22));
  EXPECT_EQ(result.node_inconsistency.size(), 1u);
  EXPECT_GT(result.messages, 0u);
}

TEST(HeteroSim, TracksHeteroModelWithABadHop) {
  // Cross-validation of uneven hops: a simulated chain with a 10x-loss hop
  // in the middle vs the chain model of the same path.
  MultiHopParams base = small_chain();
  base.hops = 6;
  analytic::TreeParams chain = analytic::TreeParams::chain(base);
  chain.loss[2] = 0.2;
  TreeSimOptions options;
  options.duration = 30000.0;
  options.seed = 23;
  for (const ProtocolKind kind : kMultiHopProtocols) {
    const analytic::MultiHopModel model(kind, chain.path_params(base.hops));
    const TreeSimResult sim = run_tree(kind, chain, options);
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
  MultiHopParams base = small_chain();
  base.hops = 6;
  analytic::TreeParams chain = analytic::TreeParams::chain(base);
  chain.loss[2] = 0.25;  // hop 3 is bad
  TreeSimOptions options;
  options.duration = 20000.0;
  options.seed = 29;
  const TreeSimResult sim = run_tree(ProtocolKind::kSSRT, chain, options);
  // The jump across the bad hop dominates the profile's increments.
  const double jump_bad =
      sim.node_inconsistency[2] - sim.node_inconsistency[1];
  const double jump_good =
      sim.node_inconsistency[1] - sim.node_inconsistency[0];
  EXPECT_GT(jump_bad, 2.0 * jump_good);
}

}  // namespace
}  // namespace sigcomp::protocols
