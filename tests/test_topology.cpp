// Tests of the tree signaling topology subsystem: TreeSpec geometry, the
// per-path analytic composition (analytic/tree_paths.hpp), the wired
// protocols::Topology, chain degeneracy (fan-out 1 == the multi-hop chain,
// bit for bit), teardown hygiene (stop() leaves no dangling events and the
// event pool stays flat), and tree sessions in the session farm.
#include "protocols/topology.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analytic/tree_paths.hpp"
#include "core/params.hpp"
#include "core/protocol.hpp"
#include "core/topology.hpp"
#include "exp/session_farm.hpp"
#include "protocols/tree_run.hpp"
#include "sim/simulator.hpp"

namespace sigcomp {
namespace {

// ---------------------------------------------------------------- TreeSpec --

TEST(TreeSpec, ChainGeometry) {
  const TreeSpec spec = TreeSpec::chain(3);
  EXPECT_EQ(spec.parent, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(spec.nodes(), 4u);
  EXPECT_EQ(spec.edges(), 3u);
  EXPECT_EQ(spec.depth(), 3u);
  EXPECT_EQ(spec.max_fanout(), 1u);
  EXPECT_EQ(spec.leaves(), (std::vector<std::size_t>{3}));
  EXPECT_EQ(spec.path_edges(3), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(spec.node_depth(3), 3u);
  EXPECT_THROW((void)TreeSpec::chain(0), std::invalid_argument);
}

TEST(TreeSpec, BalancedBinaryDepthTwo) {
  // Breadth-first ids: 0; 1 2; 3 4 5 6.
  const TreeSpec spec = TreeSpec::balanced(2, 2);
  EXPECT_EQ(spec.parent, (std::vector<std::size_t>{0, 0, 1, 1, 2, 2}));
  EXPECT_EQ(spec.nodes(), 7u);
  EXPECT_EQ(spec.depth(), 2u);
  EXPECT_EQ(spec.max_fanout(), 2u);
  EXPECT_EQ(spec.leaf_count(), 4u);
  EXPECT_EQ(spec.leaves(), (std::vector<std::size_t>{3, 4, 5, 6}));
  EXPECT_EQ(spec.path_edges(6), (std::vector<std::size_t>{1, 5}));
  EXPECT_EQ(spec.children(0), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(spec.children(2), (std::vector<std::size_t>{4, 5}));
  EXPECT_TRUE(spec.is_leaf(3));
  EXPECT_FALSE(spec.is_leaf(1));
}

TEST(TreeSpec, BalancedPrunedToReceiverCount) {
  // Keep 3 of the 4 depth-2 leaves: nodes {0,1,2,3,4,5} renumbered.
  const TreeSpec spec = TreeSpec::balanced(2, 2, 3);
  EXPECT_EQ(spec.nodes(), 6u);
  EXPECT_EQ(spec.leaf_count(), 3u);
  EXPECT_EQ(spec.depth(), 2u);
  for (const std::size_t leaf : spec.leaves()) {
    EXPECT_EQ(spec.node_depth(leaf), 2u) << "receiver not at full depth";
  }
  // receivers == fanout^depth is a no-op prune.
  EXPECT_EQ(TreeSpec::balanced(2, 2, 4), TreeSpec::balanced(2, 2));
  EXPECT_THROW((void)TreeSpec::balanced(2, 2, 5), std::invalid_argument);
  EXPECT_THROW((void)TreeSpec::balanced(0, 2), std::invalid_argument);
  EXPECT_THROW((void)TreeSpec::balanced(2, 0), std::invalid_argument);
}

TEST(TreeSpec, ValidateRejectsForwardParents) {
  TreeSpec bad;
  bad.parent = {0, 2};  // node 2's parent would be node 3
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

// -------------------------------------------------------------- TreeParams --

TEST(TreeParams, ChainPathParamsMatchHomogeneousChain) {
  MultiHopParams base;
  base.hops = 4;
  base.loss = 0.03;
  const analytic::TreeParams tree = analytic::TreeParams::chain(base);
  const analytic::PathParams path = tree.path_params(4);
  const analytic::PathParams expected =
      analytic::PathParams::from_homogeneous(base);
  EXPECT_EQ(path.loss, expected.loss);
  EXPECT_EQ(path.delay, expected.delay);
  EXPECT_EQ(path.update_rate, expected.update_rate);
  EXPECT_EQ(path.refresh_timer, expected.refresh_timer);
  EXPECT_EQ(path.timeout_timer, expected.timeout_timer);
  EXPECT_EQ(path.retrans_timer, expected.retrans_timer);
  EXPECT_EQ(path.false_signal_rate, expected.false_signal_rate);
}

TEST(TreeParams, PathModelEqualsChainModelOnDegenerateTree) {
  MultiHopParams base;
  base.hops = 3;
  const analytic::TreeParams tree = analytic::TreeParams::chain(base);
  const auto paths = analytic::evaluate_tree_paths(ProtocolKind::kSSRT, tree);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].hops, 3u);
  const analytic::MultiHopModel chain_model(
      ProtocolKind::kSSRT, analytic::PathParams::from_homogeneous(base));
  EXPECT_EQ(paths[0].metrics.inconsistency, chain_model.inconsistency());
}

TEST(TreeParams, WorstPathFollowsTheLossySubtree) {
  MultiHopParams base;
  base.hops = 2;  // ignored by balanced()
  analytic::TreeParams tree = analytic::TreeParams::balanced(base, 2, 2);
  // Make the edge into node 2 (edge 1) much lossier: both leaves under
  // node 2 (nodes 5 and 6) now sit on the worst paths.
  tree.loss[1] = 0.2;
  const analytic::TreePathMetrics worst =
      analytic::worst_tree_path(ProtocolKind::kSS, tree);
  EXPECT_TRUE(worst.leaf == 5 || worst.leaf == 6) << "worst leaf " << worst.leaf;
  // And the per-leaf evaluation orders leaves ascending.
  const auto paths = analytic::evaluate_tree_paths(ProtocolKind::kSS, tree);
  ASSERT_EQ(paths.size(), 4u);
  EXPECT_LT(paths[0].metrics.inconsistency, worst.metrics.inconsistency);
}

TEST(TreeParams, BurstyEdgeKeepsAnalyticAverages) {
  analytic::TreeParams tree =
      analytic::TreeParams::balanced(MultiHopParams{}, 2, 2);
  tree.set_edge_bursty(1, 8.0);
  EXPECT_NEAR(tree.edge_loss_config(1).mean_loss(), tree.loss[1], 1e-12);
  EXPECT_EQ(tree.edge_loss_config(0).mean_loss(), tree.loss[0]);
  tree.validate();
}

TEST(TreeParams, ValidateRejectsMismatchedVectors) {
  analytic::TreeParams tree =
      analytic::TreeParams::balanced(MultiHopParams{}, 2, 1);
  tree.loss.pop_back();
  EXPECT_THROW(tree.validate(), std::invalid_argument);
}

TEST(TreeParams, ValidateRejectsABadEdgeLossProcess) {
  analytic::TreeParams tree =
      analytic::TreeParams::balanced(MultiHopParams{}, 2, 2);
  tree.set_edge_bursty(3, 8.0);
  tree.validate();
  tree.loss_process[3].p_bg = 1.5;  // not a probability
  EXPECT_THROW(tree.validate(), std::invalid_argument);
  tree.set_edge_bursty(3, 8.0);
  tree.loss_process.pop_back();  // one entry short
  EXPECT_THROW(tree.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------- run_tree --

TEST(TreeRun, DepthOneFanoutOneIsBitIdenticalToSingleHopPath) {
  // The smallest tree -- one sender, one receiver -- built as a balanced
  // tree must reproduce the single-hop path (the 1-hop chain) exactly.
  MultiHopParams base;
  base.hops = 1;
  protocols::TreeSimOptions options;
  options.seed = 9;
  options.duration = 2000.0;
  const analytic::TreeParams path = analytic::TreeParams::chain(base);
  const analytic::TreeParams tiny =
      analytic::TreeParams::balanced(base, 1, 1);
  EXPECT_EQ(tiny.tree, path.tree);
  for (const ProtocolKind kind : kMultiHopProtocols) {
    const protocols::TreeSimResult chain =
        protocols::run_tree(kind, path, options);
    const protocols::TreeSimResult tree =
        protocols::run_tree(kind, tiny, options);
    EXPECT_EQ(tree.metrics.inconsistency, chain.metrics.inconsistency)
        << to_string(kind);
    EXPECT_EQ(tree.messages, chain.messages) << to_string(kind);
    EXPECT_EQ(tree.relay_timeouts, chain.relay_timeouts) << to_string(kind);
  }
}

TEST(TreeRun, LosslessTreeInstallsEveryReceiver) {
  MultiHopParams base;
  base.loss = 0.0;
  const analytic::TreeParams tree = analytic::TreeParams::balanced(base, 3, 2);
  protocols::TreeSimOptions options;
  options.duration = 1000.0;
  for (const ProtocolKind kind : kMultiHopProtocols) {
    const protocols::TreeSimResult result =
        protocols::run_tree(kind, tree, options);
    // Lossless channels: only propagation delay after each update keeps
    // nodes briefly inconsistent.
    EXPECT_LT(result.metrics.inconsistency, 0.01) << to_string(kind);
    EXPECT_GT(result.messages, 0u) << to_string(kind);
    EXPECT_EQ(result.relay_timeouts, 0u) << to_string(kind);
  }
}

TEST(TreeRun, DeeperPathsAreWorseInModelAndSim) {
  MultiHopParams base;
  base.loss = 0.05;
  const analytic::TreeParams shallow =
      analytic::TreeParams::balanced(base, 2, 1);
  const analytic::TreeParams deep = analytic::TreeParams::balanced(base, 2, 3);
  EXPECT_LT(analytic::worst_tree_path(ProtocolKind::kSS, shallow)
                .metrics.inconsistency,
            analytic::worst_tree_path(ProtocolKind::kSS, deep)
                .metrics.inconsistency);
  protocols::TreeSimOptions options;
  options.duration = 5000.0;
  const protocols::TreeSimResult sim_shallow =
      protocols::run_tree(ProtocolKind::kSS, shallow, options);
  const protocols::TreeSimResult sim_deep =
      protocols::run_tree(ProtocolKind::kSS, deep, options);
  EXPECT_LT(sim_shallow.metrics.inconsistency, sim_deep.metrics.inconsistency);
}

TEST(TreeRun, AcceptsAllFiveProtocolsAndRejectsBadOptions) {
  const analytic::TreeParams tree =
      analytic::TreeParams::balanced(MultiHopParams{}, 2, 1);
  protocols::TreeSimOptions options;
  options.duration = 200.0;
  for (const ProtocolKind kind : kAllProtocols) {
    const protocols::TreeSimResult result =
        protocols::run_tree(kind, tree, options);
    EXPECT_GT(result.messages, 0u) << to_string(kind);
  }
  options.duration = 0.0;
  EXPECT_THROW((void)protocols::run_tree(ProtocolKind::kSS, tree, options),
               std::invalid_argument);
  EXPECT_THROW((void)protocols::run_tree_replicated(ProtocolKind::kSS, tree,
                                                    protocols::TreeSimOptions{},
                                                    0),
               std::invalid_argument);
}

TEST(TreeRun, ReplicatedEstimatesCoverTheMean) {
  const analytic::TreeParams tree =
      analytic::TreeParams::balanced(MultiHopParams{}, 2, 2);
  protocols::TreeSimOptions options;
  options.duration = 2000.0;
  const protocols::TreeReplicatedResult result =
      protocols::run_tree_replicated(ProtocolKind::kSS, tree, options, 4);
  EXPECT_EQ(result.replications, 4u);
  EXPECT_GT(result.message_rate.mean, 0.0);
  EXPECT_GE(result.worst_leaf_inconsistency.mean,
            result.inconsistency.mean * 0.0);  // defined and non-negative
}

// ---------------------------------------------------- teardown / pool churn --

/// Builds a topology, runs it mid-refresh, stops an interior relay's whole
/// session, drains, and verifies no event leaks and no pool growth across
/// many cycles -- the satellite teardown contract.
void run_stop_churn(ProtocolKind kind) {
  sim::Simulator sim;
  sim::Rng channel_rng(33, 0);
  sim::Rng node_rng(33, 1);
  const MechanismSet mech = mechanisms(kind);
  protocols::TimerSettings timers;  // deterministic: cycles are identical
  const TreeSpec spec = TreeSpec::balanced(2, 2);
  const std::vector<sim::LossConfig> loss(spec.edges(),
                                          sim::LossConfig::iid(0.0));
  const std::vector<sim::DelayConfig> delay(
      spec.edges(),
      sim::DelayConfig{sim::DelayModel::kDeterministic, 0.03, 1.5});

  std::size_t flat_capacity = 0;
  for (int cycle = 0; cycle < 25; ++cycle) {
    auto topology = std::make_unique<protocols::Topology>(
        sim, channel_rng, node_rng, mech, timers, spec, loss, delay, nullptr);
    topology->sender().start(cycle + 1);
    // Mid-refresh, mid-timeout: refresh timers (R = 5) armed for t+5,
    // soft-state timeouts (T = 15) pending, and for HS a teardown flood in
    // flight from an interior relay.
    sim.run_until(sim.now() + 7.3);
    if (mech.external_failure_detector) {
      topology->relay(0).external_removal_signal();  // interior node 1
      sim.run_until(sim.now() + 0.01);               // flood partly in flight
    }
    topology->stop();
    // stop() cancelled every timer; only already-scheduled channel
    // deliveries may remain, and they must drain without resurrecting any
    // timer loop (the sender is stopped, so nothing refreshes).
    sim.run();
    EXPECT_TRUE(sim.idle()) << to_string(kind) << " cycle " << cycle;
    EXPECT_EQ(sim.pending_events(), 0u);
    topology.reset();
    if (cycle == 0) {
      flat_capacity = sim.slot_capacity();
    } else {
      EXPECT_EQ(sim.slot_capacity(), flat_capacity)
          << to_string(kind) << ": event pool grew at cycle " << cycle;
    }
  }
}

TEST(TopologyTeardown, StopMidRefreshLeavesNoDanglingEvents) {
  for (const ProtocolKind kind : kMultiHopProtocols) {
    run_stop_churn(kind);
  }
}

TEST(TopologyTeardown, QuiescentWaitsForDeliveriesAndTimers) {
  // Topology::quiescent() is what lets the session farm reuse a finished
  // tree's arena slot, so each of its terms must hold it back on its own:
  // a message on the wire with no timer armed, and a timer armed with
  // every channel drained.
  for (const ProtocolKind kind : kMultiHopProtocols) {
    SCOPED_TRACE(to_string(kind));
    sim::Simulator sim;
    sim::Rng channel_rng(33, 0);
    sim::Rng node_rng(33, 1);
    const MechanismSet mech = mechanisms(kind);
    protocols::TimerSettings timers;
    const TreeSpec spec = TreeSpec::balanced(2, 2);
    const std::vector<sim::LossConfig> loss(spec.edges(),
                                            sim::LossConfig::iid(0.0));
    const std::vector<sim::DelayConfig> delay(
        spec.edges(),
        sim::DelayConfig{sim::DelayModel::kDeterministic, 0.03, 1.5});
    protocols::Topology topology(sim, channel_rng, node_rng, mech, timers,
                                 spec, loss, delay, nullptr);
    EXPECT_TRUE(topology.quiescent());  // nothing sent, nothing armed

    topology.sender().start(1);
    EXPECT_FALSE(topology.quiescent());
    topology.stop();
    // stop() disarmed every timer, but the root's triggers are in flight.
    EXPECT_FALSE(topology.sender().armed());
    for (std::size_t i = 0; i < topology.relays(); ++i) {
      EXPECT_FALSE(topology.relay(i).armed());
    }
    EXPECT_FALSE(topology.quiescent());

    // The stopped relays install the stragglers and forward them; once the
    // last has landed (two hops of 30 ms), soft state still has its
    // timeouts armed on drained channels.
    sim.run_until(1.0);
    if (mech.soft_timeout) {
      EXPECT_FALSE(topology.quiescent());
    }
    sim.run();
    EXPECT_TRUE(sim.idle());
    EXPECT_TRUE(topology.quiescent());
  }
}

TEST(TopologyTeardown, QuiescentWaitsForEveryPerEdgeRetransmission) {
  // Each edge's reliable slot lives in the topology's per-edge array, and
  // quiescent() must see every one of them.  Under HS nothing else stays
  // armed once the trigger flood is acknowledged, so black-holing one edge
  // leaves exactly its parent's retransmission timer pending, with every
  // channel drained (a lost message is drained the moment it is sent).
  const TreeSpec spec = TreeSpec::balanced(2, 2);
  for (std::size_t lossy = 0; lossy < spec.edges(); ++lossy) {
    SCOPED_TRACE("black-holed edge " + std::to_string(lossy));
    sim::Simulator sim;
    sim::Rng channel_rng(34, 0);
    sim::Rng node_rng(34, 1);
    std::vector<sim::LossConfig> loss(spec.edges(), sim::LossConfig::iid(0.0));
    loss[lossy] = sim::LossConfig::iid(1.0);
    const std::vector<sim::DelayConfig> delay(
        spec.edges(),
        sim::DelayConfig{sim::DelayModel::kDeterministic, 0.03, 1.5});
    protocols::Topology topology(sim, channel_rng, node_rng,
                                 mechanisms(ProtocolKind::kHS),
                                 protocols::TimerSettings{}, spec, loss, delay,
                                 nullptr);
    topology.sender().start(1);
    sim.run_until(1.0);
    const std::size_t parent = spec.parent[lossy];
    EXPECT_TRUE(parent == 0 ? topology.sender().armed()
                            : topology.relay(parent - 1).armed());
    EXPECT_FALSE(topology.quiescent());
    topology.stop();
    EXPECT_TRUE(topology.quiescent());
  }
}

// ------------------------------------------------------- tree session farm --

exp::SessionFarmOptions small_tree_farm(std::size_t sessions) {
  exp::SessionFarmOptions options;
  options.seed = 21;
  options.sessions = sessions;
  options.arrival_rate = static_cast<double>(sessions) / 15.0;
  options.session_lifetime = 25.0;
  options.threads = 1;
  return options;
}

TEST(TreeSessionFarm, RunsAndTearsDownEveryProtocol) {
  const analytic::TreeParams tree =
      analytic::TreeParams::balanced(MultiHopParams{}, 2, 2);
  for (const ProtocolKind kind : kMultiHopProtocols) {
    const exp::SessionFarmResult result =
        exp::run_session_farm(kind, tree, small_tree_farm(60));
    EXPECT_EQ(result.sessions, 60u) << to_string(kind);
    EXPECT_GT(result.messages, 0u) << to_string(kind);
    EXPECT_GE(result.summary.mean.inconsistency, 0.0) << to_string(kind);
    EXPECT_LT(result.summary.mean.inconsistency, 0.5) << to_string(kind);
  }
}

TEST(TreeSessionFarm, BitIdenticalAcrossShardSizesAndThreads) {
  const analytic::TreeParams tree =
      analytic::TreeParams::balanced(MultiHopParams{}, 2, 2);
  exp::SessionFarmOptions base = small_tree_farm(90);
  base.shard_size = 90;
  const exp::SessionFarmResult one_shard =
      exp::run_session_farm(ProtocolKind::kSSRT, tree, base);
  exp::SessionFarmOptions sharded = base;
  sharded.shard_size = 11;
  sharded.threads = 4;
  const exp::SessionFarmResult many_shards =
      exp::run_session_farm(ProtocolKind::kSSRT, tree, sharded);
  EXPECT_EQ(one_shard.summary.mean.inconsistency,
            many_shards.summary.mean.inconsistency);
  EXPECT_EQ(one_shard.summary.inconsistency.half_width,
            many_shards.summary.inconsistency.half_width);
  EXPECT_EQ(one_shard.summary.mean.message_rate,
            many_shards.summary.mean.message_rate);
  EXPECT_EQ(one_shard.messages, many_shards.messages);
  EXPECT_EQ(one_shard.receiver_timeouts, many_shards.receiver_timeouts);
}

TEST(TreeSessionFarm, AcceptsAllFiveProtocols) {
  const analytic::TreeParams tree =
      analytic::TreeParams::balanced(MultiHopParams{}, 2, 1);
  for (const ProtocolKind kind : kAllProtocols) {
    const exp::SessionFarmResult result =
        exp::run_session_farm(kind, tree, small_tree_farm(6));
    EXPECT_EQ(result.sessions, 6u) << to_string(kind);
    EXPECT_GT(result.messages, 0u) << to_string(kind);
  }
}

}  // namespace
}  // namespace sigcomp
