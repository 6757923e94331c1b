// Dynamic leaf membership (IGMP-style churn): graft/prune semantics on the
// wired topology, per-protocol removal behavior at the prune point, the
// churn harness metrics (setup latency, orphan window), determinism across
// replays / thread counts / shard sizes, and mid-churn teardown hygiene.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "analytic/tree_paths.hpp"
#include "core/params.hpp"
#include "core/protocol.hpp"
#include "core/topology.hpp"
#include "exp/session_farm.hpp"
#include "protocols/membership.hpp"
#include "protocols/scenario.hpp"
#include "protocols/topology.hpp"
#include "protocols/tree_run.hpp"
#include "sim/channel_process.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace sigcomp {
namespace {

/// A lossless, deterministic wired tree: membership transitions become
/// exactly reproducible so per-protocol removal semantics can be asserted
/// sharply.
struct Wired {
  sim::Simulator sim;
  sim::Rng channel_rng{7, 0};
  sim::Rng node_rng{7, 1};
  std::unique_ptr<protocols::Topology> topology;

  explicit Wired(ProtocolKind kind, const TreeSpec& spec,
                 double delay = 0.01) {
    const std::vector<sim::LossConfig> loss(spec.edges(),
                                            sim::LossConfig::iid(0.0));
    const std::vector<sim::DelayConfig> delays(
        spec.edges(),
        sim::DelayConfig{sim::DelayModel::kDeterministic, delay, 1.5});
    protocols::TimerSettings timers;  // R=5, T=15, deterministic
    topology = std::make_unique<protocols::Topology>(
        sim, channel_rng, node_rng, mechanisms(kind), timers, spec, loss,
        delays, nullptr);
  }
};

// ------------------------------------------------- topology bookkeeping --

TEST(TopologyMembership, JoinLeaveBookkeeping) {
  Wired w(ProtocolKind::kSS, TreeSpec::balanced(2, 2));  // leaves 3..6
  protocols::Topology& t = *w.topology;
  EXPECT_EQ(t.active_leaf_count(), 4u);
  for (std::size_t node = 0; node < t.spec().nodes(); ++node) {
    EXPECT_TRUE(t.node_required(node)) << node;
  }
  EXPECT_THROW((void)t.leaf_active(1), std::invalid_argument);  // interior
  EXPECT_THROW((void)t.join(3), std::invalid_argument);  // already joined

  // Leaf 3 departs: only its own edge dies (node 1 still feeds leaf 4).
  const protocols::Topology::PruneResult first = t.leave(3);
  EXPECT_EQ(first.pruned_edges, (std::vector<std::size_t>{2}));
  EXPECT_EQ(t.active_leaf_count(), 3u);
  EXPECT_FALSE(t.leaf_active(3));
  EXPECT_FALSE(t.node_required(3));
  EXPECT_TRUE(t.node_required(1));
  EXPECT_THROW((void)t.leave(3), std::invalid_argument);  // already gone

  // Leaf 4 departs too: node 1's whole subtree is dead, so the prune point
  // climbs to the root's edge 0.
  const protocols::Topology::PruneResult second = t.leave(4);
  EXPECT_EQ(second.pruned_edges, (std::vector<std::size_t>{0, 3}));
  EXPECT_EQ(second.prune_edge(), 0u);
  EXPECT_FALSE(t.node_required(1));

  // Rejoining leaf 3 reactivates exactly the dead path edges.
  const protocols::Topology::GraftResult graft = t.join(3);
  EXPECT_EQ(graft.activated_edges, (std::vector<std::size_t>{0, 2}));
  EXPECT_TRUE(t.node_required(1));
  EXPECT_FALSE(t.node_required(4));
}

// ------------------------------------- removal semantics at prune points --

/// Leaves leaf 3 of a running fanout-2 depth-2 tree and reports how long
/// its relay keeps the orphaned copy.
double orphan_duration(ProtocolKind kind) {
  Wired w(kind, TreeSpec::balanced(2, 2));
  protocols::Topology& t = *w.topology;
  t.sender().start(1);
  w.sim.run_until(1.0);  // everything installed (lossless)
  EXPECT_TRUE(t.relay(2).value().has_value()) << to_string(kind);
  const double left_at = w.sim.now();
  t.leave(3);
  while (t.relay(2).value().has_value() && w.sim.step()) {
  }
  EXPECT_FALSE(t.relay(2).value().has_value()) << to_string(kind);
  return w.sim.now() - left_at;
}

TEST(Membership, PruneUsesEachProtocolsRemovalSemantics) {
  // Timeout prune (SS, SS+RT): the orphan lives until the soft-state
  // timeout (T = 15) fires -- refreshes stopped at the prune.
  EXPECT_GT(orphan_duration(ProtocolKind::kSS), 5.0);
  EXPECT_GT(orphan_duration(ProtocolKind::kSSRT), 5.0);
  // Explicit removal (best-effort or reliable) and the hard-state teardown
  // clear the branch in one propagation delay.
  EXPECT_LT(orphan_duration(ProtocolKind::kSSER), 1.0);
  EXPECT_LT(orphan_duration(ProtocolKind::kSSRTR), 1.0);
  EXPECT_LT(orphan_duration(ProtocolKind::kHS), 1.0);
}

TEST(Membership, GraftReinstallsDownThePathOnly) {
  // Deep chain below the root: 0 -> 1 -> 2 (leaf 2).  After the leaf
  // departs and its state is explicitly removed, a rejoin must re-install
  // from the deepest cached copy without waiting for the next refresh.
  Wired w(ProtocolKind::kSSER, TreeSpec::chain(2));
  protocols::Topology& t = *w.topology;
  t.sender().start(42);
  w.sim.run_until(1.0);
  t.leave(2);
  w.sim.run_until(2.0);  // removal delivered; the whole chain is clean
  // The chain's only leaf left, so the prune point is the root's edge and
  // the removal swept both relays.
  ASSERT_FALSE(t.relay(0).value().has_value());
  ASSERT_FALSE(t.relay(1).value().has_value());
  const protocols::Topology::GraftResult graft = t.join(2);
  EXPECT_EQ(graft.activated_edges.size(), 2u);
  w.sim.run_until(2.5);  // two propagation delays << refresh interval (5 s)
  EXPECT_TRUE(t.relay(1).value().has_value());
  EXPECT_EQ(t.relay(1).value(), t.sender().value());
  EXPECT_EQ(t.relay(0).value(), t.sender().value());
}

TEST(Membership, SenderRemoveTearsDownExplicitRemovalTrees) {
  for (const ProtocolKind kind :
       {ProtocolKind::kSSER, ProtocolKind::kSSRTR, ProtocolKind::kHS}) {
    Wired w(kind, TreeSpec::balanced(2, 2));
    protocols::Topology& t = *w.topology;
    t.sender().start(1);
    w.sim.run_until(1.0);
    t.sender().remove();
    EXPECT_FALSE(t.sender().value().has_value()) << to_string(kind);
    w.sim.run_until(2.0);
    for (std::size_t i = 0; i < t.relays(); ++i) {
      EXPECT_FALSE(t.relay(i).value().has_value())
          << to_string(kind) << " relay " << i;
    }
  }
}

// ------------------------------------------------------ churn harness ----

analytic::TreeParams churn_tree(std::size_t fanout, std::size_t depth) {
  MultiHopParams base;
  base.loss = 0.01;
  base.delay = 0.01;
  base.update_rate = 1.0 / 60.0;
  return analytic::TreeParams::balanced(base, fanout, depth);
}

protocols::TreeSimOptions churn_options(double lifetime, double rejoin) {
  protocols::TreeSimOptions options;
  options.seed = 404;
  options.duration = 4000.0;
  options.churn.leaf_lifetime = lifetime;
  options.churn.rejoin_rate = rejoin;
  return options;
}

TEST(ChurnRun, AllFiveProtocolsChurnOnAFanoutTwoTree) {
  for (const ProtocolKind kind : kAllProtocols) {
    const protocols::TreeSimResult result = protocols::run_tree(
        kind, churn_tree(2, 2), churn_options(40.0, 1.0 / 20.0));
    EXPECT_GT(result.churn.leaves, 10u) << to_string(kind);
    EXPECT_GT(result.churn.joins, 10u) << to_string(kind);
    EXPECT_GT(result.churn.completed_joins, 0u) << to_string(kind);
    EXPECT_GT(result.churn.resolved_orphans, 0u) << to_string(kind);
    EXPECT_GE(result.churn.mean_setup_latency(), 0.0) << to_string(kind);
    EXPECT_GE(result.churn.orphan_window_max,
              result.churn.mean_orphan_window())
        << to_string(kind);
  }
}

TEST(ChurnRun, ExplicitLeaveShrinksTheOrphanWindow) {
  // The IGMPv1 -> v2 story: timeout-only leave (SS) keeps forwarding to
  // departed members for ~T; an explicit Leave (SS+ER) prunes in one
  // propagation delay.  Reliable removal keeps the ordering.
  const auto window = [&](ProtocolKind kind) {
    return protocols::run_tree(kind, churn_tree(2, 2),
                               churn_options(40.0, 1.0 / 20.0))
        .churn.mean_orphan_window();
  };
  const double ss = window(ProtocolKind::kSS);
  const double sser = window(ProtocolKind::kSSER);
  const double ssrtr = window(ProtocolKind::kSSRTR);
  EXPECT_GT(ss, 5.0);      // dominated by the T = 15 timeout
  EXPECT_LT(sser, 1.0);    // one ~10 ms propagation delay per hop
  EXPECT_LT(ssrtr, 1.0);
  EXPECT_GT(ss, 5.0 * sser);
}

TEST(ChurnRun, ReportsAreDeterministicAcrossReplays) {
  const protocols::TreeSimOptions options = churn_options(30.0, 1.0 / 15.0);
  const protocols::TreeSimResult a =
      protocols::run_tree(ProtocolKind::kSSER, churn_tree(2, 2), options);
  const protocols::TreeSimResult b =
      protocols::run_tree(ProtocolKind::kSSER, churn_tree(2, 2), options);
  EXPECT_EQ(a.churn, b.churn);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.metrics.inconsistency, b.metrics.inconsistency);
}

TEST(ChurnRun, ZeroChurnMatchesTheStaticTreeBitwise) {
  // churn.leaf_lifetime == 0 must leave the run untouched -- the membership
  // stream exists but is never drawn from.
  const analytic::TreeParams tree = churn_tree(2, 2);
  protocols::TreeSimOptions options;
  options.seed = 11;
  options.duration = 2000.0;
  const protocols::TreeSimResult plain =
      protocols::run_tree(ProtocolKind::kSSRT, tree, options);
  options.churn.rejoin_rate = 1.0;  // enabled only by leaf_lifetime > 0
  const protocols::TreeSimResult zero =
      protocols::run_tree(ProtocolKind::kSSRT, tree, options);
  EXPECT_EQ(plain.messages, zero.messages);
  EXPECT_EQ(plain.metrics.inconsistency, zero.metrics.inconsistency);
  EXPECT_EQ(zero.churn, protocols::ChurnReport{});
}

TEST(ChurnRun, ChainTailChurnsLikeAOneLeafTree) {
  // The degenerate tree has one leaf (the chain tail); churn prunes and
  // regrafts the entire chain at the root.
  MultiHopParams base;
  base.loss = 0.01;
  base.hops = 3;
  const protocols::TreeSimResult result =
      protocols::run_tree(ProtocolKind::kSSRTR, analytic::TreeParams::chain(base),
                          churn_options(50.0, 1.0 / 25.0));
  EXPECT_GT(result.churn.leaves, 5u);
  EXPECT_GT(result.churn.completed_joins, 0u);
}

// ----------------------------------------------------------- churn farm --

TEST(ChurnFarm, BitIdenticalAcrossShardSizesAndThreads) {
  exp::SessionFarmOptions base;
  base.seed = 77;
  base.sessions = 48;
  base.arrival_rate = 4.0;
  base.session_lifetime = 90.0;
  base.leaf_churn.leaf_lifetime = 25.0;
  base.leaf_churn.rejoin_rate = 1.0 / 10.0;
  base.shard_size = 48;
  base.threads = 1;
  const analytic::TreeParams tree = churn_tree(2, 2);
  const exp::SessionFarmResult one =
      exp::run_session_farm(ProtocolKind::kSSER, tree, base);
  EXPECT_GT(one.churn.leaves, 0u);
  EXPECT_GT(one.churn.completed_joins, 0u);
  for (const std::size_t shard_size : {7u, 16u}) {
    for (const std::size_t threads : {2u, 8u}) {
      exp::SessionFarmOptions sharded = base;
      sharded.shard_size = shard_size;
      sharded.threads = threads;
      const exp::SessionFarmResult many =
          exp::run_session_farm(ProtocolKind::kSSER, tree, sharded);
      EXPECT_EQ(one.churn, many.churn)
          << "shard " << shard_size << " threads " << threads;
      EXPECT_EQ(one.messages, many.messages);
      EXPECT_EQ(one.summary.mean.inconsistency,
                many.summary.mean.inconsistency);
      EXPECT_EQ(one.receiver_timeouts, many.receiver_timeouts);
    }
  }
}

// ------------------------------------------------------ teardown hygiene --

TEST(ChurnTeardown, StopMidChurnLeavesNoDanglingEventsAndAFlatPool) {
  sim::Simulator sim;
  sim::Rng channel_rng(55, 0);
  sim::Rng node_rng(55, 1);
  sim::Rng membership_rng(55, 2);
  const TreeSpec spec = TreeSpec::balanced(2, 2);
  const std::vector<sim::LossConfig> loss(spec.edges(),
                                          sim::LossConfig::iid(0.0));
  const std::vector<sim::DelayConfig> delay(
      spec.edges(),
      sim::DelayConfig{sim::DelayModel::kDeterministic, 0.02, 1.5});
  protocols::ChurnOptions churn;
  churn.leaf_lifetime = 3.0;
  churn.rejoin_rate = 1.0;

  for (const ProtocolKind kind : kAllProtocols) {
    std::size_t flat_capacity = 0;
    for (int cycle = 0; cycle < 25; ++cycle) {
      protocols::TimerSettings timers;
      auto topology = std::make_unique<protocols::Topology>(
          sim, channel_rng, node_rng, mechanisms(kind), timers, spec, loss,
          delay, nullptr);
      auto controller = std::make_unique<protocols::MembershipController>(
          sim, *topology, membership_rng, churn, nullptr);
      topology->sender().start(cycle + 1);
      controller->start();
      // Mid-churn: leaves have left and rejoined, prunes/grafts and (for
      // the ER protocols) removals are in flight.
      sim.run_until(sim.now() + 9.7);
      controller->finish();
      topology->stop();
      // Leftover channel deliveries and dead membership timers must drain
      // without resurrecting anything.
      sim.run();
      EXPECT_TRUE(sim.idle()) << to_string(kind) << " cycle " << cycle;
      EXPECT_EQ(sim.pending_events(), 0u) << to_string(kind);
      controller.reset();
      topology.reset();
      // Churn draws differ per cycle, so let the pool reach its working
      // set before pinning it flat.
      if (cycle == 4) {
        flat_capacity = sim.slot_capacity();
      } else if (cycle > 4) {
        EXPECT_EQ(sim.slot_capacity(), flat_capacity)
            << to_string(kind) << ": event pool grew at cycle " << cycle;
      }
    }
  }
}

TEST(ChurnTeardown, FinishedControllerOutlivesNoneOfItsTimers) {
  // finish() defuses every leave, join and burst event the controller
  // still has pending, so its owner may destroy it before they fire -- the
  // session farm recycles finished trees that way.  Shared-risk bursts make
  // it the hard case: a burst-driven leave leaves the leaf's leave timer
  // pending and the rejoin arms another, so a leaf can own several.  A
  // missed one runs into a destroyed controller (ASan: heap-use-after-free).
  sim::Rng membership_rng(57, 2);
  sim::Rng scenario_rng(57, 3);
  protocols::ChurnOptions churn;
  churn.leaf_lifetime = 3.0;
  churn.rejoin_rate = 1.0;
  protocols::ScenarioOptions scenario;
  scenario.shared_risk = protocols::SharedRiskConfig::bursts(0.5);
  scenario.arrival = protocols::ArrivalConfig::flash_crowd(2.0, 2.0, 10.0);
  for (int cycle = 0; cycle < 10; ++cycle) {
    Wired w(ProtocolKind::kSSRT, TreeSpec::balanced(2, 2));
    auto controller = std::make_unique<protocols::MembershipController>(
        w.sim, *w.topology, membership_rng, churn, scenario, &scenario_rng,
        nullptr);
    w.topology->sender().start(1);
    controller->start();
    w.sim.run_until(9.7 + cycle);
    controller->finish();
    w.topology->stop();
    const std::uint64_t leaves = controller->report().leaves;
    controller.reset();
    // Four leaves plus the burst process: at least five timers pending,
    // more once bursts have stranded some.
    EXPECT_GE(w.sim.pending_events(), 5u) << "cycle " << cycle;
    w.sim.run();
    EXPECT_TRUE(w.sim.idle());
    EXPECT_GT(leaves, 0u);
  }
}

}  // namespace
}  // namespace sigcomp
