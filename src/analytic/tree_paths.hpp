// Per-path analytic composition for tree signaling topologies.
//
// The paper's multi-hop model (Sec. III-B) covers a chain.  On a tree, each
// root-to-leaf path is itself a chain whose per-edge loss/delay come from
// the edges on that path, so the chain model (analytic::MultiHopModel, whose
// hops may differ) composes per path: evaluate_tree_paths builds one
// PathParams per leaf and runs the chain CTMC on it.
// Paths share their upper edges, which the per-path marginal ignores; the
// simulator (protocols/tree_run.hpp) measures the same per-leaf quantity on
// the real shared tree, so model-vs-sim columns stay comparable exactly the
// way the chain figures are.
#pragma once

#include <cstddef>
#include <vector>

#include "analytic/multi_hop.hpp"
#include "core/metrics.hpp"
#include "core/params.hpp"
#include "core/protocol.hpp"
#include "core/topology.hpp"
#include "sim/channel_process.hpp"

namespace sigcomp::analytic {

/// Per-edge channel characteristics of a signaling tree, mirroring
/// PathParams with a TreeSpec in place of the implicit chain.
struct TreeParams {
  TreeSpec tree;              ///< the rooted topology (core/topology.hpp)
  std::vector<double> loss;   ///< per-edge *average* loss probability
  std::vector<double> delay;  ///< per-edge one-way delay
  /// Per-edge loss processes for the simulator.  Empty means every edge
  /// runs iid Bernoulli at loss[e]; otherwise size must equal edges() and
  /// edge e runs loss_process[e] (e.g. one bursty subtree in an otherwise
  /// iid tree).  The analytic model only ever sees the averages in `loss`.
  std::vector<sim::LossConfig> loss_process;
  double update_rate = 1.0 / 60.0;     ///< lambda_u: sender update rate
  double refresh_timer = 5.0;          ///< R
  double timeout_timer = 15.0;         ///< T
  double retrans_timer = 0.120;        ///< Gamma
  /// lambda_e: HS per-relay false external-signal rate (the chain default).
  double false_signal_rate = 0.02 * 0.02 * 0.02 * 0.02;

  /// Builds a balanced `fanout`-ary tree of the given depth (optionally
  /// pruned to exactly `receivers` leaves; see TreeSpec::balanced) whose
  /// every edge carries `base`'s per-hop loss/delay/loss-process and whose
  /// timers and rates come from `base` (base.hops is ignored -- the tree
  /// defines the shape).
  [[nodiscard]] static TreeParams balanced(const MultiHopParams& base,
                                           std::size_t fanout,
                                           std::size_t depth,
                                           std::size_t receivers = 0);

  /// The degenerate fan-out-1 tree: base.hops hops in a single path (edge
  /// i is hop i+1).  An uneven chain sets loss[e]/delay[e] afterwards or
  /// calls set_edge_bursty.
  [[nodiscard]] static TreeParams chain(const MultiHopParams& base);

  /// An arbitrary shape (e.g. a measured topology replayed from a
  /// parent-vector file) whose every edge carries `base`'s per-hop
  /// loss/delay/loss-process; timers and rates come from `base`
  /// (base.hops is ignored -- the spec defines the shape).
  [[nodiscard]] static TreeParams uniform(const MultiHopParams& base,
                                          TreeSpec spec);

  [[nodiscard]] std::size_t edges() const noexcept { return loss.size(); }

  /// The loss process edge e should run in the simulator.
  [[nodiscard]] sim::LossConfig edge_loss_config(std::size_t e) const;

  /// Makes edge e bursty: Gilbert-Elliott with stationary mean loss[e] and
  /// mean burst length `burst_length` messages.  Other edges keep their
  /// current process (iid when none was set).
  void set_edge_bursty(std::size_t e, double burst_length,
                       double loss_bad = 1.0);

  /// The chain-model parameters of the root -> `leaf` path (`leaf` is a
  /// node id; any node works, leaves are the interesting ones).  Throws
  /// std::out_of_range on a bad node and std::invalid_argument on the root
  /// (an empty path has no chain model).
  [[nodiscard]] PathParams path_params(std::size_t leaf) const;

  /// Throws std::invalid_argument on an invalid tree, per-edge vectors or
  /// loss processes that do not match it, or values out of domain.
  void validate() const;
};

/// One root-to-leaf path evaluated through the chain CTMC.
struct TreePathMetrics {
  std::size_t leaf = 0;   ///< node id of the receiver
  std::size_t hops = 0;   ///< path length in edges
  Metrics metrics;        ///< MultiHopModel::metrics() of the path
};

/// Evaluates every root-to-leaf path of the tree through MultiHopModel,
/// in increasing leaf-node order.  `kind` must be a multi-hop protocol
/// (SS, SS+RT, HS).
[[nodiscard]] std::vector<TreePathMetrics> evaluate_tree_paths(
    ProtocolKind kind, const TreeParams& params);

/// The path with the largest model inconsistency (ties: first in leaf
/// order) -- the headline "model" column of the tree experiments.
[[nodiscard]] TreePathMetrics worst_tree_path(ProtocolKind kind,
                                              const TreeParams& params);

}  // namespace sigcomp::analytic
