#include "protocols/tree_run.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng_streams.hpp"
#include "protocols/topology.hpp"
#include "protocols/tree_session.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace sigcomp::protocols {

TreeSimResult run_tree(ProtocolKind kind, const analytic::TreeParams& params,
                       const TreeSimOptions& options) {
  if (options.duration <= 0.0) {
    throw std::invalid_argument("run_tree: duration must be > 0");
  }
  params.validate();
  if (!supports_multi_hop(kind)) {
    throw std::invalid_argument("run_tree: unsupported protocol " +
                                std::string(to_string(kind)));
  }
  options.scenario.validate();
  const TreeShape shape =
      TreeShape::of(params, options.delay_model, options.delay_shape);
  sim::Simulator sim(options.event_queue);
  TreeSessionRngs rngs{sim::Rng(options.seed, rng::kTreeChannel),
                       sim::Rng(options.seed, rng::kTreeNodes),
                       sim::Rng(options.seed, rng::kTreeLifecycle),
                       sim::Rng(options.seed, rng::kTreeFailure),
                       sim::Rng(options.seed, rng::kTreeMembership),
                       sim::Rng(options.seed, rng::kTreeScenarioArrival),
                       sim::Rng(options.seed, rng::kTreeScenarioFailure)};

  // Consistency monitors, resampled on every state change: per relay, over
  // all relays, and per leaf over the relays on its root-to-leaf path
  // (edge e's child endpoint is relay e, so those are the path's edges).
  std::vector<sim::TimeWeightedValue> nodes(params.edges());
  sim::TimeWeightedValue any;
  std::vector<std::vector<std::size_t>> leaf_paths;
  leaf_paths.reserve(params.tree.leaf_count());
  for (const std::size_t leaf : params.tree.leaves()) {
    leaf_paths.push_back(params.tree.path_edges(leaf));
  }
  std::vector<sim::TimeWeightedValue> paths(leaf_paths.size());
  std::vector<char> node_ok(params.edges(), 0);  // no allocation per change
  // The core calls on_change, which reads the core: build the callback
  // first, then the core in place.  Nothing calls it before start().
  std::optional<TreeSessionCore> core;
  const auto on_change = [&] {
    const bool all_ok = core->on_state_change(node_ok);
    const double now = sim.now();
    for (std::size_t i = 0; i < node_ok.size(); ++i) {
      nodes[i].set(now, node_ok[i] != 0 ? 0.0 : 1.0);
    }
    any.set(now, all_ok ? 0.0 : 1.0);
    for (std::size_t p = 0; p < leaf_paths.size(); ++p) {
      bool path_ok = true;
      for (const std::size_t relay : leaf_paths[p]) {
        path_ok = path_ok && node_ok[relay] != 0;
      }
      paths[p].set(now, path_ok ? 0.0 : 1.0);
    }
  };
  core.emplace(sim, kind, params, shape,
               TimerSettings{options.timer_dist, params.refresh_timer,
                             params.timeout_timer, params.retrans_timer},
               options.churn, options.scenario, rngs, on_change,
               options.trace);
  core->start();
  sim.run_until(options.duration);
  core->stop();

  const auto means = [&](const std::vector<sim::TimeWeightedValue>& of) {
    std::vector<double> values;
    values.reserve(of.size());
    for (const sim::TimeWeightedValue& m : of) {
      values.push_back(m.mean(options.duration));
    }
    return values;
  };
  TreeSimResult out;
  out.duration = options.duration;
  out.messages = core->topology().messages_sent();
  out.relay_timeouts = core->topology().relay_timeouts();
  out.node_inconsistency = means(nodes);
  out.leaf_path_inconsistency = means(paths);
  out.metrics.inconsistency = any.mean(options.duration);
  out.metrics.raw_message_rate =
      static_cast<double>(out.messages) / options.duration;
  out.metrics.message_rate = out.metrics.raw_message_rate;
  if (const MembershipController* membership = core->membership()) {
    out.churn = membership->report();
  }
  if (const RelayFailureProcess* failure = core->failure()) {
    out.relay_crashes = failure->crashes();
    out.relay_recoveries = failure->recoveries();
  }
  return out;
}

TreeReplicatedResult run_tree_replicated(ProtocolKind kind,
                                         const analytic::TreeParams& params,
                                         const TreeSimOptions& options,
                                         std::size_t replications) {
  if (replications == 0) {
    throw std::invalid_argument("run_tree_replicated: need >= 1 replication");
  }
  sim::RunningStats inconsistency;
  sim::RunningStats message_rate;
  sim::RunningStats worst_leaf;
  for (std::size_t r = 0; r < replications; ++r) {
    TreeSimOptions rep = options;
    rep.seed = options.seed + r;
    const TreeSimResult result = run_tree(kind, params, rep);
    inconsistency.add(result.metrics.inconsistency);
    message_rate.add(result.metrics.raw_message_rate);
    worst_leaf.add(*std::max_element(result.leaf_path_inconsistency.begin(),
                                     result.leaf_path_inconsistency.end()));
  }
  TreeReplicatedResult out;
  out.inconsistency = sim::confidence_interval_95(inconsistency);
  out.message_rate = sim::confidence_interval_95(message_rate);
  out.worst_leaf_inconsistency = sim::confidence_interval_95(worst_leaf);
  out.replications = replications;
  return out;
}

}  // namespace sigcomp::protocols
