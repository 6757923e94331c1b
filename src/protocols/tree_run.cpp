#include "protocols/tree_run.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng_streams.hpp"
#include "protocols/topology.hpp"
#include "sim/channel.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace sigcomp::protocols {

namespace {

/// One replication: builds the Topology, drives updates, false signals,
/// churn and the failure scenario, and samples per-node and per-path
/// consistency on every state change.
class TreeRun {
 public:
  TreeRun(ProtocolKind kind, analytic::TreeParams params,
          const TreeSimOptions& options)
      : params_(std::move(params)),
        options_(options),
        mech_(mechanisms(kind)),
        sim_(options.event_queue),
        rng_channel_(options.seed, rng::kTreeChannel),
        rng_nodes_(options.seed, rng::kTreeNodes),
        rng_lifecycle_(options.seed, rng::kTreeLifecycle),
        rng_failure_(options.seed, rng::kTreeFailure),
        rng_membership_(options.seed, rng::kTreeMembership),
        rng_scenario_arrival_(options.seed, rng::kTreeScenarioArrival),
        rng_scenario_failure_(options.seed, rng::kTreeScenarioFailure) {
    params_.validate();
    if (!supports_multi_hop(kind)) {
      throw std::invalid_argument("run_tree: unsupported protocol " +
                                  std::string(to_string(kind)));
    }
    TimerSettings timers;
    timers.dist = options.timer_dist;
    timers.refresh = params_.refresh_timer;
    timers.timeout = params_.timeout_timer;
    timers.retrans = params_.retrans_timer;

    // Edge e's two directions share the link's loss/delay.
    const std::size_t e_count = params_.edges();
    std::vector<sim::LossConfig> edge_loss;
    std::vector<sim::DelayConfig> edge_delay;
    edge_loss.reserve(e_count);
    edge_delay.reserve(e_count);
    for (std::size_t e = 0; e < e_count; ++e) {
      edge_loss.push_back(params_.edge_loss_config(e));
      edge_delay.push_back(sim::DelayConfig{options.delay_model,
                                            params_.delay[e],
                                            options.delay_shape});
    }
    topology_ = std::make_unique<Topology>(
        sim_, rng_channel_, rng_nodes_, mech_, timers, params_.tree, edge_loss,
        edge_delay, [this] { on_change(); }, options_.trace);
    options_.scenario.validate();
    if (options_.churn.enabled() ||
        options_.scenario.membership_processes()) {
      // The controller feeds membership flips back through on_change() so
      // the monitors resample the instant the required-set moves; its rng
      // is a dedicated substream, so a zero-churn run replays the static
      // tree bit-for-bit.  Scenario modulation (flash crowds, shared-risk
      // bursts) draws from its own substream, so an unmodulated run also
      // replays the iid-churn trace exactly.
      membership_ = std::make_unique<MembershipController>(
          sim_, *topology_, rng_membership_, options_.churn,
          options_.scenario, &rng_scenario_arrival_, [this] { on_change(); });
    }
    if (options_.scenario.failure.enabled()) {
      failure_ = std::make_unique<RelayFailureProcess>(
          sim_, *topology_, rng_scenario_failure_, options_.scenario.failure,
          mech_.external_failure_detector);
    }

    inconsistent_nodes_.assign(e_count, sim::TimeWeightedValue{});
    node_ok_.assign(e_count, 0);
    // Per-leaf path monitors: relay indices (node id - 1) on each root-to-
    // leaf path, resolved once.
    for (const std::size_t leaf : params_.tree.leaves()) {
      const std::vector<std::size_t> path = params_.tree.path_edges(leaf);
      std::vector<std::size_t> relays;
      relays.reserve(path.size());
      for (const std::size_t e : path) {
        relays.push_back(e);  // edge e's child endpoint is relay e
      }
      leaf_paths_.push_back(std::move(relays));
    }
    inconsistent_paths_.assign(leaf_paths_.size(), sim::TimeWeightedValue{});
  }

  TreeSimResult run() {
    topology_->sender().start(++version_);
    schedule_update();
    if (mech_.external_failure_detector && params_.false_signal_rate > 0.0) {
      for (std::size_t i = 0; i < params_.edges(); ++i) {
        schedule_false_signal(i);
      }
    }
    if (membership_) membership_->start();
    if (failure_) failure_->start();
    sim_.run_until(options_.duration);
    if (membership_) membership_->finish();
    if (failure_) failure_->stop();

    TreeSimResult out;
    out.duration = options_.duration;
    out.messages = topology_->messages_sent();
    out.relay_timeouts = topology_->relay_timeouts();
    for (std::size_t i = 0; i < params_.edges(); ++i) {
      out.node_inconsistency.push_back(
          inconsistent_nodes_[i].mean(options_.duration));
    }
    for (std::size_t p = 0; p < leaf_paths_.size(); ++p) {
      out.leaf_path_inconsistency.push_back(
          inconsistent_paths_[p].mean(options_.duration));
    }
    out.metrics.inconsistency = any_inconsistent_.mean(options_.duration);
    out.metrics.raw_message_rate =
        static_cast<double>(out.messages) / options_.duration;
    out.metrics.message_rate = out.metrics.raw_message_rate;
    if (membership_) out.churn = membership_->report();
    if (failure_) {
      out.relay_crashes = failure_->crashes();
      out.relay_recoveries = failure_->recoveries();
    }
    return out;
  }

 private:
  void schedule_update() {
    if (params_.update_rate <= 0.0) return;
    sim_.schedule_in(rng_lifecycle_.exponential(1.0 / params_.update_rate),
                     [this] {
                       topology_->sender().update(++version_);
                       schedule_update();
                     });
  }

  void schedule_false_signal(std::size_t relay) {
    sim_.schedule_in(
        rng_failure_.exponential(1.0 / params_.false_signal_rate),
        [this, relay] {
          topology_->relay(relay).external_removal_signal();
          schedule_false_signal(relay);
        });
  }

  void on_change() {
    if (membership_) membership_->on_state_change();
    // node_ok_ is a member buffer: this callback fires on every state
    // change at every node, so it must not allocate.
    bool all_ok = true;
    for (std::size_t i = 0; i < topology_->relays(); ++i) {
      // A required node (on the path to a joined leaf) must mirror the
      // sender; a detached node must hold nothing.  With churn disabled
      // every node is required, which is the historical definition.
      const bool ok = topology_->node_required(i + 1)
                          ? topology_->relay(i).value() ==
                                topology_->sender().value()
                          : !topology_->relay(i).value().has_value();
      node_ok_[i] = ok ? 1 : 0;
      inconsistent_nodes_[i].set(sim_.now(), ok ? 0.0 : 1.0);
      all_ok = all_ok && ok;
    }
    any_inconsistent_.set(sim_.now(), all_ok ? 0.0 : 1.0);
    for (std::size_t p = 0; p < leaf_paths_.size(); ++p) {
      bool path_ok = true;
      for (const std::size_t relay : leaf_paths_[p]) {
        path_ok = path_ok && node_ok_[relay] != 0;
      }
      inconsistent_paths_[p].set(sim_.now(), path_ok ? 0.0 : 1.0);
    }
  }

  analytic::TreeParams params_;
  TreeSimOptions options_;
  MechanismSet mech_;

  sim::Simulator sim_;
  sim::Rng rng_channel_;
  sim::Rng rng_nodes_;
  sim::Rng rng_lifecycle_;
  sim::Rng rng_failure_;
  sim::Rng rng_membership_;
  sim::Rng rng_scenario_arrival_;
  sim::Rng rng_scenario_failure_;
  std::unique_ptr<Topology> topology_;
  std::unique_ptr<MembershipController> membership_;
  std::unique_ptr<RelayFailureProcess> failure_;

  std::vector<sim::TimeWeightedValue> inconsistent_nodes_;
  std::vector<char> node_ok_;  ///< scratch for on_change (no per-event alloc)
  std::vector<std::vector<std::size_t>> leaf_paths_;  ///< relay ids per leaf
  std::vector<sim::TimeWeightedValue> inconsistent_paths_;
  sim::TimeWeightedValue any_inconsistent_;
  std::int64_t version_ = 0;
};

}  // namespace

TreeSimResult run_tree(ProtocolKind kind, const analytic::TreeParams& params,
                       const TreeSimOptions& options) {
  if (options.duration <= 0.0) {
    throw std::invalid_argument("run_tree: duration must be > 0");
  }
  TreeRun run(kind, params, options);
  return run.run();
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
