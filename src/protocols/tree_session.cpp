#include "protocols/tree_session.hpp"

#include <stdexcept>

namespace sigcomp::protocols {

TreeSessionCore::TreeSessionCore(
    sim::Simulator& sim, ProtocolKind kind, const analytic::TreeParams& params,
    const TreeShape& shape, const TimerSettings& timers,
    const ChurnOptions& churn, const ScenarioOptions& scenario,
    TreeSessionRngs& rngs, const std::function<void()>& on_change,
    sim::TraceLog* trace)
    : sim_(sim), params_(params), rngs_(rngs) {
  if (shape.edges() != params.edges()) {
    throw std::invalid_argument(
        "TreeSessionCore: the shape is not the parameters' tree");
  }
  const MechanismSet mech = mechanisms(kind);
  topology_ = std::make_unique<Topology>(sim, rngs.channel, rngs.nodes, mech,
                                         timers, shape, on_change, trace);
  if (owns_membership(churn, scenario)) {
    // Its own streams only: a churn-free run replays the static tree and
    // an unmodulated one the iid-churn trace, bit for bit.
    membership_ = std::make_unique<MembershipController>(
        sim, *topology_, rngs.membership, churn, scenario,
        &rngs.scenario_arrival, on_change);
  }
  if (scenario.failure.enabled()) {
    failure_ = std::make_unique<RelayFailureProcess>(
        sim, *topology_, rngs.scenario_failure, scenario.failure,
        mech.external_failure_detector);
  }
  if (mech.external_failure_detector && params.false_signal_rate > 0.0) {
    false_signal_events_.resize(topology_->relays());
  }
}

void TreeSessionCore::start() {
  topology_->sender().start(++version_);
  schedule_update();
  for (std::size_t i = 0; i < false_signal_events_.size(); ++i) {
    schedule_false_signal(i);
  }
  if (membership_) membership_->start();
  if (failure_) failure_->start();
}

void TreeSessionCore::stop() {
  if (membership_) membership_->finish();
  if (failure_) failure_->stop();
  sim_.cancel_timer(update_event_);
  for (sim::EventId& id : false_signal_events_) sim_.cancel_timer(id);
  false_signal_events_.clear();
}

bool TreeSessionCore::on_state_change(std::span<char> node_ok) {
  if (membership_) membership_->on_state_change();
  const Topology& topology = *topology_;
  bool all_ok = true;
  for (std::size_t i = 0; i < topology.relays(); ++i) {
    // Relay i is tree node i + 1.  Without churn every node is required.
    const bool ok = topology.node_required(i + 1)
                        ? topology.relay(i).value() ==
                              topology.sender().value()
                        : !topology.relay(i).value().has_value();
    if (!node_ok.empty()) node_ok[i] = ok ? 1 : 0;
    all_ok = all_ok && ok;
  }
  return all_ok;
}

void TreeSessionCore::schedule_update() {
  if (params_.update_rate <= 0.0) return;
  update_event_ = sim_.schedule_in(
      rngs_.lifecycle.exponential(1.0 / params_.update_rate), [this] {
        update_event_.reset();
        topology_->sender().update(++version_);
        schedule_update();
      });
}

void TreeSessionCore::schedule_false_signal(std::size_t relay) {
  false_signal_events_[relay] = sim_.schedule_in(
      rngs_.failure.exponential(1.0 / params_.false_signal_rate),
      [this, relay] {
        false_signal_events_[relay].reset();
        topology_->relay(relay).external_removal_signal();
        schedule_false_signal(relay);
      });
}

}  // namespace sigcomp::protocols
