#include "protocols/membership.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace sigcomp::protocols {

void ChurnOptions::validate() const {
  if (!std::isfinite(leaf_lifetime) || !std::isfinite(rejoin_rate)) {
    throw std::invalid_argument("ChurnOptions: values must be finite");
  }
  if (leaf_lifetime < 0.0 || rejoin_rate < 0.0) {
    throw std::invalid_argument("ChurnOptions: values must be >= 0");
  }
}

double ChurnReport::mean_setup_latency() const noexcept {
  return completed_joins == 0
             ? 0.0
             : setup_latency_sum / static_cast<double>(completed_joins);
}

double ChurnReport::mean_orphan_window() const noexcept {
  return resolved_orphans == 0
             ? 0.0
             : orphan_window_sum / static_cast<double>(resolved_orphans);
}

double ChurnReport::mean_orphan_window_bound() const noexcept {
  const std::uint64_t orphans = resolved_orphans + pending_orphans;
  return orphans == 0 ? 0.0
                      : (orphan_window_sum + censored_orphan_window_sum) /
                            static_cast<double>(orphans);
}

void ChurnReport::absorb(const ChurnReport& other) noexcept {
  joins += other.joins;
  leaves += other.leaves;
  completed_joins += other.completed_joins;
  resolved_orphans += other.resolved_orphans;
  setup_latency_sum += other.setup_latency_sum;
  setup_latency_max = std::max(setup_latency_max, other.setup_latency_max);
  orphan_window_sum += other.orphan_window_sum;
  orphan_window_max = std::max(orphan_window_max, other.orphan_window_max);
  pending_joins += other.pending_joins;
  pending_orphans += other.pending_orphans;
  censored_orphan_window_sum += other.censored_orphan_window_sum;
}

MembershipController::MembershipController(sim::Simulator& sim,
                                           Topology& topology, sim::Rng& rng,
                                           const ChurnOptions& options,
                                           std::function<void()> changed)
    : MembershipController(sim, topology, rng, options, ScenarioOptions{},
                           nullptr, std::move(changed)) {}

MembershipController::MembershipController(
    sim::Simulator& sim, Topology& topology, sim::Rng& rng,
    const ChurnOptions& options, const ScenarioOptions& scenario,
    sim::Rng* scenario_rng, std::function<void()> changed)
    : sim_(sim),
      topology_(topology),
      rng_(rng),
      options_(options),
      scenario_(scenario),
      scenario_rng_(scenario_rng),
      arrival_(scenario.arrival, options.rejoin_rate),
      changed_(std::move(changed)) {
  options_.validate();
  scenario_.validate();
  if (scenario_.membership_processes() && scenario_rng_ == nullptr) {
    throw std::invalid_argument(
        "MembershipController: an active scenario needs a scenario rng");
  }
}

template <typename Handler>
void MembershipController::schedule_tracked(double delay, Handler handler) {
  const auto entry = static_cast<std::uint32_t>(
      std::find_if(timers_.begin(), timers_.end(),
                   [](const sim::EventId& id) { return !id; }) -
      timers_.begin());
  if (entry == timers_.size()) timers_.emplace_back();
  timers_[entry] = sim_.schedule_in(delay, [this, entry, handler] {
    timers_[entry].reset();
    handler();
  });
}

void MembershipController::start() {
  // One leave timer per leaf plus the burst process: the usual pending
  // set, so the handle table rarely grows after this.
  timers_.reserve(topology_.spec().leaves().size() + 1);
  if (options_.enabled()) {
    // Leaves in increasing node order: the draw order is part of the
    // determinism contract.
    for (const std::size_t leaf : topology_.spec().leaves()) {
      schedule_leave(leaf);
    }
  }
  if (scenario_.shared_risk.enabled()) schedule_burst();
}

void MembershipController::schedule_leave(std::size_t leaf) {
  // Guarded on enabled() (not just called from enabled paths): with
  // shared-risk bursts driving leaves while iid churn is off,
  // leaf_lifetime is 0 and an unguarded draw would schedule an immediate
  // re-leave forever.
  if (!options_.enabled()) return;
  schedule_tracked(rng_.exponential(options_.leaf_lifetime),
                   [this, leaf] { do_leave(leaf); });
}

void MembershipController::schedule_join(std::size_t leaf) {
  if (scenario_.arrival.modulated()) {
    // Modulated rejoins draw from the dedicated scenario substream, so a
    // modulation-free run never touches it and replays the iid trace.
    const double delay = arrival_.next_delay(sim_.now(), *scenario_rng_);
    if (!std::isfinite(delay)) return;  // no further arrivals possible
    schedule_tracked(delay, [this, leaf] { do_join(leaf); });
    return;
  }
  if (options_.rejoin_rate <= 0.0) return;  // departed for good
  schedule_tracked(rng_.exponential(1.0 / options_.rejoin_rate),
                   [this, leaf] { do_join(leaf); });
}

void MembershipController::schedule_burst() {
  schedule_tracked(
      scenario_rng_->exponential(1.0 / scenario_.shared_risk.burst_rate),
      [this] { do_burst(); });
}

void MembershipController::do_burst() {
  // One shared-risk event: a uniformly drawn relay's whole subtree fails
  // its members at once -- every joined leaf below it leaves, in
  // increasing node order (the deterministic iteration order).
  const std::size_t failed_relay =
      scenario_rng_->uniform_int(topology_.relays());
  for (const std::size_t leaf : topology_.spec().leaves()) {
    if (!topology_.leaf_active(leaf)) continue;
    const std::vector<std::size_t> path = topology_.spec().path_edges(leaf);
    if (std::find(path.begin(), path.end(), failed_relay) == path.end()) {
      continue;
    }
    do_leave(leaf);
  }
  schedule_burst();
}

void MembershipController::do_leave(std::size_t leaf) {
  // A stale leave timer (the leaf already departed in a shared-risk burst)
  // is a no-op; without bursts the strict join/leave alternation keeps one
  // timer per leaf and this guard never fires.
  if (!topology_.leaf_active(leaf)) return;
  const Topology::PruneResult pruned = topology_.leave(leaf);
  ++report_.leaves;
  // A join whose setup never completed is abandoned by the departure.
  pending_joins_.erase(
      std::remove_if(pending_joins_.begin(), pending_joins_.end(),
                     [leaf](const PendingJoin& p) { return p.leaf == leaf; }),
      pending_joins_.end());
  // The orphan window of this leave covers every pruned relay still
  // holding a copy; branches that were already clean resolve instantly.
  Orphan orphan;
  orphan.at = sim_.now();
  for (const std::size_t e : pruned.pruned_edges) {
    if (topology_.relay(e).value()) orphan.relays.push_back(e);
  }
  if (orphan.relays.empty()) {
    ++report_.resolved_orphans;  // window of zero: nothing lingered
  } else {
    orphans_.push_back(std::move(orphan));
  }
  schedule_join(leaf);
  if (changed_) changed_();
}

void MembershipController::do_join(std::size_t leaf) {
  // Defensive mirror of the do_leave guard; the strict alternation keeps
  // at most one join in flight per leaf, so this never fires today.
  if (topology_.leaf_active(leaf)) return;
  const Topology::GraftResult graft = topology_.join(leaf);
  ++report_.joins;
  pending_joins_.push_back(PendingJoin{leaf, sim_.now()});
  // Re-grafted relays are wanted again: their copy stops being orphaned the
  // moment membership returns, resolving the windows that covered them.
  if (!graft.activated_edges.empty() && !orphans_.empty()) {
    for (std::size_t i = orphans_.size(); i-- > 0;) {
      Orphan& orphan = orphans_[i];
      for (const std::size_t e : graft.activated_edges) {
        orphan.relays.erase(
            std::remove(orphan.relays.begin(), orphan.relays.end(), e),
            orphan.relays.end());
      }
      if (orphan.relays.empty()) {
        const double window = sim_.now() - orphan.at;
        ++report_.resolved_orphans;
        report_.orphan_window_sum += window;
        report_.orphan_window_max = std::max(report_.orphan_window_max, window);
        orphans_.erase(orphans_.begin() +
                       static_cast<std::ptrdiff_t>(i));
      }
    }
  }
  schedule_leave(leaf);
  if (changed_) changed_();
}

void MembershipController::on_state_change() {
  if (finished_) return;
  // Setup latency: a pending join completes when its leaf holds the
  // sender's current value.
  const auto sender_value = topology_.sender().value();
  if (sender_value) {
    for (std::size_t i = pending_joins_.size(); i-- > 0;) {
      const PendingJoin& pending = pending_joins_[i];
      if (topology_.relay(pending.leaf - 1).value() == sender_value) {
        const double latency = sim_.now() - pending.at;
        ++report_.completed_joins;
        report_.setup_latency_sum += latency;
        report_.setup_latency_max =
            std::max(report_.setup_latency_max, latency);
        pending_joins_.erase(pending_joins_.begin() +
                             static_cast<std::ptrdiff_t>(i));
      }
    }
  }
  // Orphan windows: a pruned branch resolves when its last lingering relay
  // copy is gone (timeout, removal delivery, or teardown).
  for (std::size_t i = orphans_.size(); i-- > 0;) {
    Orphan& orphan = orphans_[i];
    orphan.relays.erase(
        std::remove_if(orphan.relays.begin(), orphan.relays.end(),
                       [this](std::size_t e) {
                         return !topology_.relay(e).value().has_value();
                       }),
        orphan.relays.end());
    if (orphan.relays.empty()) {
      const double window = sim_.now() - orphan.at;
      ++report_.resolved_orphans;
      report_.orphan_window_sum += window;
      report_.orphan_window_max = std::max(report_.orphan_window_max, window);
      orphans_.erase(orphans_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
}

void MembershipController::finish() {
  if (finished_) return;
  on_state_change();  // final sweep at the horizon
  finished_ = true;
  report_.pending_joins += pending_joins_.size();
  report_.pending_orphans += orphans_.size();
  // Right-censor the still-running orphan windows instead of dropping
  // them: each contributes its elapsed time, a lower bound on its eventual
  // length (see ChurnReport::mean_orphan_window_bound).
  for (const Orphan& orphan : orphans_) {
    report_.censored_orphan_window_sum += sim_.now() - orphan.at;
  }
  pending_joins_.clear();
  orphans_.clear();
  for (sim::EventId& timer : timers_) sim_.defuse(timer);
}

}  // namespace sigcomp::protocols
