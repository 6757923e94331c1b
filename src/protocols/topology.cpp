#include "protocols/topology.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace sigcomp::protocols {

Topology::Topology(sim::Simulator& sim, sim::Rng& channel_rng,
                   sim::Rng& node_rng, MechanismSet mech,
                   const TimerSettings& timers, const TreeSpec& spec,
                   const std::vector<sim::LossConfig>& edge_loss,
                   const std::vector<sim::DelayConfig>& edge_delay,
                   std::function<void()> on_change, sim::TraceLog* trace)
    : spec_(spec) {
  spec_.validate();
  const std::size_t e_count = spec_.edges();
  if (e_count == 0) {
    throw std::invalid_argument("Topology: the tree needs at least one edge");
  }
  if (edge_loss.size() != e_count || edge_delay.size() != e_count) {
    throw std::invalid_argument(
        "Topology: need one loss and one delay config per edge");
  }

  // Channels first (nodes keep pointers to them); sinks wired afterwards.
  // Edge order matches the chain builder's hop order, so a fan-out-1 spec
  // produces the identical construction and trace-label sequence.
  for (std::size_t e = 0; e < e_count; ++e) {
    down_.push_back(std::make_unique<MessageChannel>(
        sim, channel_rng, edge_loss[e], edge_delay[e], MessageChannel::Sink{}));
    up_.push_back(std::make_unique<MessageChannel>(
        sim, channel_rng, edge_loss[e], edge_delay[e], MessageChannel::Sink{}));
    if (trace != nullptr) {
      const auto describe = [](const Message& m) {
        return std::string(to_string(m.type));
      };
      down_[e]->set_trace(trace, "dn" + std::to_string(e), describe);
      up_[e]->set_trace(trace, "up" + std::to_string(e), describe);
    }
  }

  // kids[n]: child edges of node n in edge order; child_index_[e]: e's
  // position within its parent's child list (the routing index the parent
  // uses for ACKs and notices arriving on up_[e], and the per-child index
  // graft/prune calls target).
  std::vector<std::vector<std::size_t>> kids(spec_.nodes());
  child_index_.assign(e_count, 0);
  for (std::size_t e = 0; e < e_count; ++e) {
    child_index_[e] = kids[spec_.parent[e]].size();
    kids[spec_.parent[e]].push_back(e);
  }

  // Membership bookkeeping: every leaf starts joined, so active_below_[n]
  // is node n's subtree leaf count.  Children have larger ids than their
  // parent (the TreeSpec invariant), so one reverse pass accumulates.
  leaf_joined_.assign(spec_.nodes(), 0);
  active_below_.assign(spec_.nodes(), 0);
  for (std::size_t n = spec_.nodes(); n-- > 1;) {
    if (spec_.is_leaf(n)) {
      leaf_joined_[n] = 1;
      ++active_below_[n];
      ++active_leaves_;
    }
    active_below_[spec_.parent[n - 1]] += active_below_[n];
  }
  const auto down_channels = [&](std::size_t node) {
    std::vector<MessageChannel*> out;
    out.reserve(kids[node].size());
    for (const std::size_t e : kids[node]) out.push_back(down_[e].get());
    return out;
  };

  sender_ = std::make_unique<TreeSender>(sim, node_rng, mech, timers,
                                         down_channels(0), on_change);
  for (std::size_t e = 0; e < e_count; ++e) {
    relays_.push_back(std::make_unique<TreeRelay>(
        sim, node_rng, mech, timers, up_[e].get(), down_channels(e + 1),
        on_change));
  }

  for (std::size_t e = 0; e < e_count; ++e) {
    down_[e]->set_sink(
        [this, e](const Message& m) { relays_[e]->handle_from_upstream(m); });
    const std::size_t parent = spec_.parent[e];
    const std::size_t index = child_index_[e];
    up_[e]->set_sink([this, parent, index](const Message& m) {
      if (parent == 0) {
        sender_->handle_from_downstream(m, index);
      } else {
        relays_[parent - 1]->handle_from_downstream(m, index);
      }
    });
  }
}

void Topology::graft_edge(std::size_t e) {
  const std::size_t parent = spec_.parent[e];
  if (parent == 0) {
    sender_->graft_child(child_index_[e]);
  } else {
    relays_[parent - 1]->graft_child(child_index_[e]);
  }
}

void Topology::prune_edge_at(std::size_t e) {
  const std::size_t parent = spec_.parent[e];
  if (parent == 0) {
    sender_->prune_child(child_index_[e]);
  } else {
    relays_[parent - 1]->prune_child(child_index_[e]);
  }
}

void Topology::deactivate_edge(std::size_t e) {
  const std::size_t parent = spec_.parent[e];
  if (parent == 0) {
    sender_->deactivate_child(child_index_[e]);
  } else {
    relays_[parent - 1]->deactivate_child(child_index_[e]);
  }
}

bool Topology::leaf_active(std::size_t leaf) const {
  if (leaf == 0 || leaf >= spec_.nodes() || !spec_.is_leaf(leaf)) {
    throw std::invalid_argument("Topology::leaf_active: node " +
                                std::to_string(leaf) + " is not a leaf");
  }
  return leaf_joined_[leaf] != 0;
}

Topology::GraftResult Topology::join(std::size_t leaf) {
  if (leaf_active(leaf)) {
    throw std::invalid_argument("Topology::join: leaf " +
                                std::to_string(leaf) + " is already joined");
  }
  leaf_joined_[leaf] = 1;
  ++active_leaves_;
  GraftResult out;
  for (const std::size_t e : spec_.path_edges(leaf)) {
    if (++active_below_[e + 1] == 1) out.activated_edges.push_back(e);
  }
  // Graft shallow-to-deep: every reactivated edge re-installs from its
  // parent's cached copy where one exists, so the deepest surviving state
  // along the path seeds the branch without waiting for a refresh.
  for (const std::size_t e : out.activated_edges) graft_edge(e);
  return out;
}

Topology::PruneResult Topology::leave(std::size_t leaf) {
  if (!leaf_active(leaf)) {
    throw std::invalid_argument("Topology::leave: leaf " +
                                std::to_string(leaf) + " is not joined");
  }
  leaf_joined_[leaf] = 0;
  --active_leaves_;
  PruneResult out;
  for (const std::size_t e : spec_.path_edges(leaf)) {
    if (--active_below_[e + 1] == 0) out.pruned_edges.push_back(e);
  }
  // The dead edges form the path's tail; deactivate the deeper ones
  // silently first, then signal removal (if the protocol has one) at the
  // prune point -- the removal propagates down the subtree by itself.
  for (std::size_t i = out.pruned_edges.size(); i-- > 1;) {
    deactivate_edge(out.pruned_edges[i]);
  }
  prune_edge_at(out.pruned_edges.front());
  return out;
}

std::uint64_t Topology::edge_messages_sent(std::size_t e) const noexcept {
  return down_[e]->counters().sent + up_[e]->counters().sent;
}

std::uint64_t Topology::messages_sent() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t e = 0; e < down_.size(); ++e) total += edge_messages_sent(e);
  return total;
}

std::uint64_t Topology::relay_timeouts() const noexcept {
  std::uint64_t total = 0;
  for (const auto& relay : relays_) total += relay->timeouts();
  return total;
}

void Topology::stop() {
  sender_->stop();
  for (auto& relay : relays_) relay->stop();
}

bool Topology::quiescent() const noexcept {
  const auto drained = [](const MessageChannel& channel) {
    const sim::ChannelCounters& c = channel.counters();
    return c.sent == c.delivered + c.lost;
  };
  for (std::size_t e = 0; e < down_.size(); ++e) {
    if (!drained(*down_[e]) || !drained(*up_[e])) return false;
  }
  if (sender_->armed()) return false;
  return std::none_of(relays_.begin(), relays_.end(),
                      [](const auto& relay) { return relay->armed(); });
}

}  // namespace sigcomp::protocols
