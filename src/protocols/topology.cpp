#include "protocols/topology.hpp"

#include <algorithm>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>

namespace sigcomp::protocols {

namespace {

/// Reserves `n` Ts at the end of a block being laid out: rounds `size` up
/// to T's alignment, returns that offset and advances `size` past them.
template <typename T>
std::size_t reserve(std::size_t& size, std::size_t n) {
  size = (size + alignof(T) - 1) / alignof(T) * alignof(T);
  const std::size_t at = size;
  size += n * sizeof(T);
  return at;
}

}  // namespace

TreeShape::TreeShape(TreeSpec spec, std::vector<sim::LossConfig> edge_loss,
                     std::vector<sim::DelayConfig> edge_delay)
    : spec_(std::move(spec)) {
  spec_.validate();
  const std::size_t e_count = spec_.edges();
  if (e_count == 0) {
    throw std::invalid_argument("TreeShape: the tree needs at least one edge");
  }
  if (spec_.nodes() > UINT32_MAX) {
    throw std::invalid_argument("TreeShape: node ids must fit 32 bits");
  }
  if (edge_loss.size() != e_count || edge_delay.size() != e_count) {
    throw std::invalid_argument(
        "TreeShape: need one loss and one delay config per edge");
  }
  links_.reserve(e_count);
  for (std::size_t e = 0; e < e_count; ++e) {
    links_.push_back(sim::LinkConfig{edge_loss[e], edge_delay[e]});
    links_.back().validate();
  }

  // CSR child lists by a counting sort over the parent vector: node n's
  // child edges are child_edges_[first_child_[n], first_child_[n + 1]), in
  // increasing edge order -- the order every node fans out in.
  first_child_.assign(spec_.nodes() + 1, 0);
  for (const std::size_t parent : spec_.parent) ++first_child_[parent + 1];
  for (std::size_t n = 0; n < spec_.nodes(); ++n) {
    first_child_[n + 1] += first_child_[n];
  }
  child_edges_.resize(e_count);
  std::vector<std::uint32_t> next(first_child_.begin(),
                                  first_child_.end() - 1);
  for (std::size_t e = 0; e < e_count; ++e) {
    child_edges_[next[spec_.parent[e]]++] = static_cast<std::uint32_t>(e);
  }
}

TreeShape TreeShape::of(const analytic::TreeParams& params,
                        sim::DelayModel delay_model, double delay_shape) {
  params.validate();
  std::vector<sim::LossConfig> edge_loss;
  std::vector<sim::DelayConfig> edge_delay;
  edge_loss.reserve(params.edges());
  edge_delay.reserve(params.edges());
  for (std::size_t e = 0; e < params.edges(); ++e) {
    edge_loss.push_back(params.edge_loss_config(e));
    edge_delay.push_back(
        sim::DelayConfig{delay_model, params.delay[e], delay_shape});
  }
  return TreeShape(params.tree, std::move(edge_loss), std::move(edge_delay));
}

Topology::Topology(const TreeShape* borrowed,
                   std::unique_ptr<const TreeShape> owned, sim::Simulator& sim,
                   sim::Rng& channel_rng, sim::Rng& node_rng,
                   MechanismSet mech, const TimerSettings& timers,
                   std::function<void()> on_change, sim::TraceLog* trace)
    : owned_shape_(std::move(owned)),
      shape_(borrowed != nullptr ? *borrowed : *owned_shape_),
      ctx_{sim, node_rng, mech, timers, std::move(on_change)} {
  const TreeShape& shape = shape_;
  const std::size_t e_count = shape.edges();
  const std::size_t n_count = e_count + 1;

  // One block, laid out once: objects first (by alignment), flags last.
  std::size_t size = 0;
  const std::size_t down_at = reserve<MessageChannel>(size, e_count);
  const std::size_t up_at = reserve<MessageChannel>(size, e_count);
  const std::size_t reliable_at = reserve<ReliableSlot>(size, e_count);
  const std::size_t sender_at = reserve<TreeSender>(size, 1);
  const std::size_t relays_at = reserve<TreeRelay>(size, e_count);
  const std::size_t below_at = reserve<std::uint32_t>(size, n_count);
  const std::size_t active_at = reserve<char>(size, e_count);
  const std::size_t installed_at = reserve<char>(size, e_count);
  const std::size_t joined_at = reserve<char>(size, n_count);
  block_ = std::make_unique_for_overwrite<std::byte[]>(size);
  std::byte* const block = block_.get();

  // Channels first (nodes keep pointers to them).  Each sink names its
  // edge only: a delivery down e goes to relay e, one up e to e's parent.
  down_.build(block + down_at, e_count, [&](void* where, std::size_t e) {
    ::new (where) MessageChannel(
        sim, channel_rng, shape.link(e),
        [this, e](const Message& m) { relays_[e].handle_from_upstream(m); });
  });
  up_.build(block + up_at, e_count, [&](void* where, std::size_t e) {
    ::new (where) MessageChannel(
        sim, channel_rng, shape.link(e),
        [this, e](const Message& m) { deliver_up(e, m); });
  });
  if (trace != nullptr) {
    const auto describe = [](const Message& m) {
      return std::string(to_string(m.type));
    };
    for (std::size_t e = 0; e < e_count; ++e) {
      down_[e].set_trace(trace, "dn" + std::to_string(e), describe);
      up_[e].set_trace(trace, "up" + std::to_string(e), describe);
    }
  }
  reliable_down_.build(block + reliable_at, e_count,
                       [&](void* where, std::size_t e) {
                         ::new (where) ReliableSlot(ctx_, &down_[e]);
                       });

  ctx_.down = &down_[0];
  ctx_.reliable_down = &reliable_down_[0];
  ctx_.child_active = reinterpret_cast<char*>(block + active_at);
  ctx_.child_installed = reinterpret_cast<char*>(block + installed_at);
  std::fill_n(ctx_.child_active, e_count, char{1});
  std::fill_n(ctx_.child_installed, e_count, char{0});

  sender_.build(block + sender_at, 1, [&](void* where, std::size_t) {
    ::new (where) TreeSender(ctx_, shape.child_edges(0));
  });
  relays_.build(block + relays_at, e_count, [&](void* where, std::size_t e) {
    ::new (where) TreeRelay(ctx_, up_[e], shape.child_edges(e + 1));
  });

  // Membership bookkeeping: every leaf starts joined, so active_below_[n]
  // is node n's subtree leaf count.  Children have larger ids than their
  // parent (the TreeSpec invariant), so one reverse pass accumulates.
  const TreeSpec& spec = shape.spec();
  active_below_ = reinterpret_cast<std::uint32_t*>(block + below_at);
  leaf_joined_ = reinterpret_cast<char*>(block + joined_at);
  std::fill_n(active_below_, n_count, 0u);
  std::fill_n(leaf_joined_, n_count, char{0});
  for (std::size_t n = n_count; n-- > 1;) {
    if (shape.child_edges(n).empty()) {
      leaf_joined_[n] = 1;
      ++active_below_[n];
      ++active_leaves_;
    }
    active_below_[spec.parent[n - 1]] += active_below_[n];
  }
}

void Topology::deliver_up(std::size_t e, const Message& msg) {
  const std::size_t parent = shape_.spec().parent[e];
  if (parent == 0) {
    sender_[0].handle_from_downstream(msg, e);
  } else {
    relays_[parent - 1].handle_from_downstream(msg, e);
  }
}

void Topology::graft_edge(std::size_t e) {
  const std::size_t parent = shape_.spec().parent[e];
  if (parent == 0) {
    sender_[0].graft_child(e);
  } else {
    relays_[parent - 1].graft_child(e);
  }
}

void Topology::prune_edge_at(std::size_t e) {
  const std::size_t parent = shape_.spec().parent[e];
  if (parent == 0) {
    sender_[0].prune_child(e);
  } else {
    relays_[parent - 1].prune_child(e);
  }
}

void Topology::deactivate_edge(std::size_t e) {
  const std::size_t parent = shape_.spec().parent[e];
  if (parent == 0) {
    sender_[0].deactivate_child(e);
  } else {
    relays_[parent - 1].deactivate_child(e);
  }
}

bool Topology::leaf_active(std::size_t leaf) const {
  if (leaf == 0 || leaf >= spec().nodes() ||
      !shape_.child_edges(leaf).empty()) {
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
  for (const std::size_t e : spec().path_edges(leaf)) {
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
  for (const std::size_t e : spec().path_edges(leaf)) {
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
  return down_[e].counters().sent + up_[e].counters().sent;
}

std::uint64_t Topology::messages_sent() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t e = 0; e < down_.size(); ++e) total += edge_messages_sent(e);
  return total;
}

std::uint64_t Topology::relay_timeouts() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < relays_.size(); ++i) {
    total += relays_[i].timeouts();
  }
  return total;
}

void Topology::stop() {
  sender_[0].stop();
  for (std::size_t i = 0; i < relays_.size(); ++i) relays_[i].stop();
}

bool Topology::quiescent() const noexcept {
  const auto drained = [](const MessageChannel& channel) {
    const sim::ChannelCounters& c = channel.counters();
    return c.sent == c.delivered + c.lost;
  };
  for (std::size_t e = 0; e < down_.size(); ++e) {
    if (!drained(down_[e]) || !drained(up_[e])) return false;
  }
  if (sender_[0].armed()) return false;
  for (std::size_t i = 0; i < relays_.size(); ++i) {
    if (relays_[i].armed()) return false;
  }
  return true;
}

}  // namespace sigcomp::protocols
