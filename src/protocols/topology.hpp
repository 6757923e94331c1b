// A fully wired signaling tree: the sender at the root, relays at interior
// nodes, receivers at the leaves, with per-edge bidirectional channels,
// sinks connected, and optional per-edge tracing.  Built by one place,
// protocols::TreeSessionCore (protocols/tree_session.hpp), which both the
// tree harness and the session farm run.
//
// Layout.  What a run's trees share -- the TreeSpec, its child lists in CSR
// form and each edge's link, which the edge's channels borrow -- is a
// TreeShape, built once per run.  Each Topology then makes one heap block
// holding its sender, relays and channels and its per-edge arrays
// (reliable slots, activity and installed flags) and per-node membership
// counts, all sized once from the shape, plus one TreeContext every node
// refers to.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "analytic/tree_paths.hpp"
#include "core/protocol.hpp"
#include "core/topology.hpp"
#include "protocols/engine.hpp"
#include "protocols/multi_hop_node.hpp"
#include "sim/channel_process.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace sigcomp::protocols {

/// What every tree of one run derives from its parameters alone, built
/// once and shared by each Topology built on it: the TreeSpec, node n's
/// child edges in increasing edge order (CSR), and edge e's link -- its
/// loss and delay configuration, which both of its channels borrow.
class TreeShape {
 public:
  /// `edge_loss` and `edge_delay` must have exactly spec.edges() entries,
  /// and the spec at least one edge.  Throws std::invalid_argument on an
  /// invalid spec, mismatched vectors or an invalid link configuration.
  TreeShape(TreeSpec spec, std::vector<sim::LossConfig> edge_loss,
            std::vector<sim::DelayConfig> edge_delay);

  /// The shape of `params`' tree: edge e runs params.edge_loss_config(e)
  /// and a `delay_model` delay of mean params.delay[e].  Validates params.
  [[nodiscard]] static TreeShape of(const analytic::TreeParams& params,
                                    sim::DelayModel delay_model,
                                    double delay_shape);

  /// The tree.
  [[nodiscard]] const TreeSpec& spec() const noexcept { return spec_; }
  /// Number of edges (== relays).
  [[nodiscard]] std::size_t edges() const noexcept { return spec_.edges(); }
  /// Node `node`'s child edges, in increasing edge order.
  [[nodiscard]] std::span<const std::uint32_t> child_edges(
      std::size_t node) const noexcept {
    return {child_edges_.data() + first_child_[node],
            first_child_[node + 1] - first_child_[node]};
  }
  /// Edge e's link, borrowed by the edge's channels in every tree built on
  /// the shape.
  [[nodiscard]] const sim::LinkConfig& link(std::size_t e) const noexcept {
    return links_[e];
  }

 private:
  TreeSpec spec_;
  std::vector<sim::LinkConfig> links_;
  std::vector<std::uint32_t> first_child_;  ///< CSR offsets, nodes() + 1
  std::vector<std::uint32_t> child_edges_;  ///< edges grouped by parent
};

/// Owns the tree's nodes and channels.  Edge e's two directions borrow the
/// shape's link(e); channel trace labels are "dn<e>" (away from the root)
/// and "up<e>" (toward the root) -- on a chain spec these coincide with the
/// historical per-hop labels.
class Topology {
 public:
  /// `shape`, `channel_rng` and `node_rng` must outlive the topology.
  Topology(sim::Simulator& sim, sim::Rng& channel_rng, sim::Rng& node_rng,
           MechanismSet mech, const TimerSettings& timers,
           const TreeShape& shape, std::function<void()> on_change,
           sim::TraceLog* trace = nullptr)
      : Topology(&shape, nullptr, sim, channel_rng, node_rng, mech, timers,
                 std::move(on_change), trace) {}

  /// A topology that owns its shape, TreeShape(spec, edge_loss,
  /// edge_delay), for one-off trees; a run of many trees builds the shape
  /// once and shares it.  Both RNGs must outlive the topology.
  Topology(sim::Simulator& sim, sim::Rng& channel_rng, sim::Rng& node_rng,
           MechanismSet mech, const TimerSettings& timers,
           const TreeSpec& spec, std::vector<sim::LossConfig> edge_loss,
           std::vector<sim::DelayConfig> edge_delay,
           std::function<void()> on_change, sim::TraceLog* trace = nullptr)
      : Topology(nullptr,
                 std::make_unique<const TreeShape>(spec, std::move(edge_loss),
                                                   std::move(edge_delay)),
                 sim, channel_rng, node_rng, mech, timers,
                 std::move(on_change), trace) {}

  Topology(const Topology&) = delete;             ///< non-copyable
  Topology& operator=(const Topology&) = delete;  ///< non-copyable

  /// The tree being simulated.
  [[nodiscard]] const TreeSpec& spec() const noexcept { return shape_.spec(); }
  /// Non-root nodes (== edges).
  [[nodiscard]] std::size_t relays() const noexcept { return relays_.size(); }
  /// The root node.
  [[nodiscard]] TreeSender& sender() noexcept { return sender_[0]; }
  /// The root node (const).
  [[nodiscard]] const TreeSender& sender() const noexcept { return sender_[0]; }
  /// Relay i holds tree node i+1 (edge i's child endpoint).
  [[nodiscard]] TreeRelay& relay(std::size_t i) { return relays_[i]; }
  /// Relay i (const).
  [[nodiscard]] const TreeRelay& relay(std::size_t i) const {
    return relays_[i];
  }

  // --- Dynamic leaf membership (IGMP-style churn) ---------------------
  //
  // Every leaf starts joined (the static tree).  join()/leave() maintain
  // per-subtree active-leaf counts: an edge is active while its subtree
  // contains at least one joined leaf, and the nodes' per-child activity
  // flags mirror that.  A join grafts: every newly activated edge has its
  // parent re-install whatever copy it still caches (state flows down the
  // path only where missing).  A leave prunes: the deeper dead edges are
  // deactivated silently and the prune point applies the protocol's own
  // removal semantics (nothing for timeout-pruned soft state, a
  // best-effort or reliable removal otherwise).

  /// Outcome of a join: the edges that switched from inactive to active,
  /// in root-to-leaf order (empty when the path was already live).
  struct GraftResult {
    std::vector<std::size_t> activated_edges;  ///< newly active, shallow first
  };

  /// Outcome of a leave: the edges that switched to inactive, in
  /// root-to-leaf order.  Never empty (the leaf's own edge always dies);
  /// the first entry is the prune point, where removal is signaled.
  struct PruneResult {
    std::vector<std::size_t> pruned_edges;  ///< newly inactive, shallow first
    /// The shallowest pruned edge (== pruned_edges.front()).
    [[nodiscard]] std::size_t prune_edge() const { return pruned_edges.front(); }
  };

  /// Joins leaf node `leaf` and grafts state down the reactivated path
  /// segment.  Throws std::invalid_argument when `leaf` is not a leaf or is
  /// already joined.
  GraftResult join(std::size_t leaf);

  /// Leaf node `leaf` departs; dead edges are pruned (see above).  Throws
  /// std::invalid_argument when `leaf` is not a joined leaf.
  PruneResult leave(std::size_t leaf);

  /// True while leaf node `leaf` is joined.  Throws std::invalid_argument
  /// when `leaf` is not a leaf.
  [[nodiscard]] bool leaf_active(std::size_t leaf) const;

  /// Number of currently joined leaves.
  [[nodiscard]] std::size_t active_leaf_count() const noexcept {
    return active_leaves_;
  }

  /// Re-installs edge e's parent-side cached copy down the edge (the
  /// crash-recovery repair path: after relay e recovers, its parent
  /// re-sends whatever value it still holds, reliably when the protocol's
  /// triggers are reliable).  A no-op when the parent holds no copy, and
  /// when relay e is no longer required (churn pruned the edge meanwhile;
  /// grafting would wrongly re-activate it).
  void regraft_edge(std::size_t e) {
    if (node_required(e + 1)) graft_edge(e);
  }

  /// True when `node` should hold state: it lies on the path to some joined
  /// leaf (or is one).  The root is always required.  Detached nodes whose
  /// copy lingers are the orphan window the churn metrics measure.
  [[nodiscard]] bool node_required(std::size_t node) const {
    return node == 0 || active_below_[node] > 0;
  }

  /// Messages handed to edge e's channels (both directions).
  [[nodiscard]] std::uint64_t edge_messages_sent(std::size_t e) const noexcept;

  /// Messages handed to all channels of the tree.
  [[nodiscard]] std::uint64_t messages_sent() const noexcept;

  /// Soft-state timeout expirations summed across relays.
  [[nodiscard]] std::uint64_t relay_timeouts() const noexcept;

  /// Silently tears the whole tree down (TreeSender/TreeRelay::stop):
  /// state cleared, timers cancelled, nothing signaled.
  void stop();

  /// True when no pending simulator event refers to the tree: every
  /// channel, in both directions, has delivered or lost everything it was
  /// handed, and no node has a timer armed.  A stopped tree still re-arms
  /// timers when stragglers arrive, but only pending events do that: once
  /// this is true, only a call from outside can make it false again.
  [[nodiscard]] bool quiescent() const noexcept;

 private:
  /// A run of T constructed in place in the block, destroyed in reverse
  /// order; a throw part-way through destroys only what was built.
  template <typename T>
  class Placed {
   public:
    Placed() = default;
    Placed(const Placed&) = delete;
    Placed& operator=(const Placed&) = delete;
    ~Placed() {
      while (size_ > 0) data_[--size_].~T();
    }
    /// Builds `n` objects at `at`, the i-th by `make(void* where, i)`.
    template <typename Make>
    void build(std::byte* at, std::size_t n, Make make) {
      static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
      data_ = reinterpret_cast<T*>(at);
      for (; size_ < n; ++size_) make(static_cast<void*>(data_ + size_), size_);
    }
    [[nodiscard]] T& operator[](std::size_t i) const noexcept {
      return data_[i];
    }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

   private:
    T* data_ = nullptr;
    std::size_t size_ = 0;
  };

  /// Builds on `borrowed` when it is non-null, on `owned` otherwise.
  Topology(const TreeShape* borrowed, std::unique_ptr<const TreeShape> owned,
           sim::Simulator& sim, sim::Rng& channel_rng, sim::Rng& node_rng,
           MechanismSet mech, const TimerSettings& timers,
           std::function<void()> on_change, sim::TraceLog* trace);

  /// Routes graft/prune/deactivate calls to edge e's parent node (the
  /// sender for root children, a relay otherwise).
  void graft_edge(std::size_t e);
  void prune_edge_at(std::size_t e);
  void deactivate_edge(std::size_t e);
  /// A message that came up edge e, handed to e's parent.
  void deliver_up(std::size_t e, const Message& msg);

  std::unique_ptr<const TreeShape> owned_shape_;  ///< null when borrowed
  const TreeShape& shape_;
  TreeContext ctx_;
  std::unique_ptr<std::byte[]> block_;  ///< everything below lives in it
  Placed<MessageChannel> down_;         ///< e: parent -> child
  Placed<MessageChannel> up_;           ///< e: child -> parent
  Placed<ReliableSlot> reliable_down_;  ///< e: the parent's reliable slot
  Placed<TreeSender> sender_;           ///< exactly one
  Placed<TreeRelay> relays_;            ///< relay i is node i + 1
  std::uint32_t* active_below_ = nullptr;  ///< per node: joined leaves below
  char* leaf_joined_ = nullptr;  ///< per node; nonzero for joined leaves
  std::size_t active_leaves_ = 0;
};

}  // namespace sigcomp::protocols
