// Executable nodes of multi-hop signaling topologies (Sec. III-B,
// generalized from the paper's chain to arbitrary rooted trees).
//
// Topology: a sender at the root, relays at interior nodes, receivers at
// the leaves; a chain is the degenerate tree with fan-out 1.  Every node's
// state copy lives in a protocols::StateSlot -- the same mechanism-driven
// core the single-hop engines use -- so all FIVE protocols run here:
// triggers propagate edge-by-edge down every branch (reliably for SS+RT,
// SS+RTR and HS), refreshes propagate as forwarded best-effort copies down
// every branch (the soft-state protocols), explicit removals propagate
// down every branch (best-effort for SS+ER, reliably for SS+RTR and HS),
// and the HS recovery protocol floods notices upstream and teardowns
// downstream when a false external signal fires.  Acks aggregate up the
// branches through per-child reliable slots.
//
// Nodes keep no per-child containers.  A child edge's down channel,
// reliable slot and activity/installed flags live in the tree's per-edge
// arrays (TreeContext, owned by protocols::Topology), and a node names its
// children by edge id through a span of its tree's CSR child list.
//
// Dynamic membership (IGMP-style leaf churn): each child edge carries an
// activity flag.  Triggers and refreshes flow only down ACTIVE edges;
// graft_child re-activates an edge and re-installs the local copy down it,
// prune_child deactivates an edge using the protocol's own removal
// semantics (nothing for timeout-pruned soft state, a best-effort or
// reliable removal otherwise).  Removals and teardowns are not gated --
// they chase whatever state was installed, tracked per child.  With every
// edge active (the static default) the nodes behave bit-identically to the
// PR 4 nodes, and with exactly one child to the PR 3 chain nodes (the
// golden-trace tests pin both).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "core/protocol.hpp"
#include "protocols/engine.hpp"
#include "protocols/message.hpp"
#include "protocols/state_slot.hpp"
#include "sim/channel.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace sigcomp::protocols {

/// What every node of one tree shares, kept once per tree by its Topology:
/// the simulator, the node RNG stream, the protocol's mechanisms and
/// timers, the state-change hook, and the parent side of every edge as
/// per-edge arrays indexed by edge id.  Edge e leads to node e + 1; only
/// e's parent reads or writes entry e.  Nodes hold a reference, so the
/// context must outlive them and must not move.
struct TreeContext {
  sim::Simulator& sim;
  sim::Rng& rng;
  MechanismSet mech;
  TimerSettings timers;  ///< every node's StateSlot refers to it
  std::function<void()> on_change;
  MessageChannel* down = nullptr;         ///< [e]: channel parent -> child
  ReliableSlot* reliable_down = nullptr;  ///< [e]: the parent's reliable slot
  char* child_active = nullptr;           ///< [e]: signaling flows down e
  char* child_installed = nullptr;        ///< [e]: state was pushed down e

  /// Calls the state-change hook, if any.
  void notify() const {
    if (on_change) on_change();
  }
};

/// The signaling sender at the root of the tree.  The state value changes
/// on updates and is removed only by an explicit remove() (graceful,
/// signaled) or stop() (silent).  Fan-out: triggers and refreshes go down
/// every active child edge; each child edge has its own reliable slot so
/// one slow branch cannot stall another.
class TreeSender {
 public:
  /// `children` lists the root's child edges in increasing order; both it
  /// and `ctx` must outlive the sender.
  TreeSender(TreeContext& ctx, std::span<const std::uint32_t> children);

  TreeSender(const TreeSender&) = delete;             ///< non-copyable
  TreeSender& operator=(const TreeSender&) = delete;  ///< non-copyable

  /// Installs the initial value and starts the refresh process.
  void start(std::int64_t value);

  /// Updates the state value (a new trigger propagates down every branch).
  void update(std::int64_t value);

  /// Gracefully removes the state: where the protocol has explicit removal
  /// a removal message goes down every branch that was ever installed
  /// (reliably when the protocol's removals are reliable); otherwise the
  /// downstream copies are left to their soft-state timeouts.
  void remove();

  /// Message arriving up child edge `edge` (ACKs, notices).
  void handle_from_downstream(const Message& msg, std::size_t edge = 0);

  /// Re-activates child edge `e` (a leaf joined somewhere below it) and
  /// re-installs the current value down it if one is held.
  void graft_child(std::size_t e);

  /// Deactivates child edge `e` (the last leaf below it left) using the
  /// protocol's removal semantics: a best-effort or reliable removal where
  /// the mechanisms provide one, nothing (timeout prune) otherwise.
  void prune_child(std::size_t e);

  /// Deactivates child edge `e` without signaling anything (used for the
  /// deeper edges of a pruned path -- the removal, if any, arrives via the
  /// propagation from the prune point).
  void deactivate_child(std::size_t e);

  /// Silently ends the session: clears state and cancels every pending
  /// timer WITHOUT signaling anything.  Used by the session farm when a
  /// finite-lifetime session's observation window closes.
  void stop();

  /// True while any of the node's timers is pending: the refresh timer or
  /// a per-child retransmission timer.
  [[nodiscard]] bool armed() const noexcept;

  /// The installed state value (nullopt before start / after stop).
  [[nodiscard]] std::optional<std::int64_t> value() const noexcept {
    return slot_.value();
  }
  /// Number of child edges.
  [[nodiscard]] std::size_t fanout() const noexcept { return children_.size(); }

 private:
  void send_trigger();
  void send_trigger_to(std::size_t e);
  void send_removal_to(std::size_t e, std::uint64_t seq);
  void arm_refresh();

  TreeContext& ctx_;
  std::span<const std::uint32_t> children_;
  StateSlot slot_;  ///< the authoritative root copy (never armed)
  std::uint64_t next_seq_ = 1;
  std::uint64_t trigger_seq_ = 0;
  sim::EventId refresh_timer_;
};

/// A relay node (any non-root node of the tree).  Holds state, forwards
/// signaling down its child edges; a leaf (no children) is a receiver.
class TreeRelay {
 public:
  /// `up` sends toward the parent; `children` lists the relay's child
  /// edges in increasing order (empty for a leaf).  `ctx`, `up` and the
  /// span must outlive the relay.
  TreeRelay(TreeContext& ctx, MessageChannel& up,
            std::span<const std::uint32_t> children);

  TreeRelay(const TreeRelay&) = delete;             ///< non-copyable
  TreeRelay& operator=(const TreeRelay&) = delete;  ///< non-copyable

  /// Message arriving from the parent (triggers, refreshes, removals,
  /// teardowns).
  void handle_from_upstream(const Message& msg);

  /// Message arriving up child edge `edge` (ACKs, notices).
  void handle_from_downstream(const Message& msg, std::size_t edge = 0);

  /// HS external failure detector fired (falsely) at this node: remove
  /// state, notify upstream (toward the sender) and tear down every branch
  /// below.
  void external_removal_signal();

  /// Re-activates child edge `e` and re-installs the locally cached value
  /// down it if one is held (see TreeSender::graft_child).
  void graft_child(std::size_t e);

  /// Deactivates child edge `e` with the protocol's removal semantics
  /// (see TreeSender::prune_child).
  void prune_child(std::size_t e);

  /// Deactivates child edge `e` silently (see TreeSender::deactivate_child).
  void deactivate_child(std::size_t e);

  /// Silently ends the session (see TreeSender::stop).
  void stop();

  /// True while any of the node's timers is pending: the soft-state
  /// timeout or a retransmission timer, upstream or per child.
  [[nodiscard]] bool armed() const noexcept;

  /// Crashes the relay: the held copy and every pending timer vanish
  /// silently (a dead process signals nothing) and the node goes deaf --
  /// every arriving message is dropped until recover().  The parent keeps
  /// the edge active and keeps refreshing/retransmitting into the void;
  /// after recover() the next refresh (soft state), pending reliable
  /// retransmission, or an explicit re-graft (the HS detector path)
  /// re-installs state.
  void crash();

  /// Ends a crash: the relay processes messages again.  It holds no state
  /// until the upstream re-installs one.
  void recover();

  /// True while the relay is crashed (deaf and stateless).
  [[nodiscard]] bool crashed() const noexcept { return crashed_; }

  /// The held state value (nullopt when no state is installed).
  [[nodiscard]] std::optional<std::int64_t> value() const noexcept {
    return slot_.value();
  }
  /// Number of soft-state timeout expirations at this relay.
  [[nodiscard]] std::uint64_t timeouts() const noexcept {
    return slot_.timeouts();
  }
  /// Number of child edges (0 = this relay is a receiver).
  [[nodiscard]] std::size_t fanout() const noexcept { return children_.size(); }

 private:
  void on_expire();
  void forward_trigger(std::int64_t value);
  void forward_trigger_to(std::size_t e, std::int64_t value);
  void send_removal_to(std::size_t e, std::uint64_t seq);
  void forward_removal();
  void teardown_children();

  TreeContext& ctx_;
  MessageChannel* up_;
  std::span<const std::uint32_t> children_;  ///< empty for a leaf
  ReliableSlot reliable_up_;
  StateSlot slot_;  ///< the held copy plus its soft-state timeout
  std::uint64_t next_seq_ = 1;
  std::uint64_t removal_seq_seen_ = 0;  ///< dedup of retransmitted removals
  bool removal_seen_ = false;
  bool crashed_ = false;  ///< deaf and stateless between crash()/recover()
};

}  // namespace sigcomp::protocols
