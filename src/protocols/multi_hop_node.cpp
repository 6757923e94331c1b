#include "protocols/multi_hop_node.hpp"

#include <algorithm>

namespace sigcomp::protocols {

// ------------------------------------------------------------ TreeSender --

TreeSender::TreeSender(TreeContext& ctx,
                       std::span<const std::uint32_t> children)
    : ctx_(ctx),
      children_(children),
      slot_(ctx.sim, ctx.rng, ctx.mech, ctx.timers, nullptr) {}

void TreeSender::send_trigger_to(std::size_t e) {
  const Message msg{MessageType::kTrigger, *slot_.value(), trigger_seq_, 0};
  ctx_.child_installed[e] = 1;
  if (ctx_.mech.reliable_trigger) {
    ctx_.reliable_down[e].send(msg);
  } else {
    ctx_.down[e].send(msg);
  }
}

void TreeSender::send_trigger() {
  for (const std::uint32_t e : children_) {
    if (ctx_.child_active[e]) send_trigger_to(e);
  }
}

void TreeSender::start(std::int64_t value) {
  slot_.set(value);
  trigger_seq_ = next_seq_++;
  send_trigger();
  if (ctx_.mech.refresh && !refresh_timer_) arm_refresh();
  ctx_.notify();
}

void TreeSender::update(std::int64_t value) {
  if (!slot_.value()) {
    start(value);
    return;
  }
  slot_.set(value);
  trigger_seq_ = next_seq_++;
  send_trigger();
  ctx_.notify();
}

void TreeSender::arm_refresh() {
  refresh_timer_ = ctx_.sim.schedule_in(
      sim::sample(ctx_.rng, ctx_.timers.dist, ctx_.timers.refresh), [this] {
        refresh_timer_.reset();
        if (slot_.value()) {
          const Message msg{MessageType::kRefresh, *slot_.value(),
                            trigger_seq_, 0};
          for (const std::uint32_t e : children_) {
            if (!ctx_.child_active[e]) continue;
            ctx_.child_installed[e] = 1;
            ctx_.down[e].send(msg);
          }
          arm_refresh();
        }
      });
}

/// Emits one removal down child edge e: reliably (superseding any pending
/// trigger in the slot) when the protocol's removals are reliable, best
/// effort -- with the pending trigger cancelled -- otherwise.
void TreeSender::send_removal_to(std::size_t e, std::uint64_t seq) {
  const Message msg{MessageType::kRemove, 0, seq, 0};
  if (ctx_.mech.reliable_removal) {
    ctx_.reliable_down[e].send(msg);
  } else {
    ctx_.reliable_down[e].cancel();
    ctx_.down[e].send(msg);
  }
}

void TreeSender::remove() {
  if (!slot_.clear()) return;
  ctx_.sim.cancel_timer(refresh_timer_);
  if (ctx_.mech.explicit_removal) {
    // One removal, fanned down every branch that was ever installed; each
    // per-child reliable slot matches its own ACK against the shared seq.
    const std::uint64_t seq = next_seq_++;
    for (const std::uint32_t e : children_) {
      if (!ctx_.child_installed[e]) {
        ctx_.reliable_down[e].cancel();
        continue;
      }
      ctx_.child_installed[e] = 0;
      send_removal_to(e, seq);
    }
  } else {
    for (const std::uint32_t e : children_) ctx_.reliable_down[e].cancel();
  }
  ctx_.notify();
}

void TreeSender::graft_child(std::size_t e) {
  ctx_.child_active[e] = 1;
  if (slot_.value()) send_trigger_to(e);
}

void TreeSender::deactivate_child(std::size_t e) {
  ctx_.child_active[e] = 0;
  ctx_.reliable_down[e].cancel();
}

void TreeSender::prune_child(std::size_t e) {
  deactivate_child(e);
  if (ctx_.mech.explicit_removal && ctx_.child_installed[e]) {
    ctx_.child_installed[e] = 0;
    send_removal_to(e, next_seq_++);
  }
}

void TreeSender::stop() {
  slot_.clear();
  ctx_.sim.cancel_timer(refresh_timer_);
  for (const std::uint32_t e : children_) ctx_.reliable_down[e].cancel();
}

bool TreeSender::armed() const noexcept {
  return static_cast<bool>(refresh_timer_) ||
         std::any_of(children_.begin(), children_.end(),
                     [this](std::uint32_t e) {
                       return ctx_.reliable_down[e].armed();
                     });
}

void TreeSender::handle_from_downstream(const Message& msg, std::size_t edge) {
  switch (msg.type) {
    case MessageType::kAckTrigger:
    case MessageType::kAckRemove:
      ctx_.reliable_down[edge].acknowledge(msg.seq);
      break;
    case MessageType::kNotice:
      // A receiver removed our state (timeout or false external signal);
      // re-install.  Under HS the notice traveled reliably, so acknowledge.
      // The fresh trigger goes down every branch: relays that still hold
      // the value re-ack the duplicate without re-forwarding it.
      if (ctx_.mech.external_failure_detector) {
        ctx_.down[edge].send(Message{MessageType::kAckNotice, 0, msg.seq, 0});
      }
      if (slot_.value()) {
        trigger_seq_ = next_seq_++;
        send_trigger();
      }
      break;
    default:
      break;
  }
}

// ------------------------------------------------------------- TreeRelay --

TreeRelay::TreeRelay(TreeContext& ctx, MessageChannel& up,
                     std::span<const std::uint32_t> children)
    : ctx_(ctx),
      up_(&up),
      children_(children),
      reliable_up_(ctx, &up),
      slot_(ctx.sim, ctx.rng, ctx.mech, ctx.timers, [this] { on_expire(); }) {}

/// The soft-state timeout fired and the slot dropped the value: emit the
/// one-hop repair notice where the protocol has removal notification.
void TreeRelay::on_expire() {
  if (ctx_.mech.removal_notification) {
    // One-hop repair notice (SS+RT): the upstream neighbor re-triggers.
    up_->send(Message{MessageType::kNotice, 0, 0, 0});
  }
  ctx_.notify();
}

void TreeRelay::forward_trigger_to(std::size_t e, std::int64_t value) {
  const Message msg{MessageType::kTrigger, value, next_seq_++, 0};
  ctx_.child_installed[e] = 1;
  if (ctx_.mech.reliable_trigger) {
    ctx_.reliable_down[e].send(msg);
  } else {
    ctx_.down[e].send(msg);
  }
}

void TreeRelay::forward_trigger(std::int64_t value) {
  for (const std::uint32_t e : children_) {
    if (ctx_.child_active[e]) forward_trigger_to(e, value);
  }
}

/// Emits one removal down child edge e (see TreeSender::send_removal_to).
void TreeRelay::send_removal_to(std::size_t e, std::uint64_t seq) {
  const Message msg{MessageType::kRemove, 0, seq, 0};
  if (ctx_.mech.reliable_removal) {
    ctx_.reliable_down[e].send(msg);
  } else {
    ctx_.reliable_down[e].cancel();
    ctx_.down[e].send(msg);
  }
}

/// Propagates a graceful removal down every branch that was ever installed
/// (NOT gated on activity: a removal chases state wherever it went).
void TreeRelay::forward_removal() {
  const std::uint64_t seq = next_seq_++;
  for (const std::uint32_t e : children_) {
    if (!ctx_.child_installed[e]) continue;
    ctx_.child_installed[e] = 0;
    send_removal_to(e, seq);
  }
}

/// Reliable teardown down every branch (HS recovery), each with its own seq.
void TreeRelay::teardown_children() {
  for (const std::uint32_t e : children_) {
    ctx_.child_installed[e] = 0;
    ctx_.reliable_down[e].send(
        Message{MessageType::kTeardown, 0, next_seq_++, 0});
  }
}

void TreeRelay::graft_child(std::size_t e) {
  ctx_.child_active[e] = 1;
  if (slot_.value()) forward_trigger_to(e, *slot_.value());
}

void TreeRelay::deactivate_child(std::size_t e) {
  ctx_.child_active[e] = 0;
  ctx_.reliable_down[e].cancel();
}

void TreeRelay::prune_child(std::size_t e) {
  deactivate_child(e);
  // A crashed relay cannot signal: the prune degrades to a silent
  // deactivation and the stranded downstream copies are left to their
  // soft-state timeouts (or to the removal that chases them after
  // recovery).
  if (crashed_) return;
  if (ctx_.mech.explicit_removal && ctx_.child_installed[e]) {
    ctx_.child_installed[e] = 0;
    send_removal_to(e, next_seq_++);
  }
}

void TreeRelay::handle_from_upstream(const Message& msg) {
  if (crashed_) return;  // a dead process hears nothing
  switch (msg.type) {
    case MessageType::kTrigger: {
      const bool duplicate = slot_.holds(msg.value);
      if (ctx_.mech.reliable_trigger) {
        up_->send(Message{MessageType::kAckTrigger, 0, msg.seq, 0});
      }
      slot_.set(msg.value);
      slot_.arm_timeout();
      // Duplicates (retransmission after a lost ACK) are re-ACKed but not
      // re-forwarded: the downstream copies are already in flight or pending.
      if (!duplicate) {
        forward_trigger(msg.value);
        ctx_.notify();
      }
      break;
    }
    case MessageType::kRefresh:
      slot_.set(msg.value);
      slot_.arm_timeout();
      // Forward the refresh copy down every active branch, best effort.
      for (const std::uint32_t e : children_) {
        if (!ctx_.child_active[e]) continue;
        ctx_.child_installed[e] = 1;
        ctx_.down[e].send(msg);
      }
      ctx_.notify();
      break;
    case MessageType::kRemove:
      // Graceful explicit removal (SS+ER best effort; SS+RTR/HS reliable).
      // Always re-ACK so a lost ACK is repaired by the retransmission, but
      // propagate only once per removal seq -- a retransmitted removal must
      // not re-flood the subtree.
      if (ctx_.mech.reliable_removal) {
        up_->send(Message{MessageType::kAckRemove, 0, msg.seq, 0});
      }
      // The parent's seq counter is monotonic, so anything at or below the
      // last processed removal is a stale duplicate -- it must neither
      // re-flood the subtree nor wipe state a later graft re-installed.
      if (removal_seen_ && msg.seq <= removal_seq_seen_) break;
      removal_seen_ = true;
      removal_seq_seen_ = msg.seq;
      if (slot_.clear()) ctx_.notify();
      forward_removal();
      break;
    case MessageType::kTeardown:
      // Reliable downstream propagation of a removal signal (HS recovery).
      up_->send(Message{MessageType::kAckNotice, 0, msg.seq, 0});
      if (slot_.clear()) ctx_.notify();
      teardown_children();
      break;
    case MessageType::kAckNotice:
      reliable_up_.acknowledge(msg.seq);
      break;
    default:
      break;
  }
}

void TreeRelay::handle_from_downstream(const Message& msg, std::size_t edge) {
  if (crashed_) return;  // a dead process hears nothing
  switch (msg.type) {
    case MessageType::kAckTrigger:
    case MessageType::kAckNotice:
    case MessageType::kAckRemove:
      ctx_.reliable_down[edge].acknowledge(msg.seq);
      break;
    case MessageType::kNotice:
      if (ctx_.mech.external_failure_detector) {
        // HS recovery: acknowledge, drop our own state, keep flooding the
        // notice toward the sender.
        ctx_.down[edge].send(Message{MessageType::kAckNotice, 0, msg.seq, 0});
        if (slot_.value()) {
          slot_.clear();
          ctx_.notify();
        }
        reliable_up_.send(Message{MessageType::kNotice, 0, next_seq_++, 0});
      } else if (slot_.value() && ctx_.child_active[edge]) {
        // SS+RT one-hop repair: re-install our value down the branch the
        // notice came from (the other branches kept their copies) -- unless
        // the branch was pruned, in which case the timeout was the point.
        forward_trigger_to(edge, *slot_.value());
      }
      break;
    default:
      break;
  }
}

void TreeRelay::stop() {
  slot_.clear();
  reliable_up_.cancel();
  for (const std::uint32_t e : children_) ctx_.reliable_down[e].cancel();
}

bool TreeRelay::armed() const noexcept {
  return slot_.armed() || reliable_up_.armed() ||
         std::any_of(children_.begin(), children_.end(),
                     [this](std::uint32_t e) {
                       return ctx_.reliable_down[e].armed();
                     });
}

void TreeRelay::crash() {
  const bool held = slot_.clear();
  reliable_up_.cancel();
  for (const std::uint32_t e : children_) ctx_.reliable_down[e].cancel();
  crashed_ = true;
  if (held) ctx_.notify();
}

void TreeRelay::recover() { crashed_ = false; }

void TreeRelay::external_removal_signal() {
  if (crashed_) return;  // the detector cannot fire inside a dead process
  if (!slot_.clear()) return;
  ctx_.notify();
  reliable_up_.send(Message{MessageType::kNotice, 0, next_seq_++, 0});
  teardown_children();
}

}  // namespace sigcomp::protocols
