#include "protocols/multi_hop_node.hpp"

#include <algorithm>
#include <utility>

namespace sigcomp::protocols {

// ------------------------------------------------------------ TreeSender --

TreeSender::TreeSender(sim::Simulator& sim, sim::Rng& rng, MechanismSet mech,
                       TimerSettings timers,
                       std::vector<MessageChannel*> down,
                       std::function<void()> on_change)
    : sim_(sim),
      rng_(rng),
      mech_(mech),
      timers_(timers),
      down_(std::move(down)),
      on_change_(std::move(on_change)),
      child_active_(down_.size(), 1),
      child_installed_(down_.size(), 0),
      slot_(sim, rng, mech, timers_, nullptr) {
  // Sized once, before any timer can be armed: slots capture `this`-stable
  // addresses in their retransmission closures, so the vector must never
  // reallocate afterwards.
  reliable_down_.reserve(down_.size());
  for (MessageChannel* channel : down_) {
    reliable_down_.emplace_back(sim, rng, timers.dist, timers.retrans, channel);
  }
}

void TreeSender::send_trigger_to(std::size_t c) {
  const Message msg{MessageType::kTrigger, *slot_.value(), trigger_seq_, 0};
  child_installed_[c] = 1;
  if (mech_.reliable_trigger) {
    reliable_down_[c].send(msg);
  } else {
    down_[c]->send(msg);
  }
}

void TreeSender::send_trigger() {
  for (std::size_t c = 0; c < down_.size(); ++c) {
    if (child_active_[c]) send_trigger_to(c);
  }
}

void TreeSender::start(std::int64_t value) {
  slot_.set(value);
  trigger_seq_ = next_seq_++;
  send_trigger();
  if (mech_.refresh && !refresh_timer_) arm_refresh();
  if (on_change_) on_change_();
}

void TreeSender::update(std::int64_t value) {
  if (!slot_.value()) {
    start(value);
    return;
  }
  slot_.set(value);
  trigger_seq_ = next_seq_++;
  send_trigger();
  if (on_change_) on_change_();
}

void TreeSender::arm_refresh() {
  refresh_timer_ = sim_.schedule_in(
      sim::sample(rng_, timers_.dist, timers_.refresh), [this] {
        refresh_timer_.reset();
        if (slot_.value()) {
          const Message msg{MessageType::kRefresh, *slot_.value(),
                            trigger_seq_, 0};
          for (std::size_t c = 0; c < down_.size(); ++c) {
            if (!child_active_[c]) continue;
            child_installed_[c] = 1;
            down_[c]->send(msg);
          }
          arm_refresh();
        }
      });
}

/// Emits one removal down child edge c: reliably (superseding any pending
/// trigger in the slot) when the protocol's removals are reliable, best
/// effort -- with the pending trigger cancelled -- otherwise.
void TreeSender::send_removal_to(std::size_t c, std::uint64_t seq) {
  const Message msg{MessageType::kRemove, 0, seq, 0};
  if (mech_.reliable_removal) {
    reliable_down_[c].send(msg);
  } else {
    reliable_down_[c].cancel();
    down_[c]->send(msg);
  }
}

void TreeSender::remove() {
  if (!slot_.clear()) return;
  sim_.cancel_timer(refresh_timer_);
  if (mech_.explicit_removal) {
    // One removal, fanned down every branch that was ever installed; each
    // per-child reliable slot matches its own ACK against the shared seq.
    const std::uint64_t seq = next_seq_++;
    for (std::size_t c = 0; c < down_.size(); ++c) {
      if (!child_installed_[c]) {
        reliable_down_[c].cancel();
        continue;
      }
      child_installed_[c] = 0;
      send_removal_to(c, seq);
    }
  } else {
    for (ReliableSlot& slot : reliable_down_) slot.cancel();
  }
  if (on_change_) on_change_();
}

void TreeSender::graft_child(std::size_t c) {
  child_active_[c] = 1;
  if (slot_.value()) send_trigger_to(c);
}

void TreeSender::deactivate_child(std::size_t c) {
  child_active_[c] = 0;
  reliable_down_[c].cancel();
}

void TreeSender::prune_child(std::size_t c) {
  deactivate_child(c);
  if (mech_.explicit_removal && child_installed_[c]) {
    child_installed_[c] = 0;
    send_removal_to(c, next_seq_++);
  }
}

void TreeSender::stop() {
  slot_.clear();
  sim_.cancel_timer(refresh_timer_);
  for (ReliableSlot& slot : reliable_down_) slot.cancel();
}

bool TreeSender::armed() const noexcept {
  return static_cast<bool>(refresh_timer_) ||
         std::any_of(reliable_down_.begin(), reliable_down_.end(),
                     [](const ReliableSlot& slot) { return slot.armed(); });
}

void TreeSender::handle_from_downstream(const Message& msg, std::size_t child) {
  switch (msg.type) {
    case MessageType::kAckTrigger:
    case MessageType::kAckRemove:
      reliable_down_[child].acknowledge(msg.seq);
      break;
    case MessageType::kNotice:
      // A receiver removed our state (timeout or false external signal);
      // re-install.  Under HS the notice traveled reliably, so acknowledge.
      // The fresh trigger goes down every branch: relays that still hold
      // the value re-ack the duplicate without re-forwarding it.
      if (mech_.external_failure_detector) {
        down_[child]->send(Message{MessageType::kAckNotice, 0, msg.seq, 0});
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

TreeRelay::TreeRelay(sim::Simulator& sim, sim::Rng& rng, MechanismSet mech,
                     TimerSettings timers, MessageChannel* up,
                     std::vector<MessageChannel*> down,
                     std::function<void()> on_change)
    : sim_(sim),
      rng_(rng),
      mech_(mech),
      timers_(timers),
      up_(up),
      down_(std::move(down)),
      on_change_(std::move(on_change)),
      reliable_up_(sim, rng, timers.dist, timers.retrans, up),
      child_active_(down_.size(), 1),
      child_installed_(down_.size(), 0),
      slot_(sim, rng, mech, timers_, [this] { on_expire(); }) {
  reliable_down_.reserve(down_.size());  // fixed size; see TreeSender
  for (MessageChannel* channel : down_) {
    reliable_down_.emplace_back(sim, rng, timers.dist, timers.retrans, channel);
  }
}

void TreeRelay::notify() {
  if (on_change_) on_change_();
}

/// The soft-state timeout fired and the slot dropped the value: emit the
/// one-hop repair notice where the protocol has removal notification.
void TreeRelay::on_expire() {
  if (mech_.removal_notification) {
    // One-hop repair notice (SS+RT): the upstream neighbor re-triggers.
    up_->send(Message{MessageType::kNotice, 0, 0, 0});
  }
  notify();
}

void TreeRelay::forward_trigger_to(std::size_t child, std::int64_t value) {
  const Message msg{MessageType::kTrigger, value, next_seq_++, 0};
  child_installed_[child] = 1;
  if (mech_.reliable_trigger) {
    reliable_down_[child].send(msg);
  } else {
    down_[child]->send(msg);
  }
}

void TreeRelay::forward_trigger(std::int64_t value) {
  for (std::size_t c = 0; c < down_.size(); ++c) {
    if (child_active_[c]) forward_trigger_to(c, value);
  }
}

/// Emits one removal down child edge c (see TreeSender::send_removal_to).
void TreeRelay::send_removal_to(std::size_t c, std::uint64_t seq) {
  const Message msg{MessageType::kRemove, 0, seq, 0};
  if (mech_.reliable_removal) {
    reliable_down_[c].send(msg);
  } else {
    reliable_down_[c].cancel();
    down_[c]->send(msg);
  }
}

/// Propagates a graceful removal down every branch that was ever installed
/// (NOT gated on activity: a removal chases state wherever it went).
void TreeRelay::forward_removal() {
  const std::uint64_t seq = next_seq_++;
  for (std::size_t c = 0; c < down_.size(); ++c) {
    if (!child_installed_[c]) continue;
    child_installed_[c] = 0;
    send_removal_to(c, seq);
  }
}

void TreeRelay::graft_child(std::size_t c) {
  child_active_[c] = 1;
  if (slot_.value()) forward_trigger_to(c, *slot_.value());
}

void TreeRelay::deactivate_child(std::size_t c) {
  child_active_[c] = 0;
  reliable_down_[c].cancel();
}

void TreeRelay::prune_child(std::size_t c) {
  deactivate_child(c);
  // A crashed relay cannot signal: the prune degrades to a silent
  // deactivation and the stranded downstream copies are left to their
  // soft-state timeouts (or to the removal that chases them after
  // recovery).
  if (crashed_) return;
  if (mech_.explicit_removal && child_installed_[c]) {
    child_installed_[c] = 0;
    send_removal_to(c, next_seq_++);
  }
}

void TreeRelay::handle_from_upstream(const Message& msg) {
  if (crashed_) return;  // a dead process hears nothing
  switch (msg.type) {
    case MessageType::kTrigger: {
      const bool duplicate = slot_.holds(msg.value);
      if (mech_.reliable_trigger) {
        up_->send(Message{MessageType::kAckTrigger, 0, msg.seq, 0});
      }
      slot_.set(msg.value);
      slot_.arm_timeout();
      // Duplicates (retransmission after a lost ACK) are re-ACKed but not
      // re-forwarded: the downstream copies are already in flight or pending.
      if (!duplicate) {
        forward_trigger(msg.value);
        notify();
      }
      break;
    }
    case MessageType::kRefresh:
      slot_.set(msg.value);
      slot_.arm_timeout();
      // Forward the refresh copy down every active branch, best effort.
      for (std::size_t c = 0; c < down_.size(); ++c) {
        if (!child_active_[c]) continue;
        child_installed_[c] = 1;
        down_[c]->send(msg);
      }
      notify();
      break;
    case MessageType::kRemove:
      // Graceful explicit removal (SS+ER best effort; SS+RTR/HS reliable).
      // Always re-ACK so a lost ACK is repaired by the retransmission, but
      // propagate only once per removal seq -- a retransmitted removal must
      // not re-flood the subtree.
      if (mech_.reliable_removal) {
        up_->send(Message{MessageType::kAckRemove, 0, msg.seq, 0});
      }
      // The parent's seq counter is monotonic, so anything at or below the
      // last processed removal is a stale duplicate -- it must neither
      // re-flood the subtree nor wipe state a later graft re-installed.
      if (removal_seen_ && msg.seq <= removal_seq_seen_) break;
      removal_seen_ = true;
      removal_seq_seen_ = msg.seq;
      if (slot_.clear()) notify();
      forward_removal();
      break;
    case MessageType::kTeardown:
      // Reliable downstream propagation of a removal signal (HS recovery).
      up_->send(Message{MessageType::kAckNotice, 0, msg.seq, 0});
      if (slot_.clear()) notify();
      for (std::size_t c = 0; c < down_.size(); ++c) {
        child_installed_[c] = 0;
        reliable_down_[c].send(
            Message{MessageType::kTeardown, 0, next_seq_++, 0});
      }
      break;
    case MessageType::kAckNotice:
      reliable_up_.acknowledge(msg.seq);
      break;
    default:
      break;
  }
}

void TreeRelay::handle_from_downstream(const Message& msg, std::size_t child) {
  if (crashed_) return;  // a dead process hears nothing
  switch (msg.type) {
    case MessageType::kAckTrigger:
    case MessageType::kAckNotice:
    case MessageType::kAckRemove:
      reliable_down_[child].acknowledge(msg.seq);
      break;
    case MessageType::kNotice:
      if (mech_.external_failure_detector) {
        // HS recovery: acknowledge, drop our own state, keep flooding the
        // notice toward the sender.
        down_[child]->send(Message{MessageType::kAckNotice, 0, msg.seq, 0});
        if (slot_.value()) {
          slot_.clear();
          notify();
        }
        reliable_up_.send(Message{MessageType::kNotice, 0, next_seq_++, 0});
      } else if (slot_.value() && child_active_[child]) {
        // SS+RT one-hop repair: re-install our value down the branch the
        // notice came from (the other branches kept their copies) -- unless
        // the branch was pruned, in which case the timeout was the point.
        forward_trigger_to(child, *slot_.value());
      }
      break;
    default:
      break;
  }
}

void TreeRelay::stop() {
  slot_.clear();
  reliable_up_.cancel();
  for (ReliableSlot& slot : reliable_down_) slot.cancel();
}

bool TreeRelay::armed() const noexcept {
  return slot_.armed() || reliable_up_.armed() ||
         std::any_of(reliable_down_.begin(), reliable_down_.end(),
                     [](const ReliableSlot& slot) { return slot.armed(); });
}

void TreeRelay::crash() {
  const bool held = slot_.clear();
  reliable_up_.cancel();
  for (ReliableSlot& slot : reliable_down_) slot.cancel();
  crashed_ = true;
  if (held) notify();
}

void TreeRelay::recover() { crashed_ = false; }

void TreeRelay::external_removal_signal() {
  if (crashed_) return;  // the detector cannot fire inside a dead process
  if (!slot_.clear()) return;
  notify();
  reliable_up_.send(Message{MessageType::kNotice, 0, next_seq_++, 0});
  for (std::size_t c = 0; c < down_.size(); ++c) {
    child_installed_[c] = 0;
    reliable_down_[c].send(Message{MessageType::kTeardown, 0, next_seq_++, 0});
  }
}

}  // namespace sigcomp::protocols
