#include "protocols/engine.hpp"

#include <algorithm>
#include <utility>

namespace sigcomp::protocols {

// ---------------------------------------------------------------- sender --

SenderEngine::SenderEngine(sim::Simulator& sim, sim::Rng& rng,
                           MechanismSet mechanisms, TimerSettings timers,
                           MessageChannel& out, std::function<void()> on_change)
    : sim_(sim),
      rng_(rng),
      out_(out),
      timers_(timers),
      slot_(sim, rng, mechanisms, timers_, nullptr),
      mech_(mechanisms),
      on_change_(std::move(on_change)) {}

void SenderEngine::notify() {
  if (on_change_) on_change_();
}

void SenderEngine::begin_epoch(std::uint64_t epoch) {
  reset();
  epoch_ = epoch;
}

void SenderEngine::reset() {
  sim_.cancel_timer(refresh_timer_);
  sim_.cancel_timer(trigger_retrans_timer_);
  sim_.cancel_timer(removal_retrans_timer_);
  awaiting_trigger_ack_ = false;
  removal_pending_ = false;
  slot_.clear();
}

void SenderEngine::send_trigger() {
  out_.send(Message{MessageType::kTrigger, *slot_.value(), trigger_seq_, epoch_});
  if (mech_.reliable_trigger) {
    awaiting_trigger_ack_ = true;
    trigger_retrans_interval_ = timers_.retrans;  // fresh content: reset stage
    arm_trigger_retrans();
  }
}

void SenderEngine::install(std::int64_t value) {
  slot_.set(value);
  trigger_seq_ = next_seq_++;
  // An install supersedes a pending removal of the previous incarnation.
  removal_pending_ = false;
  sim_.cancel_timer(removal_retrans_timer_);
  send_trigger();
  if (mech_.refresh && !refresh_timer_) arm_refresh();
  notify();
}

void SenderEngine::update(std::int64_t value) {
  if (!slot_.value()) {
    install(value);
    return;
  }
  slot_.set(value);
  trigger_seq_ = next_seq_++;
  sim_.cancel_timer(trigger_retrans_timer_);
  send_trigger();
  notify();
}

void SenderEngine::remove() {
  slot_.clear();
  sim_.cancel_timer(refresh_timer_);
  sim_.cancel_timer(trigger_retrans_timer_);
  awaiting_trigger_ack_ = false;
  if (mech_.explicit_removal) {
    removal_seq_ = next_seq_++;
    out_.send(Message{MessageType::kRemove, 0, removal_seq_, epoch_});
    if (mech_.reliable_removal) {
      removal_pending_ = true;
      removal_retrans_interval_ = timers_.retrans;
      arm_removal_retrans();
    }
  }
  notify();
}

void SenderEngine::crash() {
  slot_.clear();
  sim_.cancel_timer(refresh_timer_);
  sim_.cancel_timer(trigger_retrans_timer_);
  sim_.cancel_timer(removal_retrans_timer_);
  awaiting_trigger_ack_ = false;
  removal_pending_ = false;
  notify();
}

void SenderEngine::arm_refresh() {
  refresh_timer_ = sim_.schedule_in(
      sim::sample(rng_, timers_.dist, timers_.refresh), [this] { on_refresh_timer(); });
}

void SenderEngine::on_refresh_timer() {
  refresh_timer_.reset();
  if (!slot_.value()) return;
  out_.send(Message{MessageType::kRefresh, *slot_.value(), trigger_seq_, epoch_});
  arm_refresh();
}

namespace {

/// Advances a staged retransmission interval by one backoff step.
double next_stage(double current, const TimerSettings& timers) {
  const double cap = timers.backoff_cap * timers.retrans;
  return std::min(current * std::max(1.0, timers.backoff), cap);
}

}  // namespace

void SenderEngine::arm_trigger_retrans() {
  sim_.cancel_timer(trigger_retrans_timer_);
  trigger_retrans_timer_ = sim_.schedule_in(
      sim::sample(rng_, timers_.dist, trigger_retrans_interval_),
      [this] { on_trigger_retrans(); });
}

void SenderEngine::on_trigger_retrans() {
  trigger_retrans_timer_.reset();
  if (!slot_.value() || !awaiting_trigger_ack_) return;
  out_.send(Message{MessageType::kTrigger, *slot_.value(), trigger_seq_, epoch_});
  trigger_retrans_interval_ = next_stage(trigger_retrans_interval_, timers_);
  arm_trigger_retrans();
}

void SenderEngine::arm_removal_retrans() {
  sim_.cancel_timer(removal_retrans_timer_);
  removal_retrans_timer_ = sim_.schedule_in(
      sim::sample(rng_, timers_.dist, removal_retrans_interval_),
      [this] { on_removal_retrans(); });
}

void SenderEngine::on_removal_retrans() {
  removal_retrans_timer_.reset();
  if (!removal_pending_) return;
  out_.send(Message{MessageType::kRemove, 0, removal_seq_, epoch_});
  removal_retrans_interval_ = next_stage(removal_retrans_interval_, timers_);
  arm_removal_retrans();
}

void SenderEngine::handle(const Message& msg) {
  if (msg.epoch != epoch_) return;  // straggler from a finished session
  switch (msg.type) {
    case MessageType::kAckTrigger:
      if (msg.seq == trigger_seq_ && awaiting_trigger_ack_) {
        awaiting_trigger_ack_ = false;
        sim_.cancel_timer(trigger_retrans_timer_);
      }
      break;
    case MessageType::kAckRemove:
      if (msg.seq == removal_seq_ && removal_pending_) {
        removal_pending_ = false;
        sim_.cancel_timer(removal_retrans_timer_);
      }
      break;
    case MessageType::kNotice:
      // The receiver (falsely or via timeout) removed our state; if we still
      // have it, re-install.
      if (slot_.value()) {
        trigger_seq_ = next_seq_++;
        sim_.cancel_timer(trigger_retrans_timer_);
        send_trigger();
      }
      break;
    default:
      break;  // data-plane messages never reach the sender
  }
}

// -------------------------------------------------------------- receiver --

ReceiverEngine::ReceiverEngine(sim::Simulator& sim, sim::Rng& rng,
                               MechanismSet mechanisms, TimerSettings timers,
                               MessageChannel& out,
                               std::function<void()> on_change)
    : mech_(mechanisms),
      on_change_(std::move(on_change)),
      timers_(timers),
      slot_(sim, rng, mechanisms, timers_, [this] { on_expire(); }),
      sim_(sim),
      rng_(rng),
      out_(out) {}

void ReceiverEngine::notify() {
  if (on_change_) on_change_();
}

void ReceiverEngine::begin_epoch(std::uint64_t epoch) {
  reset();
  epoch_ = epoch;
}

void ReceiverEngine::reset() {
  slot_.clear();
}

/// The soft-state timeout fired and the slot dropped the value: emit the
/// (possibly false-) removal notification if the protocol has one.
void ReceiverEngine::on_expire() {
  if (mech_.removal_notification) {
    out_.send(Message{MessageType::kNotice, 0, 0, epoch_});
  }
  notify();
}

void ReceiverEngine::external_removal_signal() {
  if (!slot_.clear()) return;
  if (mech_.removal_notification) {
    out_.send(Message{MessageType::kNotice, 0, 0, epoch_});
  }
  notify();
}

void ReceiverEngine::handle(const Message& msg) {
  if (msg.epoch != epoch_) return;
  switch (msg.type) {
    case MessageType::kTrigger:
      slot_.set(msg.value);
      if (mech_.reliable_trigger) {
        out_.send(Message{MessageType::kAckTrigger, 0, msg.seq, epoch_});
      }
      slot_.arm_timeout();
      notify();
      break;
    case MessageType::kRefresh:
      slot_.set(msg.value);
      slot_.arm_timeout();
      notify();
      break;
    case MessageType::kRemove:
      // Idempotent: always acknowledge so a lost ACK is repaired by the
      // sender's retransmission.
      if (mech_.reliable_removal) {
        out_.send(Message{MessageType::kAckRemove, 0, msg.seq, epoch_});
      }
      if (slot_.clear()) notify();
      break;
    default:
      break;
  }
}

}  // namespace sigcomp::protocols
