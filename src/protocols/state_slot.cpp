#include "protocols/state_slot.hpp"

#include <utility>

#include "protocols/multi_hop_node.hpp"

namespace sigcomp::protocols {

// -------------------------------------------------------------- StateSlot --

StateSlot::StateSlot(sim::Simulator& sim, sim::Rng& rng, MechanismSet mech,
                     const TimerSettings& timers,
                     std::function<void()> on_expire)
    : sim_(sim),
      rng_(rng),
      timers_(timers),
      mech_(mech),
      on_expire_(std::move(on_expire)) {}

void StateSlot::arm_timeout() {
  if (!mech_.soft_timeout) return;
  cancel_timeout();
  timeout_timer_ = sim_.schedule_in(
      sim::sample(rng_, timers_.dist, timers_.timeout), [this] { on_timeout(); });
}

void StateSlot::cancel_timeout() { sim_.cancel_timer(timeout_timer_); }

bool StateSlot::clear() {
  cancel_timeout();
  if (!value_) return false;
  value_.reset();
  return true;
}

void StateSlot::on_timeout() {
  timeout_timer_.reset();
  if (!value_) return;
  value_.reset();
  ++timeouts_;
  if (on_expire_) on_expire_();
}

// ---------------------------------------------------------- ReliableSlot --

ReliableSlot::ReliableSlot(const TreeContext& ctx, MessageChannel* channel)
    : ctx_(ctx), channel_(channel) {}

void ReliableSlot::send(Message msg) {
  pending_ = msg;
  outstanding_ = true;
  channel_->send(pending_);
  arm();
}

bool ReliableSlot::acknowledge(std::uint64_t seq) {
  if (!outstanding_ || pending_.seq != seq) return false;
  cancel();
  return true;
}

void ReliableSlot::cancel() {
  outstanding_ = false;
  ctx_.sim.cancel_timer(timer_);
}

void ReliableSlot::arm() {
  ctx_.sim.cancel_timer(timer_);
  timer_ = ctx_.sim.schedule_in(
      sim::sample(ctx_.rng, ctx_.timers.dist, ctx_.timers.retrans),
      [this] { on_timer(); });
}

void ReliableSlot::on_timer() {
  timer_.reset();
  if (!outstanding_) return;
  channel_->send(pending_);
  arm();
}

}  // namespace sigcomp::protocols
