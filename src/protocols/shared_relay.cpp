// Shared-relay protocol endpoints (see shared_relay.hpp for the model).
#include "protocols/shared_relay.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace sigcomp::protocols {

namespace {
constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();
}  // namespace

// ----------------------------------------------------------- RelayClient --

RelayClient::RelayClient(sim::Simulator& sim, sim::Rng& rng,
                         const TimerSettings& timers, std::uint64_t relay,
                         FabricSend send)
    : sim_(sim),
      rng_(rng),
      timers_(timers),
      relay_(relay),
      send_(std::move(send)) {}

void RelayClient::start(std::int64_t value) {
  value_ = value;
  active_ = true;
  ++sent_;
  send_(relay_, Message{MessageType::kTrigger, value_, sent_, 0});
  schedule_refresh();
}

void RelayClient::stop() {
  if (!active_) return;
  active_ = false;
  sim_.cancel_timer(refresh_event_);
  ++sent_;
  send_(relay_, Message{MessageType::kRemove, value_, sent_, 0});
}

void RelayClient::handle(const Message& msg) {
  // Everything the relay echoes (ACK-TRIGGER on install, fan-out REFRESH)
  // is counted; a straggler echo after stop() is counted too -- arrival is
  // deterministic, so so is the count.
  (void)msg;
  ++echoes_;
}

void RelayClient::schedule_refresh() {
  refresh_event_ = sim_.schedule_in(
      sim::sample(rng_, timers_.dist, timers_.refresh), [this] {
        refresh_event_.reset();
        if (!active_) return;
        ++sent_;
        send_(relay_, Message{MessageType::kRefresh, value_, sent_, 0});
        schedule_refresh();
      });
}

// -------------------------------------------------------- SharedRelayHub --

SharedRelayHub::SharedRelayHub(sim::Simulator& sim, sim::Rng& rng,
                               MechanismSet mech, const TimerSettings& timers,
                               std::vector<std::uint64_t> subscribers,
                               FabricSend send,
                               std::function<void()> on_complete)
    : sim_(sim),
      rng_(rng),
      timers_(timers),
      subscribers_(std::move(subscribers)),
      send_(std::move(send)),
      on_complete_(std::move(on_complete)) {
  std::sort(subscribers_.begin(), subscribers_.end());
  for (std::size_t i = 0; i < subscribers_.size(); ++i) {
    subs_.emplace_back(sim, rng_, mech, timers_,
                       [this, i] { on_expire(i); });
  }
}

void SharedRelayHub::begin() {
  missing_weight_ = sim::TimeWeightedValue(sim_.now());
  schedule_fanout();
}

void SharedRelayHub::handle(std::uint64_t source, const Message& msg) {
  const std::size_t i = index_of(source);
  if (i == kNpos) {
    ++unknown_dropped_;
    return;
  }
  Sub& sub = subs_[i];
  switch (msg.type) {
    case MessageType::kTrigger:
      // Install (or re-install after an expiry): acknowledge immediately.
      sub.slot.set(msg.value);
      sub.slot.arm_timeout();
      sub.engaged = true;
      set_missing(i, false);
      ++installs_;
      ++sent_;
      send_(source, Message{MessageType::kAckTrigger, msg.value, msg.seq, 0});
      break;
    case MessageType::kRefresh:
      // A refresh re-arms the guard; one that finds the slot expired
      // re-installs (classic soft-state recovery, priced as an install).
      if (sub.departed) break;
      if (sub.slot.value().has_value()) {
        ++refreshes_;
      } else {
        ++installs_;
      }
      sub.slot.set(msg.value);
      sub.slot.arm_timeout();
      sub.engaged = true;
      set_missing(i, false);
      break;
    case MessageType::kRemove:
      sub.slot.clear();
      set_missing(i, false);
      if (!sub.departed) {
        sub.departed = true;
        sub.engaged = false;
        ++departed_;
        if (complete()) {
          sim_.cancel_timer(fanout_event_);
          if (on_complete_) on_complete_();
        }
      }
      break;
    default:
      // No other type crosses the fabric toward a hub.
      ++unknown_dropped_;
      break;
  }
}

std::uint64_t SharedRelayHub::soft_timeouts() const noexcept {
  std::uint64_t n = 0;
  for (const Sub& sub : subs_) n += sub.slot.timeouts();
  return n;
}

void SharedRelayHub::on_expire(std::size_t index) {
  // The StateSlot already cleared itself; an engaged subscriber is now
  // missing until its next refresh re-installs (fan-out toward it pauses:
  // the hub has nothing to echo).
  if (subs_[index].engaged && !subs_[index].departed) {
    set_missing(index, true);
  }
}

void SharedRelayHub::set_missing(std::size_t index, bool missing) {
  Sub& sub = subs_[index];
  if (sub.missing == missing) return;
  sub.missing = missing;
  missing_count_ += missing ? 1 : static_cast<std::size_t>(-1);
  missing_weight_.set(sim_.now(), static_cast<double>(missing_count_));
}

void SharedRelayHub::schedule_fanout() {
  fanout_event_ = sim_.schedule_in(
      sim::sample(rng_, timers_.dist, timers_.refresh), [this] {
        fanout_event_.reset();
        // Per-subscriber refresh fan-out, ascending index order: every held
        // value is re-echoed to its subscriber.
        for (std::size_t i = 0; i < subs_.size(); ++i) {
          const Sub& sub = subs_[i];
          if (sub.departed || !sub.slot.value().has_value()) continue;
          ++sent_;
          send_(subscribers_[i],
                Message{MessageType::kRefresh, *sub.slot.value(), 0, 0});
        }
        schedule_fanout();
      });
}

std::size_t SharedRelayHub::index_of(std::uint64_t source) const {
  const auto it =
      std::lower_bound(subscribers_.begin(), subscribers_.end(), source);
  if (it == subscribers_.end() || *it != source) return kNpos;
  return static_cast<std::size_t>(it - subscribers_.begin());
}

}  // namespace sigcomp::protocols
