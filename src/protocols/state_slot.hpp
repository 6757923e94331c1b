// The mechanism-driven per-node state core shared by every protocol node.
//
// The paper's central claim is that the five protocols are nothing but
// combinations of mechanism switches (refresh, soft-state timeout, explicit
// removal, reliable trigger/removal, failure detector).  This header holds
// the two primitives those switches act on, shared by the single-hop
// engines (protocols/engine.hpp) and the tree nodes
// (protocols/multi_hop_node.hpp) alike:
//
//  * StateSlot -- the one piece of signaling state plus the soft-state
//    timeout guarding it, driven by MechanismSet (a node whose mechanisms
//    lack soft_timeout simply never arms one);
//  * ReliableSlot -- the tree nodes' reliable-transmission mechanism: at
//    most one outstanding message per link direction, retransmitted until
//    acknowledged, on the timers of the tree's TreeContext.
//
// Neither primitive decides protocol policy: owners sequence the calls
// (install, ACK emission, timeout arming, removal) so that wire behavior --
// and therefore the pinned golden traces -- is theirs alone.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "core/protocol.hpp"
#include "protocols/message.hpp"
#include "sim/channel.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace sigcomp::protocols {

/// Timer configuration shared by the engines.  `dist` selects deterministic
/// (real-protocol) or exponential (model-assumption) timer draws.
struct TimerSettings {
  sim::Distribution dist = sim::Distribution::kDeterministic;  ///< timer law
  double refresh = 5.0;   ///< R
  double timeout = 15.0;  ///< T
  double retrans = 0.12;  ///< Gamma (initial value when backing off)
  /// Staged retransmission (Pan & Schulzrinne's staged timers, cited by the
  /// paper): each unacknowledged retransmission multiplies the timer by
  /// this factor, capped at `backoff_cap * retrans`.  1.0 = fixed timer.
  double backoff = 1.0;
  double backoff_cap = 64.0;  ///< cap multiplier of the staged timer
};

/// The channel type every protocol node sends Messages through.
using MessageChannel = sim::Channel<Message>;

/// One node's copy of the signaling state plus the soft-state timeout that
/// guards it.  Lifecycle events map to methods: install/refresh (`set` +
/// `arm_timeout`), soft-state expiry (the internal timer, reported through
/// `on_expire`), and removal -- explicit, reliable or silent -- through
/// `clear`.  Whether a timeout exists at all comes from the MechanismSet,
/// not from the owner's protocol branch; a slot that is never armed (the
/// sender's authoritative root copy) is plain storage.
class StateSlot {
 public:
  /// `on_expire` (may be null) fires after a soft-state timeout cleared the
  /// value; the owner emits its removal notification there.  The slot
  /// keeps a reference to `timers`, not a copy: pass the owner's own
  /// member, which outlives the slot -- never a temporary or a by-value
  /// constructor parameter.
  StateSlot(sim::Simulator& sim, sim::Rng& rng, MechanismSet mech,
            const TimerSettings& timers, std::function<void()> on_expire);
  /// A temporary would dangle: refused at compile time.
  StateSlot(sim::Simulator& sim, sim::Rng& rng, MechanismSet mech,
            TimerSettings&& timers, std::function<void()> on_expire) = delete;

  StateSlot(const StateSlot&) = delete;             ///< non-copyable
  StateSlot& operator=(const StateSlot&) = delete;  ///< non-copyable

  /// Stores `value` (install or refresh).  Deliberately does NOT touch the
  /// timeout: owners call arm_timeout() at their protocol's arming point so
  /// event order on the wire is unchanged by the extraction.
  void set(std::int64_t value) noexcept { value_ = value; }

  /// (Re)arms the soft-state timeout with a fresh timer draw; no-op unless
  /// the mechanism set includes soft_timeout.
  void arm_timeout();

  /// Cancels the pending timeout, if any.
  void cancel_timeout();

  /// Removes the value and cancels the timeout.  Returns true when a value
  /// was actually held -- callers use this to suppress duplicate signaling
  /// (a retransmitted removal must not re-notify).
  bool clear();

  /// True when the held value equals `v` (duplicate-trigger detection).
  [[nodiscard]] bool holds(std::int64_t v) const noexcept {
    return value_ && *value_ == v;
  }

  /// The held value (nullopt when no state is installed).
  [[nodiscard]] std::optional<std::int64_t> value() const noexcept {
    return value_;
  }

  /// Number of soft-state timeout expirations so far.
  [[nodiscard]] std::uint64_t timeouts() const noexcept { return timeouts_; }

  /// True while the soft-state timeout is pending.
  [[nodiscard]] bool armed() const noexcept {
    return static_cast<bool>(timeout_timer_);
  }

 private:
  void on_timeout();

  // Hot first: a refresh's set() + arm_timeout() touches everything down to
  // mech_; the expiry path adds the rest.
  std::optional<std::int64_t> value_;
  sim::EventId timeout_timer_;
  sim::Simulator& sim_;
  sim::Rng& rng_;
  const TimerSettings& timers_;  ///< the owner's settings
  MechanismSet mech_;
  std::uint64_t timeouts_ = 0;
  std::function<void()> on_expire_;
};

struct TreeContext;

/// Per-direction reliable transmission slot of a tree node: at most one
/// outstanding message per link direction; a newer reliable send supersedes
/// the pending one (it always carries more recent information).
class ReliableSlot {
 public:
  /// Retransmits on `ctx.sim`, drawing each timer from `ctx.rng` as
  /// `ctx.timers.dist` with mean `ctx.timers.retrans`.  `ctx` must outlive
  /// the slot; `channel` may be null only if send() is never called.
  ReliableSlot(const TreeContext& ctx, MessageChannel* channel);

  /// Sends `msg` reliably: transmit now, retransmit until acknowledged.
  void send(Message msg);

  /// Processes an acknowledgment sequence number; returns true if it matched
  /// the outstanding message (which is then considered delivered).
  bool acknowledge(std::uint64_t seq);

  /// Drops any outstanding message.
  void cancel();

  /// True while a sent message awaits its acknowledgment.
  [[nodiscard]] bool outstanding() const noexcept { return outstanding_; }

  /// True while the retransmission timer is pending.
  [[nodiscard]] bool armed() const noexcept { return static_cast<bool>(timer_); }

 private:
  void arm();
  void on_timer();

  const TreeContext& ctx_;  ///< the tree's simulator, RNG and timers
  MessageChannel* channel_;
  Message pending_{};
  bool outstanding_ = false;
  sim::EventId timer_;
};

}  // namespace sigcomp::protocols
