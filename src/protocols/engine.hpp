// Executable sender/receiver state machines for the single-hop setting.
//
// The five protocols are mechanism combinations (core/protocol.hpp), so a
// single pair of engines parameterized by MechanismSet implements all of
// them -- exactly the paper's "spectrum" framing.  The held state itself
// lives in a protocols::StateSlot (protocols/state_slot.hpp), the same
// mechanism-driven core the multi-hop tree nodes instantiate; the engines
// add the single-hop session choreography (epochs, staged retransmission
// backoff, explicit removal handshake) on top.  Factory helpers instantiate
// the engines for a named protocol.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "core/protocol.hpp"
#include "protocols/message.hpp"
#include "protocols/state_slot.hpp"
#include "sim/channel.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace sigcomp::protocols {

/// The signaling sender ("state installer").
///
/// Drives triggers, refreshes, retransmissions and explicit removals
/// according to the mechanism set.  Invokes `on_change` whenever its local
/// state value changes (the consistency monitor hooks in there).
class SenderEngine {
 public:
  /// Wires the sender to its outgoing channel; `on_change` (may be null)
  /// fires on every local state change.
  SenderEngine(sim::Simulator& sim, sim::Rng& rng, MechanismSet mechanisms,
               TimerSettings timers, MessageChannel& out,
               std::function<void()> on_change);

  SenderEngine(const SenderEngine&) = delete;             ///< non-copyable
  SenderEngine& operator=(const SenderEngine&) = delete;  ///< non-copyable

  /// Installs (or re-installs) local state and signals it to the receiver.
  void install(std::int64_t value);

  /// Updates the local state value; signaling as for install.
  void update(std::int64_t value);

  /// Removes local state; emits an explicit removal if the protocol has one.
  void remove();

  /// The sender crashes: state vanishes and all timers stop, but NOTHING is
  /// signaled -- no removal message, no final refresh.  Orphaned receiver
  /// state must be cleaned up by the receiver's own mechanisms (timeout) or
  /// by an external failure detector (hard state).  This is exactly the
  /// scenario Clark's original soft-state argument is about.
  void crash();

  /// Delivers a message from the receiver (ACKs, notices).
  void handle(const Message& msg);

  /// Cancels every pending timer and pending retransmission (session end).
  void reset();

  /// Starts a new session epoch; stale messages are ignored afterwards.
  void begin_epoch(std::uint64_t epoch);

  /// The installed state value (nullopt when removed).
  [[nodiscard]] std::optional<std::int64_t> value() const noexcept {
    return slot_.value();
  }
  /// True while an explicit removal is awaiting acknowledgment.
  [[nodiscard]] bool removal_pending() const noexcept { return removal_pending_; }
  /// The current session epoch.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

 private:
  void send_trigger();
  void arm_refresh();
  void on_refresh_timer();
  void arm_trigger_retrans();
  void on_trigger_retrans();
  void arm_removal_retrans();
  void on_removal_retrans();
  void notify();

  // Hot first: a refresh (on_refresh_timer -> send -> arm_refresh) touches
  // everything down to slot_'s value; triggers, ACKs and removals the rest.
  sim::Simulator& sim_;
  sim::Rng& rng_;
  MessageChannel& out_;
  sim::EventId refresh_timer_;
  std::uint64_t epoch_ = 0;
  std::uint64_t trigger_seq_ = 0;   ///< seq of the latest trigger content
  TimerSettings timers_;  ///< slot_ refers to it: declared before slot_
  /// The authoritative root copy: never armed, so it cannot time out.
  StateSlot slot_;
  MechanismSet mech_;
  bool awaiting_trigger_ack_ = false;
  bool removal_pending_ = false;
  std::uint64_t next_seq_ = 1;
  std::uint64_t removal_seq_ = 0;
  sim::EventId trigger_retrans_timer_;
  sim::EventId removal_retrans_timer_;
  double trigger_retrans_interval_ = 0.0;
  double removal_retrans_interval_ = 0.0;
  std::function<void()> on_change_;
};

/// The signaling receiver ("state holder").
class ReceiverEngine {
 public:
  /// Wires the receiver to its outgoing (toward-sender) channel; `on_change`
  /// (may be null) fires on every local state change.
  ReceiverEngine(sim::Simulator& sim, sim::Rng& rng, MechanismSet mechanisms,
                 TimerSettings timers, MessageChannel& out,
                 std::function<void()> on_change);

  ReceiverEngine(const ReceiverEngine&) = delete;             ///< non-copyable
  ReceiverEngine& operator=(const ReceiverEngine&) = delete;  ///< non-copyable

  /// Delivers a message from the sender.
  void handle(const Message& msg);

  /// External failure-detector signal (hard state): removes state and sends
  /// a notice so a live sender can re-install (the "false notification
  /// repair" of Sec. II).
  void external_removal_signal();

  /// Cancels the pending timeout timer (session end).
  void reset();

  /// Starts a new session epoch; stale messages are ignored afterwards.
  void begin_epoch(std::uint64_t epoch);

  /// The held state value (nullopt when no state is installed).
  [[nodiscard]] std::optional<std::int64_t> value() const noexcept {
    return slot_.value();
  }
  /// The current session epoch.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  /// Number of soft-state timeout expirations observed (tests use this).
  [[nodiscard]] std::uint64_t timeouts() const noexcept {
    return slot_.timeouts();
  }

 private:
  void on_expire();
  void notify();

  // Hot first: a refresh delivery (handle -> slot_.set/arm_timeout ->
  // notify) touches everything down to slot_; ACKs and notices the rest.
  std::uint64_t epoch_ = 0;
  MechanismSet mech_;
  std::function<void()> on_change_;
  TimerSettings timers_;  ///< slot_ refers to it: declared before slot_
  /// The held copy plus its soft-state timeout (the mechanism core).
  StateSlot slot_;
  sim::Simulator& sim_;
  sim::Rng& rng_;
  MessageChannel& out_;
};

}  // namespace sigcomp::protocols
