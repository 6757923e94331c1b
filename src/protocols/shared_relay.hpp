// Shared-relay sessions: the first inter-session workload of the farm.
//
// N farm sessions (the subscribers), living in arbitrary shards, install
// one piece of state each through a single shared relay session -- fan-in
// at the relay, per-subscriber refresh fan-out back down.  The pair of
// classes here is the protocol half of that workload; the transport half is
// the cross-shard fabric (exp/shard_ring.hpp), reached through a FabricSend
// callback so this layer never sees rings, shards or epochs:
//
//  * RelayClient rides inside a subscriber session.  On session start it
//    installs its value at the relay (TRIGGER), refreshes it on its own
//    timer (REFRESH), and announces its departure (REMOVE) when the
//    carrying session is absorbed.  It counts what the relay echoes back.
//  * SharedRelayHub IS the relay session.  Per subscriber it keeps a
//    StateSlot guarded by the protocol's soft-state timeout (the same
//    mechanism switches as every other node -- a mechanism set without
//    soft_timeout simply never expires), acknowledges installs, and runs
//    one periodic fan-out process that re-echoes every held value to its
//    subscriber.  It completes deterministically when every subscriber's
//    REMOVE has been delivered -- the fabric is lossless, so completion is
//    a function of the subscribers' end times alone.
//
// Determinism: both sides draw every timer from the dedicated
// rng::kSessionRelay substream of their own session's seed family, so
// enabling shared relays perturbs no other stream, and a zero-relay run
// never touches stream 8 at all.  Fan-out iterates subscribers in ascending
// index order; message arrival order is the fabric's stamped total order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "core/protocol.hpp"
#include "protocols/message.hpp"
#include "protocols/state_slot.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace sigcomp::protocols {

/// How relay-layer endpoints emit into the cross-shard fabric: destination
/// session (GLOBAL index) plus the wire message.  The farm binds this to a
/// stamped ring push.
using FabricSend = std::function<void(std::uint64_t, const Message&)>;

/// Subscriber-side endpoint of a shared relay (rides inside a farm session).
class RelayClient {
 public:
  /// `rng` must outlive the client (the session's kSessionRelay stream).
  /// `send` delivers into the fabric; `relay` is the relay session's global
  /// index.
  RelayClient(sim::Simulator& sim, sim::Rng& rng, const TimerSettings& timers,
              std::uint64_t relay, FabricSend send);

  RelayClient(const RelayClient&) = delete;             ///< non-copyable
  RelayClient& operator=(const RelayClient&) = delete;  ///< non-copyable

  /// Installs at the relay and starts the refresh process (call from the
  /// carrying session's begin()).
  void start(std::int64_t value);

  /// Announces departure (REMOVE) and stops refreshing (call from the
  /// carrying session's completion; safe to call without start()).
  void stop();

  /// A message echoed back by the relay (ACK-TRIGGER or fan-out REFRESH).
  void handle(const Message& msg);

  /// Messages this client sent into the fabric (install + refreshes +
  /// remove) -- folded into the carrying session's message counts.
  [[nodiscard]] std::uint64_t messages_sent() const noexcept { return sent_; }

  /// Relay echoes received (ACKs plus fan-out refreshes).
  [[nodiscard]] std::uint64_t echoes() const noexcept { return echoes_; }

 private:
  void schedule_refresh();

  sim::Simulator& sim_;
  sim::Rng& rng_;
  TimerSettings timers_;
  std::uint64_t relay_;
  FabricSend send_;
  std::int64_t value_ = 0;
  bool active_ = false;
  std::uint64_t sent_ = 0;
  std::uint64_t echoes_ = 0;
  sim::EventId refresh_event_;
};

/// The relay session: per-subscriber soft state, install fan-in, periodic
/// per-subscriber refresh fan-out.
class SharedRelayHub {
 public:
  /// `subscribers` lists the subscriber sessions' global indices (the hub
  /// accepts messages only from them); `on_complete` fires when the last
  /// subscriber's REMOVE arrives.  `rng` is the relay session's
  /// kSessionRelay stream; `mech`/`timers` are the run's protocol switches
  /// -- soft-state expiry at the hub exists exactly when the protocol has
  /// soft_timeout.
  SharedRelayHub(sim::Simulator& sim, sim::Rng& rng, MechanismSet mech,
                 const TimerSettings& timers,
                 std::vector<std::uint64_t> subscribers, FabricSend send,
                 std::function<void()> on_complete);

  SharedRelayHub(const SharedRelayHub&) = delete;             ///< non-copyable
  SharedRelayHub& operator=(const SharedRelayHub&) = delete;  ///< non-copyable

  /// Starts the fan-out refresh process (the relay session's begin()).
  void begin();

  /// A fabric message from subscriber `source` (global index).  Unknown
  /// sources are counted and dropped -- the farm never routes one, but the
  /// hub does not trust its transport.
  void handle(std::uint64_t source, const Message& msg);

  /// True once every subscriber has departed.
  [[nodiscard]] bool complete() const noexcept {
    return departed_ == subscribers_.size();
  }

  /// Time-weighted mean, over [start, end], of the fraction of engaged
  /// subscribers (installed once, not yet departed) whose slot sits empty
  /// after a soft-state expiry -- the relay-side inconsistency measure.
  [[nodiscard]] double missing_fraction(double end) const {
    return subscribers_.empty()
               ? 0.0
               : missing_weight_.mean(end) /
                     static_cast<double>(subscribers_.size());
  }

  [[nodiscard]] std::uint64_t installs() const noexcept { return installs_; }
  [[nodiscard]] std::uint64_t refreshes() const noexcept { return refreshes_; }
  /// Soft-state expirations across every subscriber slot.
  [[nodiscard]] std::uint64_t soft_timeouts() const noexcept;
  /// Messages the hub sent into the fabric (ACKs + fan-out refreshes).
  [[nodiscard]] std::uint64_t messages_sent() const noexcept { return sent_; }
  /// Messages from unknown sources, dropped.
  [[nodiscard]] std::uint64_t unknown_dropped() const noexcept {
    return unknown_dropped_;
  }

 private:
  /// One subscriber's state at the hub.  Lives in a deque: StateSlot is
  /// neither copyable nor movable, and deque emplacement never relocates.
  struct Sub {
    Sub(sim::Simulator& sim, sim::Rng& rng, MechanismSet mech,
        const TimerSettings& timers, std::function<void()> on_expire)
        : slot(sim, rng, mech, timers, std::move(on_expire)) {}
    StateSlot slot;
    bool engaged = false;   ///< installed at least once, not yet departed
    bool departed = false;  ///< REMOVE received
    bool missing = false;   ///< engaged but slot empty (post-expiry)
  };

  void on_expire(std::size_t index);
  void set_missing(std::size_t index, bool missing);
  void schedule_fanout();
  /// Subscriber table index of global session `source`, or npos.
  [[nodiscard]] std::size_t index_of(std::uint64_t source) const;

  sim::Simulator& sim_;
  sim::Rng& rng_;
  TimerSettings timers_;
  std::vector<std::uint64_t> subscribers_;  ///< sorted global indices
  FabricSend send_;
  std::function<void()> on_complete_;
  std::deque<Sub> subs_;  ///< parallel to subscribers_

  std::size_t departed_ = 0;
  std::size_t missing_count_ = 0;
  std::uint64_t installs_ = 0;
  std::uint64_t refreshes_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t unknown_dropped_ = 0;
  sim::TimeWeightedValue missing_weight_;  ///< integrates missing_count_
  sim::EventId fanout_event_;
};

}  // namespace sigcomp::protocols
