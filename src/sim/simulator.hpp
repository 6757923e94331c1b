// The discrete-event simulation engine: a clock plus the pending-event set.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/timing_wheel_queue.hpp"

namespace sigcomp::sim {

/// Which pending-event structure a Simulator runs on.  Both backends expose
/// the same interface and the same observable pop order -- (time, then
/// insertion seq) -- so the choice is a pure performance knob; the golden-
/// trace and differential suites lock the equivalence.
enum class EventQueueBackend {
  kHeap,   ///< pooled 4-ary heap (EventQueue): O(log n) arm/cancel
  kWheel,  ///< hashed timing wheel (TimingWheelQueue): O(1) arm/cancel
};

/// CLI/bench spelling of a backend: "heap" or "wheel".
[[nodiscard]] const char* to_string(EventQueueBackend backend) noexcept;

/// Parses "heap"/"wheel" (the to_string spellings); nullopt on anything
/// else.
[[nodiscard]] std::optional<EventQueueBackend> parse_event_queue_backend(
    std::string_view name) noexcept;

/// Build-selected default backend: kHeap unless the build sets
/// -DSIGCOMP_DEFAULT_EVENT_QUEUE=wheel (the CI matrix leg that runs the
/// whole suite -- golden traces included -- on the wheel).
#if defined(SIGCOMP_DEFAULT_EVENT_QUEUE_WHEEL)
inline constexpr EventQueueBackend kDefaultEventQueueBackend =
    EventQueueBackend::kWheel;
#else
inline constexpr EventQueueBackend kDefaultEventQueueBackend =
    EventQueueBackend::kHeap;
#endif

/// Sequential discrete-event simulator.
///
/// Typical use:
///   Simulator sim;
///   sim.schedule_in(1.0, [&] { ... });
///   sim.run_until(100.0);
///
/// Besides the event queue a simulator can hold an ARRIVAL STREAM
/// (set_arrivals): a fixed set of timed arrivals kept outside the queue as a
/// sorted 4 B-per-arrival cursor.  Every run method merges it with the
/// queue.  Arrival i runs at times[i], counts as one executed event, and
/// orders exactly like a queued event pushed before everything else: it
/// wins a tie with any queued event, and equal-time arrivals run in index
/// order.  So a stream installed on a fresh simulator executes exactly like
/// pushing `schedule_at(times[i], body(i))` for i = 0, 1, ... up front,
/// without holding a pending event per arrival.
class Simulator {
 public:
  /// Constructs a simulator on the build-selected default backend.
  Simulator() : Simulator(kDefaultEventQueueBackend) {}

  /// Constructs a simulator on an explicit event-queue backend.
  explicit Simulator(EventQueueBackend backend);

  /// The event-queue backend this simulator runs on.
  [[nodiscard]] EventQueueBackend backend() const noexcept {
    return std::holds_alternative<TimingWheelQueue>(queue_)
               ? EventQueueBackend::kWheel
               : EventQueueBackend::kHeap;
  }

  /// Current simulation time (seconds).
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedules `action` at absolute time `t` (must be >= now()).  Callbacks
  /// are EventCallback: any `void()` callable, stored inline when its
  /// captures fit the 40-byte EventCallback::kInlineCapacity (always, on the
  /// library's own paths).
  EventId schedule_at(Time t, EventCallback action);

  /// Schedules `action` after `delay` seconds (negative delays are clamped
  /// to "immediately").
  EventId schedule_in(Time delay, EventCallback action);

  /// Installs the arrival stream: arrival i runs `on_arrival(i)` at
  /// `times[i]`.  The simulator keeps the span -- it must outlive every run
  /// call -- and builds its cursor sorted by (time, index).  Throws
  /// std::invalid_argument on a time before now() or not finite, and
  /// std::logic_error while a previous stream still has arrivals pending,
  /// and std::length_error on more than 2^32 - 1 arrivals (the cursor
  /// holds 32-bit indices).
  void set_arrivals(std::span<const Time> times,
                    std::function<void(std::uint32_t)> on_arrival);

  /// Cancels a pending event.  Returns false when it already ran/cancelled.
  bool cancel(EventId id) {
    return std::visit([id](auto& queue) { return queue.cancel(id); }, queue_);
  }

  /// Cancels the event a timer handle names, if any, and empties the
  /// handle: the one way protocol objects stop a timer.  Returns true when
  /// a pending event was cancelled; false for an empty handle or an event
  /// that already ran or was cancelled (the handle ends empty either way).
  bool cancel_timer(EventId& timer) {
    if (!timer) return false;
    const bool cancelled = cancel(timer);
    timer.reset();
    return cancelled;
  }

  /// Defuses the event a timer handle names, if any, and empties the
  /// handle: its callback becomes a no-op in place.  The event keeps its
  /// time and seq, so it still pops where it would have, still counts in
  /// events_executed() and still moves now() -- only its work is gone.  An
  /// owner that must let go of an event without changing the event stream
  /// defuses it instead of cancelling it.  Returns true when a pending
  /// event was defused; false for an empty handle or an event that already
  /// ran or was cancelled (the handle ends empty either way).
  bool defuse(EventId& timer) {
    if (!timer) return false;
    const EventId id = timer;
    timer.reset();
    return std::visit([id](auto& queue) { return queue.defuse(id); }, queue_);
  }

  /// Executes the next event (queued or arrival), if any.  Returns false
  /// when nothing is pending.
  bool step();

  /// Runs events up to and including time `t`; the clock then rests at `t`.
  void run_until(Time t);

  /// Runs until no events remain or `max_events` have executed.
  void run(std::uint64_t max_events = std::numeric_limits<std::uint64_t>::max());

  /// Advances through every event with time <= `horizon` using batched
  /// expiry delivery: all due events are drained from the queue in one pass
  /// (amortizing pops on the refresh-storm hot path), then dispatched in
  /// exact pop order, merging in any event the callbacks schedule inside the
  /// slice.  `stop` is polled after every executed event; when it returns
  /// true the slice aborts immediately -- undispatched drained events are
  /// requeued untouched -- and run_slice returns true.  Unlike run_until,
  /// the clock is NOT bumped to `horizon`; it rests at the last executed
  /// event so a caller observing now() after a stop sees the same value a
  /// step()-driven loop would.  The executed event sequence is bit-identical
  /// to a step() loop over the same horizon.
  template <typename Stop>
  bool run_slice(Time horizon, Stop&& stop) {
    return std::visit(
        [&](auto& queue) { return run_slice_on(queue, horizon, stop); },
        queue_);
  }

  /// Time of the earliest pending event or arrival, or nullopt when idle.
  /// The non-throwing companion to the queue backends' next_time().
  [[nodiscard]] std::optional<Time> next_pending_time() const {
    return next_pending_within(std::numeric_limits<Time>::infinity());
  }

  /// Bounded companion to next_pending_time(), for negotiating a common
  /// slice horizon across many simulators: returns the earliest pending
  /// time only when it is <= `bound`, and lets the backend prove "nothing
  /// at or before the bound" cheaply (the timing wheel answers from its
  /// tick cursor without rotating).  The cross-shard fabric computes its
  /// epoch horizon as a running min over every shard through this call.
  /// A pending arrival at or before `bound` counts, and tightens the
  /// bound the queue is asked about.
  [[nodiscard]] std::optional<Time> next_pending_within(Time bound) const {
    std::optional<Time> next;
    if (arrival_pending() && next_arrival_time() <= bound) {
      next = next_arrival_time();
      bound = *next;
    }
    Time t = 0.0;
    const bool queued = std::visit(
        [bound, &t](const auto& queue) {
          return queue.peek_ready_within(bound, t);
        },
        queue_);
    if (queued && (!next || t < *next)) next = t;
    return next;
  }

  /// True when no events or arrivals are pending.
  [[nodiscard]] bool idle() const noexcept {
    return !arrival_pending() &&
           std::visit([](const auto& queue) { return queue.empty(); }, queue_);
  }
  /// Number of pending (live) events, arrivals included.
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return arrival_order_.size() - next_arrival_ +
           std::visit([](const auto& queue) { return queue.size(); }, queue_);
  }
  /// Events executed since construction.
  [[nodiscard]] std::uint64_t events_executed() const noexcept { return executed_; }
  /// Slot-pool high-water mark of the underlying event queue
  /// (EventQueue::slot_capacity).  Tests assert it stays flat across
  /// session start/stop churn -- the zero-allocation teardown contract --
  /// and that pending arrivals, which hold no slot, do not raise it.
  [[nodiscard]] std::size_t slot_capacity() const noexcept {
    return std::visit([](const auto& queue) { return queue.slot_capacity(); },
                      queue_);
  }

 private:
  [[nodiscard]] bool arrival_pending() const noexcept {
    return next_arrival_ < arrival_order_.size();
  }
  // Time of the cursor's next arrival (precondition: arrival_pending()).
  [[nodiscard]] Time next_arrival_time() const noexcept {
    return arrival_times_[arrival_order_[next_arrival_]];
  }

  // Executes the earliest pending event -- the next arrival or the queue's
  // front -- when it is due, and returns whether one ran.  Due means an
  // arrival at time <= `limit`, or a queued event at time <= `limit` (time
  // < `limit` when `strict_queue`).  An arrival wins a time tie with a
  // queued event: it stands for an event pushed before all of them.
  template <typename Queue>
  bool execute_due(Queue& queue, Time limit, bool strict_queue) {
    Time t = 0.0;
    const bool queued =
        queue.peek_ready(t) && (strict_queue ? t < limit : t <= limit);
    if (arrival_pending()) {
      const Time a = next_arrival_time();
      if (a <= limit && (!queued || a <= t)) {
        const std::uint32_t i = arrival_order_[next_arrival_++];
        now_ = a;
        ++executed_;
        on_arrival_(i);
        return true;
      }
    }
    if (!queued) return false;
    auto event = queue.pop();
    now_ = event.time;
    ++executed_;
    event.action();
    return true;
  }

  // Returns every undispatched drained event (from index `from` on) to the
  // queue, preserving (time, seq) so pop order is unchanged.  Returns true
  // -- the "stopped" result -- so the dispatch loop can `return
  // requeue_rest(...)`.
  template <typename Queue>
  bool requeue_rest(Queue& queue, std::size_t from) {
    for (std::size_t i = from; i < drain_buf_.size(); ++i) {
      queue.requeue_drained(drain_buf_[i]);
    }
    return true;
  }

  // run_slice over a concrete backend.  One drain_due pass, then dispatch:
  // before each buffered event, execute every arrival at or before its time
  // and every queue event scheduled strictly earlier (events pushed by
  // slice callbacks; at equal times the buffered event has the smaller seq,
  // so strict < preserves pop order).  take_drained's generation check
  // skips buffered events that a callback cancelled mid-slice.  A tail loop
  // handles arrivals and callback-scheduled events still inside the
  // horizon after the buffer is exhausted.
  template <typename Queue, typename Stop>
  bool run_slice_on(Queue& queue, Time horizon, Stop& stop) {
    drain_buf_.clear();
    queue.drain_due(horizon, drain_buf_);
    for (std::size_t i = 0; i < drain_buf_.size(); ++i) {
      const DrainedEvent& e = drain_buf_[i];
      while (execute_due(queue, e.time, /*strict_queue=*/true)) {
        if (stop()) return requeue_rest(queue, i);
      }
      EventCallback action;
      if (!queue.take_drained(e, action)) continue;  // cancelled mid-slice
      now_ = e.time;
      ++executed_;
      action();
      if (stop()) return requeue_rest(queue, i + 1);
    }
    while (execute_due(queue, horizon, /*strict_queue=*/false)) {
      if (stop()) return true;
    }
    return false;
  }

  std::variant<EventQueue, TimingWheelQueue> queue_;
  Time now_ = 0.0;
  std::uint64_t executed_ = 0;
  // Scratch buffer for run_slice's batched expiry delivery; member so the
  // per-slice drain reuses capacity instead of reallocating.
  std::vector<DrainedEvent> drain_buf_;
  // The arrival stream (set_arrivals): times by arrival index, the indices
  // sorted by (time, index), the cursor into them, and the arrival body.
  std::span<const Time> arrival_times_;
  std::vector<std::uint32_t> arrival_order_;
  std::size_t next_arrival_ = 0;
  std::function<void(std::uint32_t)> on_arrival_;
};

}  // namespace sigcomp::sim
