// Hashed timing-wheel backend for the pending-event set.
//
// The soft-state protocols are timer machines: the dominant operation mix is
// arm/cancel/re-arm churn of refresh timeouts that usually never fire.  The
// pooled 4-ary heap (event_queue.hpp) services that mix in O(log n); this
// backend makes it O(1) with the classic hashed-wheel design (Varghese &
// Lauck), while preserving the pinned (time, insertion-seq) pop order
// bit-for-bit:
//
//  * Pending events live in the same pooled-slot / free-list representation
//    as EventQueue (zero allocations and zero hash lookups in steady state;
//    cancellation is an O(1) generation check plus an O(1) intrusive-list
//    unlink).
//  * Each event is bucketed by tick = floor(time / tick).  Ticks inside the
//    wheel window hash into a power-of-two array of intrusive lists; ticks
//    beyond the window go to an overflow "far" list that is cascaded into
//    the wheel when it rotates past the old horizon.  An occupancy bitmap
//    makes "next non-empty bucket" a word-scan, and when the wheel drains
//    completely the clock jumps straight to the earliest far tick instead of
//    stepping through empty buckets.
//  * Exact pop order does NOT come from the buckets: when the wheel reaches
//    a tick, that bucket is drained into a small "due" heap ordered by the
//    exact same (time, seq) comparator as EventQueue.  Bucketing only
//    decides *when* an event enters the due heap, never how it is ordered,
//    so the pop sequence is the unique (time, seq)-sorted order of live
//    events -- identical to the heap backend, husks, ties and all.  The due
//    heap holds one bucket's worth of events (plus already-due pushes), so
//    its O(log n) cost is over a tiny n.
//
// The wheel geometry (tick duration, slot count) is a pure performance
// knob: any geometry yields the same pop stream, which is what the
// differential and golden-trace suites lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"

namespace sigcomp::sim {

/// Hashed timing wheel with the same interface, validation behavior and
/// observable pop order as EventQueue; O(1) arm/cancel/re-arm.
class TimingWheelQueue {
 public:
  /// Default bucket width in seconds.  Protocol timers in this codebase
  /// (refresh intervals, RTOs, holddowns) live in the 0.1 s -- 60 s range,
  /// so 50 ms buckets keep same-bucket collisions (the only source of due-
  /// heap work) rare without inflating the wheel's memory footprint.
  static constexpr Time kDefaultTickSeconds = 0.05;

  /// Default wheel size (power of two).  2048 x 50 ms = a 102.4 s window:
  /// wide enough that steady-state refresh timers never touch the far list.
  static constexpr std::size_t kDefaultWheelSlots = 2048;

  /// Constructs a wheel with the given bucket width and slot count.
  /// `tick_seconds` must be finite and positive; `wheel_slots` must be a
  /// power of two >= 2 (throws std::invalid_argument otherwise).  Geometry
  /// affects performance only, never pop order -- tests use tiny wheels to
  /// force far-list cascades through the same observable behavior.
  explicit TimingWheelQueue(Time tick_seconds = kDefaultTickSeconds,
                            std::size_t wheel_slots = kDefaultWheelSlots);

  /// Adds an event; `time` must be finite and `action` non-empty (throws
  /// std::invalid_argument otherwise, exactly like EventQueue::push).
  /// Returns a cancellation handle.  O(1); allocation-free once the pool
  /// has grown to the workload's high-water mark.
  EventId push(Time time, EventCallback action);

  /// Cancels a pending event in O(1); returns false if already
  /// executed/cancelled.  The slot (and its callback) are reclaimed
  /// immediately.  Events still in a wheel bucket or the far list are
  /// unlinked exactly (no garbage); only events already moved to the due
  /// heap leave a {time, seq} husk behind, reclaimed as in EventQueue.
  bool cancel(EventId id);

  /// Replaces a pending event's callback with a no-op in place, exactly
  /// like EventQueue::defuse: the event keeps its slot, region, time and
  /// seq, so it still pops in the same order.  Returns false if already
  /// executed/cancelled.
  bool defuse(EventId id);

  /// True when no live event remains.
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// Number of live (pending, uncancelled) events.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Entries physically held by the due heap: live due events plus
  /// cancelled husks not yet reclaimed.  Compaction keeps this below
  /// max(2 * live-due, compaction threshold), the same bound EventQueue
  /// enforces on its single heap; tests assert it.
  [[nodiscard]] std::size_t heap_entries() const noexcept {
    return due_.size();
  }

  /// Slots in the pool (the high-water mark of concurrently pending
  /// events); free-list recycling keeps this flat under schedule/cancel
  /// churn -- tests assert no growth across millions of cycles.
  [[nodiscard]] std::size_t slot_capacity() const noexcept {
    return slots_.size();
  }

  /// Number of live events currently hashed into wheel buckets.  Placement
  /// observability for tests (cascade assertions); advances performed by
  /// const observers may move events between regions.
  [[nodiscard]] std::size_t wheel_events() const noexcept {
    return wheel_count_;
  }

  /// Number of live events currently on the overflow far list (scheduled
  /// beyond the wheel horizon).  Placement observability for tests.
  [[nodiscard]] std::size_t far_events() const noexcept { return far_count_; }

  /// The configured bucket width in seconds.
  [[nodiscard]] Time tick_seconds() const noexcept { return tick_; }

  /// The configured wheel size (power of two).
  [[nodiscard]] std::size_t wheel_slots() const noexcept {
    return buckets_.size();
  }

  /// Time of the earliest live event.  Throws std::logic_error when empty.
  [[nodiscard]] Time next_time() const;

  /// An event handed back by pop().
  struct PoppedEvent {
    Time time;             ///< scheduled execution time
    EventCallback action;  ///< the callback to invoke
  };
  /// Pops and returns the earliest live event -- the (time, insertion-seq)
  /// minimum, exactly as EventQueue would.  Throws std::logic_error when
  /// empty.
  PoppedEvent pop();

  /// Extracts every live event with time <= `horizon` into `out` (appended),
  /// in exact pop order -- bit-identical to the sequence a pop() loop would
  /// yield.  Drained events remain LIVE (they count in size(), and cancel()
  /// still works on them) but are invisible to pop()/next_time()/
  /// peek_ready(); the caller must claim each one with take_drained() or put
  /// it back with requeue_drained() before resuming pop-driven execution.
  /// Amortizes due-heap pops on the batched-expiry hot path.
  void drain_due(Time horizon, std::vector<DrainedEvent>& out);

  /// Claims a drained event: moves its callback into `action`, releases the
  /// slot and returns true.  Returns false when the event was cancelled
  /// after the drain (the slot may have been reused by a newer push) --
  /// callers must skip such events.
  bool take_drained(const DrainedEvent& event, EventCallback& action);

  /// Returns a drained event to the pending set, restoring it to exactly
  /// the state it had before drain_due (same time, same seq, so the pop
  /// order is unchanged).  No-op when the event was cancelled after the
  /// drain.
  void requeue_drained(const DrainedEvent& event);

  /// Like next_time() but non-throwing: writes the earliest live event's
  /// time into `time` and returns true, or returns false when no live
  /// undrained event remains.
  [[nodiscard]] bool peek_ready(Time& time) const;

  /// Bounded peek for slice-horizon negotiation: writes the earliest
  /// pending time and returns true only when that time is <= `bound`.
  /// Where the unbounded peek_ready would rotate the wheel (cascade the far
  /// list, scan buckets) just to surface an event far in the future, this
  /// answers false straight from the tick cursor when every pending event
  /// provably lies past the bound -- the common case when many shards
  /// negotiate one epoch horizon and most are idle until later.  Exact by
  /// contract: a false return guarantees no pending event at or before
  /// `bound` (the fast path under-approximates by one tick to absorb
  /// floor-rounding in the tick map, never over-approximates).
  [[nodiscard]] bool peek_ready_within(Time bound, Time& time) const;

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  // Region tags for Slot::home (values above any real bucket index).
  static constexpr std::uint32_t kHomeDue = 0xfffffffeu;
  static constexpr std::uint32_t kHomeFar = 0xfffffffdu;
  // Extracted by drain_due: live, but in no region (no due-heap entry, no
  // list link) until take_drained or requeue_drained resolves it.
  static constexpr std::uint32_t kHomeDrained = 0xfffffffcu;
  // Same packed (seq, slot) geometry as EventQueue, so the due-heap
  // comparator is bit-identical.
  static constexpr unsigned kSlotBits = 26;
  static constexpr std::uint64_t kMaxSlots = 1ULL << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = 1ULL << (64 - kSlotBits);
  // Ticks are clamped into +/- kTickClamp before the int64 cast.  Clamping
  // keeps the tick map total and monotone for every finite double; it can
  // only merge extreme times into one bucket, and bucketing never affects
  // pop order (the due heap orders exactly), so correctness is unaffected.
  static constexpr double kTickClamp = 4.0e18;  // < 2^62, headroom for +W

  struct Slot {
    EventCallback action;
    Time time = 0.0;
    std::uint64_t seq = 0;  ///< occupying event's seq; 0 = free
    std::uint32_t prev = kNoSlot;  ///< intrusive list link (bucket/far)
    std::uint32_t next = kNoSlot;  ///< intrusive list link; free-list link
    std::uint32_t home = kNoSlot;  ///< bucket index, kHomeDue or kHomeFar
  };

  struct HeapEntry {
    Time time;
    std::uint64_t packed;  ///< (seq << kSlotBits) | slot

    [[nodiscard]] std::uint64_t seq() const noexcept {
      return packed >> kSlotBits;
    }
    [[nodiscard]] std::uint32_t slot() const noexcept {
      return static_cast<std::uint32_t>(packed & (kMaxSlots - 1));
    }
  };

  /// Due-heap order: earlier time first, then insertion (seq) order --
  /// byte-for-byte the EventQueue comparator, which is what makes the two
  /// backends' pop streams identical.
  static bool before(const HeapEntry& a, const HeapEntry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.packed < b.packed;
  }

  [[nodiscard]] bool entry_live(const HeapEntry& e) const noexcept {
    return slots_[e.slot()].seq == e.seq();
  }

  /// Monotone clamped bucket index: floor(time / tick) as int64.
  [[nodiscard]] std::int64_t tick_of(Time t) const noexcept;

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) noexcept;

  // Intrusive-list plumbing over the slot pool.  `head` is a bucket head or
  // far_head_.  Const because the const wheel-advance path relinks nodes
  // (all touched state is mutable).
  void link_front(std::uint32_t& head, std::uint32_t slot) const noexcept;
  void unlink(std::uint32_t& head, std::uint32_t slot) const noexcept;

  // The wheel-advance machinery is const because rotating the wheel (moving
  // events between far list, buckets and due heap) reorganizes the internal
  // representation without changing any observable state; next_time() must
  // be able to drive it, mirroring EventQueue's mutable-heap drop_dead.
  void ensure_due() const;
  void advance() const;
  void drain_bucket(std::size_t bucket) const;
  void cascade_far() const;
  void place_in_wheel(std::uint32_t slot, std::int64_t tick) const;
  [[nodiscard]] std::size_t find_occupied_bucket() const noexcept;

  void due_push(Time time, std::uint64_t packed) const;
  void due_sift_up(std::size_t i) const noexcept;
  void due_sift_down(std::size_t i) const noexcept;
  void due_remove_front() const noexcept;
  void drop_dead() const noexcept;
  void compact();

  Time tick_;        ///< bucket width (seconds)
  double inv_tick_;  ///< 1 / tick_, hoisted off the push path

  // See the comment on ensure_due() for why the region state is mutable.
  mutable std::vector<HeapEntry> due_;       ///< 4-ary heap, exact order
  mutable std::vector<Slot> slots_;          ///< shared event pool
  mutable std::vector<std::uint32_t> buckets_;    ///< per-tick list heads
  mutable std::vector<std::uint64_t> occupancy_;  ///< bucket bitmap
  mutable std::uint32_t far_head_ = kNoSlot;      ///< overflow list head
  mutable std::int64_t cur_tick_ = -1;  ///< ticks <= this are due
  mutable std::int64_t horizon_ = 0;    ///< wheel covers (cur_tick_, horizon_]
  mutable std::size_t wheel_count_ = 0;
  mutable std::size_t far_count_ = 0;
  mutable std::size_t due_live_ = 0;

  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
};

}  // namespace sigcomp::sim
