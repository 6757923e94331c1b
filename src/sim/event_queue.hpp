// Pending-event set of the discrete-event simulator.
//
// The hot path of every simulation run, so the representation is pooled and
// allocation-free in steady state:
//
//  * Callbacks are stored in EventCallback, a move-only type-erased functor
//    with 40 bytes of pointer-aligned inline storage (no heap allocation for
//    captures up to kInlineCapacity bytes; every callback in this codebase
//    fits), so the whole callback is 48 bytes.
//  * Each pending event occupies a 64-byte slot (the callback, the
//    occupying seq and the free-list link) in a pooled vector; freed slots
//    are recycled through an intrusive free list, so steady-state schedule/
//    cancel/pop churn performs zero allocations and zero hash lookups
//    (cancellation is an O(1) generation check on the slot).
//  * The ready order is a 4-ary implicit min-heap over (time, seq): ties in
//    time break by insertion order so simultaneous events execute
//    deterministically in schedule order (important for reproducible runs).
//    The pop sequence is the unique (time, seq)-sorted order of live events,
//    independent of the internal heap shape.
//  * Cancelling frees the slot immediately and leaves a dead husk in the
//    heap; husks are reclaimed when they surface, or -- so cancel-heavy
//    workloads (refresh/backoff timer churn) cannot accumulate unbounded
//    garbage -- by compacting the heap whenever dead husks outnumber live
//    events.
#pragma once

#include <cstdint>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace sigcomp::sim {

/// Simulation time in seconds.
using Time = double;

/// Move-only type-erased `void()` callable with inline small-buffer storage.
///
/// Replaces std::function on the event hot path: a callable whose size is at
/// most kInlineCapacity, whose alignment is at most kInlineAlignment (and
/// which is nothrow-move-constructible) lives entirely inside the
/// EventCallback object; other callables fall back to the heap (counted, so
/// tests can assert the hot path never allocates).
class EventCallback {
 public:
  /// Inline storage size: exactly the largest capture in this codebase, a
  /// channel delivery closure (a pointer plus a 32-byte Message).  With the
  /// vtable pointer the callback is 48 bytes, which keeps EventQueue's slot
  /// at one 64-byte cache line.  Growing it is a layout change: the
  /// zero-spill farm tests say when a new closure no longer fits.
  static constexpr std::size_t kInlineCapacity = 40;
  /// Inline storage alignment: a pointer's.  Over-aligned callables spill.
  static constexpr std::size_t kInlineAlignment = alignof(void*);

  /// Empty callback (boolean-false; must not be invoked).
  EventCallback() noexcept = default;

  /// Wraps any `void()` callable.  Implicit so schedule call sites read
  /// like the std::function-based API it replaced.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventCallback(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                          // std::function at schedule call sites
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineCapacity &&
                  alignof(Fn) <= kInlineAlignment &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      vtable_ = inline_vtable<Fn>();
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ++heap_allocation_count();
      vtable_ = heap_vtable<Fn>();
    }
  }

  /// Move: relocates the stored callable; `other` is left empty.
  EventCallback(EventCallback&& other) noexcept : vtable_(other.vtable_) {
    if (vtable_ != nullptr) {
      vtable_->relocate(storage_, other.storage_);
      other.vtable_ = nullptr;
    }
  }

  /// Move assignment: destroys the current callable first.
  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      vtable_ = other.vtable_;
      if (vtable_ != nullptr) {
        vtable_->relocate(storage_, other.storage_);
        other.vtable_ = nullptr;
      }
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;             ///< move-only
  EventCallback& operator=(const EventCallback&) = delete;  ///< move-only

  /// Destroys the stored callable, if any.
  ~EventCallback() { reset(); }

  /// Invokes the stored callable (undefined when empty; the queue never
  /// stores an empty callback).
  void operator()() { vtable_->invoke(storage_); }

  /// True when a callable is stored.
  [[nodiscard]] explicit operator bool() const noexcept {
    return vtable_ != nullptr;
  }

  /// Destroys the stored callable, leaving the callback empty.
  void reset() noexcept {
    if (vtable_ != nullptr) {
      vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

  /// Number of callbacks this thread ever spilled to the heap (capture too
  /// large for the inline buffer).  Tests assert it stays flat across
  /// simulation workloads -- the zero-allocation contract of the event core.
  [[nodiscard]] static std::uint64_t heap_allocations() noexcept {
    return heap_allocation_count();
  }

 private:
  struct VTable {
    void (*invoke)(void* ctx);
    /// Move-constructs the callable at `dst` from `src` and destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* ctx) noexcept;
  };

  template <typename Fn>
  static Fn* stored(void* ctx) noexcept {
    return std::launder(reinterpret_cast<Fn*>(ctx));
  }

  template <typename Fn>
  static const VTable* inline_vtable() noexcept {
    static constexpr VTable table{
        [](void* ctx) { (*stored<Fn>(ctx))(); },
        [](void* dst, void* src) noexcept {
          Fn* from = stored<Fn>(src);
          ::new (dst) Fn(std::move(*from));
          from->~Fn();
        },
        [](void* ctx) noexcept { stored<Fn>(ctx)->~Fn(); }};
    return &table;
  }

  template <typename Fn>
  static const VTable* heap_vtable() noexcept {
    static constexpr VTable table{
        [](void* ctx) { (**stored<Fn*>(ctx))(); },
        [](void* dst, void* src) noexcept {
          ::new (dst) Fn*(*stored<Fn*>(src));
        },
        [](void* ctx) noexcept { delete *stored<Fn*>(ctx); }};
    return &table;
  }

  static std::uint64_t& heap_allocation_count() noexcept {
    thread_local std::uint64_t count = 0;
    return count;
  }

  const VTable* vtable_ = nullptr;
  alignas(kInlineAlignment) unsigned char storage_[kInlineCapacity];
};

/// Opaque handle to a scheduled event; usable for cancellation.  `value` is
/// the event's globally unique sequence number (never reused, never 0),
/// `slot` the pool slot it occupied -- together they make cancellation an
/// O(1) generation check instead of a hash lookup.
///
/// Value 0 makes the handle nullable in its own 16 bytes (a
/// std::optional<EventId> takes 24): a default-constructed id is EMPTY --
/// it names no event and cancelling it is a no-op.  Protocol objects keep
/// their timers as EventIds and clear them with Simulator::cancel_timer.
struct EventId {
  std::uint64_t value = 0;  ///< unique sequence number; 0 = empty
  std::uint32_t slot = 0;   ///< pool slot the event occupies

  /// True unless the handle is empty.  A non-empty handle may name an event
  /// that has since run or been cancelled; only its owner knows.
  [[nodiscard]] explicit operator bool() const noexcept { return value != 0; }

  /// Empties the handle (cancels nothing).
  void reset() noexcept { *this = EventId{}; }

  friend bool operator==(const EventId&,
                         const EventId&) = default;  ///< field-wise equality
};

/// One expiry extracted by a batched drain (EventQueue::drain_due /
/// TimingWheelQueue::drain_due): the scheduled time plus the (seq, slot)
/// identity needed to claim it (take_drained) or put it back
/// (requeue_drained).  Shared by both event-queue backends so slice-driving
/// callers (Simulator::run_slice) are backend-agnostic.
struct DrainedEvent {
  Time time = 0.0;        ///< scheduled execution time
  std::uint64_t seq = 0;  ///< the event's unique sequence number
  std::uint32_t slot = 0;  ///< pool slot the event occupies
};

/// Min-ordered pending set of (time, seq) -> callback, pooled as above.
class EventQueue {
 public:
  /// Adds an event; `time` must be finite and `action` non-empty.  Returns
  /// a cancellation handle.  Amortized O(log n); allocation-free once the
  /// pool and heap have grown to the workload's high-water mark.
  EventId push(Time time, EventCallback action);

  /// Cancels a pending event in O(1); returns false if already
  /// executed/cancelled.  The slot (and its callback) are reclaimed
  /// immediately; only a {time, seq} husk stays in the heap until it
  /// surfaces or compaction removes it.
  bool cancel(EventId id);

  /// Replaces a pending event's callback with a no-op in place; returns
  /// false if already executed/cancelled.  Unlike cancel() the event keeps
  /// its slot, time and seq: it still pops, in the same order, running
  /// nothing.  Works on drained events too (take_drained hands out the
  /// no-op).  The old callback is destroyed here.
  bool defuse(EventId id);

  /// True when no live event remains.
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// Number of live (pending, uncancelled) events.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Entries physically held by the heap: live events plus cancelled husks
  /// not yet reclaimed.  Compaction keeps this below
  /// max(2 * size(), compaction threshold); tests assert the bound.
  [[nodiscard]] std::size_t heap_entries() const noexcept {
    return heap_.size();
  }

  /// Slots in the pool (the high-water mark of concurrently pending
  /// events); free-list recycling keeps this flat under schedule/cancel
  /// churn -- tests assert no growth across millions of cycles.
  [[nodiscard]] std::size_t slot_capacity() const noexcept {
    return slots_.size();
  }

  /// Time of the earliest live event.  Throws std::logic_error when empty.
  [[nodiscard]] Time next_time() const;

  /// An event handed back by pop().
  struct PoppedEvent {
    Time time;             ///< scheduled execution time
    EventCallback action;  ///< the callback to invoke
  };
  /// Pops and returns the earliest live event.  Throws when empty.
  PoppedEvent pop();

  /// Batched expiry extraction: appends every live event with time <=
  /// `horizon` to `out` in exact pop order (time, then insertion seq) and
  /// detaches them from the heap in one O(heap) partition pass (dead husks
  /// are shed for free, and the remainder is re-heapified bottom-up).  One
  /// drain per dispatch batch amortizes the per-pop sift on expiry storms.
  /// Drained events stay LIVE -- their slots and callbacks are retained and
  /// cancel() still works on them -- but they are invisible to
  /// pop()/next_time()/peek_ready() until requeued; the caller must either
  /// take_drained() or requeue_drained() every drained event before
  /// resuming pop-driven execution.
  void drain_due(Time horizon, std::vector<DrainedEvent>& out);

  /// Claims a drained event's callback: moves it into `action`, frees the
  /// slot and returns true.  Returns false (leaving `action` untouched)
  /// when the event was cancelled after the drain -- the generation check
  /// fails -- in which case the caller simply skips it.
  bool take_drained(const DrainedEvent& event, EventCallback& action);

  /// Puts a drained (not yet taken) event back into the pending heap, as if
  /// it had never been drained.  A no-op when the event was cancelled after
  /// the drain.
  void requeue_drained(const DrainedEvent& event);

  /// Time of the earliest event still in the heap (drained events
  /// excluded): the non-throwing next_time() that slice dispatch uses to
  /// merge freshly scheduled events into a drained batch.  Returns false
  /// when no undrained live event remains.
  [[nodiscard]] bool peek_ready(Time& time) const;

  /// Bounded peek for slice-horizon negotiation: writes the earliest
  /// pending time and returns true only when that time is <= `bound`;
  /// returns false when the queue is empty or provably idle past the bound.
  /// On the heap backend this is peek_ready plus the comparison (the peek
  /// is already O(1)); the wheel backend uses the bound to skip rotations.
  /// Exact by contract: a false return guarantees no pending event at or
  /// before `bound` -- the cross-shard fabric's epoch-horizon computation
  /// (a running min over every shard) depends on it.
  [[nodiscard]] bool peek_ready_within(Time bound, Time& time) const;

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// Heap entries pack (seq, slot) into one word: 38 bits of sequence
  /// (~2.7e11 events per queue lifetime) and 26 bits of slot index (~6.7e7
  /// concurrently pending events).  16-byte entries put four per cache
  /// line, which is what the pop path is bound by at scale-harness depths.
  static constexpr unsigned kSlotBits = 26;
  static constexpr std::uint64_t kMaxSlots = 1ULL << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = 1ULL << (64 - kSlotBits);

  struct Slot {
    EventCallback action;
    std::uint64_t seq = 0;  ///< occupying event's seq; 0 = free
    std::uint32_t next_free = kNoSlot;
    bool drained = false;  ///< extracted by drain_due; no husk in the heap
  };
  // A slot is one cache line's worth of bytes, and every pending event of a
  // hold-shaped farm occupies one; PERFORMANCE.md, "What a session costs",
  // has the measurement.  A field added here shows at compile time.
  static_assert(sizeof(Slot) == 64, "EventQueue::Slot must stay 64 bytes");

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

  /// Heap order: earlier time first, then insertion (seq) order.  Seqs are
  /// unique, so comparing the packed words compares the seqs.
  static bool before(const HeapEntry& a, const HeapEntry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.packed < b.packed;
  }

  [[nodiscard]] bool entry_live(const HeapEntry& e) const noexcept {
    return slots_[e.slot()].seq == e.seq();
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) noexcept;

  // The heap maintenance helpers are const because they touch only the
  // mutable heap vector: next_time() must be able to shed dead husks.
  void sift_up(std::size_t i) noexcept;
  void sift_down(std::size_t i) const noexcept;
  void heap_remove_front() const noexcept;
  void drop_dead() const noexcept;
  void compact();

  mutable std::vector<HeapEntry> heap_;  ///< 4-ary implicit min-heap
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  /// Live events currently drained out of the heap (awaiting take/requeue).
  /// Needed so cancel()'s compaction trigger compares husks against the
  /// events actually IN the heap (live_ - drained_live_).
  std::size_t drained_live_ = 0;
};

}  // namespace sigcomp::sim
