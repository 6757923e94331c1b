#include "sim/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sigcomp::sim {

namespace {

// Below this heap size, lazy deletion alone is cheap enough; compacting
// would just thrash on the tiny queues every protocol run starts with.
constexpr std::size_t kCompactionThreshold = 64;

// 4-ary heap: shallower than binary (log4 vs log2 levels) and the four
// children of a node share cache lines, which is what the pop path is
// bound by at scale-harness queue depths.
constexpr std::size_t kArity = 4;

}  // namespace

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  if (slots_.size() >= kMaxSlots) {
    throw std::length_error("EventQueue: slot pool exhausted");
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.action.reset();
  s.seq = 0;
  s.drained = false;
  s.next_free = free_head_;
  free_head_ = slot;
}

void EventQueue::sift_up(std::size_t i) noexcept {
  HeapEntry moving = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(moving, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = moving;
}

void EventQueue::sift_down(std::size_t i) const noexcept {
  const std::size_t n = heap_.size();
  HeapEntry moving = heap_[i];
  while (true) {
    const std::size_t first_child = i * kArity + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last_child =
        first_child + kArity < n ? first_child + kArity : n;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], moving)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = moving;
}

void EventQueue::heap_remove_front() const noexcept {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

EventId EventQueue::push(Time time, EventCallback action) {
  if (!std::isfinite(time)) {
    throw std::invalid_argument("EventQueue::push: time must be finite");
  }
  if (!action) {
    throw std::invalid_argument("EventQueue::push: empty action");
  }
  if (next_seq_ >= kMaxSeq) {
    throw std::length_error("EventQueue: sequence space exhausted");
  }
  const std::uint64_t seq = next_seq_++;
  const std::uint32_t slot = acquire_slot();
  slots_[slot].seq = seq;
  slots_[slot].action = std::move(action);
  heap_.push_back(HeapEntry{time, (seq << kSlotBits) | slot});
  sift_up(heap_.size() - 1);
  ++live_;
  return EventId{seq, slot};
}

bool EventQueue::cancel(EventId id) {
  if (id.value == 0 || id.slot >= slots_.size()) return false;
  if (slots_[id.slot].seq != id.value) return false;
  // A drained event has no husk in the heap -- releasing the slot is the
  // whole cancellation.
  if (slots_[id.slot].drained) --drained_live_;
  release_slot(id.slot);
  --live_;
  // Reclaim eagerly once dead husks outnumber live IN-HEAP events (drained
  // events are live but hold no heap entry), so a cancel-heavy run
  // (soft-state refresh churn) holds O(live) memory instead of
  // O(cancelled).
  const std::size_t live_in_heap = live_ - drained_live_;
  if (heap_.size() > kCompactionThreshold &&
      heap_.size() - live_in_heap > live_in_heap) {
    compact();
  }
  return true;
}

void EventQueue::compact() {
  std::erase_if(heap_,
                [this](const HeapEntry& entry) { return !entry_live(entry); });
  if (heap_.size() > 1) {
    // Re-heapify bottom-up from the last parent, the d-ary make_heap.
    for (std::size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;) {
      sift_down(i);
    }
  }
}

void EventQueue::drop_dead() const noexcept {
  // Dead husks never touch the slot pool: their slot was released (and
  // possibly reused) at cancel time, so shedding them only mutates the
  // mutable heap vector.
  while (!heap_.empty() && !entry_live(heap_.front())) {
    heap_remove_front();
  }
}

Time EventQueue::next_time() const {
  drop_dead();
  if (heap_.empty()) throw std::logic_error("EventQueue::next_time: queue empty");
  return heap_.front().time;
}

EventQueue::PoppedEvent EventQueue::pop() {
  drop_dead();
  if (heap_.empty()) throw std::logic_error("EventQueue::pop: queue empty");
  const HeapEntry top = heap_.front();
  heap_remove_front();
  const std::uint32_t slot = top.slot();
  PoppedEvent out{top.time, std::move(slots_[slot].action)};
  release_slot(slot);
  --live_;
  return out;
}

void EventQueue::drain_due(Time horizon, std::vector<DrainedEvent>& out) {
  drop_dead();
  if (heap_.empty() || heap_.front().time > horizon) return;
  // One partition pass over the whole heap: live entries at or before the
  // horizon leave for the caller's buffer, dead husks are shed for free,
  // and everything later is compacted in place.  The appended range is
  // then sorted into exact pop order -- (time, seq) is precisely the
  // heap's before() ordering, so a drain-then-dispatch sequence executes
  // the same events in the same order as a pop loop would.
  const std::size_t start = out.size();
  std::size_t kept = 0;
  for (const HeapEntry& entry : heap_) {
    if (!entry_live(entry)) continue;
    if (entry.time <= horizon) {
      out.push_back(DrainedEvent{entry.time, entry.seq(), entry.slot()});
      slots_[entry.slot()].drained = true;
      ++drained_live_;
    } else {
      heap_[kept++] = entry;
    }
  }
  heap_.resize(kept);
  if (heap_.size() > 1) {
    for (std::size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;) {
      sift_down(i);
    }
  }
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(start), out.end(),
            [](const DrainedEvent& a, const DrainedEvent& b) noexcept {
              if (a.time != b.time) return a.time < b.time;
              return a.seq < b.seq;
            });
}

bool EventQueue::take_drained(const DrainedEvent& event, EventCallback& action) {
  // Generation check: the event may have been cancelled (and its slot
  // possibly reused by a newer push) between drain_due and dispatch.
  if (event.slot >= slots_.size()) return false;
  Slot& s = slots_[event.slot];
  if (s.seq != event.seq || !s.drained) return false;
  action = std::move(s.action);
  release_slot(event.slot);
  --live_;
  --drained_live_;
  return true;
}

void EventQueue::requeue_drained(const DrainedEvent& event) {
  if (event.slot >= slots_.size()) return;
  Slot& s = slots_[event.slot];
  if (s.seq != event.seq || !s.drained) return;
  s.drained = false;
  --drained_live_;
  heap_.push_back(HeapEntry{event.time, (event.seq << kSlotBits) | event.slot});
  sift_up(heap_.size() - 1);
}

bool EventQueue::peek_ready(Time& time) const {
  drop_dead();
  if (heap_.empty()) return false;
  time = heap_.front().time;
  return true;
}

bool EventQueue::peek_ready_within(Time bound, Time& time) const {
  if (!peek_ready(time)) return false;
  return time <= bound;
}

bool EventQueue::defuse(EventId id) {
  if (id.value == 0 || id.slot >= slots_.size()) return false;
  Slot& s = slots_[id.slot];
  if (s.seq != id.value) return false;
  s.action = [] {};
  return true;
}

}  // namespace sigcomp::sim
