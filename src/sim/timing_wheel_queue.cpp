#include "sim/timing_wheel_queue.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace sigcomp::sim {

namespace {

// Below this due-heap size, lazy deletion alone is cheap enough; compacting
// would just thrash on the tiny queues every protocol run starts with.
constexpr std::size_t kCompactionThreshold = 64;

// Same arity as EventQueue's heap; the due heap is small (one bucket's
// events plus already-due pushes) but the pop path still wins from the
// shallower, cache-line-friendly layout.
constexpr std::size_t kArity = 4;

}  // namespace

TimingWheelQueue::TimingWheelQueue(Time tick_seconds,
                                   std::size_t wheel_slots) {
  if (!std::isfinite(tick_seconds) || tick_seconds <= 0.0) {
    throw std::invalid_argument(
        "TimingWheelQueue: tick_seconds must be finite and positive");
  }
  if (wheel_slots < 2 || (wheel_slots & (wheel_slots - 1)) != 0) {
    throw std::invalid_argument(
        "TimingWheelQueue: wheel_slots must be a power of two >= 2");
  }
  tick_ = tick_seconds;
  inv_tick_ = 1.0 / tick_seconds;
  buckets_.assign(wheel_slots, kNoSlot);
  occupancy_.assign((wheel_slots + 63) / 64, 0);
  horizon_ = cur_tick_ + static_cast<std::int64_t>(wheel_slots);
}

std::int64_t TimingWheelQueue::tick_of(Time t) const noexcept {
  const double scaled = std::floor(t * inv_tick_);
  if (scaled >= kTickClamp) return static_cast<std::int64_t>(kTickClamp);
  if (scaled <= -kTickClamp) return -static_cast<std::int64_t>(kTickClamp);
  return static_cast<std::int64_t>(scaled);
}

std::uint32_t TimingWheelQueue::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next;
    return slot;
  }
  if (slots_.size() >= kMaxSlots) {
    throw std::length_error("TimingWheelQueue: slot pool exhausted");
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void TimingWheelQueue::release_slot(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.action.reset();
  s.seq = 0;
  s.prev = kNoSlot;
  s.home = kNoSlot;
  s.next = free_head_;
  free_head_ = slot;
}

void TimingWheelQueue::link_front(std::uint32_t& head,
                                  std::uint32_t slot) const noexcept {
  slots_[slot].prev = kNoSlot;
  slots_[slot].next = head;
  if (head != kNoSlot) slots_[head].prev = slot;
  head = slot;
}

void TimingWheelQueue::unlink(std::uint32_t& head,
                              std::uint32_t slot) const noexcept {
  const Slot& s = slots_[slot];
  if (s.prev != kNoSlot) {
    slots_[s.prev].next = s.next;
  } else {
    head = s.next;
  }
  if (s.next != kNoSlot) slots_[s.next].prev = s.prev;
}

EventId TimingWheelQueue::push(Time time, EventCallback action) {
  if (!std::isfinite(time)) {
    throw std::invalid_argument("TimingWheelQueue::push: time must be finite");
  }
  if (!action) {
    throw std::invalid_argument("TimingWheelQueue::push: empty action");
  }
  if (next_seq_ >= kMaxSeq) {
    throw std::length_error("TimingWheelQueue: sequence space exhausted");
  }
  const std::uint64_t seq = next_seq_++;
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.seq = seq;
  s.time = time;
  s.action = std::move(action);
  const std::int64_t tick = tick_of(time);
  if (tick <= cur_tick_) {
    // Already inside the due window: the due heap alone orders it.
    s.home = kHomeDue;
    due_push(time, (seq << kSlotBits) | slot);
    ++due_live_;
  } else if (tick <= horizon_) {
    place_in_wheel(slot, tick);
  } else {
    s.home = kHomeFar;
    link_front(far_head_, slot);
    ++far_count_;
  }
  ++live_;
  return EventId{seq, slot};
}

void TimingWheelQueue::place_in_wheel(std::uint32_t slot,
                                      std::int64_t tick) const {
  const std::size_t bucket = static_cast<std::size_t>(
      static_cast<std::uint64_t>(tick) & (buckets_.size() - 1));
  slots_[slot].home = static_cast<std::uint32_t>(bucket);
  link_front(buckets_[bucket], slot);
  occupancy_[bucket >> 6] |= 1ULL << (bucket & 63);
  ++wheel_count_;
}

bool TimingWheelQueue::cancel(EventId id) {
  if (id.value == 0 || id.slot >= slots_.size()) return false;
  if (slots_[id.slot].seq != id.value) return false;
  const std::uint32_t home = slots_[id.slot].home;
  if (home == kHomeDrained) {
    // Extracted by drain_due: no due-heap husk, no list link -- releasing
    // the slot is the whole cancellation.  take_drained/requeue_drained
    // will see the seq mismatch and skip it.
    release_slot(id.slot);
  } else if (home == kHomeDue) {
    // The heap husk stays behind; reclaim eagerly once husks outnumber
    // live due events, mirroring EventQueue's O(live) garbage bound.
    release_slot(id.slot);
    --due_live_;
    if (due_.size() > kCompactionThreshold &&
        due_.size() - due_live_ > due_live_) {
      compact();
    }
  } else if (home == kHomeFar) {
    unlink(far_head_, id.slot);
    --far_count_;
    release_slot(id.slot);
  } else {
    unlink(buckets_[home], id.slot);
    if (buckets_[home] == kNoSlot) {
      occupancy_[home >> 6] &= ~(1ULL << (home & 63));
    }
    --wheel_count_;
    release_slot(id.slot);
  }
  --live_;
  return true;
}

void TimingWheelQueue::due_push(Time time, std::uint64_t packed) const {
  due_.push_back(HeapEntry{time, packed});
  due_sift_up(due_.size() - 1);
}

void TimingWheelQueue::due_sift_up(std::size_t i) const noexcept {
  HeapEntry moving = due_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(moving, due_[parent])) break;
    due_[i] = due_[parent];
    i = parent;
  }
  due_[i] = moving;
}

void TimingWheelQueue::due_sift_down(std::size_t i) const noexcept {
  const std::size_t n = due_.size();
  HeapEntry moving = due_[i];
  while (true) {
    const std::size_t first_child = i * kArity + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last_child =
        first_child + kArity < n ? first_child + kArity : n;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (before(due_[c], due_[best])) best = c;
    }
    if (!before(due_[best], moving)) break;
    due_[i] = due_[best];
    i = best;
  }
  due_[i] = moving;
}

void TimingWheelQueue::due_remove_front() const noexcept {
  due_.front() = due_.back();
  due_.pop_back();
  if (!due_.empty()) due_sift_down(0);
}

void TimingWheelQueue::drop_dead() const noexcept {
  while (!due_.empty() && !entry_live(due_.front())) {
    due_remove_front();
  }
}

void TimingWheelQueue::compact() {
  std::erase_if(due_,
                [this](const HeapEntry& entry) { return !entry_live(entry); });
  if (due_.size() > 1) {
    for (std::size_t i = (due_.size() - 2) / kArity + 1; i-- > 0;) {
      due_sift_down(i);
    }
  }
}

std::size_t TimingWheelQueue::find_occupied_bucket() const noexcept {
  // First occupied bucket in circular order starting at the tick after
  // cur_tick_.  The wheel window holds exactly wheel_slots() consecutive
  // ticks, so circular-first equals earliest-tick.
  const std::size_t mask = buckets_.size() - 1;
  const std::size_t start = static_cast<std::size_t>(
      static_cast<std::uint64_t>(cur_tick_ + 1) & mask);
  const std::size_t words = occupancy_.size();
  std::size_t word_index = start >> 6;
  std::uint64_t word = occupancy_[word_index] & (~0ULL << (start & 63));
  for (std::size_t scanned = 0; scanned <= words; ++scanned) {
    if (word != 0) {
      return (word_index << 6) +
             static_cast<std::size_t>(std::countr_zero(word));
    }
    word_index = word_index + 1 == words ? 0 : word_index + 1;
    word = occupancy_[word_index];
  }
  return start;  // unreachable while wheel_count_ > 0
}

void TimingWheelQueue::drain_bucket(std::size_t bucket) const {
  std::uint32_t s = buckets_[bucket];
  buckets_[bucket] = kNoSlot;
  occupancy_[bucket >> 6] &= ~(1ULL << (bucket & 63));
  while (s != kNoSlot) {
    const std::uint32_t next = slots_[s].next;
    slots_[s].home = kHomeDue;
    due_push(slots_[s].time, (slots_[s].seq << kSlotBits) | s);
    --wheel_count_;
    ++due_live_;
    s = next;
  }
}

void TimingWheelQueue::cascade_far() const {
  // The wheel is empty: jump the clock straight to the earliest far tick
  // (skipping every empty rotation in between), widen the window, and pull
  // the far events that now fit into the wheel.  One O(far) sweep per jump.
  std::int64_t min_tick = std::numeric_limits<std::int64_t>::max();
  for (std::uint32_t s = far_head_; s != kNoSlot; s = slots_[s].next) {
    min_tick = std::min(min_tick, tick_of(slots_[s].time));
  }
  cur_tick_ = min_tick - 1;
  horizon_ = cur_tick_ + static_cast<std::int64_t>(buckets_.size());
  std::uint32_t s = far_head_;
  while (s != kNoSlot) {
    const std::uint32_t next = slots_[s].next;
    const std::int64_t tick = tick_of(slots_[s].time);
    if (tick <= horizon_) {
      unlink(far_head_, s);
      --far_count_;
      place_in_wheel(s, tick);
    }
    s = next;
  }
}

void TimingWheelQueue::advance() const {
  // Precondition: some live event sits in the wheel or the far list.
  if (wheel_count_ == 0) cascade_far();
  const std::size_t mask = buckets_.size() - 1;
  const std::size_t start = static_cast<std::size_t>(
      static_cast<std::uint64_t>(cur_tick_ + 1) & mask);
  const std::size_t bucket = find_occupied_bucket();
  cur_tick_ += 1 + static_cast<std::int64_t>((bucket - start) & mask);
  drain_bucket(bucket);
}

void TimingWheelQueue::ensure_due() const {
  drop_dead();
  while (due_.empty() && (wheel_count_ > 0 || far_count_ > 0)) {
    advance();
  }
}

Time TimingWheelQueue::next_time() const {
  ensure_due();
  if (due_.empty()) {
    throw std::logic_error("TimingWheelQueue::next_time: queue empty");
  }
  return due_.front().time;
}

TimingWheelQueue::PoppedEvent TimingWheelQueue::pop() {
  ensure_due();
  if (due_.empty()) {
    throw std::logic_error("TimingWheelQueue::pop: queue empty");
  }
  const HeapEntry top = due_.front();
  due_remove_front();
  const std::uint32_t slot = top.slot();
  PoppedEvent out{top.time, std::move(slots_[slot].action)};
  release_slot(slot);
  --live_;
  --due_live_;
  return out;
}

void TimingWheelQueue::drain_due(Time horizon, std::vector<DrainedEvent>& out) {
  // Repeatedly peel the due-heap minimum.  Every due time is strictly
  // earlier than every wheel/far time (due ticks <= cur_tick_ < wheel
  // ticks, and tick_of is a floor), so once the due front exceeds the
  // horizon -- or ensure_due leaves the heap empty -- nothing at or before
  // the horizon remains anywhere.  The output is therefore already in
  // exact pop order; no sort needed.
  while (true) {
    ensure_due();
    if (due_.empty() || due_.front().time > horizon) return;
    const HeapEntry top = due_.front();
    due_remove_front();
    slots_[top.slot()].home = kHomeDrained;
    --due_live_;
    out.push_back(DrainedEvent{top.time, top.seq(), top.slot()});
  }
}

bool TimingWheelQueue::take_drained(const DrainedEvent& event,
                                    EventCallback& action) {
  // Generation check: the event may have been cancelled (and its slot
  // possibly reused by a newer push) between drain_due and dispatch.
  if (event.slot >= slots_.size()) return false;
  Slot& s = slots_[event.slot];
  if (s.seq != event.seq || s.home != kHomeDrained) return false;
  action = std::move(s.action);
  release_slot(event.slot);
  --live_;
  return true;
}

void TimingWheelQueue::requeue_drained(const DrainedEvent& event) {
  if (event.slot >= slots_.size()) return;
  Slot& s = slots_[event.slot];
  if (s.seq != event.seq || s.home != kHomeDrained) return;
  // Drained events were due (tick <= cur_tick_), so they go straight back
  // onto the due heap; (time, seq) are unchanged, so pop order is too.
  s.home = kHomeDue;
  due_push(event.time, (event.seq << kSlotBits) | event.slot);
  ++due_live_;
}

bool TimingWheelQueue::peek_ready(Time& time) const {
  ensure_due();
  if (due_.empty()) return false;
  time = due_.front().time;
  return true;
}

bool TimingWheelQueue::peek_ready_within(Time bound, Time& time) const {
  drop_dead();
  if (!due_.empty()) {
    // A non-empty due heap already holds the global minimum (ensure_due
    // only rotates the wheel when the heap is empty), so answer exactly.
    time = due_.front().time;
    return time <= bound;
  }
  if (wheel_count_ == 0 && far_count_ == 0) return false;
  // Nothing due: every pending event sits at a tick strictly beyond
  // cur_tick_, so its time is at least cur_tick_ * tick_ (one tick of slack
  // absorbs the floor-rounding of the tick map).  When even that lower
  // bound exceeds `bound` the answer is provably false -- no rotation, no
  // far-list cascade.
  if (static_cast<double>(cur_tick_) * tick_ > bound) return false;
  return peek_ready(time) && time <= bound;
}

bool TimingWheelQueue::defuse(EventId id) {
  if (id.value == 0 || id.slot >= slots_.size()) return false;
  Slot& s = slots_[id.slot];
  if (s.seq != id.value) return false;
  s.action = [] {};
  return true;
}

}  // namespace sigcomp::sim
