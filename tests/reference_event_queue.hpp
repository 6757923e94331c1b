// Reference pending-event set: the naive, pre-pooling implementation kept
// ONLY for differential testing of sim::EventQueue.  It is deliberately
// simple and obviously correct: std::function callbacks in an unordered_map
// keyed by sequence number, a lazily-deleted binary heap of (time, seq), and
// an unordered_set of cancelled sequence numbers, with the same compaction
// bound as the production queue.  It lives under tests/, next to the
// reference farm (reference_session_farm.cpp), which plays the same role
// for the farm: test_event_core_diff.cpp drives it and the production
// queues through identical operation streams and asserts identical pop
// sequences.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/event_queue.hpp"

namespace sigcomp::sim {

/// Handle into the reference queue (sequence number only).
struct ReferenceEventId {
  std::uint64_t value = 0;  ///< the event's unique sequence number
  friend bool operator==(
      const ReferenceEventId&,
      const ReferenceEventId&) = default;  ///< field-wise equality
};

/// Min-heap of (time, seq) -> action; see the file comment.
class ReferenceEventQueue {
 public:
  /// Adds an event; `time` must be finite and `action` non-empty.
  ReferenceEventId push(Time time, std::function<void()> action) {
    if (!std::isfinite(time)) {
      throw std::invalid_argument(
          "ReferenceEventQueue::push: time must be finite");
    }
    if (!action) {
      throw std::invalid_argument("ReferenceEventQueue::push: empty action");
    }
    const std::uint64_t seq = next_seq_++;
    heap_.push_back(Entry{time, seq});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    actions_.emplace(seq, std::move(action));
    ++live_;
    return ReferenceEventId{seq};
  }

  /// Cancels a pending event; returns false if already executed/cancelled.
  bool cancel(ReferenceEventId id) {
    const auto it = actions_.find(id.value);
    if (it == actions_.end()) return false;
    actions_.erase(it);
    cancelled_.insert(id.value);
    --live_;
    if (heap_.size() > kCompactionThreshold &&
        heap_.size() - live_ > live_) {
      compact();
    }
    return true;
  }

  /// True when no live event remains.
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  /// Number of live (pending, uncancelled) events.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }
  /// Heap entries including lazily-deleted husks (same bound as the
  /// production queue).
  [[nodiscard]] std::size_t heap_entries() const noexcept {
    return heap_.size();
  }

  /// Time of the earliest live event.  Throws std::logic_error when empty.
  [[nodiscard]] Time next_time() const {
    drop_dead();
    if (heap_.empty()) {
      throw std::logic_error("ReferenceEventQueue::next_time: queue empty");
    }
    return heap_.front().time;
  }

  /// An event handed back by pop().
  struct PoppedEvent {
    Time time;                     ///< scheduled execution time
    std::function<void()> action;  ///< the callback to invoke
  };

  /// Pops and returns the earliest live event.  Throws when empty.
  PoppedEvent pop() {
    drop_dead();
    if (heap_.empty()) {
      throw std::logic_error("ReferenceEventQueue::pop: queue empty");
    }
    const Entry top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
    const auto it = actions_.find(top.seq);
    PoppedEvent out{top.time, std::move(it->second)};
    actions_.erase(it);
    --live_;
    return out;
  }

 private:
  static constexpr std::size_t kCompactionThreshold = 64;

  struct Entry {
    Time time;
    std::uint64_t seq;
    friend bool operator>(const Entry& a, const Entry& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void compact() {
    std::erase_if(heap_, [this](const Entry& entry) {
      return cancelled_.find(entry.seq) != cancelled_.end();
    });
    cancelled_.clear();
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  void drop_dead() const {
    while (!heap_.empty()) {
      const auto it = cancelled_.find(heap_.front().seq);
      if (it == cancelled_.end()) return;
      cancelled_.erase(it);
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      heap_.pop_back();
    }
  }

  mutable std::vector<Entry> heap_;
  // Membership/lookup-only (find, erase, clear -- never iterated): the pop
  // order comes from the (time, seq) heap, never from hash iteration.
  mutable std::unordered_set<std::uint64_t> cancelled_;
  std::unordered_map<std::uint64_t, std::function<void()>> actions_;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
};

}  // namespace sigcomp::sim
