// Differential test of the event-core backends against the naive reference
// implementation and against each other: identical randomized operation
// streams must produce identical observable behavior -- pop sequence (time
// and payload), sizes, emptiness, cancel outcomes -- while the pooled
// backends also honor their heap_entries() compaction bound and free-list
// slot recycling.  Both EventQueue (pooled 4-ary heap) and TimingWheelQueue
// (hashed wheel, including deliberately tiny geometries that force far-list
// cascades) are driven through the same harness; a dedicated test then
// locks the heap and wheel pop streams against each other element-wise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "reference_event_queue.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/timing_wheel_queue.hpp"

namespace sigcomp::sim {
namespace {

/// One pending event's bookkeeping across both queues.
struct PendingPair {
  EventId pooled;
  ReferenceEventId reference;
  std::uint64_t payload;
};

/// Drives one pooled backend (EventQueue or TimingWheelQueue -- both hand
/// out EventId and obey the same compaction bound) and the reference queue
/// through an identical randomized op stream.
template <typename PooledQueue>
class DifferentialDriver {
 public:
  explicit DifferentialDriver(std::uint64_t seed,
                              PooledQueue pooled = PooledQueue())
      : rng_(seed), pooled_(std::move(pooled)) {}

  void run(std::size_t operations) {
    for (std::size_t op = 0; op < operations; ++op) {
      step();
      peak_live_ = std::max(peak_live_, pooled_.size());
      ASSERT_EQ(pooled_.size(), reference_.size()) << "op " << op;
      ASSERT_EQ(pooled_.empty(), reference_.empty()) << "op " << op;
      // Garbage bound: dead husks never exceed the live count at the most
      // recent cancel, so the heap stays within twice the peak live size
      // (plus the small-queue compaction threshold).
      ASSERT_LE(pooled_.heap_entries(), 2 * peak_live_ + 65) << "op " << op;
      if (!pooled_.empty()) {
        ASSERT_DOUBLE_EQ(pooled_.next_time(), reference_.next_time())
            << "op " << op;
      }
    }
    drain();
  }

 private:
  void step() {
    const std::uint64_t roll = rng_.uniform_int(10);
    if (roll < 5) {  // 50% schedule
      push();
    } else if (roll < 8 && !pending_.empty()) {  // 30% cancel
      cancel();
    } else if (!pooled_.empty()) {  // 20% pop
      pop();
    } else {
      push();
    }
  }

  void push() {
    const Time t = rng_.uniform(0.0, 1000.0);
    const std::uint64_t payload = next_payload_++;
    PendingPair pair;
    pair.payload = payload;
    pair.pooled =
        pooled_.push(t, [this, payload] { pooled_fired_.push_back(payload); });
    pair.reference = reference_.push(
        t, [this, payload] { reference_fired_.push_back(payload); });
    pending_.push_back(pair);
  }

  void cancel() {
    const std::size_t pick = rng_.uniform_int(pending_.size());
    const PendingPair pair = pending_[pick];
    pending_.erase(pending_.begin() +
                   static_cast<std::ptrdiff_t>(pick));
    const bool pooled_ok = pooled_.cancel(pair.pooled);
    const bool reference_ok = reference_.cancel(pair.reference);
    ASSERT_EQ(pooled_ok, reference_ok);
    ASSERT_TRUE(pooled_ok) << "cancelling a pending event must succeed";
    // A second cancel through the same handles must fail identically.
    ASSERT_FALSE(pooled_.cancel(pair.pooled));
    ASSERT_FALSE(reference_.cancel(pair.reference));
  }

  void pop() {
    auto pooled_event = pooled_.pop();
    auto reference_event = reference_.pop();
    ASSERT_DOUBLE_EQ(pooled_event.time, reference_event.time);
    pooled_event.action();
    reference_event.action();
    ASSERT_FALSE(pooled_fired_.empty());
    ASSERT_EQ(pooled_fired_.back(), reference_fired_.back())
        << "pop order diverged";
    forget(pooled_fired_.back());
  }

  void drain() {
    while (!pooled_.empty() || !reference_.empty()) {
      ASSERT_FALSE(pooled_.empty());
      ASSERT_FALSE(reference_.empty());
      pop();
    }
    ASSERT_EQ(pooled_fired_, reference_fired_);
    ASSERT_TRUE(pending_.empty());
  }

  void forget(std::uint64_t payload) {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].payload == payload) {
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
    FAIL() << "popped an event that was not pending";
  }

  Rng rng_;
  PooledQueue pooled_;
  ReferenceEventQueue reference_;
  std::vector<PendingPair> pending_;
  std::vector<std::uint64_t> pooled_fired_;
  std::vector<std::uint64_t> reference_fired_;
  std::uint64_t next_payload_ = 1;
  std::size_t peak_live_ = 0;
};

TEST(EventCoreDifferential, ValidationBehaviorMatchesReference) {
  EventQueue pooled;
  TimingWheelQueue wheel;
  ReferenceEventQueue reference;
  EXPECT_THROW(pooled.push(std::nan(""), [] {}), std::invalid_argument);
  EXPECT_THROW(wheel.push(std::nan(""), [] {}), std::invalid_argument);
  EXPECT_THROW(reference.push(std::nan(""), [] {}), std::invalid_argument);
  EXPECT_THROW(pooled.push(1.0, EventCallback{}), std::invalid_argument);
  EXPECT_THROW(wheel.push(1.0, EventCallback{}), std::invalid_argument);
  EXPECT_THROW(reference.push(1.0, std::function<void()>{}),
               std::invalid_argument);
  EXPECT_THROW((void)pooled.pop(), std::logic_error);
  EXPECT_THROW((void)wheel.pop(), std::logic_error);
  EXPECT_THROW((void)reference.pop(), std::logic_error);
  EXPECT_THROW((void)pooled.next_time(), std::logic_error);
  EXPECT_THROW((void)wheel.next_time(), std::logic_error);
  EXPECT_THROW((void)reference.next_time(), std::logic_error);
}

TEST(EventCoreDifferential, RandomizedOpsMatchReferenceAcrossSeeds) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 1337ull, 99991ull}) {
    DifferentialDriver<EventQueue> driver(seed);
    driver.run(10000);
  }
}

TEST(EventCoreDifferential, WheelRandomizedOpsMatchReferenceAcrossSeeds) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 1337ull, 99991ull}) {
    DifferentialDriver<TimingWheelQueue> driver(seed);
    driver.run(10000);
  }
}

TEST(EventCoreDifferential, TinyWheelRandomizedOpsMatchReference) {
  // An 8-bucket, 50 ms wheel covers 0.4 s of a 1000 s time range: nearly
  // every push overflows to the far list and every advance cascades, so
  // this hammers exactly the wheel-only machinery.
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 1337ull, 99991ull}) {
    DifferentialDriver<TimingWheelQueue> driver(seed,
                                                TimingWheelQueue(0.05, 8));
    driver.run(10000);
  }
}

TEST(EventCoreDifferential, CoarseWheelRandomizedOpsMatchReference) {
  // The opposite geometry: 250 s buckets put the whole run in ~4 ticks, so
  // the due heap carries hundreds of same-tick events at once.
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    DifferentialDriver<TimingWheelQueue> driver(seed,
                                                TimingWheelQueue(250.0, 4));
    driver.run(10000);
  }
}

TEST(EventCoreDifferential, HeapAndWheelPopStreamsAreIdentical) {
  // The two pooled backends head-to-head: one op stream, element-wise
  // identical pop sequences -- the backend-equivalence contract that lets
  // --event-queue wheel reproduce every golden digest bit-for-bit.
  struct DualPending {
    EventId heap_id;
    EventId wheel_id;
    std::uint64_t payload;
  };
  for (const std::uint64_t seed : {3ull, 29ull, 4242ull}) {
    Rng rng(seed);
    EventQueue heap;
    TimingWheelQueue wheel(0.05, 16);  // tiny: cascades included in the lock
    std::vector<std::uint64_t> heap_fired, wheel_fired;
    std::vector<DualPending> pending;
    std::uint64_t payload = 0;
    for (int op = 0; op < 30000; ++op) {
      const std::uint64_t roll = rng.uniform_int(10);
      if (roll < 5 || heap.empty()) {
        const Time t = rng.uniform(0.0, 1000.0);
        const std::uint64_t p = ++payload;
        DualPending pair;
        pair.payload = p;
        pair.heap_id =
            heap.push(t, [&heap_fired, p] { heap_fired.push_back(p); });
        pair.wheel_id =
            wheel.push(t, [&wheel_fired, p] { wheel_fired.push_back(p); });
        pending.push_back(pair);
      } else if (roll < 8 && !pending.empty()) {
        const std::size_t pick = rng.uniform_int(pending.size());
        ASSERT_TRUE(heap.cancel(pending[pick].heap_id));
        ASSERT_TRUE(wheel.cancel(pending[pick].wheel_id));
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        auto a = heap.pop();
        auto b = wheel.pop();
        ASSERT_DOUBLE_EQ(a.time, b.time);
        a.action();
        b.action();
        ASSERT_EQ(heap_fired.back(), wheel_fired.back())
            << "heap and wheel diverged at op " << op;
        const std::uint64_t fired = heap_fired.back();
        std::erase_if(pending, [fired](const DualPending& pair) {
          return pair.payload == fired;
        });
      }
      ASSERT_EQ(heap.size(), wheel.size());
    }
    while (!heap.empty()) {
      auto a = heap.pop();
      auto b = wheel.pop();
      ASSERT_DOUBLE_EQ(a.time, b.time);
      a.action();
      b.action();
    }
    EXPECT_TRUE(wheel.empty());
    EXPECT_EQ(heap_fired, wheel_fired);
  }
}

TEST(EventCoreDifferential, TieStormMatchesReference) {
  // Many events at identical times: pop order must be insertion order in
  // all three queues.
  EventQueue pooled;
  TimingWheelQueue wheel;
  ReferenceEventQueue reference;
  std::vector<int> pooled_order, wheel_order, reference_order;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const Time t = static_cast<Time>(rng.uniform_int(3));
    pooled.push(t, [&pooled_order, i] { pooled_order.push_back(i); });
    wheel.push(t, [&wheel_order, i] { wheel_order.push_back(i); });
    reference.push(t, [&reference_order, i] { reference_order.push_back(i); });
  }
  while (!pooled.empty()) {
    pooled.pop().action();
    wheel.pop().action();
    reference.pop().action();
  }
  EXPECT_EQ(pooled_order, reference_order);
  EXPECT_EQ(wheel_order, reference_order);
}

TEST(EventCoreDifferential, CancelHeavyChurnKeepsBoundsAndOrder) {
  // The soft-state re-arm pattern at differential scale: long-lived timers
  // plus schedule/cancel churn, then a full drain compared element-wise.
  EventQueue pooled;
  ReferenceEventQueue reference;
  std::vector<std::uint64_t> pooled_fired, reference_fired;
  std::vector<PendingPair> rearm;
  Rng rng(23);
  std::uint64_t payload = 0;
  const auto push_both = [&](Time t) {
    const std::uint64_t p = ++payload;
    PendingPair pair;
    pair.payload = p;
    pair.pooled =
        pooled.push(t, [&pooled_fired, p] { pooled_fired.push_back(p); });
    pair.reference = reference.push(
        t, [&reference_fired, p] { reference_fired.push_back(p); });
    return pair;
  };
  for (int i = 0; i < 64; ++i) rearm.push_back(push_both(1e6 + i));
  for (int round = 0; round < 20000; ++round) {
    const std::size_t victim = rng.uniform_int(rearm.size());
    ASSERT_TRUE(pooled.cancel(rearm[victim].pooled));
    ASSERT_TRUE(reference.cancel(rearm[victim].reference));
    rearm[victim] = push_both(1e6 + rng.uniform(0.0, 1000.0));
    ASSERT_EQ(pooled.size(), reference.size());
    ASSERT_LE(pooled.heap_entries(), 2 * pooled.size() + 65);
  }
  while (!pooled.empty()) {
    auto a = pooled.pop();
    auto b = reference.pop();
    ASSERT_DOUBLE_EQ(a.time, b.time);
    a.action();
    b.action();
  }
  EXPECT_TRUE(reference.empty());
  EXPECT_EQ(pooled_fired, reference_fired);
}

TEST(EventCoreDifferential, WheelCancelHeavyChurnKeepsBoundsAndOrder) {
  // The same re-arm pattern against the wheel, on a geometry small enough
  // that the churn crosses the far-list boundary both ways.
  TimingWheelQueue wheel(0.05, 64);
  ReferenceEventQueue reference;
  std::vector<std::uint64_t> wheel_fired, reference_fired;
  std::vector<PendingPair> rearm;
  Rng rng(23);
  std::uint64_t payload = 0;
  const auto push_both = [&](Time t) {
    const std::uint64_t p = ++payload;
    PendingPair pair;
    pair.payload = p;
    pair.pooled =
        wheel.push(t, [&wheel_fired, p] { wheel_fired.push_back(p); });
    pair.reference = reference.push(
        t, [&reference_fired, p] { reference_fired.push_back(p); });
    return pair;
  };
  for (int i = 0; i < 64; ++i) rearm.push_back(push_both(1e6 + i));
  for (int round = 0; round < 20000; ++round) {
    const std::size_t victim = rng.uniform_int(rearm.size());
    ASSERT_TRUE(wheel.cancel(rearm[victim].pooled));
    ASSERT_TRUE(reference.cancel(rearm[victim].reference));
    rearm[victim] = push_both(1e6 + rng.uniform(0.0, 1000.0));
    ASSERT_EQ(wheel.size(), reference.size());
    ASSERT_LE(wheel.heap_entries(), 2 * wheel.size() + 65);
  }
  while (!wheel.empty()) {
    auto a = wheel.pop();
    auto b = reference.pop();
    ASSERT_DOUBLE_EQ(a.time, b.time);
    a.action();
    b.action();
  }
  EXPECT_TRUE(reference.empty());
  EXPECT_EQ(wheel_fired, reference_fired);
}

}  // namespace
}  // namespace sigcomp::sim
