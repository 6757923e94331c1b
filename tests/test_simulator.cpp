#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/rng.hpp"

namespace sigcomp::sim {
namespace {

TEST(Simulator, ClockStartsAtZero) {
  Simulator s;
  EXPECT_DOUBLE_EQ(s.now(), 0.0);
  EXPECT_TRUE(s.idle());
}

TEST(Simulator, StepAdvancesClockToEventTime) {
  Simulator s;
  s.schedule_at(2.5, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_DOUBLE_EQ(s.now(), 2.5);
  EXPECT_FALSE(s.step());
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator s;
  std::vector<double> times;
  s.schedule_in(1.0, [&] {
    times.push_back(s.now());
    s.schedule_in(1.5, [&] { times.push_back(s.now()); });
  });
  s.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.5);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator s;
  s.schedule_in(3.0, [&] {
    s.schedule_in(-5.0, [&] { EXPECT_DOUBLE_EQ(s.now(), 3.0); });
  });
  s.run();
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
}

TEST(Simulator, ScheduleAtPastThrows) {
  Simulator s;
  s.schedule_at(5.0, [] {});
  s.step();
  EXPECT_THROW(s.schedule_at(1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, RunUntilExecutesUpToBoundaryInclusive) {
  Simulator s;
  int fired = 0;
  s.schedule_at(1.0, [&] { ++fired; });
  s.schedule_at(2.0, [&] { ++fired; });
  s.schedule_at(3.0, [&] { ++fired; });
  s.run_until(2.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
  EXPECT_EQ(s.pending_events(), 1u);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator s;
  s.run_until(42.0);
  EXPECT_DOUBLE_EQ(s.now(), 42.0);
}

TEST(Simulator, CancelStopsEvent) {
  Simulator s;
  int fired = 0;
  const EventId id = s.schedule_at(1.0, [&] { ++fired; });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, EventsExecutedCounts) {
  Simulator s;
  for (int i = 0; i < 5; ++i) s.schedule_in(double(i), [] {});
  s.run();
  EXPECT_EQ(s.events_executed(), 5u);
}

TEST(Simulator, RunWithEventCapStopsEarly) {
  Simulator s;
  int fired = 0;
  // A self-perpetuating event chain.
  std::function<void()> tick = [&] {
    ++fired;
    s.schedule_in(1.0, tick);
  };
  s.schedule_in(1.0, tick);
  s.run(10);
  EXPECT_EQ(fired, 10);
}

TEST(Simulator, SimultaneousEventsRunInScheduleOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(1.0, [&] { order.push_back(1); });
  s.schedule_at(1.0, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, BackendSelectionIsExplicitAndReported) {
  const Simulator def;
  EXPECT_EQ(def.backend(), kDefaultEventQueueBackend);
  const Simulator heap(EventQueueBackend::kHeap);
  EXPECT_EQ(heap.backend(), EventQueueBackend::kHeap);
  const Simulator wheel(EventQueueBackend::kWheel);
  EXPECT_EQ(wheel.backend(), EventQueueBackend::kWheel);
}

TEST(Simulator, BackendNamesRoundTrip) {
  EXPECT_STREQ(to_string(EventQueueBackend::kHeap), "heap");
  EXPECT_STREQ(to_string(EventQueueBackend::kWheel), "wheel");
  EXPECT_EQ(parse_event_queue_backend("heap"), EventQueueBackend::kHeap);
  EXPECT_EQ(parse_event_queue_backend("wheel"), EventQueueBackend::kWheel);
  EXPECT_FALSE(parse_event_queue_backend("ring").has_value());
  EXPECT_FALSE(parse_event_queue_backend("").has_value());
}

TEST(Simulator, BackendsProduceIdenticalEventSequences) {
  // The whole Simulator surface -- schedule_at/in, cancel, run_until,
  // simultaneous ties -- driven once per backend; the observable event
  // sequence (times and payload order) must match exactly.
  const auto drive = [](EventQueueBackend backend) {
    Simulator s(backend);
    std::vector<std::pair<double, int>> fired;
    const auto record = [&fired, &s](int tag) {
      fired.emplace_back(s.now(), tag);
    };
    s.schedule_at(1.0, [&, record] { record(1); });
    s.schedule_at(1.0, [&, record] { record(2); });  // tie
    const EventId dead = s.schedule_at(1.5, [&, record] { record(99); });
    s.schedule_in(2.0, [&, record] {
      record(3);
      s.schedule_in(-1.0, [&, record] { record(4); });  // clamps to now
      s.schedule_in(500.0, [&, record] { record(6); });  // far future
    });
    s.cancel(dead);
    s.run_until(100.0);
    s.schedule_at(100.5, [&, record] { record(5); });
    s.run();
    return fired;
  };
  const auto heap = drive(EventQueueBackend::kHeap);
  const auto wheel = drive(EventQueueBackend::kWheel);
  EXPECT_EQ(heap, wheel);
  ASSERT_EQ(heap.size(), 6u);
}

TEST(Simulator, WheelBackendHandlesSelfPerpetuatingChains) {
  Simulator s(EventQueueBackend::kWheel);
  int fired = 0;
  std::function<void()> tick = [&] {
    ++fired;
    s.schedule_in(1.0, tick);
  };
  s.schedule_in(1.0, tick);
  s.run(1000);
  EXPECT_EQ(fired, 1000);
  EXPECT_DOUBLE_EQ(s.now(), 1000.0);
  EXPECT_EQ(s.events_executed(), 1000u);
}

// --------------------------------------------------------- timer handles --

/// Timer-handle tests run on both queue backends: an EventId doubles as the
/// nullable 16-byte handle protocol objects keep, and cancel_timer is how
/// they stop one.
class SimulatorTimers : public ::testing::TestWithParam<EventQueueBackend> {};

INSTANTIATE_TEST_SUITE_P(Backends, SimulatorTimers,
                         ::testing::Values(EventQueueBackend::kHeap,
                                           EventQueueBackend::kWheel),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param));
                         });

TEST_P(SimulatorTimers, DefaultHandleIsEmpty) {
  static_assert(sizeof(EventId) == 16, "a timer handle is 16 bytes");
  const EventId timer;
  EXPECT_FALSE(timer);
  EXPECT_EQ(timer, EventId{});
  // A scheduled event's handle is never empty: seq 0 is reserved.
  Simulator s(GetParam());
  const EventId first = s.schedule_at(1.0, [] {});
  EXPECT_TRUE(first);
}

TEST_P(SimulatorTimers, CancellingAnEmptyHandleReturnsFalseAndLeavesItEmpty) {
  Simulator s(GetParam());
  int fired = 0;
  s.schedule_at(1.0, [&] { ++fired; });
  EventId timer;
  EXPECT_FALSE(s.cancel_timer(timer));
  EXPECT_FALSE(timer);
  // Nothing else was touched: the unrelated event still runs.
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST_P(SimulatorTimers, CancellingAFiredHandleReturnsFalseAndEmptiesIt) {
  Simulator s(GetParam());
  int fired = 0;
  EventId timer = s.schedule_at(1.0, [&] { ++fired; });
  s.run();
  ASSERT_EQ(fired, 1);
  ASSERT_TRUE(timer);  // still names the event that ran
  // The fired event's pool slot now holds a new event; the stale handle
  // must not cancel it.
  s.schedule_at(2.0, [&] { ++fired; });
  EXPECT_FALSE(s.cancel_timer(timer));
  EXPECT_FALSE(timer);
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST_P(SimulatorTimers, CancellingAPendingEventRunsNothingAndClearsTheHandle) {
  Simulator s(GetParam());
  int fired = 0;
  EventId timer = s.schedule_at(1.0, [&] { ++fired; });
  s.schedule_at(2.0, [&] { fired += 10; });
  EXPECT_TRUE(s.cancel_timer(timer));
  EXPECT_FALSE(timer);
  EXPECT_EQ(s.pending_events(), 1u);
  // A second cancel through the now-empty handle is a no-op.
  EXPECT_FALSE(s.cancel_timer(timer));
  s.run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(s.events_executed(), 1u);
}

// ------------------------------------------------------------- defusing --

TEST_P(SimulatorTimers, DefusedEventRunsNothingAndClearsTheHandle) {
  Simulator s(GetParam());
  int fired = 0;
  EventId timer = s.schedule_at(1.0, [&] { ++fired; });
  s.schedule_at(2.0, [&] { fired += 10; });
  EXPECT_TRUE(s.defuse(timer));
  EXPECT_FALSE(timer);
  // Unlike a cancelled event, the defused one is still pending.
  EXPECT_EQ(s.pending_events(), 2u);
  s.run();
  EXPECT_EQ(fired, 10);
}

TEST_P(SimulatorTimers, DefusedEventStillCountsAsExecuted) {
  Simulator s(GetParam());
  EventId timer = s.schedule_at(1.0, [] {});
  s.schedule_at(2.0, [] {});
  ASSERT_TRUE(s.defuse(timer));
  s.run();
  EXPECT_EQ(s.events_executed(), 2u);
  EXPECT_TRUE(s.idle());
}

TEST_P(SimulatorTimers, DefusedEventKeepsTheClockAndOrderOfANoOpTwin) {
  // Two runs of one schedule, with ties at t = 2: in one the event at
  // index 2 is defused, in the other it was a no-op from the start.  Every
  // step must pop at the same time, in the same order.
  using Trace = std::vector<std::pair<Time, int>>;
  const auto drive = [this](bool defuse) {
    Simulator s(GetParam());
    Trace trace;
    const std::vector<Time> times{1.0, 2.0, 2.0, 2.0, 3.5};
    EventId target;
    for (std::size_t i = 0; i < times.size(); ++i) {
      const int id = static_cast<int>(i);
      if (i == 2 && !defuse) {
        s.schedule_at(times[i], [] {});
        continue;
      }
      const EventId handle = s.schedule_at(
          times[i], [&trace, &s, id] { trace.emplace_back(s.now(), id); });
      if (i == 2) target = handle;
    }
    if (defuse) {
      EXPECT_TRUE(s.defuse(target));
    }
    while (s.step()) trace.emplace_back(s.now(), -1);
    EXPECT_EQ(s.events_executed(), times.size());
    return trace;
  };
  const Trace defused = drive(true);
  EXPECT_EQ(defused, drive(false));
  // The defused event's own step still moved the clock to t = 2.
  EXPECT_EQ(std::count(defused.begin(), defused.end(),
                       std::pair<Time, int>{2.0, -1}),
            3);
}

TEST_P(SimulatorTimers, DefusingAnEmptyRunOrCancelledHandleReturnsFalse) {
  Simulator s(GetParam());
  int fired = 0;
  EventId empty;
  EXPECT_FALSE(s.defuse(empty));
  EXPECT_FALSE(empty);

  EventId ran = s.schedule_at(1.0, [&] { ++fired; });
  s.run();
  ASSERT_EQ(fired, 1);
  // The run event's slot now holds a new event; the stale handle must not
  // defuse it.
  s.schedule_at(2.0, [&] { fired += 10; });
  EXPECT_FALSE(s.defuse(ran));
  EXPECT_FALSE(ran);

  EventId cancelled = s.schedule_at(3.0, [&] { fired += 100; });
  EventId copy = cancelled;
  ASSERT_TRUE(s.cancel_timer(cancelled));
  EXPECT_FALSE(s.defuse(copy));
  EXPECT_FALSE(copy);
  s.run();
  EXPECT_EQ(fired, 11);
  EXPECT_EQ(s.events_executed(), 2u);
}

TEST_P(SimulatorTimers, DefusingAnEventDrainedIntoTheCurrentSliceRunsTheNoOp) {
  // run_slice drains every event due by the horizon before dispatching
  // any, so the event at t = 2 is already out of the queue when the one at
  // t = 1 defuses it: take_drained must hand out the no-op.
  Simulator s(GetParam());
  int fired = 0;
  EventId later;
  s.schedule_at(1.0, [&] {
    ++fired;
    EXPECT_TRUE(s.defuse(later));
  });
  later = s.schedule_at(2.0, [&] { fired += 10; });
  s.schedule_at(3.0, [&] { fired += 100; });
  EXPECT_FALSE(s.run_slice(10.0, [] { return false; }));
  EXPECT_EQ(fired, 101);
  EXPECT_EQ(s.events_executed(), 3u);
  EXPECT_FALSE(later);
  EXPECT_TRUE(s.idle());
}

TEST_P(SimulatorTimers, DefusingAllocatesNothing) {
  Simulator s(GetParam());
  // Grow the pool first, so the loop below only reuses slots.
  for (int i = 0; i < 64; ++i) s.schedule_in(1.0, [] {});
  s.run();
  const std::uint64_t before = EventCallback::heap_allocations();
  std::uint64_t sum = 0;
  for (int round = 0; round < 100; ++round) {
    std::vector<EventId> timers;
    for (int i = 0; i < 64; ++i) {
      timers.push_back(s.schedule_in(1.0 + i, [&sum, i] { sum += i; }));
    }
    for (std::size_t i = 0; i < timers.size(); i += 2) {
      ASSERT_TRUE(s.defuse(timers[i]));
    }
    s.run();
  }
  EXPECT_EQ(EventCallback::heap_allocations(), before);
  // Only the odd events ran: 100 rounds of 1 + 3 + ... + 63.
  EXPECT_EQ(sum, 100u * 32u * 32u);
}

// ------------------------------------------------------ arrival streams --

/// Every arrival-stream test runs on both queue backends.
class SimulatorArrivals : public ::testing::TestWithParam<EventQueueBackend> {};

INSTANTIATE_TEST_SUITE_P(Backends, SimulatorArrivals,
                         ::testing::Values(EventQueueBackend::kHeap,
                                           EventQueueBackend::kWheel),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param));
                         });

/// A log entry of an executed event: (clock, tag).
using Fired = std::vector<std::pair<double, int>>;

/// Runs every pending event through run_slice slices of `width`.
void run_in_slices(Simulator& s, double width) {
  while (const std::optional<Time> next = s.next_pending_time()) {
    s.run_slice(*next + width, [] { return false; });
  }
}

TEST_P(SimulatorArrivals, ArrivalAtAQueuedEventsTimeRunsFirst) {
  // Queued before the stream is installed, yet the tied arrival still runs
  // first: an arrival stands for an event pushed before all others.  Both
  // the slice path and the step path merge the same way.
  for (const bool slices : {true, false}) {
    Simulator s(GetParam());
    Fired fired;
    s.schedule_at(2.0, [&] { fired.emplace_back(s.now(), -1); });
    const std::vector<Time> times{2.0};
    s.set_arrivals(times, [&](std::uint32_t i) {
      fired.emplace_back(s.now(), static_cast<int>(i));
      // Scheduled by the arrival at its own time: after the tied event.
      s.schedule_in(0.0, [&] { fired.emplace_back(s.now(), -2); });
    });
    if (slices) {
      run_in_slices(s, 10.0);
    } else {
      s.run();
    }
    EXPECT_EQ(fired, (Fired{{2.0, 0}, {2.0, -1}, {2.0, -2}})) << slices;
    EXPECT_EQ(s.events_executed(), 3u);
    EXPECT_TRUE(s.idle());
  }
}

TEST_P(SimulatorArrivals, EqualTimeArrivalsRunInIndexOrder) {
  Simulator s(GetParam());
  std::vector<std::uint32_t> order;
  const std::vector<Time> times{3.0, 1.0, 3.0, 1.0, 3.0, 0.0};
  s.set_arrivals(times, [&](std::uint32_t i) {
    EXPECT_EQ(s.now(), times[i]);
    order.push_back(i);
  });
  EXPECT_EQ(s.pending_events(), 6u);
  EXPECT_FALSE(s.idle());
  EXPECT_EQ(s.slot_capacity(), 0u);  // arrivals hold no queue slot
  run_in_slices(s, 0.5);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{5, 1, 3, 0, 2, 4}));
  EXPECT_EQ(s.events_executed(), 6u);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST_P(SimulatorArrivals, StopMidSliceResumesInTheSameOrder) {
  // Arrivals interleaved with drained events and with events the slice
  // itself schedules.  Stopping after every k-th event and resuming must
  // reproduce the uninterrupted order, for every k.
  const auto drive = [this](std::size_t stop_every) {
    Simulator s(GetParam());
    Fired fired;
    for (int q = 0; q < 4; ++q) {
      s.schedule_at(1.0 + q, [&s, &fired, q] {
        fired.emplace_back(s.now(), 100 + q);
        s.schedule_in(0.5, [&s, &fired, q] {
          fired.emplace_back(s.now(), 200 + q);
        });
      });
    }
    const std::vector<Time> times{1.0, 1.5, 2.0, 2.0, 3.5, 4.0};
    s.set_arrivals(times, [&](std::uint32_t i) {
      fired.emplace_back(s.now(), static_cast<int>(i));
    });
    std::size_t count = 0;
    const auto stop = [&] {
      return stop_every != 0 && ++count % stop_every == 0;
    };
    while (const std::optional<Time> next = s.next_pending_time()) {
      s.run_slice(*next + 10.0, stop);
    }
    EXPECT_EQ(s.events_executed(), fired.size());
    return fired;
  };
  const Fired whole = drive(0);
  ASSERT_EQ(whole.size(), 14u);
  EXPECT_EQ(whole.front(), (std::pair<double, int>{1.0, 0}));
  EXPECT_EQ(whole[1], (std::pair<double, int>{1.0, 100}));
  for (std::size_t k = 1; k <= whole.size(); ++k) {
    EXPECT_EQ(drive(k), whole) << "stop every " << k;
  }
}

TEST_P(SimulatorArrivals, NextPendingWithinReportsArrivalsAtOrBeforeTheBound) {
  Simulator s(GetParam());
  s.schedule_at(7.0, [] {});
  const std::vector<Time> times{5.0};
  s.set_arrivals(times, [](std::uint32_t) {});
  EXPECT_EQ(s.next_pending_within(5.0), std::optional<Time>(5.0));
  EXPECT_EQ(s.next_pending_within(6.0), std::optional<Time>(5.0));
  EXPECT_FALSE(s.next_pending_within(4.9).has_value());
  EXPECT_EQ(s.next_pending_time(), std::optional<Time>(5.0));
  // A queued event earlier than the arrival is the earliest pending one.
  s.schedule_at(3.0, [] {});
  EXPECT_EQ(s.next_pending_within(5.0), std::optional<Time>(3.0));
  EXPECT_EQ(s.next_pending_within(3.0), std::optional<Time>(3.0));
  EXPECT_FALSE(s.next_pending_within(2.0).has_value());
  s.run_until(5.0);
  EXPECT_EQ(s.events_executed(), 2u);
  EXPECT_EQ(s.next_pending_time(), std::optional<Time>(7.0));
  EXPECT_FALSE(s.next_pending_within(6.0).has_value());
}

TEST_P(SimulatorArrivals, StepRunUntilAndRunMergeTheStream) {
  Simulator s(GetParam());
  Fired fired;
  s.schedule_at(1.5, [&] { fired.emplace_back(s.now(), -1); });
  s.schedule_at(4.0, [&] { fired.emplace_back(s.now(), -2); });
  const std::vector<Time> times{2.0, 1.0, 4.0};
  s.set_arrivals(times, [&](std::uint32_t i) {
    fired.emplace_back(s.now(), static_cast<int>(i));
  });
  ASSERT_TRUE(s.step());
  EXPECT_EQ(s.now(), 1.0);
  s.run_until(3.0);
  EXPECT_EQ(s.now(), 3.0);
  EXPECT_EQ(s.events_executed(), 3u);
  s.run(4);  // stops at four executed events in all
  EXPECT_EQ(s.events_executed(), 4u);
  s.run();
  EXPECT_FALSE(s.step());
  EXPECT_EQ(fired,
            (Fired{{1.0, 1}, {1.5, -1}, {2.0, 0}, {4.0, 2}, {4.0, -2}}));
}

TEST_P(SimulatorArrivals, SetArrivalsValidatesItsInput) {
  Simulator s(GetParam());
  s.schedule_at(2.0, [] {});
  s.run();
  const std::vector<Time> past{3.0, 1.0};
  EXPECT_THROW(s.set_arrivals(past, [](std::uint32_t) {}),
               std::invalid_argument);
  const std::vector<Time> nan{std::nan("")};
  EXPECT_THROW(s.set_arrivals(nan, [](std::uint32_t) {}),
               std::invalid_argument);
  const std::vector<Time> inf{std::numeric_limits<Time>::infinity()};
  EXPECT_THROW(s.set_arrivals(inf, [](std::uint32_t) {}),
               std::invalid_argument);
  const std::vector<Time> times{2.0, 5.0};
  int arrived = 0;
  s.set_arrivals(times, [&](std::uint32_t) { ++arrived; });
  EXPECT_THROW(s.set_arrivals(times, [](std::uint32_t) {}), std::logic_error);
  s.run();
  EXPECT_EQ(arrived, 2);
  // A drained stream may be replaced by a new one.
  const std::vector<Time> later{6.0};
  s.set_arrivals(later, [&](std::uint32_t) { ++arrived; });
  s.run();
  EXPECT_EQ(arrived, 3);
  EXPECT_EQ(s.now(), 6.0);
}

/// Seeded random workload for the differential below.  Every executed
/// event logs (clock, tag) and may schedule follow-ups -- at zero delay
/// (same-time ties), at a coarse-grid delay (ties with arrivals) or at an
/// exponential one -- and may cancel a pending follow-up.  A shared RNG is
/// fine: two runs draw identically exactly when they execute identically.
class RandomWorkload {
 public:
  RandomWorkload(Simulator& s, std::uint64_t seed) : s_(s), rng_(seed, 0) {}

  void fire(int tag, int depth) {
    log.emplace_back(s_.now(), tag);
    if (depth >= 3) return;
    const std::uint64_t children = rng_.uniform_int(3);
    for (std::uint64_t c = 0; c < children; ++c) {
      const double u = rng_.uniform();
      const double delay =
          u < 0.3   ? 0.0
          : u < 0.6 ? 0.5 * static_cast<double>(rng_.uniform_int(4))
                    : rng_.exponential(1.0);
      const int child = next_tag_++;
      ids_.push_back(s_.schedule_in(
          delay, [this, child, depth] { fire(child, depth + 1); }));
    }
    if (!ids_.empty() && rng_.uniform() < 0.2) {
      s_.cancel(ids_[rng_.uniform_int(ids_.size())]);
    }
  }

  Fired log;

 private:
  Simulator& s_;
  Rng rng_;
  int next_tag_ = 1'000'000;
  std::vector<EventId> ids_;
};

TEST_P(SimulatorArrivals, StreamMatchesArrivalsPushedUpFront) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng setup(seed, 1);
    std::vector<Time> times(200);
    for (Time& t : times) t = 0.5 * static_cast<double>(setup.uniform_int(40));

    // Reference: the arrivals pushed into the queue first, in index order.
    Simulator pushed(GetParam());
    RandomWorkload ref(pushed, seed);
    for (std::size_t i = 0; i < times.size(); ++i) {
      pushed.schedule_at(times[i],
                         [&ref, i] { ref.fire(static_cast<int>(i), 0); });
    }
    pushed.run();

    // The stream, driven through run_slice with random widths and stops.
    Simulator streamed(GetParam());
    RandomWorkload got(streamed, seed);
    streamed.set_arrivals(times, [&got](std::uint32_t i) {
      got.fire(static_cast<int>(i), 0);
    });
    Rng driver(seed, 2);
    while (const std::optional<Time> next = streamed.next_pending_time()) {
      const double width = 0.5 * static_cast<double>(driver.uniform_int(4));
      streamed.run_slice(*next + width,
                         [&driver] { return driver.uniform() < 0.05; });
    }

    ASSERT_EQ(got.log, ref.log) << "seed " << seed;
    EXPECT_EQ(streamed.events_executed(), pushed.events_executed());
    EXPECT_EQ(streamed.events_executed(), got.log.size());
    EXPECT_GT(got.log.size(), times.size());
  }
}

}  // namespace
}  // namespace sigcomp::sim
