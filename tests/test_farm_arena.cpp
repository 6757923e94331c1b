// Soak and property tests of the session arena (exp/session_arena.hpp) and
// of the farm's zero-steady-state-allocation contract -- the
// test_event_queue pool-flatness discipline lifted to whole sessions:
// once the pool reaches its churn high-water mark, a hundred thousand
// randomized arrival/teardown cycles must not grow it by one slot or one
// chunk, and a steady-state farm run must not heap-allocate one event
// callback.
#include "exp/session_arena.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "analytic/tree_paths.hpp"
#include "core/params.hpp"
#include "core/protocol.hpp"
#include "exp/session_farm.hpp"
#include "protocols/scenario.hpp"
#include "sim/event_queue.hpp"

namespace sigcomp::exp {
namespace {

/// Arena occupant with externally driven quiescence and global
/// construction/destruction accounting (catches double-destroys and leaks
/// across recycling and mid-run arena teardown).
class SoakSession {
 public:
  SoakSession() { ++constructed; }
  ~SoakSession() { ++destroyed; }
  SoakSession(const SoakSession&) = delete;
  SoakSession& operator=(const SoakSession&) = delete;

  /// Marks the session safe to destroy and recycle (a drained channel pair,
  /// in farm terms).  Retirement and settling are deliberately decoupled so
  /// the soak can interleave them out of order.
  void settle() noexcept { quiescent_ = true; }
  [[nodiscard]] bool quiescent() const noexcept { return quiescent_; }

  static std::size_t constructed;
  static std::size_t destroyed;

 private:
  bool quiescent_ = false;
};

std::size_t SoakSession::constructed = 0;
std::size_t SoakSession::destroyed = 0;

TEST(FarmArena, HundredThousandChurnCyclesKeepThePoolFlat) {
  SessionArena<SoakSession> arena(64);
  std::mt19937 rng(7);  // NOLINT(cert-msc32-c,cert-msc51-cpp) fixed test seed
  // Live sessions as (slot, object); retired-but-unsettled objects wait in
  // `pending`, settled in random order -- out-of-order session ends.
  std::vector<std::pair<std::uint32_t, SoakSession*>> live;
  std::vector<SoakSession*> pending;
  constexpr std::size_t kCycles = 100000;
  constexpr std::size_t kMaxLive = 96;
  constexpr std::size_t kMaxUnsettled = 16;
  // Deterministic warm-up to the pool's invariant ceiling: kMaxLive live
  // sessions plus kMaxUnsettled cooling-but-unquiescent ones, every one in
  // a distinct slot.  Because the arena only grows when NO recyclable slot
  // exists, no state the randomized soak can reach ever needs a larger
  // pool -- so from here on, flat means FLAT.
  for (std::size_t i = 0; i < kMaxLive - kMaxUnsettled; ++i) {
    live.push_back(arena.spawn());
  }
  for (std::size_t i = 0; i < kMaxUnsettled; ++i) {
    const auto [slot, session] = arena.spawn();
    arena.retire(slot);
    pending.push_back(session);
  }
  for (std::size_t i = 0; i < kMaxUnsettled; ++i) {
    live.push_back(arena.spawn());
  }
  const std::size_t flat_capacity = arena.slot_capacity();
  const std::size_t flat_chunks = arena.chunk_allocations();
  ASSERT_EQ(flat_capacity, kMaxLive + kMaxUnsettled);
  for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
    switch (rng() % 3) {
      case 0:  // arrival
        if (live.size() < kMaxLive) {
          live.push_back(arena.spawn());
        }
        break;
      case 1:  // teardown of a random live session
        if (!live.empty()) {
          const std::size_t i = rng() % live.size();
          arena.retire(live[i].first);
          pending.push_back(live[i].second);
          live[i] = live.back();
          live.pop_back();
        }
        break;
      default:  // a random retired session reaches quiescence
        if (!pending.empty()) {
          const std::size_t i = rng() % pending.size();
          pending[i]->settle();
          pending[i] = pending.back();
          pending.pop_back();
        }
        break;
    }
    // Quiescence lags retirement by a BOUNDED delay, as in the farm (a few
    // channel delay-spans); without the bound the unsettled backlog would
    // random-walk and the high-water mark would creep with sqrt(t).
    while (pending.size() > kMaxUnsettled) {
      const std::size_t i = rng() % pending.size();
      pending[i]->settle();
      pending[i] = pending.back();
      pending.pop_back();
    }
  }
  // Pool flatness: 100k churn cycles after warm-up grew the pool by
  // nothing -- every arrival reused a recycled slot, and the high-water
  // mark is the concurrency ceiling, not the ~33k sessions spawned.
  EXPECT_EQ(arena.slot_capacity(), flat_capacity);
  EXPECT_EQ(arena.chunk_allocations(), flat_chunks);
  // Every session ever spawned is either still live, still cooling, or was
  // destroyed on reclamation -- nothing leaked, nothing destroyed twice.
  EXPECT_EQ(SoakSession::constructed - SoakSession::destroyed,
            live.size() + arena.cooling());
}

TEST(FarmArena, FreeListReusesTheSlotOfAQuiescentSession) {
  SessionArena<SoakSession> arena(8);
  const auto [first_slot, first] = arena.spawn();
  first->settle();
  arena.retire(first_slot);
  const auto [second_slot, second] = arena.spawn();
  EXPECT_EQ(second_slot, first_slot);  // recycled, not grown
  EXPECT_EQ(arena.slot_capacity(), 1u);
  EXPECT_EQ(arena.chunk_allocations(), 1u);
  second->settle();
  arena.retire(second_slot);
}

TEST(FarmArena, MidRunDestructionDestroysEveryOccupantExactlyOnce) {
  const std::size_t constructed_before = SoakSession::constructed;
  const std::size_t destroyed_before = SoakSession::destroyed;
  {
    // A farm shard stopped mid-run: live sessions, settled-and-unsettled
    // cooling sessions and recycled slots all present at destruction.
    SessionArena<SoakSession> arena(16);
    std::vector<std::pair<std::uint32_t, SoakSession*>> sessions;
    sessions.reserve(100);
    for (int i = 0; i < 100; ++i) sessions.push_back(arena.spawn());
    for (int i = 0; i < 30; ++i) {
      if (i % 3 == 0) sessions[i].second->settle();
      arena.retire(sessions[i].first);
    }
    arena.spawn();  // reclaims a settled slot, leaves the rest cooling
  }
  EXPECT_EQ(SoakSession::constructed - constructed_before,
            SoakSession::destroyed - destroyed_before);
}

TEST(FarmArena, SteadyStateFarmRunIsAllocationFreeAndRecyclesSlots) {
  // High-churn farm: a 400 s arrival window with 5 s lifetimes keeps ~50
  // sessions of 4000 in flight, so the arena must recycle furiously.  One
  // thread on a one-thread pool runs shards on THIS thread, which is what
  // makes the thread-local EventCallback counter observable.
  SessionFarmOptions options;
  options.seed = 5;
  options.sessions = 4000;
  options.arrival_rate = 10.0;
  options.session_lifetime = 5.0;
  options.threads = 1;
  options.shard_size = 4096;
  const std::size_t allocations_before = sim::EventCallback::heap_allocations();
  const SessionFarmResult result = run_session_farm(
      ProtocolKind::kSSRT, SingleHopParams::kazaa_defaults(), options);
  const std::size_t allocations_after = sim::EventCallback::heap_allocations();
  // Zero heap allocations from event scheduling across the entire run:
  // every arrival, timer, delivery and teardown closure fit the
  // EventCallback small-buffer storage -- the same discipline
  // test_event_queue pins for the queue's own pooled slots.
  EXPECT_EQ(allocations_after, allocations_before);
  EXPECT_EQ(result.sessions, 4000u);
  // Slot recycling: the pool high-water mark tracks peak concurrency (plus
  // a cooling tail), far below the 4000 sessions that passed through it.
  EXPECT_LT(result.arena_slot_high_water, 400u);
  EXPECT_GT(result.arena_slot_high_water, 0u);
  // Chunks are allocated only when the high-water mark grows: exactly
  // ceil(high_water / 256) of them, never one more.
  EXPECT_EQ(result.arena_chunk_allocations,
            (result.arena_slot_high_water + 255) / 256);
  // The event queue tracks sessions in flight too: arrivals wait outside
  // it, so its slot pool holds only live sessions' timers and deliveries,
  // never one pending arrival per session of the shard.
  EXPECT_GT(result.queue_slot_high_water, 0u);
  EXPECT_LT(result.queue_slot_high_water, 1000u);

  // The same zero-spill contract for every protocol on every farm shape:
  // single-hop sessions, single-hop sessions subscribed to shared relays
  // across the cross-shard fabric, and churning trees with relay crashes
  // and teardown.  Together they schedule every closure the library has,
  // so this is what proves EventCallback's 40-byte inline buffer is big
  // enough.  Still one thread: the fabric farm's phases run on this thread
  // too.
  for (const ProtocolKind kind : kAllProtocols) {
    SessionFarmOptions single = options;
    single.sessions = 1000;
    SessionFarmOptions relayed = single;
    relayed.shared_relays = 4;
    SessionFarmOptions tree = options;
    tree.sessions = 48;
    tree.arrival_rate = 1.0;
    tree.session_lifetime = 30.0;
    tree.leaf_churn.leaf_lifetime = 30.0;
    tree.leaf_churn.rejoin_rate = 1.0 / 30.0;
    tree.scenario.failure = protocols::FailureConfig::relay_crash(0.01);
    tree.teardown = true;
    const auto tree_params =
        analytic::TreeParams::balanced(MultiHopParams{}, 4, 2);

    const std::size_t before = sim::EventCallback::heap_allocations();
    const SessionFarmResult single_result = run_session_farm(
        kind, SingleHopParams::kazaa_defaults(), single);
    const SessionFarmResult relayed_result = run_session_farm(
        kind, SingleHopParams::kazaa_defaults(), relayed);
    const SessionFarmResult tree_result =
        run_session_farm(kind, tree_params, tree);
    EXPECT_EQ(sim::EventCallback::heap_allocations(), before)
        << to_string(kind);
    EXPECT_EQ(single_result.sessions, single.sessions);
    // The fabric carried traffic and the trees churned and crashed, so
    // those closures were scheduled, not just compiled.
    EXPECT_GT(relayed_result.relay_installs, 0u) << to_string(kind);
    EXPECT_GT(tree_result.churn.leaves, 0u) << to_string(kind);
    EXPECT_GT(tree_result.relay_crashes, 0u) << to_string(kind);
    // Finished trees recycle their slots too.
    EXPECT_LT(tree_result.arena_slot_high_water, tree.sessions)
        << to_string(kind);
  }
}

}  // namespace
}  // namespace sigcomp::exp
