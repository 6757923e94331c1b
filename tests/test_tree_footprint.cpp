// What sessions cost the heap.  TreeFootprint counts the blocks a
// tree_churn-shaped protocols::TreeSessionCore allocates while it is built,
// and the bytes those blocks still hold once it is.  The session farm keeps
// thousands of these in flight, so a layout change that adds per-node or
// per-edge allocations should fail here, not only in a benchmark run.
// FarmFootprint bounds the peak bytes a whole farm holds at once: a thread
// keeps one shard of sessions live at a time, so adding shards adds only
// their slice of the farm-wide result store; and the reduce's exact peak
// sweep needs scratch per chunk, not per session, at any shard size.
//
// Counting replaces the global operator new/delete of this test binary,
// over-aligned forms included: each block carries a small header with its
// requested size, and only allocations made on the counting thread inside
// a CountingScope are tallied.  The tally is exact (requested bytes, not
// allocator rounding), so it is the same in every build, ASan included.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <numeric>
#include <vector>

#include "analytic/tree_paths.hpp"
#include "core/metrics.hpp"
#include "core/params.hpp"
#include "core/protocol.hpp"
#include "exp/parallel.hpp"
#include "exp/peak_sweep.hpp"
#include "exp/session_farm.hpp"
#include "protocols/membership.hpp"
#include "protocols/scenario.hpp"
#include "protocols/tree_session.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

/// Room for the size header in front of every block; keeps the default
/// new alignment.
constexpr std::size_t kHeader = alignof(std::max_align_t);

thread_local bool t_counting = false;
thread_local std::size_t t_blocks = 0;   ///< blocks allocated while counting
thread_local std::ptrdiff_t t_live = 0;  ///< bytes allocated minus freed
thread_local std::ptrdiff_t t_peak = 0;  ///< the most t_live has reached

/// Header room of a block aligned to `align`: the header keeps the
/// block's alignment.
std::size_t header_for(std::size_t align) noexcept {
  return std::max(align, kHeader);
}

void* counted_new(std::size_t n, std::size_t align = kHeader) noexcept {
  const std::size_t header = header_for(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t total = (n + header + header - 1) / header * header;
  void* raw = std::aligned_alloc(header, total);
  if (raw == nullptr) return nullptr;
  *static_cast<std::size_t*>(raw) = n;
  if (t_counting) {
    ++t_blocks;
    t_live += static_cast<std::ptrdiff_t>(n);
    t_peak = std::max(t_peak, t_live);
  }
  return static_cast<char*>(raw) + header;
}

void counted_delete(void* p, std::size_t align = kHeader) noexcept {
  if (p == nullptr) return;
  void* raw = static_cast<char*>(p) - header_for(align);
  if (t_counting) {
    t_live -= static_cast<std::ptrdiff_t>(*static_cast<std::size_t*>(raw));
  }
  std::free(raw);
}

void* throwing_new(std::size_t n, std::size_t align = kHeader) {
  void* p = counted_new(n, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return throwing_new(n); }
void* operator new[](std::size_t n) { return throwing_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_new(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_new(n);
}
void operator delete(void* p) noexcept { counted_delete(p); }
void operator delete[](void* p) noexcept { counted_delete(p); }
void operator delete(void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_delete(p);
}
// Over-aligned blocks (the session arena's chunks) are counted the same
// way, with a header as wide as their alignment.
void* operator new(std::size_t n, std::align_val_t al) {
  return throwing_new(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return throwing_new(n, static_cast<std::size_t>(al));
}
void operator delete(void* p, std::align_val_t al) noexcept {
  counted_delete(p, static_cast<std::size_t>(al));
}
void operator delete[](void* p, std::align_val_t al) noexcept {
  counted_delete(p, static_cast<std::size_t>(al));
}
void operator delete(void* p, std::size_t, std::align_val_t al) noexcept {
  counted_delete(p, static_cast<std::size_t>(al));
}
void operator delete[](void* p, std::size_t, std::align_val_t al) noexcept {
  counted_delete(p, static_cast<std::size_t>(al));
}

namespace sigcomp::protocols {
namespace {

/// Tallies this thread's allocations for its lifetime.
class CountingScope {
 public:
  CountingScope() {
    t_blocks = 0;
    t_live = 0;
    t_peak = 0;
    t_counting = true;
  }
  ~CountingScope() { t_counting = false; }
  CountingScope(const CountingScope&) = delete;
  CountingScope& operator=(const CountingScope&) = delete;

  [[nodiscard]] std::size_t blocks() const noexcept { return t_blocks; }
  [[nodiscard]] std::ptrdiff_t live_bytes() const noexcept { return t_live; }
  [[nodiscard]] std::ptrdiff_t peak_bytes() const noexcept { return t_peak; }
};

TreeSessionRngs session_rngs() {
  return {sim::Rng(1, 1), sim::Rng(1, 2), sim::Rng(1, 3), sim::Rng(1, 4),
          sim::Rng(1, 5), sim::Rng(1, 6), sim::Rng(1, 7)};
}

TEST(TreeFootprint, CountingSeesEveryBlockAndItsBytes) {
  CountingScope scope;
  auto* a = new std::uint64_t[3];
  auto* b = new std::uint32_t(7);
  EXPECT_EQ(scope.blocks(), 2u);
  EXPECT_EQ(scope.live_bytes(), 3 * 8 + 4);
  delete[] a;
  delete b;
  EXPECT_EQ(scope.blocks(), 2u);
  EXPECT_EQ(scope.live_bytes(), 0);
  EXPECT_EQ(scope.peak_bytes(), 3 * 8 + 4);
}

TEST(TreeFootprint, TreeChurnSessionCoreBuildsInAFewBlocks) {
  // farmbench's tree_churn session: a fanout-4 depth-2 tree (20 relays,
  // 16 receivers) with leaf churn and relay crashes.
  const analytic::TreeParams params =
      analytic::TreeParams::balanced(MultiHopParams{}, 4, 2);
  const TimerSettings timers{sim::Distribution::kDeterministic,
                             params.refresh_timer, params.timeout_timer,
                             params.retrans_timer};
  ChurnOptions churn;
  churn.leaf_lifetime = 30.0;
  churn.rejoin_rate = 1.0 / 30.0;
  ScenarioOptions scenario;
  scenario.failure = FailureConfig::relay_crash(0.01);
  const TreeShape shape =
      TreeShape::of(params, sim::DelayModel::kDeterministic, 1.0);
  int changes = 0;
  const std::function<void()> on_change = [&changes] { ++changes; };
  for (const ProtocolKind kind : kAllProtocols) {
    sim::Simulator sim;
    TreeSessionRngs rngs = session_rngs();
    std::size_t blocks = 0;
    std::ptrdiff_t live = 0;
    {
      CountingScope scope;
      TreeSessionCore core(sim, kind, params, shape, timers, churn, scenario,
                           rngs, on_change);
      blocks = scope.blocks();
      live = scope.live_bytes();
    }
    // Measured with gcc 12 / libstdc++: 11 blocks holding 12,113 bytes
    // (HS: 12 and 12,433, with its per-relay false-signal timers).  The
    // Topology, its one block of nodes, channels (which borrow the shape's
    // links) and per-edge arrays, and the membership and failure processes
    // with their vectors.
    EXPECT_LE(blocks, 12u) << to_string(kind);
    EXPECT_LE(live, 12500) << to_string(kind);
  }
}

/// Sessions per shard of the FarmFootprint farms.
constexpr std::size_t kFootprintShard = 256;

/// Peak bytes held at once by a hold-shaped SS+RT farm of `shards` shards
/// of kFootprintShard sessions, run on this thread.  Every session arrives
/// within 10 s and lives 300 s on average, so all of a shard's sessions are
/// live together.
std::ptrdiff_t hold_farm_peak(std::size_t shards,
                              sim::EventQueueBackend queue) {
  // One pool thread: parallel_for runs every shard on the calling thread,
  // where the counting happens.  The pool itself is built uncounted.
  exp::ParallelSweep engine(1);
  exp::SessionFarmOptions options;
  options.sessions = shards * kFootprintShard;
  options.shard_size = kFootprintShard;
  options.arrival_rate = static_cast<double>(options.sessions) / 10.0;
  options.session_lifetime = 300.0;
  options.engine = &engine;
  options.event_queue = queue;
  CountingScope scope;
  const exp::SessionFarmResult result = exp::run_session_farm(
      ProtocolKind::kSSRT, SingleHopParams::kazaa_defaults(), options);
  EXPECT_EQ(result.sessions, options.sessions);
  EXPECT_EQ(result.shards, shards);
  return scope.peak_bytes();
}

TEST(FarmFootprint, OneThreadHoldsOneShardOfSessionsAtATime) {
  // What each further session may cost: its slot of the farm-wide store
  // (metrics, arrival and completion times) and, while its shard runs, its
  // 4 B entry in the simulator's arrival cursor.
  constexpr auto kStoreBytes = static_cast<std::ptrdiff_t>(
      sizeof(Metrics) + 2 * sizeof(double) + sizeof(std::uint32_t));
  // Shards differ in the queue high water their sessions reach, and a
  // queue grows by doubling.  Measured with gcc 12 / libstdc++ on the
  // heap: the first shard peaks at 1,019 event slots, the third at 1,028,
  // and that one doubling holds about 125 kB more.
  constexpr std::ptrdiff_t kSlack = 192 * 1024;
  const auto extra_sessions = static_cast<std::ptrdiff_t>(7 * kFootprintShard);
  for (const auto queue :
       {sim::EventQueueBackend::kHeap, sim::EventQueueBackend::kWheel}) {
    const std::ptrdiff_t one = hold_farm_peak(1, queue);
    const std::ptrdiff_t eight = hold_farm_peak(8, queue);
    // Measured as above: 441,784 and 725,248 B on the heap.  A loop that
    // keeps every shard live until the last one finishes holds 3.8 MB.
    EXPECT_LE(eight - one, extra_sessions * kStoreBytes + kSlack)
        << sim::to_string(queue) << ": peak with 1 shard " << one
        << " B, with 8 shards " << eight << " B";
    // The bound means something: one shard alone holds more than the slack.
    EXPECT_GT(one, kSlack) << sim::to_string(queue);
  }
}

TEST(FarmFootprint, PeakSweepOverOneSessionShardsHoldsChunkScratchOnly) {
  // A shard_size = 1 farm's store: 131,072 runs of one session each.  The
  // sweep sorts short runs together in place into groups of 4,096 or more
  // and gives each chunk about 4,096 starts, so its heap peak is a few
  // chunks' scratch.  Sweeping such runs as one chunk holds about 32 B per
  // session, 4 MiB here.
  constexpr std::size_t kSessions = std::size_t{1} << 17;
  constexpr std::ptrdiff_t kScratch = 512 * 1024;
  sim::Rng rng(11, 0);
  std::vector<double> starts(kSessions);
  std::vector<double> ends(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    starts[i] = rng.uniform() * 400.0;
    ends[i] = starts[i] + rng.exponential(10.0);
  }
  // The same sessions as one sorted run.
  std::vector<double> one_run_starts = starts;
  std::vector<double> one_run_ends = ends;
  std::ranges::sort(one_run_starts);
  std::ranges::sort(one_run_ends);
  const std::vector<std::size_t> one_run{0, kSessions};
  std::vector<std::size_t> bounds(kSessions + 1);
  std::iota(bounds.begin(), bounds.end(), std::size_t{0});
  // One pool thread: the sweep runs on the calling thread, where the
  // counting happens.
  exp::ThreadPool pool(1);
  const std::size_t expected =
      exp::peak_in_flight(one_run_starts, one_run_ends, one_run, pool);
  CountingScope scope;
  EXPECT_EQ(exp::peak_in_flight(starts, ends, bounds, pool), expected);
  EXPECT_LE(scope.peak_bytes(), kScratch);
}

}  // namespace
}  // namespace sigcomp::protocols
