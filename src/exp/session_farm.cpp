// Arena-backed farm execution layer.
//
// Four structural changes over the task-per-shard farm that
// tests/reference_session_farm.cpp preserves (and the differential suite
// diffs against, element-wise per session):
//
//  * Arena/SoA session state: every per-session object lives in a pre-sized
//    per-shard SessionArena (exp/session_arena.hpp).  Single-hop sessions
//    are flattened -- channels and engines are direct members, no
//    unique_ptr indirection -- and their slots are recycled through a
//    free list once quiescent, so steady-state arrival/teardown performs
//    zero heap allocations (asserted by tests via the arena counters and
//    EventCallback::heap_allocations()).
//  * Shards run to completion: pool threads claim shards dynamically
//    through parallel_for, and the claiming thread builds its shard,
//    advances the shard's Simulator in time slices (Simulator::run_slice)
//    until the last session completes, records the outcome and destroys
//    the shard before claiming the next.  A thread holds one shard's
//    sessions at a time, so peak memory is O(threads x shard_size)
//    sessions plus the O(N) result store, and each shard's allocations
//    live and die on one thread.  Batched timer-expiry delivery within a
//    slice amortizes queue pops on the refresh-storm hot path.
//  * Results written in place: one farm-wide FarmStore holds every
//    session's Metrics (and churn report, when sessions own a
//    MembershipController) by global index, and each shard's begin and
//    completion times in its slice; each shard's ShardSink is a view of
//    that slice, so shards hand back only counters and the reduce reads
//    the store directly.  The thread that ran a shard sorts its slice of
//    begin times once the shard is done (completion times arrive in time
//    order), and the reduce's exact peak_sessions_in_flight sweeps those
//    per-shard runs in parallel chunks of the time axis
//    (exp/peak_sweep.hpp), replacing the summed-per-shard upper bound
//    without a global sort.
//  * Arrivals outside the queue: each shard hands its simulator the
//    sessions' arrival times from the store as a sorted arrival stream
//    instead of pushing one pending event per session, so a shard's queue
//    holds only the events of sessions in flight.
//
// The determinism contract is unchanged and load-bearing: per-session
// randomness stays keyed to the global session index, shard boundaries stay
// fixed by shard_size alone, and per-session metrics are reduced in global
// session order.  The rewrite is bit-identical to the reference farm at any
// thread count and shard size because every shard's EVENT STREAM is
// identical:
//
//  * The reference constructs all sessions up front, and each construction
//    pushes exactly ONE event (the arrival; everything else a session ctor
//    does is passive), so its arrivals hold the shard's lowest seqs, in
//    session order.  The arena farm pushes no arrival event: it hands the
//    shard's fresh Simulator an arrival stream (Simulator::set_arrivals)
//    with the same times -- re-derived from a fresh kSessionLifecycle
//    stream, the same first draw the session itself repeats at spawn time.
//    The simulator merges that stream with its queue so that an arrival
//    wins a time tie with any queued event and equal-time arrivals run in
//    session order: exactly where the reference's lowest-seq arrival
//    events pop.  Each arrival also counts as one executed event.
//  * When an arrival fires, the session is placement-constructed (passive)
//    and begin() runs inside that same arrival -- exactly the work the
//    reference's arrival event performs, pushing the same follow-up events
//    in the same order.  By induction the reference's pending set equals
//    the arena farm's queue plus its unfired arrivals at every step (each
//    queued seq shifted by the shard's session count), and run_slice
//    dispatches in exact merged pop order, so every RNG draw, message and
//    metric lands identically.
#include "exp/session_farm.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/rng_streams.hpp"
#include "exp/peak_sweep.hpp"
#include "exp/session_arena.hpp"
#include "exp/shard_ring.hpp"
#include "exp/thread_pool.hpp"
#include "protocols/engine.hpp"
#include "protocols/shared_relay.hpp"
#include "protocols/topology.hpp"
#include "protocols/tree_session.hpp"
#include "sim/channel.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace sigcomp::exp {

// ------------------------------------------------- the exact peak sweep --

namespace {

/// Starts per sweep chunk that the chunk count aims at, and the fewest
/// sessions in a group of adjacent runs: enough to pay for a chunk's
/// binary searches over every group, few enough that a farm's reduce
/// spreads over the pool.
constexpr std::size_t kSweepChunk = 4096;

/// Start times sampled per chunk to place the chunk edges.
constexpr std::size_t kSweepSamples = 8;

/// Merges the sorted runs laid end to end in `a` -- run i at [at[i],
/// at[i + 1]) -- pairwise into one sorted run, ping-ponging with `b` (a's
/// size).  Returns whichever of the two holds the result.
const std::vector<double>& merge_runs(std::vector<double>& a,
                                      std::vector<double>& b,
                                      std::vector<std::size_t>& at) {
  std::vector<double>* from = &a;
  std::vector<double>* to = &b;
  std::vector<std::size_t> merged;
  while (at.size() > 2) {
    const std::size_t runs = at.size() - 1;
    merged.assign(1, 0);
    for (std::size_t i = 0; i < runs; i += 2) {
      const double* base = from->data();
      const std::size_t hi = at[std::min(i + 2, runs)];
      std::merge(base + at[i], base + at[i + 1], base + at[i + 1], base + hi,
                 to->data() + at[i]);
      merged.push_back(hi);
    }
    std::swap(from, to);
    at.swap(merged);
  }
  return *from;
}

/// Copies every run's part of [lo, hi) of `times` end to end into `out`,
/// recording where each non-empty part ends in `at`.  Returns how many of
/// the runs' times lie before lo.
std::size_t gather_runs(std::span<const double> times,
                        std::span<const std::size_t> bounds, double lo,
                        double hi, std::vector<double>& out,
                        std::vector<std::size_t>& at) {
  std::size_t before = 0;
  for (std::size_t r = 0; r + 1 < bounds.size(); ++r) {
    const std::span<const double> run =
        times.subspan(bounds[r], bounds[r + 1] - bounds[r]);
    const auto first = std::lower_bound(run.begin(), run.end(), lo);
    const auto past = std::lower_bound(first, run.end(), hi);
    before += static_cast<std::size_t>(first - run.begin());
    if (first == past) continue;
    out.insert(out.end(), first, past);
    at.push_back(out.size());
  }
  return before;
}

/// The peak over the starts in [lo, hi): the count in flight just before
/// lo, taken from binary searches over every run, then a sweep of the
/// chunk's merged sub-runs.  Ends at or after the chunk's last start lower
/// none of its counts, so they are left out.
std::size_t chunk_peak(std::span<const double> starts,
                       std::span<const double> ends,
                       std::span<const std::size_t> bounds, double lo,
                       double hi) {
  std::vector<double> in;
  std::vector<std::size_t> in_at{0};
  const std::size_t started = gather_runs(starts, bounds, lo, hi, in, in_at);
  if (in.empty()) return 0;
  const double last = *std::max_element(in.begin(), in.end());
  std::vector<double> out;
  std::vector<std::size_t> out_at{0};
  const std::size_t ended = gather_runs(ends, bounds, lo, last, out, out_at);

  std::vector<double> in_scratch(in.size());
  const std::vector<double>& begins = merge_runs(in, in_scratch, in_at);
  std::vector<double> out_scratch(out.size());
  const std::vector<double>& completions =
      merge_runs(out, out_scratch, out_at);
  std::size_t active = started - ended;
  std::size_t peak = 0;
  std::size_t next_end = 0;
  for (const double start : begins) {
    while (next_end < completions.size() && completions[next_end] < start) {
      --active;
      ++next_end;
    }
    ++active;
    peak = std::max(peak, active);
  }
  return peak;
}

}  // namespace

std::size_t peak_in_flight(std::span<double> starts, std::span<double> ends,
                           std::span<const std::size_t> bounds,
                           ThreadPool& pool) {
  const std::size_t total = starts.size();
  if (total == 0) return 0;
  // Every chunk binary-searches every run, so runs shorter than a chunk
  // are first sorted together in place, adjacent ones at a time, into
  // groups of at least kSweepChunk sessions.  That keeps the chunk count
  // near total / kSweepChunk and the sweep's scratch per chunk whatever
  // the shard size; a run that long is a group of its own, left as it is.
  std::vector<std::size_t> group_runs{0};  // the first run of each group
  for (std::size_t r = 1; r < bounds.size(); ++r) {
    if (bounds[r] - bounds[group_runs.back()] >= kSweepChunk ||
        r + 1 == bounds.size()) {
      group_runs.push_back(r);
    }
  }
  std::vector<std::size_t> groups;
  for (const std::size_t r : group_runs) groups.push_back(bounds[r]);
  const std::size_t group_count = groups.size() - 1;
  if (group_count + 1 < bounds.size()) {
    parallel_for(pool, group_count, [&](std::size_t g) {
      if (group_runs[g + 1] - group_runs[g] == 1) return;
      const std::size_t first = groups[g];
      const std::size_t count = groups[g + 1] - first;
      std::ranges::sort(starts.subspan(first, count));
      std::ranges::sort(ends.subspan(first, count));
    });
  }
  // No more chunks than the groups are long on average.
  const std::size_t chunks = std::max<std::size_t>(
      1, std::min(total / kSweepChunk, total / group_count));
  // Chunk edges at evenly spaced ranks of a sample of the starts: one
  // start from each of sample.size() equal strides of the runs laid end to
  // end, at a golden-ratio offset into its stride.  Runs that overlap in
  // time then give their samples at different ranks of their own, not all
  // at the same few, so the sample spreads like a random one and the
  // chunks hold about as many starts each.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kGolden = 0.6180339887498949;
  std::vector<double> edges{-kInf};
  if (chunks > 1) {
    std::vector<double> sample(chunks * kSweepSamples);
    const double stride =
        static_cast<double>(total) / static_cast<double>(sample.size());
    for (std::size_t i = 0; i < sample.size(); ++i) {
      const double offset = std::fmod(kGolden * static_cast<double>(i), 1.0);
      sample[i] = starts[static_cast<std::size_t>(
          (static_cast<double>(i) + offset) * stride)];
    }
    std::sort(sample.begin(), sample.end());
    for (std::size_t c = 1; c < chunks; ++c) {
      edges.push_back(sample[c * kSweepSamples]);
    }
  }
  edges.push_back(kInf);

  std::vector<std::size_t> peaks(chunks, 0);
  parallel_for(pool, chunks, [&](std::size_t c) {
    peaks[c] = chunk_peak(starts, ends, groups, edges[c], edges[c + 1]);
  });
  return *std::max_element(peaks.begin(), peaks.end());
}

FarmCounters& FarmCounters::operator+=(const FarmCounters& other) noexcept {
  messages += other.messages;
  events_executed += other.events_executed;
  receiver_timeouts += other.receiver_timeouts;
  relay_crashes += other.relay_crashes;
  relay_recoveries += other.relay_recoveries;
  teardown_messages += other.teardown_messages;
  relay_installs += other.relay_installs;
  relay_refreshes += other.relay_refreshes;
  relay_soft_timeouts += other.relay_soft_timeouts;
  fabric_dropped += other.fabric_dropped;
  return *this;
}

namespace {

using protocols::MessageChannel;
using protocols::Message;

/// Width of one run_slice call of a relay-free shard (simulated seconds):
/// the batch its due timer expiries are drained in.  A pure performance
/// knob: each slice is anchored at the shard's next pending event, and
/// run_slice preserves exact pop order, so any width yields the same
/// results.  10 s spans several refresh periods, batching enough expiries
/// per drain to amortize the pops.
constexpr double kSliceSeconds = 10.0;

/// Epoch width of the cross-shard fabric (simulated seconds).  UNLIKE
/// kSliceSeconds this is a MODEL parameter, not a performance knob: fabric
/// messages are delivered at the next epoch boundary, so the width bounds
/// the inter-session delivery latency -- and results must not depend on
/// thread count or shard size, which they would if the width ever varied
/// with either.  Hence a fixed constant: 1 s sits well under the default
/// refresh period (an install is visible at the relay before the first
/// refresh fires) while keeping epoch-barrier counts in the thousands.
constexpr double kFabricSliceSeconds = 1.0;

void validate_options(const SessionFarmOptions& options) {
  if (options.sessions == 0) {
    throw std::invalid_argument("SessionFarmOptions: sessions must be > 0");
  }
  if (options.arrival_rate <= 0.0) {
    throw std::invalid_argument("SessionFarmOptions: arrival_rate must be > 0");
  }
  if (options.session_lifetime <= 0.0) {
    throw std::invalid_argument(
        "SessionFarmOptions: session_lifetime must be > 0");
  }
  if (options.shard_size == 0) {
    throw std::invalid_argument("SessionFarmOptions: shard_size must be > 0");
  }
  // Arena slots and the simulator's arrival cursor index a shard's
  // sessions with 32 bits.
  if (options.shard_size > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "SessionFarmOptions: shard_size must be <= 2^32 - 1");
  }
  options.leaf_churn.validate();
  options.scenario.validate();
}

/// Global-index -> shard mapping of a fabric run.  Subscriber shards
/// partition [0, sessions) into the SAME fixed blocks as the base farm;
/// relay shards partition [sessions, sessions + relays) with the same
/// shard_size, starting at a fresh shard boundary (a shard never mixes the
/// two session types).  Pure arithmetic on global indices, so every worker
/// can route without shared state.
struct FabricMap {
  std::size_t shard_size = 1;
  std::size_t sessions = 0;    ///< subscriber count (relays start here)
  std::size_t sub_shards = 0;  ///< number of subscriber shards

  [[nodiscard]] std::uint32_t shard_of(std::uint64_t g) const noexcept {
    if (g < sessions) return static_cast<std::uint32_t>(g / shard_size);
    return static_cast<std::uint32_t>(sub_shards +
                                      (g - sessions) / shard_size);
  }
};

class FabricPort;

/// A session's fabric identity: its port (the owning shard's producer
/// half), its global index, and its private send counter -- the seq of the
/// delivery stamp.  Per-SESSION, not per-ring or per-shard: only a counter
/// keyed to the global index survives re-sharding unchanged, which is what
/// keeps the stamp order shard-size-invariant.  RelayLink and RelaySession
/// hold this by value; their FabricSend closures capture one pointer (so
/// they stay inside the std::function small-buffer and sends never
/// allocate).
struct FabricCtx {
  FabricPort* port = nullptr;
  std::uint64_t source = 0;  ///< sending session's global index
  std::uint64_t seq = 0;     ///< per-source send counter
};

/// Producer half of a shard's fabric attachment: stamps and pushes outgoing
/// messages onto the ring toward the destination's shard.  Called only from
/// inside the owning shard's own events (the advance phase), while no
/// worker drains.
class FabricPort {
 public:
  FabricPort(sim::Simulator& sim, CrossShardFabric& fabric,
             std::uint32_t shard, FabricMap map)
      : sim_(sim), fabric_(fabric), shard_(shard), map_(map) {}

  void send(FabricCtx& ctx, std::uint64_t dest, const Message& message) {
    ShardRing* ring = fabric_.find_ring(shard_, map_.shard_of(dest));
    if (ring == nullptr) {
      // Every communicating pair is materialized at setup from the static
      // subscription map; a miss is a routing bug, not a runtime condition.
      throw std::logic_error("session farm: fabric send on unwired pair");
    }
    ring->push(CrossShardEntry{sim_.now(), ctx.source, ctx.seq++, dest,
                               message});
  }

 private:
  sim::Simulator& sim_;
  CrossShardFabric& fabric_;
  std::uint32_t shard_;
  FabricMap map_;
};

/// Per-session results of one farm call, indexed by GLOBAL session index
/// (relay sessions at [sessions, sessions + relays)).  Allocated once per
/// call; every shard writes its own slice in place through a ShardSink, and
/// the reduce reads the store directly -- no per-shard copies, no
/// concatenation.  `churn` is empty unless sessions own a
/// MembershipController (TreeSessionCore::owns_membership, the predicate
/// the sessions build their controllers by, so the two cannot drift).
struct FarmStore {
  FarmStore(std::size_t total, bool with_churn)
      : metrics(total),
        arrival(total),
        end(total),
        churn(with_churn ? total : 0) {}

  std::vector<Metrics> metrics;
  /// Begin times, filled at shard construction; each shard's simulator
  /// reads its slice as the shard's arrival stream.
  std::vector<double> arrival;
  /// Completion times, each shard's in completion order (ShardSink).
  std::vector<double> end;
  std::vector<protocols::ChurnReport> churn;
};

/// Where sessions deposit their results: a view of the shard's slice
/// [first, first + count) of the farm store.  Metrics and churn reports are
/// indexed by the session's local (within-shard) index, so completion order
/// cannot affect them; completion times are appended in completion order,
/// which is time order, because the reduce needs only their sorted run.
/// Completion-time recording replaces the reference farm's
/// read-the-session-at-shard-end extraction: recycled sessions are
/// destroyed long before the shard finishes, so everything a session will
/// ever report is captured the moment it completes.  Sessions and the
/// shard add to the inherited counters, except events_executed, which
/// outcome_of reads from the shard's simulator.
struct ShardSink : FarmCounters {
  ShardSink(FarmStore& store, std::size_t first, std::size_t count)
      : metrics(std::span(store.metrics).subspan(first, count)),
        arrival(std::span(store.arrival).subspan(first, count)),
        end(std::span(store.end).subspan(first, count)),
        churn(store.churn.empty()
                  ? std::span<protocols::ChurnReport>()
                  : std::span(store.churn).subspan(first, count)),
        sessions(count) {}

  /// True once every one of the shard's sessions has completed.
  [[nodiscard]] bool complete() const noexcept { return completed >= sessions; }

  std::span<Metrics> metrics;
  std::span<double> arrival;
  std::span<double> end;
  std::span<protocols::ChurnReport> churn;  ///< empty without membership
  std::size_t sessions;  ///< the shard's session count
  std::size_t completed = 0;
  /// Hands a completed session's slot to the arena's cooling list.  Bound
  /// by the shard (captures one pointer; fits the std::function SBO, so
  /// completion stays allocation-free).
  std::function<void(std::uint32_t)> retire;
  /// Fabric runs only: the shard nulls the completed session's endpoint so
  /// late fabric deliveries are dropped deterministically.  Empty (and
  /// never invoked) outside fabric mode -- the branch keeps the zero-relay
  /// farm bit-identical.
  std::function<void(std::size_t)> fabric_done;
};

/// The streams a single-hop session draws, from its per-session seed
/// (replica_seed keyed to the global index, replica lane 0 -- the substream
/// split happens in sim::Rng's stream argument).  The stream IDs come from
/// the registry in core/rng_streams.hpp, the same constants the single-hop
/// harness uses, so leaving out a stream changes no other stream's draws:
/// single-hop farms reject churn and scenarios, so the membership and
/// scenario streams are never drawn, and the relay stream lives in the
/// fabric shard's RelayLink.  Each stream is seeded on its own, so their
/// order here is layout only: the channel stream, drawn on every send, comes
/// last, next to the session's channels; the timer streams are drawn only
/// under exponential timers.
struct SingleHopRngs {
  explicit SingleHopRngs(std::uint64_t seed)
      : lifecycle(seed, rng::kSessionLifecycle),
        failure(seed, rng::kSessionFailure),
        sender(seed, rng::kSessionSender),
        receiver(seed, rng::kSessionReceiver),
        channel(seed, rng::kSessionChannel) {}

  sim::Rng lifecycle;
  sim::Rng failure;
  sim::Rng sender;
  sim::Rng receiver;
  sim::Rng channel;
};

/// The run's timer settings, shared by every engine and relay endpoint.
template <typename Params>
protocols::TimerSettings timer_settings(const SessionFarmOptions& options,
                                        const Params& params) {
  return protocols::TimerSettings{options.timer_dist, params.refresh_timer,
                                  params.timeout_timer, params.retrans_timer};
}

/// A subscriber's relay-facing state in a fabric run: its kSessionRelay
/// stream, its fabric identity and the RelayClient that installs its state
/// at a shared relay.  Owned by the subscriber shard, one per arena slot,
/// and rebuilt in place for each participating session that takes the
/// slot, so relay-free sessions carry none of it and the links grow with
/// the arena's slots, not with the sessions the shard ever started.
/// Immovable: the client's send closure captures `this`.
struct RelayLink {
  RelayLink(sim::Simulator& sim, const SingleHopParams& params,
            const SessionFarmOptions& options, FabricPort* port,
            std::uint64_t self, std::uint64_t relay)
      : rng(replica_seed(options.seed, self, 0), rng::kSessionRelay),
        ctx{port, self, 0},
        client(sim, rng, timer_settings(options, params), relay,
               [this](std::uint64_t dest, const Message& m) {
                 ctx.port->send(ctx, dest, m);
               }) {}

  RelayLink(const RelayLink&) = delete;
  RelayLink& operator=(const RelayLink&) = delete;

  sim::Rng rng;
  FabricCtx ctx;  ///< `self` is the source half of every outgoing stamp
  protocols::RelayClient client;
};

/// A single-hop farm's run constants, shared by every shard and session,
/// relay-free and fabric alike: the parameters and the one link both
/// channels of every session borrow, built once per run.  Every send on
/// every shard thread reads the link, so the run keeps cache lines of its
/// own: a write to a neighbour in its caller's stack frame would otherwise
/// evict it from every core (PERFORMANCE.md, "Flat trees", has the
/// `relay` runs with and without the alignment).
struct alignas(64) SingleHopRun {
  SingleHopRun(const SingleHopParams& hop_params,
               const SessionFarmOptions& options)
      : params(hop_params),
        link{hop_params.loss_config(),
             sim::DelayConfig{options.delay_model, hop_params.delay,
                              options.delay_shape}} {}

  void validate() const {
    params.validate();
    link.validate();
  }

  const SingleHopParams& params;
  sim::LinkConfig link;
};

/// One single-hop session: arrival -> install -> updates -> removal ->
/// absorption, measured over [arrival, absorption].  A one-shot version of
/// the renewal construction in protocols/single_hop_run.cpp, flattened for
/// arena placement: channels and engines are direct members (every closure
/// they store captures one pointer and stays inside its small-buffer
/// storage), so constructing a session in a recycled slot allocates
/// nothing.  Constructed INSIDE its own arrival (the shard simulator's
/// arrival stream); the shard calls begin() immediately after.
class SingleHopSession {
 public:
  SingleHopSession(sim::Simulator& sim, ProtocolKind kind,
                   const SingleHopRun& run, const SessionFarmOptions& options,
                   std::uint64_t global_index, ShardSink& sink,
                   std::size_t local)
      : rngs_(replica_seed(options.seed, global_index, 0)),
        forward_(sim, rngs_.channel, run.link,
                 [this](const Message& m) { receiver_.handle(m); }),
        sim_(sim),
        receiver_(sim, rngs_.receiver, mechanisms(kind),
                  timer_settings(options, run.params), reverse_,
                  [this] { on_change(); }),
        sender_(sim, rngs_.sender, mechanisms(kind),
                timer_settings(options, run.params), forward_,
                [this] { on_change(); }),
        reverse_(sim, rngs_.channel, run.link,
                 [this](const Message& m) { sender_.handle(m); }),
        mech_(mechanisms(kind)),
        params_(run.params),
        options_(options),
        sink_(sink),
        local_(local) {
    // Staggered Poisson arrivals: conditioned on N arrivals in the window,
    // arrival times are iid uniform over it -- and drawing from the
    // session's own stream keys the time to the global index alone.  The
    // draw repeats schedule_arrivals' (same stream, same first draw), so the
    // session materializes at exactly the time its arrival fired.
    const double window =
        static_cast<double>(options.sessions) / options.arrival_rate;
    arrival_ = window * rngs_.lifecycle.uniform();
    lifetime_ = rngs_.lifecycle.exponential(options.session_lifetime);
  }

  /// The arena slot this session occupies; handed back on retirement.
  void set_slot(std::uint32_t slot) noexcept { slot_ = slot; }

  /// Fabric runs only, before begin(): routes this session's state to a
  /// shared relay through `link`, which its shard built for this session.
  void attach_relay(RelayLink* link) noexcept { relay_ = link; }

  /// A fabric delivery addressed to this session (relay echoes).
  void deliver_fabric(const Message& message) {
    if (relay_ != nullptr) relay_->client.handle(message);
  }

  /// Starts the session (the body of its arrival).
  void begin() {
    inconsistent_ = sim::TimeWeightedValue(arrival_);
    sender_.begin_epoch(1);
    receiver_.begin_epoch(1);
    sender_.install(++version_);
    schedule_update();
    removal_event_ = sim_.schedule_in(lifetime_, [this] {
      removal_event_.reset();
      sender_removed_ = true;
      sender_.remove();
      check_absorption();
    });
    if (mech_.external_failure_detector && params_.false_signal_rate > 0.0) {
      schedule_false_signal();
    }
    if (relay_ != nullptr) {
      relay_->client.start(static_cast<std::int64_t>(relay_->ctx.source));
    }
    on_change();
  }

  /// Slot-recycling safety: absorbed AND both channels drained.  After
  /// absorption both engines sit in a dead epoch with every timer
  /// cancelled, and a stale delivery is dropped without a reply, so the
  /// in-flight counts fall monotonically to zero -- after which no pending
  /// event references this object and destruction is safe.
  [[nodiscard]] bool quiescent() const noexcept {
    if (!done_) return false;
    const sim::ChannelCounters& f = forward_.counters();
    const sim::ChannelCounters& r = reverse_.counters();
    return f.sent == f.delivered + f.lost && r.sent == r.delivered + r.lost;
  }

 private:
  void schedule_update() {
    if (params_.update_rate <= 0.0) return;
    update_event_ = sim_.schedule_in(
        rngs_.lifecycle.exponential(1.0 / params_.update_rate), [this] {
          update_event_.reset();
          if (!sender_removed_ && sender_.value()) {
            sender_.update(++version_);
          }
          schedule_update();
        });
  }

  void schedule_false_signal() {
    false_signal_event_ = sim_.schedule_in(
        rngs_.failure.exponential(1.0 / params_.false_signal_rate), [this] {
          false_signal_event_.reset();
          receiver_.external_removal_signal();
          schedule_false_signal();
        });
  }

  void on_change() {
    if (done_) return;
    const bool consistent = sender_.value() == receiver_.value();
    inconsistent_.set(sim_.now(), consistent ? 0.0 : 1.0);
    check_absorption();
  }

  void check_absorption() {
    if (done_ || !sender_removed_ || receiver_.value()) return;
    done_ = true;
    const double end = sim_.now();
    const double length = end - arrival_;
    // Counters frozen at absorption time, so results cannot depend on which
    // straggler events the shard's simulator happened to execute afterwards.
    std::uint64_t messages =
        forward_.counters().sent + reverse_.counters().sent;
    if (relay_ != nullptr) {
      // Goodbye before the count: the REMOVE is part of the session's
      // priced traffic, and stop() also cancels the refresh timer so the
      // link can be rebuilt for the slot's next session.
      relay_->client.stop();
      messages += relay_->client.messages_sent();
    }
    const auto sent = static_cast<double>(messages);
    Metrics& metrics = sink_.metrics[local_];
    metrics.inconsistency = inconsistent_.mean(end);
    metrics.session_length = length;
    metrics.raw_message_rate = length > 0.0 ? sent / length : 0.0;
    // M-bar = (messages per session) * lambda_r, as in Eq. (2); the farm's
    // removal rate is 1 / mean lifetime.
    metrics.message_rate = sent / options_.session_lifetime;
    sim_.cancel_timer(update_event_);
    sim_.cancel_timer(false_signal_event_);
    sim_.cancel_timer(removal_event_);
    // Jump both engines to a dead epoch: stragglers still in flight can no
    // longer resurrect state, re-arm timers or send replies -- which is
    // also what drives quiescent()'s in-flight counts to zero.
    sender_.begin_epoch(2);
    receiver_.begin_epoch(2);
    sink_.end[sink_.completed] = end;
    sink_.messages += messages;
    sink_.receiver_timeouts += receiver_.timeouts();
    ++sink_.completed;
    if (sink_.fabric_done) sink_.fabric_done(local_);
    sink_.retire(slot_);
  }

  // Layout follows the refresh cycle that dominates a long session: the
  // sender's refresh goes out on forward_ (drawing from rngs_.channel), the
  // delivery re-arms receiver_'s timeout, and on_change() reads both
  // engines and updates inconsistent_.  Those fields sit together, from
  // rngs_.channel to sender_'s head; reverse_ (ACKs and notices only) and
  // the fields of arrival, updates and completion follow.  rngs_ precedes
  // everything that keeps a reference into it.
  SingleHopRngs rngs_;
  MessageChannel forward_;
  sim::Simulator& sim_;
  bool done_ = false;
  bool sender_removed_ = false;
  std::uint32_t slot_ = 0;  ///< cold; fills the flags' padding
  sim::TimeWeightedValue inconsistent_;
  protocols::ReceiverEngine receiver_;
  protocols::SenderEngine sender_;
  MessageChannel reverse_;

  MechanismSet mech_;
  std::int64_t version_ = 0;
  sim::EventId update_event_;
  sim::EventId removal_event_;
  sim::EventId false_signal_event_;
  RelayLink* relay_ = nullptr;  ///< fabric subscribers only
  // The shard keeps params/options alive for the sessions' whole lifetime;
  // 100k sessions should not hold 100k copies.
  const SingleHopParams& params_;
  const SessionFarmOptions& options_;
  ShardSink& sink_;
  std::size_t local_;
  double arrival_ = 0.0;
  double lifetime_ = 0.0;
};

#if defined(__GLIBCXX__)
// Layout fence (libstdc++ sizes: std::function, std::string).  A single-hop
// session is the farm's unit of memory -- hold-shaped farms keep tens of
// thousands of them live, and every refresh period walks through all of
// them -- so a field added to it should show up here, at compile time.
// 1,168 bytes with gcc 12, its two channels borrowing the run's link;
// PERFORMANCE.md, "What a session costs", has the layout and its measured
// effect.
static_assert(sizeof(SingleHopSession) <= 1192,
              "SingleHopSession grew: measure it before raising the bound");
#endif

/// The streams a tree session draws, seeded as SingleHopRngs: every node
/// of its Topology draws from the sender stream, so there is no receiver
/// stream, and trees never talk to shared relays.
protocols::TreeSessionRngs tree_rngs(std::uint64_t seed) {
  return {sim::Rng(seed, rng::kSessionChannel),
          sim::Rng(seed, rng::kSessionSender),
          sim::Rng(seed, rng::kSessionLifecycle),
          sim::Rng(seed, rng::kSessionFailure),
          sim::Rng(seed, rng::kSessionMembership),
          sim::Rng(seed, rng::kSessionScenarioArrival),
          sim::Rng(seed, rng::kSessionScenarioFailure)};
}

/// A tree farm's run constants, shared by every shard and session: the
/// tree's parameters and the TreeShape each session's Topology is built
/// on, so no session copies or re-derives what its spec alone determines.
struct TreeRun {
  TreeRun(const analytic::TreeParams& tree_params,
          const SessionFarmOptions& options)
      : params(tree_params),
        shape(protocols::TreeShape::of(tree_params, options.delay_model,
                                       options.delay_shape)) {}

  void validate() const { params.validate(); }

  const analytic::TreeParams& params;
  protocols::TreeShape shape;
};

/// One tree session: arrival -> start -> updates over a full
/// protocols::Topology -- one sender, relays at interior nodes, receivers
/// at the leaves, per-edge channels.  Chain sessions run through this very
/// class as fan-out-1 trees.  All but the farm's part is the
/// protocols::TreeSessionCore the tree harness runs too; this class adds
/// the lifetime window [arrival, arrival + lifetime] and the teardown --
/// silent with Topology::stop(), or by explicit removal (see finish()).
///
/// Tree sessions recycle their arena slots like single-hop ones.  At its
/// lifetime event the core stops: membership defuses its pending leaf and
/// burst timers (they still pop, as no-ops, so events_executed is
/// unchanged) and the failure, update and false-signal events are
/// cancelled.  complete() stops the tree and retires the slot, and
/// quiescent() lets the arena reuse it once the tree's channels have
/// drained and no node timer is armed -- stragglers delivered to the
/// stopped tree may re-arm timers for a while, so that can take a timeout
/// interval or so.
class TreeSession {
 public:
  TreeSession(sim::Simulator& sim, ProtocolKind kind, const TreeRun& run,
              const SessionFarmOptions& options, std::uint64_t global_index,
              ShardSink& sink, std::size_t local)
      : sim_(sim),
        sink_(sink),
        local_(static_cast<std::uint32_t>(local)),
        teardown_(options.teardown),
        rngs_(tree_rngs(replica_seed(options.seed, global_index, 0))),
        core_(sim, kind, run.params, run.shape,
              timer_settings(options, run.params), options.leaf_churn,
              options.scenario, rngs_, [this] { on_change(); }) {
    // The same first lifecycle draw schedule_arrivals made for this
    // session, so arrival_ is the time its arrival fired.
    const double window =
        static_cast<double>(options.sessions) / options.arrival_rate;
    arrival_ = window * rngs_.lifecycle.uniform();
    lifetime_ = rngs_.lifecycle.exponential(options.session_lifetime);
  }

  /// The arena slot this session occupies; handed back on retirement.
  void set_slot(std::uint32_t slot) noexcept { slot_ = slot; }

  /// Starts the session (the body of its arrival).
  void begin() {
    inconsistent_ = sim::TimeWeightedValue(arrival_);
    core_.start();
    sim_.schedule_in(lifetime_, [this] { finish(); });
    on_change();
  }

  /// Slot-recycling safety: complete() has run and the stopped tree is
  /// quiescent (every channel drained, no timer armed).  The core's other
  /// events were cancelled or defused by its stop(), so then no pending
  /// event references this object.
  [[nodiscard]] bool quiescent() const noexcept {
    return completed_ && core_.topology().quiescent();
  }

 private:
  void on_change() {
    if (done_) return;
    inconsistent_.set(sim_.now(), core_.on_state_change() ? 0.0 : 1.0);
  }

  /// The lifetime event: ends the measurement window.  Inconsistency
  /// tracking stops and the core stops: churn and scenario processes
  /// freeze and pending update/false-signal events are cancelled.  Without
  /// SessionFarmOptions::teardown the tree is then stopped silently; with
  /// it the sender issues an explicit remove() whose teardown messages
  /// propagate down every branch during a grace period of one timeout
  /// interval, and only then does the session complete, pricing the
  /// teardown traffic into its message counts and the sink's
  /// teardown_messages.
  void finish() {
    done_ = true;
    end_time_ = sim_.now();
    core_.stop();
    if (const auto* membership = core_.membership()) {
      sink_.churn[local_] = membership->report();
    }
    if (const auto* failure = core_.failure()) {
      sink_.relay_crashes += failure->crashes();
      sink_.relay_recoveries += failure->recoveries();
    }
    window_messages_ = core_.topology().messages_sent();
    if (!teardown_) {
      complete();
      return;
    }
    core_.topology().sender().remove();
    sim_.schedule_in(core_.params().timeout_timer, [this] { complete(); });
  }

  /// Records the session's metrics over the frozen window and stops the
  /// tree.  Counters are read here, not later: stragglers delivered to a
  /// stopped tree may still execute (and even re-install relay state
  /// briefly), and how many do depends on how long the shard keeps
  /// simulating -- snapshotting keeps results independent of the shard
  /// decomposition.
  void complete() {
    protocols::Topology& topology = core_.topology();
    const std::uint64_t messages = topology.messages_sent();
    const auto sent = static_cast<double>(messages);
    Metrics& metrics = sink_.metrics[local_];
    metrics.inconsistency = inconsistent_.mean(end_time_);
    metrics.session_length = lifetime_;
    metrics.raw_message_rate = lifetime_ > 0.0 ? sent / lifetime_ : 0.0;
    metrics.message_rate = metrics.raw_message_rate;
    topology.stop();
    sink_.teardown_messages += messages - window_messages_;
    sink_.end[sink_.completed] = end_time_;
    sink_.messages += messages;
    sink_.receiver_timeouts += topology.relay_timeouts();
    ++sink_.completed;
    completed_ = true;
    sink_.retire(slot_);
  }

  sim::Simulator& sim_;
  ShardSink& sink_;
  std::uint32_t local_;  ///< < shard_size, which validate_options bounds
  bool teardown_;        ///< SessionFarmOptions::teardown
  bool done_ = false;       ///< the lifetime event ran
  bool completed_ = false;  ///< complete() ran; the slot is retired
  std::uint32_t slot_ = 0;
  protocols::TreeSessionRngs rngs_;
  protocols::TreeSessionCore core_;

  double arrival_ = 0.0;
  double lifetime_ = 0.0;
  double end_time_ = 0.0;              ///< the frozen window end
  std::uint64_t window_messages_ = 0;  ///< messages sent by window end
  sim::TimeWeightedValue inconsistent_;
};

#if defined(__GLIBCXX__)
// Layout fences, beside SingleHopSession's.  The arena slot of a tree
// session: 536 bytes with gcc 12 -- the slot index and completion flag
// that recycling needs added 8.  Most of a tree lives behind the core's
// pointers, which this does not see: its Topology and the one block
// holding its nodes, channels and per-edge arrays, then the membership
// and failure processes -- 12.1 kB requested in 11 blocks on tree_churn's
// fanout-4 depth-2 tree, which TreeFootprint.* bounds.  PERFORMANCE.md,
// "Flat trees", has the measured per-session cost.
static_assert(sizeof(TreeSession) <= 544,
              "TreeSession grew: measure it before raising the bound");
// A tree's nodes, one sender and a relay per edge, all in the topology's
// block: 160 and 232 bytes with gcc 12.
static_assert(sizeof(protocols::TreeSender) <= 168,
              "TreeSender grew: measure it before raising the bound");
static_assert(sizeof(protocols::TreeRelay) <= 240,
              "TreeRelay grew: measure it before raising the bound");
// What every session is mostly made of: two channels per single-hop
// session, two per tree edge and one reliable slot per tree edge.  A
// channel borrows its link and keeps only its own state, 104 bytes; a
// reliable slot reads the simulator, RNG and timers from its tree's
// TreeContext, 72 bytes.
static_assert(sizeof(protocols::MessageChannel) <= 104,
              "MessageChannel grew: measure it before raising the bound");
static_assert(sizeof(protocols::ReliableSlot) <= 72,
              "ReliableSlot grew: measure it before raising the bound");
#endif

/// What one shard reports back to the aggregator (its per-session results
/// are already in place in the farm store): its summed counters plus the
/// high-water marks the reduce takes the maximum of.
struct ShardOutcome {
  FarmCounters counters;
  double end_time = 0.0;
  std::size_t arena_high_water = 0;
  std::size_t arena_chunks = 0;
  std::size_t queue_slots = 0;  ///< the simulator's event-slot high water
  std::size_t ring_high_water = 0;  ///< most fabric entries in one drain
};

/// A completed shard's counters (shared by the base farm shard and both
/// fabric shard types).
ShardOutcome outcome_of(const ShardSink& sink, const sim::Simulator& sim) {
  ShardOutcome out;
  out.counters = sink;
  out.counters.events_executed = sim.events_executed();
  out.end_time = sim.now();
  out.queue_slots = sim.slot_capacity();
  return out;
}

/// Where each shard's slice of the farm store begins, then the store's
/// size: shard s holds [bounds[s], bounds[s + 1]).  Subscriber shards cut
/// [0, sessions) into blocks of shard_size; relay shards cut [sessions,
/// total) the same way from a fresh boundary (FabricMap's partition).
std::vector<std::size_t> shard_bounds(std::size_t sessions,
                                      std::size_t total,
                                      std::size_t shard_size) {
  std::vector<std::size_t> bounds;
  for (std::size_t at = 0; at < sessions; at += shard_size) {
    bounds.push_back(at);
  }
  for (std::size_t at = sessions; at < total; at += shard_size) {
    bounds.push_back(at);
  }
  bounds.push_back(total);
  return bounds;
}

/// Sorts a finished shard's slice of the store's begin times, on the
/// thread that ran the shard, into the run peak_in_flight sweeps.  Call
/// once the shard's simulator no longer reads it as its arrival stream;
/// nothing reads the begin times by session after that.  The slice of
/// completion times is a sorted run already: sessions append them in
/// completion order, and a tree session with teardown, which completes one
/// fixed grace period after its window end, records that window end.
void sort_begin_times(FarmStore& store, std::size_t first, std::size_t past) {
  std::ranges::sort(std::span(store.arrival).subspan(first, past - first));
}

/// Reduces the completed farm -- shard counters in shard order, per-session
/// results straight from the store in global session order -- into a
/// SessionFarmResult.  Shared by the base farm and the fabric farm.  The
/// store's begin and completion times must already be sorted per shard
/// (sort_begin_times, over `bounds`); the exact peak sweeps those runs on
/// the pool.  Consumes the store: the sweep may reorder its begin and
/// completion times, and its metrics move into per_session.
SessionFarmResult aggregate_outcomes(const std::vector<ShardOutcome>& outcomes,
                                     FarmStore& store,
                                     std::span<const std::size_t> bounds,
                                     const SessionFarmOptions& options,
                                     ThreadPool& pool) {
  SessionFarmResult result;
  result.shards = outcomes.size();
  for (const ShardOutcome& outcome : outcomes) {
    result += outcome.counters;
    result.horizon = std::max(result.horizon, outcome.end_time);
    result.arena_slot_high_water =
        std::max(result.arena_slot_high_water, outcome.arena_high_water);
    result.arena_chunk_allocations += outcome.arena_chunks;
    result.queue_slot_high_water =
        std::max(result.queue_slot_high_water, outcome.queue_slots);
    result.fabric_ring_high_water =
        std::max(result.fabric_ring_high_water, outcome.ring_high_water);
  }
  // Summed in global session order, so the reduced report cannot depend on
  // the shard decomposition (floating-point addition is order-sensitive).
  for (const protocols::ChurnReport& churn : store.churn) {
    result.churn.absorb(churn);
  }
  result.peak_sessions_in_flight =
      peak_in_flight(store.arrival, store.end, bounds, pool);
  result.sessions = store.metrics.size();
  result.summary = summarize_replicas(store.metrics);
  if (options.keep_per_session) result.per_session = std::move(store.metrics);
  return result;
}

/// Arrivals of the sessions [first, first + sink.sessions): records each
/// session's arrival time in the sink -- the time the session will
/// re-derive for itself at spawn, the first draw of a fresh
/// kSessionLifecycle stream -- and installs those times as the shard
/// simulator's arrival stream.  Installed on a fresh simulator, the stream
/// runs exactly like the reference farm's construction-time pushes (same
/// times, same order at ties), which is the base case of the bit-identity
/// argument in the file comment; it holds no pending event per session.
/// `spawn(global_index, local)` is an arrival's body.
template <typename Spawn>
void schedule_arrivals(sim::Simulator& sim, const SessionFarmOptions& options,
                       std::size_t first, ShardSink& sink, Spawn spawn) {
  const double window =
      static_cast<double>(options.sessions) / options.arrival_rate;
  for (std::size_t i = 0; i < sink.sessions; ++i) {
    const auto g = static_cast<std::uint64_t>(first + i);
    sim::Rng lifecycle(replica_seed(options.seed, g, 0),
                       rng::kSessionLifecycle);
    sink.arrival[i] = window * lifecycle.uniform();
  }
  sim.set_arrivals(sink.arrival, [spawn, first](std::uint32_t i) {
    spawn(static_cast<std::uint64_t>(first + i), i);
  });
}

/// Sessions [first, first + count) of the farm: one Simulator, one arena,
/// one sink.  Construction installs the arrival stream; the thread that
/// claimed the shard then drives advance_slice() until complete().
template <typename Session, typename Run>
class Shard {
 public:
  Shard(ProtocolKind kind, const Run& run, const SessionFarmOptions& options,
        FarmStore& store, std::size_t first, std::size_t count)
      : kind_(kind),
        run_(run),
        options_(options),
        sink_(store, first, count),
        sim_(options.event_queue),
        arena_(count) {
    sink_.retire = [this](std::uint32_t slot) { arena_.retire(slot); };
    schedule_arrivals(sim_, options, first, sink_,
                      [this](std::uint64_t g, std::size_t i) { spawn(g, i); });
  }

  [[nodiscard]] bool complete() const noexcept { return sink_.complete(); }

  /// Advances one time slice, anchored at the next pending event.  Returns
  /// as soon as the shard completes mid-slice (undispatched expiries are
  /// requeued untouched), leaving the clock on the completing event.
  void advance_slice() {
    const std::optional<double> next = sim_.next_pending_time();
    if (!next) {
      throw std::logic_error("session farm: shard stalled before completing");
    }
    sim_.run_slice(*next + kSliceSeconds, [this] { return complete(); });
  }

  /// The shard's counters (call after completion).
  ShardOutcome finish() {
    ShardOutcome out = outcome_of(sink_, sim_);
    out.arena_high_water = arena_.slot_capacity();
    out.arena_chunks = arena_.chunk_allocations();
    return out;
  }

 private:
  void spawn(std::uint64_t global_index, std::size_t local) {
    const auto [slot, session] = arena_.spawn(
        sim_, kind_, run_, options_, global_index, sink_, local);
    session->set_slot(slot);
    session->begin();
  }

  ProtocolKind kind_;
  const Run& run_;
  const SessionFarmOptions& options_;
  ShardSink sink_;
  sim::Simulator sim_;
  // Declared after sim_ so sessions are destroyed BEFORE the simulator
  // (their destructors may cancel events); pending closures that still
  // point at destroyed sessions are merely destroyed with the queue, never
  // invoked.
  SessionArena<Session> arena_;
};

template <typename Session, typename Run>
SessionFarmResult run_farm(ProtocolKind kind, const Run& run,
                           const SessionFarmOptions& options) {
  validate_options(options);
  run.validate();

  const std::size_t n = options.sessions;
  const std::vector<std::size_t> bounds =
      shard_bounds(n, n, std::min(options.shard_size, n));
  const std::size_t shards = bounds.size() - 1;

  std::optional<ParallelSweep> local_engine;
  ParallelSweep* engine = options.engine;
  if (engine == nullptr) {
    local_engine.emplace(options.threads);
    engine = &*local_engine;
  }

  // Each shard runs to completion on the thread that claims it and is
  // destroyed before that thread claims another (see the file comment).
  // Which thread runs a shard, and when, cannot affect results: shards are
  // independent simulators and run_slice preserves exact pop order.
  const bool with_churn = protocols::TreeSessionCore::owns_membership(
      options.leaf_churn, options.scenario);
  FarmStore store(n, with_churn);
  std::vector<ShardOutcome> outcomes(shards);
  parallel_for(engine->pool(), shards, [&](std::size_t s) {
    {
      Shard<Session, Run> shard(kind, run, options, store, bounds[s],
                                bounds[s + 1] - bounds[s]);
      while (!shard.complete()) shard.advance_slice();
      outcomes[s] = shard.finish();
    }
    // The shard and its simulator's arrival stream over the slice are gone.
    sort_begin_times(store, bounds[s], bounds[s + 1]);
  });

  return aggregate_outcomes(outcomes, store, bounds, options, engine->pool());
}

// ------------------------------------------------------ the fabric farm --
//
// Shared relays turn independent shards into a communicating system, so
// running each shard to completion on its own no longer preserves
// determinism: a shard racing ahead could observe (or miss) messages
// depending on wall-clock scheduling.  The fabric farm instead runs global
// LOCKSTEP EPOCHS:
//
//   1. negotiate (serial):  H_k = min over all shards of the earliest
//      pending event time, plus kFabricSliceSeconds.  The minimum is over
//      the union of every shard's pending events, which is invariant to the
//      shard decomposition -- so the epoch timeline is too.
//   2. advance (parallel):  every shard's simulator runs up to exactly H_k.
//      Sessions push outgoing fabric messages onto their shard's rings
//      (producer side).
//   3. drain (parallel):    every shard drains its INCOMING rings, sorts the
//      merged entries by the (send_time, source, seq) stamp, and schedules
//      one inbox-flush event at H_k.
//
// The whole loop is one parallel_phases call (exp/thread_pool.hpp): its
// phases alternate advance, drain, advance, ..., each running every shard
// exactly once on whichever pool thread claims it, and the thread that
// finishes a drain phase's last shard runs the negotiation serially before
// the next advance phase opens.  The phase gate is a full barrier, so the
// advance and drain phases never overlap anywhere -- each ring has one
// thread touching it at a time and needs no synchronization of its own,
// and which thread runs a shard in an epoch cannot change any event, stamp
// or epoch.  Messages sent during epoch k are
// delivered at exactly H_k (the destination's clock cannot have passed H_k,
// so no message ever arrives in the past), in stamp order, via a flush
// event scheduled AFTER every event of the slice -- deliveries therefore
// sort after the destination's own H_k-time events deterministically.
// Every piece of that discipline is decomposition-invariant, which is the
// bit-identity argument docs/ARCHITECTURE.md spells out in full.

/// Type-erased fabric shard: the epoch loop drives subscriber and relay
/// shards uniformly through this interface (a handful of virtual calls per
/// shard per epoch -- noise next to the slice itself).
class FabricShard {
 public:
  virtual ~FabricShard() = default;
  [[nodiscard]] virtual bool complete() const = 0;
  [[nodiscard]] virtual std::optional<double> next_pending_within(
      double bound) const = 0;
  virtual void advance_to(double horizon) = 0;
  virtual void drain_incoming(double boundary) = 0;
  virtual ShardOutcome finish() = 0;
};

/// The simulator, fabric port and inbox machinery common to both fabric
/// shard types.
class FabricShardBase : public FabricShard {
 public:
  [[nodiscard]] std::optional<double> next_pending_within(
      double bound) const final {
    return sim_.next_pending_within(bound);
  }

  /// Advance phase: run every event with time <= horizon.  Never stops
  /// early -- a completed shard keeps executing stragglers so its clock
  /// tracks the epoch timeline.
  void advance_to(double horizon) final {
    sim_.run_slice(horizon, [] { return false; });
  }

  /// Drain phase: collect this shard's incoming rings, stamp-sort, and
  /// schedule one flush event at the epoch boundary.  The inbox is always
  /// empty on entry: the previous epoch's flush ran during this epoch's
  /// advance phase (its boundary <= this epoch's horizon).
  void drain_incoming(double boundary) final {
    const std::size_t drained = fabric_.drain_into(shard_id_, inbox_);
    if (drained == 0) return;
    ring_high_water_ = std::max(ring_high_water_, drained);
    sort_fabric(inbox_);
    sim_.schedule_at(boundary, [this] { flush_inbox(); });
  }

 protected:
  FabricShardBase(const SessionFarmOptions& options, CrossShardFabric& fabric,
                  std::uint32_t shard_id, const FabricMap& map)
      : sim_(options.event_queue),
        fabric_(fabric),
        shard_id_(shard_id),
        port_(sim_, fabric, shard_id, map) {}

  /// Dispatches one in-order fabric delivery to its destination session.
  virtual void deliver(const CrossShardEntry& entry) = 0;

  /// The shard's counters, fabric high-water mark included.
  [[nodiscard]] ShardOutcome fabric_outcome(const ShardSink& sink) const {
    ShardOutcome out = outcome_of(sink, sim_);
    out.ring_high_water = ring_high_water_;
    return out;
  }

  void flush_inbox() {
    for (const CrossShardEntry& entry : inbox_) deliver(entry);
    inbox_.clear();
  }

  sim::Simulator sim_;
  CrossShardFabric& fabric_;
  std::uint32_t shard_id_;
  FabricPort port_;
  std::vector<CrossShardEntry> inbox_;
  /// The most entries one drain_incoming call has collected.
  std::size_t ring_high_water_ = 0;
};

/// A subscriber shard of the fabric farm: ordinary single-hop farm sessions
/// (same arena, same arrival stream, same recycling), the first
/// relays * subscribers_per_relay of which talk to a shared relay through
/// a RelayLink the shard keeps for their arena slot.  An endpoint table,
/// nulled at completion, routes incoming relay echoes; late echoes are
/// dropped deterministically.
class SubscriberFabricShard final : public FabricShardBase {
 public:
  SubscriberFabricShard(ProtocolKind kind, const SingleHopRun& run,
                        const SessionFarmOptions& options,
                        const FabricMap& map, CrossShardFabric& fabric,
                        FarmStore& store, std::uint32_t shard_id,
                        std::size_t first, std::size_t count)
      : FabricShardBase(options, fabric, shard_id, map),
        kind_(kind),
        run_(run),
        options_(options),
        first_(first),
        participating_(options.shared_relays * options.subscribers_per_relay),
        sink_(store, first, count),
        arena_(count),
        endpoints_(count, nullptr) {
    sink_.retire = [this](std::uint32_t slot) { arena_.retire(slot); };
    sink_.fabric_done = [this](std::size_t local) {
      endpoints_[local] = nullptr;
    };
    schedule_arrivals(sim_, options, first, sink_,
                      [this](std::uint64_t g, std::size_t i) { spawn(g, i); });
  }

  [[nodiscard]] bool complete() const override { return sink_.complete(); }

  ShardOutcome finish() override {
    ShardOutcome out = fabric_outcome(sink_);
    out.arena_high_water = arena_.slot_capacity();
    out.arena_chunks = arena_.chunk_allocations();
    return out;
  }

 private:
  void spawn(std::uint64_t global_index, std::size_t local) {
    const auto [slot, session] = arena_.spawn(
        sim_, kind_, run_, options_, global_index, sink_, local);
    session->set_slot(slot);
    if (global_index < participating_) {
      const auto relay = static_cast<std::uint64_t>(
          options_.sessions + global_index % options_.shared_relays);
      // The slot's previous occupant was quiescent, its client stopped:
      // no pending event or fabric route still reaches the old link.
      while (links_.size() <= slot) links_.emplace_back();
      std::optional<RelayLink>& link = links_[slot];
      link.emplace(sim_, run_.params, options_, &port_, global_index, relay);
      session->attach_relay(&*link);
      endpoints_[local] = session;
    }
    session->begin();
  }

  void deliver(const CrossShardEntry& entry) override {
    const auto local = static_cast<std::size_t>(entry.dest) - first_;
    SingleHopSession* endpoint = endpoints_[local];
    if (endpoint == nullptr) {
      ++sink_.fabric_dropped;
      return;
    }
    endpoint->deliver_fabric(entry.message);
  }

  ProtocolKind kind_;
  const SingleHopRun& run_;
  const SessionFarmOptions& options_;
  std::size_t first_;
  std::size_t participating_;
  ShardSink sink_;
  /// Relay links by arena slot (a deque: growing never moves a link).
  /// Declared before arena_, so sessions are destroyed before their links.
  std::deque<std::optional<RelayLink>> links_;
  SessionArena<SingleHopSession> arena_;
  /// Live fabric endpoints by local index (nullptr = not participating or
  /// already completed).
  std::vector<SingleHopSession*> endpoints_;
};

/// One shared relay session: a SharedRelayHub plus its fabric identity and
/// completion-time metrics capture.  Relay sessions begin at t = 0 (they
/// predate every subscriber) and complete when the last subscriber's REMOVE
/// is delivered; their Metrics ride in the same per-session machinery as
/// everyone else's, at global indices [sessions, sessions + relays).
class RelaySession {
 public:
  RelaySession(sim::Simulator& sim, ProtocolKind kind,
               const SingleHopParams& params,
               const SessionFarmOptions& options, std::uint64_t global_index,
               ShardSink& sink, std::size_t local, FabricPort* port,
               std::vector<std::uint64_t> subscribers)
      : sim_(sim),
        sink_(sink),
        local_(local),
        rng_(replica_seed(options.seed, global_index, 0), rng::kSessionRelay),
        fabric_ctx_{port, global_index, 0},
        hub_(sim, rng_, mechanisms(kind), timer_settings(options, params),
             std::move(subscribers),
             [this](std::uint64_t dest, const Message& m) {
               fabric_ctx_.port->send(fabric_ctx_, dest, m);
             },
             [this] { on_complete(); }) {}

  RelaySession(const RelaySession&) = delete;
  RelaySession& operator=(const RelaySession&) = delete;

  void begin() { hub_.begin(); }

  void deliver(const CrossShardEntry& entry) {
    hub_.handle(entry.source, entry.message);
  }

  [[nodiscard]] const protocols::SharedRelayHub& hub() const noexcept {
    return hub_;
  }

 private:
  void on_complete() {
    const double end = sim_.now();
    const auto sent = static_cast<double>(hub_.messages_sent());
    Metrics& metrics = sink_.metrics[local_];
    metrics.inconsistency = hub_.missing_fraction(end);
    metrics.session_length = end;  // relays live from t = 0
    metrics.raw_message_rate = end > 0.0 ? sent / end : 0.0;
    metrics.message_rate = metrics.raw_message_rate;
    sink_.end[sink_.completed] = end;
    sink_.messages += hub_.messages_sent();
    sink_.receiver_timeouts += hub_.soft_timeouts();
    sink_.relay_installs += hub_.installs();
    sink_.relay_refreshes += hub_.refreshes();
    sink_.relay_soft_timeouts += hub_.soft_timeouts();
    ++sink_.completed;
  }

  sim::Simulator& sim_;
  ShardSink& sink_;
  std::size_t local_;
  sim::Rng rng_;
  FabricCtx fabric_ctx_;
  protocols::SharedRelayHub hub_;
};

/// A relay shard: RelaySessions for relays [first_relay, first_relay +
/// count), all spawned at t = 0 and never recycled (a deque holds them --
/// no arena, no relocation).
class RelayFabricShard final : public FabricShardBase {
 public:
  RelayFabricShard(ProtocolKind kind, const SingleHopParams& params,
                   const SessionFarmOptions& options, const FabricMap& map,
                   CrossShardFabric& fabric, FarmStore& store,
                   std::uint32_t shard_id, std::size_t first_relay,
                   std::size_t count)
      : FabricShardBase(options, fabric, shard_id, map),
        kind_(kind),
        params_(params),
        options_(options),
        first_relay_(first_relay),
        sink_(store, options.sessions + first_relay, count) {
    // Relays arrive at t = 0: the store's arrival times are already zero.
    sim_.set_arrivals(sink_.arrival, [this](std::uint32_t i) { spawn(i); });
  }

  [[nodiscard]] bool complete() const override { return sink_.complete(); }

  ShardOutcome finish() override {
    for (const RelaySession& relay : relays_) {
      sink_.fabric_dropped += relay.hub().unknown_dropped();
    }
    return fabric_outcome(sink_);
  }

 private:
  void spawn(std::size_t local) {
    const std::size_t r = first_relay_ + local;
    const auto g = static_cast<std::uint64_t>(options_.sessions + r);
    // Relay r serves subscribers {r, r + R, r + 2R, ...}: the static
    // subscription map both sides derive independently.
    std::vector<std::uint64_t> subscribers;
    subscribers.reserve(options_.subscribers_per_relay);
    for (std::size_t k = 0; k < options_.subscribers_per_relay; ++k) {
      subscribers.push_back(
          static_cast<std::uint64_t>(r + k * options_.shared_relays));
    }
    relays_.emplace_back(sim_, kind_, params_, options_, g, sink_, local,
                         &port_, std::move(subscribers));
    relays_.back().begin();
  }

  void deliver(const CrossShardEntry& entry) override {
    const auto local = static_cast<std::size_t>(entry.dest) -
                       options_.sessions - first_relay_;
    relays_[local].deliver(entry);
  }

  ProtocolKind kind_;
  const SingleHopParams& params_;
  const SessionFarmOptions& options_;
  std::size_t first_relay_;
  ShardSink sink_;
  /// Arrivals run in local order at t = 0, so relays_[i] is relay i.
  std::deque<RelaySession> relays_;
};

SessionFarmResult run_fabric_farm(ProtocolKind kind, const SingleHopRun& run,
                                  const SessionFarmOptions& options) {
  validate_options(options);
  run.validate();
  if (options.subscribers_per_relay == 0) {
    throw std::invalid_argument(
        "SessionFarmOptions: subscribers_per_relay must be > 0 with shared "
        "relays");
  }
  if (options.subscribers_per_relay >
      options.sessions / options.shared_relays) {
    throw std::invalid_argument(
        "SessionFarmOptions: shared_relays * subscribers_per_relay must be "
        "<= sessions");
  }

  const std::size_t n = options.sessions;
  const std::size_t relays = options.shared_relays;
  const std::size_t shard_size = std::min(options.shard_size, n);
  const std::size_t sub_shards = (n + shard_size - 1) / shard_size;
  const std::vector<std::size_t> bounds =
      shard_bounds(n, n + relays, shard_size);
  const std::size_t shards = bounds.size() - 1;
  const FabricMap map{shard_size, n, sub_shards};

  // Materialize the rings from the static subscription map: subscriber i
  // talks to relay (i mod R) and back.  Deduplicate the directed shard
  // pairs first so ensure_ring runs once per ring, not once per session.
  CrossShardFabric fabric(shards);
  const std::size_t participating = relays * options.subscribers_per_relay;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  pairs.reserve(participating * 2);
  for (std::size_t i = 0; i < participating; ++i) {
    const std::uint32_t s = map.shard_of(static_cast<std::uint64_t>(i));
    const std::uint32_t d =
        map.shard_of(static_cast<std::uint64_t>(n + i % relays));
    pairs.emplace_back(s, d);
    pairs.emplace_back(d, s);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  for (const auto& [src, dst] : pairs) fabric.ensure_ring(src, dst);

  std::optional<ParallelSweep> local_engine;
  ParallelSweep* engine = options.engine;
  if (engine == nullptr) {
    local_engine.emplace(options.threads);
    engine = &*local_engine;
  }
  const std::size_t workers =
      std::max<std::size_t>(1, std::min(engine->threads(), shards));

  // Build every shard up front (parallel, each worker a strided set).
  const bool with_churn = protocols::TreeSessionCore::owns_membership(
      options.leaf_churn, options.scenario);
  FarmStore store(n + relays, with_churn);
  std::vector<std::unique_ptr<FabricShard>> shard_objs(shards);
  parallel_for(engine->pool(), workers, [&](std::size_t w) {
    for (std::size_t s = w; s < shards; s += workers) {
      const std::size_t count = bounds[s + 1] - bounds[s];
      if (s < sub_shards) {
        shard_objs[s] = std::make_unique<SubscriberFabricShard>(
            kind, run, options, map, fabric, store,
            static_cast<std::uint32_t>(s), bounds[s], count);
      } else {
        shard_objs[s] = std::make_unique<RelayFabricShard>(
            kind, run.params, options, map, fabric, store,
            static_cast<std::uint32_t>(s), bounds[s] - n, count);
      }
    }
  });

  // The lockstep epoch loop (see the section comment above).  negotiate()
  // is the serial step: false once every shard is complete, else it opens
  // the next epoch.  It runs once on the calling thread, then at the end of
  // every drain phase on the thread that finished that phase.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::size_t epochs = 0;
  double horizon = 0.0;
  const auto negotiate = [&]() -> bool {
    bool all_complete = true;
    for (const auto& shard : shard_objs) {
      if (!shard->complete()) {
        all_complete = false;
        break;
      }
    }
    if (all_complete) return false;
    double min_next = kInf;
    for (const auto& shard : shard_objs) {
      const std::optional<double> next = shard->next_pending_within(min_next);
      if (next && *next < min_next) min_next = *next;
    }
    if (min_next == kInf) {
      throw std::logic_error("session farm: fabric stalled before completing");
    }
    horizon = min_next + kFabricSliceSeconds;
    ++epochs;
    return true;
  };
  if (negotiate()) {
    // Even phases advance every shard to the horizon, odd phases drain.
    parallel_phases(
        engine->pool(), shards,
        [&](std::size_t phase, std::size_t s) {
          if (phase % 2 == 0) {
            shard_objs[s]->advance_to(horizon);
          } else {
            shard_objs[s]->drain_incoming(horizon);
          }
        },
        [&](std::size_t phase) { return phase % 2 == 0 || negotiate(); });
  }

  // Every shard is done: no simulator reads its arrival stream again.
  std::vector<ShardOutcome> outcomes(shards);
  parallel_for(engine->pool(), shards, [&](std::size_t s) {
    outcomes[s] = shard_objs[s]->finish();
    sort_begin_times(store, bounds[s], bounds[s + 1]);
  });
  const std::uint64_t fabric_messages = fabric.total_pushed();
  SessionFarmResult result =
      aggregate_outcomes(outcomes, store, bounds, options, engine->pool());
  result.relay_sessions = relays;
  result.fabric_messages = fabric_messages;
  result.fabric_rings = fabric.rings();
  result.fabric_epochs = epochs;
  return result;
}

}  // namespace

SessionFarmResult run_session_farm(ProtocolKind kind,
                                   const SingleHopParams& params,
                                   const SessionFarmOptions& options) {
  if (options.leaf_churn.enabled()) {
    throw std::invalid_argument(
        "run_session_farm: leaf churn needs tree or chain sessions");
  }
  if (options.scenario.enabled()) {
    throw std::invalid_argument(
        "run_session_farm: scenario processes need tree or chain sessions");
  }
  if (options.teardown) {
    throw std::invalid_argument(
        "run_session_farm: teardown pricing needs tree or chain sessions "
        "(single-hop sessions already end with an explicit remove)");
  }
  const SingleHopRun run(params, options);
  if (options.shared_relays > 0) return run_fabric_farm(kind, run, options);
  return run_farm<SingleHopSession>(kind, run, options);
}

SessionFarmResult run_session_farm(ProtocolKind kind,
                                   const MultiHopParams& params,
                                   const SessionFarmOptions& options) {
  // A chain session IS a fan-out-1 tree session: one session class, one
  // wiring path, exactly as the tree harness runs chains.
  return run_session_farm(kind, analytic::TreeParams::chain(params), options);
}

SessionFarmResult run_session_farm(ProtocolKind kind,
                                   const analytic::TreeParams& params,
                                   const SessionFarmOptions& options) {
  if (!supports_multi_hop(kind)) {
    throw std::invalid_argument(
        "run_session_farm: unsupported multi-hop protocol");
  }
  if (options.shared_relays > 0) {
    throw std::invalid_argument(
        "run_session_farm: shared relays need single-hop sessions");
  }
  // Options first, as run_farm checks them, before the shape reads params.
  validate_options(options);
  return run_farm<TreeSession>(kind, TreeRun(params, options), options);
}

}  // namespace sigcomp::exp
