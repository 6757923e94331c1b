// Scale benchmarks of the event core and the many-session farm.
//
// Part 1 pits both production event-queue backends -- the pooled 4-ary
// heap (sim::EventQueue) and the hashed timing wheel
// (sim::TimingWheelQueue) -- against the pre-refactor reference
// implementation (sim::ReferenceEventQueue: std::function + unordered_map
// + lazily-deleted binary heap) on identical operation streams: a
// schedule/pop flood with small (timer-sized) and large (delivery-sized)
// captures, the classic DES hold pattern, and the soft-state re-arm churn
// pattern (cancel + push, the hot path of refresh timers, where the
// wheel's O(1) unlink shines).
//
// Part 2 drives the session farm at N in {1k, 10k, 100k} concurrent
// single-hop sessions for all five protocols, plus a 100k-session
// single-simulator stress row and a multi-hop farm row, reporting events/s
// and sessions/s.  --event-queue selects the farm backend; a head-to-head
// table always runs the largest single-hop farm under BOTH backends
// (results are bit-identical -- only the wall clock may differ).
//
// --quick shrinks the Ns for CI and always runs the determinism self-check:
// farm results must be bit-identical across thread counts AND shard sizes
// (exit 1 on mismatch).  --json writes the machine-readable BENCH_scale.json
// described in docs/PERFORMANCE.md.
//
// --sessions N adds the MILLION-SESSION leg: one arena-farm run of N
// single-hop SS+RT sessions over a 10 s arrival window with 300 s mean
// lifetimes, so ~98.4% of N is concurrently in flight at the peak (pass
// N = 1050000 to put the peak above one million).  The leg then reruns the
// same workload across {1, 2, 8} threads x shard sizes {7, 64, 4096} and
// compares an FNV-1a digest of the full per-session metrics stream: any
// single bit of any session's metrics differing across the executions
// exits 1.  docs/PERFORMANCE.md documents the methodology.
//
// --shared-relays R (with --sessions N) adds the CROSS-SHARD leg: the same
// scale workload with R shared relay sessions fed through the ShardRing
// fabric (R * subscribers-per-relay farm sessions install state through
// relays in other shards).  The determinism self-check always includes the
// fabric rows: a small shared-relay farm must stay element-wise identical
// across thread counts and shard sizes (exit 1 on mismatch).
//
// Usage: perf_scale [--quick] [--csv PATH] [--threads N]
//                   [--event-queue heap|wheel] [--json PATH] [--sessions N]
//                   [--shared-relays R] [--subscribers-per-relay S]
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "exp/parallel.hpp"
#include "exp/session_farm.hpp"
#include "exp/shard_ring.hpp"
#include "exp/table.hpp"
#include "sim/event_queue.hpp"
#include "sim/reference_event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/timing_wheel_queue.hpp"

namespace {

using namespace sigcomp;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------- JSON report ----

/// One event-core workload: ops/s per queue implementation.
struct CoreJsonRow {
  std::string workload;
  double reference_ops = 0.0;
  double heap_ops = 0.0;
  double wheel_ops = 0.0;
};

/// One farm workload under one backend.
struct FarmJsonRow {
  std::string workload;
  std::string backend;
  std::size_t sessions = 0;
  std::uint64_t peak_sessions_in_flight = 0;
  std::uint64_t events_executed = 0;
  double seconds = 0.0;
  double events_per_s = 0.0;
  double sessions_per_s = 0.0;
  std::uint64_t fabric_messages = 0;  ///< cross-shard ring traffic (0 = none)
  std::size_t fabric_rings = 0;       ///< ShardRings materialized
};

/// One cross-shard ring micro-workload: ops/s through exp::ShardRing.
struct RingJsonRow {
  std::string workload;
  double ops = 0.0;
};

/// Everything --json persists; docs/PERFORMANCE.md documents the schema.
struct JsonReport {
  bool quick = false;
  std::size_t threads = 0;
  std::string farm_backend;
  std::vector<CoreJsonRow> core;
  std::vector<RingJsonRow> ring;
  std::vector<FarmJsonRow> farm;
};

std::string json_number(double v) {
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

/// Hand-rolled writer: two fixed arrays of flat objects, no dependencies.
/// All strings are known table labels (no escaping needed).
void write_json_report(const JsonReport& report, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open --json path: " + path);
  out << "{\n";
  out << "  \"bench\": \"perf_scale\",\n";
  out << "  \"quick\": " << (report.quick ? "true" : "false") << ",\n";
  out << "  \"threads\": " << report.threads << ",\n";
  out << "  \"farm_backend\": \"" << report.farm_backend << "\",\n";
  out << "  \"event_core\": [\n";
  for (std::size_t i = 0; i < report.core.size(); ++i) {
    const CoreJsonRow& row = report.core[i];
    out << "    {\"workload\": \"" << row.workload << "\", "
        << "\"reference_ops_per_s\": " << json_number(row.reference_ops)
        << ", \"heap_ops_per_s\": " << json_number(row.heap_ops)
        << ", \"wheel_ops_per_s\": " << json_number(row.wheel_ops) << "}"
        << (i + 1 < report.core.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"ring\": [\n";
  for (std::size_t i = 0; i < report.ring.size(); ++i) {
    const RingJsonRow& row = report.ring[i];
    out << "    {\"workload\": \"" << row.workload << "\", "
        << "\"ops_per_s\": " << json_number(row.ops) << "}"
        << (i + 1 < report.ring.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"farm\": [\n";
  for (std::size_t i = 0; i < report.farm.size(); ++i) {
    const FarmJsonRow& row = report.farm[i];
    out << "    {\"workload\": \"" << row.workload << "\", "
        << "\"backend\": \"" << row.backend << "\", "
        << "\"sessions\": " << row.sessions << ", "
        << "\"peak_sessions_in_flight\": " << row.peak_sessions_in_flight
        << ", \"events_executed\": " << row.events_executed << ", "
        << "\"seconds\": " << json_number(row.seconds) << ", "
        << "\"events_per_s\": " << json_number(row.events_per_s) << ", "
        << "\"sessions_per_s\": " << json_number(row.sessions_per_s) << ", "
        << "\"fabric_messages\": " << row.fabric_messages << ", "
        << "\"fabric_rings\": " << row.fabric_rings << "}"
        << (i + 1 < report.farm.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  if (!out.flush()) throw std::runtime_error("write failed: " + path);
}

// ---------------------------------------------------------- event core --

/// Timer-sized capture: one pointer, like the engines' `[this]` lambdas.
struct SmallPayload {
  std::uint64_t* counter;
  void operator()() const { ++*counter; }
};

/// Delivery-sized capture: pointer + a wire-message-sized value, like the
/// channel's `[this, m]` delivery closures (40 bytes).
struct LargePayload {
  std::uint64_t* counter;
  std::uint64_t body[4] = {1, 2, 3, 4};
  void operator()() const { *counter += body[0]; }
};

/// Set false when any workload loses or invents callback executions; the
/// process exits nonzero so the CI smoke run catches event-core
/// regressions, not just determinism breaks.
bool g_core_ok = true;

void expect_fired(const char* workload, std::uint64_t got,
                  std::uint64_t want) {
  if (got != want) {
    std::cerr << workload << ": executed " << got << " callbacks, expected "
              << want << "\n";
    g_core_ok = false;
  }
}

/// Schedule `events` callbacks at random times, then pop-execute all.
/// Returns ops/second (one push + one pop per event).
template <typename Queue, typename Payload>
double flood_rate(std::size_t events) {
  Queue q;
  sim::Rng rng(7);
  std::uint64_t fired = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < events; ++i) {
    q.push(rng.uniform(0.0, 1000.0), Payload{&fired});
  }
  while (!q.empty()) q.pop().action();
  const double elapsed = seconds_since(start);
  expect_fired("flood", fired, events);
  return static_cast<double>(2 * events) / elapsed;
}

/// The classic DES "hold" pattern: steady-state depth, each round pops the
/// earliest event and schedules a successor.  Returns ops/second.
template <typename Queue>
double hold_rate(std::size_t depth, std::size_t rounds) {
  Queue q;
  sim::Rng rng(9);
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    q.push(rng.uniform(0.0, 100.0), SmallPayload{&fired});
  }
  const auto start = Clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    auto event = q.pop();
    event.action();
    q.push(event.time + rng.uniform(0.0, 100.0), SmallPayload{&fired});
  }
  const double elapsed = seconds_since(start);
  while (!q.empty()) q.pop();  // drained without executing
  expect_fired("hold", fired, rounds);
  return static_cast<double>(2 * rounds) / elapsed;
}

/// The soft-state refresh pattern: `live` long-lived timers, each round
/// re-arms one (cancel + push at a later time).  Returns ops/second.
template <typename Queue>
double churn_rate(std::size_t live, std::size_t rounds) {
  Queue q;
  sim::Rng rng(11);
  std::uint64_t fired = 0;
  std::vector<decltype(q.push(0.0, SmallPayload{nullptr}))> ids;
  ids.reserve(live);
  for (std::size_t i = 0; i < live; ++i) {
    ids.push_back(q.push(rng.uniform(0.0, 100.0), SmallPayload{&fired}));
  }
  const auto start = Clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::size_t victim = r % live;
    q.cancel(ids[victim]);
    ids[victim] = q.push(100.0 + static_cast<double>(r) * 0.01 + rng.uniform(),
                         SmallPayload{&fired});
  }
  const double elapsed = seconds_since(start);
  while (!q.empty()) q.pop();  // drained without executing
  expect_fired("churn", fired, 0);  // every timer was cancelled or drained
  return static_cast<double>(2 * rounds) / elapsed;
}

/// Per-workload speedups reported under the tables.
struct CoreSpeedups {
  double churn_heap_vs_reference = 0.0;
  double churn_wheel_vs_heap = 0.0;
};

double add_core_row(exp::Table& table, JsonReport& json,
                    const std::string& name, double reference, double heap,
                    double wheel) {
  table.add_row(
      {name, reference, heap, wheel, heap / reference, wheel / heap});
  json.core.push_back({name, reference, heap, wheel});
  return wheel / heap;
}

CoreSpeedups bench_event_core(exp::Table& table, JsonReport& json,
                              bool quick) {
  const std::size_t flood = quick ? 100000 : 1000000;
  const std::size_t live = 10000;
  const std::size_t rounds = quick ? 200000 : 2000000;
  const std::size_t hold_depth = quick ? 10000 : 100000;

  add_core_row(table, json, "flood, timer-sized capture",
               flood_rate<sim::ReferenceEventQueue, SmallPayload>(flood),
               flood_rate<sim::EventQueue, SmallPayload>(flood),
               flood_rate<sim::TimingWheelQueue, SmallPayload>(flood));
  add_core_row(table, json, "flood, delivery-sized capture",
               flood_rate<sim::ReferenceEventQueue, LargePayload>(flood),
               flood_rate<sim::EventQueue, LargePayload>(flood),
               flood_rate<sim::TimingWheelQueue, LargePayload>(flood));
  add_core_row(table, json, "hold, steady depth",
               hold_rate<sim::ReferenceEventQueue>(hold_depth, rounds),
               hold_rate<sim::EventQueue>(hold_depth, rounds),
               hold_rate<sim::TimingWheelQueue>(hold_depth, rounds));
  // The headline workload: the soft-state refresh/backoff timer churn that
  // dominates every protocol simulation.  The heap pays O(log n) sift plus
  // husk compaction per cancel; the wheel unlinks in O(1).
  const double ref_churn = churn_rate<sim::ReferenceEventQueue>(live, rounds);
  const double heap_churn = churn_rate<sim::EventQueue>(live, rounds);
  const double wheel_churn = churn_rate<sim::TimingWheelQueue>(live, rounds);
  CoreSpeedups speedups;
  speedups.churn_heap_vs_reference = heap_churn / ref_churn;
  speedups.churn_wheel_vs_heap =
      add_core_row(table, json, "re-arm churn (cancel-heavy)", ref_churn,
                   heap_churn, wheel_churn);
  return speedups;
}

// ---------------------------------------------------- cross-shard ring --

/// Same-thread push/drain cycle through one ShardRing: the farm's
/// barrier-separated steady state, where producer and consumer never
/// overlap in time.  Returns ops/second (one push + one drained entry per
/// entry).
double ring_phase_rate(std::size_t entries) {
  exp::ShardRing ring(1024);
  std::vector<exp::CrossShardEntry> out;
  out.reserve(512);
  std::uint64_t received = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < entries; ++i) {
    exp::CrossShardEntry e;
    e.send_time = 1.0;
    e.source = 7;
    e.seq = i;
    ring.push(e);
    if (ring.size() >= 512) {
      out.clear();
      received += ring.drain(out);
    }
  }
  out.clear();
  received += ring.drain(out);
  const double elapsed = seconds_since(start);
  expect_fired("ring phase", received, entries);
  if (ring.capacity() != 1024) {
    std::cerr << "ring phase: ring grew past its capacity hint -- BUG\n";
    g_core_ok = false;
  }
  return static_cast<double>(2 * entries) / elapsed;
}

/// The destination shard's boundary work: drain a warm ring in batches and
/// stamp-sort each batch into fabric delivery order.  Returns entries/s.
double ring_drain_sort_rate(std::size_t entries, std::size_t batch) {
  exp::ShardRing ring(batch);
  std::vector<exp::CrossShardEntry> merged;
  std::uint64_t received = 0;
  const auto start = Clock::now();
  for (std::size_t pushed = 0; pushed < entries;) {
    const std::size_t n = std::min(batch, entries - pushed);
    for (std::size_t i = 0; i < n; ++i, ++pushed) {
      exp::CrossShardEntry e;
      e.send_time = static_cast<double>(pushed % 16);  // heavy ties
      e.source = pushed % 97;
      e.seq = pushed;
      ring.push(e);
    }
    merged.clear();
    received += ring.drain(merged);
    exp::sort_fabric(merged);
  }
  const double elapsed = seconds_since(start);
  expect_fired("ring drain+sort", received, entries);
  return static_cast<double>(entries) / elapsed;
}

void bench_ring(exp::Table& table, JsonReport& json, bool quick) {
  const std::size_t entries = quick ? 400000 : 4000000;
  const auto add = [&](const std::string& name, double ops) {
    table.add_row({name, ops});
    json.ring.push_back({name, ops});
  };
  add("phase-separated push/drain", ring_phase_rate(entries));
  add("drain + stamp sort (1k batches)",
      ring_drain_sort_rate(entries, 1024));
}

// -------------------------------------------------------- session farm --

exp::SessionFarmOptions farm_options(std::size_t sessions,
                                     exp::ParallelSweep* engine,
                                     sim::EventQueueBackend backend) {
  exp::SessionFarmOptions options;
  options.seed = 42;
  options.sessions = sessions;
  // Arrival window = N/rate = 30 s against a 60 s mean lifetime: most of
  // the N sessions are in flight at once in steady state.
  options.arrival_rate = static_cast<double>(sessions) / 30.0;
  options.session_lifetime = 60.0;
  options.engine = engine;
  options.event_queue = backend;
  return options;
}

void add_farm_row(exp::Table& table, JsonReport& json,
                  const std::string& name, sim::EventQueueBackend backend,
                  std::size_t sessions, const exp::SessionFarmResult& result,
                  double elapsed) {
  const double events_per_s =
      static_cast<double>(result.events_executed) / elapsed;
  const double sessions_per_s =
      static_cast<double>(result.sessions) / elapsed;
  table.add_row({name, static_cast<double>(sessions),
                 static_cast<double>(result.peak_sessions_in_flight),
                 static_cast<double>(result.events_executed), elapsed,
                 events_per_s, sessions_per_s,
                 result.summary.mean.inconsistency});
  json.farm.push_back({name, sim::to_string(backend), sessions,
                       result.peak_sessions_in_flight, result.events_executed,
                       elapsed, events_per_s, sessions_per_s,
                       result.fabric_messages, result.fabric_rings});
}

void bench_farm(exp::Table& table, JsonReport& json, std::size_t sessions,
                exp::ParallelSweep& engine, sim::EventQueueBackend backend) {
  for (const ProtocolKind kind : kAllProtocols) {
    const auto start = Clock::now();
    const exp::SessionFarmResult result =
        run_session_farm(kind, SingleHopParams::kazaa_defaults(),
                         farm_options(sessions, &engine, backend));
    add_farm_row(table, json, "single-hop " + std::string(to_string(kind)),
                 backend, sessions, result, seconds_since(start));
  }
}

void bench_farm_stress(exp::Table& table, JsonReport& json,
                       std::size_t sessions, exp::ParallelSweep& engine,
                       sim::EventQueueBackend backend) {
  // One Simulator hosting every session: the true "N concurrent sessions
  // in one event queue" stress.  (peak_sessions_in_flight is exact at any
  // shard size now -- the farm merges per-shard session intervals -- so
  // single-shard is purely an event-queue stress, not a peak-truth crutch.)
  exp::SessionFarmOptions options = farm_options(sessions, &engine, backend);
  options.shard_size = sessions;
  const auto start = Clock::now();
  const exp::SessionFarmResult result =
      run_session_farm(ProtocolKind::kSSRT, SingleHopParams::kazaa_defaults(),
                       options);
  add_farm_row(table, json, "one-sim stress SS+RT", backend, sessions, result,
               seconds_since(start));
}

void bench_farm_multihop(exp::Table& table, JsonReport& json,
                         std::size_t sessions, exp::ParallelSweep& engine,
                         sim::EventQueueBackend backend) {
  MultiHopParams params;
  params.hops = 4;
  const auto start = Clock::now();
  const exp::SessionFarmResult result =
      run_session_farm(ProtocolKind::kSSRT, params,
                       farm_options(sessions, &engine, backend));
  add_farm_row(table, json, "multi-hop SS+RT K=4", backend, sessions, result,
               seconds_since(start));
}

/// The largest single-hop farm workload under BOTH backends.  The results
/// are bit-identical by construction (asserted here; also locked by
/// tests/test_session_farm.cpp) -- only the wall clock may differ, which
/// is exactly what the row pair shows.
bool bench_farm_head_to_head(exp::Table& table, JsonReport& json,
                             std::size_t sessions,
                             exp::ParallelSweep& engine) {
  exp::SessionFarmResult results[2];
  const sim::EventQueueBackend backends[2] = {sim::EventQueueBackend::kHeap,
                                              sim::EventQueueBackend::kWheel};
  for (int i = 0; i < 2; ++i) {
    const auto start = Clock::now();
    results[i] = run_session_farm(ProtocolKind::kSSRT,
                                  SingleHopParams::kazaa_defaults(),
                                  farm_options(sessions, &engine, backends[i]));
    add_farm_row(
        table, json,
        std::string("head-to-head SS+RT, ") + sim::to_string(backends[i]),
        backends[i], sessions, results[i], seconds_since(start));
  }
  const bool identical = results[0].summary.mean.inconsistency ==
                             results[1].summary.mean.inconsistency &&
                         results[0].messages == results[1].messages &&
                         results[0].events_executed ==
                             results[1].events_executed &&
                         results[0].horizon == results[1].horizon;
  if (!identical) {
    std::cerr << "head-to-head: heap and wheel farms disagree -- BUG\n";
  }
  return identical;
}

// ------------------------------------------------- million-session leg --

/// The scale workload: N sessions arriving over a 10 s window with 300 s
/// mean lifetimes.  P(a session is still alive at the window's end) ~
/// integral of exp(-t/300)/10 over [0,10] = 98.4%, so the in-flight peak
/// is ~0.984 N -- N = 1050000 sustains a million concurrent sessions.
exp::SessionFarmOptions scale_options(std::size_t sessions,
                                      std::size_t threads,
                                      sim::EventQueueBackend backend) {
  exp::SessionFarmOptions options;
  options.seed = 42;
  options.sessions = sessions;
  options.arrival_rate = static_cast<double>(sessions) / 10.0;
  options.session_lifetime = 300.0;
  options.shard_size = 4096;
  options.threads = threads;
  options.event_queue = backend;
  options.keep_per_session = true;
  return options;
}

/// FNV-1a over every double of every session's Metrics, in global session
/// order -- the same construction tests/test_golden_trace.cpp pins, so
/// "digests equal" means bit-identical metrics session by session.
std::uint64_t metrics_digest(const std::vector<Metrics>& sessions) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (std::size_t i = 0; i < sizeof(bits); ++i) {
      hash ^= (bits >> (8 * i)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const Metrics& m : sessions) {
    mix(m.inconsistency);
    mix(m.message_rate);
    mix(m.raw_message_rate);
    mix(m.session_length);
    mix(m.breakdown.trigger);
    mix(m.breakdown.refresh);
    mix(m.breakdown.explicit_removal);
    mix(m.breakdown.reliable_trigger);
    mix(m.breakdown.reliable_removal);
  }
  return hash;
}

/// Runs the measured scale row plus the thread/shard determinism matrix.
/// Returns false when any configuration's per-session digest diverges.
bool bench_farm_scale(exp::Table& table, exp::Table& check, JsonReport& json,
                      std::size_t sessions, std::size_t threads,
                      sim::EventQueueBackend backend) {
  const auto start = Clock::now();
  const exp::SessionFarmResult measured =
      run_session_farm(ProtocolKind::kSSRT, SingleHopParams::kazaa_defaults(),
                       scale_options(sessions, threads, backend));
  const double elapsed = seconds_since(start);
  add_farm_row(table, json, "scale SS+RT, 10s window", backend, sessions,
               measured, elapsed);
  const std::uint64_t baseline = metrics_digest(measured.per_session);
  std::cout << "scale leg: " << sessions << " sessions, peak in flight "
            << measured.peak_sessions_in_flight << ", arena high water "
            << measured.arena_slot_high_water << " slots/shard\n";

  // The determinism matrix the farm contract promises: {1, 2, 8} threads at
  // the production shard size, and shard sizes {7, 64, 4096} single
  // threaded.  (The measured run above already covers (threads, 4096).)
  struct ScaleConfig {
    std::size_t threads;
    std::size_t shard_size;
  };
  const ScaleConfig configs[] = {
      {1, 4096}, {2, 4096}, {8, 4096}, {1, 7}, {1, 64}};
  bool all_ok = true;
  for (const ScaleConfig& config : configs) {
    if (config.threads == threads && config.shard_size == 4096) continue;
    exp::SessionFarmOptions options =
        scale_options(sessions, config.threads, backend);
    options.shard_size = config.shard_size;
    const exp::SessionFarmResult result = run_session_farm(
        ProtocolKind::kSSRT, SingleHopParams::kazaa_defaults(), options);
    const bool ok = metrics_digest(result.per_session) == baseline &&
                    result.peak_sessions_in_flight ==
                        measured.peak_sessions_in_flight;
    all_ok = all_ok && ok;
    check.add_row({"scale threads=" + std::to_string(config.threads) +
                       " shard=" + std::to_string(config.shard_size),
                   ok ? "identical" : "MISMATCH -- BUG"});
  }
  return all_ok;
}

/// The cross-shard leg of the scale run: the same workload with `relays`
/// shared relay sessions fed through the ring fabric.  One measured row --
/// the thread/shard determinism matrix for fabric runs lives in the always-on
/// self-check (and, element-wise, in tests/test_shared_relay_farm.cpp).
bool bench_farm_scale_xshard(exp::Table& table, JsonReport& json,
                             std::size_t sessions, std::size_t relays,
                             std::size_t subscribers, std::size_t threads,
                             sim::EventQueueBackend backend) {
  exp::SessionFarmOptions options = scale_options(sessions, threads, backend);
  options.keep_per_session = false;  // measured row only; no digest needed
  options.shared_relays = relays;
  options.subscribers_per_relay = subscribers;
  const auto start = Clock::now();
  const exp::SessionFarmResult result =
      run_session_farm(ProtocolKind::kSSRT, SingleHopParams::kazaa_defaults(),
                       options);
  add_farm_row(table, json, "scale SS+RT shared-relay", backend,
               sessions + relays, result, seconds_since(start));
  std::cout << "xshard scale leg: " << relays << " relays x " << subscribers
            << " subscribers, peak in flight "
            << result.peak_sessions_in_flight << ", "
            << result.fabric_messages << " fabric messages over "
            << result.fabric_rings << " rings in " << result.fabric_epochs
            << " epochs\n";
  const bool ok = result.fabric_messages > 0 && result.fabric_rings > 0;
  if (!ok) std::cerr << "xshard scale leg: fabric carried no traffic -- BUG\n";
  return ok;
}

// ---------------------------------------------------------- self-check --

bool summaries_identical(const exp::SessionFarmResult& a,
                         const exp::SessionFarmResult& b) {
  return a.summary.mean.inconsistency == b.summary.mean.inconsistency &&
         a.summary.mean.message_rate == b.summary.mean.message_rate &&
         a.summary.mean.raw_message_rate == b.summary.mean.raw_message_rate &&
         a.summary.mean.session_length == b.summary.mean.session_length &&
         a.summary.inconsistency.half_width ==
             b.summary.inconsistency.half_width &&
         a.messages == b.messages && a.events_executed == b.events_executed &&
         a.receiver_timeouts == b.receiver_timeouts && a.horizon == b.horizon;
}

/// Farm determinism: results must not depend on thread count, shard size,
/// or the event-queue backend.  (events_executed and the peak do depend on
/// the shard decomposition, so the shard-size check compares the metric
/// fields only.)
bool self_check(exp::Table& table, sim::EventQueueBackend backend) {
  exp::SessionFarmOptions base = farm_options(1500, nullptr, backend);
  bool all_ok = true;

  base.threads = 1;
  base.shard_size = 512;
  const exp::SessionFarmResult serial = run_session_farm(
      ProtocolKind::kSS, SingleHopParams::kazaa_defaults(), base);
  for (const std::size_t threads : {2, 8}) {
    exp::SessionFarmOptions opt = base;
    opt.threads = threads;
    const exp::SessionFarmResult parallel = run_session_farm(
        ProtocolKind::kSS, SingleHopParams::kazaa_defaults(), opt);
    const bool ok = summaries_identical(serial, parallel);
    all_ok = all_ok && ok;
    table.add_row({"threads=" + std::to_string(threads) + " vs 1",
                   ok ? "identical" : "MISMATCH -- BUG"});
  }

  exp::SessionFarmOptions resharded = base;
  resharded.shard_size = 97;  // deliberately ragged
  const exp::SessionFarmResult other = run_session_farm(
      ProtocolKind::kSS, SingleHopParams::kazaa_defaults(), resharded);
  const bool ok =
      serial.summary.mean.inconsistency == other.summary.mean.inconsistency &&
      serial.summary.mean.message_rate == other.summary.mean.message_rate &&
      serial.summary.inconsistency.half_width ==
          other.summary.inconsistency.half_width &&
      serial.messages == other.messages &&
      serial.receiver_timeouts == other.receiver_timeouts;
  all_ok = all_ok && ok;
  table.add_row(
      {"shard_size=97 vs 512", ok ? "identical" : "MISMATCH -- BUG"});

  // The same serial baseline rerun on the OTHER backend: every metric,
  // event count included, must come back bit-identical.
  exp::SessionFarmOptions crossed = base;
  crossed.event_queue = backend == sim::EventQueueBackend::kHeap
                            ? sim::EventQueueBackend::kWheel
                            : sim::EventQueueBackend::kHeap;
  const exp::SessionFarmResult cross_backend = run_session_farm(
      ProtocolKind::kSS, SingleHopParams::kazaa_defaults(), crossed);
  const bool backend_ok = summaries_identical(serial, cross_backend);
  all_ok = all_ok && backend_ok;
  table.add_row({std::string("backend ") + sim::to_string(crossed.event_queue) +
                     " vs " + sim::to_string(backend),
                 backend_ok ? "identical" : "MISMATCH -- BUG"});
  return all_ok;
}

/// Cross-shard fabric determinism: a shared-relay farm -- fan-in at the
/// relays, refresh fan-out back across the ShardRing fabric -- must stay
/// element-wise identical (per-session metric digest) across thread counts
/// AND shard sizes, fabric counters included.
bool xshard_self_check(exp::Table& table, sim::EventQueueBackend backend) {
  exp::SessionFarmOptions base = farm_options(600, nullptr, backend);
  base.threads = 1;
  base.shard_size = 97;  // ragged: subscribers and relays straddle shards
  base.shared_relays = 6;
  base.subscribers_per_relay = 16;
  base.keep_per_session = true;
  const exp::SessionFarmResult serial = run_session_farm(
      ProtocolKind::kSSRT, SingleHopParams::kazaa_defaults(), base);
  const std::uint64_t baseline = metrics_digest(serial.per_session);
  bool all_ok = serial.fabric_messages > 0 && serial.fabric_rings > 0;
  table.add_row({"xshard fabric traffic",
                 all_ok ? "flowing" : "SILENT -- BUG"});

  const auto identical = [&](const exp::SessionFarmResult& other) {
    return metrics_digest(other.per_session) == baseline &&
           other.messages == serial.messages &&
           other.fabric_messages == serial.fabric_messages &&
           other.fabric_dropped == serial.fabric_dropped &&
           other.relay_installs == serial.relay_installs &&
           other.relay_refreshes == serial.relay_refreshes &&
           other.peak_sessions_in_flight == serial.peak_sessions_in_flight;
  };
  for (const std::size_t threads : {2, 8}) {
    exp::SessionFarmOptions opt = base;
    opt.threads = threads;
    const bool ok = identical(run_session_farm(
        ProtocolKind::kSSRT, SingleHopParams::kazaa_defaults(), opt));
    all_ok = all_ok && ok;
    table.add_row({"xshard threads=" + std::to_string(threads) + " vs 1",
                   ok ? "identical" : "MISMATCH -- BUG"});
  }
  exp::SessionFarmOptions resharded = base;
  resharded.shard_size = 512;
  const bool ok = identical(run_session_farm(
      ProtocolKind::kSSRT, SingleHopParams::kazaa_defaults(), resharded));
  all_ok = all_ok && ok;
  table.add_row(
      {"xshard shard_size=512 vs 97", ok ? "identical" : "MISMATCH -- BUG"});
  return all_ok;
}

sim::EventQueueBackend backend_from_args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) != "--event-queue") continue;
    if (i + 1 >= argc) {
      throw std::invalid_argument("--event-queue requires a value");
    }
    const auto parsed = sim::parse_event_queue_backend(argv[i + 1]);
    if (!parsed) {
      throw std::invalid_argument(
          std::string("--event-queue must be heap or wheel, got: ") +
          argv[i + 1]);
    }
    return *parsed;
  }
  return sim::kDefaultEventQueueBackend;
}

std::string json_path_from_args(int argc, const char* const* argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") return argv[i + 1];
  }
  return {};
}

/// Shared `--flag N` count parser of the scale-leg knobs.
std::size_t count_from_args(int argc, const char* const* argv,
                            std::string_view flag, std::size_t fallback,
                            bool allow_zero) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) != flag) continue;
    if (i + 1 >= argc) {
      throw std::invalid_argument(std::string(flag) + " requires a value");
    }
    const long long parsed = std::stoll(argv[i + 1]);
    if (parsed < 0 || (parsed == 0 && !allow_zero)) {
      throw std::invalid_argument(std::string(flag) + " must be positive");
    }
    return static_cast<std::size_t>(parsed);
  }
  return fallback;
}

/// --sessions N enables the million-session leg; 0 means off.
std::size_t scale_sessions_from_args(int argc, const char* const* argv) {
  return count_from_args(argc, argv, "--sessions", 0, /*allow_zero=*/false);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
      if (std::string_view(argv[i]) == "--quick") quick = true;
    }
    const std::size_t threads = exp::threads_from_args(argc, argv);
    const sim::EventQueueBackend backend = backend_from_args(argc, argv);
    exp::ParallelSweep engine(threads);

    JsonReport json;
    json.quick = quick;
    json.threads = engine.threads();
    json.farm_backend = sim::to_string(backend);

    exp::Table core(
        "event core: reference vs pooled heap vs timing wheel "
        "(ops/s; one push+pop or cancel+push per op pair)",
        {"workload", "reference ops/s", "heap ops/s", "wheel ops/s",
         "heap/ref", "wheel/heap"});
    const CoreSpeedups speedups = bench_event_core(core, json, quick);
    core.print(std::cout);
    std::cout << '\n';

    exp::Table ring(
        "cross-shard ring (exp::ShardRing; ops/s = push+pop pairs, "
        "drain row = entries/s through drain + stamp sort)",
        {"workload", "ops/s"});
    bench_ring(ring, json, quick);
    ring.print(std::cout);
    std::cout << '\n';

    exp::Table farm(std::string("session farm scale (single-hop sessions per "
                                "protocol, event queue: ") +
                        sim::to_string(backend) + ")",
                    {"workload", "sessions", "peak in flight", "events",
                     "seconds", "events/s", "sessions/s", "I (mean)"});
    const std::vector<std::size_t> ns =
        quick ? std::vector<std::size_t>{200, 1000}
              : std::vector<std::size_t>{1000, 10000, 100000};
    for (const std::size_t n : ns) bench_farm(farm, json, n, engine, backend);
    // 120k sessions against a 30 s arrival window and 60 s lifetimes puts
    // the peak above 100k sessions concurrently inside ONE simulator.
    bench_farm_stress(farm, json, quick ? 2000 : 120000, engine, backend);
    bench_farm_multihop(farm, json, quick ? 200 : 10000, engine, backend);
    const bool head_to_head_ok =
        bench_farm_head_to_head(farm, json, ns.back(), engine);
    farm.print(std::cout);
    std::cout << '\n';

    const std::size_t scale_sessions = scale_sessions_from_args(argc, argv);
    const std::size_t scale_relays =
        count_from_args(argc, argv, "--shared-relays", 0, /*allow_zero=*/true);
    const std::size_t scale_subscribers = count_from_args(
        argc, argv, "--subscribers-per-relay", 16, /*allow_zero=*/false);
    exp::Table check("determinism self-check (SS, 1500 sessions; "
                     "xshard rows: SS+RT, 600 sessions + 6 shared relays)",
                     {"comparison", "result"});
    const bool base_deterministic = self_check(check, backend);
    const bool xshard_deterministic = xshard_self_check(check, backend);
    const bool deterministic = base_deterministic && xshard_deterministic;
    bool scale_ok = true;
    if (scale_sessions > 0) {
      exp::Table scale(
          std::string("million-session leg (single-hop SS+RT, "
                      "10 s window, 300 s lifetimes, event queue: ") +
              sim::to_string(backend) + ")",
          {"workload", "sessions", "peak in flight", "events", "seconds",
           "events/s", "sessions/s", "I (mean)"});
      scale_ok = bench_farm_scale(scale, check, json, scale_sessions,
                                  engine.threads(), backend);
      if (scale_relays > 0) {
        scale_ok = bench_farm_scale_xshard(scale, json, scale_sessions,
                                           scale_relays, scale_subscribers,
                                           engine.threads(), backend) &&
                   scale_ok;
      }
      scale.print(std::cout);
      std::cout << '\n';
    }
    check.print(std::cout);
    std::cout << "\nre-arm churn speedups: heap "
              << speedups.churn_heap_vs_reference
              << "x over reference, wheel " << speedups.churn_wheel_vs_heap
              << "x over heap\n";

    const std::string csv = exp::csv_path_from_args(argc, argv);
    if (!csv.empty()) {
      core.write_csv_file(csv);
      farm.write_csv_file(csv + ".farm.csv");
    }
    const std::string json_path = json_path_from_args(argc, argv);
    if (!json_path.empty()) write_json_report(json, json_path);
    return (deterministic && head_to_head_ok && scale_ok && g_core_ok) ? 0
                                                                       : 1;
  } catch (const std::exception& e) {
    std::cerr << "perf_scale: " << e.what() << '\n';
    return 2;
  }
}
