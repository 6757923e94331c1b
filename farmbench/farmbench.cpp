// Farm benchmark driver: runs one workload of the session farm through the
// public exp::run_session_farm API and prints its outputs and metrics as one
// JSON object on the last line of stdout.  farmbench/run.py builds this
// binary, checks every farm call against the pinned outputs and prints the
// final result; see farmbench/README.md for the workloads and metrics.
//
// Timed mode (--trace 0) repeats rounds of farm calls -- one per protocol
// of the workload, each after a fresh set-up of the worker pool and one
// small warm-up call -- for --seconds and reports median throughput, peak
// RSS, bytes per live session and the fastest set-up.  Nothing is traced.
//
// Traced mode (--trace 1) splits the wall time by layer from the outside in:
// it times calls into each layer's public functions (the farm call itself,
// the event queues, one session on the protocol engines, the thread pool's
// parallel_for, the shard ring, summarize_replicas), keeps every span in
// memory and writes them to --spans at exit.  Nothing under src/ is
// instrumented.
//
// Pin mode (--pin-threads T) makes every pinned farm call once at T threads
// and prints its outputs; run.py --make-pins compares 1 and 4 threads.
//
// Usage: farmbench --workload hold|churn|relay|tree_churn [--seconds S]
//                  [--trace 0|1] [--size tiny|full]
//                  [--threads T] [--spans PATH] [--pin-threads T]
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analytic/tree_paths.hpp"
#include "core/params.hpp"
#include "core/protocol.hpp"
#include "exp/parallel.hpp"
#include "exp/session_farm.hpp"
#include "exp/shard_ring.hpp"
#include "exp/thread_pool.hpp"
#include "protocols/engine.hpp"
#include "protocols/membership.hpp"
#include "protocols/scenario.hpp"
#include "protocols/topology.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/timing_wheel_queue.hpp"

namespace {

using namespace sigcomp;
using Clock = std::chrono::steady_clock;
using sim::EventQueueBackend;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---------------------------------------------------------------- memory --

/// Resident set right now, from /proc/self/statm (bytes).
double rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  if (!(statm >> size >> resident)) {
    throw std::runtime_error("cannot read /proc/self/statm");
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

/// Peak resident set of the process so far, from getrusage (bytes).
double peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;
}

constexpr double kMiB = 1024.0 * 1024.0;

// --------------------------------------------------------------- tracing --

/// In-memory span recorder of the traced run: one record per timed call
/// into a layer, written out as JSON lines when the run ends.
class Tracer {
 public:
  /// Scoped span: records [construction, destruction) under `layer`.
  class Span {
   public:
    Span(Tracer* tracer, std::string layer, std::string name)
        : tracer_(tracer) {
      if (tracer_ == nullptr) return;
      id_ = tracer_->open(std::move(layer), std::move(name));
    }
    ~Span() {
      if (tracer_ != nullptr) tracer_->close(id_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    std::size_t id_ = 0;
  };

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open --spans path: " + path);
    out.precision(17);
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << "{\"id\": " << i << ", \"parent\": "
          << (r.parent ? std::to_string(*r.parent) : "null")
          << ", \"layer\": \"" << r.layer << "\", \"name\": \"" << r.name
          << "\", \"start_s\": " << r.start_s << ", \"end_s\": " << r.end_s
          << "}\n";
    }
  }

 private:
  struct Record {
    std::string layer;
    std::string name;
    std::optional<std::size_t> parent;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  std::size_t open(std::string layer, std::string name) {
    Record r;
    r.layer = std::move(layer);
    r.name = std::move(name);
    if (!stack_.empty()) r.parent = stack_.back();
    r.start_s = seconds_since(origin_);
    records_.push_back(std::move(r));
    stack_.push_back(records_.size() - 1);
    return records_.size() - 1;
  }

  void close(std::size_t id) {
    records_[id].end_s = seconds_since(origin_);
    stack_.pop_back();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Record> records_;
  std::vector<std::size_t> stack_;  ///< open spans, innermost last
};

// ------------------------------------------------------------- workloads --

/// Sessions per farm call of each workload at one --size.
struct Sizes {
  std::size_t hold;
  std::size_t churn;
  std::size_t relay;
  std::size_t tree_churn;
  std::size_t scale;  ///< the traced run's one-off large hold call
};

Sizes sizes_for(std::string_view size) {
  if (size == "tiny") return {2048, 4096, 2048, 512, 8192};
  if (size == "full") return {65536, 131072, 16384, 16384, 1050000};
  throw std::invalid_argument("--size must be tiny or full");
}

/// Every farm call uses this seed; --seed only labels the run.
constexpr std::uint64_t kFarmSeed = 42;
/// Warm-up calls run the workload's shape at 1/kWarmupDivisor of its size.
constexpr std::size_t kWarmupDivisor = 32;

struct Workload {
  std::string name;
  bool tree = false;
  std::vector<ProtocolKind> protocols;
  exp::SessionFarmOptions options;  ///< seed, engine, queue set per call
  SingleHopParams single_hop = SingleHopParams::kazaa_defaults();
  analytic::TreeParams tree_params;
};

/// The workload `name` at `sessions` sessions per farm call.
Workload make_workload(std::string_view name, std::size_t sessions) {
  Workload w;
  w.name = std::string(name);
  exp::SessionFarmOptions& o = w.options;
  o.sessions = sessions;
  o.shard_size = 4096;
  o.keep_per_session = true;  // the per-session digest needs them
  const auto n = static_cast<double>(sessions);
  if (name == "hold" || name == "relay") {
    // Every session arrives within 10 s and lives 300 s on average, so
    // nearly all of them are in flight at once.
    o.arrival_rate = n / 10.0;
    o.session_lifetime = 300.0;
    w.protocols = {ProtocolKind::kSSRT};
    if (name == "relay") {
      // 48 subscribers per relay, 75% of the sessions in all.
      o.shared_relays = sessions / 64;
      o.subscribers_per_relay = 48;
    }
  } else if (name == "churn") {
    // Arrivals over 400 s with 10 s lifetimes: about 100 live sessions per
    // 4096-session shard, so every arena slot is recycled many times.
    o.arrival_rate = n / 400.0;
    o.session_lifetime = 10.0;
    w.protocols.assign(kAllProtocols.begin(), kAllProtocols.end());
  } else if (name == "tree_churn") {
    w.tree = true;
    w.tree_params = analytic::TreeParams::balanced(MultiHopParams{}, 4, 2);
    o.arrival_rate = n / 100.0;
    o.session_lifetime = 30.0;
    o.leaf_churn.leaf_lifetime = 30.0;
    o.leaf_churn.rejoin_rate = 1.0 / 30.0;
    o.scenario.failure = protocols::FailureConfig::relay_crash(0.01);
    o.teardown = true;
    w.protocols.assign(kAllProtocols.begin(), kAllProtocols.end());
  } else {
    throw std::invalid_argument(
        "--workload must be hold, churn, relay or tree_churn");
  }
  return w;
}

std::size_t main_sessions(const Sizes& sizes, std::string_view name) {
  if (name == "hold") return sizes.hold;
  if (name == "churn") return sizes.churn;
  if (name == "relay") return sizes.relay;
  return sizes.tree_churn;
}

// ------------------------------------------------------------ farm calls --

/// FNV-1a over every double of every session's Metrics in global session
/// order -- the construction of metrics_digest in bench/perf_scale.cpp.
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

/// One farm call: what was asked, what came back, and how long it took.
struct Call {
  std::string variant;  ///< which pinned shape: "main", "warmup" or "scale"
  std::string phase;    ///< which part of the run made it
  ProtocolKind kind = ProtocolKind::kSS;
  std::size_t threads = 0;
  EventQueueBackend queue = EventQueueBackend::kHeap;
  exp::SessionFarmResult result;  ///< per_session dropped unless kept
  std::uint64_t digest = 0;
  double wall_s = 0.0;
};

/// Makes one farm call.  Only run_session_farm itself is timed; the digest
/// is computed afterwards and the per-session metrics are released unless
/// `keep` (the traced run feeds them to the reduce measurement).
Call farm_call(const Workload& w, std::string variant, std::string phase,
               ProtocolKind kind, exp::ParallelSweep& engine,
               EventQueueBackend queue, bool keep, Tracer* tracer) {
  exp::SessionFarmOptions options = w.options;
  options.seed = kFarmSeed;
  options.engine = &engine;
  options.event_queue = queue;
  Call call;
  call.variant = std::move(variant);
  call.phase = std::move(phase);
  call.kind = kind;
  call.threads = engine.threads();
  call.queue = queue;
  {
    Tracer::Span span(tracer, "exp.farm",
                      "run_session_farm " + std::string(to_string(kind)) +
                          " " + sim::to_string(queue) + " " +
                          std::to_string(engine.threads()) + "t");
    const auto start = Clock::now();
    call.result = w.tree ? exp::run_session_farm(kind, w.tree_params, options)
                         : exp::run_session_farm(kind, w.single_hop, options);
    call.wall_s = seconds_since(start);
  }
  call.digest = metrics_digest(call.result.per_session);
  if (!keep) std::vector<Metrics>().swap(call.result.per_session);
  return call;
}

/// One farm call per protocol of the workload.
struct Round {
  std::vector<Call> calls;
  double wall_s = 0.0;  ///< summed over the calls
};

Round run_round(const Workload& w, const std::string& phase,
                exp::ParallelSweep& engine, EventQueueBackend queue, bool keep,
                Tracer* tracer) {
  Round round;
  for (const ProtocolKind kind : w.protocols) {
    Call call = farm_call(w, "main", phase, kind, engine, queue, keep, tracer);
    round.wall_s += call.wall_s;
    round.calls.push_back(std::move(call));
  }
  return round;
}

bool same_outputs(const Call& a, const Call& b) {
  return a.result.events_executed == b.result.events_executed &&
         a.result.messages == b.result.messages && a.digest == b.digest;
}

// ------------------------------------------------ single-session harness --
//
// One session of the workload's protocol on its own Simulator, wired from
// the public protocol classes the farm's sessions are built from.  (The
// protocols::run_single_hop / run_tree harnesses report no event count, so
// they cannot give a time per event.)  Used for the protocol layer's time
// per event and for the number of events a live session keeps pending.

/// A single-hop sender/receiver pair over two lossy channels, living
/// `lifetime` seconds with exponential updates, then removed.
class SingleHopHarness {
 public:
  SingleHopHarness(ProtocolKind kind, const SingleHopParams& p,
                   std::uint64_t seed)
      : params_(p),
        mech_(mechanisms(kind)),
        channel_rng_(seed, 0),
        sender_rng_(seed, 1),
        receiver_rng_(seed, 2),
        lifecycle_rng_(seed, 3),
        failure_rng_(seed, 4),
        forward_(sim_, channel_rng_, p.loss_config(), delay(p), nullptr),
        reverse_(sim_, channel_rng_, p.loss_config(), delay(p), nullptr),
        sender_(sim_, sender_rng_, mech_, timers(p), forward_, nullptr),
        receiver_(sim_, receiver_rng_, mech_, timers(p), reverse_, nullptr) {
    forward_.set_sink([this](const protocols::Message& m) {
      receiver_.handle(m);
    });
    reverse_.set_sink([this](const protocols::Message& m) {
      sender_.handle(m);
    });
  }

  /// Runs the session to absorption; appends the pending-event count at
  /// every whole second of its life to `pending` when non-null.  Returns
  /// the events executed.
  std::uint64_t run(double lifetime, std::vector<double>* pending) {
    sender_.begin_epoch(1);
    receiver_.begin_epoch(1);
    sender_.install(++version_);
    schedule_update();
    if (mech_.external_failure_detector && params_.false_signal_rate > 0.0) {
      schedule_false_signal();
    }
    sim_.schedule_in(lifetime, [this] { remove(); });
    if (pending != nullptr) {
      for (double t = 1.0; t < lifetime; t += 1.0) {
        sim_.run_until(t);
        pending->push_back(static_cast<double>(sim_.pending_events()));
      }
    }
    sim_.run();
    return sim_.events_executed();
  }

 private:
  static sim::DelayConfig delay(const SingleHopParams& p) {
    return sim::DelayConfig{sim::DelayModel::kExponential, p.delay, 1.5};
  }
  static protocols::TimerSettings timers(const SingleHopParams& p) {
    return protocols::TimerSettings{sim::Distribution::kDeterministic,
                                    p.refresh_timer, p.timeout_timer,
                                    p.retrans_timer};
  }

  void schedule_update() {
    update_ = sim_.schedule_in(
        lifecycle_rng_.exponential(1.0 / params_.update_rate), [this] {
          sender_.update(++version_);
          schedule_update();
        });
  }

  void schedule_false_signal() {
    false_signal_ = sim_.schedule_in(
        failure_rng_.exponential(1.0 / params_.false_signal_rate), [this] {
          receiver_.external_removal_signal();
          schedule_false_signal();
        });
  }

  void remove() {
    sim_.cancel(update_);
    if (false_signal_) sim_.cancel(*false_signal_);
    sender_.remove();
  }

  SingleHopParams params_;
  MechanismSet mech_;
  sim::Simulator sim_;
  sim::Rng channel_rng_;
  sim::Rng sender_rng_;
  sim::Rng receiver_rng_;
  sim::Rng lifecycle_rng_;
  sim::Rng failure_rng_;
  protocols::MessageChannel forward_;
  protocols::MessageChannel reverse_;
  protocols::SenderEngine sender_;
  protocols::ReceiverEngine receiver_;
  std::int64_t version_ = 0;
  sim::EventId update_;
  std::optional<sim::EventId> false_signal_;
};

/// One tree session: the workload's Topology with leaf churn, relay
/// crashes and (when the workload asks) explicit teardown.
class TreeHarness {
 public:
  TreeHarness(ProtocolKind kind, const Workload& w, std::uint64_t seed)
      : w_(w),
        mech_(mechanisms(kind)),
        channel_rng_(seed, 100),
        node_rng_(seed, 101),
        lifecycle_rng_(seed, 102),
        membership_rng_(seed, 103),
        failure_rng_(seed, 104),
        scenario_rng_(seed, 105) {
    const analytic::TreeParams& p = w.tree_params;
    std::vector<sim::LossConfig> loss;
    std::vector<sim::DelayConfig> delays;
    for (std::size_t e = 0; e < p.edges(); ++e) {
      loss.push_back(p.edge_loss_config(e));
      delays.push_back(
          sim::DelayConfig{sim::DelayModel::kExponential, p.delay[e], 1.5});
    }
    topology_ = std::make_unique<protocols::Topology>(
        sim_, channel_rng_, node_rng_, mech_,
        protocols::TimerSettings{sim::Distribution::kDeterministic,
                                 p.refresh_timer, p.timeout_timer,
                                 p.retrans_timer},
        p.tree, loss, delays, [this] {
          if (membership_) membership_->on_state_change();
        });
    if (w.options.leaf_churn.enabled()) {
      membership_ = std::make_unique<protocols::MembershipController>(
          sim_, *topology_, membership_rng_, w.options.leaf_churn, nullptr);
    }
    if (w.options.scenario.failure.enabled()) {
      failure_ = std::make_unique<protocols::RelayFailureProcess>(
          sim_, *topology_, scenario_rng_, w.options.scenario.failure,
          mech_.external_failure_detector);
    }
  }

  /// Runs the session's window and teardown; see SingleHopHarness::run.
  std::uint64_t run(double lifetime, std::vector<double>* pending) {
    topology_->sender().start(++version_);
    schedule_update();
    if (membership_) membership_->start();
    if (failure_) failure_->start();
    if (pending != nullptr) {
      for (double t = 1.0; t < lifetime; t += 1.0) {
        sim_.run_until(t);
        pending->push_back(static_cast<double>(sim_.pending_events()));
      }
    }
    sim_.run_until(lifetime);
    if (membership_) membership_->finish();
    if (failure_) failure_->stop();
    sim_.cancel(update_);
    if (w_.options.teardown) {
      topology_->sender().remove();
      sim_.run_until(lifetime + w_.tree_params.timeout_timer);
    }
    topology_->stop();
    return sim_.events_executed();
  }

 private:
  void schedule_update() {
    update_ = sim_.schedule_in(
        lifecycle_rng_.exponential(1.0 / w_.tree_params.update_rate), [this] {
          topology_->sender().update(++version_);
          schedule_update();
        });
  }

  const Workload& w_;
  MechanismSet mech_;
  sim::Simulator sim_;
  sim::Rng channel_rng_;
  sim::Rng node_rng_;
  sim::Rng lifecycle_rng_;
  sim::Rng membership_rng_;
  sim::Rng failure_rng_;
  sim::Rng scenario_rng_;
  std::unique_ptr<protocols::Topology> topology_;
  std::unique_ptr<protocols::MembershipController> membership_;
  std::unique_ptr<protocols::RelayFailureProcess> failure_;
  std::int64_t version_ = 0;
  sim::EventId update_;
};

std::uint64_t run_one_session(const Workload& w, ProtocolKind kind,
                              std::uint64_t seed,
                              std::vector<double>* pending) {
  const double lifetime = w.options.session_lifetime;
  if (w.tree) return TreeHarness(kind, w, seed).run(lifetime, pending);
  return SingleHopHarness(kind, w.single_hop, seed).run(lifetime, pending);
}

struct SessionCost {
  double ns_per_event = 0.0;
  double pending_per_session = 0.0;
};

/// Time per event of single sessions of each of the workload's protocols
/// (construction included, `budget_s` seconds in all), and the mean number
/// of events a live session keeps pending.
SessionCost measure_sessions(const Workload& w, double budget_s,
                             Tracer* tracer) {
  SessionCost cost;
  double wall = 0.0;
  double events = 0.0;
  for (const ProtocolKind kind : w.protocols) {
    std::vector<double> pending;
    for (std::uint64_t s = 0; s < 4; ++s) run_one_session(w, kind, s, &pending);
    cost.pending_per_session +=
        median(pending) / static_cast<double>(w.protocols.size());

    Tracer::Span span(tracer, "protocols",
                      "one session " + std::string(to_string(kind)));
    const double share = budget_s / static_cast<double>(w.protocols.size());
    const auto start = Clock::now();
    std::uint64_t seed = 1000;
    do {
      events += static_cast<double>(run_one_session(w, kind, seed++, nullptr));
    } while (seconds_since(start) < share);
    wall += seconds_since(start);
  }
  cost.ns_per_event = wall * 1e9 / events;
  return cost;
}

// -------------------------------------------------- layer measurements --

/// Re-arm + pop at a steady pending depth: each round pops the earliest
/// event and schedules its successor, then cancels and re-schedules one
/// random live timer (the soft-state refresh pattern).  ns per round.
template <typename Queue>
double rearm_pop_ns(std::size_t depth, std::size_t rounds) {
  struct Fire {
    std::size_t* out;
    std::size_t index;
    void operator()() const { *out = index; }
  };
  Queue queue;
  sim::Rng rng(17);
  std::size_t fired = 0;
  std::vector<sim::EventId> ids(depth);
  for (std::size_t i = 0; i < depth; ++i) {
    ids[i] = queue.push(rng.uniform(0.0, 100.0), Fire{&fired, i});
  }
  const auto start = Clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    auto event = queue.pop();
    event.action();
    ids[fired] =
        queue.push(event.time + rng.uniform(0.0, 100.0), Fire{&fired, fired});
    const auto victim = static_cast<std::size_t>(rng.uniform_int(depth));
    queue.cancel(ids[victim]);
    ids[victim] =
        queue.push(event.time + rng.uniform(0.0, 100.0), Fire{&fired, victim});
  }
  return seconds_since(start) * 1e9 / static_cast<double>(rounds);
}

/// Round trip of an empty parallel_for over `workers` indices (us).
double barrier_us(exp::ThreadPool& pool, std::size_t workers,
                  std::size_t rounds) {
  const auto start = Clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    exp::parallel_for(pool, workers, [](std::size_t) {});
  }
  return seconds_since(start) * 1e6 / static_cast<double>(rounds);
}

/// ShardRing push + drain + sort_fabric in batches of `batch` (ns per
/// message).
double ring_ns_per_msg(std::size_t batch, std::size_t messages) {
  exp::ShardRing ring(batch);
  std::vector<exp::CrossShardEntry> merged;
  sim::Rng rng(23);
  std::size_t received = 0;
  const auto start = Clock::now();
  for (std::size_t pushed = 0; pushed < messages;) {
    for (std::size_t i = 0; i < batch; ++i, ++pushed) {
      exp::CrossShardEntry e;
      e.send_time = rng.uniform(0.0, 1.0);
      e.source = rng.uniform_int(1 << 20);
      e.seq = pushed;
      ring.push(e);
    }
    merged.clear();
    received += ring.drain(merged);
    exp::sort_fabric(merged);
  }
  const double elapsed = seconds_since(start);
  if (received < messages) throw std::logic_error("ring lost entries");
  return elapsed * 1e9 / static_cast<double>(received);
}

/// summarize_replicas over each call's per-session metrics (ns per
/// session; best of three passes).
double reduce_ns_per_session(const std::vector<Call>& calls) {
  double sessions = 0.0;
  for (const Call& c : calls) {
    sessions += static_cast<double>(c.result.per_session.size());
  }
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    const auto start = Clock::now();
    double sink = 0.0;
    for (const Call& c : calls) {
      sink += exp::summarize_replicas(c.result.per_session).mean.inconsistency;
    }
    const double elapsed = seconds_since(start);
    if (std::isnan(sink)) throw std::logic_error("reduce produced NaN");
    if (pass == 0 || elapsed < best) best = elapsed;
  }
  return best * 1e9 / sessions;
}

// ---------------------------------------------------------------- output --

/// Metric name -> (value, unit), in insertion order.
struct MetricList {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void add(std::string name, double value, std::string unit) {
    items.push_back({std::move(name), {value, std::move(unit)}});
  }
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void print_json(std::ostream& out, const std::vector<Call>& calls,
                const MetricList& metrics) {
  out.precision(17);
  out << "{\"build\": {\"compiler\": \"" << FARMBENCH_COMPILER
      << "\", \"flags\": \"" << FARMBENCH_FLAGS << "\", \"build_type\": \""
      << FARMBENCH_BUILD_TYPE << "\", \"default_event_queue\": \""
      << sim::to_string(sim::kDefaultEventQueueBackend) << "\"}, \"calls\": [";
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const Call& c = calls[i];
    out << (i == 0 ? "" : ", ") << "{\"variant\": \"" << c.variant
        << "\", \"phase\": \"" << c.phase << "\", \"protocol\": \""
        << to_string(c.kind) << "\", \"threads\": " << c.threads
        << ", \"queue\": \"" << sim::to_string(c.queue) << "\", \"events\": " << c.result.events_executed
        << ", \"messages\": " << c.result.messages << ", \"digest\": \""
        << hex64(c.digest) << "\", \"wall_s\": " << c.wall_s << "}";
  }
  out << "], \"metrics\": {";
  for (std::size_t i = 0; i < metrics.items.size(); ++i) {
    const auto& [name, value] = metrics.items[i];
    out << (i == 0 ? "" : ", ") << "\"" << name << "\": [" << value.first
        << ", \"" << value.second << "\"]";
  }
  out << "}}\n";
}

// ------------------------------------------------------------------ runs --

struct Args {
  std::string workload;
  std::string size = "full";
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 4;
  std::string spans;
  std::size_t pin_threads = 0;  ///< > 0: pin mode
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument(std::string(flag) + " requires a value");
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--size") {
      args.size = value;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--threads") {
      args.threads = std::stoull(value);
    } else if (flag == "--spans") {
      args.spans = value;
    } else if (flag == "--pin-threads") {
      args.pin_threads = std::stoull(value);
    } else {
      throw std::invalid_argument("unknown flag " + std::string(flag));
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (args.threads == 0) throw std::invalid_argument("--threads must be > 0");
  return args;
}

/// Every pinned call of the workload, at `threads` threads.
std::vector<Call> pin_calls(const Args& args, const Sizes& sizes,
                            const Workload& w, const Workload& warm) {
  exp::ParallelSweep engine(args.pin_threads);
  std::vector<Call> calls;
  for (const ProtocolKind kind : w.protocols) {
    calls.push_back(farm_call(w, "main", "pin", kind, engine,
                              EventQueueBackend::kHeap, false, nullptr));
  }
  calls.push_back(farm_call(warm, "warmup", "pin", w.protocols.front(),
                            engine, EventQueueBackend::kHeap, false, nullptr));
  if (w.name == "hold") {
    const Workload scale = make_workload("hold", sizes.scale);
    calls.push_back(farm_call(scale, "scale", "pin", ProtocolKind::kSSRT,
                              engine, EventQueueBackend::kHeap, false,
                              nullptr));
  }
  return calls;
}

/// The timed run's end-to-end metrics.  Every round makes one farm call per
/// protocol of the workload and repeats the same calls, so throughput is the
/// round's events and sessions over the sum of each call's median wall time
/// across rounds.  A fresh set-up -- worker pool plus one warm-up call --
/// precedes every timed call, so the set-ups sample the whole run rather
/// than one moment of it; setup_s is the fastest of them (the first counts
/// from `process_start`).
void timed_run(const Args& args, const Workload& w, const Workload& warm,
               Clock::time_point process_start, std::vector<Call>& calls,
               MetricList& metrics) {
  std::unique_ptr<exp::ParallelSweep> engine;
  std::vector<double> setups;
  const auto set_up = [&](Clock::time_point start) {
    engine.reset();
    engine = std::make_unique<exp::ParallelSweep>(args.threads);
    calls.push_back(farm_call(warm, "warmup", "setup", w.protocols.front(),
                              *engine, EventQueueBackend::kHeap, false,
                              nullptr));
    setups.push_back(seconds_since(start));
  };
  set_up(process_start);

  const double rss_before = rss_bytes();
  std::vector<std::vector<double>> walls(w.protocols.size());
  double events = 0.0;
  double sessions = 0.0;
  std::size_t peak_in_flight = 0;
  double bytes_per_session = 0.0;
  std::size_t rounds = 0;
  const auto start = Clock::now();
  do {
    for (std::size_t i = 0; i < w.protocols.size(); ++i) {
      if (rounds > 0 || i > 0) set_up(Clock::now());
      Call call = farm_call(w, "main", "timed", w.protocols[i], *engine,
                            EventQueueBackend::kHeap, false, nullptr);
      walls[i].push_back(call.wall_s);
      if (rounds == 0) {
        events += static_cast<double>(call.result.events_executed);
        sessions += static_cast<double>(call.result.sessions);
        peak_in_flight =
            std::max(peak_in_flight, call.result.peak_sessions_in_flight);
      }
      calls.push_back(std::move(call));
    }
    if (rounds++ == 0) {
      bytes_per_session = (peak_rss_bytes() - rss_before) /
                          static_cast<double>(peak_in_flight);
    }
  } while (seconds_since(start) < args.seconds);
  double wall = 0.0;
  for (const std::vector<double>& call_walls : walls) wall += median(call_walls);
  std::cerr << "farmbench: " << rounds << " timed rounds, " << setups.size()
            << " set-ups\n";
  metrics.add("events_per_s", events / wall, "1/s");
  metrics.add("sessions_per_s", sessions / wall, "1/s");
  metrics.add("peak_rss_mb", peak_rss_bytes() / kMiB, "MB");
  metrics.add("bytes_per_session", bytes_per_session, "B");
  metrics.add("setup_s", *std::min_element(setups.begin(), setups.end()), "s");
}

/// Sums and maxima of the counters of one round's farm results.
struct Counters {
  double events = 0, messages = 0, timeouts = 0, teardown = 0;
  double relay_installs = 0, relay_refreshes = 0;
  double fabric_messages = 0, fabric_dropped = 0, fabric_epochs = 0;
  double chunk_allocations = 0;
  std::size_t fabric_rings = 0, slot_high_water = 0, peak = 0, shards = 0;
};

Counters count(const Round& round) {
  Counters c;
  for (const Call& call : round.calls) {
    const exp::SessionFarmResult& r = call.result;
    c.events += static_cast<double>(r.events_executed);
    c.messages += static_cast<double>(r.messages);
    c.timeouts += static_cast<double>(r.receiver_timeouts);
    c.teardown += static_cast<double>(r.teardown_messages);
    c.relay_installs += static_cast<double>(r.relay_installs);
    c.relay_refreshes += static_cast<double>(r.relay_refreshes);
    c.fabric_messages += static_cast<double>(r.fabric_messages);
    c.fabric_dropped += static_cast<double>(r.fabric_dropped);
    c.fabric_epochs += static_cast<double>(r.fabric_epochs);
    c.chunk_allocations += static_cast<double>(r.arena_chunk_allocations);
    c.fabric_rings = std::max(c.fabric_rings, r.fabric_rings);
    c.slot_high_water = std::max(c.slot_high_water, r.arena_slot_high_water);
    c.peak = std::max(c.peak, r.peak_sessions_in_flight);
    c.shards = std::max(c.shards, r.shards);
  }
  return c;
}

/// The traced run's per-layer metrics.
void measure_layers(const Args& args, const Sizes& sizes, const Workload& w,
                    exp::ParallelSweep& engine,
                    std::vector<Call>& calls, MetricList& metrics,
                    Tracer& tracer) {
  const bool tiny = args.size == "tiny";
  const auto keep = [&calls](const Round& round) {
    for (const Call& c : round.calls) {
      calls.push_back(c);
      std::vector<Metrics>().swap(calls.back().result.per_session);
    }
  };

  // exp.farm: the same round untraced and traced (the tracing overhead),
  // on the wheel (the backend yardstick) and on one thread.
  Round untraced = run_round(w, "untraced", engine, EventQueueBackend::kHeap,
                             false, nullptr);
  keep(untraced);
  Round traced = run_round(w, "traced", engine, EventQueueBackend::kHeap, true,
                           &tracer);
  keep(traced);
  Round wheel = run_round(w, "wheel", engine, EventQueueBackend::kWheel, false,
                          &tracer);
  keep(wheel);
  for (std::size_t i = 0; i < traced.calls.size(); ++i) {
    if (!same_outputs(traced.calls[i], wheel.calls[i])) {
      throw std::runtime_error("heap and wheel farm outputs differ");
    }
  }
  exp::ParallelSweep serial_engine(1);
  Round serial = run_round(w, "serial", serial_engine,
                           EventQueueBackend::kHeap, false, &tracer);
  keep(serial);

  const Counters c = count(traced);
  metrics.add("sim.events", c.events, "count");
  metrics.add("protocols.messages", c.messages, "count");
  metrics.add("protocols.receiver_timeouts", c.timeouts, "count");
  metrics.add("protocols.teardown_messages", c.teardown, "count");
  metrics.add("protocols.relay_installs", c.relay_installs, "count");
  metrics.add("protocols.relay_refreshes", c.relay_refreshes, "count");

  // sim + protocols: one session on its own simulator, then both queues at
  // the farm's per-shard pending depth.
  const SessionCost session = measure_sessions(w, tiny ? 0.05 : 1.0, &tracer);
  const auto depth = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             static_cast<double>(c.slot_high_water) *
             session.pending_per_session)));
  const std::size_t queue_rounds = tiny ? 20000 : 500000;
  double heap_ns = 0.0;
  double wheel_ns = 0.0;
  {
    Tracer::Span span(&tracer, "sim", "EventQueue re-arm+pop");
    heap_ns = rearm_pop_ns<sim::EventQueue>(depth, queue_rounds);
  }
  {
    Tracer::Span span(&tracer, "sim", "TimingWheelQueue re-arm+pop");
    wheel_ns = rearm_pop_ns<sim::TimingWheelQueue>(depth, queue_rounds);
  }
  metrics.add("sim.pending_per_session", session.pending_per_session, "count");
  metrics.add("sim.queue_depth", static_cast<double>(depth), "count");
  metrics.add("sim.heap_ns_per_op", heap_ns, "ns");
  metrics.add("sim.wheel_ns_per_op", wheel_ns, "ns");
  metrics.add("sim.wheel_speedup", traced.wall_s / wheel.wall_s, "ratio");
  metrics.add("protocols.ns_per_event", session.ns_per_event, "ns");

  // exp.farm and exp.arena.
  const double threads = static_cast<double>(engine.threads());
  metrics.add("exp.farm.wall_s", traced.wall_s, "s");
  metrics.add("exp.farm.serial_s", serial.wall_s, "s");
  metrics.add("exp.farm.overhead_ns_per_event",
              serial.wall_s * 1e9 / c.events - session.ns_per_event, "ns");
  metrics.add("exp.farm.peak_sessions_in_flight", static_cast<double>(c.peak),
              "count");
  metrics.add("exp.farm.shards", static_cast<double>(c.shards), "count");
  metrics.add("exp.arena.slot_high_water",
              static_cast<double>(c.slot_high_water), "count");
  metrics.add("exp.arena.chunk_allocations", c.chunk_allocations, "count");

  // exp.fabric: zero on the workloads without shared relays.
  const double ring_epochs =
      static_cast<double>(c.fabric_rings) * c.fabric_epochs;
  const double batch = ring_epochs > 0.0 ? c.fabric_messages / ring_epochs : 0.0;
  double ns_per_msg = 0.0;
  if (c.fabric_messages > 0.0) {
    Tracer::Span span(&tracer, "exp.fabric", "ShardRing push+drain+sort");
    ns_per_msg = ring_ns_per_msg(
        std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(batch))),
        tiny ? 100000 : 2000000);
  }
  metrics.add("exp.fabric.messages", c.fabric_messages, "count");
  metrics.add("exp.fabric.dropped", c.fabric_dropped, "count");
  metrics.add("exp.fabric.rings", static_cast<double>(c.fabric_rings), "count");
  metrics.add("exp.fabric.epochs", c.fabric_epochs, "count");
  metrics.add("exp.fabric.delivered_ratio",
              c.fabric_messages > 0.0
                  ? 1.0 - c.fabric_dropped / c.fabric_messages
                  : 0.0,
              "ratio");
  metrics.add("exp.fabric.msgs_per_ring_epoch", batch, "count");
  metrics.add("exp.fabric.ns_per_msg", ns_per_msg, "ns");
  metrics.add("exp.fabric.busy_s", ns_per_msg * c.fabric_messages * 1e-9, "s");

  // exp.parallel: the fabric loop joins twice per epoch plus once to build
  // the shards; the slice loop joins once per farm call.
  const std::size_t workers = std::min(engine.threads(), c.shards);
  double barrier = 0.0;
  {
    Tracer::Span span(&tracer, "exp.parallel", "empty parallel_for");
    barrier = barrier_us(engine.pool(), workers, tiny ? 200 : 5000);
  }
  const double barriers =
      c.fabric_epochs > 0.0
          ? 2.0 * c.fabric_epochs + static_cast<double>(traced.calls.size())
          : static_cast<double>(traced.calls.size());
  metrics.add("exp.parallel.barrier_us", barrier, "us");
  metrics.add("exp.parallel.barriers", barriers, "count");
  metrics.add("exp.parallel.barrier_s", barrier * barriers * 1e-6, "s");
  metrics.add("exp.parallel.efficiency",
              serial.wall_s / (threads * traced.wall_s), "ratio");
  metrics.add("exp.parallel.wait_s", threads * traced.wall_s - serial.wall_s,
              "s");

  // exp.reduce.
  double reduce_ns = 0.0;
  {
    Tracer::Span span(&tracer, "exp.reduce", "summarize_replicas");
    reduce_ns = reduce_ns_per_session(traced.calls);
  }
  metrics.add("exp.reduce.ns_per_session", reduce_ns, "ns");
  metrics.add("trace.overhead_pct",
              (traced.wall_s - untraced.wall_s) / untraced.wall_s * 100.0, "%");
  for (Call& call : traced.calls) std::vector<Metrics>().swap(call.result.per_session);

  // The one-off large hold call: peak RSS and bytes per live session at
  // about a million sessions in flight.
  Call scale;
  double scale_bytes = 0.0;
  if (w.name == "hold") {
    const Workload big = make_workload("hold", sizes.scale);
    const double rss_before = rss_bytes();
    scale = farm_call(big, "scale", "scale", ProtocolKind::kSSRT, engine,
                      EventQueueBackend::kHeap, false, &tracer);
    scale_bytes = (peak_rss_bytes() - rss_before) /
                  static_cast<double>(scale.result.peak_sessions_in_flight);
    calls.push_back(scale);
  }
  metrics.add("scale_1m.sessions", static_cast<double>(scale.result.sessions),
              "count");
  metrics.add("scale_1m.peak_sessions_in_flight",
              static_cast<double>(scale.result.peak_sessions_in_flight),
              "count");
  metrics.add("scale_1m.events",
              static_cast<double>(scale.result.events_executed), "count");
  metrics.add("scale_1m.seconds", scale.wall_s, "s");
  metrics.add("scale_1m.peak_rss_mb",
              w.name == "hold" ? peak_rss_bytes() / kMiB : 0.0, "MB");
  metrics.add("scale_1m.bytes_per_session", scale_bytes, "B");
}

void traced_run(const Args& args, const Sizes& sizes, const Workload& w,
                exp::ParallelSweep& engine,
                std::vector<Call>& calls, MetricList& metrics) {
  Tracer tracer;
  {
    Tracer::Span root(&tracer, "farmbench", "traced run " + w.name);
    measure_layers(args, sizes, w, engine, calls, metrics, tracer);
  }
  if (!args.spans.empty()) tracer.write(args.spans);
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  try {
    const Args args = parse_args(argc, argv);
    const Sizes sizes = sizes_for(args.size);
    const std::size_t n = main_sessions(sizes, args.workload);
    const Workload w = make_workload(args.workload, n);
    const Workload warm = make_workload(args.workload, n / kWarmupDivisor);
    std::vector<Call> calls;
    MetricList metrics;
    if (args.pin_threads > 0) {
      calls = pin_calls(args, sizes, w, warm);
      print_json(std::cout, calls, metrics);
      return 0;
    }

    if (args.trace) {
      // One untimed set-up before the traced run.
      exp::ParallelSweep engine(args.threads);
      calls.push_back(farm_call(warm, "warmup", "setup", w.protocols.front(),
                                engine, EventQueueBackend::kHeap, false,
                                nullptr));
      traced_run(args, sizes, w, engine, calls, metrics);
    } else {
      timed_run(args, w, warm, process_start, calls, metrics);
    }
    print_json(std::cout, calls, metrics);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "farmbench: " << e.what() << '\n';
    return 2;
  }
}
