// Performance benchmarks of the discrete-event simulator and the parallel
// experiment engine: raw event-queue throughput, per-protocol simulation
// throughput, and the wall-clock scaling of ParallelSweep over a replicated
// simulation grid at 1/2/4/8 threads (with a bit-identity check of the
// parallel results against the serial run).  Self-contained chrono harness;
// no external benchmark dependency, so it builds everywhere the library does.
//
// Usage: perf_sim [--quick] [--csv PATH]
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string_view>
#include <vector>

#include "core/evaluator.hpp"
#include "exp/parallel.hpp"
#include "exp/sweep.hpp"
#include "exp/table.hpp"
#include "protocols/single_hop_run.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace sigcomp;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void bench_event_queue(exp::Table& table, std::size_t events) {
  const auto start = Clock::now();
  sim::Simulator simulator;
  sim::Rng rng(1);
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < events; ++i) {
    simulator.schedule_in(rng.uniform(), [&fired] { ++fired; });
  }
  simulator.run();
  const double elapsed = seconds_since(start);
  table.add_row({"event queue churn", static_cast<double>(events), elapsed,
                 static_cast<double>(fired) / elapsed});
}

void bench_single_hop(exp::Table& table, std::size_t sessions) {
  for (const ProtocolKind kind : kAllProtocols) {
    protocols::SimOptions options;
    options.sessions = sessions;
    const auto start = Clock::now();
    const protocols::SimResult result =
        protocols::run_single_hop(kind, SingleHopParams::kazaa_defaults(), options);
    const double elapsed = seconds_since(start);
    table.add_row({"single-hop sim " + std::string(to_string(kind)),
                   static_cast<double>(result.sessions), elapsed,
                   static_cast<double>(result.sessions) / elapsed});
  }
}

void bench_multi_hop(exp::Table& table, double duration) {
  // Doubling chain lengths expose superlinear blowups in per-hop handling
  // (the old Google-Benchmark harness measured the same growth curve).
  for (const std::size_t hops : {2u, 4u, 8u, 16u}) {
    MultiHopParams params;
    params.hops = hops;
    protocols::TreeSimOptions options;
    options.duration = duration;
    const auto start = Clock::now();
    const protocols::TreeSimResult result =
        evaluate_simulated(ProtocolKind::kSSRT, params, options);
    const double elapsed = seconds_since(start);
    table.add_row({"multi-hop sim SS+RT K=" + std::to_string(hops),
                   static_cast<double>(result.messages), elapsed,
                   static_cast<double>(result.messages) / elapsed});
  }
}

/// The scaling workload: a loss sweep of SS+RT, simulated with replicas.
std::vector<exp::MetricsSummary> run_grid(std::size_t threads,
                                          std::size_t sessions,
                                          std::size_t replications) {
  std::vector<SingleHopParams> grid;
  for (const double loss : exp::lin_space(0.0, 0.30, 16)) {
    SingleHopParams p = SingleHopParams::kazaa_defaults();
    p.loss = loss;
    grid.push_back(p);
  }
  SimGridOptions options;
  options.sim.sessions = sessions;
  options.sim.seed = 42;
  options.replications = replications;
  options.threads = threads;
  return evaluate_grid_simulated(ProtocolKind::kSSRT, grid, options);
}

bool identical(const std::vector<exp::MetricsSummary>& a,
               const std::vector<exp::MetricsSummary>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bit-exact comparison: the engine's contract is that thread count
    // cannot change any output bit.
    if (a[i].mean.inconsistency != b[i].mean.inconsistency ||
        a[i].mean.message_rate != b[i].mean.message_rate ||
        a[i].mean.raw_message_rate != b[i].mean.raw_message_rate ||
        a[i].inconsistency.half_width != b[i].inconsistency.half_width) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") quick = true;
  }
  const std::size_t sessions = quick ? 60 : 300;
  const std::size_t replications = quick ? 4 : 8;

  exp::Table micro("simulator microbenchmarks",
                   {"benchmark", "items", "seconds", "items/s"});
  bench_event_queue(micro, quick ? 100000 : 1000000);
  bench_single_hop(micro, quick ? 40 : 200);
  bench_multi_hop(micro, quick ? 500.0 : 2000.0);
  micro.print(std::cout);
  std::cout << '\n';

  exp::Table scaling(
      "ParallelSweep scaling: 16-point loss sweep x " +
          std::to_string(replications) + " replicas of SS+RT (" +
          std::to_string(sessions) + " sessions each)",
      {"threads", "seconds", "speedup", "parallel == serial"});

  const auto serial_start = Clock::now();
  const auto serial = run_grid(1, sessions, replications);
  const double serial_time = seconds_since(serial_start);
  scaling.add_row({1.0, serial_time, 1.0, "yes (baseline)"});

  bool all_identical = true;
  for (const std::size_t threads : {2, 4, 8}) {
    const auto start = Clock::now();
    const auto parallel = run_grid(threads, sessions, replications);
    const double elapsed = seconds_since(start);
    const bool same = identical(serial, parallel);
    all_identical = all_identical && same;
    scaling.add_row({static_cast<double>(threads), elapsed,
                     serial_time / elapsed, same ? "yes" : "NO -- BUG"});
  }
  scaling.print(std::cout);
  std::cout << "\nhardware threads: " << exp::ThreadPool::default_thread_count()
            << " (speedup saturates there)\n";

  const std::string csv = exp::csv_path_from_args(argc, argv);
  if (!csv.empty()) {
    micro.write_csv_file(csv);
    scaling.write_csv_file(csv + ".scaling.csv");
  }
  return all_identical ? 0 : 1;
}
