// Beyond-the-paper figure: signaling state on trees (multicast-style
// fan-out).  RSVP reservations and IGMP-style membership deploy their state
// on rooted trees, not chains; this bench sweeps fan-out x depth x
// burstiness for the three tree-capable protocols (SS, SS+RT, HS) and
// compares the simulated tree against the per-path chain-CTMC composition
// (analytic/tree_paths.hpp).  All five protocols run on trees since the
// StateSlot refactor, but SS+ER and SS+RTR differ from SS/SS+RT only by
// explicit removal, which never fires in this infinite-lifetime static
// workload, so their rows would duplicate SS/SS+RT bit-for-bit and are
// omitted (bench/fig_leaf_churn is where the five genuinely diverge).
//
// All runs fan out over the parallel engine keyed by (scenario, protocol,
// replica), so the sweep is bit-identical at any thread count.  With
// --quick the binary re-runs the grid at 1, 2 and 8 threads and exits 1 on
// any bit difference (CI-enforced).
//
// Usage: fig_tree_fanout [--quick] [--csv PATH] [--threads N]
#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "analytic/tree_paths.hpp"
#include "core/params.hpp"
#include "core/protocol.hpp"
#include "exp/parallel.hpp"
#include "exp/table.hpp"
#include "protocols/tree_run.hpp"
#include "sim/stats.hpp"

namespace {

using namespace sigcomp;

constexpr double kMeanLoss = 0.05;
constexpr std::uint64_t kBaseSeed = 7;

struct Scenario {
  std::size_t fanout = 1;
  std::size_t depth = 1;
  double burst = 0.0;  ///< 0 = iid; otherwise GE mean burst length
  analytic::TreeParams params;

  [[nodiscard]] std::string shape() const {
    return "f" + std::to_string(fanout) + " d" + std::to_string(depth);
  }
  [[nodiscard]] std::string loss_label() const {
    return burst <= 0.0 ? "iid"
                        : "ge burst " + std::to_string(static_cast<int>(burst));
  }
};

MultiHopParams base_params(double burst) {
  MultiHopParams base;
  base.loss = kMeanLoss;
  if (burst > 0.0) base = base.with_bursty_loss(burst);
  return base;
}

std::vector<Scenario> build_scenarios(bool quick) {
  const std::vector<std::pair<std::size_t, std::size_t>> shapes =
      quick ? std::vector<std::pair<std::size_t, std::size_t>>{
                  {1, 3}, {2, 2}, {4, 2}}
            : std::vector<std::pair<std::size_t, std::size_t>>{
                  {1, 3}, {2, 1}, {2, 2}, {2, 3}, {4, 2}, {8, 1}};
  const std::vector<double> bursts =
      quick ? std::vector<double>{0.0, 8.0}
            : std::vector<double>{0.0, 4.0, 16.0};
  std::vector<Scenario> out;
  for (const auto& [fanout, depth] : shapes) {
    for (const double burst : bursts) {
      Scenario s;
      s.fanout = fanout;
      s.depth = depth;
      s.burst = burst;
      s.params = analytic::TreeParams::balanced(base_params(burst), fanout,
                                                depth);
      out.push_back(std::move(s));
    }
  }
  return out;
}

/// Reduced view of one (scenario, protocol) cell across replicas.
struct Cell {
  sim::ConfidenceInterval inconsistency;
  double worst_leaf = 0.0;
  double rate = 0.0;
};

/// Every replica result of the whole grid, in (scenario, protocol, replica)
/// order -- the unit the thread-identity check compares bit-for-bit.
std::vector<protocols::TreeSimResult> run_grid(
    const std::vector<Scenario>& scenarios, std::size_t replications,
    double duration, exp::ParallelSweep& engine) {
  const std::size_t protocols_n = kPaperMultiHopProtocols.size();
  const std::size_t jobs = scenarios.size() * protocols_n * replications;
  return engine.map_indexed(jobs, [&](std::size_t job) {
    const std::size_t replica = job % replications;
    const std::size_t cell = job / replications;
    const std::size_t protocol = cell % protocols_n;
    const std::size_t scenario = cell / protocols_n;
    protocols::TreeSimOptions options;
    options.seed = exp::replica_seed(kBaseSeed, cell, replica);
    options.duration = duration;
    return protocols::run_tree(kPaperMultiHopProtocols[protocol],
                               scenarios[scenario].params, options);
  });
}

Cell reduce_cell(const std::vector<protocols::TreeSimResult>& grid,
                 std::size_t cell, std::size_t replications) {
  sim::RunningStats inconsistency;
  sim::RunningStats worst_leaf;
  sim::RunningStats rate;
  for (std::size_t r = 0; r < replications; ++r) {
    const protocols::TreeSimResult& run = grid[cell * replications + r];
    inconsistency.add(run.metrics.inconsistency);
    worst_leaf.add(*std::max_element(run.leaf_path_inconsistency.begin(),
                                     run.leaf_path_inconsistency.end()));
    rate.add(run.metrics.raw_message_rate);
  }
  Cell out;
  out.inconsistency = sim::confidence_interval_95(inconsistency);
  out.worst_leaf = worst_leaf.mean();
  out.rate = rate.mean();
  return out;
}

bool identical(const std::vector<protocols::TreeSimResult>& a,
               const std::vector<protocols::TreeSimResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].metrics.inconsistency != b[i].metrics.inconsistency ||
        a[i].messages != b[i].messages ||
        a[i].relay_timeouts != b[i].relay_timeouts ||
        a[i].leaf_path_inconsistency != b[i].leaf_path_inconsistency) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) try {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::size_t replications = quick ? 2 : 5;
  const double duration = quick ? 1500.0 : 20000.0;
  const std::vector<Scenario> scenarios = build_scenarios(quick);
  const std::size_t protocols_n = kPaperMultiHopProtocols.size();

  exp::ParallelSweep engine(exp::threads_from_args(argc, argv));
  const std::vector<protocols::TreeSimResult> grid =
      run_grid(scenarios, replications, duration, engine);

  exp::Table table(
      "Tree fan-out figure: per-edge mean loss " + std::to_string(kMeanLoss) +
          " (model = worst root-to-leaf path through the chain CTMC)",
      {"shape", "receivers", "loss proc", "protocol", "I model(worst path)",
       "I (sim)", "I ci95", "worst leaf I", "rate (msg/s)", "msg/s/receiver"});
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const Scenario& scenario = scenarios[s];
    const double receivers =
        static_cast<double>(scenario.params.tree.leaf_count());
    for (std::size_t p = 0; p < protocols_n; ++p) {
      const ProtocolKind kind = kPaperMultiHopProtocols[p];
      const Cell cell =
          reduce_cell(grid, s * protocols_n + p, replications);
      const analytic::TreePathMetrics worst =
          analytic::worst_tree_path(kind, scenario.params);
      table.add_row({scenario.shape(), receivers, scenario.loss_label(),
                     std::string(to_string(kind)), worst.metrics.inconsistency,
                     cell.inconsistency.mean, cell.inconsistency.half_width,
                     cell.worst_leaf, cell.rate, cell.rate / receivers});
    }
  }
  table.print(std::cout);

  std::cout
      << "\nReading: at fixed per-edge loss, fan-out multiplies receivers "
         "without deepening paths, so per-receiver consistency holds while "
         "total message cost scales with the edge count; depth is what "
         "degrades the worst path.  Burstiness at equal mean loss hurts "
         "pure soft state the most, exactly as on chains -- and the "
         "per-path chain model keeps tracking each leaf.\n";

  bool ok = true;
  if (quick) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      exp::ParallelSweep check(threads);
      if (!identical(grid, run_grid(scenarios, replications, duration, check))) {
        std::cerr << "FAIL: results at " << threads
                  << " threads differ from the --threads run\n";
        ok = false;
      }
    }
    std::cout << (ok ? "bit-identity across 1/2/8 threads: OK\n"
                     : "bit-identity across 1/2/8 threads: FAILED\n");
  }

  const std::string csv = exp::csv_path_from_args(argc, argv);
  if (!csv.empty()) table.write_csv_file(csv);
  return ok ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 2;
}
