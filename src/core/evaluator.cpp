#include "core/evaluator.hpp"

#include <stdexcept>

#include "analytic/multi_hop.hpp"
#include "analytic/single_hop.hpp"
#include "analytic/tree_paths.hpp"

namespace sigcomp {

Metrics evaluate_analytic(ProtocolKind kind, const SingleHopParams& params) {
  return analytic::evaluate_single_hop(kind, params);
}

Metrics evaluate_analytic(ProtocolKind kind, const MultiHopParams& params) {
  return analytic::evaluate_multi_hop(kind, params);
}

protocols::SimResult evaluate_simulated(ProtocolKind kind,
                                        const SingleHopParams& params,
                                        const protocols::SimOptions& options) {
  return protocols::run_single_hop(kind, params, options);
}

protocols::TreeSimResult evaluate_simulated(
    ProtocolKind kind, const MultiHopParams& params,
    const protocols::TreeSimOptions& options) {
  return protocols::run_tree(kind, analytic::TreeParams::chain(params),
                             options);
}

std::vector<ProtocolMetrics> compare_all(const SingleHopParams& params) {
  std::vector<ProtocolMetrics> out;
  out.reserve(kAllProtocols.size());
  for (const ProtocolKind kind : kAllProtocols) {
    out.push_back({kind, evaluate_analytic(kind, params)});
  }
  return out;
}

std::vector<ProtocolMetrics> compare_all(const MultiHopParams& params) {
  std::vector<ProtocolMetrics> out;
  out.reserve(kMultiHopProtocols.size());
  for (const ProtocolKind kind : kMultiHopProtocols) {
    out.push_back({kind, evaluate_analytic(kind, params)});
  }
  return out;
}

namespace {

/// Runs `body(sweep)` on the caller-shared engine when one is set,
/// otherwise on a pool constructed for this call.
template <typename Body>
auto with_engine(exp::ParallelSweep* engine, std::size_t threads, Body&& body) {
  if (engine != nullptr) return body(*engine);
  exp::ParallelSweep own(threads);
  return body(own);
}

template <typename Params>
std::vector<Metrics> grid_analytic(ProtocolKind kind,
                                   const std::vector<Params>& grid,
                                   const GridOptions& options) {
  return with_engine(options.engine, options.threads,
                     [&](exp::ParallelSweep& sweep) {
                       return sweep.map(grid, [kind](const Params& params) {
                         return evaluate_analytic(kind, params);
                       });
                     });
}

}  // namespace

std::vector<Metrics> evaluate_grid_analytic(ProtocolKind kind,
                                            const std::vector<SingleHopParams>& grid,
                                            const GridOptions& options) {
  return grid_analytic(kind, grid, options);
}

std::vector<Metrics> evaluate_grid_analytic(ProtocolKind kind,
                                            const std::vector<MultiHopParams>& grid,
                                            const GridOptions& options) {
  return grid_analytic(kind, grid, options);
}

std::vector<exp::MetricsSummary> evaluate_grid_simulated(
    ProtocolKind kind, const std::vector<SingleHopParams>& grid,
    const SimGridOptions& options) {
  if (options.sim.trace != nullptr) {
    throw std::invalid_argument(
        "evaluate_grid_simulated: tracing is incompatible with concurrent "
        "replicas; run single replicas via evaluate_simulated instead");
  }
  const exp::ReplicatedRun replicated(options.replications, options.sim.seed);
  return with_engine(
      options.engine, options.threads, [&](exp::ParallelSweep& sweep) {
        return replicated.over_grid(
            sweep, grid.size(), [&](std::size_t point, std::uint64_t seed) {
              protocols::SimOptions sim = options.sim;
              sim.seed = seed;
              return protocols::run_single_hop(kind, grid[point], sim).metrics;
            });
      });
}

std::vector<exp::MetricsSummary> evaluate_grid_simulated(
    ProtocolKind kind, const std::vector<MultiHopParams>& grid,
    const MultiHopGridOptions& options) {
  const exp::ReplicatedRun replicated(options.replications, options.sim.seed);
  return with_engine(
      options.engine, options.threads, [&](exp::ParallelSweep& sweep) {
        return replicated.over_grid(
            sweep, grid.size(), [&](std::size_t point, std::uint64_t seed) {
              protocols::TreeSimOptions sim = options.sim;
              sim.seed = seed;
              return protocols::run_tree(
                         kind, analytic::TreeParams::chain(grid[point]), sim)
                  .metrics;
            });
      });
}

}  // namespace sigcomp
