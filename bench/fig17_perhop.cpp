// Figure 17: fraction of time the i-th hop is inconsistent, 1 <= i <= 20,
// for SS, SS+RT and HS (multi-hop defaults: K=20, pl=0.02/hop, D=30ms/hop,
// 1/lu=60s, R=5s, T=15s, G=120ms).  Analytic model plus a simulation
// cross-check column per protocol.
//
// Usage: fig17_perhop [--csv PATH] [--no-sim]
#include <iostream>
#include <string_view>

#include "analytic/multi_hop.hpp"
#include "core/evaluator.hpp"
#include "exp/table.hpp"

int main(int argc, char** argv) {
  using namespace sigcomp;

  bool with_sim = true;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--no-sim") with_sim = false;
  }

  const MultiHopParams params = MultiHopParams::reservation_defaults();

  const analytic::PathParams path =
      analytic::PathParams::from_homogeneous(params);
  std::vector<analytic::MultiHopModel> models;
  for (const ProtocolKind kind : kPaperMultiHopProtocols) {
    models.emplace_back(kind, path);
  }
  std::vector<protocols::TreeSimResult> sims;
  if (with_sim) {
    protocols::TreeSimOptions options;
    options.duration = 30000.0;
    options.seed = 11;
    for (const ProtocolKind kind : kPaperMultiHopProtocols) {
      sims.push_back(evaluate_simulated(kind, params, options));
    }
  }

  std::vector<std::string> headers{"hop", "SS", "SS+RT", "HS"};
  if (with_sim) {
    headers.insert(headers.end(), {"SS(sim)", "SS+RT(sim)", "HS(sim)"});
  }
  exp::Table table("Fig. 17: per-hop inconsistency, K = 20", std::move(headers));

  for (std::size_t hop = 1; hop <= params.hops; ++hop) {
    std::vector<exp::Cell> row{static_cast<double>(hop)};
    for (const auto& model : models) {
      row.emplace_back(model.hop_inconsistency(hop));
    }
    if (with_sim) {
      for (const auto& sim : sims) {
        row.emplace_back(sim.node_inconsistency[hop - 1]);
      }
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  const std::string csv = exp::csv_path_from_args(argc, argv);
  if (!csv.empty()) table.write_csv_file(csv);
  return 0;
}
