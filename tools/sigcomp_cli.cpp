// sigcomp -- command-line front end to the signaling-protocol library.
//
//   sigcomp_cli evaluate  [--protocol SS+ER] [--loss 0.05] [--sim] ...
//   sigcomp_cli multihop  [--hops 20] [--per-hop] ...
//   sigcomp_cli tree      [--fanout 2] [--depth 3] [--receivers 6] ...
//   sigcomp_cli sweep     --param refresh --from 0.1 --to 100 [--points 15]
//   sigcomp_cli latency   [--loss 0.1]
//   sigcomp_cli tune      [--weight 10]
//   sigcomp_cli scale     [--sessions 100000] [--arrival-rate 2000] ...
//
// Every command prints an aligned table; `--csv PATH` writes the same rows
// as CSV.  The full flag reference with worked examples is docs/CLI.md.
#include <algorithm>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "analytic/latency.hpp"
#include "analytic/multi_hop.hpp"
#include "analytic/tree_paths.hpp"
#include "core/evaluator.hpp"
#include "exp/cli.hpp"
#include "exp/parallel.hpp"
#include "exp/sensitivity.hpp"
#include "exp/session_farm.hpp"
#include "exp/sweep.hpp"
#include "exp/table.hpp"
#include "exp/tuning.hpp"
#include "protocols/tree_run.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace {

using namespace sigcomp;

void add_loss_model_options(exp::ArgParser& parser) {
  parser.add_option("loss-model",
                    "channel loss process: iid (Bernoulli, the paper) or ge "
                    "(Gilbert-Elliott bursty loss)", "iid");
  parser.add_option("p-gb", "GE: good->bad transition probability per message",
                    "0");
  parser.add_option("p-bg", "GE: bad->good transition probability per message",
                    "1");
  parser.add_option("loss-bad", "GE: drop probability in the bad state", "1");
  parser.add_option("loss-good", "GE: drop probability in the good state", "0");
  parser.add_option("burst",
                    "GE shortcut: mean burst length in messages; derives "
                    "p-gb/p-bg so the stationary mean equals --loss", "0");
}

/// Applies the --loss-model family of flags to a parameter set (single- or
/// multi-hop: both carry the same loss_model/ge_* fields).  Under GE the
/// chain comes either from --burst (derived so the stationary mean equals
/// --loss) or from explicit --p-gb/--p-bg, in which case the mean-loss
/// field `p.loss` is re-derived from the chain's stationary distribution
/// so the analytic columns stay comparable at equal average loss.
/// `analytic_only` commands still accept the flags (the explicit-chain form
/// moves their mean), but the user is told burstiness itself cannot show up
/// in purely analytic numbers.
template <typename Params>
void apply_loss_model(const exp::ArgParser& parser, Params& p,
                      bool analytic_only) {
  const std::string model = parser.get_choice("loss-model", {"iid", "ge"});
  if (model == "iid") {
    // A chain flag without --loss-model ge would be a silent no-op; the
    // user almost certainly forgot the selector.
    for (const char* flag : {"burst", "p-gb", "p-bg", "loss-bad", "loss-good"}) {
      if (parser.passed(flag)) {
        throw std::invalid_argument("--" + std::string(flag) +
                                    " requires --loss-model ge");
      }
    }
    return;
  }
  if (analytic_only) {
    std::cerr << "note: the analytic model sees only the average loss rate; "
                 "--loss-model ge changes simulated columns (--sim) only\n";
  }
  if (parser.passed("burst")) {
    // --burst derives the whole chain; a simultaneously passed raw-chain
    // flag would be silently overridden, so reject the combination.
    for (const char* flag : {"p-gb", "p-bg", "loss-good"}) {
      if (parser.passed(flag)) {
        throw std::invalid_argument(
            "--burst derives the GE chain from --loss; it cannot be "
            "combined with --" + std::string(flag));
      }
    }
    p = p.with_bursty_loss(parser.get_double("burst"),
                           parser.get_double("loss-bad"));
    return;
  }
  if (!parser.passed("p-gb")) {
    throw std::invalid_argument(
        "--loss-model ge needs either --burst (mean matched to --loss) or "
        "an explicit chain via --p-gb/--p-bg");
  }
  p.loss_model = sim::LossModel::kGilbertElliott;
  p.ge_p_gb = parser.get_double("p-gb");
  p.ge_p_bg = parser.get_double("p-bg");
  p.ge_loss_bad = parser.get_double("loss-bad");
  p.ge_loss_good = parser.get_double("loss-good");
  p.loss = p.loss_config().mean_loss();
}

void add_single_hop_options(exp::ArgParser& parser) {
  parser.add_option("loss", "channel loss probability pl", "0.02");
  parser.add_option("delay", "one-way channel delay D in seconds", "0.03");
  parser.add_option("update-interval", "mean seconds between updates (1/lu)", "20");
  parser.add_option("lifetime", "mean session lifetime in seconds (1/lr)", "1800");
  parser.add_option("refresh", "refresh timer R in seconds", "5");
  parser.add_option("timeout", "state-timeout timer T in seconds", "15");
  parser.add_option("retrans", "retransmission timer Gamma in seconds", "0.12");
  parser.add_option("false-signal", "HS external false-signal rate (1/s)", "1e-4");
  add_loss_model_options(parser);
}

SingleHopParams single_hop_params(const exp::ArgParser& parser,
                                  bool analytic_only = true) {
  SingleHopParams p;
  p.loss = parser.get_double("loss");
  p.delay = parser.get_double("delay");
  const double update_interval = parser.get_double("update-interval");
  p.update_rate = update_interval <= 0.0 ? 0.0 : 1.0 / update_interval;
  p.removal_rate = 1.0 / parser.get_double("lifetime");
  p.refresh_timer = parser.get_double("refresh");
  p.timeout_timer = parser.get_double("timeout");
  p.retrans_timer = parser.get_double("retrans");
  p.false_signal_rate = parser.get_double("false-signal");
  apply_loss_model(parser, p, analytic_only);
  p.validate();
  return p;
}

/// Reads a count-valued option; rejects negatives before the size_t cast
/// (a raw cast would turn "-1" into a 2^64 allocation request).
std::size_t count_option(const exp::ArgParser& parser, std::string_view name) {
  const long value = parser.get_long(name);
  if (value < 0) {
    throw std::invalid_argument("--" + std::string(name) +
                                " must be >= 0, got " + std::to_string(value));
  }
  return static_cast<std::size_t>(value);
}

/// Chain parameters shared by `multihop`, `scale --hops N` and (as the
/// per-edge base of a TreeParams) `tree`.  `with_false_signal` and
/// `with_hops` reflect whether the command registers the --false-signal /
/// --hops options (multihop keeps the paper's pl^4 default; tree has no
/// --hops -- the topology flags define the shape).
MultiHopParams multi_hop_params(const exp::ArgParser& parser,
                                bool with_false_signal, bool analytic_only,
                                bool with_hops = true) {
  MultiHopParams p;
  p.hops = with_hops ? count_option(parser, "hops") : 1;
  p.loss = parser.get_double("loss");
  p.delay = parser.get_double("delay");
  const double update_interval = parser.get_double("update-interval");
  p.update_rate = update_interval <= 0.0 ? 0.0 : 1.0 / update_interval;
  p.refresh_timer = parser.get_double("refresh");
  p.timeout_timer = parser.get_double("timeout");
  p.retrans_timer = parser.get_double("retrans");
  if (with_false_signal) {
    p.false_signal_rate = parser.get_double("false-signal");
  }
  apply_loss_model(parser, p, analytic_only);
  p.validate();
  return p;
}

sim::DelayModel delay_model_option(const exp::ArgParser& parser) {
  const std::string model =
      parser.get_choice("delay-model", {"det", "exp", "pareto", "lognormal"});
  if (model == "det") return sim::DelayModel::kDeterministic;
  if (model == "pareto") return sim::DelayModel::kPareto;
  if (model == "lognormal") return sim::DelayModel::kLognormal;
  return sim::DelayModel::kExponential;
}

/// Registers --event-queue (the Simulator timer-core selector) with the
/// build's default backend.  Shared flag family: see docs/CLI.md.
void add_event_queue_option(exp::ArgParser& parser) {
  parser.add_option("event-queue",
                    "simulator event-queue backend: heap (pooled 4-ary heap) "
                    "or wheel (hashed timing wheel); pop order and results "
                    "are bit-identical, wheel is faster under timer churn",
                    sim::to_string(sim::kDefaultEventQueueBackend));
}

/// Parses --event-queue into a backend.  `simulating` is false when the
/// command's output is purely analytic (or the sim column is off): the
/// flag is still validated -- a typo never passes silently -- but the user
/// is told where it takes effect, mirroring the delay-model convention.
sim::EventQueueBackend event_queue_option(const exp::ArgParser& parser,
                                          bool simulating,
                                          const char* hint) {
  const std::string name = parser.get_choice("event-queue", {"heap", "wheel"});
  if (!simulating && parser.passed("event-queue")) {
    std::cerr << "note: --event-queue selects the simulator's timer core; "
              << hint << '\n';
  }
  return *sim::parse_event_queue_backend(name);
}

void finish(const exp::Table& table, const exp::ArgParser& parser) {
  table.print(std::cout);
  const std::string csv = parser.get("csv");
  if (!csv.empty()) table.write_csv_file(csv);
}

int cmd_evaluate(int argc, const char* const* argv) {
  exp::ArgParser parser("sigcomp_cli evaluate",
                        "Evaluate the five protocols at one parameter point "
                        "(analytic model; --sim adds a simulation column).");
  add_single_hop_options(parser);
  parser.add_option("weight", "inconsistency weight w for the cost C", "10");
  parser.add_option("sessions", "simulated sessions when --sim is given", "500");
  parser.add_option("seed", "simulation seed", "1");
  parser.add_option("replications", "simulation replicas per protocol", "5");
  parser.add_option("threads", "worker threads (0 = all cores)", "0");
  parser.add_option("delay-model",
                    "sim channel delay law: det, exp, pareto or lognormal",
                    "exp");
  parser.add_option("delay-shape",
                    "Pareto tail index / lognormal sigma of --delay-model",
                    "1.5");
  add_event_queue_option(parser);
  parser.add_option("csv", "write rows to this CSV file", "");
  parser.add_flag("sim", "also run the discrete-event simulator");
  if (!parser.parse(argc, argv)) {
    std::cerr << parser.error() << '\n';
    return 2;
  }
  if (parser.help_requested()) {
    std::cout << parser.help();
    return 0;
  }
  const bool with_sim = parser.flag("sim");
  const SingleHopParams p = single_hop_params(parser, !with_sim);
  const double weight = parser.get_double("weight");
  // Validate the delay flags even when the sim column is off, so a typo
  // never passes silently -- but tell the user they have no effect there.
  const sim::DelayModel delay_model = delay_model_option(parser);
  const sim::EventQueueBackend event_queue = event_queue_option(
      parser, with_sim, "pass --sim to see the simulated columns");
  const sim::DelayConfig delay_config{delay_model, p.delay,
                                      parser.get_double("delay-shape")};
  delay_config.validate();
  if (!with_sim &&
      (parser.passed("delay-model") || parser.passed("delay-shape"))) {
    std::cerr << "note: --delay-model/--delay-shape affect only the "
                 "simulated columns; pass --sim to see them\n";
  }

  std::vector<std::string> headers{"protocol", "I", "M", "cost C"};
  if (with_sim) {
    headers.insert(headers.end(),
                   {"I (sim)", "I ci95", "M (sim)", "M ci95"});
  }
  std::unique_ptr<exp::ParallelSweep> engine;
  if (with_sim) {
    engine = std::make_unique<exp::ParallelSweep>(count_option(parser, "threads"));
  }

  exp::Table table("single-hop evaluation", std::move(headers));
  for (const auto& [kind, metrics] : compare_all(p)) {
    std::vector<exp::Cell> row{std::string(to_string(kind)),
                               metrics.inconsistency, metrics.message_rate,
                               integrated_cost(metrics, weight)};
    if (with_sim) {
      SimGridOptions options;
      options.sim.sessions = count_option(parser, "sessions");
      options.sim.seed = static_cast<std::uint64_t>(parser.get_long("seed"));
      options.sim.delay_model = delay_config.model;
      options.sim.delay_shape = delay_config.shape;
      options.sim.event_queue = event_queue;
      options.replications = count_option(parser, "replications");
      options.engine = engine.get();
      const exp::MetricsSummary sim =
          evaluate_grid_simulated(kind, {p}, options).front();
      row.emplace_back(sim.inconsistency.mean);
      row.emplace_back(sim.inconsistency.half_width);
      row.emplace_back(sim.message_rate.mean);
      row.emplace_back(sim.message_rate.half_width);
    }
    table.add_row(std::move(row));
  }
  finish(table, parser);
  return 0;
}

int cmd_multihop(int argc, const char* const* argv) {
  exp::ArgParser parser(
      "sigcomp_cli multihop",
      "Evaluate the five protocols on a K-hop chain.  (--per-hop prints "
      "SS, SS+RT and HS only: the chain CTMC has no removal transitions, "
      "so SS+ER and SS+RTR duplicate their base columns.)");
  parser.add_option("hops", "number of hops K", "20");
  parser.add_option("loss", "per-hop loss probability", "0.02");
  parser.add_option("delay", "per-hop delay in seconds", "0.03");
  parser.add_option("update-interval", "mean seconds between updates", "60");
  parser.add_option("refresh", "refresh timer R in seconds", "5");
  parser.add_option("timeout", "state-timeout timer T in seconds", "15");
  parser.add_option("retrans", "retransmission timer Gamma in seconds", "0.12");
  add_loss_model_options(parser);
  add_event_queue_option(parser);
  parser.add_option("csv", "write rows to this CSV file", "");
  parser.add_flag("per-hop", "print the per-hop inconsistency table instead");
  if (!parser.parse(argc, argv)) {
    std::cerr << parser.error() << '\n';
    return 2;
  }
  if (parser.help_requested()) {
    std::cout << parser.help();
    return 0;
  }
  const MultiHopParams p =
      multi_hop_params(parser, /*with_false_signal=*/false,
                       /*analytic_only=*/true);
  (void)event_queue_option(parser, /*simulating=*/false,
                           "this command is purely analytic");

  if (parser.flag("per-hop")) {
    exp::Table table("per-hop inconsistency", {"hop", "SS", "SS+RT", "HS"});
    const analytic::PathParams path = analytic::PathParams::from_homogeneous(p);
    const analytic::MultiHopModel ss(ProtocolKind::kSS, path);
    const analytic::MultiHopModel ssrt(ProtocolKind::kSSRT, path);
    const analytic::MultiHopModel hs(ProtocolKind::kHS, path);
    for (std::size_t hop = 1; hop <= p.hops; ++hop) {
      table.add_row({static_cast<double>(hop), ss.hop_inconsistency(hop),
                     ssrt.hop_inconsistency(hop), hs.hop_inconsistency(hop)});
    }
    finish(table, parser);
    return 0;
  }

  exp::Table table("multi-hop evaluation",
                   {"protocol", "I", "rate (msg/s)"});
  for (const auto& [kind, metrics] : compare_all(p)) {
    table.add_row({std::string(to_string(kind)), metrics.inconsistency,
                   metrics.raw_message_rate});
  }
  finish(table, parser);
  return 0;
}

/// Topology shape flags shared by `tree` and `scale`.
void add_tree_shape_options(exp::ArgParser& parser) {
  parser.add_option("fanout", "children per interior tree node", "2");
  parser.add_option("depth", "edges from the root to every receiver", "2");
  parser.add_option("receivers",
                    "prune the balanced tree to exactly this many receivers "
                    "(0 = keep all fanout^depth)",
                    "0");
  parser.add_option("topology",
                    "replay a measured topology from a parent-vector file "
                    "(one integer per edge; '#' comments) instead of the "
                    "balanced --fanout/--depth shape",
                    "");
}

/// Resolves the tree shape: an explicit parent-vector file (validated, with
/// shape stats printed) or the balanced --fanout/--depth/--receivers shape.
TreeSpec tree_shape(const exp::ArgParser& parser) {
  if (parser.passed("topology")) {
    for (const char* flag : {"fanout", "depth", "receivers"}) {
      if (parser.passed(flag)) {
        throw std::invalid_argument(
            "--topology replays an explicit shape; it cannot be combined "
            "with --" + std::string(flag));
      }
    }
    const TreeSpec spec = exp::load_tree_file(parser.get("topology"));
    std::cout << "topology " << parser.get("topology") << ": "
              << exp::tree_shape_summary(spec) << '\n';
    return spec;
  }
  const std::size_t fanout = count_option(parser, "fanout");
  const std::size_t depth = count_option(parser, "depth");
  const std::size_t receivers = count_option(parser, "receivers");
  return TreeSpec::balanced(fanout, depth, receivers);
}

analytic::TreeParams tree_params(const exp::ArgParser& parser,
                                 const MultiHopParams& base) {
  return analytic::TreeParams::uniform(base, tree_shape(parser));
}

/// Registers the correlated-event scenario flag family shared by `tree`
/// and `scale` (interior-relay crashes, flash-crowd join storms, diurnal
/// rejoin rates, shared-risk subtree leave bursts).
void add_scenario_options(exp::ArgParser& parser) {
  parser.add_option("crash-rate",
                    "interior-relay crash rate (crashes/s; 0 = no crashes)",
                    "0");
  parser.add_option("crash-recovery", "mean relay downtime in seconds", "10");
  parser.add_option("detector-delay",
                    "mean HS external-failure-detector latency in seconds "
                    "(soft state repairs via refresh instead)",
                    "5");
  parser.add_option("flash-crowd",
                    "extra rejoin rate during the flash-crowd storm "
                    "(rejoins/s; 0 = no storm)",
                    "0");
  parser.add_option("flash-at", "storm trigger instant in simulated seconds",
                    "0");
  parser.add_option("flash-duration", "storm length in seconds", "60");
  parser.add_option("diurnal-period",
                    "diurnal rejoin-rate period in seconds (0 = no "
                    "modulation)",
                    "0");
  parser.add_option("diurnal-amplitude",
                    "diurnal relative amplitude in [0, 1]", "0.8");
  parser.add_option("shared-risk",
                    "shared-risk subtree leave-burst rate (bursts/s; 0 = "
                    "none)",
                    "0");
}

/// Parses and cross-validates the scenario flag family registered by
/// add_scenario_options.  `churn` is the already-parsed churn model: the
/// flash/diurnal modulations ride on its rejoin process, so they need a
/// source of detached leaves (churn or shared-risk bursts) to act on.
protocols::ScenarioOptions scenario_options(
    const exp::ArgParser& parser, const protocols::ChurnOptions& churn) {
  protocols::ScenarioOptions scenario;
  scenario.failure.crash_rate = parser.get_double("crash-rate");
  scenario.failure.recovery_time = parser.get_double("crash-recovery");
  scenario.failure.detector_delay = parser.get_double("detector-delay");
  scenario.shared_risk.burst_rate = parser.get_double("shared-risk");
  const double flash_rate = parser.get_double("flash-crowd");
  const double diurnal_period = parser.get_double("diurnal-period");
  if ((parser.passed("crash-recovery") || parser.passed("detector-delay")) &&
      !scenario.failure.enabled()) {
    throw std::invalid_argument(
        "--crash-recovery/--detector-delay need --crash-rate > 0 (no "
        "crashes, nothing to recover or detect)");
  }
  if ((parser.passed("flash-at") || parser.passed("flash-duration")) &&
      flash_rate <= 0.0) {
    throw std::invalid_argument(
        "--flash-at/--flash-duration need --flash-crowd > 0 (no storm to "
        "place)");
  }
  if (parser.passed("diurnal-amplitude") && diurnal_period <= 0.0) {
    throw std::invalid_argument(
        "--diurnal-amplitude needs --diurnal-period > 0 (no sinusoid to "
        "scale)");
  }
  if (flash_rate > 0.0 && diurnal_period > 0.0) {
    throw std::invalid_argument(
        "--flash-crowd and --diurnal-period are mutually exclusive rejoin "
        "modulations");
  }
  if (flash_rate > 0.0) {
    if (!churn.enabled() && !scenario.shared_risk.enabled()) {
      throw std::invalid_argument(
          "--flash-crowd needs detached leaves to storm back: enable churn "
          "(--leaf-lifetime > 0) or shared-risk bursts (--shared-risk > 0)");
    }
    scenario.arrival = protocols::ArrivalConfig::flash_crowd(
        parser.get_double("flash-at"), flash_rate,
        parser.get_double("flash-duration"));
  } else if (diurnal_period > 0.0) {
    if (churn.rejoin_rate <= 0.0) {
      throw std::invalid_argument(
          "--diurnal-period modulates the rejoin rate; it needs "
          "--churn-rate > 0");
    }
    scenario.arrival = protocols::ArrivalConfig::diurnal(
        diurnal_period, parser.get_double("diurnal-amplitude"));
  }
  scenario.validate();
  return scenario;
}

int cmd_tree(int argc, const char* const* argv) {
  exp::ArgParser parser(
      "sigcomp_cli tree",
      "Evaluate the five protocols on a rooted signaling tree "
      "(multicast-style fan-out: sender at the root, receivers at the "
      "leaves).  The model column composes the chain CTMC along each "
      "root-to-leaf path; the sim columns run the shared tree.  With "
      "--leaf-lifetime the leaves churn IGMP-style (join/leave a live "
      "tree) and the table adds per-join setup latency and per-leave "
      "orphan-window columns.");
  add_tree_shape_options(parser);
  parser.add_option("leaf-lifetime",
                    "mean seconds a leaf stays joined before leaving "
                    "(0 = static tree, no churn)",
                    "0");
  parser.add_option("churn-rate",
                    "rejoin rate of a departed leaf (rejoins/s; 0 = leaves "
                    "never return)",
                    "0");
  add_scenario_options(parser);
  parser.add_option("loss", "per-edge loss probability", "0.02");
  parser.add_option("delay", "per-edge delay in seconds", "0.03");
  parser.add_option("update-interval", "mean seconds between updates", "60");
  parser.add_option("refresh", "refresh timer R in seconds", "5");
  parser.add_option("timeout", "state-timeout timer T in seconds", "15");
  parser.add_option("retrans", "retransmission timer Gamma in seconds", "0.12");
  parser.add_option("false-signal",
                    "HS per-relay external false-signal rate (1/s)", "1.6e-07");
  add_loss_model_options(parser);
  parser.add_option("duration", "simulated seconds per replication", "20000");
  parser.add_option("seed", "simulation seed", "1");
  parser.add_option("replications", "simulation replicas per protocol", "5");
  parser.add_option("threads", "worker threads (0 = all cores)", "0");
  parser.add_option("delay-model",
                    "channel delay law: det, exp, pareto or lognormal", "exp");
  parser.add_option("delay-shape",
                    "Pareto tail index / lognormal sigma of --delay-model",
                    "1.5");
  add_event_queue_option(parser);
  parser.add_option("csv", "write rows to this CSV file", "");
  parser.add_flag("per-leaf", "print the per-leaf path table instead");
  if (!parser.parse(argc, argv)) {
    std::cerr << parser.error() << '\n';
    return 2;
  }
  if (parser.help_requested()) {
    std::cout << parser.help();
    return 0;
  }

  const MultiHopParams base =
      multi_hop_params(parser, /*with_false_signal=*/true,
                       /*analytic_only=*/false, /*with_hops=*/false);
  const analytic::TreeParams tree = tree_params(parser, base);

  protocols::TreeSimOptions options;
  options.seed = static_cast<std::uint64_t>(parser.get_long("seed"));
  options.duration = parser.get_double("duration");
  options.delay_model = delay_model_option(parser);
  options.delay_shape = parser.get_double("delay-shape");
  options.event_queue = event_queue_option(parser, /*simulating=*/true, "");
  options.churn.leaf_lifetime = parser.get_double("leaf-lifetime");
  options.churn.rejoin_rate = parser.get_double("churn-rate");
  options.churn.validate();
  if (parser.passed("churn-rate") && !options.churn.enabled()) {
    throw std::invalid_argument(
        "--churn-rate needs --leaf-lifetime > 0 (nothing churns until a "
        "leaf can leave)");
  }
  options.scenario = scenario_options(parser, options.churn);
  const bool churning = options.churn.enabled();
  const bool crashing = options.scenario.failure.enabled();
  const std::size_t replications = count_option(parser, "replications");
  if (replications == 0) {
    throw std::invalid_argument("tree: need --replications >= 1");
  }
  exp::ParallelSweep engine(count_option(parser, "threads"));

  // Replicas fan out across the pool; reducing in replica order keeps the
  // output bit-identical to a serial run (seeds seed, seed+1, ..., the
  // run_tree_replicated convention).
  const auto replicate = [&](ProtocolKind kind) {
    return engine.map_indexed(replications, [&](std::size_t r) {
      protocols::TreeSimOptions rep = options;
      rep.seed = options.seed + r;
      return protocols::run_tree(kind, tree, rep);
    });
  };

  const std::size_t leaf_count = tree.tree.leaf_count();
  if (parser.flag("per-leaf")) {
    std::vector<std::string> headers{"leaf", "hops"};
    for (const ProtocolKind kind : kMultiHopProtocols) {
      headers.push_back("I model(" + std::string(to_string(kind)) + ")");
      headers.push_back("I sim(" + std::string(to_string(kind)) + ")");
    }
    exp::Table table(
        "per-leaf path inconsistency (model = chain CTMC along the path)",
        std::move(headers));
    // One evaluate_tree_paths per protocol; leaf ids and hop counts are
    // protocol-independent, so the first protocol's paths also label the
    // rows.
    std::vector<std::vector<analytic::TreePathMetrics>> model_columns;
    std::vector<std::vector<double>> sim_columns;
    for (const ProtocolKind kind : kMultiHopProtocols) {
      model_columns.push_back(analytic::evaluate_tree_paths(kind, tree));
      std::vector<double> sim_column(leaf_count, 0.0);
      for (const protocols::TreeSimResult& run : replicate(kind)) {
        for (std::size_t l = 0; l < leaf_count; ++l) {
          sim_column[l] += run.leaf_path_inconsistency[l] /
                           static_cast<double>(replications);
        }
      }
      sim_columns.push_back(std::move(sim_column));
    }
    for (std::size_t l = 0; l < leaf_count; ++l) {
      std::vector<exp::Cell> row{
          static_cast<double>(model_columns.front()[l].leaf),
          static_cast<double>(model_columns.front()[l].hops)};
      for (std::size_t k = 0; k < model_columns.size(); ++k) {
        row.emplace_back(model_columns[k][l].metrics.inconsistency);
        row.emplace_back(sim_columns[k][l]);
      }
      table.add_row(std::move(row));
    }
    finish(table, parser);
    return 0;
  }

  std::vector<std::string> headers{"protocol", "I model(worst path)",
                                   "I (sim)", "I ci95", "worst leaf I",
                                   "rate (msg/s)", "timeouts"};
  if (churning) {
    headers.insert(headers.end(), {"joins", "setup lat (s)", "leaves",
                                   "orphan win (s)", "orphan lb (s)"});
  }
  if (crashing) {
    headers.insert(headers.end(), {"crashes", "recoveries"});
  }
  exp::Table table("tree evaluation: " + exp::tree_shape_summary(tree.tree) +
                       (churning ? ", churning leaves" : "") +
                       (crashing ? ", crashing relays" : ""),
                   std::move(headers));
  for (const ProtocolKind kind : kMultiHopProtocols) {
    const analytic::TreePathMetrics worst = analytic::worst_tree_path(kind, tree);
    const std::vector<protocols::TreeSimResult> runs = replicate(kind);
    sim::RunningStats inconsistency;
    sim::RunningStats worst_leaf;
    sim::RunningStats rate;
    double timeouts = 0.0;
    double crashes = 0.0;
    double recoveries = 0.0;
    protocols::ChurnReport churn;
    for (const protocols::TreeSimResult& run : runs) {
      inconsistency.add(run.metrics.inconsistency);
      worst_leaf.add(*std::max_element(run.leaf_path_inconsistency.begin(),
                                       run.leaf_path_inconsistency.end()));
      rate.add(run.metrics.raw_message_rate);
      timeouts += static_cast<double>(run.relay_timeouts) /
                  static_cast<double>(replications);
      crashes += static_cast<double>(run.relay_crashes) /
                 static_cast<double>(replications);
      recoveries += static_cast<double>(run.relay_recoveries) /
                    static_cast<double>(replications);
      churn.absorb(run.churn);
    }
    const sim::ConfidenceInterval ci = sim::confidence_interval_95(inconsistency);
    std::vector<exp::Cell> row{std::string(to_string(kind)),
                               worst.metrics.inconsistency, ci.mean,
                               ci.half_width, worst_leaf.mean(), rate.mean(),
                               timeouts};
    if (churning) {
      row.emplace_back(static_cast<double>(churn.joins));
      row.emplace_back(churn.mean_setup_latency());
      row.emplace_back(static_cast<double>(churn.leaves));
      row.emplace_back(churn.mean_orphan_window());
      row.emplace_back(churn.mean_orphan_window_bound());
    }
    if (crashing) {
      row.emplace_back(crashes);
      row.emplace_back(recoveries);
    }
    table.add_row(std::move(row));
  }
  finish(table, parser);
  return 0;
}

int cmd_sweep(int argc, const char* const* argv) {
  exp::ArgParser parser(
      "sigcomp_cli sweep",
      "Sweep one single-hop parameter and print I per protocol.  --param is "
      "one of: loss, delay, refresh, timeout, retrans, lifetime, "
      "update-interval.");
  add_single_hop_options(parser);
  parser.add_option("param", "parameter to sweep", "refresh");
  parser.add_option("from", "sweep start", "0.1");
  parser.add_option("to", "sweep end", "100");
  parser.add_option("points", "number of sweep points", "15");
  parser.add_option("threads", "worker threads (0 = all cores)", "0");
  add_event_queue_option(parser);
  parser.add_option("csv", "write rows to this CSV file", "");
  parser.add_flag("linear", "linear spacing instead of logarithmic");
  parser.add_flag("couple-timeout", "keep T = 3R while sweeping refresh");
  if (!parser.parse(argc, argv)) {
    std::cerr << parser.error() << '\n';
    return 2;
  }
  if (parser.help_requested()) {
    std::cout << parser.help();
    return 0;
  }
  const SingleHopParams base = single_hop_params(parser);
  (void)event_queue_option(parser, /*simulating=*/false,
                           "this command is purely analytic");
  const std::string param = parser.get("param");
  const auto apply = [&](double v) {
    SingleHopParams p = base;
    if (param == "loss") {
      if (p.loss_model == sim::LossModel::kGilbertElliott) {
        // Sweep the mean at constant burstiness: rebuild the chain per
        // point (keeping burst length and per-state drop probabilities)
        // so `loss` stays coherent with the GE stationary mean.
        if (p.ge_p_bg <= 0.0) {
          throw std::invalid_argument(
              "cannot sweep loss under an absorbing GE chain (p-bg = 0)");
        }
        const sim::LossConfig matched =
            sim::LossConfig::gilbert_elliott_matched(
                v, 1.0 / base.ge_p_bg, base.ge_loss_bad, base.ge_loss_good);
        p.ge_p_gb = matched.p_gb;
        p.ge_p_bg = matched.p_bg;
      }
      p.loss = v;
    } else if (param == "delay") {
      p.delay = v;
    } else if (param == "refresh") {
      if (parser.flag("couple-timeout")) {
        p = p.with_refresh_scaled_timeout(v);
      } else {
        p.refresh_timer = v;
      }
    } else if (param == "timeout") {
      p.timeout_timer = v;
    } else if (param == "retrans") {
      p.retrans_timer = v;
    } else if (param == "lifetime") {
      p.removal_rate = 1.0 / v;
    } else if (param == "update-interval") {
      p.update_rate = 1.0 / v;
    } else {
      throw std::invalid_argument("unknown sweep parameter: " + param);
    }
    p.validate();
    return p;
  };

  const double from = parser.get_double("from");
  const double to = parser.get_double("to");
  const std::size_t points = count_option(parser, "points");
  const std::vector<double> axis = parser.flag("linear")
                                       ? exp::lin_space(from, to, points)
                                       : exp::log_space(from, to, points);

  std::vector<SingleHopParams> grid;
  grid.reserve(axis.size());
  for (const double v : axis) grid.push_back(apply(v));

  exp::ParallelSweep engine(count_option(parser, "threads"));
  GridOptions grid_options;
  grid_options.engine = &engine;
  std::vector<std::vector<Metrics>> series;
  std::size_t ss_index = 0;
  std::size_t hs_index = 0;
  for (std::size_t k = 0; k < kAllProtocols.size(); ++k) {
    if (kAllProtocols[k] == ProtocolKind::kSS) ss_index = k;
    if (kAllProtocols[k] == ProtocolKind::kHS) hs_index = k;
    series.push_back(
        evaluate_grid_analytic(kAllProtocols[k], grid, grid_options));
  }

  exp::Table table("sweep of " + param,
                   {param, "I(SS)", "I(SS+ER)", "I(SS+RT)", "I(SS+RTR)",
                    "I(HS)", "M(SS)", "M(HS)"});
  for (std::size_t i = 0; i < axis.size(); ++i) {
    std::vector<exp::Cell> row{axis[i]};
    for (const auto& protocol_series : series) {
      row.emplace_back(protocol_series[i].inconsistency);
    }
    row.emplace_back(series[ss_index][i].message_rate);
    row.emplace_back(series[hs_index][i].message_rate);
    table.add_row(std::move(row));
  }
  finish(table, parser);
  return 0;
}

int cmd_latency(int argc, const char* const* argv) {
  exp::ArgParser parser("sigcomp_cli latency",
                        "First-passage-to-consistency latency per protocol.");
  add_single_hop_options(parser);
  parser.add_option("csv", "write rows to this CSV file", "");
  if (!parser.parse(argc, argv)) {
    std::cerr << parser.error() << '\n';
    return 2;
  }
  if (parser.help_requested()) {
    std::cout << parser.help();
    return 0;
  }
  const SingleHopParams p = single_hop_params(parser);
  exp::Table table("convergence latency",
                   {"protocol", "mean (s)", "p50", "p95", "p99"});
  for (const ProtocolKind kind : kAllProtocols) {
    const analytic::LatencyAnalysis latency(kind, p);
    table.add_row({std::string(to_string(kind)), latency.mean_setup_latency(),
                   latency.setup_quantile(0.5), latency.setup_quantile(0.95),
                   latency.setup_quantile(0.99)});
  }
  finish(table, parser);
  return 0;
}

int cmd_tune(int argc, const char* const* argv) {
  exp::ArgParser parser("sigcomp_cli tune",
                        "Cost-optimal refresh timer per soft-state protocol.");
  add_single_hop_options(parser);
  parser.add_option("weight", "inconsistency weight w", "10");
  parser.add_option("csv", "write rows to this CSV file", "");
  if (!parser.parse(argc, argv)) {
    std::cerr << parser.error() << '\n';
    return 2;
  }
  if (parser.help_requested()) {
    std::cout << parser.help();
    return 0;
  }
  const SingleHopParams p = single_hop_params(parser);
  const double weight = parser.get_double("weight");
  exp::Table table("optimal refresh timer (T = 3R)",
                   {"protocol", "R* (s)", "cost", "I", "M"});
  for (const ProtocolKind kind :
       {ProtocolKind::kSS, ProtocolKind::kSSER, ProtocolKind::kSSRT,
        ProtocolKind::kSSRTR}) {
    const exp::TuningResult best = exp::optimal_refresh_timer(kind, p, weight);
    table.add_row({std::string(to_string(kind)), best.argmin, best.cost,
                   best.metrics.inconsistency, best.metrics.message_rate});
  }
  finish(table, parser);
  return 0;
}

int cmd_sensitivity(int argc, const char* const* argv) {
  exp::ArgParser parser("sigcomp_cli sensitivity",
                        "Parameter elasticities d(log I)/d(log param).");
  add_single_hop_options(parser);
  parser.add_option("csv", "write rows to this CSV file", "");
  if (!parser.parse(argc, argv)) {
    std::cerr << parser.error() << '\n';
    return 2;
  }
  if (parser.help_requested()) {
    std::cout << parser.help();
    return 0;
  }
  const SingleHopParams p = single_hop_params(parser);
  exp::Table table("elasticities of the inconsistency ratio",
                   {"parameter", "SS", "SS+ER", "SS+RT", "SS+RTR", "HS"});
  std::vector<std::vector<exp::Sensitivity>> per_protocol;
  for (const ProtocolKind kind : kAllProtocols) {
    per_protocol.push_back(exp::sensitivity_analysis(kind, p));
  }
  const auto names = exp::sensitivity_parameters();
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::vector<exp::Cell> row{names[i]};
    for (const auto& s : per_protocol) row.emplace_back(s[i].inconsistency);
    table.add_row(std::move(row));
  }
  finish(table, parser);
  return 0;
}

int cmd_scale(int argc, const char* const* argv) {
  exp::ArgParser parser(
      "sigcomp_cli scale",
      "Drive N concurrent sessions per protocol through the session farm "
      "(Poisson arrivals, exponential lifetimes) and report throughput and "
      "per-session metrics.  --hops > 1 switches to chain sessions; "
      "--fanout/--depth/--receivers or --topology FILE to tree sessions "
      "(all five protocols run on every shape).  --leaf-lifetime adds "
      "IGMP-style per-leaf churn inside each tree session.");
  add_single_hop_options(parser);
  add_tree_shape_options(parser);
  parser.add_option("leaf-lifetime",
                    "tree sessions: mean seconds a leaf stays joined "
                    "(0 = static trees, no churn)",
                    "0");
  parser.add_option("churn-rate",
                    "tree sessions: rejoin rate of a departed leaf "
                    "(rejoins/s)",
                    "0");
  add_scenario_options(parser);
  parser.add_option("sessions", "concurrent sessions N to drive", "10000");
  parser.add_option("arrival-rate",
                    "Poisson session arrival rate (sessions/s); the arrival "
                    "window is N divided by this",
                    "1000");
  parser.add_option("session-lifetime", "mean session lifetime in seconds",
                    "60");
  parser.add_option("hops", "hops per session (1 = sender/receiver pair)",
                    "1");
  parser.add_option("shared-relays",
                    "single-hop farms: shared relay sessions fed through the "
                    "cross-shard ring fabric (0 = no inter-session traffic)",
                    "0");
  parser.add_option("subscribers-per-relay",
                    "farm sessions wired to each shared relay",
                    "16");
  parser.add_flag("teardown",
                  "tree/chain sessions: end each lifetime window with an "
                  "explicit remove() and price the teardown messages");
  parser.add_option("shard-size", "sessions per simulator shard", "4096");
  parser.add_option("seed", "base seed of the per-session keying", "1");
  parser.add_option("threads", "worker threads (0 = all cores)", "0");
  parser.add_option("delay-model",
                    "channel delay law: det, exp, pareto or lognormal", "exp");
  parser.add_option("delay-shape",
                    "Pareto tail index / lognormal sigma of --delay-model",
                    "1.5");
  add_event_queue_option(parser);
  parser.add_option("csv", "write rows to this CSV file", "");
  if (!parser.parse(argc, argv)) {
    std::cerr << parser.error() << '\n';
    return 2;
  }
  if (parser.help_requested()) {
    std::cout << parser.help();
    return 0;
  }
  if (parser.passed("lifetime")) {
    // The farm draws lifetimes from --session-lifetime and ignores the
    // parameter set's removal_rate; accepting --lifetime here would be a
    // silent no-op.
    throw std::invalid_argument(
        "scale: use --session-lifetime (the farm ignores --lifetime)");
  }

  exp::SessionFarmOptions options;
  options.seed = static_cast<std::uint64_t>(parser.get_long("seed"));
  options.sessions = count_option(parser, "sessions");
  options.arrival_rate = parser.get_double("arrival-rate");
  options.session_lifetime = parser.get_double("session-lifetime");
  options.shard_size = count_option(parser, "shard-size");
  options.delay_model = delay_model_option(parser);
  options.delay_shape = parser.get_double("delay-shape");
  options.event_queue = event_queue_option(parser, /*simulating=*/true, "");
  exp::ParallelSweep engine(count_option(parser, "threads"));
  options.engine = &engine;

  const bool tree_sessions =
      parser.passed("fanout") || parser.passed("depth") ||
      parser.passed("receivers") || parser.passed("topology");
  if (tree_sessions && parser.passed("hops")) {
    throw std::invalid_argument(
        "scale: --hops selects chain sessions; it cannot be combined with "
        "the tree flags --fanout/--depth/--receivers/--topology");
  }
  options.leaf_churn.leaf_lifetime = parser.get_double("leaf-lifetime");
  options.leaf_churn.rejoin_rate = parser.get_double("churn-rate");
  options.leaf_churn.validate();
  if (parser.passed("churn-rate") && !options.leaf_churn.enabled()) {
    throw std::invalid_argument(
        "--churn-rate needs --leaf-lifetime > 0 (nothing churns until a "
        "leaf can leave)");
  }
  if (options.leaf_churn.enabled() && !tree_sessions) {
    throw std::invalid_argument(
        "scale: --leaf-lifetime churns tree sessions; pass a tree shape "
        "(--fanout/--depth/--receivers or --topology)");
  }
  options.scenario = scenario_options(parser, options.leaf_churn);
  if (options.scenario.enabled() && !tree_sessions) {
    throw std::invalid_argument(
        "scale: scenario processes (crashes, storms, bursts) act on tree "
        "sessions; pass a tree shape (--fanout/--depth/--receivers or "
        "--topology)");
  }
  const bool churning = options.leaf_churn.enabled();
  const bool crashing = options.scenario.failure.enabled();
  const std::size_t hops = count_option(parser, "hops");
  options.shared_relays =
      static_cast<std::size_t>(parser.get_long("shared-relays"));
  options.subscribers_per_relay =
      count_option(parser, "subscribers-per-relay");
  options.teardown = parser.flag("teardown");
  if (options.shared_relays > 0 && (tree_sessions || hops > 1)) {
    throw std::invalid_argument(
        "scale: --shared-relays drives single-hop sessions through the "
        "cross-shard fabric; it cannot be combined with --hops or a tree "
        "shape");
  }
  if (parser.passed("subscribers-per-relay") && options.shared_relays == 0) {
    throw std::invalid_argument(
        "scale: --subscribers-per-relay needs --shared-relays > 0 (nothing "
        "subscribes without a relay)");
  }
  if (options.teardown && !tree_sessions && hops <= 1) {
    throw std::invalid_argument(
        "scale: --teardown prices tree/chain teardown; single-hop sessions "
        "already end with an explicit remove (pass --hops > 1 or a tree "
        "shape)");
  }
  const std::string shape =
      tree_sessions ? (parser.passed("topology")
                           ? parser.get("topology") + " tree(s)"
                           : "fanout " + parser.get("fanout") + " depth " +
                                 parser.get("depth") + " tree(s)")
                    : std::to_string(hops) + " hop(s)";
  std::vector<std::string> headers{"protocol", "peak in flight", "messages",
                                   "I (mean)", "I ci95", "M (mean)",
                                   "msg/s/session", "timeouts"};
  if (churning) {
    headers.insert(headers.end(), {"joins", "setup lat (s)", "leaves",
                                   "orphan win (s)", "orphan lb (s)"});
  }
  if (crashing) {
    headers.insert(headers.end(), {"crashes", "recoveries"});
  }
  const bool relaying = options.shared_relays > 0;
  if (relaying) {
    headers.insert(headers.end(), {"fabric msgs", "fabric drop"});
  }
  if (options.teardown) headers.emplace_back("teardown msgs");
  exp::Table table(
      "session farm: " + std::to_string(options.sessions) + " sessions, " +
          shape + (churning ? ", churning leaves" : "") +
          (crashing ? ", crashing relays" : "") +
          (relaying ? ", " + std::to_string(options.shared_relays) +
                          " shared relays"
                    : "") +
          (options.teardown ? ", explicit teardown" : ""),
      std::move(headers));
  const auto add_row = [&](ProtocolKind kind,
                           const exp::SessionFarmResult& result) {
    std::vector<exp::Cell> row{
        std::string(to_string(kind)),
        static_cast<double>(result.peak_sessions_in_flight),
        static_cast<double>(result.messages),
        result.summary.mean.inconsistency,
        result.summary.inconsistency.half_width,
        result.summary.mean.message_rate,
        result.summary.mean.raw_message_rate,
        static_cast<double>(result.receiver_timeouts)};
    if (churning) {
      row.emplace_back(static_cast<double>(result.churn.joins));
      row.emplace_back(result.churn.mean_setup_latency());
      row.emplace_back(static_cast<double>(result.churn.leaves));
      row.emplace_back(result.churn.mean_orphan_window());
      row.emplace_back(result.churn.mean_orphan_window_bound());
    }
    if (crashing) {
      row.emplace_back(static_cast<double>(result.relay_crashes));
      row.emplace_back(static_cast<double>(result.relay_recoveries));
    }
    if (relaying) {
      row.emplace_back(static_cast<double>(result.fabric_messages));
      row.emplace_back(static_cast<double>(result.fabric_dropped));
    }
    if (options.teardown) {
      row.emplace_back(static_cast<double>(result.teardown_messages));
    }
    table.add_row(std::move(row));
  };
  if (tree_sessions) {
    const MultiHopParams p =
        multi_hop_params(parser, /*with_false_signal=*/true,
                         /*analytic_only=*/false);
    const analytic::TreeParams tree = tree_params(parser, p);
    for (const ProtocolKind kind : kMultiHopProtocols) {
      add_row(kind, run_session_farm(kind, tree, options));
    }
  } else if (hops <= 1) {
    const SingleHopParams p =
        single_hop_params(parser, /*analytic_only=*/false);
    for (const ProtocolKind kind : kAllProtocols) {
      add_row(kind, run_session_farm(kind, p, options));
    }
  } else {
    const MultiHopParams p =
        multi_hop_params(parser, /*with_false_signal=*/true,
                         /*analytic_only=*/false);
    for (const ProtocolKind kind : kMultiHopProtocols) {
      add_row(kind, run_session_farm(kind, p, options));
    }
  }
  finish(table, parser);
  return 0;
}

void print_usage() {
  std::cout << "usage: sigcomp_cli <command> [options]\n\n"
               "commands:\n"
               "  evaluate     compare the five protocols at one point\n"
               "  multihop     evaluate the five protocols on a K-hop chain\n"
               "  tree         evaluate a fan-out signaling tree (five protocols,\n"
               "               optional IGMP-style leaf churn)\n"
               "  sweep        sweep one parameter across a range\n"
               "  latency      convergence-latency distribution\n"
               "  tune         cost-optimal refresh timer\n"
               "  sensitivity  parameter elasticities\n"
               "  scale        many-session scale harness (session farm)\n\n"
               "run 'sigcomp_cli <command> --help' for command options;\n"
               "docs/CLI.md has the full reference with worked examples.\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 2;
  }
  const std::string command = argv[1];
  try {
    if (command == "evaluate") return cmd_evaluate(argc - 1, argv + 1);
    if (command == "multihop") return cmd_multihop(argc - 1, argv + 1);
    if (command == "tree") return cmd_tree(argc - 1, argv + 1);
    if (command == "sweep") return cmd_sweep(argc - 1, argv + 1);
    if (command == "latency") return cmd_latency(argc - 1, argv + 1);
    if (command == "tune") return cmd_tune(argc - 1, argv + 1);
    if (command == "sensitivity") return cmd_sensitivity(argc - 1, argv + 1);
    if (command == "scale") return cmd_scale(argc - 1, argv + 1);
    if (command == "--help" || command == "-h" || command == "help") {
      print_usage();
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  std::cerr << "unknown command: " << command << '\n';
  print_usage();
  return 2;
}
