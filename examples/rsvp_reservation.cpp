// RSVP-flavoured multi-hop scenario (Sec. III-B): a sender maintains a
// bandwidth reservation along a 10-hop path.  Every router on the path
// holds reservation state; a hop with stale state either over-reserves
// (wasted capacity) or drops the guarantee.  Compares end-to-end soft state
// (SS, like original RSVP), soft state with hop-by-hop reliable triggers
// (SS+RT, like RSVP with the RFC 2961 staged-refresh extension), and a
// hard-state reservation protocol (ST-II-like), with both the analytic
// chain model and the packet-level simulator.
#include <iostream>

#include "analytic/multi_hop.hpp"
#include "core/evaluator.hpp"
#include "exp/table.hpp"

int main() {
  using namespace sigcomp;

  MultiHopParams p;
  p.hops = 10;
  p.loss = 0.02;
  p.delay = 0.010;          // 10 ms per hop
  p.retrans_timer = 0.040;  // 4x per-hop delay
  p.update_rate = 1.0 / 90.0;  // reservation re-sized every ~90 s
  p.refresh_timer = 30.0;   // RSVP's default refresh period
  p.timeout_timer = 90.0;   // 3 missed refreshes
  p.false_signal_rate = 1e-7;

  protocols::TreeSimOptions options;
  options.duration = 40000.0;
  options.seed = 314;

  exp::Table table(
      "10-hop bandwidth reservation (RSVP-like timers: R=30s, T=90s)",
      {"protocol", "analogue", "I path (model)", "I path (sim)",
       "I last hop (model)", "msgs/s (model)", "msgs/s (sim)"});

  const analytic::PathParams path = analytic::PathParams::from_homogeneous(p);
  const auto row = [&](ProtocolKind kind, const char* analogue) {
    const analytic::MultiHopModel model(kind, path);
    const protocols::TreeSimResult sim = evaluate_simulated(kind, p, options);
    table.add_row({std::string(to_string(kind)), std::string(analogue),
                   model.inconsistency(), sim.metrics.inconsistency,
                   model.hop_inconsistency(p.hops),
                   model.metrics().raw_message_rate,
                   sim.metrics.raw_message_rate});
  };
  row(ProtocolKind::kSS, "RSVP (original)");
  row(ProtocolKind::kSSRT, "RSVP + RFC2961-style reliability");
  row(ProtocolKind::kHS, "ST-II-style hard state");
  table.print(std::cout);

  // Per-hop breakdown for the soft-state variants: consistency degrades
  // with distance from the reservation initiator (paper Fig. 17).
  std::cout << '\n';
  exp::Table perhop("Per-hop fraction of time the reservation is stale (model)",
                    {"hop", "SS", "SS+RT", "HS"});
  const analytic::MultiHopModel ss(ProtocolKind::kSS, path);
  const analytic::MultiHopModel ssrt(ProtocolKind::kSSRT, path);
  const analytic::MultiHopModel hs(ProtocolKind::kHS, path);
  for (std::size_t hop = 1; hop <= p.hops; ++hop) {
    perhop.add_row({static_cast<double>(hop), ss.hop_inconsistency(hop),
                    ssrt.hop_inconsistency(hop), hs.hop_inconsistency(hop)});
  }
  perhop.print(std::cout);

  std::cout << "\nHop-by-hop reliable triggers give RSVP-class soft state "
               "nearly hard-state path consistency while keeping refreshes "
               "as the safety net for crashed routers.\n";
  return 0;
}
