#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "analytic/tree_paths.hpp"
#include "core/params.hpp"
#include "protocols/single_hop_run.hpp"
#include "protocols/tree_run.hpp"
#include "sim/channel.hpp"
#include "sim/simulator.hpp"

namespace sigcomp::sim {
namespace {

TEST(TraceLog, RecordsInOrder) {
  TraceLog log;
  log.record(1.0, TraceCategory::kSend, "a");
  log.record(2.0, TraceCategory::kDeliver, "b");
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.records()[0], (TraceRecord{1.0, TraceCategory::kSend, "a"}));
  EXPECT_EQ(log.records()[1], (TraceRecord{2.0, TraceCategory::kDeliver, "b"}));
}

TEST(TraceLog, BoundedCapacityEvictsOldest) {
  TraceLog log(3);
  for (int i = 0; i < 5; ++i) {
    log.record(double(i), TraceCategory::kState, std::to_string(i));
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.total_recorded(), 5u);
  EXPECT_EQ(log.records().front().detail, "2");
  EXPECT_EQ(log.records().back().detail, "4");
}

TEST(TraceLog, ZeroCapacityRejected) {
  EXPECT_THROW(TraceLog(0), std::invalid_argument);
}

TEST(TraceLog, FilterAndCount) {
  TraceLog log;
  log.record(1.0, TraceCategory::kSend, "x");
  log.record(2.0, TraceCategory::kDrop, "y");
  log.record(3.0, TraceCategory::kSend, "z");
  EXPECT_EQ(log.count(TraceCategory::kSend), 2u);
  EXPECT_EQ(log.count(TraceCategory::kDrop), 1u);
  EXPECT_EQ(log.count(TraceCategory::kTimer), 0u);
  const auto sends = log.filter(TraceCategory::kSend);
  ASSERT_EQ(sends.size(), 2u);
  EXPECT_EQ(sends[1].detail, "z");
}

TEST(TraceLog, ClearKeepsTotal) {
  TraceLog log;
  log.record(1.0, TraceCategory::kState, "a");
  log.clear();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.total_recorded(), 1u);
}

TEST(TraceLog, DumpFormat) {
  TraceLog log;
  log.record(1.5, TraceCategory::kDeliver, "fwd TRIGGER");
  std::ostringstream os;
  log.dump(os);
  EXPECT_EQ(os.str(), "1.5 deliver fwd TRIGGER\n");
}

TEST(TraceLog, CategoryNamesDistinct) {
  EXPECT_EQ(to_string(TraceCategory::kSend), "send");
  EXPECT_EQ(to_string(TraceCategory::kDrop), "drop");
  EXPECT_EQ(to_string(TraceCategory::kSession), "session");
}

TEST(ChannelTrace, RecordsSendDropDeliver) {
  Simulator sim;
  Rng rng(1);
  TraceLog log;
  Channel<int> ch(sim, rng, 0.0, 0.1, Distribution::kDeterministic,
                  [](const int&) {});
  ch.set_trace(&log, "link", [](const int& v) { return std::to_string(v); });
  ch.send(7);
  sim.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.records()[0].category, TraceCategory::kSend);
  EXPECT_EQ(log.records()[0].detail, "link 7");
  EXPECT_EQ(log.records()[1].category, TraceCategory::kDeliver);
  EXPECT_DOUBLE_EQ(log.records()[1].time, 0.1);

  ch.set_loss(1.0);
  ch.send(8);
  sim.run();
  EXPECT_EQ(log.count(TraceCategory::kDrop), 1u);
}

TEST(HarnessTrace, SingleHopRunEmitsSessionAndMessageEvents) {
  TraceLog log(1 << 20);
  protocols::SimOptions options;
  options.sessions = 5;
  options.seed = 3;
  options.trace = &log;
  SingleHopParams params = SingleHopParams::kazaa_defaults();
  params.removal_rate = 1.0 / 30.0;  // short sessions keep the trace small
  (void)protocols::run_single_hop(ProtocolKind::kSSER, params, options);

  // 5 starts, 5 removals, 5 absorptions.
  const auto sessions = log.filter(TraceCategory::kSession);
  std::size_t starts = 0, removes = 0, absorbed = 0;
  for (const auto& r : sessions) {
    starts += r.detail.starts_with("start");
    removes += r.detail.starts_with("remove");
    absorbed += r.detail.starts_with("absorbed");
  }
  EXPECT_EQ(starts, 5u);
  EXPECT_EQ(removes, 5u);
  EXPECT_EQ(absorbed, 5u);
  // Triggers and refreshes were recorded with channel labels.
  EXPECT_GT(log.count(TraceCategory::kSend), 5u);
  bool saw_trigger = false;
  for (const auto& r : log.records()) {
    if (r.category == TraceCategory::kSend && r.detail == "fwd TRIGGER") {
      saw_trigger = true;
      break;
    }
  }
  EXPECT_TRUE(saw_trigger);
}

TEST(ChannelTrace, DetachedTracingIsZeroCost) {
  // With no log attached, tracing must not record anything AND must not
  // evaluate the describe formatter -- formatting a detail string per
  // message would make tracing pay even when off.
  Simulator sim;
  Rng rng(1);
  int describe_calls = 0;
  const auto counting_describe = [&describe_calls](const int& v) {
    ++describe_calls;
    return std::to_string(v);
  };

  Channel<int> detached(sim, rng, 0.0, 0.1, Distribution::kDeterministic,
                        [](const int&) {});
  // A describe formatter installed with a null log must never run.
  detached.set_trace(nullptr, "link", counting_describe);
  for (int i = 0; i < 100; ++i) detached.send(i);
  sim.run();
  EXPECT_EQ(describe_calls, 0);

  // Attaching the log turns both recording and formatting on; detaching
  // turns both off again.
  TraceLog log;
  detached.set_trace(&log, "link", counting_describe);
  detached.send(1);
  sim.run();
  EXPECT_EQ(describe_calls, 2);  // send + deliver
  EXPECT_EQ(log.size(), 2u);
  detached.set_trace(nullptr, "link", counting_describe);
  detached.send(2);
  sim.run();
  EXPECT_EQ(describe_calls, 2);
  EXPECT_EQ(log.size(), 2u);
}

TEST(HarnessTrace, DetachedSingleHopRunRecordsNothing) {
  protocols::SimOptions options;
  options.sessions = 5;
  options.seed = 3;
  options.trace = nullptr;  // detached: the default
  SingleHopParams params = SingleHopParams::kazaa_defaults();
  params.removal_rate = 1.0 / 30.0;
  const auto result =
      protocols::run_single_hop(ProtocolKind::kSSER, params, options);
  EXPECT_EQ(result.sessions, 5u);
}

TEST(HarnessTrace, MultiHopRunEmitsPerHopChannelEvents) {
  TraceLog log(1 << 20);
  protocols::TreeSimOptions options;
  options.duration = 200.0;
  options.seed = 3;
  options.trace = &log;
  MultiHopParams params;
  params.hops = 3;
  (void)protocols::run_tree(ProtocolKind::kSSRT,
                           analytic::TreeParams::chain(params), options);

  EXPECT_GT(log.count(TraceCategory::kSend), 0u);
  EXPECT_GT(log.count(TraceCategory::kDeliver), 0u);
  bool saw_first_hop = false, saw_last_hop = false;
  for (const auto& r : log.records()) {
    if (r.category != TraceCategory::kSend) continue;
    saw_first_hop = saw_first_hop || r.detail.starts_with("dn0 ");
    saw_last_hop = saw_last_hop || r.detail.starts_with("dn2 ");
  }
  EXPECT_TRUE(saw_first_hop);
  EXPECT_TRUE(saw_last_hop);
}

}  // namespace
}  // namespace sigcomp::sim
