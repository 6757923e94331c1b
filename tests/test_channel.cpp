#include "sim/channel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/channel_process.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace sigcomp::sim {
namespace {

struct Packet {
  int id = 0;
};

TEST(Channel, DeliversWithDeterministicDelay) {
  Simulator sim;
  Rng rng(1);
  std::vector<double> arrivals;
  Channel<Packet> ch(sim, rng, 0.0, 0.25, Distribution::kDeterministic,
                     [&](const Packet&) { arrivals.push_back(sim.now()); });
  ch.send({1});
  sim.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_DOUBLE_EQ(arrivals[0], 0.25);
  EXPECT_EQ(ch.counters().sent, 1u);
  EXPECT_EQ(ch.counters().delivered, 1u);
  EXPECT_EQ(ch.counters().lost, 0u);
}

TEST(Channel, PayloadContentSurvives) {
  Simulator sim;
  Rng rng(1);
  int received = 0;
  Channel<Packet> ch(sim, rng, 0.0, 0.1, Distribution::kDeterministic,
                     [&](const Packet& p) { received = p.id; });
  ch.send({42});
  sim.run();
  EXPECT_EQ(received, 42);
}

TEST(Channel, FullLossDropsEverything) {
  Simulator sim;
  Rng rng(2);
  int delivered = 0;
  Channel<Packet> ch(sim, rng, 1.0, 0.1, Distribution::kDeterministic,
                     [&](const Packet&) { ++delivered; });
  for (int i = 0; i < 50; ++i) ch.send({i});
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(ch.counters().sent, 50u);
  EXPECT_EQ(ch.counters().lost, 50u);
}

TEST(Channel, LossRateIsRespectedStatistically) {
  Simulator sim;
  Rng rng(3);
  int delivered = 0;
  Channel<Packet> ch(sim, rng, 0.2, 0.001, Distribution::kDeterministic,
                     [&](const Packet&) { ++delivered; });
  constexpr int kSent = 20000;
  for (int i = 0; i < kSent; ++i) ch.send({i});
  sim.run();
  EXPECT_NEAR(delivered / double(kSent), 0.8, 0.01);
  EXPECT_EQ(ch.counters().sent, static_cast<std::uint64_t>(kSent));
  EXPECT_EQ(ch.counters().delivered + ch.counters().lost,
            static_cast<std::uint64_t>(kSent));
}

TEST(Channel, NeverReordersEvenWithRandomDelays) {
  Simulator sim;
  Rng rng(4);
  std::vector<int> received;
  Channel<Packet> ch(sim, rng, 0.0, 0.5, Distribution::kExponential,
                     [&](const Packet& p) { received.push_back(p.id); });
  for (int i = 0; i < 500; ++i) {
    // Interleave sends with time advancement to vary send instants.
    sim.schedule_at(0.01 * i, [&ch, i] { ch.send({i}); });
  }
  sim.run();
  ASSERT_EQ(received.size(), 500u);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(received[i], i) << "position " << i;
}

TEST(Channel, ExponentialDelayHasRequestedMean) {
  Simulator sim;
  Rng rng(5);
  double total_delay = 0.0;
  int count = 0;
  Channel<Packet> ch(sim, rng, 0.0, 0.2, Distribution::kExponential,
                     [&](const Packet&) {
                       total_delay += sim.now();
                       ++count;
                     });
  // All sent at t=0 -- note FIFO pushes arrivals up, so compare against the
  // max-so-far-corrected expectation loosely.
  constexpr int kSent = 5000;
  for (int i = 0; i < kSent; ++i) ch.send({i});
  sim.run();
  ASSERT_EQ(count, kSent);
  // The running maximum of exponentials grows like ln(n); just check the
  // mean observed delay is at least the distribution mean and bounded.
  EXPECT_GT(total_delay / count, 0.2);
  EXPECT_LT(total_delay / count, 0.2 * (std::log(double(kSent)) + 2.0));
}

TEST(Channel, SetLossMidRunChangesBehaviour) {
  Simulator sim;
  Rng rng(6);
  int delivered = 0;
  Channel<Packet> ch(sim, rng, 1.0, 0.01, Distribution::kDeterministic,
                     [&](const Packet&) { ++delivered; });
  ch.send({1});  // lost
  ch.set_loss(0.0);
  ch.send({2});  // delivered
  sim.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(ch.counters().lost, 1u);
}

TEST(Channel, SetLossSwitchesGeChannelToIidAndValidates) {
  Simulator sim;
  Rng rng(5);
  int delivered = 0;
  Channel<Packet> ch(sim, rng, LossConfig::gilbert_elliott(0.5, 0.5),
                     DelayConfig::deterministic(0.01),
                     [&](const Packet&) { ++delivered; });
  ch.set_loss(0.0);
  EXPECT_EQ(ch.loss_config().model, LossModel::kIid);
  for (int i = 0; i < 100; ++i) ch.send({i});
  sim.run();
  EXPECT_EQ(ch.counters().lost, 0u);
  EXPECT_EQ(delivered, 100);
  EXPECT_THROW(ch.set_loss(1.5), std::invalid_argument);
}

TEST(Channel, SetSinkRewiresDelivery) {
  Simulator sim;
  Rng rng(7);
  int a = 0, b = 0;
  Channel<Packet> ch(sim, rng, 0.0, 0.01, Distribution::kDeterministic,
                     [&](const Packet&) { ++a; });
  ch.send({1});
  sim.run();
  ch.set_sink([&](const Packet&) { ++b; });
  ch.send({2});
  sim.run();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
}

TEST(Channel, AccessorsReportConfiguration) {
  Simulator sim;
  Rng rng(8);
  Channel<Packet> ch(sim, rng, 0.1, 0.3, Distribution::kDeterministic,
                     [](const Packet&) {});
  EXPECT_DOUBLE_EQ(ch.loss(), 0.1);
  EXPECT_DOUBLE_EQ(ch.mean_delay(), 0.3);
  EXPECT_EQ(ch.loss_config().model, LossModel::kIid);
  EXPECT_EQ(ch.delay_config().model, DelayModel::kDeterministic);
}

TEST(Channel, ConstructorAndSetLossValidateProbability) {
  Simulator sim;
  Rng rng(9);
  const auto sink = [](const Packet&) {};
  EXPECT_THROW((Channel<Packet>(sim, rng, -0.1, 0.1,
                                Distribution::kDeterministic, sink)),
               std::invalid_argument);
  EXPECT_THROW((Channel<Packet>(sim, rng, 1.5, 0.1,
                                Distribution::kDeterministic, sink)),
               std::invalid_argument);
  EXPECT_THROW((Channel<Packet>(sim, rng, std::nan(""), 0.1,
                                Distribution::kDeterministic, sink)),
               std::invalid_argument);
  Channel<Packet> ch(sim, rng, 0.5, 0.1, Distribution::kDeterministic, sink);
  EXPECT_THROW(ch.set_loss(-0.01), std::invalid_argument);
  EXPECT_THROW(ch.set_loss(1.01), std::invalid_argument);
  ch.set_loss(1.0);  // blackhole is legal
  EXPECT_DOUBLE_EQ(ch.loss(), 1.0);
}

TEST(Channel, GilbertElliottChannelDropsInBursts) {
  Simulator sim;
  Rng rng(10);
  int delivered = 0;
  // Mean loss 0.2 but concentrated in bursts of mean length 5.
  Channel<Packet> ch(sim, rng,
                     LossConfig::gilbert_elliott_matched(0.2, 5.0),
                     DelayConfig::deterministic(0.001),
                     [&](const Packet&) { ++delivered; });
  constexpr int kSent = 50000;
  for (int i = 0; i < kSent; ++i) ch.send({i});
  sim.run();
  EXPECT_EQ(ch.counters().sent, static_cast<std::uint64_t>(kSent));
  EXPECT_NEAR(static_cast<double>(ch.counters().lost) / kSent, 0.2, 0.02);
  EXPECT_NEAR(ch.loss(), 0.2, 1e-12);
}

/// What a channel did with each message, in send order: delivered at its
/// arrival time, or lost (-1).
struct Outcomes {
  std::vector<double> at;
  Channel<Packet>::Sink sink(const Simulator& sim) {
    return [this, &sim](const Packet& p) {
      at[static_cast<std::size_t>(p.id)] = sim.now();
    };
  }
};

/// A bursty link with exponential delays: every send draws the GE chain's
/// step, its drop and (when it survives) a delay from the channel's RNG.
LinkConfig bursty_link() {
  return LinkConfig{LossConfig::gilbert_elliott_matched(0.2, 4.0),
                    DelayConfig::exponential(0.05)};
}

TEST(Channel, BorrowingChannelsStepIndependentChainsDrawForDraw) {
  // Two channels borrow one GE link and send alternately.  Each must keep
  // its own chain state: its outcomes match a channel that owns a copy of
  // the link, runs on the same seed and sends alone.
  constexpr int kSent = 4000;
  const LinkConfig link = bursty_link();
  Simulator sim;
  Rng rng_a(21);
  Rng rng_b(22);
  Outcomes a{std::vector<double>(kSent, -1.0)};
  Outcomes b{std::vector<double>(kSent, -1.0)};
  Channel<Packet> borrow_a(sim, rng_a, link, a.sink(sim));
  Channel<Packet> borrow_b(sim, rng_b, link, b.sink(sim));
  for (int i = 0; i < kSent; ++i) {
    borrow_a.send({i});
    borrow_b.send({i});
  }
  sim.run();
  EXPECT_EQ(&borrow_a.loss_config(), &link.loss);
  EXPECT_EQ(&borrow_b.loss_config(), &link.loss);

  const auto alone = [&](std::uint64_t seed) {
    Simulator own_sim;
    Rng rng(seed);
    Outcomes out{std::vector<double>(kSent, -1.0)};
    Channel<Packet> owner(own_sim, rng, link.loss, link.delay,
                          out.sink(own_sim));
    EXPECT_NE(&owner.loss_config(), &link.loss);
    for (int i = 0; i < kSent; ++i) owner.send({i});
    own_sim.run();
    return out.at;
  };
  const std::vector<double> own_a = alone(21);
  const std::vector<double> own_b = alone(22);
  for (int i = 0; i < kSent; ++i) {
    const auto k = static_cast<std::size_t>(i);
    ASSERT_EQ(a.at[k], own_a[k]) << "channel a, message " << i;
    ASSERT_EQ(b.at[k], own_b[k]) << "channel b, message " << i;
  }
  // The chains really are bursty and really differ between the channels.
  EXPECT_NEAR(static_cast<double>(borrow_a.counters().lost) / kSent, 0.2,
              0.04);
  EXPECT_NE(a.at, b.at);
}

TEST(Channel, SetLossOnBorrowingChannelLeavesLinkAndSiblingAlone) {
  const LinkConfig link{LossConfig::iid(0.0), DelayConfig::deterministic(0.1)};
  const LinkConfig before = link;
  Simulator sim;
  Rng rng(23);
  int delivered_a = 0;
  int delivered_b = 0;
  Channel<Packet> a(sim, rng, link, [&](const Packet&) { ++delivered_a; });
  Channel<Packet> b(sim, rng, link, [&](const Packet&) { ++delivered_b; });
  EXPECT_THROW(a.set_loss(1.5), std::invalid_argument);
  // A failed set_loss changes nothing.
  EXPECT_EQ(&a.loss_config(), &link.loss);

  a.set_loss(1.0);  // blackhole a only
  EXPECT_TRUE(link == before);
  EXPECT_NE(&a.loss_config(), &link.loss);
  EXPECT_TRUE(a.loss_config() == LossConfig::iid(1.0));
  EXPECT_TRUE(a.delay_config() == link.delay);
  EXPECT_EQ(&b.loss_config(), &link.loss);
  for (int i = 0; i < 20; ++i) {
    a.send({i});
    b.send({i});
  }
  sim.run();
  EXPECT_EQ(delivered_a, 0);
  EXPECT_EQ(delivered_b, 20);

  a.set_loss(0.0);  // heal: still a's own copy, the shared link untouched
  a.send({0});
  sim.run();
  EXPECT_EQ(delivered_a, 1);
  EXPECT_NE(&a.loss_config(), &link.loss);
  EXPECT_TRUE(link == before);
}

TEST(Channel, TraceThenDetachOnBorrowingChannel) {
  const LinkConfig link{LossConfig::iid(0.0), DelayConfig::deterministic(0.1)};
  Simulator sim;
  Rng rng(24);
  TraceLog log;
  int delivered = 0;
  Channel<Packet> ch(sim, rng, link, [&](const Packet&) { ++delivered; });
  ch.send({1});  // untraced
  sim.run();
  EXPECT_TRUE(log.empty());

  ch.set_trace(&log, "ch",
               [](const Packet& p) { return std::to_string(p.id); });
  ch.send({2});
  sim.run();
  ASSERT_EQ(log.size(), 2u);  // send + deliver
  EXPECT_EQ(log.records()[0].category, TraceCategory::kSend);
  EXPECT_EQ(log.records()[0].detail, "ch 2");
  EXPECT_EQ(log.records()[1].category, TraceCategory::kDeliver);

  ch.set_trace(nullptr, "", nullptr);  // detach
  ch.send({3});
  sim.run();
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(delivered, 3);
  // Tracing never copies the link.
  EXPECT_EQ(&ch.loss_config(), &link.loss);

  ch.set_trace(&log, "again", nullptr);  // re-attach, no describer
  ch.send({4});
  sim.run();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log.records()[2].detail, "again");
}

}  // namespace
}  // namespace sigcomp::sim
