// Unit tests of the multi-hop chain machinery: the per-link reliable
// transmission slot and the relay's forwarding / teardown / notice logic,
// driven over scripted channels.  The ChainRelay / ChainSender suites run
// TreeRelay / TreeSender with at most one child, i.e. on a chain.
#include "protocols/multi_hop_node.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/simulator.hpp"

namespace sigcomp::protocols {
namespace {

/// Captures everything a channel delivers.
struct Capture {
  std::vector<Message> messages;
  MessageChannel::Sink sink() {
    return [this](const Message& m) { messages.push_back(m); };
  }
  [[nodiscard]] std::size_t count(MessageType type) const {
    std::size_t n = 0;
    for (const Message& m : messages) n += (m.type == type);
    return n;
  }
};

/// The timers every fixture here runs: deterministic, R = 5, T = 15,
/// retransmission after 0.5.
TimerSettings chain_timers() {
  TimerSettings timers;
  timers.dist = sim::Distribution::kDeterministic;
  timers.refresh = 5.0;
  timers.timeout = 15.0;
  timers.retrans = 0.5;
  return timers;
}

/// A reliable slot on a one-edge tree context: it retransmits every 0.5 s.
struct SlotFixture {
  SlotFixture()
      : rng(5),
        ctx{sim, rng, mechanisms(ProtocolKind::kHS), chain_timers(), nullptr},
        channel(sim, rng, 0.0, 0.01, sim::Distribution::kDeterministic,
                capture.sink()),
        slot(ctx, &channel) {}

  sim::Simulator sim;
  sim::Rng rng;
  TreeContext ctx;
  Capture capture;
  MessageChannel channel;
  ReliableSlot slot;
};

TEST(ReliableSlot, SendsImmediatelyAndRetransmits) {
  SlotFixture f;
  f.slot.send(Message{MessageType::kTrigger, 7, 42, 0});
  EXPECT_TRUE(f.slot.outstanding());
  f.sim.run_until(1.2);  // retransmissions at 0.5 and 1.0
  EXPECT_EQ(f.channel.counters().sent, 3u);
}

TEST(ReliableSlot, AckStopsRetransmission) {
  SlotFixture f;
  f.slot.send(Message{MessageType::kTrigger, 7, 42, 0});
  EXPECT_TRUE(f.slot.acknowledge(42));
  EXPECT_FALSE(f.slot.outstanding());
  f.sim.run_until(5.0);
  EXPECT_EQ(f.channel.counters().sent, 1u);
}

TEST(ReliableSlot, WrongSeqAckIsIgnored) {
  SlotFixture f;
  f.slot.send(Message{MessageType::kTrigger, 7, 42, 0});
  EXPECT_FALSE(f.slot.acknowledge(41));
  EXPECT_TRUE(f.slot.outstanding());
}

TEST(ReliableSlot, NewSendSupersedesPending) {
  SlotFixture f;
  f.slot.send(Message{MessageType::kTrigger, 1, 10, 0});
  f.slot.send(Message{MessageType::kTrigger, 2, 11, 0});
  // The stale ack no longer matches.
  EXPECT_FALSE(f.slot.acknowledge(10));
  f.sim.run_until(0.6);  // one retransmission: must carry the new content
  ASSERT_GE(f.capture.messages.size(), 3u);
  EXPECT_EQ(f.capture.messages.back().value, 2);
  EXPECT_EQ(f.capture.messages.back().seq, 11u);
}

TEST(ReliableSlot, CancelDropsOutstanding) {
  SlotFixture f;
  f.slot.send(Message{MessageType::kTrigger, 1, 10, 0});
  f.slot.cancel();
  f.sim.run_until(5.0);
  EXPECT_EQ(f.channel.counters().sent, 1u);
}

/// The one child edge of a chain node: edge 0 of its context's arrays.
constexpr std::uint32_t kOnlyChild[] = {0};

/// A tree context whose single edge runs down `down`: the per-edge arrays
/// a Topology would own, for one node with at most one child.
struct OneEdge {
  OneEdge(sim::Simulator& sim, sim::Rng& rng, ProtocolKind kind,
          MessageChannel& down)
      : ctx{sim, rng, mechanisms(kind), chain_timers(), nullptr},
        reliable(ctx, &down) {
    ctx.down = &down;
    ctx.reliable_down = &reliable;
    ctx.child_active = &active;
    ctx.child_installed = &installed;
  }

  TreeContext ctx;
  ReliableSlot reliable;
  char active = 1;
  char installed = 0;
};

/// A relay with captured up/down channels.
struct RelayFixture {
  explicit RelayFixture(ProtocolKind kind, bool is_last = false)
      : rng(9),
        up(sim, rng, 0.0, 0.01, sim::Distribution::kDeterministic, up_capture.sink()),
        down(sim, rng, 0.0, 0.01, sim::Distribution::kDeterministic,
             down_capture.sink()),
        edge(sim, rng, kind, down) {
    std::span<const std::uint32_t> children;
    if (!is_last) children = kOnlyChild;
    relay = std::make_unique<TreeRelay>(edge.ctx, up, children);
  }

  sim::Simulator sim;
  sim::Rng rng;
  Capture up_capture;
  Capture down_capture;
  MessageChannel up;
  MessageChannel down;
  OneEdge edge;
  std::unique_ptr<TreeRelay> relay;
};

TEST(ChainRelay, SsTriggerInstallsAndForwardsWithoutAck) {
  RelayFixture f(ProtocolKind::kSS);
  f.relay->handle_from_upstream(Message{MessageType::kTrigger, 5, 1, 0});
  f.sim.run_until(0.1);
  EXPECT_EQ(f.relay->value(), std::optional<std::int64_t>{5});
  EXPECT_EQ(f.up_capture.count(MessageType::kAckTrigger), 0u);
  EXPECT_EQ(f.down_capture.count(MessageType::kTrigger), 1u);
}

TEST(ChainRelay, ReliableTriggerIsAckedAndForwardedReliably) {
  RelayFixture f(ProtocolKind::kSSRT);
  f.relay->handle_from_upstream(Message{MessageType::kTrigger, 5, 1, 0});
  f.sim.run_until(1.2);  // downstream unacked: retransmissions at 0.5 and 1.0
  EXPECT_EQ(f.up_capture.count(MessageType::kAckTrigger), 1u);
  EXPECT_EQ(f.down_capture.count(MessageType::kTrigger), 3u);
}

TEST(ChainRelay, DuplicateTriggerReAckedNotReforwarded) {
  RelayFixture f(ProtocolKind::kSSRT);
  const Message trigger{MessageType::kTrigger, 5, 1, 0};
  f.relay->handle_from_upstream(trigger);
  f.sim.run_until(0.1);
  // Ack the downstream copy so no retransmissions muddy the count.
  f.relay->handle_from_downstream(
      Message{MessageType::kAckTrigger, 0, f.down_capture.messages.back().seq, 0});
  const auto downstream_before = f.down_capture.count(MessageType::kTrigger);
  f.relay->handle_from_upstream(trigger);  // duplicate (lost ACK upstream)
  f.sim.run_until(0.2);
  EXPECT_EQ(f.up_capture.count(MessageType::kAckTrigger), 2u);  // re-acked
  EXPECT_EQ(f.down_capture.count(MessageType::kTrigger), downstream_before);
}

TEST(ChainRelay, RefreshInstallsArmsTimeoutAndForwards) {
  RelayFixture f(ProtocolKind::kSS);
  f.relay->handle_from_upstream(Message{MessageType::kRefresh, 9, 1, 0});
  f.sim.run_until(0.1);
  EXPECT_EQ(f.relay->value(), std::optional<std::int64_t>{9});
  EXPECT_EQ(f.down_capture.count(MessageType::kRefresh), 1u);
  // No refreshes arrive afterwards: the timeout clears the state.
  f.sim.run_until(20.0);
  EXPECT_EQ(f.relay->value(), std::nullopt);
  EXPECT_EQ(f.relay->timeouts(), 1u);
}

TEST(ChainRelay, LastRelayDoesNotForward) {
  RelayFixture f(ProtocolKind::kSS, /*is_last=*/true);
  f.relay->handle_from_upstream(Message{MessageType::kRefresh, 9, 1, 0});
  f.sim.run_until(0.1);
  EXPECT_EQ(f.down_capture.messages.size(), 0u);
}

TEST(ChainRelay, SsRtTimeoutSendsOneHopNotice) {
  RelayFixture f(ProtocolKind::kSSRT);
  f.relay->handle_from_upstream(Message{MessageType::kRefresh, 9, 1, 0});
  f.sim.run_until(20.0);  // timeout fires
  EXPECT_EQ(f.relay->value(), std::nullopt);
  EXPECT_EQ(f.up_capture.count(MessageType::kNotice), 1u);
}

TEST(ChainRelay, SsRtNoticeFromDownstreamReinstalls) {
  RelayFixture f(ProtocolKind::kSSRT);
  f.relay->handle_from_upstream(Message{MessageType::kTrigger, 9, 1, 0});
  f.sim.run_until(0.1);
  f.relay->handle_from_downstream(
      Message{MessageType::kAckTrigger, 0, f.down_capture.messages.back().seq, 0});
  const auto before = f.down_capture.count(MessageType::kTrigger);
  f.relay->handle_from_downstream(Message{MessageType::kNotice, 0, 0, 0});
  f.sim.run_until(0.2);
  EXPECT_EQ(f.down_capture.count(MessageType::kTrigger), before + 1);
}

TEST(ChainRelay, HsExternalSignalFloodsBothDirections) {
  RelayFixture f(ProtocolKind::kHS);
  f.relay->handle_from_upstream(Message{MessageType::kTrigger, 9, 1, 0});
  f.sim.run_until(0.1);
  f.relay->external_removal_signal();
  f.sim.run_until(0.2);
  EXPECT_EQ(f.relay->value(), std::nullopt);
  EXPECT_GE(f.up_capture.count(MessageType::kNotice), 1u);
  EXPECT_GE(f.down_capture.count(MessageType::kTeardown), 1u);
}

TEST(ChainRelay, HsTeardownClearsAcksAndPropagates) {
  RelayFixture f(ProtocolKind::kHS);
  f.relay->handle_from_upstream(Message{MessageType::kTrigger, 9, 1, 0});
  f.sim.run_until(0.1);
  f.relay->handle_from_upstream(Message{MessageType::kTeardown, 0, 77, 0});
  f.sim.run_until(0.2);
  EXPECT_EQ(f.relay->value(), std::nullopt);
  EXPECT_EQ(f.up_capture.count(MessageType::kAckNotice), 1u);
  EXPECT_GE(f.down_capture.count(MessageType::kTeardown), 1u);
}

TEST(ChainRelay, HsExternalSignalWithoutStateIsNoOp) {
  RelayFixture f(ProtocolKind::kHS);
  f.relay->external_removal_signal();
  f.sim.run_until(1.0);
  EXPECT_TRUE(f.up_capture.messages.empty());
  EXPECT_TRUE(f.down_capture.messages.empty());
}

/// A chain sender with a captured downstream channel.
struct SenderFixture {
  explicit SenderFixture(ProtocolKind kind)
      : rng(13),
        down(sim, rng, 0.0, 0.01, sim::Distribution::kDeterministic,
             capture.sink()),
        edge(sim, rng, kind, down),
        sender(std::make_unique<TreeSender>(edge.ctx, kOnlyChild)) {}

  sim::Simulator sim;
  sim::Rng rng;
  Capture capture;
  MessageChannel down;
  OneEdge edge;
  std::unique_ptr<TreeSender> sender;
};

TEST(ChainSender, SsStartSendsTriggerThenRefreshes) {
  SenderFixture f(ProtocolKind::kSS);
  f.sender->start(1);
  f.sim.run_until(11.0);
  EXPECT_EQ(f.capture.count(MessageType::kTrigger), 1u);
  EXPECT_EQ(f.capture.count(MessageType::kRefresh), 2u);  // t = 5, 10
  EXPECT_EQ(f.sender->value(), std::optional<std::int64_t>{1});
}

TEST(ChainSender, HsStartRetransmitsUntilAcked) {
  SenderFixture f(ProtocolKind::kHS);
  f.sender->start(1);
  f.sim.run_until(1.2);  // retransmissions at 0.5, 1.0
  EXPECT_EQ(f.capture.count(MessageType::kTrigger), 3u);
  EXPECT_EQ(f.capture.count(MessageType::kRefresh), 0u);
  // Ack the latest copy: silence afterwards.
  f.sender->handle_from_downstream(
      Message{MessageType::kAckTrigger, 0, f.capture.messages.back().seq, 0});
  const auto before = f.capture.messages.size();
  f.sim.run_until(60.0);
  EXPECT_EQ(f.capture.messages.size(), before);
}

TEST(ChainSender, UpdateCarriesNewValue) {
  SenderFixture f(ProtocolKind::kSS);
  f.sender->start(1);
  f.sim.run_until(0.1);
  f.sender->update(2);
  f.sim.run_until(0.2);
  EXPECT_EQ(f.capture.messages.back().value, 2);
  EXPECT_EQ(f.sender->value(), std::optional<std::int64_t>{2});
}

TEST(ChainSender, NoticeCausesReinstall) {
  SenderFixture f(ProtocolKind::kSSRT);
  f.sender->start(1);
  f.sim.run_until(0.1);
  f.sender->handle_from_downstream(
      Message{MessageType::kAckTrigger, 0, f.capture.messages.back().seq, 0});
  const auto triggers_before = f.capture.count(MessageType::kTrigger);
  f.sender->handle_from_downstream(Message{MessageType::kNotice, 0, 3, 0});
  f.sim.run_until(0.2);
  EXPECT_EQ(f.capture.count(MessageType::kTrigger), triggers_before + 1);
}

TEST(ChainSender, HsAcksRecoveryNotices) {
  SenderFixture f(ProtocolKind::kHS);
  f.sender->start(1);
  f.sim.run_until(0.1);
  f.sender->handle_from_downstream(Message{MessageType::kNotice, 0, 3, 0});
  f.sim.run_until(0.2);
  EXPECT_EQ(f.capture.count(MessageType::kAckNotice), 1u);
}

}  // namespace
}  // namespace sigcomp::protocols
