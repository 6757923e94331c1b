#include "core/protocol.hpp"

#include <gtest/gtest.h>

namespace sigcomp {
namespace {

TEST(Protocol, NamesMatchPaper) {
  EXPECT_EQ(to_string(ProtocolKind::kSS), "SS");
  EXPECT_EQ(to_string(ProtocolKind::kSSER), "SS+ER");
  EXPECT_EQ(to_string(ProtocolKind::kSSRT), "SS+RT");
  EXPECT_EQ(to_string(ProtocolKind::kSSRTR), "SS+RTR");
  EXPECT_EQ(to_string(ProtocolKind::kHS), "HS");
}

TEST(Protocol, PureSoftStateMechanisms) {
  const MechanismSet m = mechanisms(ProtocolKind::kSS);
  EXPECT_TRUE(m.refresh);
  EXPECT_TRUE(m.soft_timeout);
  EXPECT_FALSE(m.explicit_removal);
  EXPECT_FALSE(m.reliable_trigger);
  EXPECT_FALSE(m.reliable_removal);
  EXPECT_FALSE(m.removal_notification);
  EXPECT_FALSE(m.external_failure_detector);
}

TEST(Protocol, ExplicitRemovalOnlyAddsRemoval) {
  const MechanismSet ss = mechanisms(ProtocolKind::kSS);
  MechanismSet expected = ss;
  expected.explicit_removal = true;
  EXPECT_EQ(mechanisms(ProtocolKind::kSSER), expected);
}

TEST(Protocol, ReliableTriggerAddsNotification) {
  const MechanismSet m = mechanisms(ProtocolKind::kSSRT);
  EXPECT_TRUE(m.reliable_trigger);
  EXPECT_TRUE(m.removal_notification);
  EXPECT_FALSE(m.explicit_removal);
  EXPECT_FALSE(m.reliable_removal);
}

TEST(Protocol, SsRtrHasEverythingSoft) {
  const MechanismSet m = mechanisms(ProtocolKind::kSSRTR);
  EXPECT_TRUE(m.refresh);
  EXPECT_TRUE(m.soft_timeout);
  EXPECT_TRUE(m.explicit_removal);
  EXPECT_TRUE(m.reliable_trigger);
  EXPECT_TRUE(m.reliable_removal);
  EXPECT_FALSE(m.external_failure_detector);
}

TEST(Protocol, HardStateHasNoSoftMechanisms) {
  const MechanismSet m = mechanisms(ProtocolKind::kHS);
  EXPECT_FALSE(m.refresh);
  EXPECT_FALSE(m.soft_timeout);
  EXPECT_TRUE(m.explicit_removal);
  EXPECT_TRUE(m.reliable_trigger);
  EXPECT_TRUE(m.reliable_removal);
  EXPECT_TRUE(m.external_failure_detector);
}

TEST(Protocol, MultiHopSubsetIsConsistent) {
  // Since the mechanism-driven StateSlot refactor every protocol runs on
  // chains and trees, in presentation order.
  ASSERT_EQ(kMultiHopProtocols.size(), kAllProtocols.size());
  for (std::size_t i = 0; i < kAllProtocols.size(); ++i) {
    EXPECT_EQ(kMultiHopProtocols[i], kAllProtocols[i]);
  }
  for (const ProtocolKind kind : kAllProtocols) {
    EXPECT_TRUE(supports_multi_hop(kind)) << to_string(kind);
  }
  // The paper's Sec. III-B subset (the distinct chain CTMCs).
  EXPECT_EQ(kPaperMultiHopProtocols.size(), 3u);
  EXPECT_EQ(kPaperMultiHopProtocols[0], ProtocolKind::kSS);
  EXPECT_EQ(kPaperMultiHopProtocols[1], ProtocolKind::kSSRT);
  EXPECT_EQ(kPaperMultiHopProtocols[2], ProtocolKind::kHS);
}

}  // namespace
}  // namespace sigcomp
