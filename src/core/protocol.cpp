#include "core/protocol.hpp"

namespace sigcomp {

MechanismSet mechanisms(ProtocolKind kind) noexcept {
  MechanismSet m;
  switch (kind) {
    case ProtocolKind::kSS:
      m.refresh = true;
      m.soft_timeout = true;
      break;
    case ProtocolKind::kSSER:
      m.refresh = true;
      m.soft_timeout = true;
      m.explicit_removal = true;
      break;
    case ProtocolKind::kSSRT:
      m.refresh = true;
      m.soft_timeout = true;
      m.reliable_trigger = true;
      m.removal_notification = true;
      break;
    case ProtocolKind::kSSRTR:
      m.refresh = true;
      m.soft_timeout = true;
      m.explicit_removal = true;
      m.reliable_trigger = true;
      m.reliable_removal = true;
      m.removal_notification = true;
      break;
    case ProtocolKind::kHS:
      m.explicit_removal = true;
      m.reliable_trigger = true;
      m.reliable_removal = true;
      m.removal_notification = true;
      m.external_failure_detector = true;
      break;
  }
  return m;
}

std::string_view to_string(ProtocolKind kind) noexcept {
  switch (kind) {
    case ProtocolKind::kSS: return "SS";
    case ProtocolKind::kSSER: return "SS+ER";
    case ProtocolKind::kSSRT: return "SS+RT";
    case ProtocolKind::kSSRTR: return "SS+RTR";
    case ProtocolKind::kHS: return "HS";
  }
  return "?";
}

bool supports_multi_hop(ProtocolKind kind) noexcept {
  for (const ProtocolKind supported : kMultiHopProtocols) {
    if (kind == supported) return true;
  }
  return false;
}

}  // namespace sigcomp
