// Protocol taxonomy: the five abstract signaling protocols of Ji et al.,
// "A Comparison of Hard-state and Soft-state Signaling Protocols"
// (SIGCOMM 2003), and the mechanism set each one enables.
#pragma once

#include <array>
#include <string_view>

namespace sigcomp {

/// The five abstract protocols along the soft-state / hard-state spectrum.
enum class ProtocolKind {
  kSS,     ///< pure soft-state: best-effort trigger + refresh, timeout removal
  kSSER,   ///< soft-state + best-effort explicit removal message
  kSSRT,   ///< soft-state + reliable triggers (retransmission + ACK) and
           ///< false-removal notification
  kSSRTR,  ///< soft-state + reliable triggers and reliable explicit removal
  kHS,     ///< hard-state: reliable trigger/removal only, external failure
           ///< detector for orphan cleanup (no refresh, no timeout)
};

/// All protocols, in the paper's presentation order.
inline constexpr std::array<ProtocolKind, 5> kAllProtocols = {
    ProtocolKind::kSS, ProtocolKind::kSSER, ProtocolKind::kSSRT,
    ProtocolKind::kSSRTR, ProtocolKind::kHS};

/// Protocols runnable on multi-hop chains and trees, in presentation
/// order.  The paper's Sec. III-B analysis covers SS, SS+RT and HS; since
/// the mechanism-driven StateSlot refactor the executable nodes and the
/// per-path CTMC composition handle explicit removal too, so this is all
/// five (SS+ER/SS+RTR reduce to the SS/SS+RT chain CTMC while no removal
/// is in flight).
inline constexpr std::array<ProtocolKind, 5> kMultiHopProtocols = {
    ProtocolKind::kSS, ProtocolKind::kSSER, ProtocolKind::kSSRT,
    ProtocolKind::kSSRTR, ProtocolKind::kHS};

/// The three protocols of the paper's Sec. III-B multi-hop analysis --
/// also the protocols with DISTINCT chain behavior (SS+ER/SS+RTR replay
/// SS/SS+RT bit-for-bit while no removal is in flight).  The paper-figure
/// benches iterate this subset; churn scenarios, where all five genuinely
/// differ, iterate kMultiHopProtocols.
inline constexpr std::array<ProtocolKind, 3> kPaperMultiHopProtocols = {
    ProtocolKind::kSS, ProtocolKind::kSSRT, ProtocolKind::kHS};

/// The mechanism set a protocol employs.  This is the "spectrum" view of
/// Section II: every protocol is just a combination of these switches.
struct MechanismSet {
  bool refresh = false;            ///< periodic refresh messages from sender
  bool soft_timeout = false;       ///< receiver removes state on timeout
  bool explicit_removal = false;   ///< sender emits a removal message
  bool reliable_trigger = false;   ///< triggers are ACKed and retransmitted
  bool reliable_removal = false;   ///< removals are ACKed and retransmitted
  bool removal_notification = false;  ///< receiver notifies sender of
                                      ///< (possibly false) removals
  bool external_failure_detector = false;  ///< orphan cleanup via external
                                           ///< signal (hard state only)

  friend bool operator==(const MechanismSet&, const MechanismSet&) = default;
};

/// Mechanisms of a protocol (Table in Sec. II / Fig. 1 of the paper).
[[nodiscard]] MechanismSet mechanisms(ProtocolKind kind) noexcept;

/// Canonical short name ("SS", "SS+ER", "SS+RT", "SS+RTR", "HS").
[[nodiscard]] std::string_view to_string(ProtocolKind kind) noexcept;

/// True when the multi-hop machinery (chain/tree nodes, chain CTMC models,
/// session farm) implements `kind`.  The single gate point for every
/// topology-capability check; all five protocols qualify since the
/// StateSlot refactor, but callers keep consulting it so a future protocol
/// outside the set fails loudly in one place.
[[nodiscard]] bool supports_multi_hop(ProtocolKind kind) noexcept;

}  // namespace sigcomp
