// Test-only reference copy of the pre-arena session farm.
//
// The production farm (src/exp/session_farm.cpp) places sessions in
// per-shard arenas, recycles slots and advances shards in slices through
// persistent workers.  This file preserves the original task-per-shard,
// unique_ptr-per-session implementation verbatim -- the
// `ReferenceEventQueue` pattern applied to the farm layer -- so the
// differential suite (test_farm_diff.cpp) can assert the arena rewrite is
// bit-identical, element-wise per session, at every thread count and shard
// size.
//
// Semantics preserved from the pre-arena farm, on purpose:
//  * `peak_sessions_in_flight` is the per-shard in-simulator peak SUMMED
//    over shards -- exact only at a single shard.  The peak-fix lock test
//    compares the production farm's exact merged peak against this
//    single-shard truth.
//  * arena_slot_high_water / arena_chunk_allocations stay zero (there is
//    no arena here).
//
// One later addition: tree sessions honour SessionFarmOptions::teardown
// (window-end removal, one timeout interval of grace, then the stop), so
// the recycling differential can cover trees that cool under teardown.
#pragma once

#include "core/protocol.hpp"
#include "exp/session_farm.hpp"

namespace sigcomp::exp::testing {

/// Reference single-hop farm; same contract as exp::run_session_farm.
[[nodiscard]] SessionFarmResult run_reference_session_farm(
    ProtocolKind kind, const SingleHopParams& params,
    const SessionFarmOptions& options);

/// Reference multi-hop chain farm; same contract as exp::run_session_farm.
[[nodiscard]] SessionFarmResult run_reference_session_farm(
    ProtocolKind kind, const MultiHopParams& params,
    const SessionFarmOptions& options);

/// Reference tree farm; same contract as exp::run_session_farm.
[[nodiscard]] SessionFarmResult run_reference_session_farm(
    ProtocolKind kind, const analytic::TreeParams& params,
    const SessionFarmOptions& options);

}  // namespace sigcomp::exp::testing
