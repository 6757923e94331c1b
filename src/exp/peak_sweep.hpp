// Exact peak of sessions in flight, swept in parallel from per-shard
// sorted endpoint runs, so the farm's final reduce needs no global sort of
// every session's begin and completion times.  Defined in session_farm.cpp,
// beside the reduce that calls it; declared here so tests can drive it on
// hand-built runs.
#pragma once

#include <cstddef>
#include <span>

#include "exp/thread_pool.hpp"

namespace sigcomp::exp {

/// The most sessions in flight at once, over every session's closed
/// interval [begin, completion].  A start at exactly an end's time counts
/// as overlapping: a session is in flight from its begin() through the
/// completion time it records.  The farm records a session's window end
/// there, even for a tree session with teardown, whose completion event
/// comes one grace period later.
///
/// `starts` and `ends` hold the sessions' begin and completion times (each
/// session's end >= its start), cut into runs at `bounds`: run r is
/// [bounds[r], bounds[r + 1]) of both arrays, with bounds.front() == 0 and
/// bounds.back() == starts.size() == ends.size().  Each run of each array is
/// sorted on its own, so a run's i-th start and i-th end need not belong to
/// one session.
///
/// Runs shorter than kSweepChunk (4,096) sessions are first sorted
/// together in place, adjacent runs at a time, so `starts` and `ends` may
/// come back reordered within such groups.  Then the time axis is cut into
/// chunks of about that many starts at sampled start times, and the chunks
/// run through parallel_for: each takes its in-flight count at its left
/// edge from binary searches over every group, then merges and sweeps only
/// its own sub-runs.  No global sort, and scratch per chunk, not per
/// session.  The result is exact, whatever the shard and pool sizes.
[[nodiscard]] std::size_t peak_in_flight(std::span<double> starts,
                                         std::span<double> ends,
                                         std::span<const std::size_t> bounds,
                                         ThreadPool& pool);

}  // namespace sigcomp::exp
