// Batched cross-shard message ring: the deterministic inter-shard fabric of
// the million-session farm.
//
// Topology: one ShardRing per DIRECTED shard pair that ever carries traffic
// (lazily materialized from the static subscription map at farm setup --
// S^2 rings are never allocated).  Each ring is a plain producer-owned
// outbox vector.  The farm's epoch phase gate (exp::parallel_phases)
// separates its two phases in time: during the advance phase only the
// thread stepping the source shard pushes; in the drain phase only the
// thread draining the destination shard reads it.  No two threads ever
// touch a ring at once, so the ring carries no synchronization of its own:
// the gate between the phases is the only fence.
//
// Allocation discipline: the vector reserves its capacity hint at
// construction and grows only while traffic exceeds its high-water mark;
// drain() clears it without releasing capacity, so once warm a ring never
// allocates again, mirroring SessionArena's chunk discipline.
//
// Determinism: entries are stamped (send_time, source session GLOBAL index,
// per-source sequence number).  The stamp is a total order -- seq breaks
// same-time ties from one session, the global index breaks ties across
// sessions -- and every component is invariant to thread count AND shard
// size (a per-ring or per-shard counter would not be: re-sharding reshuffles
// which messages share a ring).  The destination merges all its incoming
// rings and sorts by this stamp, so the delivery order is the same total
// order no matter how sessions were partitioned.  docs/ARCHITECTURE.md,
// "The cross-shard fabric", gives the full argument.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "protocols/message.hpp"
#include "sim/event_queue.hpp"

namespace sigcomp::exp {

/// One message crossing the shard fabric, stamped for deterministic merge.
struct CrossShardEntry {
  sim::Time send_time = 0.0;     ///< simulated time of the push
  std::uint64_t source = 0;      ///< sending session's GLOBAL index
  std::uint64_t seq = 0;         ///< per-source send counter (0, 1, ...)
  std::uint64_t dest = 0;        ///< receiving session's GLOBAL index
  protocols::Message message;    ///< the signaling payload
};

/// The fabric's delivery order: send time, then source global index, then
/// per-source seq.  A strict total order on distinct entries (no session
/// reuses a seq), and every key is shard- and thread-invariant, so sorting a
/// destination's merged drain by this comparator yields the same sequence
/// under any farm decomposition.  Exposed for the adversarial-tie tests.
[[nodiscard]] inline bool fabric_before(const CrossShardEntry& a,
                                        const CrossShardEntry& b) noexcept {
  if (a.send_time != b.send_time) return a.send_time < b.send_time;
  if (a.source != b.source) return a.source < b.source;
  return a.seq < b.seq;
}

/// Sorts a destination shard's merged incoming entries into fabric delivery
/// order (stable sort is unnecessary -- fabric_before is total).
inline void sort_fabric(std::vector<CrossShardEntry>& entries) {
  std::sort(entries.begin(), entries.end(), fabric_before);
}

/// One directed shard pair's outbox of CrossShardEntry.  See the file
/// comment for the phase and allocation contracts.
class ShardRing {
 public:
  /// Reserves room for `capacity_hint` entries up front.
  explicit ShardRing(std::size_t capacity_hint = 64) {
    entries_.reserve(capacity_hint);
  }

  ShardRing(const ShardRing&) = delete;             ///< non-copyable
  ShardRing& operator=(const ShardRing&) = delete;  ///< non-copyable

  /// Producer side (advance phase): enqueues `entry`.
  void push(const CrossShardEntry& entry) {
    entries_.push_back(entry);
    ++pushed_;
  }

  /// Consumer side (drain phase): appends every enqueued entry to `out` in
  /// push order and empties the ring, keeping its capacity.  Returns the
  /// number drained.
  std::size_t drain(std::vector<CrossShardEntry>& out) {
    const std::size_t n = entries_.size();
    out.insert(out.end(), entries_.begin(), entries_.end());
    entries_.clear();
    return n;
  }

  /// Entries currently enqueued.
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// True when no entry is enqueued.
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  /// Entries the ring can hold before its next allocation.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return entries_.capacity();
  }

  /// Entries ever pushed (the farm's fabric_messages accounting).
  [[nodiscard]] std::uint64_t pushed() const noexcept { return pushed_; }

 private:
  std::vector<CrossShardEntry> entries_;
  std::uint64_t pushed_ = 0;
};

/// The farm's ring registry: at most one ShardRing per directed shard pair,
/// materialized at setup from the static subscription map (sessions name
/// their peers before the first slice, so the set of communicating pairs is
/// known up front -- "lazy" means only pairs that talk get a ring, not that
/// rings appear mid-run).  After setup the structure is immutable; workers
/// only touch ring CONTENTS, each ring by the thread running its source
/// shard in the advance phase and its destination shard in the drain phase.
class CrossShardFabric {
 public:
  explicit CrossShardFabric(std::size_t shards) : incoming_(shards) {}

  CrossShardFabric(const CrossShardFabric&) = delete;
  CrossShardFabric& operator=(const CrossShardFabric&) = delete;

  /// Returns the ring src -> dst, materializing it on first request.
  /// Setup-phase only (single-threaded, before workers start).
  ShardRing* ensure_ring(std::uint32_t src, std::uint32_t dst,
                         std::size_t capacity_hint = 64) {
    std::vector<Route>& routes = incoming_[dst];
    for (const Route& r : routes) {
      if (r.src == src) return r.ring.get();
    }
    routes.push_back(Route{src, std::make_unique<ShardRing>(capacity_hint)});
    ShardRing* ring = routes.back().ring.get();
    // Drain order over incoming rings is by ascending source shard.  The
    // subsequent stamp sort makes delivery order independent of it anyway,
    // but a canonical order keeps counter accumulation reproducible.
    std::sort(routes.begin(), routes.end(),
              [](const Route& a, const Route& b) { return a.src < b.src; });
    return ring;
  }

  /// Producer-side lookup of the ring src -> dst; nullptr when the pair was
  /// never materialized.  Binary search over the destination's sorted route
  /// list -- O(log fan-in) per send, no synchronization (the structure is
  /// immutable after setup).
  [[nodiscard]] ShardRing* find_ring(std::uint32_t src,
                                     std::uint32_t dst) noexcept {
    std::vector<Route>& routes = incoming_[dst];
    const auto it = std::lower_bound(
        routes.begin(), routes.end(), src,
        [](const Route& r, std::uint32_t s) { return r.src < s; });
    if (it == routes.end() || it->src != src) return nullptr;
    return it->ring.get();
  }

  /// Drains every ring into destination `dst` (appended to `out`, then
  /// stamp-sorted by the caller).  Consumer side of each ring; called only
  /// by the thread draining shard `dst`, only in the drain phase.
  std::size_t drain_into(std::uint32_t dst,
                         std::vector<CrossShardEntry>& out) {
    std::size_t n = 0;
    for (Route& r : incoming_[dst]) n += r.ring->drain(out);
    return n;
  }

  /// True when no ring holds an undelivered entry.
  [[nodiscard]] bool empty() const noexcept {
    for (const std::vector<Route>& routes : incoming_) {
      for (const Route& r : routes) {
        if (!r.ring->empty()) return false;
      }
    }
    return true;
  }

  /// Total entries ever pushed across all rings (the farm's
  /// fabric_messages counter).
  [[nodiscard]] std::uint64_t total_pushed() const noexcept {
    std::uint64_t n = 0;
    for (const std::vector<Route>& routes : incoming_) {
      for (const Route& r : routes) n += r.ring->pushed();
    }
    return n;
  }

  /// Rings materialized (directed pairs that carry traffic).
  [[nodiscard]] std::size_t rings() const noexcept {
    std::size_t n = 0;
    for (const std::vector<Route>& routes : incoming_) n += routes.size();
    return n;
  }

 private:
  struct Route {
    std::uint32_t src = 0;
    std::unique_ptr<ShardRing> ring;
  };

  /// incoming_[dst] = rings feeding shard dst, sorted by source shard.
  std::vector<std::vector<Route>> incoming_;
};

}  // namespace sigcomp::exp
