// Pre-sized per-shard session arena with free-list slot reuse.
//
// The million-session farm places every per-session object (channels,
// engines, RNG streams, metric accumulators -- one Session aggregate) into
// chunked raw storage owned by the shard: an arriving session
// placement-constructs into a recycled slot, a finished session moves to a
// cooling list and is destroyed + recycled once it is quiescent.  This is
// the sim::EventQueue pooled-slot discipline lifted to whole sessions, and
// tests assert it the same way (flat slot_capacity(), flat
// chunk_allocations(), flat EventCallback::heap_allocations()).  For
// single-hop sessions, which live entirely in their slot, steady-state
// arrival/teardown performs ZERO heap allocations.  A tree session recycles
// its slot the same way but allocates as it is built: its Topology and the
// one block that holds its nodes, channels and per-edge arrays, then its
// membership and failure processes -- 11 blocks on tree_churn's 21-node
// tree (TreeFootprint.* bounds them) -- all freed when the slot is reused.
//
// Recycling safety is the session type's contract, not the arena's: a slot
// is only reused after `T::quiescent()` returns true -- no pending event
// can still reference the object.  For single-hop sessions that means
// "absorbed AND both channels drained"; for tree sessions "completed,
// every edge channel drained and no node timer armed", their membership
// timers having been defused (sim::Simulator::defuse) when the session
// finished, so those events still run, as no-ops, and the farm's event
// counts are unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

namespace sigcomp::exp {

/// Chunked object pool for session state.  `T` must expose
/// `bool quiescent() const` -- true when no pending simulator event can
/// still reference the object, making destruction + slot reuse safe.
template <typename T>
class SessionArena {
 public:
  /// `capacity_hint` is the expected session count of the owning shard;
  /// chunks are sized min(hint, 256) so a farm of many tiny shards does not
  /// over-allocate while a big shard amortizes growth.
  explicit SessionArena(std::size_t capacity_hint)
      : chunk_size_(capacity_hint < kMaxChunk
                        ? (capacity_hint > 0 ? capacity_hint : 1)
                        : kMaxChunk) {}

  SessionArena(const SessionArena&) = delete;             ///< non-copyable
  SessionArena& operator=(const SessionArena&) = delete;  ///< non-copyable

  /// Destroys every live and cooling occupant, then frees the chunks.
  /// Destroy the arena BEFORE its Simulator so session destructors may
  /// still touch it.
  ~SessionArena() {
    for (std::uint32_t slot = 0; slot < next_unused_; ++slot) {
      if (state_[slot] != State::kFree) slot_ptr(slot)->~T();
    }
    for (T* chunk : chunks_) {
      ::operator delete(static_cast<void*>(chunk),
                        std::align_val_t{alignof(T)});
    }
  }

  /// Constructs a session in a pooled slot and returns {slot, object}.
  /// Probes a few cooling entries first (destroying + recycling the
  /// quiescent ones), so steady-state churn runs entirely off the free
  /// list; a new chunk is allocated only when the pool's high-water mark
  /// grows.
  template <typename... Args>
  std::pair<std::uint32_t, T*> spawn(Args&&... args) {
    reclaim();
    if (free_.empty()) {
      // Before growing the pool, sweep the WHOLE cooling list: a slot is
      // only ever created when no recyclable slot exists, which is what
      // makes slot_capacity() a true high-water mark of live + cooling
      // sessions (and growth a ramp-up-only event).  The sweep is O(cooling)
      // but runs only where the alternative is a chunk allocation.
      reclaim_all();
    }
    std::uint32_t slot = 0;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      if (next_unused_ == slot_count_) grow();
      slot = next_unused_++;
    }
    T* ptr = slot_ptr(slot);
    ::new (static_cast<void*>(ptr)) T(std::forward<Args>(args)...);
    state_[slot] = State::kLive;
    return {slot, ptr};
  }

  /// Moves a finished session to the cooling list.  The object stays
  /// constructed (stragglers may still deliver to it) until a later spawn
  /// finds it quiescent, destroys it and recycles the slot.
  void retire(std::uint32_t slot) {
    state_[slot] = State::kCooling;
    cooling_.push_back(slot);
  }

  /// Slots ever created -- the pool's high-water mark of concurrently
  /// constructed sessions.  Free-list recycling keeps this far below the
  /// total session count under churn; tests assert it.
  [[nodiscard]] std::size_t slot_capacity() const noexcept {
    return next_unused_;
  }

  /// Chunk allocations performed since construction.  Flat in steady state
  /// -- the arena's `heap_allocations()`-style zero-allocation counter.
  [[nodiscard]] std::size_t chunk_allocations() const noexcept {
    return chunks_.size();
  }

  /// Sessions currently awaiting quiescence on the cooling list.
  [[nodiscard]] std::size_t cooling() const noexcept { return cooling_.size(); }

 private:
  enum class State : unsigned char { kFree, kLive, kCooling };

  /// Chunk-size cap: bounds per-shard slack to 256 sessions' storage.
  static constexpr std::size_t kMaxChunk = 256;
  /// Cooling entries examined per spawn.  The probe cursor rotates through
  /// the list across spawns, so a few slow-to-quiesce sessions cannot
  /// head-block reclamation -- every entry is revisited within
  /// cooling()/kCoolingProbe arrivals -- while the arrival path still never
  /// scans the list whole.
  static constexpr std::size_t kCoolingProbe = 8;

  [[nodiscard]] T* slot_ptr(std::uint32_t slot) noexcept {
    return chunks_[slot / chunk_size_] + slot % chunk_size_;
  }

  void reclaim() {
    std::size_t probes = cooling_.size() < kCoolingProbe ? cooling_.size()
                                                         : kCoolingProbe;
    while (probes-- > 0 && !cooling_.empty()) {
      if (scan_ >= cooling_.size()) scan_ = 0;
      const std::uint32_t slot = cooling_[scan_];
      if (slot_ptr(slot)->quiescent()) {
        slot_ptr(slot)->~T();
        state_[slot] = State::kFree;
        free_.push_back(slot);
        // Swap-remove: O(1), allocation-free; the swapped-in entry is
        // examined by the next probe (order is only a heuristic -- slot
        // choice cannot affect results, sessions are keyed by global
        // index, not address).
        cooling_[scan_] = cooling_.back();
        cooling_.pop_back();
      } else {
        ++scan_;
      }
    }
  }

  /// Destroys and recycles EVERY quiescent cooling session (the
  /// free-list-empty slow path of spawn).
  void reclaim_all() {
    std::size_t i = 0;
    while (i < cooling_.size()) {
      const std::uint32_t slot = cooling_[i];
      if (slot_ptr(slot)->quiescent()) {
        slot_ptr(slot)->~T();
        state_[slot] = State::kFree;
        free_.push_back(slot);
        cooling_[i] = cooling_.back();
        cooling_.pop_back();
      } else {
        ++i;
      }
    }
  }

  void grow() {
    T* chunk = static_cast<T*>(
        ::operator new(chunk_size_ * sizeof(T), std::align_val_t{alignof(T)}));
    chunks_.push_back(chunk);
    slot_count_ += chunk_size_;
    // Reserve the bookkeeping vectors to the new capacity now, so pushes on
    // the steady-state retire/reclaim paths never reallocate.
    state_.resize(slot_count_, State::kFree);
    free_.reserve(slot_count_);
    cooling_.reserve(slot_count_);
  }

  std::size_t chunk_size_;
  std::vector<T*> chunks_;
  std::vector<State> state_;
  std::vector<std::uint32_t> free_;     ///< recyclable slots (LIFO)
  std::vector<std::uint32_t> cooling_;  ///< retired, awaiting quiescence
  std::size_t scan_ = 0;                ///< rotating reclaim probe cursor
  std::uint32_t next_unused_ = 0;       ///< slots ever handed out
  std::size_t slot_count_ = 0;          ///< slots backed by chunks
};

}  // namespace sigcomp::exp
