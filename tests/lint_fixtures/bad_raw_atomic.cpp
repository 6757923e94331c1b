// Fixture: raw std::atomic outside the audited thread pool
// (exp/thread_pool).  Ad-hoc atomics are how
// nondeterministic cross-thread side channels sneak past the stamped ring
// discipline; the rule is path-scoped, so this file -- not on the
// allowlist -- must trip on every atomic use.
#include <atomic>

struct SideChannel {
  std::atomic<int> counter{0};    // LINT[raw-atomic]
  std::atomic<bool> done{false};  // LINT[raw-atomic]
};

void publish(int* slot, int value) {
  std::atomic_thread_fence(std::memory_order_release);  // LINT[raw-atomic]
  *slot = value;
}
