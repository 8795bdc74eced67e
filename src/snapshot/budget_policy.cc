#include "src/snapshot/budget_policy.h"

#include "src/snapshot/page_store.h"

namespace lw {

void EnforceByteBudget(PageStore& store, uint64_t budget, const std::function<bool()>& evict) {
  if (budget == 0) {
    return;
  }
  while (store.bytes_live() > budget) {
    if (!evict()) {
      break;
    }
  }
  while (store.bytes_live() > budget) {
    if (!store.CompressOneCold()) {
      break;
    }
  }
  // Spill rung: take cold payloads to disk until live bytes fit. A no-op when
  // the store has no spill tier.
  while (store.bytes_live() > budget) {
    if (!store.SpillOneCold()) {
      break;
    }
  }
  // Drop rung: when live bytes plus the recycled free list exceed the budget,
  // return the free list to the host. A free list that fits beside the live
  // bytes stays (recycling blobs is what keeps Publish off the allocator).
  if (store.bytes_resident() > budget) {
    store.TrimFreeList();
  }
}

}  // namespace lw
