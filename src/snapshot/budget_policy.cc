#include "src/snapshot/budget_policy.h"

#include "src/snapshot/page_store.h"

namespace lw {

void EnforceByteBudget(PageStore& store, uint64_t budget, const std::function<bool()>& evict) {
  if (budget == 0) {
    return;
  }
  while (store.stats().bytes_live() > budget) {
    if (!evict()) {
      break;
    }
  }
  while (store.stats().bytes_live() > budget) {
    if (!store.CompressOneCold()) {
      break;
    }
  }
  // Spill rung: take cold payloads to disk until resident bytes fit. A no-op
  // when the store has no spill tier.
  while (store.stats().bytes_live() > budget) {
    if (!store.SpillOneCold()) {
      break;
    }
  }
  // Last resort only: when eviction, compression, and spilling could not bring
  // live bytes under the budget, the recycled free list is pure overhead —
  // return it to the host. While the budget is being met, the free list stays
  // (recycling blobs is what keeps Publish off the allocator).
  if (store.stats().bytes_live() > budget) {
    store.TrimFreeList();
  }
}

}  // namespace lw
