// EnforceByteBudget: the unified evict → compress → spill → drop ladder over a
// PageStore.
//
// Runs after each materialization when SessionOptions::snapshot_byte_budget is
// set. Rungs 1-3 run in order while the store's live bytes exceed the budget;
// rung 4 compares resident bytes (live + free list):
//   1. evict   — drop worst frontier entries via the session's callback
//                (SM-A* semantics: search work is lost, memory is reclaimed;
//                the session reclaims each evicted snapshot through the
//                O(spine) PageStore::ReleaseBatch path, so an eviction storm
//                costs one shard-lock acquisition per shard touched, not one
//                per dying blob);
//   2. compress — move the coldest blobs into the store's compressed tier
//                (lossless: parked snapshots stay restorable, just slower);
//   3. spill   — push the coldest compressed (or incompressible) payloads to
//                the store's disk tier (PageStoreOptions::spill_dir): still
//                lossless, still transparently restorable via fault-back, but
//                the RAM cost drops to a blob header — this is the rung that
//                lets a parked population's logical bytes dwarf the budget;
//   4. drop    — when live + free-list bytes exceed the budget, return the
//                free list to the host allocator (a free list that fits
//                beside the live bytes stays: it keeps Publish cheap).
//
// Eviction precedes compression so the lossy stage never runs while the
// lossless ones could still be deferred by freeing evictable work. Note the
// converse does not hold round over round: once compression or spilling has
// shrunk live bytes mid-search, later Enforce calls evict *fewer* frontier
// entries than an uncompressed run would — the cold tiers trade byte-for-byte
// eviction parity for keeping more of the search. Spilling follows
// compression so disk pays the codec's ratio (and a faulted-back blob
// re-spills for free: its disk record is retained across fault-back). When the
// spill tier is disabled the rung is skipped.
//
// The budget is enforced against the whole store. With a shared store
// (SessionOptions::store) that is a deliberate fleet-wide residency cap: each
// sharer's Enforce sees every sharer's live bytes but can only evict its own
// frontier, so give sharers the same budget value (or 0 to opt out) rather
// than expecting per-session isolation. Concurrent Enforce calls from sharers
// on different threads are safe: eviction touches only the caller's frontier,
// the store's counters and compression paths are internally synchronized, and
// every caller loops on the same store-wide live-byte count, so the calls
// jointly converge on the one fleet-wide cap (tested in
// page_store_concurrency_test.cc).

#ifndef LWSNAP_SRC_SNAPSHOT_BUDGET_POLICY_H_
#define LWSNAP_SRC_SNAPSHOT_BUDGET_POLICY_H_

#include <cstdint>
#include <functional>

namespace lw {

class PageStore;

// Enforces `budget` (0 = unbounded) over `store`'s resident bytes. `evict` removes
// one frontier entry and returns false when nothing is evictable.
void EnforceByteBudget(PageStore& store, uint64_t budget, const std::function<bool()>& evict);

}  // namespace lw

#endif  // LWSNAP_SRC_SNAPSHOT_BUDGET_POLICY_H_
