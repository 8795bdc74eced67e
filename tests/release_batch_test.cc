// O(spine) snapshot release with shard-batched blob reclamation:
//   * store-level parity — ReleaseBatch leaves the store (live/free blob and
//     byte counters) bit-identical to releasing the same refs one by one;
//   * exact lock accounting — a batch with dying refs spread over S distinct
//     shards takes exactly S shard-lock holds (asserted via PageRef::shard());
//   * spine-only descent — releasing a map that shares all but D pages with a
//     live sibling visits O(D · height) radix nodes and never descends a
//     shared subtree;
//   * session-level parity — a checkpoint storm ends with exactly the store
//     residency per-ref release would leave, for every engine;
//   * one release path — every page a search publishes dies through
//     ReleaseBatch, however its snapshot is dropped (frontier pops, the
//     current snapshot moving on, session teardown);
//   * concurrency — sessions on different threads batching releases into one
//     shared store never corrupt it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/backtrack.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer) && !defined(__SANITIZE_THREAD__)
#define __SANITIZE_THREAD__ 1
#endif
#endif

namespace lw {
namespace {

bool SkipForMode(SnapshotMode mode, const char** reason) {
#ifdef __SANITIZE_THREAD__
  if (mode == SnapshotMode::kCow) {
    *reason = "CoW SIGSEGV protocol conflicts with TSan signal interposition";
    return true;
  }
#endif
  (void)mode;
  (void)reason;
  return false;
}

// Deterministic distinct page content: (salt, i) is written verbatim into the
// page, so no two pairs collide — each publish mints its own blob (never a
// dedup hit) and no page is all-zero.
void FillPage(uint8_t* buf, uint32_t salt, uint32_t i) {
  for (size_t b = 0; b < kPageSize; ++b) {
    buf[b] = static_cast<uint8_t>((salt * 131 + b * 13) | 1);
  }
  std::memcpy(buf, &salt, sizeof(salt));
  std::memcpy(buf + sizeof(salt), &i, sizeof(i));
}

// --- Store-level parity ----------------------------------------------------------

// The same publish-then-release script against two stores — one releasing
// per-ref (destructor cascade), one through ReleaseBatch — must end with
// identical residency counters: the batch changes lock traffic, nothing else.
TEST(ReleaseBatchStoreTest, BatchedEndStateMatchesPerRef) {
  PageStore per_ref_store;
  PageStore batched_store;
  uint8_t buf[kPageSize];

  auto publish = [&buf](PageStore& store, std::vector<PageRef>* refs,
                        std::vector<PageRef>* keep) {
    for (uint32_t i = 0; i < 96; ++i) {
      FillPage(buf, 1, i);
      refs->push_back(store.Publish(buf));
    }
    // A slice stays alive through copies: those blobs must survive the release.
    for (size_t i = 0; i < 12; ++i) {
      keep->push_back((*refs)[i]);
    }
  };

  std::vector<PageRef> a_refs, a_keep, b_refs, b_keep;
  publish(per_ref_store, &a_refs, &a_keep);
  publish(batched_store, &b_refs, &b_keep);

  a_refs.clear();  // per-ref: each destructor takes its shard lock on its own
  batched_store.ReleaseBatch(b_refs);
  EXPECT_TRUE(b_refs.empty());

  const PageStore::Stats a = per_ref_store.stats();
  const PageStore::Stats b = batched_store.stats();
  EXPECT_EQ(a.live_blobs, b.live_blobs);
  EXPECT_EQ(a.free_blobs, b.free_blobs);
  EXPECT_EQ(a.live_bytes, b.live_bytes);
  EXPECT_EQ(a.free_bytes, b.free_bytes);
  EXPECT_EQ(a.total_published, b.total_published);
  EXPECT_EQ(b.live_blobs, 12u);
  EXPECT_EQ(b.free_blobs, 96u - 12u);
  // Only the batched store paid batch counters; the per-ref one paid none.
  EXPECT_EQ(a.release_batches, 0u);
  EXPECT_EQ(b.release_batches, 1u);
  EXPECT_EQ(b.blobs_recycled_batched, 96u - 12u);
  // Spill is disabled on both stores: neither release path may touch the spill
  // tier, so every spill counter is exactly zero.
  EXPECT_EQ(a.spills, 0u);
  EXPECT_EQ(a.spilled_blobs, 0u);
  EXPECT_EQ(b.spills, 0u);
  EXPECT_EQ(b.spilled_blobs, 0u);
  EXPECT_EQ(b.spill_bytes, 0u);
  EXPECT_EQ(b.faultbacks, 0u);

  // Republish the same content: recycled payloads must serve cleanly.
  for (uint32_t i = 20; i < 40; ++i) {
    FillPage(buf, 1, i);
    PageRef ref = batched_store.Publish(buf);
    EXPECT_TRUE(ref.valid());
    EXPECT_TRUE(ref.EqualsPage(buf));
  }
}

TEST(ReleaseBatchStoreTest, ShardLockCountMatchesDistinctDyingShards) {
  PageStore store;
  uint8_t buf[kPageSize];
  std::vector<PageRef> refs;
  for (uint32_t i = 0; i < 64; ++i) {
    FillPage(buf, 2, i);
    refs.push_back(store.Publish(buf));
  }
  // Pin the first 8: their refcounts stay above zero, so they neither die nor
  // contribute a shard-lock hold.
  std::vector<PageRef> keep(refs.begin(), refs.begin() + 8);

  std::set<uint32_t> dying_shards;
  for (size_t i = 8; i < refs.size(); ++i) {
    dying_shards.insert(refs[i].shard());
  }

  const PageStore::Stats before = store.stats();
  store.ReleaseBatch(refs);
  const PageStore::Stats after = store.stats();
  EXPECT_EQ(after.release_batches - before.release_batches, 1u);
  EXPECT_EQ(after.blobs_recycled_batched - before.blobs_recycled_batched, 64u - 8u);
  EXPECT_EQ(after.release_shard_locks - before.release_shard_locks, dying_shards.size());
  EXPECT_LE(dying_shards.size(), kPageStoreShards);

  // A batch with no dying blobs takes no shard lock at all.
  std::vector<PageRef> copies(keep.begin(), keep.end());
  const PageStore::Stats mid = store.stats();
  store.ReleaseBatch(copies);
  const PageStore::Stats end = store.stats();
  EXPECT_EQ(end.release_shard_locks - mid.release_shard_locks, 0u);
  EXPECT_EQ(end.blobs_recycled_batched - mid.blobs_recycled_batched, 0u);
}

// --- Spine-only descent ----------------------------------------------------------

// Release of a radix map sharing all but D pages with a live sibling must
// visit only the uniquely-owned spine: ≤ 1 + D · height nodes, with every
// shared subtree dropped by a single refcount decrement. The sibling and the
// store survive untouched.
TEST(ReleaseBatchRadixTest, SharedSubtreesAreNeverDescended) {
  PageStore store;
  constexpr uint32_t kPages = 4096;  // height 3 at 4 bits/level
  constexpr int kHeight = 3;
  uint8_t buf[kPageSize];

  PageMap base(kPages);
  for (uint32_t page = 0; page < kPages; ++page) {
    FillPage(buf, 3, page);
    base.Set(page, store.Publish(buf));
  }
  ASSERT_EQ(store.stats().live_blobs, kPages);

  PageMap child = base;  // O(1) structural share
  const uint32_t divergent[] = {7, 1000, 1001, 2048, 4095};
  constexpr size_t kD = sizeof(divergent) / sizeof(divergent[0]);
  for (uint32_t page : divergent) {
    FillPage(buf, 4, page);
    child.Set(page, store.Publish(buf));
  }

  std::vector<PageRef> drain;
  const size_t visited = child.ReleaseInto(&drain);
  // Owned spine only: the D path copies (≤ height nodes each, root shared
  // among them) — a full-tree walk would visit ~4369 nodes.
  EXPECT_LE(visited, 1 + kD * kHeight);
  EXPECT_GE(visited, static_cast<size_t>(kHeight));
  // Every copied leaf contributes its full 16-slot run of refs.
  EXPECT_GE(drain.size(), kD);
  EXPECT_LE(drain.size(), kD * 16);

  store.ReleaseBatch(drain);
  // The D divergent blobs died (their only refs were the child's); everything
  // the base holds is untouched and readable.
  EXPECT_EQ(store.stats().live_blobs, kPages);
  for (uint32_t page : {7u, 1000u, 2048u, 4095u, 0u, 555u}) {
    FillPage(buf, 3, page);
    PageRef ref = base.Get(page);
    ASSERT_TRUE(ref.valid());
    EXPECT_TRUE(ref.EqualsPage(buf)) << "base page " << page << " corrupted by child release";
  }
}

// --- Session-level parity across engines -----------------------------------------

BacktrackSession* Session() { return static_cast<BacktrackSession*>(CurrentExecutor()); }

constexpr uint32_t kStormPages = 24;

struct StormScratch {
  char mailbox[32];
  uint8_t* buf;
  int round;
};

// Each resume dirties a sliding window of pages, so consecutive checkpoints
// share all but a small delta — the shape a release storm reclaims.
void StormGuest(void*) {
  auto* scratch = GuestNew<StormScratch>(Session()->heap());
  scratch->buf = static_cast<uint8_t*>(
      Session()->heap()->Alloc(static_cast<size_t>(kStormPages) * kPageSize));
  scratch->round = 0;
  std::memset(scratch->buf, 0xA1, static_cast<size_t>(kStormPages) * kPageSize);
  for (;;) {
    std::snprintf(scratch->mailbox, sizeof(scratch->mailbox), "r=%d", scratch->round);
    size_t len = sys_yield(scratch->mailbox, sizeof(scratch->mailbox));
    if (len == 0) {
      return;
    }
    scratch->round += std::atoi(scratch->mailbox);
    for (uint32_t i = 0; i < 4; ++i) {
      uint32_t page = (static_cast<uint32_t>(scratch->round) * 4 + i) % kStormPages;
      std::memset(scratch->buf + static_cast<size_t>(page) * kPageSize,
                  (scratch->round * 31 + static_cast<int>(i)) & 0xFF, kPageSize);
    }
  }
}

struct StormRun {
  PageStore::Stats store;
  SessionStats session;
  // Distinct blobs that must stay live once every checkpoint is released: the
  // root's image, the engine's current map and the store's pinned zero page.
  uint64_t retained_blobs = 0;
};

// Appends every blob `map` references that `refs` does not hold yet.
void AddDistinctRefs(const PageMap& map, std::vector<PageRef>* refs) {
  for (uint32_t page = 0; page < map.num_pages(); ++page) {
    PageRef ref = map.Get(page);
    if (ref.valid() && std::find(refs->begin(), refs->end(), ref) == refs->end()) {
      refs->push_back(std::move(ref));
    }
  }
}

StormRun RunCheckpointStorm(SnapshotMode mode) {
  SessionOptions options;
  options.arena_bytes = 8ull << 20;
  options.guest_stack_bytes = 256 * 1024;
  options.snapshot_mode = mode;
  options.output = [](std::string_view) {};
  auto store = std::make_shared<PageStore>();
  options.store = store;

  StormRun run;
  {
    BacktrackSession session(options);
    EXPECT_TRUE(session.Run(&StormGuest, nullptr).ok());
    auto tokens = session.TakeNewCheckpoints();
    EXPECT_EQ(tokens.size(), 1u);
    Checkpoint root = std::move(tokens[0]);
    // The engine's current map is the root's image right now. Holding its
    // blobs makes the expected live set below independent of which snapshot
    // the session keeps as its current candidate.
    std::vector<PageRef> retained = {store->ZeroPage()};
    AddDistinctRefs(session.engine().current_map(), &retained);
    // Star shape: every sibling forks from the same root, sharing all pages
    // but its own small dirty delta — so releasing a sibling actually kills
    // its delta blobs.
    std::vector<Checkpoint> siblings;
    for (int i = 0; i < 16; ++i) {
      // Distinct increments → distinct rounds → every sibling's dirty delta is
      // unique content (its blobs die with its release, not via dedup peers).
      const std::string msg = std::to_string(i + 1);
      EXPECT_TRUE(session.Resume(root, msg.c_str(), msg.size() + 1).ok());
      auto next = session.TakeNewCheckpoints();
      EXPECT_EQ(next.size(), 1u);
      siblings.push_back(std::move(next[0]));
    }
    // Release storm: all siblings, then the root.
    while (!siblings.empty()) {
      EXPECT_TRUE(session.ReleaseCheckpoint(siblings.back()).ok());
      siblings.pop_back();
    }
    EXPECT_TRUE(session.ReleaseCheckpoint(root).ok());
    run.session = session.stats();
    run.store = store->stats();
    AddDistinctRefs(session.engine().current_map(), &retained);
    run.retained_blobs = retained.size();
  }
  return run;
}

class ReleaseStormParityTest : public ::testing::TestWithParam<SnapshotMode> {};

// End-state residency is exactly what per-ref release (the refcount cascade)
// would leave: the batch changes lock traffic and walk order, never which
// blobs live or die. So the live blobs are exactly the retained ones and every
// other published blob is on a free list. The expectation is derived from the
// run itself because the absolute counts include the guest's stack pages,
// whose layout depends on the compiler and sanitizer flags.
// ReleaseBatchStoreTest.BatchedEndStateMatchesPerRef keeps the live per-ref
// comparison at the store level.
TEST_P(ReleaseStormParityTest, BatchedResidencyMatchesPerRef) {
  const char* reason = nullptr;
  if (SkipForMode(GetParam(), &reason)) {
    GTEST_SKIP() << reason;
  }
  const StormRun batched = RunCheckpointStorm(GetParam());
  const uint64_t blob_bytes = sizeof(internal::PageBlob) + kPageSize;

  EXPECT_EQ(batched.store.live_blobs, batched.retained_blobs);
  EXPECT_EQ(batched.store.live_bytes, batched.retained_blobs * blob_bytes);
  EXPECT_EQ(batched.store.free_blobs, batched.store.total_published - batched.retained_blobs);
  EXPECT_EQ(batched.store.free_bytes, batched.store.free_blobs * blob_bytes);
  EXPECT_EQ(batched.session.checkpoints, 17u);
  EXPECT_EQ(batched.session.resumes, 16u);

  // Every release went through ReleaseBatch.
  EXPECT_GT(batched.store.release_batches, 0u);
  EXPECT_GT(batched.store.blobs_recycled_batched, 0u);
  EXPECT_LE(batched.store.release_shard_locks,
            batched.store.release_batches * kPageStoreShards);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, ReleaseStormParityTest,
                         ::testing::Values(SnapshotMode::kCow, SnapshotMode::kFullCopy,
                                           SnapshotMode::kIncremental),
                         [](const ::testing::TestParamInfo<SnapshotMode>& info) {
                           return SnapshotModeName(info.param);
                         });

// --- One release path for every dropped snapshot ---------------------------------

struct QueensBoard {
  int row[16];
  int ld[32];
  int rd[32];
};

void QueensGuest(void* arg) {
  const int n = *static_cast<int*>(arg);
  auto* b = GuestNew<QueensBoard>(Session()->heap());
  std::memset(b, 0, sizeof(QueensBoard));
  if (sys_guess_strategy(StrategyKind::kDfs)) {
    for (int c = 0; c < n; ++c) {
      int r = sys_guess(n);
      if (b->row[r] || b->ld[r + c] || b->rd[n + r - c]) {
        sys_guess_fail();
      }
      b->row[r] = 1;
      b->ld[r + c] = 1;
      b->rd[n + r - c] = 1;
    }
    sys_note_solution();
    sys_guess_fail();
  }
}

class SearchReleasePathTest : public ::testing::TestWithParam<SnapshotMode> {};

// A DFS search drops snapshots implicitly: frontier pops, the current
// snapshot moving on to a sibling, and session teardown. Each dying map must
// still release through ReleaseBatch, so once the session is gone every blob
// but the store's pinned zero page was recycled batched.
TEST_P(SearchReleasePathTest, EveryPublishedPageDiesBatched) {
  const char* reason = nullptr;
  if (SkipForMode(GetParam(), &reason)) {
    GTEST_SKIP() << reason;
  }
  auto store = std::make_shared<PageStore>();
  {
    SessionOptions options;
    options.arena_bytes = 4ull << 20;
    options.guest_stack_bytes = 256 * 1024;
    options.snapshot_mode = GetParam();
    options.store = store;
    options.output = [](std::string_view) {};
    BacktrackSession session(options);
    int n = 6;
    ASSERT_TRUE(session.Run(&QueensGuest, &n).ok());
    EXPECT_EQ(session.stats().solutions, 4u);
  }
  const PageStore::Stats stats = store->stats();
  EXPECT_GT(stats.total_published, 1u);
  EXPECT_EQ(stats.blobs_recycled_batched, stats.total_published - 1);
  EXPECT_EQ(stats.live_blobs, 1u);
}

INSTANTIATE_TEST_SUITE_P(FaultAndScan, SearchReleasePathTest,
                         ::testing::Values(SnapshotMode::kCow, SnapshotMode::kIncremental),
                         [](const ::testing::TestParamInfo<SnapshotMode>& info) {
                           return SnapshotModeName(info.param);
                         });

// --- Concurrency: batched releases into one shared store -------------------------

// Sessions on different worker threads run checkpoint storms against one
// shared store, each draining its releases through ReleaseBatch. The store's
// refcount invariant must hold throughout: after every session dies, only the
// canonical zero page (the store's own pin) may remain live.
TEST(ReleaseBatchConcurrencyTest, ConcurrentSessionStormsSharedStore) {
  auto store = std::make_shared<PageStore>();
  constexpr int kSessions = 4;
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int t = 0; t < kSessions; ++t) {
    threads.emplace_back([store] {
      SessionOptions options;
      options.arena_bytes = 8ull << 20;
      options.guest_stack_bytes = 256 * 1024;
      // Fault-free engine: safe under TSan and off the main thread.
      options.snapshot_mode = SnapshotMode::kIncremental;
      options.store = store;
      options.output = [](std::string_view) {};
      BacktrackSession session(options);
      ASSERT_TRUE(session.Run(&StormGuest, nullptr).ok());
      auto tokens = session.TakeNewCheckpoints();
      ASSERT_EQ(tokens.size(), 1u);
      std::vector<Checkpoint> chain;
      chain.push_back(std::move(tokens[0]));
      for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(session.Resume(chain.back(), "1", 2).ok());
        auto next = session.TakeNewCheckpoints();
        ASSERT_EQ(next.size(), 1u);
        chain.push_back(std::move(next[0]));
      }
      // Half released explicitly mid-life, half dropped with the session (the
      // destructor reclaims them through the same batch path).
      for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(session.ReleaseCheckpoint(chain[static_cast<size_t>(i) * 2]).ok());
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  const PageStore::Stats stats = store->stats();
  EXPECT_LE(stats.live_blobs, 1u);  // only the store's pinned zero page
  EXPECT_GT(stats.release_batches, 0u);
  EXPECT_GT(stats.blobs_recycled_batched, 0u);
}

}  // namespace
}  // namespace lw
