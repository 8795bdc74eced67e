// Syscall-coalesced Restore (engine.h):
//   * every mode — a backtracking script ends with the arena byte-equal to the
//     target snapshot's image; kCow pays exactly 2 mprotect calls per
//     coalesced run, the fault-free modes pay none;
//   * syscall coalescing — a CoW restore of a delta spread over R contiguous
//     runs issues exactly 2·R mprotect calls (batch-unprotect + batch-
//     reprotect), asserted via restore_mprotect_calls/restore_runs_coalesced;
//   * hot-page skip — unchanged hot pages are memcmp'd and skipped
//     (pages_restore_skipped), changed ones are copied.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/core/arena.h"
#include "src/snapshot/engine.h"

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

GuestArena::Layout SmallLayout() {
  GuestArena::Layout layout;
  layout.arena_bytes = 2ull << 20;
  layout.stack_bytes = 256 * 1024;
  layout.guard_bytes = 16 * kPageSize;
  return layout;
}

SnapshotEngine::Env MakeEnv(GuestArena* arena, PageStore* store, SnapshotEngineStats* stats,
                            uint32_t hot_page_limit) {
  SnapshotEngine::Env env;
  env.arena = arena;
  env.store = store;
  env.stats = stats;
  env.hot_page_limit = hot_page_limit;
  env.owner = 1;
  return env;
}

// One round of deterministic page content: a spread of distinct fills plus a
// page repeated across rounds (so restores cross both fresh and deduped blobs).
void WriteRound(GuestArena& arena, int round) {
  for (uint32_t page = 1; page <= 80; ++page) {
    std::memset(arena.PageAddr(page), static_cast<int>((page * 7 + round * 13) & 0xFF),
                kPageSize);
  }
  std::memset(arena.PageAddr(90), 0x55, kPageSize);
  std::memset(arena.PageAddr(92), static_cast<int>(round), kPageSize);
}

// Guest-write stand-in between restores: dirties a few scattered runs so each
// restore has live divergence on top of the map diff. Under CoW these writes
// fault on the calling thread (the engine ctor installed its sigaltstack).
void Scribble(GuestArena& arena, int salt) {
  for (uint32_t page : {5u, 6u, 7u, 50u, 83u, 84u}) {
    std::memset(arena.PageAddr(page), static_cast<int>((page + salt) & 0xFF), kPageSize);
  }
}

class RestoreAccountingTest : public ::testing::TestWithParam<SnapshotMode> {};

TEST_P(RestoreAccountingTest, RestoresTargetImageAndCountsProtectionSyscalls) {
  const char* reason = nullptr;
  if (SkipForMode(GetParam(), &reason)) {
    GTEST_SKIP() << reason;
  }
  PageStore store;
  GuestArena arena(SmallLayout());
  SnapshotEngineStats stats;
  SnapshotEngine engine(GetParam(), MakeEnv(&arena, &store, &stats, 16));

  std::vector<Snapshot> snaps(6);
  for (int round = 0; round < 6; ++round) {
    WriteRound(arena, round);
    engine.Materialize(snaps[round]);
  }
  // Backtrack shape: live writes, jump down the tree, live writes, jump
  // further down, then forward again — exercising dirty-set restores, map-diff
  // restores, and (CoW) hot-page compares in one script.
  Scribble(arena, 101);
  engine.Restore(snaps[3]);
  Scribble(arena, 202);
  engine.Restore(snaps[1]);
  engine.Restore(snaps[4]);

  // The arena now holds exactly what round 4 wrote, and zero elsewhere.
  GuestArena reference_arena(SmallLayout());
  WriteRound(reference_arena, 4);
  for (uint32_t page = 0; page < arena.num_pages(); ++page) {
    if (arena.InGuard(page)) {
      continue;  // PROT_NONE forever; never part of any snapshot
    }
    EXPECT_EQ(std::memcmp(arena.PageAddr(page), reference_arena.PageAddr(page), kPageSize), 0)
        << "page " << page << " diverged from the restored snapshot";
  }
  EXPECT_GT(stats.pages_restored, 0u);

  // kCow batches protection: exactly two syscalls per coalesced run.
  // Fault-free modes pay none at all.
  EXPECT_LE(stats.restore_mprotect_calls, 2 * stats.restore_runs_coalesced);
  if (GetParam() == SnapshotMode::kCow) {
    EXPECT_GT(stats.restore_runs_coalesced, 0u);
    EXPECT_EQ(stats.restore_mprotect_calls, 2 * stats.restore_runs_coalesced);
  }
  if (GetParam() == SnapshotMode::kFullCopy || GetParam() == SnapshotMode::kIncremental) {
    EXPECT_EQ(stats.restore_mprotect_calls, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, RestoreAccountingTest,
                         ::testing::Values(SnapshotMode::kCow, SnapshotMode::kFullCopy,
                                           SnapshotMode::kIncremental),
                         [](const ::testing::TestParamInfo<SnapshotMode>& info) {
                           return SnapshotModeName(info.param);
                         });

// --- Syscall coalescing ----------------------------------------------------------

// A 16-page delta spread over 3 contiguous runs must cost exactly 2·3 mprotect
// calls — the per-page path this replaces paid 2 per page (32). Hot pages are
// disabled so the whole delta goes through the protected-set path.
TEST(CowRestoreCoalescingTest, DeltaOverThreeRunsCostsTwoSyscallsPerRun) {
#ifdef __SANITIZE_THREAD__
  GTEST_SKIP() << "CoW SIGSEGV protocol conflicts with TSan signal interposition";
#endif
  PageStore store;
  GuestArena arena(SmallLayout());
  SnapshotEngineStats stats;
  SnapshotEngine engine(SnapshotMode::kCow, MakeEnv(&arena, &store, &stats, 0));

  Snapshot base;
  engine.Materialize(base);  // all-zero baseline

  std::vector<uint32_t> delta;
  for (uint32_t page = 10; page <= 19; ++page) delta.push_back(page);
  for (uint32_t page = 40; page <= 44; ++page) delta.push_back(page);
  delta.push_back(100);
  for (uint32_t page : delta) {
    std::memset(arena.PageAddr(page), 0xAB, kPageSize);  // faults, marks dirty
  }

  engine.Restore(base);
  EXPECT_EQ(stats.restore_runs_coalesced, 3u);
  EXPECT_EQ(stats.restore_mprotect_calls, 6u);
  EXPECT_EQ(stats.pages_restored, delta.size());
  for (uint32_t page : delta) {
    EXPECT_EQ(arena.PageAddr(page)[0], 0u) << "page " << page << " not rolled back";
  }

  // A restore with nothing to do must not issue any protection syscalls.
  engine.Restore(base);
  EXPECT_EQ(stats.restore_runs_coalesced, 3u);
  EXPECT_EQ(stats.restore_mprotect_calls, 6u);
  EXPECT_EQ(stats.pages_restored, delta.size());
}

// --- Hot-page skip ---------------------------------------------------------------

TEST(CowRestoreHotSkipTest, UnchangedHotPagesAreComparedNotCopied) {
#ifdef __SANITIZE_THREAD__
  GTEST_SKIP() << "CoW SIGSEGV protocol conflicts with TSan signal interposition";
#endif
  PageStore store;
  GuestArena arena(SmallLayout());
  SnapshotEngineStats stats;
  SnapshotEngine engine(SnapshotMode::kCow, MakeEnv(&arena, &store, &stats, 8));

  // Page 10 dirtied every round goes hot after kHotPromoteAfter consecutive
  // dirty snapshots.
  std::vector<Snapshot> snaps(6);
  for (int round = 0; round < 6; ++round) {
    std::memset(arena.PageAddr(10), round + 1, kPageSize);
    engine.Materialize(snaps[round]);
  }
  ASSERT_GT(stats.hot_promotions, 0u);

  // Live memory already equals snaps[5]; the hot page is memcmp'd and skipped.
  const uint64_t restored_before = stats.pages_restored;
  engine.Restore(snaps[5]);
  EXPECT_EQ(stats.pages_restored, restored_before);
  EXPECT_GE(stats.pages_restore_skipped, 1u);

  // Restoring down the chain must copy the (now divergent) hot page.
  engine.Restore(snaps[0]);
  EXPECT_EQ(stats.pages_restored, restored_before + 1);
  EXPECT_EQ(arena.PageAddr(10)[0], 1u);
}

}  // namespace
}  // namespace lw
