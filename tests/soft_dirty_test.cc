// Kernel-assisted dirty tracking: the SoftDirtyTracker capability probe and
// arbiter, the kSoftDirty zero-fault/zero-scan contract, kAdaptive's
// mechanism selection, accounting and graceful fallback, and the lazy
// signal-state invariant (handler + sigaltstack installed only when an engine
// actually needs the SIGSEGV protocol).
//
// Ordering matters for the signal-state tests: they observe the *process*
// SIGSEGV disposition, which CoW installation changes irreversibly. They are
// declared (and therefore run) first, before any test constructs a CoW-mode
// engine in this binary. Kernel-specific tests self-skip with the probe's
// reason on hosts without soft-dirty support.

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <sys/mman.h>
#include <thread>
#include <vector>

#include "src/core/arena.h"
#include "src/core/backtrack.h"
#include "src/snapshot/engine.h"
#include "src/snapshot/soft_dirty.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer) && !defined(__SANITIZE_THREAD__)
#define __SANITIZE_THREAD__ 1
#endif
#endif

namespace lw {
namespace {

GuestArena::Layout SmallLayout() {
  GuestArena::Layout layout;
  layout.arena_bytes = 2ull << 20;
  layout.stack_bytes = 256 * 1024;
  layout.guard_bytes = 16 * kPageSize;
  return layout;
}

SnapshotEngine::Env MakeEnv(GuestArena* arena, PageStore* store, SnapshotEngineStats* stats) {
  SnapshotEngine::Env env;
  env.arena = arena;
  env.store = store;
  env.stats = stats;
  return env;
}

// --- Lazy signal state (must run before any CoW engine exists) -------------------

// A whole fault-free session end to end — arena, engine, guest, snapshots,
// restores — must leave the process SIGSEGV disposition at default and never
// install or replace a sigaltstack on its driving thread. "Skipped, not just
// unused." That thread's altstack is compared against what it was before
// the session existed rather than against "none": sanitizer runtimes (ASan)
// install their own altstack on every thread they start.
TEST(ASignalStateTest, FaultFreeSessionLeavesSignalStateUntouched) {
#ifdef __SANITIZE_THREAD__
  GTEST_SKIP() << "TSan interposes signal dispositions";
#endif
  stack_t before{};
  stack_t after{};
  bool recorded = false;
  uint64_t solutions = 0;
  std::thread runner([&before, &after, &recorded, &solutions] {
    ASSERT_EQ(sigaltstack(nullptr, &before), 0);
    int n = 6;
    SessionOptions options;
    options.arena_bytes = 1ull << 20;
    options.guest_stack_bytes = 256 * 1024;
    options.snapshot_mode = SnapshotMode::kIncremental;
    options.output = [](std::string_view) {};
    BacktrackSession session(options);
    auto guest = [](void* arg) {
      int queens = *static_cast<int*>(arg);
      struct Board {
        int row[16];
        int ld[32];
        int rd[32];
      };
      auto* session = static_cast<BacktrackSession*>(CurrentExecutor());
      auto* b = GuestNew<Board>(session->heap());
      std::memset(b, 0, sizeof(Board));
      if (sys_guess_strategy(StrategyKind::kDfs)) {
        for (int c = 0; c < queens; ++c) {
          int r = sys_guess(queens);
          if (b->row[r] || b->ld[r + c] || b->rd[queens + r - c]) {
            sys_guess_fail();
          }
          b->row[r] = 1;
          b->ld[r + c] = 1;
          b->rd[queens + r - c] = 1;
        }
        sys_note_solution();
        sys_guess_fail();
      }
    };
    ASSERT_TRUE(session.Run(guest, &n).ok());
    solutions = session.stats().solutions;
    ASSERT_EQ(sigaltstack(nullptr, &after), 0);
    recorded = true;
  });
  runner.join();
  EXPECT_EQ(solutions, 4u);  // 6-queens
  ASSERT_TRUE(recorded);
  EXPECT_EQ(after.ss_sp, before.ss_sp) << "fault-free session installed a sigaltstack";
  EXPECT_EQ(after.ss_size, before.ss_size) << "fault-free session installed a sigaltstack";
  EXPECT_EQ(after.ss_flags, before.ss_flags) << "fault-free session installed a sigaltstack";

  struct sigaction sa{};
  ASSERT_EQ(sigaction(SIGSEGV, nullptr, &sa), 0);
  EXPECT_EQ(sa.sa_flags & SA_SIGINFO, 0) << "fault-free session installed a SIGSEGV handler";
  EXPECT_TRUE(sa.sa_handler == SIG_DFL) << "SIGSEGV disposition changed";
}

TEST(ASignalStateTest, CowEngineInstallsHandlerLazily) {
#ifdef __SANITIZE_THREAD__
  GTEST_SKIP() << "TSan interposes signal dispositions";
#endif
  GuestArena arena(SmallLayout());
  PageStore store;
  SnapshotEngineStats stats;
  auto env = MakeEnv(&arena, &store, &stats);
  env.hot_page_limit = 8;
  auto engine = MakeSnapshotEngine(SnapshotMode::kCow, env);
  EXPECT_TRUE(engine->NeedsSignalProtocol());

  struct sigaction sa{};
  ASSERT_EQ(sigaction(SIGSEGV, nullptr, &sa), 0);
  EXPECT_NE(sa.sa_flags & SA_SIGINFO, 0) << "CoW engine did not install the SIGSEGV handler";

  // And the protocol actually works after lazy installation.
  Snapshot snap;
  std::memset(arena.PageAddr(3), 0xCC, kPageSize);
  EXPECT_GE(arena.cow_faults(), 1u);
  engine->Materialize(snap);
  std::memset(arena.PageAddr(3), 0xDD, kPageSize);
  engine->Restore(snap);
  EXPECT_EQ(arena.PageAddr(3)[0], 0xCC);
}

// --- Capability probe ------------------------------------------------------------

TEST(SoftDirtyProbeTest, ProbeIsConsistentAndLogsReason) {
  Status status = SoftDirtyTracker::Probe();
  EXPECT_EQ(status.ok(), SoftDirtyTracker::Supported());
  if (status.ok()) {
    std::fprintf(stderr, "[soft-dirty] supported on this host\n");
  } else {
    std::fprintf(stderr, "[soft-dirty] unavailable: %s\n", status.ToString().c_str());
    EXPECT_FALSE(status.message().empty());
  }
  // Cached: a second probe gives the identical answer.
  EXPECT_EQ(SoftDirtyTracker::Probe().ok(), status.ok());
}

// --- Tracker semantics (kernel-specific; skip without support) -------------------

class SoftDirtyTrackerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!SoftDirtyTracker::Supported()) {
      GTEST_SKIP() << "soft-dirty unavailable: " << SoftDirtyTracker::Probe().ToString();
    }
  }
};

struct MappedPages {
  explicit MappedPages(uint32_t pages) : num_pages(pages) {
    mem = static_cast<uint8_t*>(mmap(nullptr, static_cast<size_t>(pages) * kPageSize,
                                     PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0));
    EXPECT_NE(mem, MAP_FAILED);
  }
  ~MappedPages() { munmap(mem, static_cast<size_t>(num_pages) * kPageSize); }
  uint8_t* page(uint32_t p) { return mem + static_cast<size_t>(p) * kPageSize; }
  uint8_t* mem;
  uint32_t num_pages;
};

TEST_F(SoftDirtyTrackerTest, HarvestReportsExactWriteSet) {
  MappedPages region(32);
  SoftDirtyTracker tracker(region.mem, region.num_pages);
  ASSERT_TRUE(tracker.DiscardAndClear().ok());

  region.page(1)[0] = 1;
  region.page(5)[100] = 2;
  region.page(30)[kPageSize - 1] = 3;
  std::vector<uint32_t> pages;
  ASSERT_TRUE(tracker.HarvestAndClear(pages).ok());
  EXPECT_EQ(pages, (std::vector<uint32_t>{1, 5, 30}));

  // The clear started a fresh interval: nothing pending now.
  ASSERT_TRUE(tracker.HarvestAndClear(pages).ok());
  EXPECT_TRUE(pages.empty());
  EXPECT_GT(tracker.pagemap_entries_read(), 0u);
  EXPECT_GE(tracker.clear_refs_writes(), 3u);
}

TEST_F(SoftDirtyTrackerTest, HarvestWithoutClearKeepsPagesPending) {
  MappedPages region(8);
  SoftDirtyTracker tracker(region.mem, region.num_pages);
  ASSERT_TRUE(tracker.DiscardAndClear().ok());

  region.page(4)[0] = 1;
  std::vector<uint32_t> pages;
  ASSERT_TRUE(tracker.Harvest(pages).ok());
  EXPECT_EQ(pages, (std::vector<uint32_t>{4}));
  ASSERT_TRUE(tracker.Harvest(pages).ok());
  EXPECT_EQ(pages, (std::vector<uint32_t>{4}));  // still pending
  ASSERT_TRUE(tracker.HarvestAndClear(pages).ok());
  EXPECT_EQ(pages, (std::vector<uint32_t>{4}));  // consumed now
  ASSERT_TRUE(tracker.Harvest(pages).ok());
  EXPECT_TRUE(pages.empty());
}

// The heart of the arbiter: clear_refs is process-wide, so one tracker's
// clear must not lose another tracker's pending writes.
TEST_F(SoftDirtyTrackerTest, PendingWritesSurviveAnotherTrackersClear) {
  MappedPages region_a(16);
  MappedPages region_b(16);
  SoftDirtyTracker a(region_a.mem, region_a.num_pages);
  SoftDirtyTracker b(region_b.mem, region_b.num_pages);
  ASSERT_TRUE(a.DiscardAndClear().ok());

  region_a.page(2)[0] = 1;  // pending in A
  std::vector<uint32_t> pages;
  ASSERT_TRUE(b.HarvestAndClear(pages).ok());  // B clears the whole process
  EXPECT_TRUE(pages.empty());
  region_a.page(3)[0] = 1;  // written after B's clear
  ASSERT_TRUE(a.HarvestAndClear(pages).ok());
  EXPECT_EQ(pages, (std::vector<uint32_t>{2, 3}))
      << "a page written before another tracker's clear_refs was lost";
}

// --- kSoftDirty: the zero-fault / zero-scan acceptance contract ------------------

TEST_F(SoftDirtyTrackerTest, EngineMaterializesOnePageDeltaWithNoFaultsNoScan) {
  // Large arena: 64 MiB, so a full scan or full copy would be ~16k pages.
  GuestArena::Layout layout;
  layout.arena_bytes = 64ull << 20;
  layout.stack_bytes = 1ull << 20;
  layout.guard_bytes = 16 * kPageSize;
  GuestArena arena(layout);
  PageStore store;
  SnapshotEngineStats stats;
  {
    auto engine = MakeSnapshotEngine(SnapshotMode::kSoftDirty, MakeEnv(&arena, &store, &stats));
    EXPECT_FALSE(engine->NeedsSignalProtocol());
    Snapshot base;
    engine->Materialize(base);  // settles construction-time writes

    std::memset(arena.PageAddr(1234), 0xAB, kPageSize);
    const uint64_t mat_before = stats.pages_materialized;
    Snapshot snap;
    engine->Materialize(snap);

    // Exactly the one-page delta, discovered by the kernel:
    EXPECT_EQ(stats.pages_materialized, mat_before + 1);
    EXPECT_EQ(stats.dirty_source, DirtySource::kKernelPagemap);
    EXPECT_EQ(stats.materializes_by_pagemap, 2u);
    EXPECT_GT(stats.pagemap_entries_read, 0u);
    EXPECT_GT(stats.soft_dirty_clears, 0u);
    // ...with zero SIGSEGV faults and zero full-arena scan bytes:
    EXPECT_EQ(arena.cow_faults(), 0u);
    EXPECT_FALSE(arena.cow_enabled());
    EXPECT_EQ(stats.incr_pages_scanned, 0u);

    // And the snapshot is a faithful image.
    std::memset(arena.PageAddr(1234), 0xEE, kPageSize);
    std::memset(arena.PageAddr(77), 0xEE, kPageSize);
    engine->Restore(snap);
    EXPECT_EQ(arena.PageAddr(1234)[0], 0xAB);
    EXPECT_EQ(arena.PageAddr(77)[0], 0x00);
  }
  EXPECT_LE(store.stats().live_blobs, 1u);
}

// --- kAdaptive: selection, switching, accounting, fallback -----------------------

TEST(AdaptiveEngineTest, SwitchesMechanismWithObservedDirtyRate) {
#ifdef __SANITIZE_THREAD__
  GTEST_SKIP() << "adaptive may arm the CoW SIGSEGV protocol (TSan conflict)";
#endif
  GuestArena arena(SmallLayout());
  PageStore store;
  SnapshotEngineStats stats;
  auto engine = MakeSnapshotEngine(SnapshotMode::kAdaptive, MakeEnv(&arena, &store, &stats));
  // Opens in faults: exact delta from checkpoint one, and no scan probe
  // demand-faulting the whole fresh arena (see InitialMechanism in engine.cc).
  EXPECT_EQ(engine->current_mechanism(), DirtySource::kFaults);

  // Tiny deltas: per-page fault cost beats whole-arena work; the engine must
  // stay in the faults mechanism, and the CoW protocol is live.
  std::vector<Snapshot> snaps(24);
  size_t si = 0;
  for (int round = 0; round < 6; ++round) {
    arena.PageAddr(5)[0] = static_cast<uint8_t>(round + 1);
    engine->Materialize(snaps[si++]);
  }
  EXPECT_EQ(engine->current_mechanism(), DirtySource::kFaults);
  EXPECT_EQ(stats.adaptive_switches, 0u);
  EXPECT_GT(stats.materializes_by_faults, 0u);
  EXPECT_GT(arena.cow_faults(), 0u);

  // Huge deltas: per-page fault cost now dwarfs scan/full; the engine must
  // abandon the faults mechanism (EWMA reacts within a few checkpoints).
  for (int round = 0; round < 4; ++round) {
    for (uint32_t page = 0; page < 400; ++page) {
      arena.PageAddr(page)[0] = static_cast<uint8_t>(round * 31 + page);
    }
    engine->Materialize(snaps[si++]);
  }
  EXPECT_NE(engine->current_mechanism(), DirtySource::kFaults);
  EXPECT_GE(stats.adaptive_switches, 1u);

  // Round trips stay exact across mechanism changes.
  std::memset(arena.PageAddr(5), 0xEE, kPageSize);
  engine->Restore(snaps[3]);
  EXPECT_EQ(arena.PageAddr(5)[0], 4u);
  engine->Restore(snaps[si - 1]);
  EXPECT_EQ(arena.PageAddr(0)[0], static_cast<uint8_t>(3 * 31));
}

// A restore in the scan or full mechanism memcmps every non-guard page
// against the target map, and counts that pass in incr_pages_scanned.
TEST(AdaptiveEngineTest, CompareRestoreCountsScannedPages) {
#ifdef __SANITIZE_THREAD__
  GTEST_SKIP() << "adaptive may arm the CoW SIGSEGV protocol (TSan conflict)";
#endif
  GuestArena arena(SmallLayout());
  PageStore store;
  SnapshotEngineStats stats;
  auto engine = MakeSnapshotEngine(SnapshotMode::kAdaptive, MakeEnv(&arena, &store, &stats));
  std::vector<Snapshot> snaps(3);
  engine->Materialize(snaps[0]);
  for (int round = 1; round < 3; ++round) {  // wide deltas leave the faults mechanism
    for (uint32_t page = 0; page < 400; ++page) {
      arena.PageAddr(page)[0] = static_cast<uint8_t>(round);
    }
    engine->Materialize(snaps[round]);
  }
  const DirtySource mech = engine->current_mechanism();
  ASSERT_TRUE(mech == DirtySource::kScan || mech == DirtySource::kFull) << DirtySourceName(mech);
  uint64_t non_guard = 0;
  for (uint32_t page = 0; page < arena.num_pages(); ++page) {
    non_guard += arena.InGuard(page) ? 0 : 1;
  }
  const uint64_t scanned = stats.incr_pages_scanned;
  engine->Restore(snaps[0]);
  EXPECT_EQ(stats.incr_pages_scanned, scanned + non_guard);
  EXPECT_EQ(arena.PageAddr(399)[0], 0);
}

// A restore in the pagemap mechanism reads pagemap and clears soft-dirty bits,
// and mirrors the tracker's counters afterwards just as Materialize does.
TEST_F(SoftDirtyTrackerTest, AdaptivePagemapRestoreMirrorsTrackerCounters) {
#ifdef __SANITIZE_THREAD__
  GTEST_SKIP() << "adaptive may arm the CoW SIGSEGV protocol (TSan conflict)";
#endif
  // 64 MiB: big enough that pagemap beats both full and faults for mid-sized
  // deltas. One very wide delta moves the engine to full; mid-sized deltas
  // then pull the decaying estimate into pagemap's range.
  GuestArena::Layout layout;
  layout.arena_bytes = 64ull << 20;
  layout.stack_bytes = 1ull << 20;
  layout.guard_bytes = 16 * kPageSize;
  GuestArena arena(layout);
  PageStore store;
  SnapshotEngineStats stats;
  auto engine = MakeSnapshotEngine(SnapshotMode::kAdaptive, MakeEnv(&arena, &store, &stats));
  std::vector<Snapshot> snaps(8);
  size_t next = 0;
  for (int round = 0;
       round < 8 && engine->current_mechanism() != DirtySource::kKernelPagemap; ++round) {
    const uint32_t width = round == 0 ? 6000 : 1000;
    for (uint32_t page = 0; page < width; ++page) {
      arena.PageAddr(page)[0] = static_cast<uint8_t>(round + 1);
    }
    engine->Materialize(snaps[next++]);
  }
  ASSERT_EQ(engine->current_mechanism(), DirtySource::kKernelPagemap);
  arena.PageAddr(7)[0] = 0xEE;
  const uint64_t entries = stats.pagemap_entries_read;
  const uint64_t clears = stats.soft_dirty_clears;
  engine->Restore(snaps[0]);
  EXPECT_GT(stats.pagemap_entries_read, entries);
  EXPECT_GT(stats.soft_dirty_clears, clears);
  EXPECT_EQ(arena.PageAddr(7)[0], 1);
  EXPECT_EQ(arena.PageAddr(1000)[0], 1);
}

TEST(AdaptiveEngineTest, FallsBackCleanlyWithoutSoftDirty) {
#ifdef __SANITIZE_THREAD__
  GTEST_SKIP() << "adaptive may arm the CoW SIGSEGV protocol (TSan conflict)";
#endif
  // Runs everywhere: on hosts with soft-dirty it simply checks the adaptive
  // session works end to end; on hosts without, it additionally proves the
  // pagemap mechanism was never chosen.
  int n = 8;
  SessionOptions options;
  options.arena_bytes = 1ull << 20;
  options.guest_stack_bytes = 256 * 1024;
  options.snapshot_mode = SnapshotMode::kAdaptive;
  options.output = [](std::string_view) {};
  BacktrackSession session(options);
  auto guest = [](void* arg) {
    int queens = *static_cast<int*>(arg);
    struct Board {
      int row[16];
      int ld[32];
      int rd[32];
    };
    auto* s = static_cast<BacktrackSession*>(CurrentExecutor());
    auto* b = GuestNew<Board>(s->heap());
    std::memset(b, 0, sizeof(Board));
    if (sys_guess_strategy(StrategyKind::kDfs)) {
      for (int c = 0; c < queens; ++c) {
        int r = sys_guess(queens);
        if (b->row[r] || b->ld[r + c] || b->rd[queens + r - c]) {
          sys_guess_fail();
        }
        b->row[r] = 1;
        b->ld[r + c] = 1;
        b->rd[queens + r - c] = 1;
      }
      sys_note_solution();
      sys_guess_fail();
    }
  };
  ASSERT_TRUE(session.Run(guest, &n).ok());
  EXPECT_EQ(session.stats().solutions, 92u);
  if (!SoftDirtyTracker::Supported()) {
    EXPECT_EQ(session.stats().materializes_by_pagemap, 0u)
        << "pagemap mechanism selected on a host without soft-dirty";
    EXPECT_EQ(session.stats().soft_dirty_clears, 0u);
  }
  const uint64_t total = session.stats().materializes_by_faults +
                         session.stats().materializes_by_scan +
                         session.stats().materializes_by_pagemap +
                         session.stats().materializes_by_full;
  EXPECT_EQ(total, session.stats().snapshots);
}

}  // namespace
}  // namespace lw
