// ParallelMaterializer and the parallel-materialize engine seam:
//   * team mechanics — slot coverage, serial-inline small jobs, one clean
//     Status from a mid-materialize failing publish, team reuse after failure;
//   * bit-identity — a parallel materialize produces a snapshot structure
//     (page-ref table + StructureBytes) identical to a serial one, for all
//     three engines, over a shared content-addressed store;
//   * end-to-end parity — the 8-queens harness (92 solutions) under a
//     worker-count sweep 1/2/4/8 for every engine, plus the service-level
//     parallel_materialize_workers plumbing.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/core/backtrack.h"
#include "src/snapshot/parallel_materializer.h"
#include "src/solver/service.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer) && !defined(__SANITIZE_THREAD__)
#define __SANITIZE_THREAD__ 1
#endif
#endif

namespace lw {
namespace {

// --- Team mechanics --------------------------------------------------------------

TEST(ParallelMaterializerTest, RunsEverySlotExactlyOnce) {
  ParallelMaterializerOptions options;
  options.workers = 4;
  options.chunk_slots = 16;
  ParallelMaterializer pm(options);
  constexpr size_t kSlots = 1000;
  std::vector<std::atomic<uint32_t>> hits(kSlots);
  Status status = pm.Run(kSlots, [&hits](size_t slot) {
    hits[slot].fetch_add(1, std::memory_order_relaxed);
    return OkStatus();
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  for (size_t slot = 0; slot < kSlots; ++slot) {
    EXPECT_EQ(hits[slot].load(std::memory_order_relaxed), 1u) << "slot " << slot;
  }
}

TEST(ParallelMaterializerTest, SubChunkJobsRunInlineOnCaller) {
  ParallelMaterializerOptions options;
  options.workers = 8;
  options.chunk_slots = 64;
  ParallelMaterializer pm(options);
  const std::thread::id caller = std::this_thread::get_id();
  bool all_on_caller = true;
  Status status = pm.Run(64, [&](size_t) {
    all_on_caller = all_on_caller && std::this_thread::get_id() == caller;
    return OkStatus();
  });
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(all_on_caller);
}

TEST(ParallelMaterializerTest, ZeroAndSerialWorkersRunInline) {
  for (uint32_t workers : {0u, 1u}) {
    ParallelMaterializerOptions options;
    options.workers = workers;
    ParallelMaterializer pm(options);
    size_t ran = 0;
    Status status = pm.Run(500, [&ran](size_t) {
      ++ran;
      return OkStatus();
    });
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(ran, 500u);
  }
}

TEST(ParallelMaterializerTest, FailingPublishSurfacesOneCleanStatus) {
  ParallelMaterializerOptions options;
  options.workers = 4;
  options.chunk_slots = 8;
  ParallelMaterializer pm(options);
  // Every slot fails with a chunk-identifying message: regardless of how the
  // cancellation race unfolds, chunk 0 is always claimed and attempted, so the
  // aggregated Status must be chunk 0's (the lowest failing chunk attempted).
  Status status = pm.Run(512, [&options](size_t slot) {
    return Internal("publish failed in chunk " +
                    std::to_string(slot / options.chunk_slots));
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kInternal);
  EXPECT_EQ(status.message(), "publish failed in chunk 0");

  // The team survives a failed run: the next job starts clean and completes.
  std::atomic<size_t> ran{0};
  Status ok = pm.Run(512, [&ran](size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
    return OkStatus();
  });
  ASSERT_TRUE(ok.ok()) << ok.ToString();
  EXPECT_EQ(ran.load(), 512u);
}

TEST(ParallelMaterializerTest, MidMaterializeFailureStopsClaimingNewChunks) {
  ParallelMaterializerOptions options;
  options.workers = 2;
  options.chunk_slots = 4;
  ParallelMaterializer pm(options);
  std::atomic<size_t> ran{0};
  Status status = pm.Run(10000, [&ran](size_t slot) {
    ran.fetch_add(1, std::memory_order_relaxed);
    if (slot == 5) {
      return Internal("boom");
    }
    return OkStatus();
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "boom");
  // Poisoning is best-effort, but it must not degenerate into running the
  // whole job: in-flight chunks finish, new ones are not claimed.
  EXPECT_LT(ran.load(), 10000u);
}

// --- Bit-identity vs serial, all three engines -----------------------------------

GuestArena::Layout SmallLayout() {
  GuestArena::Layout layout;
  layout.arena_bytes = 2ull << 20;
  layout.stack_bytes = 256 * 1024;
  layout.guard_bytes = 16 * kPageSize;
  return layout;
}

SnapshotEngine::Env MakeEnv(GuestArena* arena, PageStore* store, SnapshotEngineStats* stats,
                            SnapshotMode mode, uint32_t owner) {
  SnapshotEngine::Env env;
  env.arena = arena;
  env.store = store;
  env.stats = stats;
  env.hot_page_limit = mode == SnapshotMode::kCow ? 64 : 0;
  env.owner = owner;
  return env;
}

// Writes one round of page content into an arena: a spread of distinct fills,
// a pair of byte-identical pages (intra-snapshot dedup), and a page whose
// content repeats across rounds (cross-snapshot dedup).
void WriteRound(GuestArena& arena, int round) {
  for (uint32_t page = 1; page <= 80; ++page) {
    std::memset(arena.PageAddr(page), static_cast<int>((page * 7 + round * 13) & 0xFF),
                kPageSize);
  }
  std::memset(arena.PageAddr(90), 0x55, kPageSize);  // identical pair...
  std::memset(arena.PageAddr(91), 0x55, kPageSize);  // ...every round
  std::memset(arena.PageAddr(92), static_cast<int>(round), kPageSize);
}

class ParallelEngineBitIdentityTest : public ::testing::TestWithParam<SnapshotMode> {};

TEST_P(ParallelEngineBitIdentityTest, ParallelSnapshotStructureMatchesSerial) {
#ifdef __SANITIZE_THREAD__
  if (GetParam() == SnapshotMode::kCow) {
    GTEST_SKIP() << "CoW SIGSEGV protocol conflicts with TSan signal interposition";
  }
#endif
  // One shared store: equal published bytes yield the same blob, so if the
  // parallel engine assembles the same structure as the serial one, every
  // page-ref pair compares pointer-equal.
  PageStore store;
  GuestArena serial_arena(SmallLayout());
  GuestArena parallel_arena(SmallLayout());
  SnapshotEngineStats serial_stats;
  SnapshotEngineStats parallel_stats;
  {
    auto serial_engine = MakeSnapshotEngine(
        GetParam(), MakeEnv(&serial_arena, &store, &serial_stats, GetParam(), 1));
    auto parallel_engine = MakeSnapshotEngine(
        GetParam(), MakeEnv(&parallel_arena, &store, &parallel_stats, GetParam(), 1));

    ParallelMaterializerOptions pm_options;
    pm_options.workers = 4;
    pm_options.chunk_slots = 8;  // small chunks: even CoW dirty sets fan out
    ParallelMaterializer pm(pm_options);
    EngineContext ctx;
    ctx.parallel = &pm;

    // Several rounds so the CoW engine exercises hot-page promotion (pages
    // dirtied every round go hot after round 4) and the scan engines evolve
    // cur_map_ across materializations.
    for (int round = 0; round < 8; ++round) {
      WriteRound(serial_arena, round);
      WriteRound(parallel_arena, round);
      Snapshot serial_snap;
      Snapshot parallel_snap;
      serial_engine->Materialize(serial_snap);
      parallel_engine->Materialize(parallel_snap, ctx);

      for (uint32_t page = 0; page < serial_arena.num_pages(); ++page) {
        ASSERT_TRUE(serial_snap.map.Get(page) == parallel_snap.map.Get(page))
            << "round " << round << " page " << page;
      }
      ASSERT_EQ(serial_engine->StructureBytes(), parallel_engine->StructureBytes())
          << "round " << round;
      ASSERT_EQ(serial_stats.pages_materialized, parallel_stats.pages_materialized)
          << "round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, ParallelEngineBitIdentityTest,
                         ::testing::Values(SnapshotMode::kCow, SnapshotMode::kFullCopy,
                                           SnapshotMode::kIncremental),
                         [](const ::testing::TestParamInfo<SnapshotMode>& info) {
                           return SnapshotModeName(info.param);
                         });

// --- End-to-end: 8-queens parity under a worker sweep ----------------------------

constexpr int kQueensN = 8;
constexpr uint64_t kQueensSolutions = 92;

void QueensGuest(void* arg) {
  int n = *static_cast<int*>(arg);
  auto* session = static_cast<BacktrackSession*>(CurrentExecutor());
  struct Board {
    int row[16];
    int ld[32];
    int rd[32];
  };
  auto* b = GuestNew<Board>(session->heap());
  std::memset(b, 0, sizeof(Board));
  // Page-aligned trail: one full page of placement-derived bytes per column,
  // so every snapshot has a multi-page dirty set for the team to split.
  auto* raw = static_cast<uint8_t*>(session->heap()->Alloc((16 + 1) * kPageSize));
  auto* trail = reinterpret_cast<uint8_t*>(
      (reinterpret_cast<uintptr_t>(raw) + kPageSize - 1) & ~(kPageSize - 1));
  if (sys_guess_strategy(StrategyKind::kDfs)) {
    for (int c = 0; c < n; ++c) {
      int r = sys_guess(n);
      if (b->row[r] || b->ld[r + c] || b->rd[n + r - c]) {
        sys_guess_fail();
      }
      b->row[r] = 1;
      b->ld[r + c] = 1;
      b->rd[n + r - c] = 1;
      std::memset(trail + static_cast<size_t>(c) * kPageSize, r + 1, kPageSize);
    }
    sys_note_solution();
    sys_guess_fail();
  }
}

class ParallelQueensParityTest : public ::testing::TestWithParam<SnapshotMode> {};

TEST_P(ParallelQueensParityTest, WorkerSweepKeepsParityAndSnapshotCounts) {
#ifdef __SANITIZE_THREAD__
  if (GetParam() == SnapshotMode::kCow) {
    GTEST_SKIP() << "CoW SIGSEGV protocol conflicts with TSan signal interposition";
  }
#endif
  uint64_t serial_snapshots = 0;
  uint64_t serial_pages = 0;
  uint64_t serial_restored = 0;
  for (uint32_t workers : {1u, 2u, 4u, 8u}) {
    int n = kQueensN;
    SessionOptions options;
    // Small arena/stack keep the full-copy sweep (every page, every snapshot)
    // affordable under TSan.
    options.arena_bytes = 1ull << 20;
    options.guest_stack_bytes = 256 * 1024;
    options.snapshot_mode = GetParam();
    options.parallel_materialize_workers = workers;
    options.output = [](std::string_view) {};
    BacktrackSession session(options);
    ASSERT_TRUE(session.Run(&QueensGuest, &n).ok()) << "workers=" << workers;
    EXPECT_EQ(session.stats().solutions, kQueensSolutions) << "workers=" << workers;
    // The engine's work must be invariant in the worker count, not just the
    // search result: same snapshots, same pages published.
    if (workers == 1) {
      serial_snapshots = session.stats().snapshots;
      serial_pages = session.stats().pages_materialized;
      serial_restored = session.stats().pages_restored;
    } else {
      EXPECT_EQ(session.stats().snapshots, serial_snapshots) << "workers=" << workers;
      EXPECT_EQ(session.stats().pages_materialized, serial_pages) << "workers=" << workers;
      // Restores fan out over the same team; the pages they copy must be
      // invariant in the worker count too (compare-driven skips are
      // content-deterministic).
      EXPECT_EQ(session.stats().pages_restored, serial_restored) << "workers=" << workers;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, ParallelQueensParityTest,
                         ::testing::Values(SnapshotMode::kCow, SnapshotMode::kFullCopy,
                                           SnapshotMode::kIncremental),
                         [](const ::testing::TestParamInfo<SnapshotMode>& info) {
                           return SnapshotModeName(info.param);
                         });

// --- Service plumbing ------------------------------------------------------------

TEST(ParallelServiceTest, SolverServiceThreadsWorkerOptionThrough) {
  SolverServiceOptions options;
  options.tuning.arena_bytes = 8ull << 20;
  options.tuning.snapshot_mode = SnapshotMode::kIncremental;  // fault-free on any thread
  options.tuning.parallel_materialize_workers = 4;
  SolverService service(options);
  Cnf base;
  base.num_vars = 3;
  base.AddDimacsClause({1, 2});
  base.AddDimacsClause({-2, 3});
  auto root = service.SolveRoot(base);
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  EXPECT_EQ(root->result, kTrue);
  EXPECT_GT(service.session_stats().snapshots, 0u);
}

}  // namespace
}  // namespace lw
