// Hot-page prediction tests: pages dirtied on nearly every extension are
// promoted out of the fault path (left writable, compared/copied eagerly).
// These tests pin the correctness contract — identical search results with
// prediction on, off, and across promotion/demotion transitions — plus the
// accounting that proves promotion actually happened.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/core/backtrack.h"
#include "src/snapshot/engine.h"

namespace lw {
namespace {

// Guest: a long chain of single-extension guesses. Each round writes a
// counter into a fixed "hot" page and (every 8th round) into a rotating
// "cold" page, then verifies the previous round's value survived the
// snapshot/restore cycle exactly.
struct ChainArgs {
  int rounds = 64;
  bool corrupted = false;  // host-visible failure flag
};

void ChainGuest(void* arg) {
  auto* args = static_cast<ChainArgs*>(arg);
  auto* session = static_cast<BacktrackSession*>(CurrentExecutor());
  auto* hot = static_cast<uint32_t*>(session->heap()->Alloc(4096));
  auto* cold = static_cast<uint32_t*>(session->heap()->Alloc(16 * 4096));
  if (hot == nullptr || cold == nullptr) {
    args->corrupted = true;
    return;
  }
  std::memset(hot, 0, 4096);
  std::memset(cold, 0, 16 * 4096);
  if (!sys_guess_strategy(StrategyKind::kDfs)) {
    return;
  }
  for (int round = 0; round < args->rounds; ++round) {
    if (hot[0] != static_cast<uint32_t>(round)) {
      args->corrupted = true;  // restore lost or duplicated a write
    }
    hot[0] = static_cast<uint32_t>(round + 1);
    hot[1] = ~static_cast<uint32_t>(round);
    if (round % 8 == 0) {
      cold[(round / 8) * 1024] = static_cast<uint32_t>(round);
    }
    (void)sys_guess(1);
  }
  // Verify the cold writes all survived.
  for (int round = 0; round < args->rounds; round += 8) {
    if (cold[(round / 8) * 1024] != static_cast<uint32_t>(round)) {
      args->corrupted = true;
    }
  }
}

TEST(HotPagesTest, PromotionPreservesChainSemantics) {
  ChainArgs args;
  SessionOptions options;
  options.arena_bytes = 8ull << 20;
  options.output = [](std::string_view) {};
  BacktrackSession session(options);
  // Hot-page prediction is the engine's kCow mode.
  ASSERT_EQ(session.engine().mode(), SnapshotMode::kCow);
  ASSERT_TRUE(session.Run(&ChainGuest, &args).ok());
  EXPECT_FALSE(args.corrupted);
  // The fixed page (plus stack pages) must have been promoted.
  EXPECT_GT(session.stats().hot_promotions, 0u);
  EXPECT_GT(session.stats().snapshots, 60u);
}

// Drive a kCow engine directly — no session, no guest: a host-side
// write/materialize loop must promote a repeatedly dirtied page, demote it
// after a clean streak, and keep round-trip contents exact throughout.
TEST(HotPagesTest, ExtractedCowEngineHotCycleDirect) {
  GuestArena::Layout layout;
  layout.arena_bytes = 2ull << 20;
  layout.stack_bytes = 256 * 1024;
  layout.guard_bytes = 16 * kPageSize;
  GuestArena arena(layout);
  PageStore store;
  SnapshotEngineStats stats;
  {
    SnapshotEngine::Env env;
    env.arena = &arena;
    env.store = &store;
    env.stats = &stats;
    env.hot_page_limit = 8;
    auto engine = std::make_unique<SnapshotEngine>(SnapshotMode::kCow, env);

    // Phase 1: dirty the same page across many snapshots — it must go hot.
    std::vector<Snapshot> snaps(40);
    for (int round = 0; round < 12; ++round) {
      arena.PageAddr(5)[0] = static_cast<uint8_t>(round + 1);
      engine->Materialize(snaps[static_cast<size_t>(round)]);
    }
    EXPECT_GT(stats.hot_promotions, 0u);
    EXPECT_GT(engine->hot_page_count(), 0u);

    // Phase 2: stop touching it — unchanged-skip accounting, then demotion.
    for (int round = 12; round < 32; ++round) {
      engine->Materialize(snaps[static_cast<size_t>(round)]);
    }
    EXPECT_GT(stats.hot_unchanged_skips, 0u);
    EXPECT_GT(stats.hot_demotions, 0u);
    EXPECT_EQ(engine->hot_page_count(), 0u);

    // Phase 3: restores still reproduce each round's byte image exactly.
    engine->Restore(snaps[3]);
    EXPECT_EQ(arena.PageAddr(5)[0], 4);
    engine->Restore(snaps[10]);
    EXPECT_EQ(arena.PageAddr(5)[0], 11);
  }
  EXPECT_LE(store.stats().live_blobs, 1u);  // only the store-held zero blob remains
}

TEST(HotPagesTest, DisabledPredictionGivesSameResults) {
  ChainArgs with;
  ChainArgs without;
  for (bool enable : {true, false}) {
    SessionOptions options;
    options.arena_bytes = 8ull << 20;
    options.hot_page_limit = enable ? 64 : 0;
    options.output = [](std::string_view) {};
    BacktrackSession session(options);
    ChainArgs& args = enable ? with : without;
    ASSERT_TRUE(session.Run(&ChainGuest, &args).ok());
    EXPECT_FALSE(args.corrupted);
    if (!enable) {
      EXPECT_EQ(session.stats().hot_promotions, 0u);
    }
  }
}

// Branching guest: siblings write different values into the same (eventually
// hot) page; isolation must hold exactly as in the cold-page protocol.
struct BranchArgs {
  int depth = 6;
  uint64_t signature_sum = 0;  // order-independent checksum over leaves
  int leaves = 0;
};

void BranchGuest(void* arg) {
  auto* args = static_cast<BranchArgs*>(arg);
  auto* session = static_cast<BacktrackSession*>(CurrentExecutor());
  auto* page = static_cast<uint32_t*>(session->heap()->Alloc(4096));
  std::memset(page, 0, 4096);
  if (!sys_guess_strategy(StrategyKind::kDfs)) {
    return;
  }
  uint32_t signature = 1;
  for (int d = 0; d < args->depth; ++d) {
    int bit = sys_guess(2);
    signature = signature * 2 + static_cast<uint32_t>(bit);
    // The same word is written on every path: a stale value from a sibling
    // would corrupt the signature check below.
    if (page[7] != (d == 0 ? 0u : signature / 2)) {
      return;  // corruption: drop the leaf (detected by the count)
    }
    page[7] = signature;
  }
  args->signature_sum += page[7];
  args->leaves++;
  sys_guess_fail();
}

TEST(HotPagesTest, SiblingIsolationSurvivesPromotion) {
  BranchArgs args;
  SessionOptions options;
  options.arena_bytes = 8ull << 20;
  options.output = [](std::string_view) {};
  BacktrackSession session(options);
  ASSERT_TRUE(session.Run(&BranchGuest, &args).ok());
  EXPECT_EQ(args.leaves, 64);  // 2^6 leaves, none dropped to corruption
  // Sum of signatures over all depth-6 paths: signatures are 64..127 exactly.
  uint64_t expected = 0;
  for (uint32_t s = 64; s < 128; ++s) {
    expected += s;
  }
  EXPECT_EQ(args.signature_sum, expected);
}

// Demotion: dirty a page heavily (promote), then stop touching it for many
// snapshots; it must demote and the engine must keep producing correct runs.
struct DemoteArgs {
  bool corrupted = false;
};

void DemoteGuest(void* arg) {
  auto* args = static_cast<DemoteArgs*>(arg);
  auto* session = static_cast<BacktrackSession*>(CurrentExecutor());
  auto* page = static_cast<uint32_t*>(session->heap()->Alloc(4096));
  std::memset(page, 0, 4096);
  if (!sys_guess_strategy(StrategyKind::kDfs)) {
    return;
  }
  // Phase 1: promote (dirty every round).
  for (int round = 0; round < 12; ++round) {
    page[0] = static_cast<uint32_t>(round);
    (void)sys_guess(1);
  }
  // Phase 2: go cold for well past the demotion threshold.
  for (int round = 0; round < 40; ++round) {
    (void)sys_guess(1);
    if (page[0] != 11u) {
      args->corrupted = true;
    }
  }
  // Phase 3: write again (must fault back in via the CoW protocol).
  page[0] = 777;
  (void)sys_guess(1);
  if (page[0] != 777u) {
    args->corrupted = true;
  }
}

TEST(HotPagesTest, DemotionReentersCowProtocol) {
  DemoteArgs args;
  SessionOptions options;
  options.arena_bytes = 8ull << 20;
  options.output = [](std::string_view) {};
  BacktrackSession session(options);
  ASSERT_TRUE(session.Run(&DemoteGuest, &args).ok());
  EXPECT_FALSE(args.corrupted);
  EXPECT_GT(session.stats().hot_promotions, 0u);
  EXPECT_GT(session.stats().hot_demotions, 0u);
  EXPECT_GT(session.stats().hot_unchanged_skips, 0u);
}

// A tiny hot limit must clamp the hot set without affecting results.
TEST(HotPagesTest, HotLimitIsRespected) {
  ChainArgs args;
  SessionOptions options;
  options.arena_bytes = 8ull << 20;
  options.hot_page_limit = 1;
  options.output = [](std::string_view) {};
  BacktrackSession session(options);
  ASSERT_TRUE(session.Run(&ChainGuest, &args).ok());
  EXPECT_FALSE(args.corrupted);
  EXPECT_LE(session.stats().hot_promotions,
            session.stats().hot_demotions + 1);  // never >1 hot at a time
}

// n-queens must count identically across prediction settings (end-to-end).
struct QueensArgs {
  int n = 6;
};

void QueensGuest(void* arg) {
  int n = static_cast<QueensArgs*>(arg)->n;
  auto* session = static_cast<BacktrackSession*>(CurrentExecutor());
  struct Board {
    int col[16];
    int row[16];
    int ld[32];
    int rd[32];
  };
  auto* b = GuestNew<Board>(session->heap());
  std::memset(b, 0, sizeof(Board));
  if (sys_guess_strategy(StrategyKind::kDfs)) {
    for (int c = 0; c < n; ++c) {
      int r = sys_guess(n);
      if (b->row[r] || b->ld[r + c] || b->rd[n + r - c]) {
        sys_guess_fail();
      }
      b->col[c] = r;
      b->row[r] = c + 1;
      b->ld[r + c] = 1;
      b->rd[n + r - c] = 1;
    }
    sys_note_solution();
    sys_guess_fail();
  }
}

class HotLimitSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(HotLimitSweep, QueensCountInvariant) {
  QueensArgs args;
  SessionOptions options;
  options.arena_bytes = 8ull << 20;
  options.hot_page_limit = GetParam();
  options.output = [](std::string_view) {};
  BacktrackSession session(options);
  ASSERT_TRUE(session.Run(&QueensGuest, &args).ok());
  EXPECT_EQ(session.stats().solutions, 4u);  // 6-queens
}

INSTANTIATE_TEST_SUITE_P(Limits, HotLimitSweep, ::testing::Values(0u, 1u, 2u, 8u, 64u, 1024u));

}  // namespace
}  // namespace lw
