// Tests for the SnapshotEngine layer: direct (session-less)
// materialize/restore round trips for every mode, the incremental mode's
// delta accounting, golden counters for one fixed script per mode, and
// zero-page dedup in the PageStore (blob identity, refcounts,
// bytes_live accounting).

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/arena.h"
#include "src/snapshot/engine.h"
#include "src/snapshot/page_store.h"

namespace lw {
namespace {

GuestArena::Layout SmallLayout() {
  GuestArena::Layout layout;
  layout.arena_bytes = 2ull << 20;
  layout.stack_bytes = 256 * 1024;
  layout.guard_bytes = 16 * kPageSize;
  return layout;
}

SnapshotEngine::Env MakeEnv(GuestArena* arena, PageStore* store, SnapshotEngineStats* stats,
                            SnapshotMode mode) {
  SnapshotEngine::Env env;
  env.arena = arena;
  env.store = store;
  env.stats = stats;
  env.hot_page_limit = mode == SnapshotMode::kCow ? 64 : 0;
  return env;
}

// --- Round trips, identically for every backend ----------------------------------

class EngineRoundTripTest : public ::testing::TestWithParam<SnapshotMode> {};

TEST_P(EngineRoundTripTest, MaterializeRestoreRoundTrip) {
  GuestArena arena(SmallLayout());
  PageStore store;
  SnapshotEngineStats stats;
  {
    auto engine =
        std::make_unique<SnapshotEngine>(GetParam(), MakeEnv(&arena, &store, &stats, GetParam()));
    ASSERT_EQ(engine->mode(), GetParam());

    Snapshot snap_a;
    Snapshot snap_b;

    // State A: three pages with distinct fills.
    std::memset(arena.PageAddr(1), 0xA1, kPageSize);
    std::memset(arena.PageAddr(2), 0xA2, kPageSize);
    std::memset(arena.PageAddr(7), 0xA7, kPageSize);
    engine->Materialize(snap_a);

    // State B: one page changed, one new page touched.
    std::memset(arena.PageAddr(2), 0xB2, kPageSize);
    std::memset(arena.PageAddr(9), 0xB9, kPageSize);
    engine->Materialize(snap_b);

    // Scribble after the snapshot: must be rolled back by any restore.
    std::memset(arena.PageAddr(1), 0xEE, kPageSize);
    std::memset(arena.PageAddr(11), 0xEE, kPageSize);

    engine->Restore(snap_a);
    EXPECT_EQ(arena.PageAddr(1)[0], 0xA1);
    EXPECT_EQ(arena.PageAddr(2)[100], 0xA2);
    EXPECT_EQ(arena.PageAddr(7)[kPageSize - 1], 0xA7);
    EXPECT_EQ(arena.PageAddr(9)[0], 0x00);   // untouched in state A
    EXPECT_EQ(arena.PageAddr(11)[0], 0x00);  // scribble rolled back

    engine->Restore(snap_b);
    EXPECT_EQ(arena.PageAddr(1)[0], 0xA1);
    EXPECT_EQ(arena.PageAddr(2)[100], 0xB2);
    EXPECT_EQ(arena.PageAddr(9)[0], 0xB9);

    EXPECT_GT(stats.pages_materialized, 0u);
  }
  // Engine + snapshots dropped every ref; only the store-held canonical zero
  // blob may remain.
  EXPECT_LE(store.stats().live_blobs, 1u);
}

INSTANTIATE_TEST_SUITE_P(Backends, EngineRoundTripTest,
                         ::testing::Values(SnapshotMode::kCow, SnapshotMode::kFullCopy,
                                           SnapshotMode::kIncremental),
                         [](const ::testing::TestParamInfo<SnapshotMode>& param) {
                           return std::string(SnapshotModeName(param.param));
                         });

// --- IncrementalCopyEngine accounting --------------------------------------------

TEST(IncrementalEngineTest, CopiesOnlyTheDelta) {
  GuestArena arena(SmallLayout());
  PageStore store;
  SnapshotEngineStats stats;
  {
    auto engine = std::make_unique<SnapshotEngine>(
        SnapshotMode::kIncremental, MakeEnv(&arena, &store, &stats, SnapshotMode::kIncremental));
    Snapshot snap1;
    Snapshot snap2;

    std::memset(arena.PageAddr(3), 0x11, kPageSize);
    std::memset(arena.PageAddr(4), 0x22, kPageSize);
    std::memset(arena.PageAddr(5), 0x33, kPageSize);
    engine->Materialize(snap1);
    EXPECT_EQ(stats.incr_pages_copied, 3u);  // fresh arena: only the touched pages
    EXPECT_EQ(stats.pages_materialized, 3u);

    std::memset(arena.PageAddr(8), 0x44, kPageSize);
    engine->Materialize(snap2);
    EXPECT_EQ(stats.incr_pages_copied, 4u);  // +1: unchanged pages are not re-published

    // The scan visits every non-guard page on each call.
    uint32_t non_guard = 0;
    for (uint32_t p = 0; p < arena.num_pages(); ++p) {
      non_guard += arena.InGuard(p) ? 0 : 1;
    }
    EXPECT_EQ(stats.incr_pages_scanned, 2u * non_guard);

    // Restore to snap1: exactly one page (8) differs from live memory.
    engine->Restore(snap1);
    EXPECT_EQ(stats.pages_restored, 1u);
    EXPECT_EQ(arena.PageAddr(8)[0], 0x00);
    EXPECT_EQ(arena.PageAddr(3)[0], 0x11);
  }
  EXPECT_LE(store.stats().live_blobs, 1u);  // only the store-held zero blob remains
}

TEST(IncrementalEngineTest, TakesNoFaults) {
  GuestArena arena(SmallLayout());
  PageStore store;
  SnapshotEngineStats stats;
  {
    auto engine = std::make_unique<SnapshotEngine>(
        SnapshotMode::kIncremental, MakeEnv(&arena, &store, &stats, SnapshotMode::kIncremental));
    Snapshot snap;
    std::memset(arena.PageAddr(1), 0x55, kPageSize);
    engine->Materialize(snap);
    std::memset(arena.PageAddr(1), 0x66, kPageSize);
    engine->Restore(snap);
    EXPECT_EQ(arena.PageAddr(1)[0], 0x55);
  }
  EXPECT_EQ(arena.cow_faults(), 0u);  // the whole point: no mprotect traffic
  EXPECT_FALSE(arena.cow_enabled());
}

TEST(IncrementalEngineTest, ZeroedPagesDedupOnRepublish) {
  GuestArena arena(SmallLayout());
  PageStore store;
  SnapshotEngineStats stats;
  {
    auto engine = std::make_unique<SnapshotEngine>(
        SnapshotMode::kIncremental, MakeEnv(&arena, &store, &stats, SnapshotMode::kIncremental));
    Snapshot snap1;
    Snapshot snap2;
    std::memset(arena.PageAddr(2), 0x77, kPageSize);
    engine->Materialize(snap1);
    uint64_t hits_before = store.stats().zero_dedup_hits;
    std::memset(arena.PageAddr(2), 0x00, kPageSize);  // back to all-zero
    engine->Materialize(snap2);
    // The republished page collapsed to the canonical zero blob.
    EXPECT_EQ(store.stats().zero_dedup_hits, hits_before + 1);
    EXPECT_EQ(snap2.map.Get(2), store.ZeroPage());
  }
  EXPECT_LE(store.stats().live_blobs, 1u);  // only the store-held zero blob remains
}

// --- Golden counters: one fixed script per mode ---------------------------------

// Every engine counter, the store-wide counters GoldenScript can move (read
// from the store as the script ends, before the engine is torn down) and the
// arena's CoW fault count, one "name=value" token per counter. Timings are
// excluded: they are the only non-deterministic fields of the block.
std::string CounterLine(const SnapshotEngineStats& s, const PageStore::Stats& store,
                        const GuestArena& arena) {
  const std::pair<const char*, uint64_t> fields[] = {
      {"pages_materialized", s.pages_materialized},
      {"pages_restored", s.pages_restored},
      {"hot_promotions", s.hot_promotions},
      {"hot_demotions", s.hot_demotions},
      {"hot_unchanged_skips", s.hot_unchanged_skips},
      {"zero_dedup_hits", store.zero_dedup_hits},
      {"content_dedup_hits", store.content_dedup_hits},
      {"cross_session_dedup_hits", store.cross_session_dedup_hits},
      {"compressed_blobs", store.compressed_blobs},
      {"incr_pages_scanned", s.incr_pages_scanned},
      {"incr_pages_copied", s.incr_pages_copied},
      {"restore_mprotect_calls", s.restore_mprotect_calls},
      {"restore_runs_coalesced", s.restore_runs_coalesced},
      {"pages_restore_skipped", s.pages_restore_skipped},
      {"release_batches", store.release_batches},
      {"blobs_recycled_batched", store.blobs_recycled_batched},
      {"release_shard_locks", store.release_shard_locks},
      {"spilled_blobs", store.spilled_blobs},
      {"spill_bytes", store.spill_bytes},
      {"faultbacks", store.faultbacks},
      {"spill_segments_compacted", store.spill_segments_compacted},
      {"cow_faults", arena.cow_faults()},
  };
  std::string line;
  for (const auto& [name, value] : fields) {
    line += std::string(line.empty() ? "" : " ") + name + "=" + std::to_string(value);
  }
  return line;
}

// A fixed write/materialize/restore script touching every engine path: a page
// dirtied every round (promoted hot, then demoted under kCow), content and
// zero dedup, scribbles rolled back by restores, and a burst of wide deltas
// followed by restores across it. hot_page_limit is set for every mode: only
// kCow may act on it. Returns the store's counters as the last restore
// completes.
PageStore::Stats GoldenScript(SnapshotMode mode, GuestArena& arena, PageStore& store,
                              SnapshotEngineStats& stats) {
  SnapshotEngine::Env env = MakeEnv(&arena, &store, &stats, mode);
  env.hot_page_limit = 4;
  auto engine = std::make_unique<SnapshotEngine>(mode, env);
  std::vector<Snapshot> snaps(64);
  size_t next = 0;

  std::memset(arena.PageAddr(1), 0x11, kPageSize);
  std::memset(arena.PageAddr(2), 0x22, kPageSize);
  std::memset(arena.PageAddr(3), 0x33, kPageSize);
  engine->Materialize(snaps[next++]);
  for (int round = 0; round < 10; ++round) {
    arena.PageAddr(5)[0] = static_cast<uint8_t>(round + 1);
    arena.PageAddr(6)[7] = static_cast<uint8_t>(round + 1);
    if (round % 2 == 0) {
      arena.PageAddr(40 + static_cast<uint32_t>(round))[0] = static_cast<uint8_t>(round + 1);
    }
    engine->Materialize(snaps[next++]);
  }
  std::memset(arena.PageAddr(60), 0x5A, kPageSize);
  std::memset(arena.PageAddr(61), 0x5A, kPageSize);
  std::memset(arena.PageAddr(2), 0x00, kPageSize);
  engine->Materialize(snaps[next++]);

  std::memset(arena.PageAddr(1), 0xEE, kPageSize);
  std::memset(arena.PageAddr(70), 0xEE, kPageSize);
  engine->Restore(snaps[3]);
  EXPECT_EQ(arena.PageAddr(5)[0], 3);
  engine->Restore(snaps[0]);
  engine->Restore(snaps[next - 1]);
  EXPECT_EQ(arena.PageAddr(70)[0], 0);

  for (int round = 0; round < 18; ++round) {  // a clean streak: hot pages demote
    engine->Materialize(snaps[next++]);
  }
  for (int round = 0; round < 4; ++round) {  // wide deltas
    for (uint32_t page = 400; page-- > 100;) {  // descending: fault order != page order
      arena.PageAddr(page)[0] = static_cast<uint8_t>(round * 31 + page);
    }
    engine->Materialize(snaps[next++]);
  }
  std::memset(arena.PageAddr(5), 0xEE, kPageSize);
  engine->Restore(snaps[2]);
  EXPECT_EQ(arena.PageAddr(100)[0], 0);
  engine->Restore(snaps[next - 1]);
  EXPECT_EQ(arena.PageAddr(100)[0], static_cast<uint8_t>(3 * 31 + 100));
  for (int round = 0; round < 6; ++round) {  // narrow deltas again
    arena.PageAddr(5)[1] = static_cast<uint8_t>(round + 1);
    engine->Materialize(snaps[next++]);
  }
  engine->Restore(snaps[1]);
  EXPECT_EQ(arena.PageAddr(5)[0], 1);
  EXPECT_EQ(arena.PageAddr(5)[1], 0);
  return store.stats();
}

// Compares CounterLine output token by token; an expected value of "?" leaves
// that counter unpinned.
void ExpectCounters(const std::string& actual, const std::string& expected) {
  std::istringstream got(actual);
  std::istringstream want(expected);
  std::string got_token;
  std::string want_token;
  while (want >> want_token) {
    ASSERT_TRUE(got >> got_token) << "missing " << want_token;
    if (want_token.size() >= 2 && want_token.compare(want_token.size() - 2, 2, "=?") == 0) {
      EXPECT_EQ(got_token.substr(0, want_token.size() - 1), want_token.substr(0, want_token.size() - 1));
    } else {
      EXPECT_EQ(got_token, want_token);
    }
  }
  EXPECT_FALSE(got >> got_token) << "unexpected " << got_token;
}

class EngineGoldenCounterTest : public ::testing::TestWithParam<SnapshotMode> {};

// The golden values were recorded from the five-class engine layer that
// preceded the single engine.
// The store tokens (dedup, compression, release, spill) are read from
// PageStore::stats() as the script ends, before the engine's teardown
// releases its current map.
TEST_P(EngineGoldenCounterTest, ScriptHitsRecordedCounters) {
  const SnapshotMode mode = GetParam();
  const char* const kStoreTail =
      " cross_session_dedup_hits=0 compressed_blobs=0";
  const char* const kReleaseTail =
      " release_batches=0 blobs_recycled_batched=0 release_shard_locks=0 spilled_blobs=0"
      " spill_bytes=0 faultbacks=0 spill_segments_compacted=0";
  std::string expected;
  switch (mode) {
    case SnapshotMode::kCow:
      expected = std::string(
                     "pages_materialized=1237 pages_restored=948 hot_promotions=6 hot_demotions=2"
                     " hot_unchanged_skips=54 zero_dedup_hits=5 content_dedup_hits=957") +
                 kStoreTail +
                 " incr_pages_scanned=0 incr_pages_copied=0"
                 " restore_mprotect_calls=84 restore_runs_coalesced=42"
                 " pages_restore_skipped=0" +
                 kReleaseTail + " cow_faults=1228";
      break;
    case SnapshotMode::kFullCopy:
      expected = std::string(
                     "pages_materialized=19840 pages_restored=2976 hot_promotions=0 hot_demotions=0"
                     " hot_unchanged_skips=0 zero_dedup_hits=16448 content_dedup_hits=3117") +
                 kStoreTail +
                 " incr_pages_scanned=0 incr_pages_copied=0"
                 " restore_mprotect_calls=0 restore_runs_coalesced=0"
                 " pages_restore_skipped=0" +
                 kReleaseTail + " cow_faults=0";
      break;
    case SnapshotMode::kIncremental:
      expected = std::string(
                     "pages_materialized=1236 pages_restored=948 hot_promotions=0 hot_demotions=0"
                     " hot_unchanged_skips=0 zero_dedup_hits=4 content_dedup_hits=957") +
                 kStoreTail +
                 " incr_pages_scanned=22816 incr_pages_copied=1236"
                 " restore_mprotect_calls=0 restore_runs_coalesced=0"
                 " pages_restore_skipped=0" +
                 kReleaseTail + " cow_faults=0";
      break;
  }
  GuestArena arena(SmallLayout());
  PageStore store;
  SnapshotEngineStats stats;
  const PageStore::Stats store_stats = GoldenScript(mode, arena, store, stats);
  ExpectCounters(CounterLine(stats, store_stats, arena), expected);
}

INSTANTIATE_TEST_SUITE_P(Modes, EngineGoldenCounterTest,
                         ::testing::Values(SnapshotMode::kCow, SnapshotMode::kFullCopy,
                                           SnapshotMode::kIncremental),
                         [](const ::testing::TestParamInfo<SnapshotMode>& param) {
                           return std::string(SnapshotModeName(param.param));
                         });

// --- Zero-page dedup in the PageStore ----------------------------------------------

TEST(PageStoreDedupTest, PublishOfZeroPageCollapsesToCanonicalBlob) {
  PageStore store;
  std::vector<uint8_t> zeros(kPageSize, 0);
  PageRef canonical = store.ZeroPage();
  uint64_t live_before = store.stats().live_blobs;

  PageRef a = store.Publish(zeros.data());
  PageRef b = store.Publish(zeros.data());
  EXPECT_EQ(a, canonical);  // blob identity, not just content equality
  EXPECT_EQ(b, canonical);
  EXPECT_EQ(store.stats().zero_dedup_hits, 2u);
  EXPECT_EQ(store.stats().live_blobs, live_before);  // no new blobs allocated
}

TEST(PageStoreDedupTest, DedupBumpsRefcountOnCanonicalBlob) {
  PageStore store;
  std::vector<uint8_t> zeros(kPageSize, 0);
  PageRef canonical = store.ZeroPage();
  uint32_t base = canonical.refcount();
  {
    PageRef a = store.Publish(zeros.data());
    EXPECT_EQ(canonical.refcount(), base + 1);
    PageRef b = a;
    EXPECT_EQ(canonical.refcount(), base + 2);
  }
  EXPECT_EQ(canonical.refcount(), base);  // dedup'd refs release like any other
}

TEST(PageStoreDedupTest, NonZeroPagesStillAllocate) {
  PageStore store;
  std::vector<uint8_t> page(kPageSize, 0);
  page[kPageSize - 1] = 1;  // a single trailing nonzero byte defeats dedup
  PageRef a = store.Publish(page.data());
  EXPECT_NE(a, store.ZeroPage());
  EXPECT_EQ(store.stats().zero_dedup_hits, 0u);
  EXPECT_TRUE(a.EqualsPage(page.data()));
}

TEST(PageStoreDedupTest, DedupKeepsBytesLiveFlat) {
  PageStore store;
  std::vector<uint8_t> zeros(kPageSize, 0);
  PageRef canonical = store.ZeroPage();
  uint64_t bytes_before = store.stats().bytes_live();
  std::vector<PageRef> refs;
  for (int i = 0; i < 1000; ++i) {
    refs.push_back(store.Publish(zeros.data()));
  }
  // A sparse arena's worth of zero publishes costs zero additional residency.
  EXPECT_EQ(store.stats().bytes_live(), bytes_before);
  EXPECT_EQ(store.stats().zero_dedup_hits, 1000u);
}

}  // namespace
}  // namespace lw
