// Tests for the snapshot substrate: PageStore refcounting and recycling, PageMap
// sharing/diff semantics, and DirtyTracker.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "src/snapshot/dirty_tracker.h"
#include "src/snapshot/page_map.h"
#include "src/snapshot/page_store.h"
#include "src/util/rng.h"

namespace lw {
namespace {

std::vector<uint8_t> PatternPage(uint8_t fill) { return std::vector<uint8_t>(kPageSize, fill); }

// --- PageStore -------------------------------------------------------------------

TEST(PageStoreTest, PublishCopiesContent) {
  PageStore store;
  auto page = PatternPage(0x5a);
  PageRef ref = store.Publish(page.data());
  page[0] = 0;  // source mutation must not affect the blob
  uint8_t ends[2];
  ref.ReadBytes(0, &ends[0], 1);
  ref.ReadBytes(kPageSize - 1, &ends[1], 1);
  EXPECT_EQ(ends[0], 0x5a);
  EXPECT_EQ(ends[1], 0x5a);
}

TEST(PageStoreTest, RefcountLifecycle) {
  PageStore store;
  auto page = PatternPage(1);
  PageRef a = store.Publish(page.data());
  EXPECT_EQ(a.refcount(), 1u);
  {
    PageRef b = a;
    EXPECT_EQ(a.refcount(), 2u);
    PageRef c = std::move(b);
    EXPECT_EQ(a.refcount(), 2u);
    EXPECT_FALSE(b.valid());  // NOLINT(bugprone-use-after-move): moved-from is empty by contract
    EXPECT_TRUE(c.valid());
  }
  EXPECT_EQ(a.refcount(), 1u);
  EXPECT_EQ(store.stats().live_blobs, 1u);
  a.Reset();
  EXPECT_EQ(store.stats().live_blobs, 0u);
  EXPECT_EQ(store.stats().free_blobs, 1u);
}

TEST(PageStoreTest, FreeListRecyclesBlobs) {
  PageStore store;
  auto p2 = PatternPage(2);
  auto p3 = PatternPage(3);  // distinct contents: dedup must not collapse them
  {
    PageRef a = store.Publish(p2.data());
    PageRef b = store.Publish(p3.data());
  }
  EXPECT_EQ(store.stats().free_blobs, 2u);
  {
    PageRef c = store.Publish(p2.data());
    EXPECT_EQ(store.stats().free_blobs, 1u);  // reused, not malloc'd
    EXPECT_EQ(store.stats().live_blobs, 1u);
  }
  store.TrimFreeList();
  EXPECT_EQ(store.stats().free_blobs, 0u);
}

TEST(PageStoreTest, ZeroPageIsDeduplicated) {
  PageStore store;
  PageRef a = store.ZeroPage();
  PageRef b = store.ZeroPage();
  EXPECT_EQ(a, b);
  std::vector<uint8_t> zeros(kPageSize, 0);
  EXPECT_TRUE(a.EqualsPage(zeros.data()));
}

TEST(PageStoreTest, PeakTracksHighWater) {
  PageStore store;
  auto p4 = PatternPage(4);
  auto p5 = PatternPage(5);
  auto p6 = PatternPage(6);
  {
    PageRef a = store.Publish(p4.data());
    PageRef b = store.Publish(p5.data());
    PageRef c = store.Publish(p6.data());
  }
  PageRef d = store.Publish(p4.data());
  EXPECT_EQ(store.stats().peak_live_blobs, 3u);
  EXPECT_EQ(store.stats().total_published, 4u);
}

TEST(PageStoreTest, AssignmentReleasesOldTarget) {
  PageStore store;
  auto p1 = PatternPage(1);
  auto p2 = PatternPage(2);
  PageRef a = store.Publish(p1.data());
  PageRef b = store.Publish(p2.data());
  a = b;
  EXPECT_EQ(store.stats().live_blobs, 1u);
  EXPECT_EQ(a, b);
  a = a;  // self-assignment is a no-op
  EXPECT_TRUE(a.valid());
}

// --- DirtyTracker ----------------------------------------------------------------

TEST(DirtyTrackerTest, MarkAndQuery) {
  DirtyTracker t(1024);
  EXPECT_FALSE(t.IsDirty(5));
  t.MarkDirty(5);
  t.MarkDirty(63);
  t.MarkDirty(64);
  t.MarkDirty(5);  // duplicate must not double-count
  EXPECT_TRUE(t.IsDirty(5));
  EXPECT_TRUE(t.IsDirty(63));
  EXPECT_TRUE(t.IsDirty(64));
  EXPECT_FALSE(t.IsDirty(6));
  EXPECT_EQ(t.count(), 3u);
}

TEST(DirtyTrackerTest, ClearResetsEverything) {
  DirtyTracker t(256);
  for (uint32_t p = 0; p < 256; p += 3) {
    t.MarkDirty(p);
  }
  t.Clear();
  EXPECT_EQ(t.count(), 0u);
  for (uint32_t p = 0; p < 256; ++p) {
    EXPECT_FALSE(t.IsDirty(p));
  }
}

TEST(DirtyTrackerTest, FullCapacity) {
  DirtyTracker t(128);
  for (uint32_t p = 0; p < 128; ++p) {
    t.MarkDirty(p);
  }
  EXPECT_EQ(t.count(), 128u);
}

// --- PageMap ---------------------------------------------------------------------

TEST(PageMapTest, GetSetRoundTrip) {
  PageStore store;
  PageMap m(512);
  auto page = PatternPage(7);
  PageRef ref = store.Publish(page.data());
  m.Set(100, ref);
  EXPECT_EQ(m.Get(100), ref);
  EXPECT_FALSE(m.Get(101).valid());
}

TEST(PageMapTest, ShareThenDivergeDiff) {
  PageStore store;
  PageMap a(4096);
  auto z = PatternPage(0);
  PageRef zero = store.Publish(z.data());
  for (uint32_t p = 0; p < 4096; ++p) {
    a.Set(p, zero);
  }
  PageMap b = a;  // share

  auto one = PatternPage(1);
  b.Set(17, store.Publish(one.data()));
  b.Set(3000, store.Publish(one.data()));

  std::map<uint32_t, bool> diffs;
  a.Diff(b, [&diffs](uint32_t p, const PageRef& mine, const PageRef& theirs) {
    EXPECT_NE(mine, theirs);
    diffs[p] = true;
  });
  EXPECT_EQ(diffs.size(), 2u);
  EXPECT_TRUE(diffs.count(17));
  EXPECT_TRUE(diffs.count(3000));
}

TEST(PageMapTest, DiffOfIdenticalMapsIsEmpty) {
  PageStore store;
  PageMap a(1024);
  auto page = PatternPage(9);
  for (uint32_t p = 0; p < 1024; p += 5) {
    a.Set(p, store.Publish(page.data()));
  }
  PageMap b = a;
  int diffs = 0;
  a.Diff(b, [&diffs](uint32_t, const PageRef&, const PageRef&) { ++diffs; });
  EXPECT_EQ(diffs, 0);
}

TEST(PageMapTest, RefcountsFollowSharing) {
  PageStore store;
  auto page = PatternPage(4);
  PageRef ref = store.Publish(page.data());
  EXPECT_EQ(ref.refcount(), 1u);
  {
    PageMap a(64);
    a.Set(0, ref);
    EXPECT_EQ(ref.refcount(), 2u);
    PageMap b = a;
    // Sharing copies no slots: the radix node is shared (still 2 refs).
    EXPECT_EQ(ref.refcount(), 2u);
    b.Set(0, PageRef());
    b.Set(1, ref);
  }
  EXPECT_EQ(ref.refcount(), 1u);
}

// Property test: a chain of shared maps with random mutations matches a
// std::map model, and Diff agrees with brute-force comparison.
class PageMapPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PageMapPropertyTest, RandomSharingMatchesModel) {
  Rng rng(GetParam());
  PageStore store;
  const uint32_t npages = 2048;

  std::vector<PageRef> palette;
  for (uint8_t i = 0; i < 8; ++i) {
    auto page = PatternPage(i);
    palette.push_back(store.Publish(page.data()));
  }

  using Model = std::map<uint32_t, int>;  // page -> palette index (-1 = invalid)
  PageMap subject(npages);
  Model model;
  std::vector<std::pair<PageMap, Model>> snaps;

  for (int op = 0; op < 2000; ++op) {
    int action = static_cast<int>(rng.Below(10));
    uint32_t page = static_cast<uint32_t>(rng.Below(npages));
    if (action < 6) {
      int idx = static_cast<int>(rng.Below(palette.size()));
      subject.Set(page, palette[static_cast<size_t>(idx)]);
      model[page] = idx;
    } else if (action < 8) {
      snaps.emplace_back(subject, model);
    } else if (!snaps.empty()) {
      size_t i = static_cast<size_t>(rng.Below(snaps.size()));
      // Verify diff against the model before restoring.
      int diff_count = 0;
      subject.Diff(snaps[i].first, [&](uint32_t p, const PageRef& mine, const PageRef& theirs) {
        auto GetModel = [](const Model& mm, uint32_t key) {
          auto it = mm.find(key);
          return it == mm.end() ? -1 : it->second;
        };
        EXPECT_NE(GetModel(model, p), GetModel(snaps[i].second, p));
        EXPECT_NE(mine, theirs);
        ++diff_count;
      });
      int expected = 0;
      for (uint32_t p = 0; p < npages; ++p) {
        auto a = model.find(p);
        auto b = snaps[i].second.find(p);
        int av = a == model.end() ? -1 : a->second;
        int bv = b == snaps[i].second.end() ? -1 : b->second;
        if (av != bv) {
          ++expected;
        }
      }
      EXPECT_EQ(diff_count, expected);
      subject = snaps[i].first;
      model = snaps[i].second;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageMapPropertyTest, ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace lw
