// Tests for the content-addressed PageStore substrate: the in-tree LZ codec,
// hash-dedup semantics (identity, refcounts, owner attribution), the
// cold-compression tier's exact-parity guarantee, and the unified
// evict → compress → spill → drop EnforceByteBudget ladder (spill rung
// covered in spill_tier_test.cc; here the stores have no spill_dir, so the
// ladder skips that rung and the spill counters must stay exactly zero).

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/snapshot/budget_policy.h"
#include "src/snapshot/codec.h"
#include "src/snapshot/page_store.h"
#include "src/util/rng.h"

namespace lw {
namespace {

std::vector<uint8_t> PatternPage(uint8_t fill) { return std::vector<uint8_t>(kPageSize, fill); }

// A page that compresses well but is not all-zero: long runs with a few
// distinct bytes (the shape of SAT watch lists and sparse heap metadata).
std::vector<uint8_t> CompressiblePage(uint8_t seed) {
  std::vector<uint8_t> page(kPageSize, seed);
  for (size_t i = 0; i < kPageSize; i += 256) {
    page[i] = static_cast<uint8_t>(seed + i / 256);
  }
  return page;
}

// A page of pseudo-random bytes: incompressible by construction.
std::vector<uint8_t> RandomPage(uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> page(kPageSize);
  for (auto& b : page) {
    b = static_cast<uint8_t>(rng.Below(256));
  }
  return page;
}

// --- Codec ----------------------------------------------------------------------

TEST(CodecTest, RoundTripCompressible) {
  auto page = CompressiblePage(7);
  std::vector<uint8_t> packed(MaxCompressedBytes(kPageSize));
  size_t n = Compress(page.data(), kPageSize, packed.data(), packed.size());
  ASSERT_GT(n, 0u);
  EXPECT_LT(n, kPageSize / 4);  // runs must compress hard

  std::vector<uint8_t> out(kPageSize);
  size_t m = Decompress(packed.data(), n, out.data(), out.size());
  EXPECT_EQ(m, kPageSize);
  EXPECT_EQ(std::memcmp(out.data(), page.data(), kPageSize), 0);
}

TEST(CodecTest, RoundTripRandomBytes) {
  auto page = RandomPage(42);
  std::vector<uint8_t> packed(MaxCompressedBytes(kPageSize));
  size_t n = Compress(page.data(), kPageSize, packed.data(), packed.size());
  ASSERT_GT(n, 0u);  // fits the worst-case bound even when expansion occurs
  std::vector<uint8_t> out(kPageSize);
  EXPECT_EQ(Decompress(packed.data(), n, out.data(), out.size()), kPageSize);
  EXPECT_EQ(std::memcmp(out.data(), page.data(), kPageSize), 0);
}

TEST(CodecTest, RandomBytesDoNotFitBelowPageSize) {
  auto page = RandomPage(99);
  std::vector<uint8_t> packed(kPageSize - 1);
  // The store's "only keep a win" cap: incompressible input must return 0.
  EXPECT_EQ(Compress(page.data(), kPageSize, packed.data(), packed.size()), 0u);
}

TEST(CodecTest, RoundTripPropertyMixedContent) {
  Rng rng(1234);
  for (int round = 0; round < 50; ++round) {
    // Mix runs, copies, and noise to exercise literals, short matches, long
    // matches, and RLE-style overlapping offsets.
    std::vector<uint8_t> page(kPageSize);
    size_t pos = 0;
    while (pos < kPageSize) {
      int action = static_cast<int>(rng.Below(3));
      size_t len = 1 + rng.Below(512);
      if (len > kPageSize - pos) {
        len = kPageSize - pos;
      }
      if (action == 0) {
        std::memset(page.data() + pos, static_cast<int>(rng.Below(256)), len);
      } else if (action == 1 && pos > 0) {
        size_t back = 1 + rng.Below(pos);
        for (size_t i = 0; i < len; ++i) {
          page[pos + i] = page[pos - back + i % back];
        }
      } else {
        for (size_t i = 0; i < len; ++i) {
          page[pos + i] = static_cast<uint8_t>(rng.Below(256));
        }
      }
      pos += len;
    }
    std::vector<uint8_t> packed(MaxCompressedBytes(kPageSize));
    size_t n = Compress(page.data(), kPageSize, packed.data(), packed.size());
    ASSERT_GT(n, 0u);
    std::vector<uint8_t> out(kPageSize);
    ASSERT_EQ(Decompress(packed.data(), n, out.data(), out.size()), kPageSize);
    ASSERT_EQ(std::memcmp(out.data(), page.data(), kPageSize), 0) << "round " << round;
  }
}

// --- Content-addressed dedup ------------------------------------------------------

TEST(PageStoreContentDedupTest, IdenticalContentCollapsesToOneBlob) {
  PageStore store;
  auto page = PatternPage(0x5a);
  PageRef a = store.Publish(page.data());
  PageRef b = store.Publish(page.data());
  EXPECT_EQ(a, b);  // blob identity, not just content equality
  EXPECT_EQ(a.refcount(), 2u);
  EXPECT_EQ(store.stats().content_dedup_hits, 1u);
  EXPECT_EQ(store.stats().live_blobs, 1u);
}

TEST(PageStoreContentDedupTest, DistinctContentStaysDistinct) {
  PageStore store;
  auto p1 = PatternPage(1);
  auto p2 = PatternPage(2);
  PageRef a = store.Publish(p1.data());
  PageRef b = store.Publish(p2.data());
  EXPECT_NE(a, b);
  EXPECT_EQ(store.stats().content_dedup_hits, 0u);
  EXPECT_EQ(store.stats().live_blobs, 2u);
}

TEST(PageStoreContentDedupTest, DeadContentIsForgotten) {
  PageStore store;
  auto page = PatternPage(9);
  { PageRef a = store.Publish(page.data()); }
  // The blob died: republish must allocate anew, not resurrect freed state.
  PageRef b = store.Publish(page.data());
  EXPECT_EQ(store.stats().content_dedup_hits, 0u);
  EXPECT_EQ(store.stats().total_published, 2u);
  EXPECT_TRUE(b.EqualsPage(page.data()));
}

TEST(PageStoreContentDedupTest, CrossOwnerHitsAreAttributed) {
  PageStore store;
  uint32_t session_a = store.RegisterOwner();
  uint32_t session_b = store.RegisterOwner();
  auto page = PatternPage(0x7e);
  PageRef a = store.Publish(page.data(), session_a);
  PageRef b = store.Publish(page.data(), session_a);  // same session: not cross
  PageRef c = store.Publish(page.data(), session_b);  // different session: cross
  EXPECT_EQ(store.stats().content_dedup_hits, 2u);
  EXPECT_EQ(store.stats().cross_session_dedup_hits, 1u);
}

TEST(PageStoreContentDedupTest, ManyDistinctPagesSurviveIndexGrowth) {
  PageStore store;
  std::vector<PageRef> refs;
  std::vector<uint8_t> page(kPageSize, 0);
  for (uint32_t i = 1; i <= 4096; ++i) {
    std::memcpy(page.data(), &i, sizeof(i));
    refs.push_back(store.Publish(page.data()));
  }
  EXPECT_EQ(store.stats().live_blobs, 4096u);
  EXPECT_EQ(store.stats().content_dedup_hits, 0u);
  // Every page still deduplicates against its own blob after growth + churn.
  for (uint32_t i = 1; i <= 4096; ++i) {
    std::memcpy(page.data(), &i, sizeof(i));
    PageRef again = store.Publish(page.data());
    ASSERT_EQ(again, refs[i - 1]);
  }
  EXPECT_EQ(store.stats().content_dedup_hits, 4096u);
}

TEST(PageStoreContentDedupTest, ChurnKeepsIndexConsistent) {
  // Interleave publishes and releases so index deletions (backward-shift)
  // run against live probe chains.
  PageStore store;
  Rng rng(77);
  std::vector<std::pair<uint32_t, PageRef>> live;
  std::vector<uint8_t> page(kPageSize, 0);
  for (int op = 0; op < 4000; ++op) {
    if (live.empty() || rng.Below(3) != 0) {
      uint32_t tag = static_cast<uint32_t>(rng.Below(512));
      std::memcpy(page.data(), &tag, sizeof(tag));
      page[8] = 1;  // defeat zero-page collapse for tag 0
      PageRef ref = store.Publish(page.data());
      ASSERT_TRUE(ref.EqualsPage(page.data()));
      live.emplace_back(tag, std::move(ref));
    } else {
      size_t i = static_cast<size_t>(rng.Below(live.size()));
      live.erase(live.begin() + static_cast<ptrdiff_t>(i));
    }
  }
  for (auto& [tag, ref] : live) {
    uint32_t got = 0;
    ref.ReadBytes(0, &got, sizeof(got));
    ASSERT_EQ(got, tag);
  }
}

// --- Cold-compression tier --------------------------------------------------------

TEST(PageStoreCompressionTest, CompressionPreservesExactBytes) {
  PageStore store;
  std::vector<PageRef> refs;
  for (uint8_t i = 1; i <= 8; ++i) {
    auto page = CompressiblePage(i);
    refs.push_back(store.Publish(page.data()));
  }
  uint64_t raw_bytes = store.stats().bytes_live();
  EXPECT_EQ(store.CompressAllCold(), 8u);
  EXPECT_EQ(store.stats().compressed_blobs, 8u);
  EXPECT_LT(store.stats().bytes_live(), raw_bytes);
  // CopyTo transparently re-inflates; content must be byte-exact.
  std::vector<uint8_t> out(kPageSize);
  for (uint8_t i = 1; i <= 8; ++i) {
    auto want = CompressiblePage(i);
    EXPECT_TRUE(refs[i - 1].compressed());
    refs[i - 1].CopyTo(out.data());
    EXPECT_EQ(std::memcmp(out.data(), want.data(), kPageSize), 0);
    EXPECT_FALSE(refs[i - 1].compressed());  // warmed by the touch
  }
  EXPECT_EQ(store.stats().compressed_blobs, 0u);
  EXPECT_EQ(store.stats().decompressions, 8u);
  // No spill_dir was configured: the compress round trip must never have
  // touched the spill tier, and every spill counter stays exactly zero.
  EXPECT_FALSE(store.spill_enabled());
  EXPECT_EQ(store.stats().spills, 0u);
  EXPECT_EQ(store.stats().spilled_blobs, 0u);
  EXPECT_EQ(store.stats().spill_bytes, 0u);
  EXPECT_EQ(store.stats().faultbacks, 0u);
  EXPECT_EQ(store.stats().spill_segments, 0u);
}

TEST(PageStoreCompressionTest, IncompressiblePagesStayRaw) {
  PageStore store;
  auto noise = RandomPage(5);
  PageRef ref = store.Publish(noise.data());
  EXPECT_EQ(store.CompressAllCold(), 0u);
  EXPECT_FALSE(ref.compressed());
  EXPECT_TRUE(ref.EqualsPage(noise.data()));
}

TEST(PageStoreCompressionTest, DedupAgainstColdBlobWarmsIt) {
  PageStore store;
  auto page = CompressiblePage(3);
  PageRef a = store.Publish(page.data());
  ASSERT_EQ(store.CompressAllCold(), 1u);
  ASSERT_TRUE(a.compressed());
  // Republishing the same content must hit the cold blob (and re-inflate it,
  // since a confirmed republish means the content is hot again).
  PageRef b = store.Publish(page.data());
  EXPECT_EQ(a, b);
  EXPECT_EQ(store.stats().content_dedup_hits, 1u);
  EXPECT_FALSE(a.compressed());
}

TEST(PageStoreCompressionTest, ZeroPageIsNeverCompressed) {
  PageStore store;
  PageRef zero = store.ZeroPage();
  EXPECT_EQ(store.CompressAllCold(), 0u);
  EXPECT_FALSE(zero.compressed());
}

TEST(PageStoreCompressionTest, ReleasingColdBlobReclaimsBytes) {
  PageStore store;
  auto page = CompressiblePage(11);
  uint64_t empty_bytes = store.stats().bytes_live();
  {
    PageRef ref = store.Publish(page.data());
    store.CompressAllCold();
  }
  EXPECT_EQ(store.stats().live_blobs, 0u);
  EXPECT_EQ(store.stats().bytes_live(), empty_bytes);
  store.TrimFreeList();
  EXPECT_EQ(store.stats().bytes_resident(), 0u);
}

// --- EnforceByteBudget: evict → compress → spill → drop (no spill_dir here) --------

TEST(ByteBudgetPolicyTest, UnboundedBudgetDoesNothing) {
  PageStore store;
  auto page = CompressiblePage(1);
  PageRef ref = store.Publish(page.data());
  int evict_calls = 0;
  EnforceByteBudget(store, 0, [&evict_calls] {
    ++evict_calls;
    return false;
  });
  EXPECT_EQ(evict_calls, 0);
  EXPECT_EQ(store.stats().compressed_blobs, 0u);
}

TEST(ByteBudgetPolicyTest, EvictionRunsBeforeCompression) {
  PageStore store;
  std::vector<PageRef> frontier;
  for (uint8_t i = 1; i <= 16; ++i) {
    auto page = CompressiblePage(i);
    frontier.push_back(store.Publish(page.data()));
  }
  uint64_t budget = store.stats().bytes_live() - 1;  // one page over
  EnforceByteBudget(store, budget, [&frontier] {
    if (frontier.empty()) {
      return false;
    }
    frontier.pop_back();
    return true;
  });
  // One eviction sufficed: compression never ran.
  EXPECT_EQ(frontier.size(), 15u);
  EXPECT_EQ(store.stats().compressed_blobs, 0u);
  EXPECT_LE(store.stats().bytes_live(), budget);
}

TEST(ByteBudgetPolicyTest, CompressionCatchesWhatEvictionCannot) {
  // The acceptance scenario: same budget, nothing evictable (all pages pinned
  // by parked snapshots) — the compressible store ends below the floor of a
  // baseline whose pages are random bytes, where the compress rung fails on
  // every blob.
  auto run = [](bool compressible) {
    PageStore store;
    std::vector<PageRef> parked;
    for (uint8_t i = 1; i <= 16; ++i) {
      auto page = compressible ? CompressiblePage(i) : RandomPage(i);
      parked.push_back(store.Publish(page.data()));
    }
    uint64_t budget = store.stats().bytes_live() / 2;
    EnforceByteBudget(store, budget, [] { return false; });  // nothing evictable
    uint64_t live = store.stats().bytes_live();
    uint64_t cold = store.stats().compressed_blobs;
    parked.clear();
    return std::make_pair(live, cold);
  };
  auto [baseline_live, baseline_cold] = run(false);
  auto [compressed_live, compressed_cold] = run(true);
  EXPECT_EQ(baseline_cold, 0u);
  EXPECT_GT(compressed_cold, 0u);
  EXPECT_LT(compressed_live, baseline_live);  // lower live bytes under the same budget
}

TEST(ByteBudgetPolicyTest, DropStageTrimsFreeListPastResidentBudget) {
  // Random-byte pages are incompressible, so stage 2 fails on every blob.
  PageStore store;
  auto churn = [&store](uint8_t first) {
    std::vector<PageRef> refs;
    for (uint8_t i = first; i < first + 4; ++i) {
      auto page = RandomPage(i);
      refs.push_back(store.Publish(page.data()));
    }
  };
  std::vector<PageRef> pinned;
  auto page = RandomPage(9);
  pinned.push_back(store.Publish(page.data()));
  churn(1);
  ASSERT_GT(store.stats().free_blobs, 0u);
  ASSERT_GT(store.bytes_resident(), store.bytes_live() + 1);

  // Live + free bytes fit: the free list survives (recycling is what keeps
  // Publish off the host allocator while the budget holds).
  EnforceByteBudget(store, store.bytes_resident(), [] { return false; });
  EXPECT_GT(store.stats().free_blobs, 0u);

  // Live bytes fit but live + free does not: the drop stage trims the free
  // list so residency meets the budget.
  EnforceByteBudget(store, store.bytes_live() + 1, [] { return false; });
  EXPECT_EQ(store.stats().free_blobs, 0u);
  EXPECT_LE(store.bytes_resident(), store.bytes_live() + 1);

  // Budget unmeetable (nothing evictable, the pinned page incompressible):
  // the free list is pure overhead — the drop stage returns it to the host.
  churn(11);
  ASSERT_GT(store.stats().free_blobs, 0u);
  EnforceByteBudget(store, 1, [] { return false; });
  EXPECT_EQ(store.stats().free_blobs, 0u);
}

TEST(PageStoreCompressionTest, IncompressibleBlobsAreNotRetried) {
  PageStore store;
  auto noise = RandomPage(7);
  PageRef ref = store.Publish(noise.data());
  EXPECT_EQ(store.CompressAllCold(), 0u);
  uint64_t attempts = store.stats().compression_attempts;
  EXPECT_GT(attempts, 0u);
  // A dedup hit re-touches the blob; the known-incompressible flag must keep
  // it off the cold list so later passes do not re-run the compressor.
  PageRef again = store.Publish(noise.data());
  EXPECT_EQ(again, ref);
  EXPECT_EQ(store.CompressAllCold(), 0u);
  EXPECT_EQ(store.stats().compression_attempts, attempts);
}

}  // namespace
}  // namespace lw
