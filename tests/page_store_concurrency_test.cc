// Concurrency stress for the sharded PageStore: threads publishing identical
// and divergent pages through one store must agree on blob identity (dedup),
// keep refcounts exact (everything drains to zero), and survive compression /
// eviction racing Publish. These tests are the TSan CI job's main course —
// single-threaded suites cannot see lock-ordering or lost-update bugs in the
// shard layer.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "src/snapshot/budget_policy.h"
#include "src/snapshot/page_store.h"
#include "src/util/rng.h"

namespace lw {
namespace {

constexpr int kThreads = 4;

// Deterministic distinct page content: tag in the first word, compressible
// tail (long runs) so the compression tier has something to chew.
std::vector<uint8_t> TaggedPage(uint32_t tag) {
  std::vector<uint8_t> page(kPageSize, static_cast<uint8_t>(tag * 37 + 1));
  std::memcpy(page.data(), &tag, sizeof(tag));
  page[sizeof(tag)] = 1;  // never all-zero
  return page;
}

TEST(PageStoreConcurrencyTest, ConcurrentPublishersAgreeOnIdentity) {
  PageStore store;
  constexpr uint32_t kSharedTags = 64;    // content every thread publishes
  constexpr uint32_t kPrivateTags = 64;   // content unique to each thread
  std::vector<std::vector<PageRef>> shared_refs(kThreads);
  std::vector<std::vector<PageRef>> private_refs(kThreads);
  std::vector<uint32_t> owners(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    owners[static_cast<size_t>(t)] = store.RegisterOwner();
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint32_t owner = owners[static_cast<size_t>(t)];
      for (uint32_t tag = 0; tag < kSharedTags; ++tag) {
        auto page = TaggedPage(tag);
        shared_refs[static_cast<size_t>(t)].push_back(store.Publish(page.data(), owner));
      }
      for (uint32_t tag = 0; tag < kPrivateTags; ++tag) {
        auto page = TaggedPage(1000 + static_cast<uint32_t>(t) * kPrivateTags + tag);
        private_refs[static_cast<size_t>(t)].push_back(store.Publish(page.data(), owner));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  // Identity: every thread's ref to shared tag i is the *same blob*.
  for (uint32_t tag = 0; tag < kSharedTags; ++tag) {
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(shared_refs[0][tag], shared_refs[static_cast<size_t>(t)][tag]);
    }
    EXPECT_EQ(shared_refs[0][tag].refcount(), static_cast<uint32_t>(kThreads));
  }
  // Content parity through the guarded reader.
  for (int t = 0; t < kThreads; ++t) {
    for (uint32_t tag = 0; tag < kSharedTags; ++tag) {
      auto want = TaggedPage(tag);
      EXPECT_TRUE(shared_refs[static_cast<size_t>(t)][tag].EqualsPage(want.data()));
    }
  }
  const PageStore::Stats stats = store.stats();
  EXPECT_EQ(stats.live_blobs, kSharedTags + kThreads * kPrivateTags);
  // Each shared tag: 1 publish allocates, kThreads-1 dedup — all cross-owner.
  EXPECT_EQ(stats.content_dedup_hits, kSharedTags * (kThreads - 1));
  EXPECT_EQ(stats.cross_session_dedup_hits, kSharedTags * (kThreads - 1));

  // Refcount integrity: dropping every ref drains the store to zero.
  shared_refs.clear();
  private_refs.clear();
  EXPECT_EQ(store.stats().live_blobs, 0u);
  store.TrimFreeList();
  EXPECT_EQ(store.stats().bytes_resident(), 0u);
}

TEST(PageStoreConcurrencyTest, CompressionRacingPublishKeepsBytesExact) {
  PageStore store;
  constexpr uint32_t kTags = 48;
  constexpr int kRounds = 40;
  std::atomic<bool> stop{false};

  // Compression pressure from two plain threads racing the publishers: one
  // works the ladder's compress and drop rungs under an unmeetable target
  // (compress every cold blob, then trim the free lists), the other hammers
  // CompressOneCold.
  std::thread compactor([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      while (store.CompressOneCold()) {
      }
      store.TrimFreeList();
    }
  });
  std::thread squeezer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      store.CompressOneCold();
    }
  });

  std::vector<std::thread> publishers;
  std::vector<std::vector<PageRef>> held(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    publishers.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      std::vector<PageRef>& mine = held[static_cast<size_t>(t)];
      for (int round = 0; round < kRounds; ++round) {
        for (uint32_t tag = 0; tag < kTags; ++tag) {
          auto page = TaggedPage(tag);
          mine.push_back(store.Publish(page.data()));
        }
        // Churn: drop a random half so recycling races publish and compress.
        for (size_t i = 0; i < mine.size() / 2; ++i) {
          size_t victim = static_cast<size_t>(rng.Below(mine.size()));
          mine.erase(mine.begin() + static_cast<ptrdiff_t>(victim));
        }
      }
    });
  }
  for (auto& thread : publishers) {
    thread.join();
  }
  stop.store(true, std::memory_order_relaxed);
  compactor.join();
  squeezer.join();

  // Every surviving ref must read back byte-exact through the guarded reader,
  // whether it is currently cold or raw.
  for (int t = 0; t < kThreads; ++t) {
    for (const PageRef& ref : held[static_cast<size_t>(t)]) {
      uint32_t tag = 0;
      ref.ReadBytes(0, &tag, sizeof(tag));
      auto want = TaggedPage(tag);
      std::vector<uint8_t> got(kPageSize);
      ref.CopyTo(got.data());
      ASSERT_EQ(std::memcmp(got.data(), want.data(), kPageSize), 0);
    }
  }
  held.clear();
  EXPECT_EQ(store.stats().live_blobs, 0u);
}

TEST(PageStoreConcurrencyTest, ConcurrentEnforceConvergesOnFleetCap) {
  // The EnforceByteBudget contract for shared stores: concurrent calls
  // from sharers (each evicting only its own frontier) are safe and jointly
  // converge on the one fleet-wide cap.
  PageStore store;
  constexpr uint32_t kPagesPerThread = 64;
  const uint64_t per_blob = sizeof(internal::PageBlob) + kPageSize;
  const uint64_t budget = (kThreads * kPagesPerThread / 4) * per_blob;

  std::vector<std::thread> sharers;
  for (int t = 0; t < kThreads; ++t) {
    sharers.emplace_back([&, t] {
      std::vector<PageRef> frontier;
      for (uint32_t i = 0; i < kPagesPerThread; ++i) {
        auto page = TaggedPage(static_cast<uint32_t>(t) * kPagesPerThread + i);
        frontier.push_back(store.Publish(page.data()));
      }
      for (int round = 0; round < 8; ++round) {
        EnforceByteBudget(store, budget, [&frontier] {
          if (frontier.empty()) {
            return false;
          }
          frontier.pop_back();
          return true;
        });
      }
      frontier.clear();
    });
  }
  for (auto& thread : sharers) {
    thread.join();
  }
  // Everything evictable was evicted and every thread exited cleanly; with all
  // frontiers dropped the store drains, and one final Enforce (nothing left to
  // evict) holds the cap.
  EnforceByteBudget(store, budget, [] { return false; });
  EXPECT_LE(store.stats().bytes_live(), budget);
  EXPECT_EQ(store.stats().live_blobs, 0u);
}

TEST(PageStoreConcurrencyTest, RefChurnAcrossThreadsDrainsToZero) {
  // Refcount torture: threads share refs to one small set of blobs and
  // copy/drop them at random, so acquire/release and the recycle path race
  // with dedup publishes of the same content.
  PageStore store;
  constexpr uint32_t kTags = 8;
  constexpr int kOps = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) * 31 + 7);
      std::vector<PageRef> mine;
      for (int op = 0; op < kOps; ++op) {
        if (mine.empty() || rng.Below(2) == 0) {
          auto page = TaggedPage(static_cast<uint32_t>(rng.Below(kTags)));
          mine.push_back(store.Publish(page.data()));
        } else if (rng.Below(2) == 0) {
          mine.push_back(mine[static_cast<size_t>(rng.Below(mine.size()))]);  // copy
        } else {
          mine.erase(mine.begin() + static_cast<ptrdiff_t>(rng.Below(mine.size())));
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(store.stats().live_blobs, 0u);
  EXPECT_LE(store.stats().free_blobs, store.stats().total_published);
  store.TrimFreeList();
  EXPECT_EQ(store.stats().bytes_resident(), 0u);
}

}  // namespace
}  // namespace lw
