// Multi-session PageStore sharing: N BacktrackSessions publishing through one
// injected store. The paper's thesis is that snapshots are a *system-level
// service* shared by many search workloads — the shareable store is what makes
// that true for resident bytes: byte-identical pages published by different
// sessions (same boards, same heap metadata) collapse to one blob, and
// `cross_session_dedup_hits` is the headline counter.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
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
  // Page-aligned trail: one full page of placement-derived bytes per column —
  // the analog of a solver's watch lists / trail arrays. Its content depends
  // only on the placements (no host pointers), so branches that place the same
  // queen republish byte-identical pages, and so does every other session
  // running the same problem. Pointer-bearing pages (guest stack frames, heap
  // metadata) can never dedup across sessions: arenas mmap at different bases.
  auto* raw = static_cast<uint8_t*>(session->heap()->Alloc((16 + 1) * kPageSize));
  auto* trail = reinterpret_cast<uint8_t*>(
      (reinterpret_cast<uintptr_t>(raw) + kPageSize - 1) & ~(kPageSize - 1));
  auto* mailbox = static_cast<uint8_t*>(session->heap()->Alloc(16));
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
      mailbox[c] = static_cast<uint8_t>(r);
    }
    sys_note_solution();
    // Park every solution as a checkpoint: its snapshot (trail + the placement
    // row in the mailbox) stays live for the rest of the session — the service
    // shape, and the state a later session's identical placements dedup
    // against. A completed search with no parked state retains almost nothing
    // for others to share.
    sys_yield(mailbox, 16);
    sys_guess_fail();  // runs only if the host resumes the parked solution
  }
}

bool IsValidQueensSolution(const uint8_t* rows, int n) {
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      if (rows[a] == rows[b] || rows[a] + a == rows[b] + b || rows[a] - a == rows[b] - b) {
        return false;
      }
    }
  }
  return true;
}

SessionOptions QueensOptions(SnapshotMode mode, std::shared_ptr<PageStore> store) {
  SessionOptions options;
  // Small arena: full-copy mode publishes every page per snapshot, and the
  // parity sweep runs it thousands of times.
  options.arena_bytes = 2ull << 20;
  options.snapshot_mode = mode;
  options.store = std::move(store);
  options.output = [](std::string_view) {};
  return options;
}

class SharedStoreTest : public ::testing::TestWithParam<SnapshotMode> {};

TEST_P(SharedStoreTest, TwoSessionsDedupAcrossEachOther) {
  auto store = std::make_shared<PageStore>();
  int n = kQueensN;

  // Both sessions stay alive while the second runs, so the first session's
  // snapshot tree is resident content for the second to dedup against.
  BacktrackSession first(QueensOptions(GetParam(), store));
  BacktrackSession second(QueensOptions(GetParam(), store));

  ASSERT_TRUE(first.Run(&QueensGuest, &n).ok());
  uint64_t cross_after_first = store->stats().cross_session_dedup_hits;
  ASSERT_TRUE(second.Run(&QueensGuest, &n).ok());

  // Parity: sharing a store must not change search results in any mode.
  EXPECT_EQ(first.stats().solutions, kQueensSolutions);
  EXPECT_EQ(second.stats().solutions, kQueensSolutions);

  // The headline: the second session republished the first session's bytes.
  EXPECT_GT(store->stats().content_dedup_hits, 0u);
  EXPECT_GT(store->stats().cross_session_dedup_hits, cross_after_first);
}

TEST_P(SharedStoreTest, SharedStoreIsCheaperThanPrivateStores) {
  int n = 6;  // smaller tree: this asserts residency, not the solution count
  auto run_pair = [&n](std::shared_ptr<PageStore> a, std::shared_ptr<PageStore> b) {
    BacktrackSession first(QueensOptions(GetParam(), a));
    BacktrackSession second(QueensOptions(GetParam(), b));
    EXPECT_TRUE(first.Run(&QueensGuest, &n).ok());
    EXPECT_TRUE(second.Run(&QueensGuest, &n).ok());
    // Measured while both sessions are alive: the honest residency of serving
    // both workloads at once.
    return a->stats().bytes_live() + (b != a ? b->stats().bytes_live() : 0);
  };
  auto shared = std::make_shared<PageStore>();
  uint64_t shared_bytes = run_pair(shared, shared);
  uint64_t private_bytes =
      run_pair(std::make_shared<PageStore>(), std::make_shared<PageStore>());
  EXPECT_LT(shared_bytes, private_bytes);
}

TEST_P(SharedStoreTest, ColdCompressedCheckpointsReadBackExactly) {
  // The compressed-tier parity acceptance: park all 92 solutions, freeze the
  // whole store into the cold tier, then read every solution back through the
  // checkpoint mailbox (the real snapshot-read path, which must transparently
  // re-inflate) and re-verify it on the board. One flipped byte anywhere in
  // codec or store fails the validity check.
  auto store = std::make_shared<PageStore>();
  int n = kQueensN;
  BacktrackSession session(QueensOptions(GetParam(), store));
  ASSERT_TRUE(session.Run(&QueensGuest, &n).ok());
  EXPECT_EQ(session.stats().solutions, kQueensSolutions);
  std::vector<Checkpoint> tokens = session.TakeNewCheckpoints();
  ASSERT_EQ(tokens.size(), kQueensSolutions);  // every solution parked

  ASSERT_GT(store->CompressAllCold(), 0u);
  uint64_t cold_bytes = store->stats().bytes_live();

  std::set<std::vector<uint8_t>> distinct;
  for (const Checkpoint& token : tokens) {
    uint8_t rows[16] = {};
    ASSERT_TRUE(session.ReadCheckpointMailbox(token, rows, static_cast<size_t>(n)).ok());
    ASSERT_TRUE(IsValidQueensSolution(rows, n));
    distinct.emplace(rows, rows + n);
  }
  EXPECT_EQ(distinct.size(), kQueensSolutions);  // 92 *distinct* solutions

  // Resuming a cold checkpoint restores from compressed blobs and completes.
  ASSERT_TRUE(session.Resume(tokens[0], nullptr, 0).ok());
  EXPECT_EQ(session.stats().solutions, kQueensSolutions);  // no phantom solutions
  EXPECT_GT(store->stats().decompressions, 0u);
  EXPECT_LT(cold_bytes, store->stats().bytes_live());  // reads genuinely re-inflated
}

TEST_P(SharedStoreTest, ConcurrentSessionsOnWorkerThreadsKeepParityAndDedup) {
  // PR 3 acceptance shape: a fleet of sessions on real worker threads over one
  // internally-synchronized store. Each session is thread-affine (constructed
  // and driven entirely on its worker); only the store is shared. Parity (92
  // solutions each) and cross-thread dedup must both hold.
#ifdef __SANITIZE_THREAD__
  if (GetParam() == SnapshotMode::kCow) {
    // TSan's runtime and the CoW SIGSEGV protocol disagree about signal
    // interposition; the fault-free engines cover the store's concurrency
    // surface, which is what this suite guards under TSan.
    GTEST_SKIP() << "CoW faults under TSan: covered by the non-sanitized job";
  }
#endif
  constexpr int kSessions = 4;
  auto store = std::make_shared<PageStore>();
  int n = kQueensN;
  uint64_t solutions[kSessions] = {};
  std::vector<std::thread> workers;
  for (int i = 0; i < kSessions; ++i) {
    workers.emplace_back([&, i] {
      BacktrackSession session(QueensOptions(GetParam(), store));
      if (session.Run(&QueensGuest, &n).ok()) {
        solutions[i] = session.stats().solutions;
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  for (int i = 0; i < kSessions; ++i) {
    EXPECT_EQ(solutions[i], kQueensSolutions) << "session " << i;
  }
  // The sessions ran the same problem: their placement trails collided in the
  // store across threads.
  EXPECT_GT(store->stats().cross_session_dedup_hits, 0u);
  // Every session died on its thread and returned its refs.
  EXPECT_LE(store->stats().live_blobs, 1u);
}

TEST_P(SharedStoreTest, StoreOutlivesSessionsAndDrainsClean) {
  auto store = std::make_shared<PageStore>();
  int n = 6;  // smaller tree: this asserts ref draining, not the solution count
  {
    BacktrackSession session(QueensOptions(GetParam(), store));
    ASSERT_TRUE(session.Run(&QueensGuest, &n).ok());
    EXPECT_GT(store->stats().live_blobs, 0u);
  }
  // The session returned every ref it minted; only the store-held canonical
  // zero blob may remain.
  EXPECT_LE(store->stats().live_blobs, 1u);
}

INSTANTIATE_TEST_SUITE_P(Backends, SharedStoreTest,
                         ::testing::Values(SnapshotMode::kCow, SnapshotMode::kFullCopy,
                                           SnapshotMode::kIncremental),
                         [](const ::testing::TestParamInfo<SnapshotMode>& param) {
                           return std::string(SnapshotModeName(param.param));
                         });

}  // namespace
}  // namespace lw
