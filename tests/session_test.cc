// Integration tests for the backtracking engine: correctness of guess/fail
// semantics, state rollback across the snapshot tree, strategy behaviour,
// checkpoints, output policies, both snapshot modes, both page-map kinds, and
// engine parity with the fork-based strawman.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/core/backtrack.h"

namespace lw {
namespace {

BacktrackSession* Session() { return static_cast<BacktrackSession*>(CurrentExecutor()); }

SessionOptions SmallOptions() {
  SessionOptions options;
  options.arena_bytes = 8ull << 20;
  options.guest_stack_bytes = 256 * 1024;
  options.output = [](std::string_view) {};
  return options;
}

// --- Basic lifecycle --------------------------------------------------------------

void TrivialGuest(void* arg) { *static_cast<int*>(arg) = 42; }

TEST(SessionTest, GuestWithNoGuessesRunsToCompletion) {
  BacktrackSession session(SmallOptions());
  int result = 0;
  ASSERT_TRUE(session.Run(&TrivialGuest, &result).ok());
  EXPECT_EQ(result, 42);
  EXPECT_EQ(session.stats().completions, 1u);
  EXPECT_EQ(session.stats().guesses, 0u);
}

void EmitGuest(void*) {
  sys_emit_str("hello ");
  sys_emitf("%d", 7);
}

TEST(SessionTest, EmitReachesOutputSink) {
  SessionOptions options = SmallOptions();
  std::string captured;
  options.output = [&captured](std::string_view text) { captured.append(text); };
  BacktrackSession session(options);
  ASSERT_TRUE(session.Run(&EmitGuest, nullptr).ok());
  EXPECT_EQ(captured, "hello 7");
}

// --- Guess enumeration -------------------------------------------------------------

void EnumerateGuest(void*) {
  int v = sys_guess(5);
  sys_emitf("%d;", v);
}

TEST(SessionTest, GuessEnumeratesAllValuesInOrder) {
  SessionOptions options = SmallOptions();
  std::string captured;
  options.output = [&captured](std::string_view text) { captured.append(text); };
  BacktrackSession session(options);
  ASSERT_TRUE(session.Run(&EnumerateGuest, nullptr).ok());
  EXPECT_EQ(captured, "0;1;2;3;4;");  // DFS explores value 0 first
  EXPECT_EQ(session.stats().completions, 5u);
  EXPECT_EQ(session.stats().guesses, 1u);
  EXPECT_EQ(session.stats().snapshots, 1u);
  EXPECT_EQ(session.stats().extensions_evaluated, 5u);
}

void NestedGuessGuest(void*) {
  int a = sys_guess(3);
  int b = sys_guess(2);
  sys_emitf("%d%d;", a, b);
}

TEST(SessionTest, NestedGuessesFormFullTree) {
  SessionOptions options = SmallOptions();
  std::string captured;
  options.output = [&captured](std::string_view text) { captured.append(text); };
  BacktrackSession session(options);
  ASSERT_TRUE(session.Run(&NestedGuessGuest, nullptr).ok());
  EXPECT_EQ(captured, "00;01;10;11;20;21;");
  EXPECT_EQ(session.stats().completions, 6u);
  EXPECT_EQ(session.stats().guesses, 1u + 3u);  // one root guess + one per branch
}

// --- State rollback (the core property) --------------------------------------------

struct RollbackState {
  int counter = 0;
  int touched[8] = {};
};

void RollbackGuest(void*) {
  auto* state = GuestNew<RollbackState>(Session()->heap());
  state->counter = 100;
  int v = sys_guess(4);
  // Each extension sees the pristine pre-guess state, regardless of what sibling
  // extensions did afterwards.
  if (state->counter != 100) {
    sys_emit_str("CORRUPT;");
    return;
  }
  for (int i = 0; i < 8; ++i) {
    if (state->touched[i] != 0) {
      sys_emit_str("LEAK;");
      return;
    }
  }
  state->counter = v;
  state->touched[v] = 1;
  sys_emitf("ok%d;", v);
}

TEST(SessionTest, SiblingExtensionsAreIsolated) {
  SessionOptions options = SmallOptions();
  std::string captured;
  options.output = [&captured](std::string_view text) { captured.append(text); };
  BacktrackSession session(options);
  ASSERT_TRUE(session.Run(&RollbackGuest, nullptr).ok());
  EXPECT_EQ(captured, "ok0;ok1;ok2;ok3;");
}

void HeapRollbackGuest(void*) {
  GuestHeap* heap = Session()->heap();
  // Allocations made after the guess must be rolled back: each sibling sees the
  // same heap bytes_in_use as at the guess point.
  uint64_t base_use = heap->stats().bytes_in_use;
  int v = sys_guess(3);
  if (heap->stats().bytes_in_use != base_use) {
    sys_emit_str("HEAPLEAK;");
    return;
  }
  void* p = heap->Alloc(1024 * static_cast<size_t>(v + 1));
  if (p == nullptr) {
    sys_emit_str("OOM;");
    return;
  }
  std::memset(p, v, 1024 * static_cast<size_t>(v + 1));
  sys_emitf("a%d;", v);
  // Deliberately leak: rollback must reclaim it for siblings.
}

TEST(SessionTest, HeapAllocationsRollBackAcrossExtensions) {
  SessionOptions options = SmallOptions();
  std::string captured;
  options.output = [&captured](std::string_view text) { captured.append(text); };
  BacktrackSession session(options);
  ASSERT_TRUE(session.Run(&HeapRollbackGuest, nullptr).ok());
  EXPECT_EQ(captured, "a0;a1;a2;");
}

// --- Figure 1: n-queens -------------------------------------------------------------

struct NQueensConfig {
  int n = 0;
  StrategyKind strategy = StrategyKind::kDfs;
};

struct NQueensBoard {
  int n = 0;
  int col[16] = {};
  int row[16] = {};
  int ld[32] = {};
  int rd[32] = {};
};

void NQueensSolve(NQueensBoard* b) {
  const int n = b->n;
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
  sys_emit_str("s");
}

void NQueensGuest(void* arg) {
  auto* config = static_cast<NQueensConfig*>(arg);
  auto* board = GuestNew<NQueensBoard>(Session()->heap());
  board->n = config->n;
  if (sys_guess_strategy(config->strategy)) {
    NQueensSolve(board);
    sys_guess_fail();  // enumerate all answers
  }
  sys_emit_str("E");  // the one-time false return (Figure 1 exit path)
}

int ExpectedQueens(int n) {
  static const int kCounts[] = {1, 1, 0, 0, 2, 10, 4, 40, 92, 352, 724};
  return kCounts[n];
}

struct SessionVariant {
  SnapshotMode mode;
  StrategyKind strategy;
};

class NQueensVariantTest : public ::testing::TestWithParam<SessionVariant> {};

TEST_P(NQueensVariantTest, CountsAllSolutions) {
  const SessionVariant& variant = GetParam();
  for (int n : {4, 5, 6}) {
    SessionOptions options = SmallOptions();
    options.arena_bytes = 4ull << 20;
    options.snapshot_mode = variant.mode;
    std::string captured;
    options.output = [&captured](std::string_view text) { captured.append(text); };
    BacktrackSession session(options);
    NQueensConfig config{n, variant.strategy};
    ASSERT_TRUE(session.Run(&NQueensGuest, &config).ok());
    int solutions = static_cast<int>(std::count(captured.begin(), captured.end(), 's'));
    EXPECT_EQ(solutions, ExpectedQueens(n)) << "n=" << n;
    EXPECT_EQ(std::count(captured.begin(), captured.end(), 'E'), 1) << "n=" << n;
    EXPECT_EQ(session.stats().solutions, static_cast<uint64_t>(ExpectedQueens(n)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, NQueensVariantTest,
    ::testing::Values(SessionVariant{SnapshotMode::kCow, StrategyKind::kDfs},
                      SessionVariant{SnapshotMode::kFullCopy, StrategyKind::kDfs},
                      SessionVariant{SnapshotMode::kIncremental, StrategyKind::kDfs},
                      SessionVariant{SnapshotMode::kIncremental, StrategyKind::kBfs},
                      SessionVariant{SnapshotMode::kCow, StrategyKind::kBfs},
                      SessionVariant{SnapshotMode::kCow, StrategyKind::kRandom},
                      SessionVariant{SnapshotMode::kCow, StrategyKind::kIddfs}),
    [](const ::testing::TestParamInfo<SessionVariant>& param) {
      std::string name = SnapshotModeName(param.param.mode);
      name += "_";
      name += StrategyKindName(param.param.strategy);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// --- Fork engine parity ---------------------------------------------------------------

TEST(ForkEngineTest, NQueensMatchesSnapshotEngine) {
  ForkSessionOptions options;
  std::string captured;
  options.output = [&captured](std::string_view text) { captured.append(text); };
  ForkSession session(options);
  NQueensConfig config{5, StrategyKind::kDfs};
  // The fork guest must not touch the snapshot-engine heap: allocate on the stack.
  ASSERT_TRUE(session
                  .Run(
                      [](void* arg) {
                        auto* cfg = static_cast<NQueensConfig*>(arg);
                        NQueensBoard board;
                        board.n = cfg->n;
                        if (sys_guess_strategy(StrategyKind::kDfs)) {
                          NQueensSolve(&board);
                          sys_guess_fail();
                        }
                        sys_emit_str("E");
                      },
                      &config)
                  .ok());
  EXPECT_EQ(std::count(captured.begin(), captured.end(), 's'), 10);
  EXPECT_EQ(std::count(captured.begin(), captured.end(), 'E'), 1);
  EXPECT_EQ(session.stats().solutions, 10u);
  EXPECT_GT(session.stats().forks, 0u);
}

void ForkIsolationGuest(void*) {
  int local = 7;
  int v = sys_guess(3);
  if (local != 7) {
    sys_emit_str("CORRUPT;");
    return;
  }
  local = v;
  sys_emitf("v%d;", local);
}

TEST(ForkEngineTest, ProcessIsolationMatchesSnapshotSemantics) {
  ForkSessionOptions options;
  std::string captured;
  options.output = [&captured](std::string_view text) { captured.append(text); };
  ForkSession session(options);
  ASSERT_TRUE(session.Run(&ForkIsolationGuest, nullptr).ok());
  EXPECT_EQ(captured, "v0;v1;v2;");
}

// --- Strategy behaviour -----------------------------------------------------------------

void DepthOrderGuest(void*) {
  int a = sys_guess(2);
  sys_emitf("d1-%d;", a);
  int b = sys_guess(2);
  sys_emitf("d2-%d%d;", a, b);
}

TEST(SessionTest, BfsVisitsShallowerNodesFirst) {
  SessionOptions options = SmallOptions();
  options.strategy.kind = StrategyKind::kBfs;
  std::string captured;
  options.output = [&captured](std::string_view text) { captured.append(text); };
  BacktrackSession session(options);
  ASSERT_TRUE(session.Run(&DepthOrderGuest, nullptr).ok());
  // All depth-1 emissions must precede all depth-2 emissions.
  size_t last_d1 = captured.rfind("d1-");
  size_t first_d2 = captured.find("d2-");
  ASSERT_NE(last_d1, std::string::npos);
  ASSERT_NE(first_d2, std::string::npos);
  EXPECT_LT(last_d1, first_d2);
  EXPECT_EQ(session.stats().completions, 4u);
}

void WeightedGuest(void*) {
  GuessCost costs[3] = {{10.0, 0.0}, {1.0, 0.0}, {5.0, 0.0}};
  int v = sys_guess_weighted(3, costs);
  sys_emitf("%d;", v);
}

TEST(SessionTest, AstarPopsCheapestFirst) {
  SessionOptions options = SmallOptions();
  options.strategy.kind = StrategyKind::kAstar;
  std::string captured;
  options.output = [&captured](std::string_view text) { captured.append(text); };
  BacktrackSession session(options);
  ASSERT_TRUE(session.Run(&WeightedGuest, nullptr).ok());
  EXPECT_EQ(captured, "1;2;0;");
}

// --- Checkpoints (the §3.2 service primitive) ---------------------------------------------

struct YieldScratch {
  char mailbox[256];
  int accumulated;
};

void YieldGuest(void*) {
  auto* scratch = GuestNew<YieldScratch>(Session()->heap());
  scratch->accumulated = 0;
  for (;;) {
    std::snprintf(scratch->mailbox, sizeof(scratch->mailbox), "sum=%d", scratch->accumulated);
    size_t len = sys_yield(scratch->mailbox, sizeof(scratch->mailbox));
    if (len == 0) {
      return;
    }
    int delta = std::atoi(scratch->mailbox);
    scratch->accumulated += delta;
  }
}

TEST(SessionTest, CheckpointResumeForksExecution) {
  BacktrackSession session(SmallOptions());
  ASSERT_TRUE(session.Run(&YieldGuest, nullptr).ok());
  auto tokens = session.TakeNewCheckpoints();
  ASSERT_EQ(tokens.size(), 1u);
  Checkpoint& t0 = tokens[0];

  char result[256] = {};
  ASSERT_TRUE(session.ReadCheckpointMailbox(t0, result, sizeof(result)).ok());
  EXPECT_STREQ(result, "sum=0");

  // Resume the same immutable checkpoint twice with different messages: each
  // resume is an independent fork.
  ASSERT_TRUE(session.Resume(t0, "5", 2).ok());
  auto after_five = session.TakeNewCheckpoints();
  ASSERT_EQ(after_five.size(), 1u);
  ASSERT_TRUE(session.ReadCheckpointMailbox(after_five[0], result, sizeof(result)).ok());
  EXPECT_STREQ(result, "sum=5");

  ASSERT_TRUE(session.Resume(t0, "7", 2).ok());
  auto after_seven = session.TakeNewCheckpoints();
  ASSERT_EQ(after_seven.size(), 1u);
  ASSERT_TRUE(session.ReadCheckpointMailbox(after_seven[0], result, sizeof(result)).ok());
  EXPECT_STREQ(result, "sum=7");  // NOT 12: t0's state is immutable

  // Chain: extend the sum=5 checkpoint.
  ASSERT_TRUE(session.Resume(after_five[0], "10", 3).ok());
  auto after_chain = session.TakeNewCheckpoints();
  ASSERT_EQ(after_chain.size(), 1u);
  ASSERT_TRUE(session.ReadCheckpointMailbox(after_chain[0], result, sizeof(result)).ok());
  EXPECT_STREQ(result, "sum=15");

  EXPECT_EQ(session.stats().resumes, 3u);
  EXPECT_TRUE(session.ReleaseCheckpoint(t0).ok());
  EXPECT_FALSE(t0.valid());  // explicit release consumes the handle
  EXPECT_EQ(session.Resume(t0, "1", 1).code(), ErrorCode::kInvalidArgument);
}

TEST(SessionTest, CheckpointHandleErrorPaths) {
  BacktrackSession session(SmallOptions());
  ASSERT_TRUE(session.Run(&YieldGuest, nullptr).ok());
  auto tokens = session.TakeNewCheckpoints();
  ASSERT_EQ(tokens.size(), 1u);
  Checkpoint t0 = std::move(tokens[0]);

  // Empty (default or moved-from) handles are clean InvalidArgument, never UB.
  Checkpoint empty;
  EXPECT_EQ(session.Resume(empty, nullptr, 0).code(), ErrorCode::kInvalidArgument);
  char byte = 0;
  EXPECT_EQ(session.ReadCheckpointMailbox(empty, &byte, 1).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(session.ReleaseCheckpoint(empty).code(), ErrorCode::kInvalidArgument);
  Checkpoint live = std::move(t0);
  EXPECT_EQ(session.Resume(t0, nullptr, 0).code(), ErrorCode::kInvalidArgument);

  // A handle from another session is rejected by uid, not misinterpreted.
  BacktrackSession other(SmallOptions());
  ASSERT_TRUE(other.Run(&YieldGuest, nullptr).ok());
  auto other_tokens = other.TakeNewCheckpoints();
  ASSERT_EQ(other_tokens.size(), 1u);
  EXPECT_EQ(session.Resume(other_tokens[0], nullptr, 0).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(session.ReleaseCheckpoint(other_tokens[0]).code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(other_tokens[0].valid());  // failed release leaves the handle intact

  // Release through one clone: the other clone keeps the snapshot alive until
  // it is released too.
  Checkpoint clone = live.Clone();
  EXPECT_TRUE(session.ReleaseCheckpoint(live).ok());
  EXPECT_TRUE(clone.valid());  // the clone still holds a reference
  EXPECT_TRUE(session.Resume(clone, "5", 2).ok());  // snapshot alive via the clone
  auto children = session.TakeNewCheckpoints();
  ASSERT_EQ(children.size(), 1u);
  EXPECT_TRUE(session.ReleaseCheckpoint(clone).ok());
  // Releasing the parent with a live descendant was clean; the descendant
  // still reads and resumes.
  char result[256] = {};
  ASSERT_TRUE(session.ReadCheckpointMailbox(children[0], result, sizeof(result)).ok());
  EXPECT_STREQ(result, "sum=5");
  EXPECT_TRUE(session.Resume(children[0], "2", 2).ok());
}

TEST(SessionTest, HandlesOutlivingSessionAreInert) {
  // Destroying the session detaches the ledger: surviving handles must not
  // abort on Clone (they come up empty) and their drops are no-ops.
  Checkpoint orphan;
  {
    BacktrackSession session(SmallOptions());
    ASSERT_TRUE(session.Run(&YieldGuest, nullptr).ok());
    auto tokens = session.TakeNewCheckpoints();
    ASSERT_EQ(tokens.size(), 1u);
    orphan = std::move(tokens[0]);
  }
  EXPECT_TRUE(orphan.valid());  // the handle object survives...
  Checkpoint clone = orphan.Clone();
  EXPECT_FALSE(clone.valid());  // ...but clones of a dead session are empty
}

TEST(SessionTest, DroppedHandleReclaimsSnapshotAtNextDrive) {
  auto store = std::make_shared<PageStore>();
  SessionOptions options = SmallOptions();
  options.store = store;
  BacktrackSession session(options);
  ASSERT_TRUE(session.Run(&YieldGuest, nullptr).ok());
  auto tokens = session.TakeNewCheckpoints();
  ASSERT_EQ(tokens.size(), 1u);

  // Fork two children, then drop one child's handle entirely (RAII release).
  ASSERT_TRUE(session.Resume(tokens[0], "5", 2).ok());
  auto five = session.TakeNewCheckpoints();
  ASSERT_EQ(five.size(), 1u);
  ASSERT_TRUE(session.Resume(tokens[0], "7", 2).ok());
  auto seven = session.TakeNewCheckpoints();
  ASSERT_EQ(seven.size(), 1u);

  uint64_t live_before = store->stats().bytes_live();
  five.clear();  // destructor queues the release; no session call yet
  EXPECT_EQ(store->stats().bytes_live(), live_before);  // reclaim is deferred
  // The next drive boundary reclaims the snapshot and its private pages.
  (void)session.TakeNewCheckpoints();
  EXPECT_LT(store->stats().bytes_live(), live_before);
  // The sibling fork is untouched by the reclaim.
  ASSERT_TRUE(session.Resume(seven[0], "1", 2).ok());
}

// --- Output policies ------------------------------------------------------------------------

void BufferedOutputGuest(void*) {
  sys_emit_str("prefix;");
  int v = sys_guess(3);
  sys_emitf("v%d;", v);
  if (v == 1) {
    sys_guess_fail();  // this path's output must be rolled back
  }
}

// The buffer lives in the guest heap, so each engine rolls it back with the
// pages.
TEST(SessionTest, BufferedOutputDropsFailedPaths) {
  for (SnapshotMode mode :
       {SnapshotMode::kCow, SnapshotMode::kIncremental, SnapshotMode::kFullCopy}) {
    SCOPED_TRACE(SnapshotModeName(mode));
    SessionOptions options = SmallOptions();
    options.snapshot_mode = mode;
    options.buffer_output = true;
    std::vector<std::string> paths;
    options.output = [&paths](std::string_view text) { paths.emplace_back(text); };
    BacktrackSession session(options);
    ASSERT_TRUE(session.Run(&BufferedOutputGuest, nullptr).ok());
    ASSERT_EQ(paths.size(), 2u);  // v==1 failed
    EXPECT_EQ(paths[0], "prefix;v0;");
    EXPECT_EQ(paths[1], "prefix;v2;");
  }
}

// A snapshot is its page image plus scheduler bookkeeping (id, depth, the
// register file's address, the mailbox): all other guest state, the buffered
// output included, rides in the pages.
TEST(SessionTest, SnapshotIsThePageImagePlusBookkeeping) {
#if defined(__x86_64__)
  EXPECT_EQ(sizeof(Snapshot), 72u);
#else
  GTEST_SKIP() << "field layout measured on x86-64";
#endif
}

// --- Limits and accounting --------------------------------------------------------------------

void InfiniteGuest(void*) {
  for (;;) {
    sys_guess(2);
  }
}

TEST(SessionTest, MaxExtensionsCapsRunawaySearch) {
  SessionOptions options = SmallOptions();
  options.max_extensions = 100;
  BacktrackSession session(options);
  Status status = session.Run(&InfiniteGuest, nullptr);
  EXPECT_EQ(status.code(), ErrorCode::kExhausted);
  EXPECT_EQ(session.stats().extensions_evaluated, 100u);
}

void PageTouchGuest(void* arg) {
  int pages = *static_cast<int*>(arg);
  auto* buf = static_cast<uint8_t*>(Session()->heap()->Alloc(static_cast<size_t>(pages) * 4096));
  int v = sys_guess(2);
  if (v == 1) {
    return;
  }
  for (int i = 0; i < pages; ++i) {
    buf[static_cast<size_t>(i) * 4096] = 1;  // dirty exactly `pages` pages (plus noise)
  }
  sys_guess(1);  // force a snapshot to materialize the dirty pages
}

TEST(SessionTest, DirtyPageAccountingTracksWrites) {
  SessionOptions options = SmallOptions();
  int pages = 50;
  BacktrackSession session(options);
  ASSERT_TRUE(session.Run(&PageTouchGuest, &pages).ok());
  // At least `pages` pages materialized by the second snapshot, but far fewer
  // than the arena size (CoW locality: cost follows the write set).
  EXPECT_GE(session.stats().pages_materialized, 50u);
  EXPECT_LE(session.stats().pages_materialized, 200u);
  EXPECT_GE(session.arena().cow_faults(), 50u);
}

TEST(SessionTest, StatsAreCoherent) {
  SessionOptions options = SmallOptions();
  std::string captured;
  options.output = [&captured](std::string_view text) { captured.append(text); };
  BacktrackSession session(options);
  NQueensConfig config{5, StrategyKind::kDfs};
  ASSERT_TRUE(session.Run(&NQueensGuest, &config).ok());
  const SessionStats& stats = session.stats();
  EXPECT_EQ(stats.snapshots, stats.guesses + 1);  // + the scope snapshot
  EXPECT_GE(stats.restores, stats.extensions_evaluated);
  // Flow conservation: every execution begins (extension evaluations + the root
  // path + the one-time scope-false resume) and ends (failure, completion, or
  // parking at a guess/scope — one park per guess call plus the root's scope).
  EXPECT_EQ(stats.extensions_evaluated + 2, stats.failures + stats.completions + stats.guesses + 1);
  EXPECT_GT(stats.pages_materialized, 0u);
}

TEST(SessionTest, StatsToStringPrintsEveryCounter) {
  // A new counter must get a ToString key and a line below.
  static_assert(sizeof(SessionStats) == 22 * sizeof(uint64_t), "SessionStats gained a field");
  SessionStats stats;
  stats.guesses = 1;
  stats.snapshots = 2;
  stats.restores = 3;
  stats.extensions_evaluated = 4;
  stats.failures = 5;
  stats.completions = 6;
  stats.solutions = 7;
  stats.checkpoints = 8;
  stats.resumes = 9;
  stats.evictions = 10;
  stats.pages_materialized = 11;
  stats.pages_restored = 12;
  stats.hot_promotions = 13;
  stats.hot_demotions = 14;
  stats.hot_unchanged_skips = 15;
  stats.incr_pages_scanned = 16;
  stats.incr_pages_copied = 17;
  stats.restore_mprotect_calls = 18;
  stats.restore_runs_coalesced = 19;
  stats.pages_restore_skipped = 20;
  stats.snapshot_ns = 21000;
  stats.restore_ns = 22000;
  const std::string text = " " + stats.ToString() + " ";
  for (const char* token :
       {"guesses=1", "snapshots=2", "restores=3", "exts=4", "fail=5", "done=6", "sol=7",
        "checkpoints=8", "resumes=9", "evictions=10", "pages_mat=11", "pages_rst=12",
        "hot_promo=13", "hot_demo=14", "hot_skip=15", "incr_scan=16", "incr_copy=17",
        "rst_mprotect=18", "rst_runs=19", "rst_skip=20", "snap_us=21.0", "restore_us=22.0"}) {
    EXPECT_NE(text.find(" " + std::string(token) + " "), std::string::npos)
        << token << " missing from: " << text;
  }
}

// --- Published images depend only on guest state ---------------------------------------------

// 8-queens over a page trail: each placement fills one page-aligned trail
// page, so every guess dirties whole pages, and each solution parks its board
// in a 16-byte mailbox (the guest of lwbench's search workloads).
void PageTrailQueensGuest(void*) {
  constexpr int kN = 8;
  struct Placement {
    int row[16];
    int ld[32];
    int rd[32];
  };
  auto* b = GuestNew<Placement>(Session()->heap());
  std::memset(b, 0, sizeof(Placement));
  auto raw = reinterpret_cast<uintptr_t>(Session()->heap()->Alloc((kN + 1) * kPageSize));
  auto* trail = reinterpret_cast<uint8_t*>((raw + kPageSize - 1) & ~(kPageSize - 1));
  auto* mailbox = static_cast<uint8_t*>(Session()->heap()->Alloc(16));
  if (sys_guess_strategy(StrategyKind::kDfs)) {
    for (int c = 0; c < kN; ++c) {
      int r = sys_guess(kN);
      if (b->row[r] || b->ld[r + c] || b->rd[kN + r - c]) {
        sys_guess_fail();
      }
      b->row[r] = b->ld[r + c] = b->rd[kN + r - c] = 1;
      std::memset(trail + static_cast<size_t>(c) * kPageSize, r + 1, kPageSize);
      mailbox[c] = static_cast<uint8_t>(r);
    }
    sys_note_solution();
    sys_yield(mailbox, 16);
    sys_guess_fail();
  }
}

// The same search in fresh sessions over private stores publishes the same
// pages: no host address (a snapshot's, say) may reach a published page, or
// dedup would follow where the host allocator put things. The warm-up absorbs
// the process's one-time lazy initialization.
TEST(SessionTest, SameSearchPublishesTheSamePagesInEverySession) {
  auto run = [] {
    SessionOptions options;
    options.arena_bytes = 2ull << 20;
    options.output = [](std::string_view) {};
    BacktrackSession session(options);
    EXPECT_TRUE(session.Run(&PageTrailQueensGuest, nullptr).ok());
    EXPECT_EQ(session.stats().solutions, 92u);
    return std::make_pair(session.store().stats().total_published,
                          session.store().stats().content_dedup_hits);
  };
  run();
  const auto first = run();
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(run(), first) << "session " << i;
  }
}

// --- Guard rails -------------------------------------------------------------------------------

TEST(SessionTest, ReadGuestCopiesLiveMemory) {
  BacktrackSession session(SmallOptions());
  int result = 0;
  ASSERT_TRUE(session.Run(&TrivialGuest, &result).ok());
  GuestHeap* heap = session.heap();
  void* p = heap->Alloc(64);  // host-side allocation between drives is legal
  std::memset(p, 0x3c, 64);
  uint8_t out[64];
  session.ReadGuest(p, out, sizeof(out));
  EXPECT_EQ(out[0], 0x3c);
  EXPECT_EQ(out[63], 0x3c);
}

void OversizedMailboxGuest(void*) {
  char mailbox[64];
  // The claimed capacity runs far past the 256 KiB guest stack.
  sys_yield(mailbox, 4ull << 20);
}

TEST(SessionDeathTest, YieldMailboxMustFitInTheArena) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        BacktrackSession session(SmallOptions());
        (void)session.Run(&OversizedMailboxGuest, nullptr);
      },
      "yield mailbox");
}

}  // namespace
}  // namespace lw
