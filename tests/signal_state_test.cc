// The lazy signal-state invariant: the process-wide SIGSEGV handler and a
// thread's sigaltstack are installed only when an engine actually needs the
// SIGSEGV protocol (kCow), never by a fault-free session.
//
// These tests observe the *process* SIGSEGV disposition, which CoW installation
// changes irreversibly, so they live in their own binary and are declared (and
// therefore run) first: the fault-free case must see the disposition before any
// CoW engine in this process has touched it.

#include <gtest/gtest.h>

#include <csignal>
#include <cstring>
#include <memory>
#include <thread>

#include "src/core/arena.h"
#include "src/core/backtrack.h"
#include "src/snapshot/engine.h"

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
  auto engine = std::make_unique<SnapshotEngine>(SnapshotMode::kCow, env);
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

}  // namespace
}  // namespace lw
