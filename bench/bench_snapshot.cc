// E2 — snapshot/restore primitive costs vs the classic alternatives.
//
// The Dune paper (and §4 here) claims an order of magnitude over Linux
// process abstractions for memory-protection-heavy operations. Rows:
//
//   CowSnapshot/D/A        — CoW engine, D pages dirtied per snapshot, A MiB
//                            arena: cost ∝ dirty pages, independent of arena size
//   FullCopySnapshot/A     — classic checkpoint [libckpt]: cost ∝ arena size
//   IncrementalSnapshot/D/A — fault-free scan engine: reads ∝ arena, copies ∝
//                            dirty pages (no mprotect traffic at all)
//   ForkSnapshot/D         — fork+dirty+exit+wait per "snapshot" (the §3 strawman)
//   {Cow,Incremental,FullCopy}Restore/D/A — restore-heavy shape
//                            (fanout restores per snapshot); reports
//                            ns/restore and the mprotect-coalescing
//                            counters (E13)
//   {Cow,Incremental}ReleaseStorm/N — N-sibling checkpoint release
//                            storm, timed on the release phase only; the
//                            session reclaims through the O(spine) walk +
//                            PageStore::ReleaseBatch (E14)
//
// Counters report the engine's own ns/snapshot and ns/restore so the
// comparison is invariant to the harness loop; the label column names the
// engine (SnapshotModeName), so rows are comparable across all backends.

#include <benchmark/benchmark.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/backtrack.h"

namespace {

struct DirtyArgs {
  uint32_t dirty_pages = 1;
  uint32_t rounds = 64;
};

// Guest: each round dirties `dirty_pages` distinct pages of a large guest
// buffer, then guesses over a single extension — forcing one snapshot and one
// restore per round with a precisely controlled dirty set.
void DirtyGuest(void* arg) {
  auto* args = static_cast<DirtyArgs*>(arg);
  auto* session = static_cast<lw::BacktrackSession*>(lw::CurrentExecutor());
  const size_t page = 4096;
  const size_t buffer_bytes = static_cast<size_t>(args->dirty_pages + 1) * page;
  auto* buffer = static_cast<uint8_t*>(session->heap()->Alloc(buffer_bytes));
  if (buffer == nullptr) {
    return;
  }
  if (!lw::sys_guess_strategy(lw::StrategyKind::kDfs)) {
    return;
  }
  for (uint32_t round = 0; round < args->rounds; ++round) {
    for (uint32_t p = 0; p < args->dirty_pages; ++p) {
      buffer[p * page + (round % page)] = static_cast<uint8_t>(round);
    }
    (void)lw::sys_guess(1);
  }
}

void RunEngine(benchmark::State& state, lw::SnapshotMode mode) {
  DirtyArgs args;
  args.dirty_pages = static_cast<uint32_t>(state.range(0));
  size_t arena_mb = static_cast<size_t>(state.range(1));

  uint64_t snap_ns = 0;
  uint64_t restore_ns = 0;
  uint64_t snapshots = 0;
  uint64_t pages = 0;
  uint64_t resident_bytes = 0;
  uint64_t dedup_hits = 0;
  uint64_t compressed_blobs = 0;
  for (auto _ : state) {
    lw::SessionOptions options;
    options.arena_bytes = arena_mb << 20;
    options.snapshot_mode = mode;
    options.output = [](std::string_view) {};
    lw::BacktrackSession session(options);
    lw::Status status = session.Run(&DirtyGuest, &args);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    snap_ns = session.stats().snapshot_ns;
    restore_ns = session.stats().restore_ns;
    snapshots = session.stats().snapshots;
    pages = session.stats().pages_materialized;
    const lw::PageStore::Stats& store = session.store().stats();
    resident_bytes = store.bytes_resident();
    dedup_hits = store.zero_dedup_hits + store.content_dedup_hits;
    compressed_blobs = store.compressed_blobs;
  }
  state.SetLabel(lw::SnapshotModeName(mode));
  if (snapshots != 0) {
    state.counters["ns/snapshot"] = static_cast<double>(snap_ns) / snapshots;
    state.counters["ns/restore"] = static_cast<double>(restore_ns) / snapshots;
    state.counters["pages/snapshot"] = static_cast<double>(pages) / snapshots;
    state.counters["resident_bytes"] = static_cast<double>(resident_bytes);
    state.counters["dedup_hits"] = static_cast<double>(dedup_hits);
    state.counters["compressed_blobs"] = static_cast<double>(compressed_blobs);
  }
}

void BM_CowSnapshot(benchmark::State& state) { RunEngine(state, lw::SnapshotMode::kCow); }
BENCHMARK(BM_CowSnapshot)
    ->Args({1, 16})
    ->Args({8, 16})
    ->Args({64, 16})
    ->Args({512, 16})
    ->Args({1, 64})
    ->Args({8, 64})
    ->Args({64, 64})
    ->Args({512, 64})
    ->Unit(benchmark::kMillisecond);

void BM_FullCopySnapshot(benchmark::State& state) {
  RunEngine(state, lw::SnapshotMode::kFullCopy);
}
// One iteration each: whole-arena copies are the point being demonstrated, and
// a 64 MiB arena pays for it on every one of the 64 rounds.
BENCHMARK(BM_FullCopySnapshot)
    ->Args({8, 16})
    ->Args({8, 64})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_IncrementalSnapshot(benchmark::State& state) {
  RunEngine(state, lw::SnapshotMode::kIncremental);
}
// Same rows as CoW: the scan engine's snapshot cost has a ∝-arena read term
// plus a ∝-dirty copy term, so both axes matter.
BENCHMARK(BM_IncrementalSnapshot)
    ->Args({1, 16})
    ->Args({8, 16})
    ->Args({64, 16})
    ->Args({512, 16})
    ->Args({1, 64})
    ->Args({8, 64})
    ->Args({64, 64})
    ->Args({512, 64})
    ->Unit(benchmark::kMillisecond);

// E13 — restore-heavy rows (the backtrack half). Args are {dirty_pages,
// arena_mb}. The guest snapshots once per round and then takes
// `fanout` restores off that node, each rolling back a freshly dirtied
// D-page window — restores dominate the session (fanout× more restores than
// snapshots), which is the shape deep symx chains and checkpoint-per-revision
// bisection produce. Counters report the engine's own ns/restore plus the
// syscall-coalescing provenance (mprotect and runs per restore, compare
// skips), so the O(runs)-vs-O(pages) claim is measured, not inferred.
struct RestoreArgs {
  uint32_t dirty_pages = 64;
  uint32_t rounds = 16;
  uint32_t fanout = 8;
};

void RestoreHeavyGuest(void* arg) {
  auto* args = static_cast<RestoreArgs*>(arg);
  auto* session = static_cast<lw::BacktrackSession*>(lw::CurrentExecutor());
  const size_t page = 4096;
  const size_t buffer_bytes = static_cast<size_t>(args->dirty_pages + 1) * page;
  auto* buffer = static_cast<uint8_t*>(session->heap()->Alloc(buffer_bytes));
  if (buffer == nullptr) {
    return;
  }
  if (!lw::sys_guess_strategy(lw::StrategyKind::kDfs)) {
    return;
  }
  for (uint32_t round = 0; round < args->rounds; ++round) {
    const uint32_t v = static_cast<uint32_t>(lw::sys_guess(args->fanout));
    for (uint32_t p = 0; p < args->dirty_pages; ++p) {
      buffer[p * page + ((round * 31 + v * 7) % page)] = static_cast<uint8_t>(round + v + 1);
    }
    if (v + 1 != args->fanout) {
      lw::sys_guess_fail();  // every failed branch is one restore of ~D pages
    }
  }
}

void RunRestoreEngine(benchmark::State& state, lw::SnapshotMode mode, uint32_t rounds,
                      uint32_t fanout) {
  RestoreArgs args;
  args.dirty_pages = static_cast<uint32_t>(state.range(0));
  args.rounds = rounds;
  args.fanout = fanout;
  size_t arena_mb = static_cast<size_t>(state.range(1));

  uint64_t restore_ns = 0;
  uint64_t restores = 0;
  uint64_t pages_restored = 0;
  uint64_t mprotect_calls = 0;
  uint64_t runs = 0;
  uint64_t skips = 0;
  for (auto _ : state) {
    lw::SessionOptions options;
    options.arena_bytes = arena_mb << 20;
    options.snapshot_mode = mode;
    options.output = [](std::string_view) {};
    lw::BacktrackSession session(options);
    lw::Status status = session.Run(&RestoreHeavyGuest, &args);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    restore_ns = session.stats().restore_ns;
    restores = session.stats().restores;
    pages_restored = session.stats().pages_restored;
    mprotect_calls = session.stats().restore_mprotect_calls;
    runs = session.stats().restore_runs_coalesced;
    skips = session.stats().pages_restore_skipped;
  }
  state.SetLabel(lw::SnapshotModeName(mode));
  if (restores != 0) {
    state.counters["ns/restore"] = static_cast<double>(restore_ns) / restores;
    state.counters["pages/restore"] = static_cast<double>(pages_restored) / restores;
    state.counters["mprotect/restore"] = static_cast<double>(mprotect_calls) / restores;
    state.counters["runs/restore"] = static_cast<double>(runs) / restores;
    state.counters["restore_skips"] = static_cast<double>(skips);
  }
}

void BM_CowRestore(benchmark::State& state) {
  RunRestoreEngine(state, lw::SnapshotMode::kCow, 16, 8);
}
BENCHMARK(BM_CowRestore)->Args({64, 16})->Args({512, 16})->Unit(benchmark::kMillisecond);

void BM_IncrementalRestore(benchmark::State& state) {
  RunRestoreEngine(state, lw::SnapshotMode::kIncremental, 16, 8);
}
BENCHMARK(BM_IncrementalRestore)->Args({512, 16})->Unit(benchmark::kMillisecond);

// Whole-arena copy-back per restore: one iteration pays rounds×fanout of them.
void BM_FullCopyRestore(benchmark::State& state) {
  RunRestoreEngine(state, lw::SnapshotMode::kFullCopy, 8, 4);
}
BENCHMARK(BM_FullCopyRestore)->Args({8, 16})->Iterations(1)->Unit(benchmark::kMillisecond);

// E14 — release-storm rows (the teardown half of the snapshot lifecycle).
// The arg is num_checkpoints. The guest parks at a root checkpoint;
// the host forks `num_checkpoints` sibling checkpoints off it, each with a
// unique 64-page dirty delta (unique content per page, so none of it dedups
// away and every sibling's delta dies with its release), then releases every
// handle at once — the storm.
// Only the release phase is timed (manual time). The session reclaims each
// snapshot through the O(spine) walk + PageStore::ReleaseBatch (one shard-lock
// hold per shard touched per batch). Counters surface the batch provenance:
// rel_batches / rel_blobs (blobs recycled through batches) / rel_locks
// (shard-lock holds those batches paid).
struct ReleaseStormArgs {
  uint32_t window_pages = 256;
  uint32_t dirty_pages = 64;  // per checkpoint delta — the D of the O(D·log) walk
};

void ReleaseStormGuest(void* arg) {
  auto* args = static_cast<ReleaseStormArgs*>(arg);
  auto* session = static_cast<lw::BacktrackSession*>(lw::CurrentExecutor());
  const size_t page = 4096;
  const size_t buffer_bytes = static_cast<size_t>(args->window_pages) * page;
  auto* buffer = static_cast<uint8_t*>(session->heap()->Alloc(buffer_bytes));
  auto* mailbox = static_cast<char*>(session->heap()->Alloc(32));
  if (buffer == nullptr || mailbox == nullptr) {
    return;
  }
  std::memset(buffer, 1, buffer_bytes);
  int round = 0;
  for (;;) {
    std::snprintf(mailbox, 32, "r=%d", round);
    size_t len = lw::sys_yield(mailbox, 32);
    if (len == 0) {
      return;
    }
    round += std::atoi(mailbox);
    for (uint32_t p = 0; p < args->dirty_pages; ++p) {
      uint8_t* dst =
          buffer + static_cast<size_t>((static_cast<uint32_t>(round) * args->dirty_pages + p) %
                                       args->window_pages) *
                       page;
      std::memset(dst, (round * 31 + static_cast<int>(p)) & 0xFF, page);
      // Stamp (round, p) verbatim so no two dirtied pages ever share content —
      // dedup would otherwise collapse sibling deltas and shrink the storm.
      std::memcpy(dst, &round, sizeof(round));
      std::memcpy(dst + sizeof(round), &p, sizeof(p));
    }
  }
}

void RunReleaseStorm(benchmark::State& state, lw::SnapshotMode mode) {
  const int num_checkpoints = static_cast<int>(state.range(0));
  ReleaseStormArgs args;

  uint64_t rel_batches = 0;
  uint64_t rel_blobs = 0;
  uint64_t rel_locks = 0;
  uint64_t released = 0;
  for (auto _ : state) {
    lw::SessionOptions options;
    options.arena_bytes = 16ull << 20;
    options.snapshot_mode = mode;
    options.output = [](std::string_view) {};
    lw::BacktrackSession session(options);
    lw::Status status = session.Run(&ReleaseStormGuest, &args);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    auto tokens = session.TakeNewCheckpoints();
    if (tokens.size() != 1) {
      state.SkipWithError("expected one root checkpoint");
      return;
    }
    lw::Checkpoint root = std::move(tokens[0]);
    std::vector<lw::Checkpoint> siblings;
    siblings.reserve(static_cast<size_t>(num_checkpoints));
    for (int i = 0; i < num_checkpoints; ++i) {
      const std::string msg = std::to_string(i + 1);  // unique delta per sibling
      status = session.Resume(root, msg.c_str(), msg.size() + 1);
      if (!status.ok()) {
        state.SkipWithError(status.ToString().c_str());
        return;
      }
      auto next = session.TakeNewCheckpoints();
      if (next.size() != 1) {
        state.SkipWithError("expected one checkpoint per resume");
        return;
      }
      siblings.push_back(std::move(next[0]));
    }
    // The storm: release every sibling, then the root — timed on its own.
    const auto start = std::chrono::steady_clock::now();
    while (!siblings.empty()) {
      (void)session.ReleaseCheckpoint(siblings.back());
      siblings.pop_back();
    }
    (void)session.ReleaseCheckpoint(root);
    const auto end = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(end - start).count());
    released += static_cast<uint64_t>(num_checkpoints) + 1;
    const lw::PageStore::Stats& store = session.store().stats();
    rel_batches = store.release_batches;
    rel_blobs = store.blobs_recycled_batched;
    rel_locks = store.release_shard_locks;
  }
  state.SetLabel(lw::SnapshotModeName(mode));
  if (released != 0) {
    state.counters["releases"] = static_cast<double>(released);
    state.counters["rel_batches"] = static_cast<double>(rel_batches);
    state.counters["rel_blobs"] = static_cast<double>(rel_blobs);
    state.counters["rel_locks"] = static_cast<double>(rel_locks);
  }
}

void BM_CowReleaseStorm(benchmark::State& state) {
  RunReleaseStorm(state, lw::SnapshotMode::kCow);
}
BENCHMARK(BM_CowReleaseStorm)
    ->Arg(64)
    ->Iterations(10)
    ->Unit(benchmark::kMicrosecond)
    ->UseManualTime();

void BM_IncrementalReleaseStorm(benchmark::State& state) {
  RunReleaseStorm(state, lw::SnapshotMode::kIncremental);
}
BENCHMARK(BM_IncrementalReleaseStorm)
    ->Arg(64)
    ->Iterations(10)
    ->Unit(benchmark::kMicrosecond)
    ->UseManualTime();

// The fork strawman: one fork()+dirty+_exit+waitpid cycle per "snapshot".
void BM_ForkSnapshot(benchmark::State& state) {
  uint32_t dirty_pages = static_cast<uint32_t>(state.range(0));
  const size_t page = 4096;
  static uint8_t* buffer = nullptr;
  const size_t buffer_bytes = 1024 * page;
  if (buffer == nullptr) {
    buffer = new uint8_t[buffer_bytes];
    std::memset(buffer, 1, buffer_bytes);
  }
  for (auto _ : state) {
    pid_t pid = fork();
    if (pid == 0) {
      for (uint32_t p = 0; p < dirty_pages; ++p) {
        buffer[p * page] = 2;  // CoW break in the child
      }
      _exit(0);
    }
    int wstatus = 0;
    waitpid(pid, &wstatus, 0);
  }
  state.counters["dirty_pages"] = dirty_pages;
}
BENCHMARK(BM_ForkSnapshot)->Arg(1)->Arg(8)->Arg(64)->Arg(512)->Iterations(200);

}  // namespace

BENCHMARK_MAIN();
