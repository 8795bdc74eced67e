// E4 — the §5 "problem granularity and memory locality" crossover:
//
//   "problems with a trivial instruction count per extension step are best
//    implemented by hand-coding the backtracking [...] The execution
//    granularity, complexity of hand-coded logic, and page-level memory
//    locality will each play a role to determine when the approach provides
//    a performance win."
//
// Workload: a synthetic binary search tree of fixed depth. Every extension
// step (a) spins for `work_us` of compute and (b) writes `pages` distinct
// pages of a large state buffer. The hand-coded baseline must save and
// restore the pages it touches (that is what hand-rolled undo costs); the
// lwsnap guest just writes — containment is the system's job.
//
// Sweep work_us × pages; the crossover frontier is where Lwsnap/HandCoded
// time ratio drops below 1.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/backtrack.h"

namespace {

constexpr int kDepth = 7;  // 2^7 = 128 leaves
constexpr size_t kPage = 4096;

// Deterministic spin: scale by calibrated iterations per microsecond.
uint64_t SpinIterationsPerUs() {
  static uint64_t cached = [] {
    volatile uint64_t sink = 1;
    auto start = std::chrono::steady_clock::now();
    constexpr uint64_t kProbe = 1u << 22;
    for (uint64_t i = 0; i < kProbe; ++i) {
      sink = sink * 6364136223846793005ull + 1442695040888963407ull;
    }
    auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    return static_cast<uint64_t>(static_cast<double>(kProbe) * 1000.0 /
                                 static_cast<double>(elapsed));
  }();
  return cached;
}

void Spin(uint64_t work_us) {
  volatile uint64_t sink = 1;
  uint64_t iterations = work_us * SpinIterationsPerUs();
  for (uint64_t i = 0; i < iterations; ++i) {
    sink = sink * 6364136223846793005ull + 1442695040888963407ull;
  }
}

// One extension step's state mutation: touch `pages` pages at a depth-specific
// offset so siblings write different data.
void TouchPages(uint8_t* state, uint32_t pages, int depth, int direction) {
  for (uint32_t p = 0; p < pages; ++p) {
    state[p * kPage + static_cast<size_t>(depth)] =
        static_cast<uint8_t>(depth * 2 + direction);
  }
}

// --- hand-coded baseline: explicit save/undo of everything it touches ---

struct HandCoded {
  uint8_t* state;
  uint32_t pages;
  uint64_t work_us;
  uint64_t leaves = 0;
  std::vector<uint8_t> save_buffer;

  void Explore(int depth) {
    if (depth == kDepth) {
      ++leaves;
      return;
    }
    for (int direction = 0; direction < 2; ++direction) {
      // Save the pages this step will clobber (the hand-rolled undo log).
      uint8_t* save = save_buffer.data() + static_cast<size_t>(depth) * pages * kPage;
      for (uint32_t p = 0; p < pages; ++p) {
        std::memcpy(save + p * kPage, state + p * kPage, kPage);
      }
      Spin(work_us);
      TouchPages(state, pages, depth, direction);
      Explore(depth + 1);
      for (uint32_t p = 0; p < pages; ++p) {
        std::memcpy(state + p * kPage, save + p * kPage, kPage);
      }
    }
  }
};

void BM_HandCoded(benchmark::State& state) {
  uint64_t work_us = static_cast<uint64_t>(state.range(0));
  uint32_t pages = static_cast<uint32_t>(state.range(1));
  std::vector<uint8_t> buffer(pages * kPage, 0);
  HandCoded hc;
  hc.state = buffer.data();
  hc.pages = pages;
  hc.work_us = work_us;
  hc.save_buffer.resize(static_cast<size_t>(kDepth) * pages * kPage);
  for (auto _ : state) {
    hc.leaves = 0;
    hc.Explore(0);
    benchmark::DoNotOptimize(hc.leaves);
  }
  state.counters["leaves"] = static_cast<double>(hc.leaves);
}

// --- lwsnap guest: no undo code at all ---

struct SnapArgs {
  uint64_t work_us;
  uint32_t pages;
  uint64_t leaves;  // host-side collector
};

void SnapGuest(void* arg) {
  auto* args = static_cast<SnapArgs*>(arg);
  auto* session = static_cast<lw::BacktrackSession*>(lw::CurrentExecutor());
  auto* buffer = static_cast<uint8_t*>(session->heap()->Alloc(args->pages * kPage + kPage));
  if (buffer == nullptr) {
    return;
  }
  if (!lw::sys_guess_strategy(lw::StrategyKind::kDfs)) {
    return;
  }
  for (int depth = 0; depth < kDepth; ++depth) {
    int direction = lw::sys_guess(2);
    Spin(args->work_us);
    TouchPages(buffer, args->pages, depth, direction);
  }
  args->leaves++;
  lw::sys_guess_fail();  // enumerate every leaf
}

void RunLwsnap(benchmark::State& state, lw::SnapshotMode mode) {
  SnapArgs args;
  args.work_us = static_cast<uint64_t>(state.range(0));
  args.pages = static_cast<uint32_t>(state.range(1));
  uint64_t resident_bytes = 0;
  uint64_t dedup_hits = 0;
  uint64_t compressed_blobs = 0;
  for (auto _ : state) {
    args.leaves = 0;
    lw::SessionOptions options;
    options.arena_bytes = 32ull << 20;
    options.snapshot_mode = mode;
    options.output = [](std::string_view) {};
    lw::BacktrackSession session(options);
    lw::Status status = session.Run(&SnapGuest, &args);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    const lw::PageStore::Stats& store = session.store().stats();
    resident_bytes = store.bytes_resident();
    dedup_hits = store.zero_dedup_hits + store.content_dedup_hits;
    compressed_blobs = store.compressed_blobs;
  }
  state.SetLabel(lw::SnapshotModeName(mode));
  state.counters["leaves"] = static_cast<double>(args.leaves);
  state.counters["resident_bytes"] = static_cast<double>(resident_bytes);
  state.counters["dedup_hits"] = static_cast<double>(dedup_hits);
  state.counters["compressed_blobs"] = static_cast<double>(compressed_blobs);
}

void BM_LwsnapCow(benchmark::State& state) { RunLwsnap(state, lw::SnapshotMode::kCow); }
void BM_LwsnapFullCopy(benchmark::State& state) {
  RunLwsnap(state, lw::SnapshotMode::kFullCopy);
}
void BM_LwsnapIncremental(benchmark::State& state) {
  RunLwsnap(state, lw::SnapshotMode::kIncremental);
}

#define CROSSOVER_ARGS(B)                                                              \
  B->Args({0, 1})->Args({0, 16})->Args({0, 64})->Args({10, 1})->Args({10, 16})        \
      ->Args({10, 64})->Args({100, 1})->Args({100, 16})->Args({100, 64})               \
      ->Unit(benchmark::kMillisecond)

CROSSOVER_ARGS(BENCHMARK(BM_HandCoded));
CROSSOVER_ARGS(BENCHMARK(BM_LwsnapCow));
CROSSOVER_ARGS(BENCHMARK(BM_LwsnapFullCopy));
CROSSOVER_ARGS(BENCHMARK(BM_LwsnapIncremental));

// --- engine-parity harness: n-queens through all three backends ---
//
// Same guest, same strategy, only SessionOptions::snapshot_mode differs; each
// row reports the solution count and fails loudly if an engine disagrees with
// the known answer — the acceptance check that snapshot mechanics are
// observationally interchangeable behind the SnapshotEngine seam.

constexpr int kQueensN = 8;
constexpr uint64_t kQueensSolutions = 92;

void QueensGuest(void* arg) {
  int n = *static_cast<int*>(arg);
  auto* session = static_cast<lw::BacktrackSession*>(lw::CurrentExecutor());
  struct Board {
    int row[16];
    int ld[32];
    int rd[32];
  };
  auto* b = lw::GuestNew<Board>(session->heap());
  std::memset(b, 0, sizeof(Board));
  if (lw::sys_guess_strategy(lw::StrategyKind::kDfs)) {
    for (int c = 0; c < n; ++c) {
      int r = lw::sys_guess(n);
      if (b->row[r] || b->ld[r + c] || b->rd[n + r - c]) {
        lw::sys_guess_fail();
      }
      b->row[r] = 1;
      b->ld[r + c] = 1;
      b->rd[n + r - c] = 1;
    }
    lw::sys_note_solution();
    lw::sys_guess_fail();
  }
}

void RunQueens(benchmark::State& state, lw::SnapshotMode mode) {
  uint64_t solutions = 0;
  uint64_t resident_bytes = 0;
  uint64_t dedup_hits = 0;
  uint64_t compressed_blobs = 0;
  for (auto _ : state) {
    int n = kQueensN;
    lw::SessionOptions options;
    options.arena_bytes = 16ull << 20;
    options.snapshot_mode = mode;
    options.output = [](std::string_view) {};
    lw::BacktrackSession session(options);
    lw::Status status = session.Run(&QueensGuest, &n);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    solutions = session.stats().solutions;
    if (solutions != kQueensSolutions) {
      state.SkipWithError("engine produced a wrong n-queens solution count");
      return;
    }
    const lw::PageStore::Stats& store = session.store().stats();
    resident_bytes = store.bytes_resident();
    dedup_hits = store.zero_dedup_hits + store.content_dedup_hits;
    compressed_blobs = store.compressed_blobs;
  }
  state.SetLabel(lw::SnapshotModeName(mode));
  state.counters["solutions"] = static_cast<double>(solutions);
  state.counters["resident_bytes"] = static_cast<double>(resident_bytes);
  state.counters["dedup_hits"] = static_cast<double>(dedup_hits);
  state.counters["compressed_blobs"] = static_cast<double>(compressed_blobs);
}

void BM_QueensCow(benchmark::State& state) { RunQueens(state, lw::SnapshotMode::kCow); }
void BM_QueensFullCopy(benchmark::State& state) {
  RunQueens(state, lw::SnapshotMode::kFullCopy);
}
void BM_QueensIncremental(benchmark::State& state) {
  RunQueens(state, lw::SnapshotMode::kIncremental);
}

BENCHMARK(BM_QueensCow)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_QueensFullCopy)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_QueensIncremental)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
