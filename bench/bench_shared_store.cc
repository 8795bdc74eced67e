// E8 — N solver services over one content-addressed PageStore vs N private
// stores.
//
// The paper's pitch is snapshots as a *system-level service*: many search
// clients on one substrate. The shared store makes the resident-byte side of
// that claim measurable: every service parks its solved problems as
// checkpoints, so its clause arenas, watch lists, and trails stay live — and
// services working related problems republish byte-identical pages that
// collapse to one blob. The `SharedStore/N` vs `PrivateStores/N` pair at each
// N shows the aggregate residency gap; cross_dedup_hits is the headline
// counter (pointer-bearing pages — guest stacks, heap metadata — embed arena
// addresses and can never dedup across arenas, so every hit is real shared
// content).

#include <benchmark/benchmark.h>

#include <cstdlib>

#include <atomic>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/core/backtrack.h"
#include "src/service/pool.h"
#include "src/solver/pool_jobs.h"
#include "src/util/rng.h"

namespace {

// One base problem shared by the fleet (the common-context shape of §3.2:
// clients extend the same solved core with private increments).
const lw::Cnf& BaseProblem() {
  static const lw::Cnf* base = [] {
    lw::Rng rng(20260730);
    return new lw::Cnf(lw::RandomKSat(&rng, 300, 1200, 3));
  }();
  return *base;
}

void RunFleet(benchmark::State& state, bool shared) {
  int num_services = static_cast<int>(state.range(0));
  uint64_t resident_bytes = 0;
  uint64_t cross_dedup_hits = 0;
  uint64_t dedup_hits = 0;
  for (auto _ : state) {
    auto shared_store = std::make_shared<lw::PageStore>();
    std::vector<std::shared_ptr<lw::PageStore>> stores;
    std::vector<std::unique_ptr<lw::SolverService>> services;
    for (int i = 0; i < num_services; ++i) {
      auto store = shared ? shared_store : std::make_shared<lw::PageStore>();
      lw::SolverServiceOptions options;
      options.tuning.arena_bytes = 16ull << 20;
      options.tuning.store = store;
      stores.push_back(std::move(store));
      services.push_back(std::make_unique<lw::SolverService>(options));
    }
    // Every service solves the shared base, then branches with a private
    // increment — all checkpoints stay parked (resident) like a real fleet.
    lw::Rng rng(7);
    for (auto& service : services) {
      auto root = service->SolveRoot(BaseProblem());
      if (!root.ok()) {
        state.SkipWithError(root.status().ToString().c_str());
        return;
      }
      lw::Cnf q = lw::RandomKSat(&rng, 300, 8, 3);
      auto ext = service->Extend(
          root->token, std::vector<std::vector<lw::Lit>>(q.clauses.begin(), q.clauses.end()));
      if (!ext.ok()) {
        state.SkipWithError(ext.status().ToString().c_str());
        return;
      }
    }
    resident_bytes = 0;
    cross_dedup_hits = 0;
    dedup_hits = 0;
    for (size_t i = 0; i < stores.size(); ++i) {
      if (shared && i > 0) {
        break;  // one store: count it once
      }
      const lw::PageStore::Stats& stats = stores[i]->stats();
      resident_bytes += stats.bytes_resident();
      cross_dedup_hits += stats.cross_session_dedup_hits;
      dedup_hits += stats.zero_dedup_hits + stats.content_dedup_hits;
    }
  }
  state.counters["resident_bytes"] = static_cast<double>(resident_bytes);
  state.counters["cross_dedup_hits"] = static_cast<double>(cross_dedup_hits);
  state.counters["dedup_hits"] = static_cast<double>(dedup_hits);
}

void BM_SharedStore(benchmark::State& state) { RunFleet(state, true); }
void BM_PrivateStores(benchmark::State& state) { RunFleet(state, false); }

BENCHMARK(BM_SharedStore)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PrivateStores)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// --- E10: threaded rows — the same fleet on real cores -------------------------

// The queens workload from tests/shared_store_test.cc: page-aligned placement
// trails dedup across sessions; every solution parks, so residency is honest
// fleet state. 92 solutions per session is the parity check.
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
  auto* raw = static_cast<uint8_t*>(session->heap()->Alloc((16 + 1) * lw::kPageSize));
  auto* trail = reinterpret_cast<uint8_t*>(
      (reinterpret_cast<uintptr_t>(raw) + lw::kPageSize - 1) & ~(lw::kPageSize - 1));
  auto* mailbox = static_cast<uint8_t*>(session->heap()->Alloc(16));
  if (lw::sys_guess_strategy(lw::StrategyKind::kDfs)) {
    for (int c = 0; c < n; ++c) {
      int r = lw::sys_guess(n);
      if (b->row[r] || b->ld[r + c] || b->rd[n + r - c]) {
        lw::sys_guess_fail();
      }
      b->row[r] = 1;
      b->ld[r + c] = 1;
      b->rd[n + r - c] = 1;
      std::memset(trail + static_cast<size_t>(c) * lw::kPageSize, r + 1, lw::kPageSize);
      mailbox[c] = static_cast<uint8_t>(r);
    }
    lw::sys_note_solution();
    lw::sys_yield(mailbox, 16);
    lw::sys_guess_fail();
  }
}

// Fixed fleet of 8 queens sessions over `workers` threads and ONE shared
// store: the wall-clock axis of the E10 ablation (1/2/4/8 workers, same total
// work). Sessions are constructed, driven, and destroyed entirely on their
// worker thread; the store is the only shared object.
void BM_QueensFleetThreaded(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  constexpr int kSessions = 8;
  uint64_t resident_bytes = 0;
  uint64_t cross_dedup_hits = 0;
  bool parity_ok = true;
  for (auto _ : state) {
    auto store = std::make_shared<lw::PageStore>();
    std::vector<uint64_t> solutions(kSessions, 0);
    std::atomic<uint64_t> resident_peak{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        // Round-robin assignment: worker w runs sessions w, w+workers, ...
        for (int i = w; i < kSessions; i += workers) {
          int n = kQueensN;
          lw::SessionOptions options;
          options.arena_bytes = 2ull << 20;
          options.snapshot_mode = lw::SnapshotMode::kIncremental;  // fault-free on workers
          options.store = store;
          options.output = [](std::string_view) {};
          lw::BacktrackSession session(options);
          if (session.Run(&QueensGuest, &n).ok()) {
            solutions[static_cast<size_t>(i)] = session.stats().solutions;
          }
          // Sampled while this worker's sessions are still parked: honest
          // serving-state residency.
          uint64_t resident = store->stats().bytes_resident();
          uint64_t seen = resident_peak.load(std::memory_order_relaxed);
          while (seen < resident &&
                 !resident_peak.compare_exchange_weak(seen, resident,
                                                      std::memory_order_relaxed)) {
          }
        }
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
    for (uint64_t s : solutions) {
      parity_ok = parity_ok && s == kQueensSolutions;
    }
    resident_bytes = resident_peak.load(std::memory_order_relaxed);
    cross_dedup_hits = store->stats().cross_session_dedup_hits;
  }
  if (!parity_ok) {
    state.SkipWithError("parity violated: a session lost solutions under sharing");
    return;
  }
  state.counters["resident_bytes"] = static_cast<double>(resident_bytes);
  state.counters["cross_dedup_hits"] = static_cast<double>(cross_dedup_hits);
}

// The §3.2 fleet through ServicePool<SolverService>: N services = N worker threads over
// one shared store, each solving the shared base then branching with a
// private increment — the threaded twin of BM_SharedStore/N.
void BM_SolverPool(benchmark::State& state) {
  const int services = static_cast<int>(state.range(0));
  uint64_t resident_bytes = 0;
  uint64_t cross_dedup_hits = 0;
  for (auto _ : state) {
    lw::ServicePoolOptions<lw::SolverService> options;
    options.num_services = services;
    options.service.tuning.arena_bytes = 16ull << 20;
    lw::ServicePool<lw::SolverService> pool(options);
    std::vector<lw::SolverService::Outcome> roots;
    lw::Status status = lw::SolveRootEverywhere(pool, BaseProblem(), &roots);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    lw::Rng rng(7);
    std::vector<std::future<lw::Result<lw::SolverService::Outcome>>> futures;
    for (int i = 0; i < services; ++i) {
      lw::Cnf q = lw::RandomKSat(&rng, 300, 8, 3);
      futures.push_back(lw::SubmitExtend(
          pool, i, roots[static_cast<size_t>(i)].token,
          std::vector<std::vector<lw::Lit>>(q.clauses.begin(), q.clauses.end())));
    }
    for (auto& future : futures) {
      auto outcome = future.get();
      if (!outcome.ok()) {
        state.SkipWithError(outcome.status().ToString().c_str());
        return;
      }
    }
    const lw::PageStore::Stats stats = pool.store()->stats();
    resident_bytes = stats.bytes_resident();
    cross_dedup_hits = stats.cross_session_dedup_hits;
  }
  state.counters["resident_bytes"] = static_cast<double>(resident_bytes);
  state.counters["cross_dedup_hits"] = static_cast<double>(cross_dedup_hits);
}

BENCHMARK(BM_QueensFleetThreaded)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// --- Materialize cost on the queens fixture ---------------------------------------
//
// One session of BM_QueensFleetThreaded's queens fixture (page-aligned
// trails, every solution parked) on the full-copy engine, which makes the
// snapshot the whole cost: every non-guard page is published on every guess,
// so the row times the publish loop. Parity (92 solutions) must hold.
void BM_QueensMaterialize(benchmark::State& state) {
  uint64_t snap_ns = 0;
  uint64_t snapshots = 0;
  uint64_t pages = 0;
  bool parity_ok = true;
  for (auto _ : state) {
    int n = kQueensN;
    lw::SessionOptions options;
    options.arena_bytes = 2ull << 20;
    options.guest_stack_bytes = 256 * 1024;
    options.snapshot_mode = lw::SnapshotMode::kFullCopy;
    options.output = [](std::string_view) {};
    lw::BacktrackSession session(options);
    if (!session.Run(&QueensGuest, &n).ok()) {
      state.SkipWithError("queens run failed");
      return;
    }
    parity_ok = parity_ok && session.stats().solutions == kQueensSolutions;
    snap_ns = session.stats().snapshot_ns;
    snapshots = session.stats().snapshots;
    pages = session.stats().pages_materialized;
  }
  if (!parity_ok) {
    state.SkipWithError("parity violated: the session lost solutions");
    return;
  }
  if (snapshots != 0) {
    state.counters["ns/snapshot"] = static_cast<double>(snap_ns) / snapshots;
    state.counters["pages/snapshot"] = static_cast<double>(pages) / snapshots;
  }
}
BENCHMARK(BM_QueensMaterialize)->Unit(benchmark::kMillisecond);

// --- E15: the spill tier's two costs ---------------------------------------------

// Scoped spill directory under /tmp, removed on destruction.
class ScopedSpillDir {
 public:
  ScopedSpillDir() {
    char tmpl[] = "/tmp/lwsnap_bench_spill_XXXXXX";
    char* dir = mkdtemp(tmpl);
    path_ = dir != nullptr ? dir : "";
  }
  ~ScopedSpillDir() {
    if (!path_.empty()) {
      std::string cmd = "rm -rf '" + path_ + "'";
      int rc = std::system(cmd.c_str());
      (void)rc;
    }
  }
  bool ok() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Unique incompressible page content (xorshift stream): the codec gets no win,
// so fault-back cost is a raw 4 KiB disk read + memcpy, not a decompress.
void FillNoisePage(uint8_t* buf, uint64_t i) {
  uint64_t state = (i * 0x9e3779b97f4a7c15ull) | 1ull;
  for (size_t off = 0; off < lw::kPageSize; off += sizeof(uint64_t)) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    std::memcpy(buf + off, &state, sizeof(state));
  }
}

// Fault-back latency: `range(0)` spilled pages are read back through the
// guarded accessor (disk → RAM), then re-spilled — which is free I/O-wise, as
// each blob's spill record is retained across fault-back, so the loop isolates
// the read path. ns/faultback is the paper-facing number: what touching a
// parked-out checkpoint costs per page.
void BM_SpillFaultback(benchmark::State& state) {
  const uint32_t pages = static_cast<uint32_t>(state.range(0));
  ScopedSpillDir dir;
  if (!dir.ok()) {
    state.SkipWithError("mkdtemp failed");
    return;
  }
  lw::PageStoreOptions options;
  options.spill_dir = dir.path();
  lw::PageStore store(options);
  if (!store.spill_enabled()) {
    state.SkipWithError(store.spill_status().ToString().c_str());
    return;
  }
  std::vector<lw::PageRef> refs;
  uint8_t buf[lw::kPageSize];
  for (uint32_t i = 0; i < pages; ++i) {
    FillNoisePage(buf, i);
    refs.push_back(store.Publish(buf));
  }
  store.CompressAllCold();
  if (store.SpillAllCold() != pages) {
    state.SkipWithError("initial spill did not take every page");
    return;
  }
  uint64_t faultbacks = 0;
  for (auto _ : state) {
    for (const lw::PageRef& ref : refs) {
      ref.CopyTo(buf);
      benchmark::DoNotOptimize(buf);
    }
    state.PauseTiming();
    store.SpillAllCold();  // re-spill (record reuse: accounting only, no I/O)
    faultbacks = store.stats().faultbacks;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * pages);
  state.counters["ns/faultback"] = benchmark::Counter(
      static_cast<double>(state.iterations() * pages),
      static_cast<benchmark::Counter::Flags>(benchmark::Counter::kIsRate |
                                             benchmark::Counter::kInvert));
  state.counters["faultbacks"] = static_cast<double>(faultbacks);
  store.ReleaseBatch(refs);
}
BENCHMARK(BM_SpillFaultback)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

// The queens materialize fixture under a RAM budget tight enough to drive the
// full evict → compress → spill → drop ladder: the overhead of spilling on the
// park path, against BM_QueensMaterialize as its unbudgeted baseline. Parity
// (92 solutions) must survive paging parked solutions out to disk.
void BM_QueensMaterializeSpill(benchmark::State& state) {
  ScopedSpillDir dir;
  if (!dir.ok()) {
    state.SkipWithError("mkdtemp failed");
    return;
  }
  uint64_t spills = 0;
  uint64_t faultbacks = 0;
  uint64_t resident_bytes = 0;
  bool parity_ok = true;
  for (auto _ : state) {
    int n = kQueensN;
    auto store = std::make_shared<lw::PageStore>([&] {
      lw::PageStoreOptions store_options;
      store_options.spill_dir = dir.path();
      return store_options;
    }());
    if (!store->spill_enabled()) {
      state.SkipWithError(store->spill_status().ToString().c_str());
      return;
    }
    lw::SessionOptions options;
    options.arena_bytes = 2ull << 20;
    options.guest_stack_bytes = 256 * 1024;
    options.snapshot_mode = lw::SnapshotMode::kFullCopy;
    options.snapshot_byte_budget = 256 * 1024;  // well under the parked population
    options.store = store;
    options.output = [](std::string_view) {};
    lw::BacktrackSession session(options);
    if (!session.Run(&QueensGuest, &n).ok()) {
      state.SkipWithError("queens run failed");
      return;
    }
    parity_ok = parity_ok && session.stats().solutions == kQueensSolutions;
    spills = store->stats().spills;
    faultbacks = store->stats().faultbacks;
    resident_bytes = store->stats().bytes_live();
  }
  if (!parity_ok) {
    state.SkipWithError("parity violated under spilling");
    return;
  }
  state.counters["spills"] = static_cast<double>(spills);
  state.counters["faultbacks"] = static_cast<double>(faultbacks);
  state.counters["resident_bytes"] = static_cast<double>(resident_bytes);
}
BENCHMARK(BM_QueensMaterializeSpill)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SolverPool)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

}  // namespace

BENCHMARK_MAIN();
