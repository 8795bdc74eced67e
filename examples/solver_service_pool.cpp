// The §3.2 solver service as a *threaded fleet*: ServicePool<SolverService> runs K
// services on K worker threads over one shared, internally-synchronized
// PageStore. Every service solves the same base graph-coloring problem, then
// branches divergent what-if constraint sets in parallel — and because the
// fleet shares one store, the clause arenas and watch lists of the common base
// dedup across worker threads (cross_session_dedup_hits), so K services cost
// far less than K× the memory.
//
// Run: ./example_solver_service_pool [services] [nodes] [edges] [colors]
//
// On a multi-core host the pool rows show near-linear wall-clock scaling
// until services exceed hardware threads; on one core they serialize but keep
// the residency win.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <vector>

#include "src/solver/cnf.h"
#include "src/service/pool.h"
#include "src/solver/pool_jobs.h"
#include "src/util/rng.h"

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

const char* Verdict(const lw::SolverService::Outcome& outcome) {
  return outcome.result.IsTrue() ? "SAT" : outcome.result.IsFalse() ? "UNSAT" : "UNKNOWN";
}

}  // namespace

int main(int argc, char** argv) {
  int services = argc > 1 ? std::atoi(argv[1]) : 4;
  int nodes = argc > 2 ? std::atoi(argv[2]) : 40;
  int edges = argc > 3 ? std::atoi(argv[3]) : 90;
  int colors = argc > 4 ? std::atoi(argv[4]) : 3;
  if (services < 1 || nodes < 2 || edges < 1 || colors < 2) {
    std::fprintf(stderr, "usage: %s [services>=1] [nodes>=2] [edges>=1] [colors>=2]\n", argv[0]);
    return 1;
  }

  lw::Rng rng(2024);
  lw::Cnf base = lw::GraphColoring(&rng, nodes, edges, colors);
  std::printf("fleet: %d solver services (one worker thread each), one shared store\n", services);
  std::printf("base problem: %d-coloring of a %d-node/%d-edge graph (%zu clauses)\n\n", colors,
              nodes, edges, base.clause_count());

  lw::ServicePoolOptions<lw::SolverService> options;
  options.num_services = services;
  options.service.tuning.arena_bytes = 32ull << 20;
  lw::ServicePool<lw::SolverService> pool(options);

  // Phase 1: every service solves the shared base — in parallel.
  auto start = std::chrono::steady_clock::now();
  std::vector<lw::SolverService::Outcome> roots;
  lw::Status status = lw::SolveRootEverywhere(pool, base, &roots);
  if (!status.ok()) {
    std::fprintf(stderr, "root solves failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("phase 1: %d root solves (%s, conflicts=%llu each)  wall=%.1f ms\n", services,
              Verdict(roots[0]), static_cast<unsigned long long>(roots[0].conflicts),
              MsSince(start));

  // Phase 2: branch each root with divergent what-ifs, all in flight at once.
  auto var_of = [colors](int node, int color) { return lw::MakeLit(node * colors + color); };
  start = std::chrono::steady_clock::now();
  std::vector<std::future<lw::Result<lw::SolverService::Outcome>>> futures;
  for (int i = 0; i < services; ++i) {
    int color = i % colors;
    futures.push_back(lw::SubmitExtend(pool, i, roots[static_cast<size_t>(i)].token,
                                         {{var_of(0, color)}}));
    futures.push_back(lw::SubmitExtend(pool, i, roots[static_cast<size_t>(i)].token,
                                         {{var_of(1, color)}, {var_of(2, color)}}));
  }
  int branch = 0;
  for (auto& future : futures) {
    auto outcome = future.get();
    if (!outcome.ok()) {
      std::fprintf(stderr, "extend failed: %s\n", outcome.status().ToString().c_str());
      return 1;
    }
    std::printf("  branch %-2d %-6s conflicts(total)=%llu\n", branch++, Verdict(*outcome),
                static_cast<unsigned long long>(outcome->conflicts));
    // The branch outcomes' typed handles release their snapshots right here,
    // as `outcome` goes out of scope — RAII replaces manual token bookkeeping.
  }
  std::printf("phase 2: %zu divergent branches  wall=%.1f ms\n\n", futures.size(),
              MsSince(start));

  // Phase 3: retire the root problems explicitly — SubmitRelease consumes the
  // typed handle on its owning worker; a double release would be a typed
  // error, not UB.
  for (int i = 0; i < services; ++i) {
    if (!lw::SubmitRelease(pool, i, roots[static_cast<size_t>(i)].token).get().ok()) {
      std::fprintf(stderr, "release failed\n");
      return 1;
    }
  }
  std::printf("phase 3: all roots released (handles consumed)\n\n");

  lw::ServiceFleetStats stats = pool.fleet_stats();
  std::printf("fleet stats: jobs=%llu snapshots=%llu restores=%llu checkpoints=%llu\n",
              static_cast<unsigned long long>(stats.jobs_executed),
              static_cast<unsigned long long>(stats.snapshots),
              static_cast<unsigned long long>(stats.restores),
              static_cast<unsigned long long>(stats.checkpoints));
  const lw::PageStore::Stats store = pool.store()->stats();
  std::printf("shared store: resident=%.1f MiB  cross_session_dedup_hits=%llu  cold_blobs=%llu\n",
              static_cast<double>(store.bytes_resident()) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(store.cross_session_dedup_hits),
              static_cast<unsigned long long>(store.compressed_blobs));
  std::printf("every branch resumed an immutable parent on its worker thread — zero copies,\n"
              "one substrate\n");
  return 0;
}
