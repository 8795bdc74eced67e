// ServicePool<SolverService>: K solver services on K worker threads over one shared
// store. Results must match a single-threaded reference service exactly
// (solver determinism is per-service, so parity is exact), dedup must cross
// worker threads, and per-service FIFO submission must let a client pipeline a
// root and its extensions without waiting.

#include <gtest/gtest.h>

#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "src/service/pool.h"
#include "src/solver/pool_jobs.h"
#include "src/util/rng.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer) && !defined(__SANITIZE_THREAD__)
#define __SANITIZE_THREAD__ 1
#endif
#endif

namespace lw {
namespace {

// Under TSan the fault-free incremental engine keeps the suite signal-free;
// elsewhere exercise the paper's CoW protocol on real worker threads.
SnapshotMode PoolSnapshotMode() {
#ifdef __SANITIZE_THREAD__
  return SnapshotMode::kIncremental;
#else
  return SnapshotMode::kCow;
#endif
}

Cnf BaseProblem() {
  Rng rng(20260731);
  return RandomKSat(&rng, 120, 500, 3);
}

ServicePoolOptions<SolverService> PoolOptions(int services) {
  ServicePoolOptions<SolverService> options;
  options.num_services = services;
  options.service.tuning.arena_bytes = 8ull << 20;
  options.service.tuning.snapshot_mode = PoolSnapshotMode();
  return options;
}

TEST(SolverServicePoolTest, FleetMatchesSingleServiceReference) {
  Cnf base = BaseProblem();

  // Reference: one plain service, sequential.
  SolverServiceOptions ref_options;
  ref_options.tuning.arena_bytes = 8ull << 20;
  ref_options.tuning.snapshot_mode = PoolSnapshotMode();
  SolverService reference(ref_options);
  auto ref_root = reference.SolveRoot(base);
  ASSERT_TRUE(ref_root.ok());

  constexpr int kServices = 4;
  ServicePool<SolverService> pool(PoolOptions(kServices));
  std::vector<SolverService::Outcome> roots;
  ASSERT_TRUE(SolveRootEverywhere(pool, base, &roots).ok());
  ASSERT_EQ(roots.size(), static_cast<size_t>(kServices));
  for (const auto& outcome : roots) {
    EXPECT_EQ(outcome.result.raw(), ref_root->result.raw());
    EXPECT_EQ(outcome.conflicts, ref_root->conflicts);  // determinism, not luck
  }

  // Branch every service with the same increment, in parallel; parity again.
  std::vector<std::vector<Lit>> unit = {{MakeLit(0)}};
  auto ref_ext = reference.Extend(ref_root->token, unit);
  ASSERT_TRUE(ref_ext.ok());
  std::vector<std::future<Result<SolverService::Outcome>>> futures;
  for (int i = 0; i < kServices; ++i) {
    futures.push_back(SubmitExtend(pool, i, roots[static_cast<size_t>(i)].token, unit));
  }
  for (auto& future : futures) {
    auto outcome = future.get();
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome->result.raw(), ref_ext->result.raw());
    EXPECT_EQ(outcome->conflicts, ref_ext->conflicts);
  }

  // The whole point of the shared store: the workers deduped each other.
  EXPECT_GT(pool.store()->stats().cross_session_dedup_hits, 0u);
  EXPECT_EQ(pool.fleet_stats().jobs_executed, static_cast<uint64_t>(2 * kServices));
}

TEST(SolverServicePoolTest, PipelinedSubmissionRunsInOrder) {
  Cnf base = BaseProblem();
  ServicePool<SolverService> pool(PoolOptions(2));

  // Enqueue root + two dependent extends back-to-back without waiting: the
  // per-service FIFO must sequence them (the extend's parent token comes from
  // the root future only after both are already queued... so instead pipeline
  // divergent extensions of the root once known, interleaved across services).
  auto root0 = SubmitSolveRoot(pool, 0, &base);
  auto root1 = SubmitSolveRoot(pool, 1, &base);
  auto outcome0 = root0.get();
  auto outcome1 = root1.get();
  ASSERT_TRUE(outcome0.ok());
  ASSERT_TRUE(outcome1.ok());

  // Two divergent branches per service, queued without intermediate waits
  // (SubmitExtend clones the parent handle into each job, so one handle
  // branches any number of in-flight extensions).
  std::vector<std::future<Result<SolverService::Outcome>>> futures;
  for (int i = 0; i < 2; ++i) {
    const Checkpoint& parent = (i == 0 ? outcome0 : outcome1)->token;
    futures.push_back(SubmitExtend(pool, i, parent, {{MakeLit(1)}}));
    futures.push_back(SubmitExtend(pool, i, parent, {{~MakeLit(1)}}));
  }
  for (auto& future : futures) {
    auto outcome = future.get();
    ASSERT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome->token.valid());
  }

  // Both services branched the same parent twice: checkpoints accumulate.
  ServiceFleetStats stats = pool.fleet_stats();
  EXPECT_EQ(stats.checkpoints, 6u);  // (1 root + 2 branches) × 2 services
}

TEST(SolverServicePoolTest, ReleaseAndShutdownDrainClean) {
  Cnf base = BaseProblem();
  std::shared_ptr<PageStore> store;
  {
    ServicePool<SolverService> pool(PoolOptions(3));
    store = pool.store();
    std::vector<SolverService::Outcome> roots;
    ASSERT_TRUE(SolveRootEverywhere(pool, base, &roots).ok());
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(SubmitRelease(pool, i, roots[static_cast<size_t>(i)].token).get().ok());
    }
    // Destructor drains queues and joins workers.
  }
  // All services died with the pool; only our handle keeps the store alive.
  // Every blob the fleet minted was returned — only the store-held canonical
  // zero blob may remain.
  EXPECT_LE(store->stats().live_blobs, 1u);
}

TEST(SolverServicePoolTest, DrainOnDestructionPropagatesMidQueueFailure) {
  // A failing job in the middle of a queued pipeline must fail through its
  // own future and leave the worker serving the rest of the queue — both
  // while running and during destructor drain.
  Cnf base = BaseProblem();
  std::future<Result<SolverService::Outcome>> before;
  std::future<Result<SolverService::Outcome>> failing;
  std::future<Result<SolverService::Outcome>> after;
  std::future<Status> released;
  {
    ServicePool<SolverService> pool(PoolOptions(1));
    auto root = SubmitSolveRoot(pool, 0, &base).get();
    ASSERT_TRUE(root.ok());

    // Queue: good extend → failing extend (empty handle) → good extend →
    // release, then destroy the pool immediately: the destructor drains all
    // four in order.
    before = SubmitExtend(pool, 0, root->token, {{MakeLit(0)}});
    failing = SubmitExtend(pool, 0, Checkpoint(), {{MakeLit(1)}});
    after = SubmitExtend(pool, 0, root->token, {{~MakeLit(0)}});
    released = SubmitRelease(pool, 0, root->token);
  }
  auto ok_before = before.get();
  ASSERT_TRUE(ok_before.ok());
  EXPECT_FALSE(ok_before->result.IsUndef());
  EXPECT_EQ(failing.get().status().code(), ErrorCode::kInvalidArgument);
  auto ok_after = after.get();
  ASSERT_TRUE(ok_after.ok());  // the worker outlived the failed job
  EXPECT_FALSE(ok_after->result.IsUndef());
  EXPECT_TRUE(released.get().ok());
}

TEST(SolverServicePoolTest, WrongServiceHandleFailsThroughFuture) {
  Cnf base = BaseProblem();
  ServicePool<SolverService> pool(PoolOptions(2));
  auto root0 = SubmitSolveRoot(pool, 0, &base).get();
  auto root1 = SubmitSolveRoot(pool, 1, &base).get();
  ASSERT_TRUE(root0.ok());
  ASSERT_TRUE(root1.ok());
  // Service 1 rejects service 0's handle; both services stay healthy.
  auto wrong = SubmitExtend(pool, 1, root0->token, {{MakeLit(0)}}).get();
  EXPECT_EQ(wrong.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(SubmitExtend(pool, 0, root0->token, {{MakeLit(0)}}).get().ok());
  EXPECT_TRUE(SubmitExtend(pool, 1, root1->token, {{MakeLit(0)}}).get().ok());
}

// Without an injected store the pool builds the fleet's one store from the
// service template's store_options, so a spill_dir gives the fleet a spill
// tier, and every service publishes into that store.
TEST(SolverServicePoolTest, FleetStoreHonoursStoreOptions) {
  char tmpl[] = "/tmp/lwsnap_pool_spill_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string root = dir;
  {
    ServicePoolOptions<SolverService> options = PoolOptions(2);
    options.service.tuning.store_options.spill_dir = root + "/store";
    ServicePool<SolverService> pool(options);
    EXPECT_TRUE(pool.store()->spill_enabled());
    std::vector<SolverService::Outcome> roots;
    ASSERT_TRUE(SolveRootEverywhere(pool, BaseProblem(), &roots).ok());
    EXPECT_GT(pool.store()->stats().total_published, 0u);
  }
  const std::string cleanup = "rm -rf '" + root + "'";
  EXPECT_EQ(std::system(cleanup.c_str()), 0);
}

// An injected `service.tuning.store` is the fleet's store.
TEST(SolverServicePoolTest, FleetSharesInjectedTuningStore) {
  auto store = std::make_shared<PageStore>();
  ServicePoolOptions<SolverService> options = PoolOptions(2);
  options.service.tuning.store = store;
  ServicePool<SolverService> pool(options);
  EXPECT_EQ(pool.store(), store);
  std::vector<SolverService::Outcome> roots;
  ASSERT_TRUE(SolveRootEverywhere(pool, BaseProblem(), &roots).ok());
  EXPECT_GT(store->stats().cross_session_dedup_hits, 0u);
}

}  // namespace
}  // namespace lw
