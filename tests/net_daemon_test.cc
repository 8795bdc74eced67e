// The remote checkpoint fabric over a loopback socket: concurrent remote
// tenants must be *bit-identical* to an in-process service driven with the
// same wire bytes (the one-codec-two-transports contract), per-tenant byte
// budgets must reject the over-budget tenant — and only that tenant — with a
// typed error and refund on release, per-tenant backpressure must bound
// in-flight jobs at the daemon's admission cap, and a closed connection must
// give back its socket.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/net/client.h"
#include "src/service/daemon.h"
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
SnapshotMode DaemonSnapshotMode() {
#ifdef __SANITIZE_THREAD__
  return SnapshotMode::kIncremental;
#else
  return SnapshotMode::kCow;
#endif
}

Cnf BaseProblem() {
  Rng rng(20260808);
  return RandomKSat(&rng, 120, 500, 3);
}

CheckpointDaemonOptions DaemonOptions(int services) {
  CheckpointDaemonOptions options;
  options.num_services = services;
  options.service.tuning.arena_bytes = 8ull << 20;
  options.service.tuning.snapshot_mode = DaemonSnapshotMode();
  return options;
}

std::string SocketPath(const char* name) {
  return std::string(::testing::TempDir()) + "/lwsnap_" + name + ".sock";
}

std::vector<uint8_t> Encode(const std::vector<std::vector<Lit>>& clauses) {
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(EncodeSolverRequest(clauses, 0, &bytes).ok());
  return bytes;
}

TEST(NetDaemonTest, ConcurrentRemoteTenantsMatchInProcessBitForBit) {
  Cnf base = BaseProblem();
  std::vector<uint8_t> base_bytes = Encode(base.clauses);
  std::vector<std::vector<Lit>> unit = {{MakeLit(0)}};
  std::vector<uint8_t> unit_bytes = Encode(unit);

  // In-process reference, driven EXACTLY the way the daemon drives its
  // services: boot an empty root, then deliver the same encoded bytes.
  SolverServiceOptions ref_options;
  ref_options.tuning.arena_bytes = 8ull << 20;
  ref_options.tuning.snapshot_mode = DaemonSnapshotMode();
  SolverService reference(ref_options);
  Cnf empty;
  auto ref_root = reference.SolveRoot(empty);
  ASSERT_TRUE(ref_root.ok());
  auto ref_base = reference.ExtendEncoded(ref_root->token, base_bytes.data(), base_bytes.size());
  ASSERT_TRUE(ref_base.ok());
  auto ref_ext = reference.ExtendEncoded(ref_base->token, unit_bytes.data(), unit_bytes.size());
  ASSERT_TRUE(ref_ext.ok());

  constexpr int kTenants = 4;
  auto daemon = CheckpointDaemon::StartUnix(SocketPath("parity"), DaemonOptions(kTenants));
  ASSERT_TRUE(daemon.ok());

  struct TenantResult {
    bool ok = false;
    RemoteOutcome root;
    RemoteOutcome ext;
  };
  std::vector<TenantResult> results(kTenants);
  std::vector<std::thread> tenants;
  for (int i = 0; i < kTenants; ++i) {
    tenants.emplace_back([&, i] {
      auto client = RemoteCheckpointClient::ConnectUnix((*daemon)->path());
      if (!client.ok()) return;
      auto session = (*client)->OpenSession();
      if (!session.ok()) return;
      auto root = (*client)->SolveRootEncoded(*session, base_bytes.data(), base_bytes.size());
      if (!root.ok()) return;
      auto ext =
          (*client)->ExtendEncoded(*session, root->token, unit_bytes.data(), unit_bytes.size());
      if (!ext.ok()) return;
      results[static_cast<size_t>(i)] = {true, *std::move(root), *std::move(ext)};
    });
  }
  for (auto& t : tenants) {
    t.join();
  }

  for (const TenantResult& r : results) {
    ASSERT_TRUE(r.ok);
    // Bit-identical outcomes: result, conflict count, variable count, and the
    // packed model bytes all match the in-process run of the same bytes.
    EXPECT_EQ(r.root.result.raw(), ref_base->result.raw());
    EXPECT_EQ(r.root.conflicts, ref_base->conflicts);
    EXPECT_EQ(r.root.num_vars, ref_base->num_vars);
    EXPECT_EQ(r.root.model_bits, ref_base->model_bits);
    EXPECT_EQ(r.ext.result.raw(), ref_ext->result.raw());
    EXPECT_EQ(r.ext.conflicts, ref_ext->conflicts);
    EXPECT_EQ(r.ext.num_vars, ref_ext->num_vars);
    EXPECT_EQ(r.ext.model_bits, ref_ext->model_bits);
    // Model sanity: the remote model satisfies the base problem.
    if (r.root.result == kTrue) {
      std::vector<bool> assignment(r.root.num_vars);
      for (uint32_t v = 0; v < r.root.num_vars; ++v) {
        assignment[v] = RemoteCheckpointClient::ModelBit(r.root, static_cast<Var>(v));
      }
      EXPECT_TRUE(base.IsSatisfiedBy(assignment));
    }
  }
  EXPECT_EQ((*daemon)->stats().connections_accepted, static_cast<uint64_t>(kTenants));
  EXPECT_EQ((*daemon)->stats().connections_dropped, 0u);
}

TEST(NetDaemonTest, TcpLoopbackServesTheSameProtocol) {
  Cnf base = BaseProblem();
  auto daemon = CheckpointDaemon::StartTcp(0, DaemonOptions(1));
  ASSERT_TRUE(daemon.ok());
  ASSERT_NE((*daemon)->port(), 0);
  auto client = RemoteCheckpointClient::ConnectTcp((*daemon)->port());
  ASSERT_TRUE(client.ok());
  auto session = (*client)->OpenSession();
  ASSERT_TRUE(session.ok());
  auto root = (*client)->SolveRoot(*session, base);
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE(root->result == kTrue || root->result == kFalse);
  // Divergent branches of one remote parent: the snapshot-tree shape.
  auto left = (*client)->Extend(*session, root->token, {{MakeLit(1)}});
  auto right = (*client)->Extend(*session, root->token, {{~MakeLit(1)}});
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());
  EXPECT_TRUE((*client)->Release(*session, root->token).ok());
  // Released parents stay extensible through their children.
  auto deeper = (*client)->Extend(*session, left->token, {{MakeLit(2)}});
  ASSERT_TRUE(deeper.ok());
}

TEST(NetDaemonTest, TenantBudgetRejectsOnlyTheOverBudgetTenant) {
  Cnf base = BaseProblem();
  CheckpointDaemonOptions options = DaemonOptions(2);
  auto daemon = CheckpointDaemon::StartUnix(SocketPath("budget"), options);
  ASSERT_TRUE(daemon.ok());

  // Tenant A: one page of budget — the first solve is admitted (optimistic
  // admission against settled charges), every later one must be rejected.
  RemoteClientOptions tight;
  tight.budget_bytes = 4096;
  auto a = RemoteCheckpointClient::ConnectUnix((*daemon)->path(), tight);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ((*a)->granted_budget(), 4096u);
  auto a_session = (*a)->OpenSession();
  ASSERT_TRUE(a_session.ok());
  auto a_root = (*a)->SolveRoot(*a_session, base);
  ASSERT_TRUE(a_root.ok());
  auto rejected = (*a)->Extend(*a_session, a_root->token, {{MakeLit(0)}});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), ErrorCode::kResourceExhausted);

  auto a_stats = (*a)->TenantStats();
  ASSERT_TRUE(a_stats.ok());
  EXPECT_EQ(a_stats->budget_bytes, 4096u);
  EXPECT_GE(a_stats->charged_bytes, 4096u);  // the root solve's footprint
  EXPECT_EQ(a_stats->budget_rejections, 1u);

  // Tenant B (operator default: unlimited) is unaffected by A's pressure.
  auto b = RemoteCheckpointClient::ConnectUnix((*daemon)->path());
  ASSERT_TRUE(b.ok());
  auto b_session = (*b)->OpenSession();
  ASSERT_TRUE(b_session.ok());
  auto b_root = (*b)->SolveRoot(*b_session, base);
  ASSERT_TRUE(b_root.ok());
  auto b_ext = (*b)->Extend(*b_session, b_root->token, {{MakeLit(0)}});
  ASSERT_TRUE(b_ext.ok());

  // Releasing A's token refunds its charge; admission opens again.
  ASSERT_TRUE((*a)->Release(*a_session, a_root->token).ok());
  a_stats = (*a)->TenantStats();
  ASSERT_TRUE(a_stats.ok());
  EXPECT_EQ(a_stats->charged_bytes, 0u);
  auto again = (*a)->SolveRoot(*a_session, base);
  ASSERT_TRUE(again.ok());
}

TEST(NetDaemonTest, BudgetRequestsAreClampedByTheOperator) {
  CheckpointDaemonOptions options = DaemonOptions(1);
  options.default_budget_bytes = 1ull << 20;
  options.max_budget_bytes = 2ull << 20;
  auto daemon = CheckpointDaemon::StartUnix(SocketPath("clamp"), options);
  ASSERT_TRUE(daemon.ok());

  auto defaulted = RemoteCheckpointClient::ConnectUnix((*daemon)->path());
  ASSERT_TRUE(defaulted.ok());
  EXPECT_EQ((*defaulted)->granted_budget(), 1ull << 20);

  RemoteClientOptions greedy;
  greedy.budget_bytes = 1ull << 40;
  auto clamped = RemoteCheckpointClient::ConnectUnix((*daemon)->path(), greedy);
  ASSERT_TRUE(clamped.ok());
  EXPECT_EQ((*clamped)->granted_budget(), 2ull << 20);
}

TEST(NetDaemonTest, BackpressureBoundsInflightPerTenant) {
  Cnf base = BaseProblem();
  CheckpointDaemonOptions options = DaemonOptions(1);
  options.max_inflight_per_tenant = 2;
  auto daemon = CheckpointDaemon::StartUnix(SocketPath("backpressure"), options);
  ASSERT_TRUE(daemon.ok());

  auto client = RemoteCheckpointClient::ConnectUnix((*daemon)->path());
  ASSERT_TRUE(client.ok());
  EXPECT_EQ((*client)->max_inflight(), 2u);
  auto session = (*client)->OpenSession();
  ASSERT_TRUE(session.ok());

  // Pipeline 6 solves without waiting: the daemon's reader may admit at most
  // 2 at a time; the rest wait in the socket until replies retire.
  std::vector<uint8_t> base_bytes = Encode(base.clauses);
  constexpr int kPipelined = 6;
  std::vector<uint64_t> request_ids;
  for (int i = 0; i < kPipelined; ++i) {
    auto id = (*client)->SendSolveRootEncoded(*session, base_bytes.data(), base_bytes.size());
    ASSERT_TRUE(id.ok());
    request_ids.push_back(*id);
  }
  for (uint64_t id : request_ids) {
    auto outcome = (*client)->WaitOutcome(id);
    ASSERT_TRUE(outcome.ok());
    EXPECT_FALSE(outcome->result == kUndef);
  }

  auto stats = (*client)->TenantStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->jobs_executed, static_cast<uint64_t>(kPipelined));
  EXPECT_GE(stats->max_inflight_observed, 1u);
  EXPECT_LE(stats->max_inflight_observed, 2u);  // the admission bound held
}

TEST(NetDaemonTest, SessionsAreAFiniteRecyclableResource) {
  auto daemon = CheckpointDaemon::StartUnix(SocketPath("sessions"), DaemonOptions(2));
  ASSERT_TRUE(daemon.ok());
  auto client = RemoteCheckpointClient::ConnectUnix((*daemon)->path());
  ASSERT_TRUE(client.ok());

  auto first = (*client)->OpenSession();
  auto second = (*client)->OpenSession();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  auto third = (*client)->OpenSession();
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), ErrorCode::kResourceExhausted);

  // Close one; the slot recycles — and the recycled session solves from the
  // pristine empty root, not the previous tenant's leftovers.
  Cnf tiny;
  tiny.AddDimacsClause({1, 2});
  auto before_close = (*client)->SolveRoot(*first, tiny);
  ASSERT_TRUE(before_close.ok());
  ASSERT_TRUE((*client)->CloseSession(*first).ok());
  auto reopened = (*client)->OpenSession();
  ASSERT_TRUE(reopened.ok());
  auto after = (*client)->SolveRoot(*reopened, tiny);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->result.raw(), before_close->result.raw());
  EXPECT_EQ(after->num_vars, before_close->num_vars);

  // A closed session's tokens are gone.
  auto stale = (*client)->Extend(*first, before_close->token, {{MakeLit(0)}});
  ASSERT_FALSE(stale.ok());
}

TEST(NetDaemonTest, DisconnectReleasesSessionsForTheNextTenant) {
  auto daemon = CheckpointDaemon::StartUnix(SocketPath("disconnect"), DaemonOptions(1));
  ASSERT_TRUE(daemon.ok());
  Cnf tiny;
  tiny.AddDimacsClause({1});
  {
    auto first = RemoteCheckpointClient::ConnectUnix((*daemon)->path());
    ASSERT_TRUE(first.ok());
    auto session = (*first)->OpenSession();
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE((*first)->SolveRoot(*session, tiny).ok());
    // Drop the client without closing the session: the daemon must reclaim
    // the slot and the tenant's tokens on disconnect.
  }
  // The daemon reclaims asynchronously; a fresh tenant retries until the
  // slot returns (bounded, so a regression fails rather than hangs).
  auto second = RemoteCheckpointClient::ConnectUnix((*daemon)->path());
  ASSERT_TRUE(second.ok());
  Result<uint32_t> session = Status(ErrorCode::kInternal);
  for (int attempt = 0; attempt < 200 && !session.ok(); ++attempt) {
    session = (*second)->OpenSession();
    if (!session.ok()) {
      ASSERT_EQ(session.status().code(), ErrorCode::kResourceExhausted);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*second)->SolveRoot(*session, tiny).ok());
}

// Open descriptors of this process (the daemon runs in it).
size_t OpenFds() {
  size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++count;
  }
  return count;
}

TEST(NetDaemonTest, ClosedConnectionsAreReaped) {
  auto daemon = CheckpointDaemon::StartUnix(SocketPath("reap"), DaemonOptions(1));
  ASSERT_TRUE(daemon.ok());
  const size_t before = OpenFds();
  for (int i = 0; i < 50; ++i) {
    auto sock = ConnectUnix((*daemon)->path());
    ASSERT_TRUE(sock.ok());
    // Half-close, then wait for the daemon's EOF: its reader has finished.
    ASSERT_EQ(::shutdown(sock->fd(), SHUT_WR), 0);
    uint8_t byte = 0;
    bool clean_eof = false;
    ASSERT_TRUE(sock->ReadFull(&byte, 1, &clean_eof).ok());
    EXPECT_TRUE(clean_eof);
  }
  // Each accept reaps the connections that finished before it; only the
  // last one may still hold its socket.
  EXPECT_LE(OpenFds(), before + 1);
  EXPECT_EQ((*daemon)->stats().connections_accepted, 50u);
}

}  // namespace
}  // namespace lw
