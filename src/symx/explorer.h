// Multi-path exploration backends for lwsymx — the E6 experiment pair.
//
//   * ExplicitExplorer: the "S2E-style" software approach §2 describes — every
//     path fork deep-copies the whole VM state (registers, memory image,
//     expression pool) into a worklist entry. Copy bytes are accounted so the
//     bench can show state-copy cost growing with state size.
//   * SnapshotExplorer: the paper's proposal — the same VM runs as a guest of a
//     BacktrackSession; a fork is sys_guess(2), abandoning a path is
//     sys_guess_fail(), and "state copying" becomes page-granular CoW snapshots
//     taken by the libOS. No VM-specific copying code exists at all.
//
// Both backends prune infeasible sides with PathChecker and report identical
// ExploreStats, so any difference is the state-management mechanism.

#ifndef LWSNAP_SRC_SYMX_EXPLORER_H_
#define LWSNAP_SRC_SYMX_EXPLORER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/session.h"
#include "src/symx/checker.h"
#include "src/symx/isa.h"
#include "src/symx/value.h"
#include "src/symx/vm.h"
#include "src/util/status.h"

namespace lw {

struct Violation {
  uint32_t pc = 0;                // the faulting ASSERT
  std::vector<uint32_t> inputs;   // a witness assignment (may be empty)
};

struct ExploreStats {
  uint64_t paths_completed = 0;  // clean halts
  uint64_t paths_pruned = 0;     // infeasible sides cut by the solver
  uint64_t paths_killed = 0;     // step-limit / bad-access terminations
  uint64_t violations = 0;
  uint64_t branches = 0;         // symbolic branch events
  uint64_t solver_queries = 0;
  uint64_t solver_conflicts = 0;
  uint64_t vm_steps = 0;
  uint64_t state_bytes_copied = 0;  // ExplicitExplorer: fork copy volume
  uint32_t max_depth = 0;

  uint64_t TotalPaths() const { return paths_completed + paths_killed + violations; }
  std::string ToString() const;
};

struct ExploreOptions {
  VmConfig vm;
  // Caps terminal paths (0 = exhaust the space).
  uint64_t max_paths = 0;
  // Per-query solver budget; a budget hit conservatively keeps the path alive.
  uint64_t solver_conflict_budget = 1u << 20;
  // SnapshotExplorer only: arena size and snapshot mode for the session.
  size_t arena_bytes = 64ull << 20;
  SnapshotMode snapshot_mode = SnapshotMode::kCow;
};

class ExplicitExplorer {
 public:
  explicit ExplicitExplorer(ExploreOptions options) : options_(options) {}

  Status Explore(const Program& program, ExploreStats* stats,
                 std::vector<Violation>* violations);

 private:
  ExploreOptions options_;
};

class SnapshotExplorer {
 public:
  explicit SnapshotExplorer(ExploreOptions options) : options_(options) {}

  Status Explore(const Program& program, ExploreStats* stats,
                 std::vector<Violation>* violations);

  // Session-level counters from the last Explore (snapshots, restores, pages).
  const SessionStats& session_stats() const { return session_stats_; }

 private:
  struct GuestCtx;
  static void GuestMain(void* arg);

  ExploreOptions options_;
  SessionStats session_stats_;
};

// Concrete reference execution: runs `program` feeding INPUT from `inputs` in
// order. Used to validate violation witnesses end-to-end.
struct ConcreteResult {
  bool assert_failed = false;
  uint32_t fault_pc = 0;
  uint64_t steps = 0;
};
Result<ConcreteResult> RunConcrete(const Program& program, const std::vector<uint32_t>& inputs,
                                   const VmConfig& config);

}  // namespace lw

#endif  // LWSNAP_SRC_SYMX_EXPLORER_H_
