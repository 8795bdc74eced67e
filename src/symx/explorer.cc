#include "src/symx/explorer.h"

#include <cstdio>
#include <deque>
#include <memory>

#include "src/core/guest_api.h"
#include "src/core/guest_heap.h"

namespace lw {

std::string ExploreStats::ToString() const {
  char buf[384];
  std::snprintf(buf, sizeof buf,
                "paths=%llu (completed=%llu pruned=%llu killed=%llu violations=%llu) "
                "branches=%llu queries=%llu conflicts=%llu steps=%llu copied=%llu max_depth=%u",
                static_cast<unsigned long long>(TotalPaths()),
                static_cast<unsigned long long>(paths_completed),
                static_cast<unsigned long long>(paths_pruned),
                static_cast<unsigned long long>(paths_killed),
                static_cast<unsigned long long>(violations),
                static_cast<unsigned long long>(branches),
                static_cast<unsigned long long>(solver_queries),
                static_cast<unsigned long long>(solver_conflicts),
                static_cast<unsigned long long>(vm_steps),
                static_cast<unsigned long long>(state_bytes_copied), max_depth);
  return buf;
}

namespace {

// One worklist entry of the explicit explorer: a full private copy of the VM
// state. This struct *is* the software-CoW-less baseline cost model.
struct PathState {
  ExprPool pool;
  SymVm vm;

  PathState(const Program* program, const VmConfig& config)
      : pool(), vm(program, &pool, config) {}

  PathState(const PathState& other) : pool(other.pool), vm(other.vm) {
    vm.set_pool(&pool);  // re-target after the member copy
  }

  size_t ApproxBytes() const { return pool.size() * sizeof(ExprNode) + vm.StateBytes(); }
};

void RecordViolation(uint32_t pc, std::vector<uint32_t> inputs, ExploreStats* stats,
                     std::vector<Violation>* violations) {
  ++stats->violations;
  if (violations != nullptr) {
    violations->push_back(Violation{pc, std::move(inputs)});
  }
}

}  // namespace

Status ExplicitExplorer::Explore(const Program& program, ExploreStats* stats,
                                 std::vector<Violation>* violations) {
  *stats = ExploreStats();
  PathChecker checker(options_.solver_conflict_budget);

  std::vector<std::unique_ptr<PathState>> worklist;
  worklist.push_back(std::make_unique<PathState>(&program, options_.vm));

  while (!worklist.empty()) {
    if (options_.max_paths != 0 && stats->TotalPaths() >= options_.max_paths) {
      break;
    }
    std::unique_ptr<PathState> state = std::move(worklist.back());
    worklist.pop_back();

    // Drive this path to a terminal event, forking at branches.
    bool alive = true;
    while (alive) {
      VmEvent event = state->vm.Run();
      stats->vm_steps = state->vm.steps();  // monotone per path; coarse but cheap
      switch (event) {
        case VmEvent::kHalted:
          ++stats->paths_completed;
          alive = false;
          break;
        case VmEvent::kStepLimit:
        case VmEvent::kBadAccess:
          ++stats->paths_killed;
          alive = false;
          break;
        case VmEvent::kAssertFailedConcrete: {
          auto witness = checker.Check(state->pool, state->vm.path_constraints().data(),
                                       state->vm.path_constraints().size());
          std::vector<uint32_t> inputs;
          if (witness.ok() && witness->sat) {
            inputs = std::move(witness->inputs);
          }
          RecordViolation(state->vm.pc(), std::move(inputs), stats, violations);
          alive = false;
          break;
        }
        case VmEvent::kAssertCheck: {
          ExprRef operand = state->vm.assert_operand();
          auto bad = checker.CheckWithZero(state->pool, state->vm.path_constraints().data(),
                                           state->vm.path_constraints().size(), operand);
          if (bad.ok() && bad->sat) {
            RecordViolation(state->vm.pc(), std::move(bad->inputs), stats, violations);
          }
          auto good = checker.Check(state->pool, state->vm.path_constraints().data(),
                                    state->vm.path_constraints().size(), operand);
          bool can_hold = !good.ok() || good->sat;  // budget hit: keep alive
          if (can_hold) {
            state->vm.AssumeAssertHolds();
          } else {
            ++stats->paths_pruned;
            alive = false;
          }
          break;
        }
        case VmEvent::kSymbolicBranch: {
          ++stats->branches;
          ExprRef cond = state->vm.branch_cond();
          auto taken_ok = checker.Check(state->pool, state->vm.path_constraints().data(),
                                        state->vm.path_constraints().size(), cond);
          auto fall_ok = checker.CheckWithZero(state->pool, state->vm.path_constraints().data(),
                                               state->vm.path_constraints().size(), cond);
          bool taken_sat = !taken_ok.ok() || taken_ok->sat;
          bool fall_sat = !fall_ok.ok() || fall_ok->sat;
          if (taken_sat && fall_sat) {
            // Fork: the taken side gets a full deep copy of the state — the
            // cost the snapshot backend eliminates.
            auto fork = std::make_unique<PathState>(*state);
            stats->state_bytes_copied += fork->ApproxBytes();
            fork->vm.TakeBranch(true);
            worklist.push_back(std::move(fork));
            state->vm.TakeBranch(false);
          } else if (taken_sat) {
            ++stats->paths_pruned;  // the fallthrough side was infeasible
            state->vm.TakeBranch(true);
          } else if (fall_sat) {
            ++stats->paths_pruned;  // the taken side was infeasible
            state->vm.TakeBranch(false);
          } else {
            ++stats->paths_pruned;  // both sides infeasible: contradiction
            alive = false;
            break;
          }
          if (state->vm.branch_depth() > stats->max_depth) {
            stats->max_depth = state->vm.branch_depth();
          }
          break;
        }
      }
    }
  }
  stats->solver_queries = checker.queries();
  stats->solver_conflicts = checker.total_conflicts();
  return OkStatus();
}

// --- snapshot backend ---

struct SnapshotExplorer::GuestCtx {
  const Program* program = nullptr;
  ExploreOptions options;
  PathChecker* checker = nullptr;        // host-side
  ExploreStats* stats = nullptr;         // host-side collector
  std::vector<Violation>* violations = nullptr;  // host-side collector
};

void SnapshotExplorer::GuestMain(void* arg) {
  auto* ctx = static_cast<GuestCtx*>(arg);
  auto* session = static_cast<BacktrackSession*>(CurrentExecutor());
  GuestHeap* heap = session->heap();
  ScopedAllocHooks hooks(heap->Hooks());

  auto* pool = GuestNew<ExprPool>(heap);
  auto* vm = GuestNew<SymVm>(heap, ctx->program, pool, ctx->options.vm);
  LW_CHECK_MSG(pool != nullptr && vm != nullptr, "arena too small for symbolic VM");

  if (!sys_guess_strategy(StrategyKind::kDfs)) {
    return;  // exploration finished; nothing to do on the false branch
  }
  while (true) {
    VmEvent event = vm->Run();
    ctx->stats->vm_steps += 1;  // event-granular tick (steps are per-path inside the VM)
    switch (event) {
      case VmEvent::kHalted:
        ctx->stats->paths_completed++;
        sys_guess_fail();
      case VmEvent::kStepLimit:
      case VmEvent::kBadAccess:
        ctx->stats->paths_killed++;
        sys_guess_fail();
      case VmEvent::kAssertFailedConcrete: {
        auto witness = ctx->checker->Check(*pool, vm->path_constraints().data(),
                                           vm->path_constraints().size());
        std::vector<uint32_t> inputs;
        if (witness.ok() && witness->sat) {
          inputs = std::move(witness->inputs);
        }
        RecordViolation(vm->pc(), std::move(inputs), ctx->stats, ctx->violations);
        sys_guess_fail();
      }
      case VmEvent::kAssertCheck: {
        ExprRef operand = vm->assert_operand();
        auto bad = ctx->checker->CheckWithZero(*pool, vm->path_constraints().data(),
                                               vm->path_constraints().size(), operand);
        if (bad.ok() && bad->sat) {
          RecordViolation(vm->pc(), std::move(bad->inputs), ctx->stats, ctx->violations);
        }
        auto good = ctx->checker->Check(*pool, vm->path_constraints().data(),
                                        vm->path_constraints().size(), operand);
        if (good.ok() && !good->sat) {
          ctx->stats->paths_pruned++;
          sys_guess_fail();
        }
        vm->AssumeAssertHolds();
        break;
      }
      case VmEvent::kSymbolicBranch: {
        ctx->stats->branches++;
        // The fork: the libOS snapshots here; each side resumes from the same
        // immutable state with a different guess.
        int direction = sys_guess(2);
        bool taken = direction == 1;
        ExprRef cond = vm->branch_cond();
        Result<CheckResult> feasible =
            taken ? ctx->checker->Check(*pool, vm->path_constraints().data(),
                                        vm->path_constraints().size(), cond)
                  : ctx->checker->CheckWithZero(*pool, vm->path_constraints().data(),
                                                vm->path_constraints().size(), cond);
        if (feasible.ok() && !feasible->sat) {
          ctx->stats->paths_pruned++;
          sys_guess_fail();
        }
        vm->TakeBranch(taken);
        if (vm->branch_depth() > ctx->stats->max_depth) {
          ctx->stats->max_depth = vm->branch_depth();
        }
        break;
      }
    }
  }
}

Status SnapshotExplorer::Explore(const Program& program, ExploreStats* stats,
                                 std::vector<Violation>* violations) {
  *stats = ExploreStats();
  PathChecker checker(options_.solver_conflict_budget);

  SessionOptions session_options;
  session_options.arena_bytes = options_.arena_bytes;
  session_options.snapshot_mode = options_.snapshot_mode;
  if (options_.max_paths != 0) {
    // Terminal paths ≈ evaluated extensions / 2 on a binary tree; budget with
    // headroom, then report whatever completed.
    session_options.max_extensions = options_.max_paths * 4 + 64;
  }
  BacktrackSession session(session_options);

  GuestCtx ctx;
  ctx.program = &program;
  ctx.options = options_;
  ctx.checker = &checker;
  ctx.stats = stats;
  ctx.violations = violations;

  Status status = session.Run(&GuestMain, &ctx);
  if (!status.ok() && status.code() != ErrorCode::kExhausted) {
    return status;
  }
  stats->solver_queries = checker.queries();
  stats->solver_conflicts = checker.total_conflicts();
  session_stats_ = session.stats();
  return OkStatus();
}

Result<ConcreteResult> RunConcrete(const Program& program, const std::vector<uint32_t>& inputs,
                                   const VmConfig& config) {
  ExprPool pool;
  SymVm vm(&program, &pool, config);
  vm.SetConcreteInputs(inputs.data(), inputs.size());

  ConcreteResult result;
  VmEvent event = vm.Run();
  switch (event) {
    case VmEvent::kHalted:
      result.steps = vm.steps();
      return result;
    case VmEvent::kAssertFailedConcrete:
      result.assert_failed = true;
      result.fault_pc = vm.pc();
      result.steps = vm.steps();
      return result;
    case VmEvent::kStepLimit:
      return Exhausted("concrete run: step limit");
    case VmEvent::kBadAccess:
      return OutOfRange("concrete run: bad access or missing input");
    case VmEvent::kSymbolicBranch:
    case VmEvent::kAssertCheck:
      return Internal("concrete run: unexpected symbolic event");
  }
  return Internal("concrete run: unreachable");
}

}  // namespace lw
