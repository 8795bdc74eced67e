// BacktrackSession: the libOS of Figure 2 — owner of the guest arena, the
// snapshot tree, the search strategy, and the guest-visible system calls.
//
// Execution model (each session is single-threaded, like the paper's
// prototype; a session is *thread-affine* — one thread drives it at a time,
// though many sessions on different worker threads may share one PageStore):
//   * The host calls Run(guest_fn, arg). The guest runs on a stack inside the
//     arena via ucontext; the session's scheduler runs on the host stack.
//   * sys_guess(n) parks the guest: it saves its ucontext on its own stack and
//     swaps into the scheduler, which materialises the snapshot — the engine
//     publishes the changed page image, saved registers included, and the page
//     map is shared — and pushes n extensions onto the strategy.
//   * The scheduler pops the next extension, restores its snapshot (the engine's
//     page restore, which brings back the register file and every guest-heap
//     structure: the interposed filesystem, the buffered output) and resumes
//     the guest inside sys_guess with the extension value as the return value
//     (the paper's "%rax").
//   * sys_guess_fail abandons the current extension: a bare jump back to the
//     scheduler; all memory effects since the last restore are dead and will be
//     overwritten by the next restore (no undo log).
//   * sys_yield creates a host-resumable checkpoint: the basis of the multi-path
//     incremental solver service of §3.2.
//
// The snapshot mechanics themselves — how a page image is captured and
// reinstated — live in SnapshotEngine (src/snapshot/engine.h), whose
// dirty-discovery arm SessionOptions::snapshot_mode selects. The session is
// pure search orchestration: it never touches mprotect, hot-page prediction,
// or page copies.

#ifndef LWSNAP_SRC_CORE_SESSION_H_
#define LWSNAP_SRC_CORE_SESSION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/core/arena.h"
#include "src/core/checkpoint.h"
#include "src/core/guest_heap.h"
#include "src/core/search_graph.h"
#include "src/core/strategy.h"
#include "src/core/types.h"
#include "src/snapshot/engine.h"
#include "src/snapshot/page_map.h"
#include "src/snapshot/page_store.h"
#include "src/util/status.h"
#include "src/util/vec.h"

namespace lw {

struct SessionOptions {
  size_t arena_bytes = 64ull << 20;
  size_t guest_stack_bytes = 1ull << 20;
  // Snapshot backend (src/snapshot/engine.h): kCow (default, page-granular
  // copy-on-write), kIncremental (fault-free content scan) or kFullCopy (the
  // whole-arena baseline).
  SnapshotMode snapshot_mode = SnapshotMode::kCow;
  StrategyConfig strategy;

  // Shared page substrate. Null (default): the session creates a private
  // PageStore configured by `store_options`. Non-null: the session publishes
  // through the injected store, deduplicating against every other session on
  // it (see the sharing/ownership contract in src/snapshot/page_store.h). The
  // store is internally synchronized, so sharers may run on different worker
  // threads — each *session* stays thread-affine (one thread drives it at a
  // time), but the fleet runs in parallel. The session keeps the store alive.
  std::shared_ptr<PageStore> store;
  PageStoreOptions store_options;

  // Safety cap on evaluated extensions (0 = unbounded). When hit, Run returns
  // kExhausted and the session must be discarded.
  uint64_t max_extensions = 0;

  // SM-A* style byte budget on snapshot pages (0 = unbounded): after each guess
  // and each parked checkpoint the session calls EnforceByteBudget
  // (src/snapshot/budget_policy.h): evict → compress → spill run while the
  // store's live bytes exceed it, then drop trims the free list if live + free
  // bytes do. Measured against the *whole* store: with a shared store this is
  // a fleet-wide residency cap — each session can only evict its own
  // frontier, so sharers should agree on one budget value (or use 0).
  uint64_t snapshot_byte_budget = 0;

  // Hot-page prediction (kCow only): a page dirtied in enough consecutive
  // snapshots is left permanently writable; snapshots memcmp it and restores
  // memcpy it eagerly, skipping the SIGSEGV + 2×mprotect round trip that
  // dominates fine-grained workloads (the stand-in for Dune's cheap ring-0
  // faults). At most this many pages are hot at once; 0 disables prediction.
  // The engine ignores it in every other mode.
  uint32_t hot_page_limit = 64;

  // Output policy. Default (false): guest emissions are forwarded to `output`
  // immediately (the paper's n-queens prints answers as it finds them). true:
  // emissions accumulate per path in a guest-heap buffer and are forwarded only
  // when a path completes without failing; a restore rolls the buffer back
  // with the pages, so failed paths' output never escapes.
  bool buffer_output = false;
  std::function<void(std::string_view)> output;  // default: write to stdout
};

// Search-side counters; the inherited SnapshotEngineStats block carries the
// engine-side counters (pages, hot-page prediction, scan/copy work). Store-wide
// counters live in store().stats().
struct SessionStats : SnapshotEngineStats {
  uint64_t guesses = 0;
  uint64_t snapshots = 0;
  uint64_t restores = 0;
  uint64_t extensions_evaluated = 0;
  uint64_t failures = 0;
  uint64_t completions = 0;
  uint64_t solutions = 0;  // sys_note_solution calls
  uint64_t checkpoints = 0;
  uint64_t resumes = 0;
  uint64_t evictions = 0;

  std::string ToString() const;
};

class BacktrackSession : public GuessExecutor {
 public:
  using GuestFn = void (*)(void*);

  explicit BacktrackSession(SessionOptions options);
  ~BacktrackSession() override;

  BacktrackSession(const BacktrackSession&) = delete;
  BacktrackSession& operator=(const BacktrackSession&) = delete;

  // Runs `fn(arg)` as the root guest execution and drives the search until the
  // frontier is exhausted (parked checkpoints do not block completion).
  // Call at most once per session.
  Status Run(GuestFn fn, void* arg);

  // Resumes a parked checkpoint, delivering `msg` into its mailbox; drives the
  // search until the frontier drains again. A checkpoint may be resumed any
  // number of times (each resume forks a fresh execution from the immutable
  // snapshot). Legal only between Run/Resume calls. A handle minted by a
  // different session is an InvalidArgument error (never UB).
  Status Resume(const Checkpoint& checkpoint, const void* msg, size_t len);

  // Typed, owning handles to the checkpoints created since the last call (in
  // creation order). Dropping a handle (on any thread) queues its snapshot for
  // reclamation; Clone() a handle to branch. See src/core/checkpoint.h.
  std::vector<Checkpoint> TakeNewCheckpoints();

  // Reads a checkpoint's mailbox *as captured in its immutable snapshot* (the
  // guest writes its result there before yielding).
  Status ReadCheckpointMailbox(const Checkpoint& checkpoint, void* out, size_t len) const;

  // Explicitly releases one handle's reference, reclaiming the snapshot when
  // it was the last one. The handle becomes empty; releasing an empty, foreign
  // or already-released handle is a clean error. Releasing a parent whose
  // descendants are still held is safe: shared pages stay pinned by the
  // descendants' snapshot refs. The parent dies here, or at the next drive
  // that moves cur_snapshot_ off it.
  Status ReleaseCheckpoint(Checkpoint& checkpoint);

  // Reads live guest memory (legal between drives; [guest_ptr, guest_ptr + len)
  // must lie in the arena's heap or stack).
  void ReadGuest(const void* guest_ptr, void* out, size_t len) const;

  GuestHeap* heap() { return heap_; }
  GuestArena& arena() { return arena_; }
  const PageStore& store() const { return *store_; }
  const SnapshotEngine& engine() const { return *engine_; }
  const SessionStats& stats() const { return stats_; }
  size_t frontier_size() const { return strategy_ != nullptr ? strategy_->Size() : 0; }

  // GuessExecutor (guest-side entry points; invoked via the sys_* free functions):
  int OnGuess(int n, const GuessCost* costs) override;
  [[noreturn]] void OnFail() override;
  bool OnStrategyScope(StrategyKind kind) override;
  size_t OnYield(void* mailbox, size_t cap) override;
  void OnNoteSolution() override;
  void OnEmit(const void* data, size_t len) override;

 private:
  enum class GuestEvent {
    kNone,
    kGuessPending,
    kScopePending,
    kYieldPending,
    kFailed,
    kCompleted,
  };

  static void GuestTrampoline();
  void GuestMain();

  Status Drive(const std::function<void()>& first_transfer);
  // Handle plumbing: a handle is valid here when it is non-empty and its ref
  // names this session's reclaim queue (a live ref's token is always parked in
  // checkpoints_); the drain reclaims snapshots whose last handle dropped,
  // on any thread, since the previous boundary.
  Status ValidateHandle(const Checkpoint& checkpoint) const;
  void DrainReleasedCheckpoints();
  void HandleGuestEvent();
  // Drops the strategy's worst frontier entry (its snapshot releases through
  // the batch path) and counts the eviction; false if nothing can be evicted.
  // The one eviction site for SM-A*'s frontier cap and the byte budget.
  bool EvictWorst();
  // Runs the evict → compress → spill → drop ladder against
  // options_.snapshot_byte_budget (no-op when 0). Called after every
  // materialization that grows the store — guess fan-outs *and* parked
  // checkpoints, so long-running services with no search frontier still
  // converge to the cap.
  void EnforceBudget();
  // Captures the parked guest as a new snapshot (pages, registers included).
  SnapshotRef MaterializeParked();
  void RestoreTo(const Snapshot& snap);
  void EvaluateExtension(Extension ext);
  void SwapToGuest(ucontext_t* target);
  [[gnu::always_inline]] inline void Park(GuestEvent event);

  SessionOptions options_;
  GuestArena arena_;
  // Declared before engine_ and all SnapshotRef members so the store outlives
  // every ref this session minted; a shared store additionally outlives the
  // last session holding it (shared_ptr).
  std::shared_ptr<PageStore> store_;
  uint32_t store_owner_ = 0;  // this session's PageStore owner id
  std::unique_ptr<SnapshotEngine> engine_;  // holds the current map's page refs

  GuestHeap* heap_ = nullptr;  // lives inside the arena

  std::unique_ptr<Strategy> strategy_;

  // Scheduler/guest transfer state.
  ucontext_t sched_ctx_{};
  ucontext_t root_ctx_{};
  GuestEvent event_ = GuestEvent::kNone;
  ucontext_t* pending_ctx_ = nullptr;  // the parked guest's saved registers
  int pending_count_ = 0;
  const GuessCost* pending_costs_ = nullptr;
  uint8_t* pending_mailbox_ = nullptr;
  size_t pending_mailbox_cap_ = 0;
  int resume_value_ = 0;
  bool in_guest_ = false;
  bool started_ = false;
  bool driving_ = false;

  // The snapshot the running execution was restored from. Its map shares the
  // engine's current map's spine, so the pages Materialize path-copies away
  // die later with this map, in one ReleaseBatch, not one by one.
  SnapshotRef cur_snapshot_;
  uint32_t cur_depth_ = 0;

  bool scope_active_ = false;
  SnapshotRef scope_snapshot_;

  GuestFn guest_fn_ = nullptr;
  void* guest_arg_ = nullptr;

  // The guest's thread-current AllocHooks, parked while the scheduler runs.
  // Guests that install arena-backed hooks (solver service, symbolic VM) keep
  // them across sys_guess/sys_yield without leaking them into scheduler code.
  AllocHooks guest_hooks_ = MallocHooks();

  uint64_t next_snapshot_id_ = 1;
  uint64_t next_seq_ = 1;

  // Handle bookkeeping: the reclaim queue is shared with every minted
  // Checkpoint and internally synchronized (handles may drop on any thread);
  // checkpoints_ owns the parked snapshots and is session-thread-only.
  std::shared_ptr<internal::ReclaimQueue> reclaim_;
  std::unordered_map<uint64_t, SnapshotRef> checkpoints_;
  std::vector<uint64_t> new_checkpoints_;

  // Buffered-output mode only: the path's output so far, in the guest heap.
  Vec<char>* out_buffer_ = nullptr;
  SessionStats stats_;
};

}  // namespace lw

#endif  // LWSNAP_SRC_CORE_SESSION_H_
