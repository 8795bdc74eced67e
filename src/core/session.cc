#include "src/core/session.h"

#include <cstdio>
#include <cstring>
#include <utility>

#include "src/snapshot/budget_policy.h"
#include "src/util/timer.h"

namespace lw {
namespace {

thread_local GuessExecutor* g_current_executor = nullptr;

void DefaultOutput(std::string_view text) {
  std::fwrite(text.data(), 1, text.size(), stdout);
}

}  // namespace

GuessExecutor* CurrentExecutor() { return g_current_executor; }
void SetCurrentExecutor(GuessExecutor* executor) { g_current_executor = executor; }

std::string SessionStats::ToString() const {
  const std::pair<const char*, uint64_t> counters[] = {
      {"guesses", guesses},
      {"snapshots", snapshots},
      {"restores", restores},
      {"exts", extensions_evaluated},
      {"fail", failures},
      {"done", completions},
      {"sol", solutions},
      {"checkpoints", checkpoints},
      {"resumes", resumes},
      {"evictions", evictions},
      {"pages_mat", pages_materialized},
      {"pages_rst", pages_restored},
      {"hot_promo", hot_promotions},
      {"hot_demo", hot_demotions},
      {"hot_skip", hot_unchanged_skips},
      {"incr_scan", incr_pages_scanned},
      {"incr_copy", incr_pages_copied},
      {"rst_mprotect", restore_mprotect_calls},
      {"rst_runs", restore_runs_coalesced},
      {"rst_skip", pages_restore_skipped},
  };
  std::string out;
  for (const auto& [name, value] : counters) {
    out += std::string(name) + "=" + std::to_string(value) + " ";
  }
  char timings[64];
  std::snprintf(timings, sizeof(timings), "snap_us=%.1f restore_us=%.1f",
                static_cast<double>(snapshot_ns) / 1e3, static_cast<double>(restore_ns) / 1e3);
  return out + timings;
}

BacktrackSession::BacktrackSession(SessionOptions options)
    : options_(std::move(options)),
      arena_(GuestArena::Layout{options_.arena_bytes, options_.guest_stack_bytes,
                                16 * kPageSize}) {
  if (!options_.output) {
    options_.output = &DefaultOutput;
  }
  strategy_ = MakeStrategy(options_.strategy);
  reclaim_ = std::make_shared<internal::ReclaimQueue>();

  store_ = options_.store != nullptr ? options_.store
                                     : std::make_shared<PageStore>(options_.store_options);
  store_owner_ = store_->RegisterOwner();

  SnapshotEngine::Env env;
  env.arena = &arena_;
  env.store = store_.get();
  env.owner = store_owner_;
  env.stats = &stats_;
  env.hot_page_limit = options_.hot_page_limit;
  engine_ = std::make_unique<SnapshotEngine>(options_.snapshot_mode, env);

  // Heap construction happens *after* the engine establishes its invariant: in
  // CoW mode its writes fault and enter the dirty set like any guest write; in
  // the scan-based engines they are picked up by the first materialization.
  heap_ = GuestHeap::Init(arena_.heap_base(), arena_.heap_bytes());
}

BacktrackSession::~BacktrackSession() {
  // Outstanding handles become inert: their future drops must not queue
  // tokens for a dead session. Every snapshot holder (frontier,
  // checkpoints, current and pending snapshots, the engine's map) is declared
  // after store_, so each releases its pages in batches before the store dies.
  reclaim_->Detach();
}

void BacktrackSession::AddAttachment(SessionAttachment* attachment) {
  LW_CHECK_MSG(!started_, "attachments must be added before Run");
  attachments_.push_back(attachment);
}

// ---------------------------------------------------------------------------
// Host-side drive loop.
// ---------------------------------------------------------------------------

void BacktrackSession::GuestTrampoline() {
  static_cast<BacktrackSession*>(CurrentExecutor())->GuestMain();
}

void BacktrackSession::GuestMain() {
  guest_fn_(guest_arg_);
  event_ = GuestEvent::kCompleted;
  setcontext(&sched_ctx_);
  LW_CHECK_MSG(false, "setcontext to scheduler failed");
}

Status BacktrackSession::Run(GuestFn fn, void* arg) {
  LW_CHECK_MSG(!started_, "BacktrackSession::Run may be called once");
  LW_CHECK_MSG(fn != nullptr, "guest function required");
  started_ = true;
  guest_fn_ = fn;
  guest_arg_ = arg;

  LW_CHECK(getcontext(&root_ctx_) == 0);
  root_ctx_.uc_stack.ss_sp = arena_.stack_base();
  root_ctx_.uc_stack.ss_size = arena_.stack_bytes();
  root_ctx_.uc_link = nullptr;
  makecontext(&root_ctx_, &GuestTrampoline, 0);

  return Drive([this] {
    cur_snapshot_.reset();
    cur_depth_ = 0;
    SwapToGuest(&root_ctx_);
  });
}

Status BacktrackSession::Resume(const Checkpoint& checkpoint, const void* msg, size_t len) {
  LW_CHECK_MSG(!driving_, "Resume is only legal between drives");
  DrainReleasedCheckpoints();
  LW_RETURN_IF_ERROR(ValidateHandle(checkpoint));
  auto it = checkpoints_.find(checkpoint.id());
  LW_CHECK(it != checkpoints_.end());
  SnapshotRef snap = it->second;
  if (len > snap->mailbox_cap) {
    return InvalidArgument("message exceeds checkpoint mailbox capacity");
  }
  return Drive([this, snap, msg, len] {
    RestoreTo(*snap);
    if (len > 0) {
      // A plain memcpy: under the CoW engine the write faults and the handler
      // marks the mailbox pages dirty; under the scan-based engines the next
      // materialization detects the changed bytes. Either way it behaves
      // exactly as a guest write would.
      std::memcpy(snap->mailbox, msg, len);
    }
    cur_snapshot_ = snap;
    cur_depth_ = snap->depth;
    resume_value_ = static_cast<int>(len);
    ++stats_.resumes;
    SwapToGuest(&snap->uctx);
  });
}

Status BacktrackSession::Drive(const std::function<void()>& first_transfer) {
  // The session may have been constructed on a different thread (e.g. a pool
  // dispatching to workers); the CoW fault handler needs this thread's
  // alternate signal stack in place before any guest write can fault. Skipped
  // — not merely unused — for fault-free engines (fullcopy, incremental):
  // those sessions never perturb process signal state.
  if (engine_->NeedsSignalProtocol()) {
    EnsureThreadSignalStack();
  }
  ScopedExecutor scoped(this);
  driving_ = true;
  first_transfer();
  Status result = OkStatus();
  while (true) {
    HandleGuestEvent();
    if (options_.max_extensions != 0 && stats_.extensions_evaluated >= options_.max_extensions) {
      result = Exhausted("max_extensions cap reached; session is no longer usable");
      break;
    }
    std::optional<Extension> next = strategy_->Pop();
    if (next.has_value()) {
      EvaluateExtension(std::move(*next));
      continue;
    }
    if (scope_active_) {
      // Search space under the scope is exhausted: deliver the one-time `false`
      // return of sys_guess_strategy (Figure 1's exit path).
      scope_active_ = false;
      SnapshotRef scope = std::move(scope_snapshot_);
      scope_snapshot_.reset();
      RestoreTo(*scope);
      cur_snapshot_ = scope;
      cur_depth_ = scope->depth;
      resume_value_ = 0;
      SwapToGuest(&scope->uctx);
      continue;
    }
    break;
  }
  driving_ = false;
  return result;
}

void BacktrackSession::HandleGuestEvent() {
  GuestEvent event = event_;
  event_ = GuestEvent::kNone;
  switch (event) {
    case GuestEvent::kNone:
      break;
    case GuestEvent::kGuessPending: {
      SnapshotRef snap = std::move(pending_snapshot_);
      MaterializeInto(snap);
      // Reverse value order: with a LIFO strategy, extension 0 runs first,
      // matching sequential fork semantics (§3).
      for (int i = pending_count_ - 1; i >= 0; --i) {
        Extension ext;
        ext.snapshot = snap;
        ext.value = i;
        ext.depth = snap->depth + 1;
        if (pending_costs_ != nullptr) {
          ext.g = pending_costs_[i].g;
          ext.h = pending_costs_[i].h;
        } else {
          ext.g = static_cast<double>(ext.depth);  // uniform cost fallback
        }
        ext.seq = next_seq_++;
        strategy_->Push(std::move(ext));
      }
      pending_costs_ = nullptr;
      // SM-A*'s frontier cap drops the worst entries past max_frontier.
      if (strategy_->kind() == StrategyKind::kSmaStar && options_.strategy.max_frontier > 0) {
        while (strategy_->Size() > options_.strategy.max_frontier && EvictWorst()) {
        }
      }
      EnforceBudget();
      break;
    }
    case GuestEvent::kScopePending: {
      SnapshotRef snap = std::move(pending_snapshot_);
      MaterializeInto(snap);
      scope_snapshot_ = snap;
      scope_active_ = true;
      Extension ext;
      ext.snapshot = snap;
      ext.value = 1;  // the `true` path
      ext.depth = snap->depth + 1;
      ext.seq = next_seq_++;
      strategy_->Push(std::move(ext));
      break;
    }
    case GuestEvent::kYieldPending: {
      SnapshotRef snap = std::move(pending_snapshot_);
      MaterializeInto(snap);
      checkpoints_[snap->id] = snap;
      new_checkpoints_.push_back(snap->id);
      ++stats_.checkpoints;
      // Parked checkpoints are what a long-running service accumulates; they
      // must drive the residency ladder too, or a guess-free service would
      // never spill (checkpoint pages are exactly the cold population the
      // spill tier exists for).
      EnforceBudget();
      break;
    }
    case GuestEvent::kFailed:
      ++stats_.failures;
      break;
    case GuestEvent::kCompleted:
      ++stats_.completions;
      if (options_.buffer_output && !out_buffer_.empty()) {
        options_.output(out_buffer_);
      }
      break;
  }
}

void BacktrackSession::EvaluateExtension(Extension ext) {
  RestoreTo(*ext.snapshot);
  cur_snapshot_ = ext.snapshot;
  cur_depth_ = ext.depth;
  resume_value_ = ext.value;
  ++stats_.extensions_evaluated;
  SwapToGuest(&ext.snapshot->uctx);
}

void BacktrackSession::SwapToGuest(ucontext_t* target) {
  in_guest_ = true;
  // Swap the guest's allocation hooks in for the duration of guest execution;
  // scheduler-side allocations (snapshot materialization, strategy frontier)
  // must never land in the guest heap, and vice versa.
  const AllocHooks host_hooks = CurrentAllocHooks();
  SetAllocHooks(guest_hooks_);
  LW_CHECK(swapcontext(&sched_ctx_, target) == 0);
  guest_hooks_ = CurrentAllocHooks();
  SetAllocHooks(host_hooks);
  in_guest_ = false;
  // The guest just parked: drop ASan's redzone poison from its stack frames so
  // the engines' whole-page reads/writes of the arena are clean (no-op outside
  // sanitized builds).
  arena_.UnpoisonShadow();
}

// ---------------------------------------------------------------------------
// Snapshot capture/restore: page mechanics are the engine's; the session adds
// the search-level envelope (attachments, output marks, counters, timing).
// ---------------------------------------------------------------------------

SnapshotRef BacktrackSession::NewSnapshotShell() {
  SnapshotRef snap = std::make_shared<Snapshot>();
  snap->id = next_snapshot_id_++;
  snap->depth = cur_depth_;
  return snap;
}

bool BacktrackSession::EvictWorst() {
  if (!strategy_->EvictWorst().has_value()) {
    return false;
  }
  ++stats_.evictions;
  return true;
}

void BacktrackSession::EnforceBudget() {
  EnforceByteBudget(*store_, options_.snapshot_byte_budget, [this] { return EvictWorst(); });
}

void BacktrackSession::MaterializeInto(const SnapshotRef& snap) {
  StopWatch sw;
  engine_->Materialize(*snap);
  snap->aux.reserve(attachments_.size());
  for (SessionAttachment* attachment : attachments_) {
    snap->aux.push_back(attachment->Capture());
  }
  snap->out_mark = out_buffer_.size();
  ++stats_.snapshots;
  stats_.snapshot_ns += sw.ElapsedNanos();
}

void BacktrackSession::RestoreTo(const Snapshot& snap) {
  StopWatch sw;
  engine_->Restore(snap);
  for (size_t i = 0; i < attachments_.size(); ++i) {
    attachments_[i]->Restore(i < snap.aux.size() ? snap.aux[i] : nullptr);
  }
  if (options_.buffer_output) {
    out_buffer_.resize(snap.out_mark);
  }
  ++stats_.restores;
  stats_.restore_ns += sw.ElapsedNanos();
}

// ---------------------------------------------------------------------------
// Guest-side system-call surface.
// ---------------------------------------------------------------------------

int BacktrackSession::OnGuess(int n, const GuessCost* costs) {
  LW_CHECK_MSG(in_guest_, "sys_guess called outside guest execution");
  ++stats_.guesses;
  if (n <= 0) {
    OnFail();
  }
  // CAUTION: this frame lives on the guest stack and is captured by the snapshot;
  // it must hold no host RAII objects (a shared_ptr local here would be restored
  // and re-destroyed once per resume). Ownership stays in host-side members.
  pending_snapshot_ = NewSnapshotShell();
  ucontext_t* uctx = &pending_snapshot_->uctx;
  pending_count_ = n;
  pending_costs_ = costs;
  event_ = GuestEvent::kGuessPending;
  // The scheduler materialises the snapshot *after* this switch, when the guest
  // stack is quiescent — so the page image exactly matches the saved registers.
  LW_CHECK(swapcontext(uctx, &sched_ctx_) == 0);
  return resume_value_;
}

void BacktrackSession::OnFail() {
  LW_CHECK_MSG(in_guest_, "sys_guess_fail called outside guest execution");
  event_ = GuestEvent::kFailed;
  setcontext(&sched_ctx_);
  LW_CHECK_MSG(false, "setcontext to scheduler failed");
  __builtin_unreachable();
}

bool BacktrackSession::OnStrategyScope(StrategyKind kind) {
  LW_CHECK_MSG(in_guest_, "sys_guess_strategy called outside guest execution");
  LW_CHECK_MSG(!scope_active_, "nested sys_guess_strategy scopes are not supported");
  LW_CHECK_MSG(strategy_->Empty(), "sys_guess_strategy requires an empty frontier");
  if (kind != strategy_->kind()) {
    LW_CHECK_MSG(kind != StrategyKind::kExternal || options_.strategy.external != nullptr,
                 "kExternal requires an ExternalScheduler configured on the session");
    StrategyConfig config = options_.strategy;
    config.kind = kind;
    strategy_ = MakeStrategy(config);
  }
  pending_snapshot_ = NewSnapshotShell();  // no guest-stack RAII (see OnGuess)
  ucontext_t* uctx = &pending_snapshot_->uctx;
  event_ = GuestEvent::kScopePending;
  LW_CHECK(swapcontext(uctx, &sched_ctx_) == 0);
  return resume_value_ != 0;
}

size_t BacktrackSession::OnYield(void* mailbox, size_t cap) {
  LW_CHECK_MSG(in_guest_, "sys_yield called outside guest execution");
  // Resume copies up to `cap` bytes into the mailbox and the mailbox read walks
  // that many bytes of the snapshot, so the whole range must be guest memory.
  LW_CHECK_MSG(cap == 0 || arena_.ContainsRange(mailbox, cap),
               "yield mailbox [mailbox, mailbox + cap) must lie in the arena's heap or stack");
  pending_snapshot_ = NewSnapshotShell();  // no guest-stack RAII
  pending_snapshot_->mailbox = static_cast<uint8_t*>(mailbox);
  pending_snapshot_->mailbox_cap = cap;
  ucontext_t* uctx = &pending_snapshot_->uctx;
  event_ = GuestEvent::kYieldPending;
  LW_CHECK(swapcontext(uctx, &sched_ctx_) == 0);
  return static_cast<size_t>(resume_value_);
}

void BacktrackSession::OnNoteSolution() { ++stats_.solutions; }

void BacktrackSession::OnEmit(const void* data, size_t len) {
  if (options_.buffer_output) {
    out_buffer_.append(static_cast<const char*>(data), len);
  } else {
    EmitNow(std::string_view(static_cast<const char*>(data), len));
  }
}

void BacktrackSession::EmitNow(std::string_view text) { options_.output(text); }

// ---------------------------------------------------------------------------
// Checkpoint plumbing.
// ---------------------------------------------------------------------------

Status BacktrackSession::ValidateHandle(const Checkpoint& checkpoint) const {
  if (!checkpoint.valid()) {
    return InvalidArgument("empty checkpoint handle (moved-from or already released)");
  }
  if (checkpoint.ref_->queue != reclaim_) {
    return InvalidArgument("checkpoint handle belongs to a different session");
  }
  return OkStatus();
}

void BacktrackSession::DrainReleasedCheckpoints() {
  for (uint64_t token : reclaim_->Take()) {
    checkpoints_.erase(token);
  }
}

std::vector<Checkpoint> BacktrackSession::TakeNewCheckpoints() {
  DrainReleasedCheckpoints();
  std::vector<uint64_t> tokens;
  tokens.swap(new_checkpoints_);
  std::vector<Checkpoint> out;
  out.reserve(tokens.size());
  for (uint64_t token : tokens) {
    out.push_back(Checkpoint(std::make_shared<const internal::CheckpointRef>(reclaim_, token)));
  }
  return out;
}

Status BacktrackSession::ReadCheckpointMailbox(const Checkpoint& checkpoint, void* out,
                                               size_t len) const {
  LW_RETURN_IF_ERROR(ValidateHandle(checkpoint));
  auto it = checkpoints_.find(checkpoint.id());
  LW_CHECK(it != checkpoints_.end());
  const Snapshot& snap = *it->second;
  if (len > snap.mailbox_cap) {
    return OutOfRange("read exceeds mailbox capacity");
  }
  // Read from the immutable page image, not live memory: the snapshot is the
  // source of truth regardless of what has executed since.
  uint8_t* dst = static_cast<uint8_t*>(out);
  size_t offset = static_cast<size_t>(snap.mailbox - arena_.base());
  size_t remaining = len;
  while (remaining > 0) {
    uint32_t page = static_cast<uint32_t>(offset >> kPageShift);
    size_t in_page = offset & (kPageSize - 1);
    size_t chunk = kPageSize - in_page;
    if (chunk > remaining) {
      chunk = remaining;
    }
    PageRef ref = snap.map.Get(page);
    LW_CHECK(ref.valid());
    ref.ReadBytes(in_page, dst, chunk);
    dst += chunk;
    offset += chunk;
    remaining -= chunk;
  }
  return OkStatus();
}

Status BacktrackSession::ReleaseCheckpoint(Checkpoint& checkpoint) {
  LW_RETURN_IF_ERROR(ValidateHandle(checkpoint));
  // Dropping the last clone queues the token; the drain reclaims it at once.
  checkpoint.ref_.reset();
  DrainReleasedCheckpoints();
  return OkStatus();
}

void BacktrackSession::ReadGuest(const void* guest_ptr, void* out, size_t len) const {
  LW_CHECK(arena_.ContainsRange(guest_ptr, len));
  std::memcpy(out, guest_ptr, len);
}

}  // namespace lw
