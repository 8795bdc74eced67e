// SnapshotEngine: the snapshot substrate behind BacktrackSession.
//
// The paper's thesis is that lightweight snapshot/restore is a *system-level
// service* shared by many search workloads; the session (search orchestration:
// guess/fail/yield, strategies, checkpoints) and the snapshot mechanics (how an
// address-space image is captured and reinstated) are separate concerns. This
// class is the seam: the session drives the search graph and calls the engine
// exactly twice per extension — Materialize at a guess point, Restore before
// resuming a sibling — plus a byte-budget hook after each guess.
//
// There is one engine with three pinned arms. SnapshotMode picks how the
// engine discovers the pages that changed since the last checkpoint, and each
// arm of Materialize/Restore is one mode:
//   * kCow         — page-granular copy-on-write via mprotect/SIGSEGV write
//                    faults (the paper's design; the host MMU stands in for
//                    Dune's nested pages). Publishes in fault order and runs
//                    hot-page prediction: a page dirtied in enough consecutive
//                    snapshots is left writable and compared/copied eagerly
//                    instead of taking the SIGSEGV + 2×mprotect round trip; a
//                    long unchanged streak demotes it.
//   * kIncremental — memcmp every non-guard page against the current map: no
//                    mprotect traffic and no faults at all; reads ∝ arena,
//                    copies ∝ delta.
//   * kFullCopy    — no detection: republish the whole arena [libckpt], the
//                    baseline the paper argues against.
//
// Current-map invariant: immediately after any Materialize or Restore, the
// current map is byte-identical to live arena memory (guard pages excluded).
// kCow re-protects the dirty set at the end of each Materialize (hot pages
// stay writable); the fault-free modes have nothing to re-arm, because their
// compare/copy IS the detection.
//
// Threading: the engine runs on the session's thread. Every publish, scan and
// restore copy is a plain loop in the order the mode defines (kCow publishes
// in fault order, which becomes the store's LRU order); parallelism comes
// from many sessions sharing one store (ServicePool, CheckpointDaemon).
//
// SIGSEGV-protocol invariant: only kCow ever write-protects guest pages —
// NeedsSignalProtocol() — and the process-wide SIGSEGV handler plus
// per-thread sigaltstacks are installed lazily by GuestArena::EnableCow().
// Constructing an arena or running a fault-free mode leaves the process signal
// disposition untouched; sessions gate EnsureThreadSignalStack on
// NeedsSignalProtocol().

#ifndef LWSNAP_SRC_SNAPSHOT_ENGINE_H_
#define LWSNAP_SRC_SNAPSHOT_ENGINE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/search_graph.h"
#include "src/snapshot/page_map.h"
#include "src/snapshot/page_store.h"

namespace lw {

class GuestArena;

enum class SnapshotMode {
  kCow,          // write faults + hot pages
  kFullCopy,     // whole-arena republish
  kIncremental,  // content scan
};

const char* SnapshotModeName(SnapshotMode mode);

// Counters owned by the snapshot engine. SessionStats inherits these so the
// session's stats block reports engine behaviour alongside search behaviour.
// Store-wide counters (dedup, compression, release batches, spill) are not
// mirrored here: read them from PageStore::stats(), which stays correct when
// several sessions share one store.
struct SnapshotEngineStats {
  uint64_t pages_materialized = 0;
  uint64_t pages_restored = 0;
  uint64_t hot_promotions = 0;
  uint64_t hot_demotions = 0;
  uint64_t hot_unchanged_skips = 0;  // hot pages found byte-identical at snapshot
  uint64_t incr_pages_scanned = 0;  // scan/compare passes: pages memcmp'd
  uint64_t incr_pages_copied = 0;   // kIncremental: pages actually copied
  // Restore-side provenance: syscall coalescing and skip accounting, so tests
  // and benches can assert the mprotect reduction instead of inferring it
  // from timings. Only kCow issues restore-side mprotect
  // calls, and every restore costs exactly two calls per coalesced run
  // (batch-unprotect + batch-reprotect), so
  // restore_mprotect_calls == 2 × restore_runs_coalesced by construction.
  uint64_t restore_mprotect_calls = 0;  // mprotect syscalls issued by restores
  uint64_t restore_runs_coalesced = 0;  // contiguous page runs those calls covered
  // CoW hot pages memcmp'd at restore and found already byte-identical —
  // copies saved. Whole-arena compare loops (kIncremental restores) are not
  // counted here; incr_pages_scanned covers those.
  uint64_t pages_restore_skipped = 0;
  uint64_t snapshot_ns = 0;
  uint64_t restore_ns = 0;
};

class SnapshotEngine {
 public:
  // Everything the engine is allowed to touch. The arena is the live guest
  // memory (and the protection/dirty machinery); the store is where immutable
  // page blobs live — possibly shared with other sessions' engines; stats is
  // the shared counter block. `owner` tags this engine's publishes so the
  // store can attribute cross-session dedup hits.
  struct Env {
    GuestArena* arena = nullptr;
    PageStore* store = nullptr;
    SnapshotEngineStats* stats = nullptr;
    uint32_t hot_page_limit = 0;  // kCow only; every other mode ignores it
    uint32_t owner = 0;           // PageStore owner id (see PageStore::RegisterOwner)
  };

  // Establishes the mode's arena invariant (protection state, initial current
  // map). Call before any guest code runs in the arena.
  SnapshotEngine(SnapshotMode mode, const Env& env);

  SnapshotEngine(const SnapshotEngine&) = delete;
  SnapshotEngine& operator=(const SnapshotEngine&) = delete;

  SnapshotMode mode() const { return mode_; }

  // Captures the live arena image into snap.map (sharing the current map; the
  // snapshot becomes immutable from this point on). Called with the guest
  // parked, so the page image exactly matches the saved registers.
  void Materialize(Snapshot& snap);

  // Rebuilds live arena memory to byte-equality with snap.map and adopts it as
  // the current map.
  void Restore(const Snapshot& snap);

  // True iff this mode may write-protect guest pages (see the invariant note
  // at the top of this file).
  bool NeedsSignalProtocol() const { return mode_ == SnapshotMode::kCow; }

  const PageMap& current_map() const { return cur_map_; }
  size_t hot_page_count() const { return hot_pages_.size(); }

 private:
  // Publishes one live page through the store with this engine's owner tag
  // (the single choke point for dedup accounting).
  PageRef PublishPage(const void* src) { return env_.store->Publish(src, env_.owner); }

  // kCow hot pages at Materialize: republish the changed ones, demote long
  // unchanged streaks back into the fault protocol.
  void PublishHot();
  // kCow: bump dirty streaks in fault order and promote persistent writers.
  void PromoteHot();
  bool IsHot(uint32_t page) const { return !hot_.empty() && hot_[page] != 0; }

  // Collects the mode's dirty candidates into dirty_pages_ (may
  // overapproximate the changed set).
  void CollectDirty();
  // Publishes dirty_pages_ into cur_map_.
  void PublishDirty();

  // kCow restore of the hot pages, whose live bytes are unknown because they
  // never fault: compare each against snap's blob and copy only on divergence;
  // the rest count as restore skips. Returns the pages copied.
  uint64_t CopyBackHot(const Snapshot& snap);
  // kCow restore tail. The caller fills restore_pages_ (sorted, unique,
  // non-guard); this coalesces the pages into contiguous runs,
  // batch-unprotects each run with one mprotect, copies each page from snap's
  // blob, then batch-reprotects the same runs — exactly 2 syscalls per run,
  // and no copy ever takes a write fault. Returns the number of pages copied.
  uint64_t RestoreProtectedSet(const Snapshot& snap);

  const SnapshotMode mode_;
  Env env_;
  PageMap cur_map_;
  uint32_t non_guard_pages_ = 0;

  // kCow hot-page prediction (allocated only when hot_page_limit > 0).
  std::vector<uint8_t> hot_;           // page -> currently hot
  std::vector<uint8_t> dirty_streak_;  // page -> saturating dirty-snapshot count
  std::vector<uint8_t> clean_streak_;  // hot page -> consecutive unchanged snapshots
  std::vector<uint32_t> hot_pages_;    // dense list of hot pages

  // Reusable scratch, kept as members so checkpoint-heavy workloads stop
  // paying per-call allocation.
  std::vector<uint32_t> dirty_pages_;  // candidates for the current checkpoint
  std::vector<uint32_t> restore_pages_;
  std::vector<std::pair<uint32_t, uint32_t>> restore_runs_;  // (first page, count)
};

}  // namespace lw

#endif  // LWSNAP_SRC_SNAPSHOT_ENGINE_H_
