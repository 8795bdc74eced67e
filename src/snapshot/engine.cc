#include "src/snapshot/engine.h"

#include <algorithm>

#include "src/core/arena.h"
#include "src/snapshot/parallel_materializer.h"
#include "src/snapshot/soft_dirty.h"

namespace lw {
namespace {

// Unit costs (ns) calibrated against the measured E12 ablation grid (DESIGN.md
// has the table; examples/engine_ablation.cpp reproduces it). These are
// *relative weights* steering kAdaptive's selection, not absolute predictions
// — what matters is the crossover ordering. Measured on the reference dev host:
//   * a changed page through the faults path (SIGSEGV + mark + 2×mprotect +
//     hash/copy publish) costs ~1.9 µs end to end (CoW rows: 980 µs / 505
//     dirty pages);
//   * a changed page through a scan/pagemap path costs ~1.7 µs — almost the
//     same, because the hash + 4 KiB copy publish dominates, not the fault;
//   * an *unchanged* page costs ~90 ns to scan (memcmp against the map blob)
//     but only ~0.5 µs to republish in full mode (content dedup turns it into
//     hash + index hit, no blob copy) — which is why scan rarely beats the
//     faults/full envelope on this hardware;
//   * a pagemap entry is an 8-byte slot of a chunked pread (~4 ns/page), with
//     a fixed clear_refs process walk per checkpoint (unverified locally —
//     this host lacks soft-dirty; the 40 µs figure is the write cost of the
//     clear_refs walk on the E12 reference numbers, to be recalibrated on a
//     capable host).
constexpr double kFaultPageNs = 1900.0;        // fault + reprotect + publish, per changed page
constexpr double kChangedPublishNs = 1700.0;   // hash + blob alloc + 4 KiB copy
constexpr double kScanNs = 90.0;               // 4 KiB memcmp, per arena page
constexpr double kFullPublishNs = 510.0;       // republish per arena page (mostly dedup hits)
constexpr double kPagemapNs = 4.0;             // one 8-byte pagemap entry (chunked pread)
constexpr double kSoftDirtyFixedNs = 40000.0;  // clear_refs process walk, per snapshot

// A challenger mechanism must beat the incumbent by this margin — re-arming
// has real cost (ProtectAll / clear_refs) and flapping helps nobody.
constexpr double kHysteresis = 0.15;

// Hot-page prediction thresholds (kCow): promote after this many consecutive
// dirty snapshots, demote after this many unchanged ones.
constexpr uint8_t kHotPromoteAfter = 4;
constexpr uint8_t kHotDemoteAfter = 16;

// The mechanism each mode starts in. kAdaptive opens in faults too: a fresh
// arena is a demand-zero mmap, and a scan probe would minor-fault every
// untouched page just to memcmp it (~0.7 µs/page — 11.5 ms measured for a
// 64 MiB arena), while the CoW protocol starts with an exact delta and
// touches nothing the guest didn't.
DirtySource InitialMechanism(SnapshotMode mode) {
  switch (mode) {
    case SnapshotMode::kFullCopy:
      return DirtySource::kFull;
    case SnapshotMode::kIncremental:
      return DirtySource::kScan;
    case SnapshotMode::kSoftDirty:
      return DirtySource::kKernelPagemap;
    case SnapshotMode::kCow:
    case SnapshotMode::kAdaptive:
      break;
  }
  return DirtySource::kFaults;
}

}  // namespace

const char* SnapshotModeName(SnapshotMode mode) {
  switch (mode) {
    case SnapshotMode::kCow:
      return "cow";
    case SnapshotMode::kFullCopy:
      return "fullcopy";
    case SnapshotMode::kIncremental:
      return "incremental";
    case SnapshotMode::kSoftDirty:
      return "softdirty";
    case SnapshotMode::kAdaptive:
      return "adaptive";
  }
  return "unknown";
}

const char* DirtySourceName(DirtySource source) {
  switch (source) {
    case DirtySource::kFaults:
      return "faults";
    case DirtySource::kScan:
      return "scan";
    case DirtySource::kKernelPagemap:
      return "kernel-pagemap";
    case DirtySource::kFull:
      return "full";
  }
  return "unknown";
}

SnapshotEngine::SnapshotEngine(SnapshotMode mode, const Env& env)
    : mode_(mode),
      env_(env),
      cur_map_(env.arena->num_pages()),
      mech_(InitialMechanism(mode)) {
  LW_CHECK(env_.arena != nullptr && env_.store != nullptr && env_.stats != nullptr);
  GuestArena& arena = *env_.arena;
  if (mode_ != SnapshotMode::kCow) {
    env_.hot_page_limit = 0;  // hot-page prediction is a kCow feature
  }
  // The arena is freshly mmap'd (all-zero), so the canonical zero blob is a
  // truthful image of every non-guard page: the first Materialize only copies
  // what the guest actually touched. Guard pages stay invalid refs (never
  // dirtied, never restored).
  PageRef zero = env_.store->ZeroPage();
  for (uint32_t page = 0; page < arena.num_pages(); ++page) {
    if (!arena.InGuard(page)) {
      cur_map_.Set(page, zero);
      ++non_guard_pages_;
    }
  }
  // kAdaptive lists the pagemap mechanism only where the kernel supports it;
  // everywhere else the selector simply never sees it.
  if (mode_ == SnapshotMode::kSoftDirty ||
      (mode_ == SnapshotMode::kAdaptive && SoftDirtyTracker::Supported())) {
    tracker_ = std::make_unique<SoftDirtyTracker>(arena.base(), arena.num_pages());
  }
  if (env_.hot_page_limit > 0) {
    hot_.assign(arena.num_pages(), 0);
    dirty_streak_.assign(arena.num_pages(), 0);
    clean_streak_.assign(arena.num_pages(), 0);
    hot_pages_.reserve(env_.hot_page_limit);
  }
  switch (mech_) {
    case DirtySource::kFaults:
      // Enabling CoW installs the SIGSEGV handler + sigaltstack (first time)
      // and protects everything; if the arena was already in CoW mode,
      // re-establish the protocol invariant explicitly.
      if (arena.cow_enabled()) {
        arena.ProtectAll();
      } else {
        arena.SetCowEnabled(true);
      }
      break;
    case DirtySource::kKernelPagemap: {
      arena.SetCowEnabled(false);
      // Start the first tracking interval now: anything written before the
      // first Materialize is harvested there.
      Status status = tracker_->DiscardAndClear();
      LW_CHECK_MSG(status.ok(), "soft-dirty initial clear failed");
      break;
    }
    case DirtySource::kScan:
    case DirtySource::kFull:
      // No protection, no faults: the arena stays writable for its whole
      // life. These arms list up to every page per checkpoint.
      arena.SetCowEnabled(false);
      dirty_pages_.reserve(arena.num_pages());
      break;
  }
}

SnapshotEngine::~SnapshotEngine() {
  std::vector<PageRef> drain;
  cur_map_.ReleaseInto(&drain);
  env_.store->ReleaseBatch(drain);
}

void SnapshotEngine::RunSlots(const EngineContext& ctx, size_t count,
                              const std::function<Status(size_t)>& fn) {
  if (ctx.parallel == nullptr) {
    for (size_t slot = 0; slot < count; ++slot) {
      Status status = fn(slot);
      LW_CHECK_MSG(status.ok(), "engine slot work failed");
    }
    return;
  }
  Status status = ctx.parallel->Run(count, fn);
  LW_CHECK_MSG(status.ok(), "engine slot fan-out failed");
}

void SnapshotEngine::PublishHot(const EngineContext& ctx) {
  GuestArena& arena = *env_.arena;
  SnapshotEngineStats& stats = *env_.stats;
  // Hot pages are permanently writable, so the dirty set does not know about
  // them — memcmp against the current blob and republish only on a real
  // change (slot work); streaks, demotions and every mprotect are applied
  // serially afterwards.
  publish_refs_.resize(hot_pages_.size());
  RunSlots(ctx, hot_pages_.size(), [this, &arena](size_t slot) {
    const uint32_t page = hot_pages_[slot];
    if (!cur_map_.Get(page).EqualsPage(arena.PageAddr(page))) {
      publish_refs_[slot] = PublishPage(arena.PageAddr(page));
    }
    return OkStatus();
  });
  size_t hot_kept = 0;
  for (size_t slot = 0; slot < hot_pages_.size(); ++slot) {
    const uint32_t page = hot_pages_[slot];
    if (publish_refs_[slot].valid()) {
      cur_map_.Set(page, std::move(publish_refs_[slot]));
      ++stats.pages_materialized;
      clean_streak_[page] = 0;
      hot_pages_[hot_kept++] = page;
    } else if (++clean_streak_[page] >= kHotDemoteAfter) {
      hot_[page] = 0;
      arena.ProtectPage(page);
      ++stats.hot_demotions;
    } else {
      ++stats.hot_unchanged_skips;
      hot_pages_[hot_kept++] = page;
    }
  }
  hot_pages_.resize(hot_kept);
  publish_refs_.clear();
}

void SnapshotEngine::PromoteHot() {
  // Fault order, not page order: when the limit binds, the pages that faulted
  // first win the free slots.
  const DirtyTracker& dirty = env_.arena->dirty();
  for (uint32_t i = 0; i < dirty.count(); ++i) {
    const uint32_t page = dirty.pages()[i];
    if (dirty_streak_[page] < 255) {
      ++dirty_streak_[page];
    }
    if (dirty_streak_[page] >= kHotPromoteAfter && hot_[page] == 0 &&
        hot_pages_.size() < env_.hot_page_limit) {
      hot_[page] = 1;
      clean_streak_[page] = 0;
      hot_pages_.push_back(page);
      ++env_.stats->hot_promotions;
    }
  }
}

uint64_t SnapshotEngine::CopyBackChanged(const std::vector<uint32_t>& pages, const Snapshot& snap,
                                         const EngineContext& ctx) {
  restore_refs_.resize(pages.size());
  for (size_t slot = 0; slot < pages.size(); ++slot) {
    restore_refs_[slot] = snap.map.Get(pages[slot]);
    LW_CHECK_MSG(restore_refs_[slot].valid(), "restoring a page the snapshot does not cover");
  }
  restore_flags_.assign(pages.size(), 0);
  RunSlots(ctx, pages.size(), [this, &pages](size_t slot) {
    if (restore_refs_[slot].CopyToIfDifferent(env_.arena->PageAddr(pages[slot]))) {
      restore_flags_[slot] = 1;
    }
    return OkStatus();
  });
  restore_refs_.clear();
  const uint64_t copied = std::count(restore_flags_.begin(), restore_flags_.end(), 1);
  env_.stats->pages_restore_skipped += pages.size() - copied;
  return copied;
}

void SnapshotEngine::CollectDirty(const EngineContext& ctx) {
  GuestArena& arena = *env_.arena;
  dirty_pages_.clear();
  switch (mech_) {
    case DirtySource::kFaults: {
      const DirtyTracker& dirty = arena.dirty();
      dirty_pages_.assign(dirty.pages(), dirty.pages() + dirty.count());
      // Publish order becomes the store's LRU order, which a byte budget's
      // compress/spill victims follow, so it is part of each mode's counter
      // behaviour: kCow publishes in fault (write-recency) order, kAdaptive
      // in page order.
      if (mode_ == SnapshotMode::kAdaptive) {
        std::sort(dirty_pages_.begin(), dirty_pages_.end());
      }
      break;
    }
    case DirtySource::kScan: {
      // The scan is this mechanism's dominant cost (reads ∝ arena), so it
      // fans out; each slot flags only its own page.
      scan_changed_.resize(arena.num_pages(), 0);
      RunSlots(ctx, arena.num_pages(), [this, &arena](size_t slot) {
        const uint32_t page = static_cast<uint32_t>(slot);
        if (!arena.InGuard(page) && !cur_map_.Get(page).EqualsPage(arena.PageAddr(page))) {
          scan_changed_[page] = 1;
        }
        return OkStatus();
      });
      for (uint32_t page = 0; page < arena.num_pages(); ++page) {
        if (scan_changed_[page] != 0) {
          scan_changed_[page] = 0;
          dirty_pages_.push_back(page);
        }
      }
      env_.stats->incr_pages_scanned += non_guard_pages_;
      break;
    }
    case DirtySource::kKernelPagemap: {
      // Soft-dirty flags *writes*, not *changes*: a page rewritten with
      // identical bytes is still harvested, and the content-addressed store
      // collapses its publish back to the existing blob.
      Status status = tracker_->HarvestAndClear(dirty_pages_);
      LW_CHECK_MSG(status.ok(), "soft-dirty harvest failed");
      break;
    }
    case DirtySource::kFull: {
      for (uint32_t page = 0; page < arena.num_pages(); ++page) {
        if (!arena.InGuard(page)) {
          dirty_pages_.push_back(page);
        }
      }
      break;
    }
  }
}

uint64_t SnapshotEngine::PublishDirty(const EngineContext& ctx) {
  GuestArena& arena = *env_.arena;
  publish_refs_.resize(dirty_pages_.size());
  RunSlots(ctx, dirty_pages_.size(), [this, &arena](size_t slot) {
    const uint32_t page = dirty_pages_[slot];
    if (!arena.InGuard(page)) {
      publish_refs_[slot] = PublishPage(arena.PageAddr(page));
    }
    return OkStatus();
  });
  // Adoption is serial, in candidate order. Content dedup in the store makes
  // a rewritten-but-identical page publish back to the existing blob, so blob
  // pointer inequality is an exact "bytes changed" signal — that count (not
  // the possibly overapproximate candidate list) feeds the dirty-rate model.
  uint64_t changed = 0;
  for (size_t slot = 0; slot < dirty_pages_.size(); ++slot) {
    if (!publish_refs_[slot].valid()) {
      continue;
    }
    const uint32_t page = dirty_pages_[slot];
    if (cur_map_.Get(page) != publish_refs_[slot]) {
      ++changed;
    }
    cur_map_.Set(page, std::move(publish_refs_[slot]));
    ++env_.stats->pages_materialized;
  }
  publish_refs_.clear();
  return changed;
}

DirtySource SnapshotEngine::SelectMechanism() const {
  // Charge every mechanism's model with the burst-safe dirty estimate. The
  // inputs are counts, the weights are constants — never wall-clock — so two
  // engines that observed the same guest writes switch identically, serial or
  // parallel.
  const double est = std::max(d_hat_, static_cast<double>(last_delta_));
  const double pages = static_cast<double>(non_guard_pages_);
  const DirtySource order[] = {DirtySource::kFaults, DirtySource::kScan,
                               DirtySource::kKernelPagemap, DirtySource::kFull};
  const double costs[] = {
      est * kFaultPageNs,
      pages * kScanNs + est * kChangedPublishNs,
      tracker_ != nullptr ? kSoftDirtyFixedNs + pages * kPagemapNs + est * kChangedPublishNs
                          : -1.0,  // unavailable
      pages * kFullPublishNs,
  };
  DirtySource best = mech_;
  double best_cost = -1.0;
  double cur_cost = -1.0;
  for (int i = 0; i < 4; ++i) {
    if (costs[i] < 0) {
      continue;
    }
    if (order[i] == mech_) {
      cur_cost = costs[i];
    }
    if (best_cost < 0 || costs[i] < best_cost) {
      best = order[i];
      best_cost = costs[i];
    }
  }
  return best_cost < cur_cost * (1.0 - kHysteresis) ? best : mech_;
}

void SnapshotEngine::Arm(DirtySource next) {
  GuestArena& arena = *env_.arena;
  if (next == mech_) {
    // Incumbent stays; keep its tracking armed.
    if (mech_ == DirtySource::kFaults) {
      if (hot_pages_.empty()) {
        arena.ReprotectDirty();
      } else {
        arena.ReprotectDirtyExcept(hot_.data());
      }
    }
    return;
  }
  if (mech_ == DirtySource::kFaults) {
    arena.SetCowEnabled(false);
  }
  switch (next) {
    case DirtySource::kFaults:
      arena.SetCowEnabled(true);  // installs handler on first use; ProtectAll
      break;
    case DirtySource::kKernelPagemap: {
      Status status = tracker_->DiscardAndClear();  // fresh soft-dirty interval
      LW_CHECK_MSG(status.ok(), "soft-dirty clear failed");
      break;
    }
    case DirtySource::kScan:
    case DirtySource::kFull:
      break;  // the compare/copy IS the detection; nothing to arm
  }
  mech_ = next;
  ++env_.stats->adaptive_switches;
}

void SnapshotEngine::Materialize(Snapshot& snap, const EngineContext& ctx) {
  SnapshotEngineStats& stats = *env_.stats;
  const DirtySource used = mech_;
  if (!hot_pages_.empty()) {
    PublishHot(ctx);
  }
  CollectDirty(ctx);
  const uint64_t changed = PublishDirty(ctx);
  if (used == DirtySource::kFaults && env_.hot_page_limit > 0) {
    PromoteHot();
  }

  stats.dirty_source = used;
  switch (used) {
    case DirtySource::kFaults:
      ++stats.materializes_by_faults;
      break;
    case DirtySource::kScan:
      ++stats.materializes_by_scan;
      stats.incr_pages_copied += dirty_pages_.size();
      break;
    case DirtySource::kKernelPagemap:
      ++stats.materializes_by_pagemap;
      break;
    case DirtySource::kFull:
      ++stats.materializes_by_full;
      break;
  }
  MirrorTrackerStats();

  DirtySource next = used;
  if (mode_ == SnapshotMode::kAdaptive) {
    // Update the dirty-rate estimate from the exact change count, then re-pick.
    last_delta_ = changed;
    d_hat_ = d_hat_ < 0 ? static_cast<double>(changed)
                        : d_hat_ + (static_cast<double>(changed) - d_hat_) / 4.0;
    next = SelectMechanism();
  }
  Arm(next);

  snap.map = cur_map_;  // live memory now matches cur_map_ byte-for-byte
}

void SnapshotEngine::Restore(const Snapshot& snap, const EngineContext& ctx) {
  GuestArena& arena = *env_.arena;
  SnapshotEngineStats& stats = *env_.stats;
  uint64_t restored = 0;
  switch (mech_) {
    case DirtySource::kFaults: {
      // Hot pages are writable and fault-free, so their live contents are
      // unknowable without a compare. Everything else diverged exactly on the
      // dirty set plus wherever the immutable maps disagree; the two sources
      // are disjoint by construction and hot pages never fault, so the
      // sorted set is unique.
      restored += CopyBackChanged(hot_pages_, snap, ctx);
      DirtyTracker& dirty = arena.dirty();
      restore_pages_.assign(dirty.pages(), dirty.pages() + dirty.count());
      cur_map_.Diff(snap.map, [this, &dirty](uint32_t page, const PageRef& /*mine*/,
                                             const PageRef& /*theirs*/) {
        if (!dirty.IsDirty(page) && !IsHot(page)) {
          restore_pages_.push_back(page);
        }
      });
      std::sort(restore_pages_.begin(), restore_pages_.end());
      restore_refs_.resize(restore_pages_.size());
      for (size_t i = 0; i < restore_pages_.size(); ++i) {
        restore_refs_[i] = snap.map.Get(restore_pages_[i]);
        LW_CHECK_MSG(restore_refs_[i].valid(), "restoring a page the snapshot does not cover");
      }
      restored += RestoreProtectedSet(ctx);
      dirty.Clear();
      break;
    }
    case DirtySource::kKernelPagemap: {
      // Pending soft-dirty bits say where the guest wrote (copy back only on
      // divergence); the map diff says where the tree path changed (ref
      // inequality implies byte inequality, so copy unconditionally); the
      // restore's own copies are discarded from the next interval. The arena
      // is fully writable, so both copy loops fan out.
      Status status = tracker_->Harvest(dirty_pages_);
      LW_CHECK_MSG(status.ok(), "soft-dirty harvest failed");
      restore_pages_.clear();
      for (uint32_t page : dirty_pages_) {
        if (!arena.InGuard(page)) {
          restore_pages_.push_back(page);
        }
      }
      restored += CopyBackChanged(restore_pages_, snap, ctx);
      restore_pages_.clear();
      cur_map_.Diff(snap.map,
                    [this](uint32_t page, const PageRef& /*mine*/, const PageRef& theirs) {
                      if (std::binary_search(dirty_pages_.begin(), dirty_pages_.end(), page)) {
                        return;
                      }
                      LW_CHECK_MSG(theirs.valid(), "restoring a page the snapshot does not cover");
                      restore_pages_.push_back(page);
                      restore_refs_.push_back(theirs);
                    });
      RunSlots(ctx, restore_pages_.size(), [this, &arena](size_t slot) {
        restore_refs_[slot].CopyTo(arena.PageAddr(restore_pages_[slot]));
        return OkStatus();
      });
      restored += restore_pages_.size();
      status = tracker_->DiscardAndClear();
      LW_CHECK_MSG(status.ok(), "soft-dirty clear failed");
      break;
    }
    case DirtySource::kScan:
    case DirtySource::kFull: {
      // No tracking armed: live memory may have diverged anywhere, so compare
      // against the target map directly and copy the difference — slot ==
      // page. kFullCopy is the whole-arena baseline and copies every page
      // without comparing.
      const bool compare = mode_ != SnapshotMode::kFullCopy;
      restore_flags_.assign(arena.num_pages(), 0);
      RunSlots(ctx, arena.num_pages(), [this, &arena, &snap, compare](size_t slot) {
        const uint32_t page = static_cast<uint32_t>(slot);
        if (arena.InGuard(page)) {
          return OkStatus();
        }
        const PageRef ref = snap.map.Get(page);
        LW_CHECK_MSG(ref.valid(), "restoring a page the snapshot does not cover");
        if (!compare) {
          ref.CopyTo(arena.PageAddr(page));
          restore_flags_[page] = 1;
        } else if (ref.CopyToIfDifferent(arena.PageAddr(page))) {
          restore_flags_[page] = 1;
        }
        return OkStatus();
      });
      for (uint8_t flag : restore_flags_) {
        restored += flag;
      }
      if (compare) {
        stats.incr_pages_scanned += non_guard_pages_;
      }
      break;
    }
  }
  restore_pages_.clear();
  restore_refs_.clear();
  cur_map_ = snap.map;
  stats.pages_restored += restored;
  MirrorTrackerStats();
}

uint64_t SnapshotEngine::RestoreProtectedSet(const EngineContext& ctx) {
  const size_t count = restore_pages_.size();
  LW_CHECK(restore_refs_.size() == count);
  if (count == 0) return 0;
  // Coalesce the sorted page set into contiguous runs. Guard pages never enter
  // restore sets, so a run can never span the arena guard.
  restore_runs_.clear();
  uint32_t run_start = restore_pages_[0];
  uint32_t run_len = 1;
  for (size_t i = 1; i < count; ++i) {
    LW_CHECK_MSG(restore_pages_[i] > restore_pages_[i - 1], "restore set not sorted/unique");
    if (restore_pages_[i] == run_start + run_len) {
      ++run_len;
    } else {
      restore_runs_.emplace_back(run_start, run_len);
      run_start = restore_pages_[i];
      run_len = 1;
    }
  }
  restore_runs_.emplace_back(run_start, run_len);

  GuestArena& arena = *env_.arena;
  for (const auto& run : restore_runs_) arena.UnprotectRange(run.first, run.second);
  RunSlots(ctx, count, [this, &arena](size_t slot) {
    restore_refs_[slot].CopyTo(arena.PageAddr(restore_pages_[slot]));
    return OkStatus();
  });
  for (const auto& run : restore_runs_) arena.ProtectRange(run.first, run.second);

  env_.stats->restore_mprotect_calls += 2 * restore_runs_.size();
  env_.stats->restore_runs_coalesced += restore_runs_.size();
  return count;
}

size_t SnapshotEngine::StructureBytes() const {
  size_t bytes = cur_map_.StructureBytes() + hot_.capacity() + dirty_streak_.capacity() +
                 clean_streak_.capacity() + hot_pages_.capacity() * sizeof(uint32_t) +
                 dirty_pages_.capacity() * sizeof(uint32_t) + scan_changed_.capacity() +
                 publish_refs_.capacity() * sizeof(PageRef) +
                 restore_pages_.capacity() * sizeof(uint32_t) +
                 restore_refs_.capacity() * sizeof(PageRef) + restore_flags_.capacity() +
                 restore_runs_.capacity() * sizeof(std::pair<uint32_t, uint32_t>);
  if (tracker_ != nullptr) {
    bytes += ((tracker_->num_pages() + 63) / 64) * sizeof(uint64_t);
  }
  return bytes;
}

void SnapshotEngine::MirrorTrackerStats() {
  if (tracker_ != nullptr) {
    env_.stats->pagemap_entries_read = tracker_->pagemap_entries_read();
    env_.stats->soft_dirty_clears = tracker_->clear_refs_writes();
  }
}

std::unique_ptr<SnapshotEngine> MakeSnapshotEngine(SnapshotMode mode,
                                                   const SnapshotEngine::Env& env) {
  return std::make_unique<SnapshotEngine>(mode, env);
}

}  // namespace lw
