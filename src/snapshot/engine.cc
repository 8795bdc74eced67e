#include "src/snapshot/engine.h"

#include <algorithm>

#include "src/core/arena.h"

namespace lw {
namespace {

// Hot-page prediction thresholds (kCow): promote after this many consecutive
// dirty snapshots, demote after this many unchanged ones.
constexpr uint8_t kHotPromoteAfter = 4;
constexpr uint8_t kHotDemoteAfter = 16;

}  // namespace

const char* SnapshotModeName(SnapshotMode mode) {
  switch (mode) {
    case SnapshotMode::kCow:
      return "cow";
    case SnapshotMode::kFullCopy:
      return "fullcopy";
    case SnapshotMode::kIncremental:
      return "incremental";
  }
  return "unknown";
}

SnapshotEngine::SnapshotEngine(SnapshotMode mode, const Env& env)
    : mode_(mode),
      env_(env),
      cur_map_(env.arena->num_pages()) {
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
  if (env_.hot_page_limit > 0) {
    hot_.assign(arena.num_pages(), 0);
    dirty_streak_.assign(arena.num_pages(), 0);
    clean_streak_.assign(arena.num_pages(), 0);
    hot_pages_.reserve(env_.hot_page_limit);
  }
  if (mode_ == SnapshotMode::kCow) {
    // Enabling CoW installs the SIGSEGV handler + sigaltstack (first time)
    // and protects everything; if the arena was already in CoW mode,
    // re-establish the protocol invariant explicitly.
    if (arena.cow_enabled()) {
      arena.ProtectAll();
    } else {
      arena.EnableCow();
    }
  } else {
    // No protection, no faults: the arena stays writable for its whole life.
    // These arms list up to every page per checkpoint.
    LW_CHECK_MSG(!arena.cow_enabled(), "fault-free snapshot mode on a CoW-enabled arena");
    dirty_pages_.reserve(arena.num_pages());
  }
}

void SnapshotEngine::PublishHot() {
  GuestArena& arena = *env_.arena;
  SnapshotEngineStats& stats = *env_.stats;
  // Hot pages are permanently writable, so the dirty set does not know about
  // them — memcmp against the current blob and republish only on a real
  // change; a long unchanged streak demotes the page back into the fault
  // protocol.
  size_t hot_kept = 0;
  for (const uint32_t page : hot_pages_) {
    if (!cur_map_.Get(page).EqualsPage(arena.PageAddr(page))) {
      cur_map_.Set(page, PublishPage(arena.PageAddr(page)));
      ++stats.pages_materialized;
      clean_streak_[page] = 0;
      hot_pages_[hot_kept++] = page;
    } else if (++clean_streak_[page] >= kHotDemoteAfter) {
      hot_[page] = 0;
      arena.ProtectRange(page, 1);
      ++stats.hot_demotions;
    } else {
      ++stats.hot_unchanged_skips;
      hot_pages_[hot_kept++] = page;
    }
  }
  hot_pages_.resize(hot_kept);
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

uint64_t SnapshotEngine::CopyBackHot(const Snapshot& snap) {
  uint64_t copied = 0;
  for (const uint32_t page : hot_pages_) {
    const PageRef ref = snap.map.Get(page);
    LW_CHECK_MSG(ref.valid(), "restoring a page the snapshot does not cover");
    copied += ref.CopyToIfDifferent(env_.arena->PageAddr(page)) ? 1 : 0;
  }
  env_.stats->pages_restore_skipped += hot_pages_.size() - copied;
  return copied;
}

void SnapshotEngine::CollectDirty() {
  GuestArena& arena = *env_.arena;
  dirty_pages_.clear();
  switch (mode_) {
    case SnapshotMode::kCow: {
      const DirtyTracker& dirty = arena.dirty();
      // Fault (write-recency) order: publish order becomes the store's LRU
      // order, which a byte budget's compress/spill victims follow.
      dirty_pages_.assign(dirty.pages(), dirty.pages() + dirty.count());
      break;
    }
    case SnapshotMode::kIncremental: {
      // The scan is this mode's dominant cost: reads ∝ arena.
      for (uint32_t page = 0; page < arena.num_pages(); ++page) {
        if (!arena.InGuard(page) && !cur_map_.Get(page).EqualsPage(arena.PageAddr(page))) {
          dirty_pages_.push_back(page);
        }
      }
      env_.stats->incr_pages_scanned += non_guard_pages_;
      env_.stats->incr_pages_copied += dirty_pages_.size();
      break;
    }
    case SnapshotMode::kFullCopy: {
      for (uint32_t page = 0; page < arena.num_pages(); ++page) {
        if (!arena.InGuard(page)) {
          dirty_pages_.push_back(page);
        }
      }
      break;
    }
  }
}

void SnapshotEngine::PublishDirty() {
  GuestArena& arena = *env_.arena;
  for (const uint32_t page : dirty_pages_) {
    if (!arena.InGuard(page)) {
      cur_map_.Set(page, PublishPage(arena.PageAddr(page)));
      ++env_.stats->pages_materialized;
    }
  }
}

void SnapshotEngine::Materialize(Snapshot& snap) {
  if (!hot_pages_.empty()) {
    PublishHot();
  }
  CollectDirty();
  PublishDirty();
  if (mode_ == SnapshotMode::kCow) {
    if (env_.hot_page_limit > 0) {
      PromoteHot();
    }
    // Re-arm the faults for the next checkpoint; hot pages stay writable.
    env_.arena->ReprotectDirty(hot_pages_.empty() ? nullptr : hot_.data());
  }
  snap.map = cur_map_;  // live memory now matches cur_map_ byte-for-byte
}

void SnapshotEngine::Restore(const Snapshot& snap) {
  GuestArena& arena = *env_.arena;
  SnapshotEngineStats& stats = *env_.stats;
  uint64_t restored = 0;
  switch (mode_) {
    case SnapshotMode::kCow: {
      // Hot pages are writable and fault-free, so their live contents are
      // unknowable without a compare. Everything else diverged exactly on the
      // dirty set plus wherever the immutable maps disagree; the two sources
      // are disjoint by construction and hot pages never fault, so the
      // sorted set is unique.
      restored += CopyBackHot(snap);
      DirtyTracker& dirty = arena.dirty();
      restore_pages_.assign(dirty.pages(), dirty.pages() + dirty.count());
      cur_map_.Diff(snap.map, [this, &dirty](uint32_t page, const PageRef& /*mine*/,
                                             const PageRef& /*theirs*/) {
        if (!dirty.IsDirty(page) && !IsHot(page)) {
          restore_pages_.push_back(page);
        }
      });
      std::sort(restore_pages_.begin(), restore_pages_.end());
      restored += RestoreProtectedSet(snap);
      dirty.Clear();
      break;
    }
    case SnapshotMode::kIncremental:
    case SnapshotMode::kFullCopy: {
      // No tracking armed: live memory may have diverged anywhere, so compare
      // against the target map directly and copy the difference. kFullCopy is
      // the whole-arena baseline and copies every page without comparing.
      const bool compare = mode_ == SnapshotMode::kIncremental;
      for (uint32_t page = 0; page < arena.num_pages(); ++page) {
        if (arena.InGuard(page)) {
          continue;
        }
        const PageRef ref = snap.map.Get(page);
        LW_CHECK_MSG(ref.valid(), "restoring a page the snapshot does not cover");
        if (!compare) {
          ref.CopyTo(arena.PageAddr(page));
          ++restored;
        } else if (ref.CopyToIfDifferent(arena.PageAddr(page))) {
          ++restored;
        }
      }
      if (compare) {
        stats.incr_pages_scanned += non_guard_pages_;
      }
      break;
    }
  }
  restore_pages_.clear();
  cur_map_ = snap.map;
  stats.pages_restored += restored;
}

uint64_t SnapshotEngine::RestoreProtectedSet(const Snapshot& snap) {
  const size_t count = restore_pages_.size();
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
  for (uint32_t page : restore_pages_) {
    const PageRef ref = snap.map.Get(page);
    LW_CHECK_MSG(ref.valid(), "restoring a page the snapshot does not cover");
    ref.CopyTo(arena.PageAddr(page));
  }
  for (const auto& run : restore_runs_) arena.ProtectRange(run.first, run.second);

  env_.stats->restore_mprotect_calls += 2 * restore_runs_.size();
  env_.stats->restore_runs_coalesced += restore_runs_.size();
  return count;
}

}  // namespace lw
