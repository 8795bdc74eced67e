// PageMap: the immutable address-space image of a snapshot — a mapping from guest
// page index to PageRef.
//
// The map is a persistent radix tree (PersistentRadixMap) with bounds checks.
// Sharing a snapshot is O(1); a point update copies only the spine; diff skips
// pointer-equal subtrees, so nearby snapshots diff in O(pages that differ · log).
// This is the paper's "space-efficient encoding" of the parent relationship
// (§3.1), and O(spine) release depends on the same structural sharing.
//
// Release: a map that dies or is reassigned drains the spine it uniquely owns
// into one PageStore::ReleaseBatch, so every snapshot, frontier entry and
// engine map pays O(shards touched) lock holds however it is dropped — there
// is no per-ref release path for map-held pages.
//
// Identity: two map entries are equal iff they reference the same blob. Blobs are
// immutable, so pointer equality implies content equality (the converse need not
// hold, which only costs an occasional redundant page copy on restore).

#ifndef LWSNAP_SRC_SNAPSHOT_PAGE_MAP_H_
#define LWSNAP_SRC_SNAPSHOT_PAGE_MAP_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/snapshot/page_store.h"
#include "src/util/radix_map.h"
#include "src/util/status.h"

namespace lw {

class PageMap {
 public:
  PageMap() : PageMap(0) {}

  explicit PageMap(uint32_t num_pages) : num_pages_(num_pages), radix_(num_pages) {}

  // Copying *is* sharing: O(1), the radix root is refcounted. Assignment
  // releases the replaced spine through the batch path.
  PageMap(const PageMap&) = default;
  PageMap(PageMap&&) = default;
  PageMap& operator=(PageMap other) {
    Release();
    num_pages_ = other.num_pages_;
    radix_ = std::move(other.radix_);
    return *this;
  }
  ~PageMap() { Release(); }

  uint32_t num_pages() const { return num_pages_; }

  PageRef Get(uint32_t page) const {
    LW_CHECK(page < num_pages_);
    return radix_.Get(page);
  }

  void Set(uint32_t page, PageRef ref) {
    LW_CHECK(page < num_pages_);
    // Moves through PersistentRadixMap's rvalue Set: the ref lands in the
    // copied spine without an atomic bump/drop pair per page.
    radix_.Set(page, std::move(ref));
  }

  // Moves every ref this map uniquely owns into `*drain` and empties the map.
  // Walks only the owned spine — subtrees shared with sibling snapshots are
  // dropped with one refcount decrement and never descended (returns the
  // radix nodes visited, so callers can assert the O(delta · height) bound).
  size_t ReleaseInto(std::vector<PageRef>* drain) { return radix_.ReleaseInto(drain); }

  // Invokes fn(page, mine, theirs) for every page where the two maps reference
  // different blobs. Both maps must have the same page count.
  template <typename Fn>
  void Diff(const PageMap& other, Fn&& fn) const {
    LW_CHECK(num_pages_ == other.num_pages_);
    radix_.Diff(other.radix_, [&fn](uint32_t page, const PageRef& mine, const PageRef& theirs) {
      fn(page, mine, theirs);
    });
  }

 private:
  // Drains the owned spine into one ReleaseBatch on the refs' store. The
  // drain buffer is per thread and reused by every map that dies on it, so a
  // release storm allocates nothing; maps therefore must not outlive their
  // thread's thread-local storage (none live in static storage).
  void Release() {
    thread_local std::vector<PageRef> drain;
    radix_.ReleaseInto(&drain);
    if (!drain.empty()) {
      drain.front().store()->ReleaseBatch(drain);
    }
  }

  uint32_t num_pages_;
  PersistentRadixMap<PageRef> radix_;
};

}  // namespace lw

#endif  // LWSNAP_SRC_SNAPSHOT_PAGE_MAP_H_
