// PageMap: the immutable address-space image of a snapshot — a mapping from guest
// page index to PageRef.
//
// The map is a persistent radix tree (PersistentRadixMap) with bounds checks.
// Sharing a snapshot is O(1); a point update copies only the spine; diff skips
// pointer-equal subtrees, so nearby snapshots diff in O(pages that differ · log).
// This is the paper's "space-efficient encoding" of the parent relationship
// (§3.1), and O(spine) release depends on the same structural sharing.
//
// Identity: two map entries are equal iff they reference the same blob. Blobs are
// immutable, so pointer equality implies content equality (the converse need not
// hold, which only costs an occasional redundant page copy on restore).

#ifndef LWSNAP_SRC_SNAPSHOT_PAGE_MAP_H_
#define LWSNAP_SRC_SNAPSHOT_PAGE_MAP_H_

#include <cstdint>
#include <vector>

#include "src/snapshot/page_store.h"
#include "src/util/radix_map.h"
#include "src/util/status.h"

namespace lw {

class PageMap {
 public:
  PageMap() : PageMap(0) {}

  explicit PageMap(uint32_t num_pages) : num_pages_(num_pages), radix_(num_pages) {}

  // Copying *is* sharing: O(1), the radix root is refcounted.
  PageMap(const PageMap&) = default;
  PageMap& operator=(const PageMap&) = default;
  PageMap(PageMap&&) = default;
  PageMap& operator=(PageMap&&) = default;

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

  // Explicit release: moves every ref this map uniquely owns into `*drain`
  // and empties the map, for batch-grained reclamation via
  // PageStore::ReleaseBatch. Walks only the owned spine — subtrees shared
  // with sibling snapshots are dropped with one refcount decrement and never
  // descended (returns the radix nodes visited, so callers can assert the
  // O(delta · height) bound).
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

  // Approximate host bytes consumed by this map's own structure (excluding blobs,
  // and counting radix nodes shared with other maps once per map).
  size_t StructureBytes() const { return radix_.CountNodes() * kFanoutNodeBytes; }

 private:
  static constexpr size_t kFanoutNodeBytes =
      PersistentRadixMap<PageRef>::kFanout * (sizeof(void*) * 2 + sizeof(PageRef));

  uint32_t num_pages_;
  PersistentRadixMap<PageRef> radix_;
};

}  // namespace lw

#endif  // LWSNAP_SRC_SNAPSHOT_PAGE_MAP_H_
