// The search graph of §3.1: partial candidates (immutable snapshots) are the
// vertices; candidate extension steps are the directed edges.
//
// A Snapshot is its immutable address-space image (a PageMap of refcounted
// page blobs) plus scheduler bookkeeping (id, depth, the register file's
// address, the checkpoint mailbox). The image holds all guest state: the
// register file (the ucontext the guest saved on its own stack at the guess
// point; the paper's "%rax return" is our resume_value delivered on restore)
// and every structure in the guest heap, the interposed filesystem and the
// buffered output included.
//
// Lifetime is reference-counted: a snapshot lives while something that can
// restore it holds it (an unevaluated extension, a parked checkpoint, the
// pending scope, or the execution restored from it); a child needs nothing
// from its parent, whose relationship is the maps' structural sharing.
// Dropping the last reference returns its private pages to the pool through
// one batched release per dying map (PageMap), however the reference is
// dropped — "rapid creation (and destruction) of snapshot trees" (§1).

#ifndef LWSNAP_SRC_CORE_SEARCH_GRAPH_H_
#define LWSNAP_SRC_CORE_SEARCH_GRAPH_H_

#include <ucontext.h>

#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/snapshot/page_map.h"

namespace lw {

struct Snapshot {
  uint64_t id = 0;
  uint32_t depth = 0;

  // Saved registers at the guess point: a guest-stack address, so the page
  // image carries the context and restore brings it back byte for byte.
  ucontext_t* ctx = nullptr;

  // Immutable address-space image.
  PageMap map;

  // For checkpoints: guest-provided mailbox for host→guest message delivery.
  uint8_t* mailbox = nullptr;
  size_t mailbox_cap = 0;
};

using SnapshotRef = std::shared_ptr<Snapshot>;

// A candidate extension step: evaluate the parent snapshot with sys_guess
// returning `value`.
struct Extension {
  SnapshotRef snapshot;
  int value = 0;
  uint32_t depth = 0;   // snapshot depth + 1
  double g = 0.0;       // accumulated path cost (heuristic strategies)
  double h = 0.0;       // goal-distance estimate
  uint64_t seq = 0;     // creation order; deterministic tie-break

  double f() const { return g + h; }
};

}  // namespace lw

#endif  // LWSNAP_SRC_CORE_SEARCH_GRAPH_H_
