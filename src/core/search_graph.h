// The search graph of §3.1: partial candidates (immutable snapshots) are the
// vertices; candidate extension steps are the directed edges.
//
// A Snapshot owns:
//   * the immutable register file (the ucontext captured at the guess point —
//     the paper's "%rax return" is our resume_value delivered on restore),
//   * the immutable address-space image (a PageMap of refcounted page blobs),
//   * immutable auxiliary state captured by session attachments (e.g. the
//     interposed filesystem's persistent root).
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

#include <cstdint>
#include <memory>
#include <vector>

#include "src/snapshot/page_map.h"

namespace lw {

struct Snapshot {
  uint64_t id = 0;
  uint32_t depth = 0;

  // Saved registers at the guess point. Written in place by swapcontext (never
  // copied: uc_mcontext.fpregs points into this very struct on x86-64 glibc, so
  // Snapshot must not be relocated after capture).
  ucontext_t uctx;

  // Immutable address-space image.
  PageMap map;

  // Opaque per-attachment states (index-aligned with the session's attachments).
  std::vector<std::shared_ptr<const void>> aux;

  // For checkpoints: guest-provided mailbox for host→guest message delivery.
  uint8_t* mailbox = nullptr;
  size_t mailbox_cap = 0;

  // Buffered-output offset at capture (for the buffered output policy).
  size_t out_mark = 0;

  Snapshot() { uctx = ucontext_t{}; }
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;
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
