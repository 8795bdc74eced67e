// ServiceTuning: the one knob block every checkpoint service shares.
//
// Before this header existed, each service Options struct
// (SolverServiceOptions, PrologServiceOptions, SymxServiceOptions,
// CheckpointServiceOptions) carried its own copy of the same fields —
// arena/mailbox sizing, engine selection, store injection, byte budget —
// and every new knob had to be threaded through four
// structs plus MakeHostOptions plus the host's SessionOptions mapping. Now
// the subset lives here once: service Options embed a `ServiceTuning tuning`,
// the host consumes it directly (CheckpointServiceOptions is an alias), and
// MakeSessionOptions below is the single mapping onto SessionOptions.
//
// The network daemon (src/service/daemon.h) ships the same struct as its
// per-session template, so an in-process service and a remote session are
// configured with identical vocabulary.

#ifndef LWSNAP_SRC_SERVICE_TUNING_H_
#define LWSNAP_SRC_SERVICE_TUNING_H_

#include <cstdint>
#include <memory>

#include "src/core/session.h"

namespace lw {

struct ServiceTuning {
  size_t arena_bytes = 64ull << 20;
  size_t mailbox_bytes = 1ull << 16;
  // Any SnapshotMode works here; see SessionOptions::snapshot_mode.
  SnapshotMode snapshot_mode = SnapshotMode::kCow;

  // Shared page substrate: services on one store dedup each other's
  // byte-identical pages. Null = private store (see SessionOptions::store).
  // A non-empty store_options.spill_dir pages cold checkpoints out to disk.
  // Services that each build a private store may share one spill_dir: every
  // store's spill segments are unnamed files, so they never collide.
  std::shared_ptr<PageStore> store;
  PageStoreOptions store_options;

  // Cap on the store's resident bytes driving the evict → compress → spill →
  // drop ladder after each checkpoint (0 = unbounded). See
  // SessionOptions::snapshot_byte_budget for which rung compares which bytes
  // and for shared-store semantics (store-wide: give sharers one value).
  uint64_t snapshot_byte_budget = 0;
};

// The single mapping from service tuning onto session construction. Fields
// the services do not expose (guest stack size, strategy, max_extensions)
// keep their SessionOptions defaults.
inline SessionOptions MakeSessionOptions(const ServiceTuning& tuning) {
  SessionOptions session_options;
  session_options.arena_bytes = tuning.arena_bytes;
  session_options.snapshot_mode = tuning.snapshot_mode;
  session_options.store = tuning.store;
  session_options.store_options = tuning.store_options;
  session_options.snapshot_byte_budget = tuning.snapshot_byte_budget;
  return session_options;
}

}  // namespace lw

#endif  // LWSNAP_SRC_SERVICE_TUNING_H_
