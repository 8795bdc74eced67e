// CheckpointService: the generic host for checkpoint-backed services — the
// machinery that turns "a single-path program in a snapshot arena" into "a
// multi-path incremental service" (§3.2), factored out of the SAT solver so
// any workload gets it: boot the guest, frame requests/responses through a
// guest-memory mailbox, park on sys_yield checkpoints, hand out typed
// lw::Checkpoint handles, branch by resuming a parent any number of times.
//
// Division of labor:
//   * The host (this class) owns the BacktrackSession, the boot-once
//     lifecycle, the one-checkpoint-per-drive protocol, raw request delivery,
//     response readback, and release plumbing. It speaks bytes.
//   * Each service (SolverService, PrologService, SymxService, ...) supplies
//     the codec: a ServeFn that runs as the guest, plus host-side encode and
//     decode of its request/response wire formats. Codecs frame through the
//     bounds-checked WireReader/WireWriter below — a malformed or oversized
//     request must surface as a flagged response, never as a truncated read.
//
// Guest contract (the codec's side of the protocol):
//   void Serve(GuestMailbox& mailbox, void* boot_arg) {
//     ...allocate all persistent state via GuestNew/Vec (arena hooks are
//        installed by the host trampoline; std:: containers are NOT captured
//        by snapshots and must never live across a Park)...
//     while (true) {
//       ...write the response for the current state into mailbox.data()...
//       size_t len = mailbox.Park();           // checkpoint-and-park
//       ...decode the next request from mailbox.data()[0..len)...
//     }
//   }
// Each host drive (Boot or Extend) must park exactly one new checkpoint;
// parking zero (guest returned) or several is an Internal protocol error.

#ifndef LWSNAP_SRC_SERVICE_HOST_H_
#define LWSNAP_SRC_SERVICE_HOST_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "src/core/session.h"
#include "src/service/tuning.h"
#include "src/service/wire.h"
#include "src/util/status.h"

namespace lw {

// The host's construction knobs are exactly the shared tuning block every
// service Options embeds (src/service/tuning.h): services pass
// `options.tuning` straight through.
using CheckpointServiceOptions = ServiceTuning;

// Guest-side view of the service mailbox: the one region both sides of the
// wire protocol read and write. Lives in the arena, so every parked snapshot
// captures the response bytes the guest wrote immediately before Park().
class GuestMailbox {
 public:
  GuestMailbox(uint8_t* data, size_t capacity, GuestHeap* heap)
      : data_(data), capacity_(capacity), heap_(heap) {}

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  size_t capacity() const { return capacity_; }
  GuestHeap* heap() { return heap_; }

  // Checkpoint-and-park with the response already written into data();
  // returns the byte length of the next request once the host resumes.
  size_t Park();

 private:
  uint8_t* data_;
  size_t capacity_;
  GuestHeap* heap_;
};

class CheckpointService {
 public:
  // The guest body supplied by the service codec; runs inside the arena with
  // arena alloc hooks installed. Must loop forever on mailbox.Park().
  using ServeFn = void (*)(GuestMailbox& mailbox, void* boot_arg);

  explicit CheckpointService(ServiceTuning tuning);
  ~CheckpointService();

  CheckpointService(const CheckpointService&) = delete;
  CheckpointService& operator=(const CheckpointService&) = delete;

  // Boots the guest and drives it to its first parked checkpoint. Call
  // exactly once, first; a second Boot (or an Extend before Boot) is a clean
  // BadState error. `boot_arg` must stay valid for the service's lifetime.
  Result<Checkpoint> Boot(ServeFn serve, void* boot_arg);

  // Delivers `request` into `parent`'s mailbox, resumes its immutable
  // snapshot, and drives to the next parked checkpoint. The parent handle
  // stays valid — extend it again with a different request to branch. Handles
  // from another service are InvalidArgument.
  Result<Checkpoint> Extend(const Checkpoint& parent, const void* request, size_t len);

  // Reads the first `len` bytes of a checkpoint's response (the mailbox image
  // captured in its immutable snapshot).
  Status ReadResponse(const Checkpoint& checkpoint, void* out, size_t len) const;

  // Explicit release; the handle's destructor does the same implicitly.
  // Either way each dying snapshot map returns its pages in one
  // PageStore::ReleaseBatch (src/snapshot/page_map.h), so pool-issued release
  // futures draining a fleet's checkpoints pay per-shard — not per-blob —
  // lock traffic on the shared store.
  Status Release(Checkpoint& checkpoint);

  bool booted() const { return booted_; }
  size_t mailbox_capacity() const { return tuning_.mailbox_bytes; }
  BacktrackSession& session() { return *session_; }
  const SessionStats& session_stats() const { return session_->stats(); }
  const PageStore& store() const { return session_->store(); }

 private:
  struct GuestBoot {
    ServeFn serve = nullptr;
    void* arg = nullptr;
    size_t mailbox_cap = 0;
  };

  static void GuestMain(void* arg);
  Result<Checkpoint> TakeOneCheckpoint();

  ServiceTuning tuning_;
  std::unique_ptr<BacktrackSession> session_;
  GuestBoot guest_boot_;
  bool booted_ = false;
};

}  // namespace lw

#endif  // LWSNAP_SRC_SERVICE_HOST_H_
