// Checkpoint: the typed, RAII handle to a parked snapshot — the client-facing
// currency of the checkpoint service layer.
//
// A raw uint64 token says nothing about which session minted it, whether it is
// still live, or who is responsible for releasing it; passing one to the wrong
// service is silent UB and forgetting to release one pins its snapshot pages
// forever. A Checkpoint closes all three holes:
//
//   * One shared reference: every handle to a parked snapshot, its clones
//     included, shares one immutable internal::CheckpointRef. Handles are
//     move-only; Clone() adds an owner for divergent extensions. When the last
//     owner drops, the ref's destructor queues the token for its session.
//   * Typed validation: the ref names the minting session's reclaim queue, so
//     a handle used on another session or service is an InvalidArgument error,
//     never memory corruption; so is an empty (moved-from or released) handle.
//
// Thread-safety: handles may be destroyed (or cloned) on any thread — the
// reclaim queue is the only shared mutable object and destruction only queues
// the token. The session owns the snapshots and stays thread-affine: it
// reclaims queued tokens at its next drive boundary (Run/Resume/
// TakeNewCheckpoints/ReleaseCheckpoint) or at destruction; each dying
// snapshot's page map walks only the radix spine it uniquely owns and returns
// the dying page refs to the store in one shard-batched PageStore::ReleaseBatch.
// A handle that outlives its session is inert: the session detaches its queue
// on destruction, late drops become no-ops and clones come up empty. The
// orphan keeps the queue alive, so no later session can share its address.

#ifndef LWSNAP_SRC_CORE_CHECKPOINT_H_
#define LWSNAP_SRC_CORE_CHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace lw {

class BacktrackSession;

namespace internal {

// A session's queue of tokens whose last handle dropped, shared with every
// CheckpointRef the session minted.
class ReclaimQueue {
 public:
  // Queues `token` for reclamation (any thread); a no-op once detached.
  void Push(uint64_t token);
  // Tokens pushed since the previous call (session thread).
  std::vector<uint64_t> Take();
  // Severs the session: later pushes are dropped, clones come up empty.
  void Detach();
  bool detached() const;

 private:
  mutable std::mutex mu_;
  std::vector<uint64_t> pending_;
  bool detached_ = false;
};

// The one reference all clones of a checkpoint handle share.
struct CheckpointRef {
  CheckpointRef(std::shared_ptr<ReclaimQueue> queue, uint64_t token)
      : queue(std::move(queue)), token(token) {}
  ~CheckpointRef() { queue->Push(token); }
  CheckpointRef(const CheckpointRef&) = delete;
  CheckpointRef& operator=(const CheckpointRef&) = delete;

  const std::shared_ptr<ReclaimQueue> queue;
  const uint64_t token;
};

}  // namespace internal

class Checkpoint {
 public:
  Checkpoint() = default;
  Checkpoint(Checkpoint&&) noexcept = default;
  Checkpoint& operator=(Checkpoint&&) noexcept = default;
  Checkpoint(const Checkpoint&) = delete;
  Checkpoint& operator=(const Checkpoint&) = delete;

  // A second owning handle to the same parked snapshot: branch bookkeeping for
  // divergent extensions. Cloning an empty handle — or one whose session has
  // been destroyed — yields an empty handle.
  Checkpoint Clone() const {
    if (!valid() || ref_->queue->detached()) {
      return Checkpoint();
    }
    return Checkpoint(ref_);
  }

  // False once moved-from or explicitly released.
  bool valid() const { return ref_ != nullptr; }
  explicit operator bool() const { return valid(); }

  // Raw token id for display/logging; 0 when empty. Not an API currency — all
  // session/service calls take the handle itself.
  uint64_t id() const { return valid() ? ref_->token : 0; }

 private:
  friend class BacktrackSession;

  explicit Checkpoint(std::shared_ptr<const internal::CheckpointRef> ref) : ref_(std::move(ref)) {}

  std::shared_ptr<const internal::CheckpointRef> ref_;
};

}  // namespace lw

#endif  // LWSNAP_SRC_CORE_CHECKPOINT_H_
