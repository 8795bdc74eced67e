// Checkpoint: the typed, RAII handle to a parked snapshot — the client-facing
// currency of the checkpoint service layer.
//
// A raw uint64 token says nothing about which session minted it, whether it is
// still live, or who is responsible for releasing it; passing one to the wrong
// service is silent UB and forgetting to release one pins its snapshot pages
// forever. A Checkpoint closes all three holes:
//
//   * Move-only ownership: exactly one handle owns each reference. Destroying
//     the handle releases the reference; when the last reference dies the
//     owning session reclaims the snapshot (its pages return to the store once
//     no descendant needs them).
//   * Clone() for branching: divergent extensions of one parent each hold
//     their own reference; the parent's snapshot lives until the last clone
//     releases.
//   * Typed validation: every handle carries its session's uid and the
//     token's mint generation. Using a handle on the wrong session/service is
//     an InvalidArgument error, never memory corruption; using a released or
//     moved-from handle is an error too.
//
// Thread-safety: handles may be destroyed (or cloned) on any thread — the
// ledger is internally synchronized and destruction only *queues* the release.
// The owning session, which stays thread-affine, reclaims queued snapshots at
// its next drive boundary (Run/Resume/TakeNewCheckpoints/ReleaseCheckpoint) or
// at destruction by dropping its reference; each dying snapshot's page map
// walks only the radix spine it uniquely owns and returns the dying page refs
// to the store in one shard-batched PageStore::ReleaseBatch. A handle that
// outlives its session is inert: the session detaches the ledger on
// destruction and late drops become no-ops.

#ifndef LWSNAP_SRC_CORE_CHECKPOINT_H_
#define LWSNAP_SRC_CORE_CHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace lw {

class BacktrackSession;

namespace internal {

// Per-session registry of live checkpoint references. Shared (via shared_ptr)
// between the session and every handle the session has minted; the only
// cross-thread object in the handle protocol, synchronized by one mutex.
class CheckpointLedger {
 public:
  // Registers `token` with one reference; returns the mint generation.
  uint32_t Mint(uint64_t token);

  // Adds a reference to a live token (handle clone). Returns false when the
  // session has detached (the clone must come up empty, not abort).
  bool AddRef(uint64_t token);

  // Drops one reference from a handle destructor (any thread). When the last
  // reference dies the token is queued for the session to reclaim.
  void DropRef(uint64_t token);

  enum class Probe { kLive, kReleased, kStaleGeneration };
  Probe Lookup(uint64_t token, uint32_t generation) const;

  // Session-thread release: drops one reference and reports (via the return
  // value) whether the caller should reclaim the snapshot immediately.
  bool ReleaseRef(uint64_t token);

  // Tokens whose last reference died since the previous call.
  std::vector<uint64_t> TakePendingReclaims();

  // Severs the session: subsequent drops are no-ops (the session and its
  // snapshots are gone; surviving handles become inert).
  void Detach();

 private:
  struct Entry {
    uint32_t generation = 0;
    uint32_t refs = 0;
  };

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Entry> entries_;
  std::vector<uint64_t> pending_reclaim_;
  uint32_t next_generation_ = 1;
  bool detached_ = false;
};

}  // namespace internal

class Checkpoint {
 public:
  Checkpoint() = default;
  ~Checkpoint() { Drop(); }

  Checkpoint(Checkpoint&& other) noexcept
      : ledger_(std::move(other.ledger_)),
        session_uid_(other.session_uid_),
        token_(other.token_),
        generation_(other.generation_) {
    other.ledger_.reset();
    other.session_uid_ = 0;
    other.token_ = 0;
    other.generation_ = 0;
  }

  Checkpoint& operator=(Checkpoint&& other) noexcept {
    if (this != &other) {
      Drop();
      ledger_ = std::move(other.ledger_);
      session_uid_ = other.session_uid_;
      token_ = other.token_;
      generation_ = other.generation_;
      other.ledger_.reset();
      other.session_uid_ = 0;
      other.token_ = 0;
      other.generation_ = 0;
    }
    return *this;
  }

  Checkpoint(const Checkpoint&) = delete;
  Checkpoint& operator=(const Checkpoint&) = delete;

  // A second owning handle to the same parked snapshot: branch bookkeeping for
  // divergent extensions. Cloning an empty handle — or one whose session has
  // been destroyed — yields an empty handle.
  Checkpoint Clone() const {
    if (!valid() || !ledger_->AddRef(token_)) {
      return Checkpoint();
    }
    return Checkpoint(ledger_, session_uid_, token_, generation_);
  }

  // False once moved-from or explicitly released.
  bool valid() const { return ledger_ != nullptr; }
  explicit operator bool() const { return valid(); }

  // Raw token id for display/logging; 0 when empty. Not an API currency — all
  // session/service calls take the handle itself.
  uint64_t id() const { return token_; }
  uint64_t session_uid() const { return session_uid_; }
  uint32_t generation() const { return generation_; }

 private:
  friend class BacktrackSession;

  Checkpoint(std::shared_ptr<internal::CheckpointLedger> ledger, uint64_t session_uid,
             uint64_t token, uint32_t generation)
      : ledger_(std::move(ledger)),
        session_uid_(session_uid),
        token_(token),
        generation_(generation) {}

  void Drop() {
    if (ledger_ != nullptr) {
      ledger_->DropRef(token_);
      ledger_.reset();
    }
  }

  // Empties the handle without dropping its reference (the session already
  // consumed it on an explicit release).
  void Disarm() {
    ledger_.reset();
    session_uid_ = 0;
    token_ = 0;
    generation_ = 0;
  }

  std::shared_ptr<internal::CheckpointLedger> ledger_;
  uint64_t session_uid_ = 0;
  uint64_t token_ = 0;
  uint32_t generation_ = 0;
};

}  // namespace lw

#endif  // LWSNAP_SRC_CORE_CHECKPOINT_H_
