// SolverService: the paper's §3.2 multi-path incremental solver service,
// "built using a single-path incremental solver" and lightweight snapshots.
//
// A single-path CDCL solver runs as a guest inside a CheckpointService host
// (src/service/host.h). After solving each problem it parks at a checkpoint.
// To the client, every lw::Checkpoint handle is "an opaque reference to a
// previously solved problem p"; Extend(p, q) resumes p's immutable snapshot —
// the solver's entire state (clause arena, learnt DB, activities, trail)
// reappears exactly as it was — adds the clauses of q, solves p ∧ q
// incrementally, and parks a fresh checkpoint for the new problem. Divergent
// extensions of the same parent are free: they branch the snapshot tree
// instead of copying solver state. Handles release their snapshot on
// destruction; Clone() one to branch bookkeeping across owners.
//
// Wire protocol (mailbox lives in guest memory; all integers little-endian
// host order, framed through WireReader/WireWriter):
//   request  = uint32 clause_count, then per clause: uint32 len, int32 lits[len]
//   response = uint8 result (LBool raw), uint8 flags (bit0: request was
//              malformed and ignored), uint16 pad, uint32 num_vars,
//              uint64 conflicts, then ceil(num_vars/8) model bytes (valid when
//              result == SAT)
// The guest-side decoder is bounds-checked: clause counts or lengths that
// overflow the request are rejected with the malformed flag (the host turns
// that into InvalidArgument and releases the flagged checkpoint), never
// truncated into a half-applied increment.

#ifndef LWSNAP_SRC_SOLVER_SERVICE_H_
#define LWSNAP_SRC_SOLVER_SERVICE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/service/host.h"
#include "src/solver/cnf.h"
#include "src/solver/lit.h"
#include "src/solver/sat.h"
#include "src/util/status.h"

namespace lw {

struct SolverServiceOptions {
  // The shared service knob block (arena/mailbox sizing, engine selection,
  // store injection, byte budget) — one struct, one mapping onto the session
  // (src/service/tuning.h). With a shared tuning.store, multiple services
  // dedup each other's byte-identical pages: clause arenas and watch lists of
  // related problems largely coincide.
  ServiceTuning tuning;
  SolverOptions solver;
};

class SolverService {
 public:
  // ServicePool<SolverService> trait: the per-service construction options.
  using Options = SolverServiceOptions;

  struct Outcome {
    LBool result = kUndef;
    Checkpoint token;  // owning reference to the solved problem (parent for extensions)
    uint32_t num_vars = 0;            // variable count at this node
    uint64_t conflicts = 0;           // total conflicts at this node
    std::vector<uint8_t> model_bits;  // packed model, LSB-first per byte
  };

  explicit SolverService(SolverServiceOptions options);
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  // Loads and solves the base problem; call exactly once, first.
  Result<Outcome> SolveRoot(const Cnf& base);

  // Solves parent ∧ q where `parent` is any handle returned earlier. The
  // parent handle stays valid — extend it again with a different q to branch.
  Result<Outcome> Extend(const Checkpoint& parent, const std::vector<std::vector<Lit>>& q);

  // As Extend, but takes a pre-encoded request (tests and remote frontends
  // that already hold wire bytes). The guest-side decoder enforces the bounds
  // the encoder normally guarantees.
  Result<Outcome> ExtendEncoded(const Checkpoint& parent, const void* request, size_t len);

  // Releases a solved-problem reference (its snapshot pages become
  // reclaimable once no descendant needs them). The handle becomes empty;
  // dropping the handle does the same implicitly.
  Status Release(Checkpoint& token);

  // Model bit for `v` from an Outcome (true = positive). Out-of-range
  // variables are false, never an out-of-bounds read.
  static bool ModelBit(const Outcome& outcome, Var v);

  const SessionStats& session_stats() const { return host_.session_stats(); }
  const PageStore& store() const { return host_.store(); }
  // The underlying generic host (diagnostics and protocol-level tests).
  CheckpointService& host() { return host_; }

 private:
  struct Boot {
    const Cnf* base = nullptr;
    SolverOptions solver;
  };

  static void Serve(GuestMailbox& mailbox, void* arg);
  Result<Outcome> BuildOutcome(Checkpoint checkpoint);

  SolverServiceOptions options_;
  CheckpointService host_;
  Boot boot_;
};

// Encodes `clauses` into the request wire format. Fails (instead of silently
// truncating) when a clause count/length overflows the uint32 wire fields, a
// literal's variable exceeds the wire cap, or the encoding would exceed
// `max_bytes` (pass the service's mailbox capacity; 0 = unbounded).
Status EncodeSolverRequest(const std::vector<std::vector<Lit>>& clauses, size_t max_bytes,
                           std::vector<uint8_t>* out);

// Largest variable index the wire protocol accepts (guards the guest against
// forged literals triggering absurd EnsureVars growth).
constexpr uint32_t kMaxSolverWireVar = 1u << 22;

}  // namespace lw

#endif  // LWSNAP_SRC_SOLVER_SERVICE_H_
