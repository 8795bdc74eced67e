// ParallelMaterializer: a session-owned worker team that publishes a
// snapshot's page set to the shared PageStore from N threads — the ROADMAP's
// "parallel materialization *inside* one session". PR 3 made the store fully
// concurrent (lock-striped shards, atomic refcounts); this is the session/
// engine side that was still publishing on one thread. The same team also
// serves the restore direction: engines fan their restore compare/copy loops
// over it (EngineContext in engine.h), with workers memcpying disjoint
// arena pages from the store — the CoW path batch-unprotects its coalesced
// restore runs before the fan-out, so no worker ever takes a fault.
//
// Determinism contract: the materializer never touches snapshot structure.
// The caller (an engine's Materialize or Restore) presents its work as
// `count` slots;
// workers claim fixed-size chunks of [0, count) off an atomic cursor and run
// the slot function, which must write only *its own slot's* outputs — in
// practice disjoint entries of a caller-owned PageRef table. The engine then
// assembles the page map serially, in slot order, on the session thread.
// Because the PageStore is content-addressed (equal published bytes yield the
// same blob while both are live), the assembled map is bit-identical to what
// a serial publish loop builds, regardless of worker count, chunk
// interleaving, or publish races between workers.
//
// Error contract: a failing slot poisons the run — workers stop claiming new
// chunks, in-flight chunks finish their current slot, and Run() returns one
// clean Status: the failure from the lowest-indexed failing chunk among those
// attempted. The team survives a failed run; the next Run() starts clean.
//
// Threading contract: Run() is called from the session thread only (sessions
// are thread-affine, so at most one materialize per team at a time). The
// calling thread participates as a worker, so `workers = N` means N threads
// publishing, N-1 of them pooled; pooled threads are spawned lazily on the
// first parallel Run(). Workers never touch signal state: slot work runs on
// host stacks, publishes only read guest pages, and CoW restores unprotect
// every run before the fan-out, so no worker can take a SIGSEGV. Slot
// functions only read the arena (or write pages already made writable) and
// talk to the internally synchronized store; they must not touch
// session/engine state that the other slots (or the session thread) could be
// writing.

#ifndef LWSNAP_SRC_SNAPSHOT_PARALLEL_MATERIALIZER_H_
#define LWSNAP_SRC_SNAPSHOT_PARALLEL_MATERIALIZER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/util/status.h"

namespace lw {

struct ParallelMaterializerOptions {
  // Total publishing threads (the session thread counts): 0/1 = serial
  // inline, no team. Sized against the cores a fleet grants this session —
  // ServicePool<S> hosts split cores between services and these workers.
  uint32_t workers = 1;
  // Slots claimed per batch. Small enough to balance uneven slot costs
  // (dedup hit vs fresh publish), large enough that the cursor fetch_add and
  // per-batch bookkeeping stay off the per-page path.
  uint32_t chunk_slots = 64;
};

class ParallelMaterializer {
 public:
  // Runs under a worker's claim for one slot; must write only that slot's
  // outputs and must not block on the materializer itself.
  using SlotFn = std::function<Status(size_t slot)>;

  explicit ParallelMaterializer(const ParallelMaterializerOptions& options);
  ~ParallelMaterializer();

  ParallelMaterializer(const ParallelMaterializer&) = delete;
  ParallelMaterializer& operator=(const ParallelMaterializer&) = delete;

  uint32_t workers() const { return options_.workers; }

  // Runs fn(slot) for every slot in [0, count), in parallel across the team
  // (serially inline when workers <= 1 or the job is smaller than one
  // chunk). Returns the aggregated error contract described above.
  Status Run(size_t count, const SlotFn& fn);

 private:
  void EnsureStarted();
  void WorkerMain();
  void WorkChunks();
  void RecordError(size_t chunk, Status status);

  ParallelMaterializerOptions options_;
  std::vector<std::thread> team_;  // workers - 1 pooled threads, lazily spawned

  // Job dispatch: the session thread stages a job under mu_, bumps job_gen_,
  // and wakes the team; every pooled worker runs WorkChunks() exactly once
  // per generation and the last one out signals done_cv_.
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  uint64_t job_gen_ = 0;
  uint32_t job_workers_left_ = 0;
  size_t job_count_ = 0;
  size_t num_chunks_ = 0;
  const SlotFn* job_fn_ = nullptr;
  std::atomic<size_t> next_chunk_{0};

  // First-failing-chunk aggregation (see header comment).
  std::atomic<bool> job_failed_{false};
  std::mutex error_mu_;
  size_t error_chunk_ = 0;
  Status error_status_;
};

}  // namespace lw

#endif  // LWSNAP_SRC_SNAPSHOT_PARALLEL_MATERIALIZER_H_
