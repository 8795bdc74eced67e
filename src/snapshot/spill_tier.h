// SpillTier: the PageStore's out-of-core rung — append-only spill segments on
// disk, so parked checkpoint populations can exceed the RAM budget by orders
// of magnitude (the ROADMAP's "millions of parked checkpoints per host"
// capacity lever; stubbscroll/SOLVER's disk-swapped BFS is the shape).
//
// Layout: payloads are appended to fixed-size, mmap'd segment files; a record
// is its payload bytes, 8-byte aligned, and nothing else is written. The tier
// keeps no content index of its own: the PageStore already guarantees one
// live blob per content, so each record belongs to exactly one blob, which
// holds the SpillRecord* (the record's location and length) and hands it back
// to Read and Free.
//
// Segments are unnamed scratch files. Each is created with mkostemp under the
// spill directory and unlinked at once, before it is sized or mapped; once
// mapped its descriptor is closed, so the mapping is the file's only
// reference. Its blocks go back to the file system when the tier unmaps it
// (compaction, destruction) or the process exits, however it exits. Nothing
// names a segment, so any number of tiers — in one process or several — share
// one directory without colliding, and the tier never reads a file it did not
// create.
//
// Segment files are sized and their blocks reserved (posix_fallocate) when
// created, so a full disk makes segment creation fail — Append returns
// nullptr and the blob stays resident — rather than raising SIGBUS on a later
// write through the mapping.
//
// Space reclamation: freeing a record turns its bytes into garbage; once half
// of a *sealed* segment's appended bytes are garbage, its live records (found
// through the segment's own record list) are copied to the current tail
// segment (their SpillRecord nodes are stable — only the location fields
// move) and the segment is unmapped.
//
// Lifetime and crash model: the tier is a process-lifetime cache, not a
// persistence format. A crash loses nothing the next process could use (the
// records' owning blobs die with the process) and leaves nothing behind, with
// one exception: a process that dies between mkostemp and unlink leaves one
// randomly named `lwspill-XXXXXX` file. Nothing reads it; delete it at will.
//
// Options: `Open(dir, segment_bytes)` takes PageStoreOptions' `spill_dir` and
// `spill_segment_bytes` as they are; the compaction threshold is fixed.
//
// Concurrency: every public method is internally synchronized by one tier
// mutex (disk is the slow tier; a single lock does not bound throughput
// before the I/O does). PageStore calls in with a shard lock held, so the
// lock order is always shard → tier and never cycles.

#ifndef LWSNAP_SRC_SNAPSHOT_SPILL_TIER_H_
#define LWSNAP_SRC_SNAPSHOT_SPILL_TIER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace lw {

// One spilled payload's location, owned by exactly one PageBlob. Nodes are
// stable for the record's lifetime (the blob holds a raw pointer across
// compactions); the location fields and the segment links are guarded by the
// tier mutex.
struct SpillRecord {
  uint64_t off = 0;         // payload offset within its segment
  uint32_t seg = 0;         // owning segment id
  uint32_t len = 0;         // payload byte length
  uint32_t comp_bytes = 0;  // 0 = raw kPageSize page; else codec-compressed length (== len)
  SpillRecord* seg_prev = nullptr;  // the owning segment's record list
  SpillRecord* seg_next = nullptr;
};

class SpillTier {
 public:
  static constexpr uint64_t kMinSegmentBytes = 64ull << 10;

  // Creates `dir` if missing (its parent must exist). `segment_bytes` is the
  // capacity of each segment file, floor kMinSegmentBytes: the tail segment
  // is sealed and a new one opened when an append would not fit. Reads no
  // file in `dir`.
  static Result<std::unique_ptr<SpillTier>> Open(const std::string& dir, uint64_t segment_bytes);
  ~SpillTier();

  SpillTier(const SpillTier&) = delete;
  SpillTier& operator=(const SpillTier&) = delete;

  // Appends `len` payload bytes (comp_bytes == 0 means a raw kPageSize page,
  // else `len` codec-compressed bytes) and returns the new record. Returns
  // nullptr if a new segment file cannot be created (disk trouble); callers
  // treat that as "spill unavailable", never as data loss.
  SpillRecord* Append(const void* payload, uint32_t len, uint32_t comp_bytes);

  // Copies the record's `len` payload bytes into dst.
  void Read(const SpillRecord* rec, void* dst) const;

  // Deletes the record, turns its bytes into reclaimable garbage, and may
  // compact the owning (sealed) segment.
  void Free(SpillRecord* rec);

  struct Stats {
    uint64_t segments = 0;            // live segment files
    uint64_t segments_compacted = 0;  // lifetime
    uint64_t live_records = 0;
    uint64_t live_payload_bytes = 0;  // payload bytes of live records
    uint64_t dead_bytes = 0;          // freed payload+pad bytes awaiting compaction
    uint64_t appends = 0;             // lifetime Append calls
    uint64_t records_rewritten = 0;   // records moved by compaction
  };
  Stats stats() const;

 private:
  struct Segment {
    uint32_t id = 0;
    uint8_t* map = nullptr;
    uint64_t used = 0;        // append cursor (8-aligned)
    uint64_t live_bytes = 0;  // payload+pad of live records
    uint64_t dead_bytes = 0;
    SpillRecord* records = nullptr;  // live records, linked through seg_prev/seg_next
    bool sealed = false;
  };

  SpillTier(std::string dir, uint64_t segment_bytes);

  Segment* TailForAppendLocked(uint64_t need);
  Segment* NewSegmentLocked();
  // Copies `payload` to `seg`'s append cursor, points `rec` at it and links
  // it into `seg`'s record list.
  void WriteRecordLocked(Segment& seg, SpillRecord& rec, const void* payload);
  // Unlinks `rec` from its segment's record list.
  void UnlinkRecordLocked(SpillRecord& rec);
  // Drops an empty sealed segment, or compacts one that is at least half
  // garbage. No-op for the tail or healthy segments.
  void MaybeReclaimSealedLocked(uint32_t seg_id);
  void CompactSegmentLocked(uint32_t seg_id);
  void DropSegmentLocked(uint32_t seg_id);
  static uint64_t RecordSpan(uint32_t len) { return (len + 7u) & ~uint64_t{7}; }

  const std::string dir_;
  const uint64_t segment_bytes_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Segment>> segments_;  // index = id; compacted slots go null
  uint32_t tail_ = UINT32_MAX;                      // current append segment id

  uint64_t live_records_ = 0;
  uint64_t live_payload_bytes_ = 0;
  uint64_t dead_bytes_ = 0;
  uint64_t segments_live_ = 0;
  uint64_t segments_compacted_ = 0;
  uint64_t appends_ = 0;
  uint64_t records_rewritten_ = 0;
};

}  // namespace lw

#endif  // LWSNAP_SRC_SNAPSHOT_SPILL_TIER_H_
