// SpillTier: the PageStore's out-of-core rung — append-only spill segments on
// disk, so parked checkpoint populations can exceed the RAM budget by orders
// of magnitude (the ROADMAP's "millions of parked checkpoints per host"
// capacity lever; stubbscroll/SOLVER's disk-swapped BFS is the shape).
//
// Layout: payloads are appended to fixed-size, mmap'd segment files
// (`seg-NNNNNN.lwspill` under the spill directory). Each record is a small
// header (magic, payload length, compressed length, the owning blob's content
// hash) followed by the payload bytes, 8-byte aligned. The tier keeps no
// content index of its own: the PageStore already guarantees one live blob
// per content, so each record belongs to exactly one blob, which holds the
// SpillRecord* and hands it back to Read and Free. The hash in the header is
// written for inspection only; nothing looks records up by it.
//
// Segment files are sized and their blocks reserved (posix_fallocate) when
// created, so a full disk makes segment creation fail — Append returns
// nullptr and the blob stays resident — rather than raising SIGBUS on a later
// write through the mapping.
//
// Space reclamation: freeing a record turns its bytes into garbage; once a
// *sealed* segment's garbage fraction crosses `compact_dead_ratio`, its live
// records (found through the segment's own record list) are rewritten to the
// current tail segment (their SpillRecord nodes are stable — only the
// location fields move) and the file is deleted.
//
// Lifetime and crash model: the tier is a process-lifetime cache, not a
// persistence format — segment files are deleted on clean destruction, and
// `Open` deletes *valid* segments left behind by a crashed previous instance
// (their records' owning blobs died with that process). A segment that fails
// validation — truncated, bad magic, impossible record bounds — makes Open
// return a clean IoError instead: the tier never maps bytes it cannot prove
// are record-structured, so a torn file is an error message, never UB.
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

struct SpillTierOptions {
  std::string dir;  // spill directory (created if missing; parent must exist)
  // Capacity of each segment file; the tail segment is sealed and a new one
  // opened when an append would not fit. Floor 64 KiB (validated by Open).
  uint64_t segment_bytes = 4ull << 20;
  // A sealed segment whose garbage fraction (dead bytes / appended bytes)
  // reaches this ratio is compacted: live records move to the tail, the file
  // is deleted.
  double compact_dead_ratio = 0.5;
};

class SpillTier {
 public:
  // On-disk format constants (public so tests can forge torn segments).
  static constexpr uint32_t kSegmentMagic = 0x4c575350u;  // "LWSP"
  static constexpr uint32_t kRecordMagic = 0x4c575352u;   // "LWSR"
  static constexpr uint32_t kFormatVersion = 1;
  static constexpr size_t kSegmentHeaderBytes = 16;  // magic, version, segment_bytes
  static constexpr size_t kRecordHeaderBytes = 24;   // magic, comp, len, pad, hash
  static constexpr uint64_t kMinSegmentBytes = 64ull << 10;

  // Opens (creating the directory if needed) and validates the spill
  // directory. Stale-but-valid segments from a crashed previous instance are
  // deleted; a segment that fails validation makes Open fail with IoError
  // (see the crash model above).
  static Result<std::unique_ptr<SpillTier>> Open(const SpillTierOptions& options);
  ~SpillTier();

  SpillTier(const SpillTier&) = delete;
  SpillTier& operator=(const SpillTier&) = delete;

  // Appends `len` payload bytes (comp_bytes == 0 means a raw kPageSize page,
  // else `len` codec-compressed bytes) and returns the new record. `hash` is
  // written into the record header. Returns nullptr if a new segment file
  // cannot be created (disk trouble); callers treat that as "spill
  // unavailable", never as data loss.
  SpillRecord* Append(uint64_t hash, const void* payload, uint32_t len, uint32_t comp_bytes);

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
    uint64_t dead_bytes = 0;          // record+payload bytes awaiting compaction
    uint64_t appends = 0;             // lifetime Append calls
    uint64_t records_rewritten = 0;   // records moved by compaction
  };
  Stats stats() const;

 private:
  struct Segment {
    uint32_t id = 0;
    int fd = -1;
    uint8_t* map = nullptr;
    uint64_t used = 0;        // append cursor (8-aligned)
    uint64_t live_bytes = 0;  // header+payload+pad of live records
    uint64_t dead_bytes = 0;
    SpillRecord* records = nullptr;  // live records, linked through seg_prev/seg_next
    bool sealed = false;
    std::string path;
  };

  explicit SpillTier(SpillTierOptions options);

  Segment* TailForAppendLocked(uint64_t need);
  Segment* NewSegmentLocked();
  // Writes one record image at `seg`'s append cursor, points `rec` at it and
  // links it into `seg`'s record list.
  void WriteRecordLocked(Segment& seg, SpillRecord& rec, uint64_t hash, const void* payload);
  // Unlinks `rec` from its segment's record list.
  void UnlinkRecordLocked(SpillRecord& rec);
  // Drops an empty sealed segment, or compacts one whose garbage fraction
  // crossed compact_dead_ratio. No-op for the tail or healthy segments.
  void MaybeReclaimSealedLocked(uint32_t seg_id);
  void CompactSegmentLocked(uint32_t seg_id);
  void DropSegmentLocked(uint32_t seg_id);
  static uint64_t RecordSpan(uint32_t len) {
    return (kRecordHeaderBytes + len + 7u) & ~uint64_t{7};
  }

  SpillTierOptions options_;
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
