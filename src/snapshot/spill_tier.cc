#include "src/snapshot/spill_tier.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace lw {
namespace {

// A sealed segment is compacted once this fraction of its appended bytes is
// garbage.
constexpr double kCompactDeadRatio = 0.5;

}  // namespace

SpillTier::SpillTier(std::string dir, uint64_t segment_bytes)
    : dir_(std::move(dir)), segment_bytes_(segment_bytes) {}

Result<std::unique_ptr<SpillTier>> SpillTier::Open(const std::string& dir,
                                                   uint64_t segment_bytes) {
  if (dir.empty()) {
    return InvalidArgument("spill directory is empty");
  }
  if (segment_bytes < kMinSegmentBytes) {
    return InvalidArgument("spill segment_bytes below 64 KiB floor");
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return IoError("cannot create spill directory " + dir);
  }
  struct stat st;
  if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return IoError("spill path is not a directory: " + dir);
  }
  return std::unique_ptr<SpillTier>(new SpillTier(dir, segment_bytes));
}

SpillTier::~SpillTier() {
  for (auto& seg : segments_) {
    if (seg == nullptr) {
      continue;
    }
    while (SpillRecord* rec = seg->records) {
      seg->records = rec->seg_next;
      delete rec;
    }
    ::munmap(seg->map, segment_bytes_);
  }
}

SpillRecord* SpillTier::Append(const void* payload, uint32_t len, uint32_t comp_bytes) {
  LW_CHECK(len > 0);
  std::lock_guard<std::mutex> lock(mu_);
  appends_++;
  Segment* seg = TailForAppendLocked(RecordSpan(len));
  if (seg == nullptr) {
    return nullptr;
  }
  SpillRecord* rec = new SpillRecord;
  rec->len = len;
  rec->comp_bytes = comp_bytes;
  WriteRecordLocked(*seg, *rec, payload);
  live_records_++;
  live_payload_bytes_ += len;
  return rec;
}

void SpillTier::Read(const SpillRecord* rec, void* dst) const {
  std::lock_guard<std::mutex> lock(mu_);
  LW_CHECK(rec != nullptr);
  const Segment* seg = segments_[rec->seg].get();
  std::memcpy(dst, seg->map + rec->off, rec->len);
}

void SpillTier::Free(SpillRecord* rec) {
  std::lock_guard<std::mutex> lock(mu_);
  LW_CHECK(rec != nullptr);
  UnlinkRecordLocked(*rec);
  Segment* seg = segments_[rec->seg].get();
  uint64_t span = RecordSpan(rec->len);
  seg->live_bytes -= span;
  seg->dead_bytes += span;
  dead_bytes_ += span;
  live_records_--;
  live_payload_bytes_ -= rec->len;
  uint32_t seg_id = rec->seg;
  delete rec;
  MaybeReclaimSealedLocked(seg_id);
}

SpillTier::Stats SpillTier::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.segments = segments_live_;
  s.segments_compacted = segments_compacted_;
  s.live_records = live_records_;
  s.live_payload_bytes = live_payload_bytes_;
  s.dead_bytes = dead_bytes_;
  s.appends = appends_;
  s.records_rewritten = records_rewritten_;
  return s;
}

SpillTier::Segment* SpillTier::TailForAppendLocked(uint64_t need) {
  while (true) {
    if (tail_ == UINT32_MAX) {
      if (NewSegmentLocked() == nullptr) {
        return nullptr;
      }
      continue;
    }
    Segment* tail = segments_[tail_].get();
    if (tail->used + need <= segment_bytes_) {
      return tail;
    }
    tail->sealed = true;
    uint32_t old = tail_;
    tail_ = UINT32_MAX;
    if (NewSegmentLocked() == nullptr) {
      return nullptr;
    }
    // Sealing may have tipped the old tail over the garbage threshold (frees
    // accumulate in the tail too). Reclaiming can compact its live records
    // into the fresh tail, so loop and re-check capacity rather than return.
    MaybeReclaimSealedLocked(old);
  }
}

SpillTier::Segment* SpillTier::NewSegmentLocked() {
  // The name exists only until the unlink below: from then on nothing else
  // can open the file, and its blocks go back when the mapping does.
  std::string path = dir_ + "/lwspill-XXXXXX";
  int fd = ::mkostemp(path.data(), O_CLOEXEC);
  if (fd < 0) {
    return nullptr;
  }
  ::unlink(path.c_str());
  // Reserve every block up front: a sparse file would let a full disk surface
  // as SIGBUS on a later store through the shared mapping instead of as this
  // clean failure. posix_fallocate returns an error number, not -1.
  void* map = MAP_FAILED;
  if (::ftruncate(fd, static_cast<off_t>(segment_bytes_)) == 0 &&
      ::posix_fallocate(fd, 0, static_cast<off_t>(segment_bytes_)) == 0) {
    map = ::mmap(nullptr, segment_bytes_, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  }
  ::close(fd);
  if (map == MAP_FAILED) {
    return nullptr;
  }
  uint32_t id = static_cast<uint32_t>(segments_.size());
  auto seg = std::make_unique<Segment>();
  seg->id = id;
  seg->map = static_cast<uint8_t*>(map);
  segments_.push_back(std::move(seg));
  tail_ = id;
  segments_live_++;
  return segments_[id].get();
}

void SpillTier::WriteRecordLocked(Segment& seg, SpillRecord& rec, const void* payload) {
  uint64_t span = RecordSpan(rec.len);
  LW_CHECK(seg.used + span <= segment_bytes_);
  std::memcpy(seg.map + seg.used, payload, rec.len);
  rec.seg = seg.id;
  rec.off = seg.used;
  rec.seg_prev = nullptr;
  rec.seg_next = seg.records;
  if (seg.records != nullptr) {
    seg.records->seg_prev = &rec;
  }
  seg.records = &rec;
  seg.used += span;
  seg.live_bytes += span;
}

void SpillTier::UnlinkRecordLocked(SpillRecord& rec) {
  if (rec.seg_prev != nullptr) {
    rec.seg_prev->seg_next = rec.seg_next;
  } else {
    segments_[rec.seg]->records = rec.seg_next;
  }
  if (rec.seg_next != nullptr) {
    rec.seg_next->seg_prev = rec.seg_prev;
  }
}

void SpillTier::MaybeReclaimSealedLocked(uint32_t seg_id) {
  Segment* seg = segments_[seg_id].get();
  if (seg == nullptr || !seg->sealed) {
    return;
  }
  if (seg->live_bytes == 0) {
    DropSegmentLocked(seg_id);
    return;
  }
  uint64_t spanned = seg->live_bytes + seg->dead_bytes;
  if (seg->dead_bytes > 0 &&
      static_cast<double>(seg->dead_bytes) / static_cast<double>(spanned) >=
          kCompactDeadRatio) {
    CompactSegmentLocked(seg_id);
  }
}

void SpillTier::CompactSegmentLocked(uint32_t seg_id) {
  Segment* victim = segments_[seg_id].get();
  // Move records off the head of the victim's list until it is empty. The
  // record nodes stay put (blobs hold pointers to them); only their location
  // fields and list links change.
  while (SpillRecord* rec = victim->records) {
    Segment* dst = TailForAppendLocked(RecordSpan(rec->len));
    if (dst == nullptr) {
      return;  // disk trouble: abandon, the victim keeps serving its records
    }
    const uint8_t* payload = victim->map + rec->off;
    UnlinkRecordLocked(*rec);
    victim->live_bytes -= RecordSpan(rec->len);
    WriteRecordLocked(*dst, *rec, payload);
    records_rewritten_++;
  }
  segments_compacted_++;
  DropSegmentLocked(seg_id);
}

void SpillTier::DropSegmentLocked(uint32_t seg_id) {
  Segment* seg = segments_[seg_id].get();
  LW_CHECK(seg != nullptr && seg->live_bytes == 0 && seg_id != tail_);
  ::munmap(seg->map, segment_bytes_);
  dead_bytes_ -= seg->dead_bytes;
  segments_live_--;
  segments_[seg_id].reset();
}

}  // namespace lw
