#include "src/snapshot/spill_tier.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace lw {
namespace {

void StoreU32(uint8_t* dst, uint32_t v) { std::memcpy(dst, &v, sizeof(v)); }
void StoreU64(uint8_t* dst, uint64_t v) { std::memcpy(dst, &v, sizeof(v)); }

uint32_t LoadU32(const uint8_t* src) {
  uint32_t v;
  std::memcpy(&v, src, sizeof(v));
  return v;
}

uint64_t LoadU64(const uint8_t* src) {
  uint64_t v;
  std::memcpy(&v, src, sizeof(v));
  return v;
}

std::string SegmentPath(const std::string& dir, uint32_t id) {
  char name[48];
  std::snprintf(name, sizeof(name), "/seg-%06u.lwspill", id);
  return dir + name;
}

bool IsSegmentName(const char* name) {
  size_t n = std::strlen(name);
  static constexpr char kSuffix[] = ".lwspill";
  return n > sizeof(kSuffix) + 3 && std::strncmp(name, "seg-", 4) == 0 &&
         std::strcmp(name + n - (sizeof(kSuffix) - 1), kSuffix) == 0;
}

// Proves a leftover segment file is record-structured end to end. Anything
// that fails — short file, bad magic, record bounds escaping the file — is a
// torn/foreign file and surfaces as IoError from Open (the file is left in
// place as evidence; nothing gets mapped).
Status ValidateSegmentFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return IoError("cannot open spill segment " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return IoError("cannot stat spill segment " + path);
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size < SpillTier::kSegmentHeaderBytes) {
    ::close(fd);
    return IoError("truncated spill segment (no header): " + path);
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    return IoError("cannot map spill segment " + path);
  }
  const uint8_t* base = static_cast<const uint8_t*>(map);
  Status status = OkStatus();
  if (LoadU32(base) != SpillTier::kSegmentMagic) {
    status = IoError("bad segment magic: " + path);
  } else if (LoadU32(base + 4) != SpillTier::kFormatVersion) {
    status = IoError("unknown spill format version: " + path);
  } else if (LoadU64(base + 8) != size) {
    status = IoError("truncated spill segment: " + path);
  } else {
    uint64_t off = SpillTier::kSegmentHeaderBytes;
    while (off + SpillTier::kRecordHeaderBytes <= size) {
      uint32_t magic = LoadU32(base + off);
      if (magic == 0) {
        break;  // ftruncate zero-fill: end of appended records
      }
      uint32_t len = LoadU32(base + off + 8);
      uint64_t span = (SpillTier::kRecordHeaderBytes + len + 7u) & ~uint64_t{7};
      if (magic != SpillTier::kRecordMagic || len == 0 || span > size - off) {
        status = IoError("corrupt spill record: " + path);
        break;
      }
      off += span;
    }
  }
  ::munmap(map, size);
  return status;
}

}  // namespace

SpillTier::SpillTier(SpillTierOptions options) : options_(std::move(options)) {}

Result<std::unique_ptr<SpillTier>> SpillTier::Open(const SpillTierOptions& options) {
  if (options.dir.empty()) {
    return InvalidArgument("SpillTierOptions::dir is empty");
  }
  if (options.segment_bytes < kMinSegmentBytes) {
    return InvalidArgument("SpillTierOptions::segment_bytes below 64 KiB floor");
  }
  if (!(options.compact_dead_ratio > 0.0) || options.compact_dead_ratio > 1.0) {
    return InvalidArgument("SpillTierOptions::compact_dead_ratio must be in (0, 1]");
  }
  if (::mkdir(options.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return IoError("cannot create spill directory " + options.dir);
  }
  struct stat st;
  if (::stat(options.dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return IoError("spill path is not a directory: " + options.dir);
  }
  // A previous instance that crashed leaves its segments behind; their records'
  // owning blobs died with that process, so valid leftovers are deleted. A
  // leftover that fails validation aborts Open instead — never map a torn file.
  DIR* d = ::opendir(options.dir.c_str());
  if (d == nullptr) {
    return IoError("cannot scan spill directory " + options.dir);
  }
  while (struct dirent* e = ::readdir(d)) {
    if (!IsSegmentName(e->d_name)) {
      continue;
    }
    std::string path = options.dir + "/" + e->d_name;
    Status status = ValidateSegmentFile(path);
    if (!status.ok()) {
      ::closedir(d);
      return status;
    }
    ::unlink(path.c_str());
  }
  ::closedir(d);
  return std::unique_ptr<SpillTier>(new SpillTier(options));
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
    ::munmap(seg->map, options_.segment_bytes);
    ::close(seg->fd);
    ::unlink(seg->path.c_str());
  }
}

SpillRecord* SpillTier::Append(uint64_t hash, const void* payload, uint32_t len,
                               uint32_t comp_bytes) {
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
  WriteRecordLocked(*seg, *rec, hash, payload);
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
    if (tail->used + need <= options_.segment_bytes) {
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
  uint32_t id = static_cast<uint32_t>(segments_.size());
  auto seg = std::make_unique<Segment>();
  seg->id = id;
  seg->path = SegmentPath(options_.dir, id);
  int fd = ::open(seg->path.c_str(), O_RDWR | O_CREAT | O_EXCL, 0644);
  if (fd < 0) {
    return nullptr;
  }
  // Reserve every block up front: a sparse file would let a full disk surface
  // as SIGBUS on a later store through the shared mapping instead of as this
  // clean failure. posix_fallocate returns an error number, not -1.
  if (::ftruncate(fd, static_cast<off_t>(options_.segment_bytes)) != 0 ||
      ::posix_fallocate(fd, 0, static_cast<off_t>(options_.segment_bytes)) != 0) {
    ::close(fd);
    ::unlink(seg->path.c_str());
    return nullptr;
  }
  void* map = ::mmap(nullptr, options_.segment_bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (map == MAP_FAILED) {
    ::close(fd);
    ::unlink(seg->path.c_str());
    return nullptr;
  }
  seg->fd = fd;
  seg->map = static_cast<uint8_t*>(map);
  StoreU32(seg->map, kSegmentMagic);
  StoreU32(seg->map + 4, kFormatVersion);
  StoreU64(seg->map + 8, options_.segment_bytes);
  seg->used = kSegmentHeaderBytes;
  segments_.push_back(std::move(seg));
  tail_ = id;
  segments_live_++;
  return segments_[id].get();
}

void SpillTier::WriteRecordLocked(Segment& seg, SpillRecord& rec, uint64_t hash,
                                  const void* payload) {
  uint64_t span = RecordSpan(rec.len);
  LW_CHECK(seg.used + span <= options_.segment_bytes);
  uint8_t* base = seg.map + seg.used;
  StoreU32(base, kRecordMagic);
  StoreU32(base + 4, rec.comp_bytes);
  StoreU32(base + 8, rec.len);
  StoreU32(base + 12, 0);
  StoreU64(base + 16, hash);
  std::memcpy(base + kRecordHeaderBytes, payload, rec.len);
  rec.seg = seg.id;
  rec.off = seg.used + kRecordHeaderBytes;
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
          options_.compact_dead_ratio) {
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
    const uint8_t* header = victim->map + rec->off - kRecordHeaderBytes;
    UnlinkRecordLocked(*rec);
    victim->live_bytes -= RecordSpan(rec->len);
    WriteRecordLocked(*dst, *rec, LoadU64(header + 16), header + kRecordHeaderBytes);
    records_rewritten_++;
  }
  segments_compacted_++;
  DropSegmentLocked(seg_id);
}

void SpillTier::DropSegmentLocked(uint32_t seg_id) {
  Segment* seg = segments_[seg_id].get();
  LW_CHECK(seg != nullptr && seg->live_bytes == 0 && seg_id != tail_);
  ::munmap(seg->map, options_.segment_bytes);
  ::close(seg->fd);
  ::unlink(seg->path.c_str());
  dead_bytes_ -= seg->dead_bytes;
  segments_live_--;
  segments_[seg_id].reset();
}

}  // namespace lw
