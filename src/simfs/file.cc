#include "src/simfs/file.h"

#include <algorithm>
#include <cstring>

#include "src/util/status.h"

namespace lw {

size_t FileData::MaterializedBytes() const {
  size_t total = 0;
  for (const Vec<uint8_t>& c : chunks_) {
    total += c.size();
  }
  return total;
}

size_t FileData::Read(size_t offset, void* out, size_t len) const {
  if (offset >= size_ || len == 0) {
    return 0;
  }
  len = std::min(len, size_ - offset);
  uint8_t* dst = static_cast<uint8_t*>(out);
  size_t done = 0;
  while (done < len) {
    size_t pos = offset + done;
    size_t chunk = pos / kChunkSize;
    size_t in_chunk = pos % kChunkSize;
    size_t n = std::min(len - done, kChunkSize - in_chunk);
    if (chunk < chunks_.size() && !chunks_[chunk].empty()) {
      std::memcpy(dst + done, chunks_[chunk].data() + in_chunk, n);
    } else {
      std::memset(dst + done, 0, n);
    }
    done += n;
  }
  return len;
}

void FileData::Write(size_t offset, const void* data, size_t len) {
  if (len == 0) {
    return;
  }
  size_t end = offset + len;
  LW_CHECK_MSG(end >= offset, "file write overflows size_t");
  size_t needed_chunks = (end + kChunkSize - 1) / kChunkSize;
  if (chunks_.size() < needed_chunks) {
    chunks_.resize(needed_chunks);  // new slots are holes
  }
  const uint8_t* src = static_cast<const uint8_t*>(data);
  size_t done = 0;
  while (done < len) {
    size_t pos = offset + done;
    size_t in_chunk = pos % kChunkSize;
    size_t n = std::min(len - done, kChunkSize - in_chunk);
    Vec<uint8_t>& chunk = chunks_[pos / kChunkSize];
    if (chunk.empty()) {
      chunk.resize(kChunkSize, 0);
    }
    std::memcpy(chunk.data() + in_chunk, src + done, n);
    done += n;
  }
  size_ = std::max(size_, end);
}

void FileData::Truncate(size_t new_size) {
  if (new_size < size_) {
    size_t keep_chunks = (new_size + kChunkSize - 1) / kChunkSize;
    if (chunks_.size() > keep_chunks) {
      chunks_.resize(keep_chunks);
    }
    // Zero the dropped tail of the boundary chunk so a later extend reads zeros.
    size_t in_chunk = new_size % kChunkSize;
    if (in_chunk != 0 && keep_chunks <= chunks_.size() && !chunks_[keep_chunks - 1].empty()) {
      std::memset(chunks_[keep_chunks - 1].data() + in_chunk, 0, kChunkSize - in_chunk);
    }
  }
  size_ = new_size;  // growing: a hole, no chunks materialized
}

std::string FileData::ToString() const {
  std::string s(size_, '\0');
  if (size_ != 0) {
    Read(0, s.data(), size_);
  }
  return s;
}

bool FileData::ContentEquals(const FileData& other) const {
  if (size_ != other.size_) {
    return false;
  }
  uint8_t a[kChunkSize];
  uint8_t b[kChunkSize];
  for (size_t off = 0; off < size_; off += kChunkSize) {
    size_t n = std::min(kChunkSize, size_ - off);
    Read(off, a, n);
    other.Read(off, b, n);
    if (std::memcmp(a, b, n) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace lw
