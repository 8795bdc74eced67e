// FileData: the byte container behind every simfs regular file.
//
// Contents are a Vec of fixed-size chunks plus a length. An empty chunk is a
// hole that reads as zeros, so sparse files cost nothing until written. Every
// operation mutates in place: a FileData that lives in a session's guest heap
// is guest memory, so the snapshot engine captures it with the pages and a
// restore rolls it back, like any other guest state (the paper's §3.1
// "immutable files" are immutable because the whole address space is).
//
// The chunk Vecs allocate through the AllocHooks current when each Vec is
// constructed; SimFs installs its own hooks around every mutation.

#ifndef LWSNAP_SRC_SIMFS_FILE_H_
#define LWSNAP_SRC_SIMFS_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/util/vec.h"

namespace lw {

class FileData {
 public:
  static constexpr size_t kChunkSize = 4096;

  size_t size() const { return size_; }

  // Bytes of materialized (non-hole) chunks.
  size_t MaterializedBytes() const;

  // Reads up to `len` bytes at `offset` into `out`; returns the number of bytes
  // read (0 at or past EOF). Holes read as zeros.
  size_t Read(size_t offset, void* out, size_t len) const;

  // Writes `data[0, len)` at `offset`, extending the file (with a zero hole)
  // if the write lands past the current end.
  void Write(size_t offset, const void* data, size_t len);

  // Truncates or extends. Shrinking drops whole chunks past the new end and
  // zero-fills the tail of the boundary chunk (so re-extending reads zeros,
  // matching POSIX ftruncate semantics). Growing creates a hole.
  void Truncate(size_t new_size);

  // Whole-contents copy as a string (tests and small files only).
  std::string ToString() const;

  // Deep equality (byte-wise; holes equal to explicit zeros).
  bool ContentEquals(const FileData& other) const;

 private:
  // Each chunk is empty (a hole) or exactly kChunkSize bytes. Bytes past
  // size_ in a materialized chunk are always zero.
  Vec<Vec<uint8_t>> chunks_;
  size_t size_ = 0;
};

}  // namespace lw

#endif  // LWSNAP_SRC_SIMFS_FILE_H_
