// FdTable: per-candidate open-file state.
//
// The paper's partial candidates include "immutable files"; open descriptors
// (which file, current offset, mode) are part of that state. A session places
// its table in its guest heap beside its SimFs (see fs.h), so the snapshot
// engine carries every descriptor and offset with the pages. The slots are an
// lw::Vec, which allocates through the AllocHooks current at construction.
// Descriptors 0..2 are reserved for the interposed standard streams and never
// appear here.

#ifndef LWSNAP_SRC_SIMFS_FD_TABLE_H_
#define LWSNAP_SRC_SIMFS_FD_TABLE_H_

#include <cstdint>

#include "src/util/status.h"
#include "src/util/vec.h"

namespace lw {

// open(2)-style flags, restricted to what simfs supports.
enum OpenFlags : uint32_t {
  kOpenRead = 1u << 0,
  kOpenWrite = 1u << 1,
  kOpenCreate = 1u << 2,  // create if missing (requires kOpenWrite)
  kOpenTrunc = 1u << 3,   // truncate to zero on open (requires kOpenWrite)
  kOpenAppend = 1u << 4,  // every write lands at EOF
};

enum class SeekWhence : uint8_t {
  kSet,
  kCur,
  kEnd,
};

struct FdEntry {
  bool open = false;
  uint64_t ino = 0;
  uint64_t offset = 0;
  uint32_t flags = 0;
};

class FdTable {
 public:
  static constexpr int kFirstFd = 3;
  static constexpr int kMaxFds = 1024;

  // Lowest-free-slot allocation, like POSIX.
  Result<int> Alloc(uint64_t ino, uint32_t flags);
  Status Close(int fd);

  // nullptr when fd is invalid or closed.
  FdEntry* Get(int fd);
  const FdEntry* Get(int fd) const;

  size_t open_count() const;

 private:
  Vec<FdEntry> slots_;  // index 0 == fd kFirstFd
};

}  // namespace lw

#endif  // LWSNAP_SRC_SIMFS_FD_TABLE_H_
