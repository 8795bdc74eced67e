// SimFs: an in-memory filesystem kept as plain mutable data.
//
// This is the "logical copy of open disk files" of §3.1 and §4. A session
// places its SimFs in its guest heap, so the inode table, every directory and
// every file chunk are guest memory: the snapshot engine captures them with
// the pages at each guess point and restores them on backtrack, and a failed
// extension's file effects vanish with no undo log. Host-only callers (unit
// tests) build one on the host heap instead.
//
// Every structure is an lw::Vec: the inode table is indexed by inode number, a
// directory is a Vec of (name, ino) entries sorted by name, and a regular file
// is a FileData. A SimFs allocates through the AllocHooks current at its
// construction for its whole life, whatever hooks its callers run under:
//
//   ScopedAllocHooks hooks(session.heap()->Hooks());
//   SimFs* fs = GuestNew<SimFs>(session.heap());
//
// Under kCow, build and pre-populate it on the thread that constructed the
// session, as GuestHeap::Init is: that thread owns the alternate signal stack
// the arena's write faults need.
//
// Only regular files and directories exist, matching the paper's §5 soundness
// rule ("only open regular files but not devices"); everything else is the
// interposition layer's job to refuse.

#ifndef LWSNAP_SRC_SIMFS_FS_H_
#define LWSNAP_SRC_SIMFS_FS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/simfs/file.h"
#include "src/util/alloc_hooks.h"
#include "src/util/status.h"
#include "src/util/vec.h"

namespace lw {

enum class NodeType : uint8_t {
  kFile,
  kDir,
};

struct SimFsStat {
  uint64_t ino = 0;
  NodeType type = NodeType::kFile;
  uint64_t size = 0;     // bytes for files, entry count for directories
  uint64_t version = 0;  // rises on every mutation of the inode
};

class SimFs {
 public:
  SimFs();

  SimFs(const SimFs&) = delete;
  SimFs& operator=(const SimFs&) = delete;

  static constexpr uint64_t kRootIno = 1;
  // Size of the inode-number space.
  static constexpr uint64_t kMaxInodes = 1u << 16;

  // --- Namespace operations (absolute normalized-on-entry paths) ---

  // Creates an empty regular file; parent directory must exist.
  Result<uint64_t> Create(std::string_view path);
  Result<uint64_t> Mkdir(std::string_view path);
  // Resolves a path to its inode number.
  Result<uint64_t> Lookup(std::string_view path) const;
  Result<SimFsStat> Stat(std::string_view path) const;
  Result<SimFsStat> StatIno(uint64_t ino) const;
  // Removes a file or *empty* directory.
  Status Unlink(std::string_view path);
  // Atomically moves `from` to `to`, replacing a regular-file `to` (POSIX
  // rename semantics; refuses to replace directories).
  Status Rename(std::string_view from, std::string_view to);
  // Sorted entry names of a directory.
  Result<std::vector<std::string>> Readdir(std::string_view path) const;

  // --- File I/O by inode number (fd-table layering lives in fd_table.h) ---

  Result<size_t> ReadAt(uint64_t ino, uint64_t offset, void* out, size_t len) const;
  Result<size_t> WriteAt(uint64_t ino, uint64_t offset, const void* data, size_t len);
  Status Truncate(uint64_t ino, uint64_t new_size);

  uint64_t live_inodes() const { return live_inodes_; }

 private:
  struct DirEntry {
    Vec<char> name;
    uint64_t ino = 0;
  };
  struct Inode {
    bool live = false;
    NodeType type = NodeType::kFile;
    uint64_t version = 0;
    FileData data;          // kFile
    Vec<DirEntry> entries;  // kDir, sorted by name
  };

  Inode* GetInode(uint64_t ino);
  const Inode* GetInode(uint64_t ino) const;
  // Inode `ino` if it is a live regular file, else the error to return.
  Result<Inode*> GetFile(uint64_t ino);
  // Index of the first entry of `dir` whose name is not less than `name`.
  static size_t LowerBound(const Inode& dir, std::string_view name);
  // The inode `name` names in `dir`, or 0.
  static uint64_t FindEntry(const Inode& dir, std::string_view name);
  // Points `name` at `ino` in `dir`, adding the entry if it is missing.
  static void SetEntry(Inode& dir, std::string_view name, uint64_t ino);
  static void EraseEntry(Inode& dir, std::string_view name);
  // Resolves the parent directory of `path`; fills `name` with the final
  // component. Fails on "/", invalid paths, or a missing/non-dir parent.
  Result<uint64_t> ResolveParent(std::string_view path, std::string* name) const;
  Result<uint64_t> AllocIno();
  void FreeIno(uint64_t ino);
  Result<uint64_t> CreateNode(std::string_view path, NodeType type);

  AllocHooks hooks_;
  Vec<Inode> inodes_;  // indexed by inode number
  uint64_t next_ino_ = kRootIno + 1;
  uint64_t live_inodes_ = 0;
  uint64_t version_tick_ = 0;
};

}  // namespace lw

#endif  // LWSNAP_SRC_SIMFS_FS_H_
