#include "src/simfs/fs.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/simfs/path.h"

namespace lw {

namespace {

std::string_view NameOf(const Vec<char>& name) { return {name.data(), name.size()}; }

}  // namespace

SimFs::SimFs() : hooks_(CurrentAllocHooks()) {
  inodes_.resize(kRootIno + 1);
  Inode& root = inodes_[kRootIno];
  root.live = true;
  root.type = NodeType::kDir;
  root.version = ++version_tick_;
  live_inodes_ = 1;
}

SimFs::Inode* SimFs::GetInode(uint64_t ino) {
  if (ino >= inodes_.size() || !inodes_[ino].live) {
    return nullptr;
  }
  return &inodes_[ino];
}

const SimFs::Inode* SimFs::GetInode(uint64_t ino) const {
  return const_cast<SimFs*>(this)->GetInode(ino);
}

Result<SimFs::Inode*> SimFs::GetFile(uint64_t ino) {
  Inode* node = GetInode(ino);
  if (node == nullptr) {
    return NotFound("simfs: no such inode");
  }
  if (node->type != NodeType::kFile) {
    return BadState("simfs: not a regular file");
  }
  return node;
}

size_t SimFs::LowerBound(const Inode& dir, std::string_view name) {
  const DirEntry* it = std::lower_bound(
      dir.entries.begin(), dir.entries.end(), name,
      [](const DirEntry& entry, std::string_view key) { return NameOf(entry.name) < key; });
  return static_cast<size_t>(it - dir.entries.begin());
}

uint64_t SimFs::FindEntry(const Inode& dir, std::string_view name) {
  size_t pos = LowerBound(dir, name);
  if (pos < dir.entries.size() && NameOf(dir.entries[pos].name) == name) {
    return dir.entries[pos].ino;
  }
  return 0;
}

void SimFs::SetEntry(Inode& dir, std::string_view name, uint64_t ino) {
  size_t pos = LowerBound(dir, name);
  if (pos < dir.entries.size() && NameOf(dir.entries[pos].name) == name) {
    dir.entries[pos].ino = ino;
    return;
  }
  DirEntry& entry = dir.entries.emplace_back();
  entry.name.resize(name.size());
  std::memcpy(entry.name.data(), name.data(), name.size());
  entry.ino = ino;
  std::rotate(dir.entries.begin() + pos, dir.entries.end() - 1, dir.entries.end());
}

void SimFs::EraseEntry(Inode& dir, std::string_view name) {
  size_t pos = LowerBound(dir, name);
  LW_CHECK(pos < dir.entries.size() && NameOf(dir.entries[pos].name) == name);
  std::rotate(dir.entries.begin() + pos, dir.entries.begin() + pos + 1, dir.entries.end());
  dir.entries.pop_back();
}

Result<uint64_t> SimFs::AllocIno() {
  // Round-robin over [kRootIno + 1, kMaxInodes) from the cursor, so a freed
  // number is reused only after the rest of the space.
  constexpr uint64_t kSpan = kMaxInodes - kRootIno - 1;
  for (uint64_t probe = 0; probe < kSpan; ++probe) {
    uint64_t candidate = kRootIno + 1 + (next_ino_ - kRootIno - 1 + probe) % kSpan;
    while (inodes_.size() <= candidate) {
      inodes_.emplace_back();
    }
    if (!inodes_[candidate].live) {
      next_ino_ = candidate + 1;
      return candidate;
    }
  }
  return OutOfMemory("simfs: inode table full");
}

void SimFs::FreeIno(uint64_t ino) {
  inodes_[ino] = Inode();  // drops the file's chunks or the directory's entries
  --live_inodes_;
}

Result<uint64_t> SimFs::ResolveParent(std::string_view path, std::string* name) const {
  std::vector<std::string> components;
  if (!SplitPath(path, &components)) {
    return InvalidArgument("simfs: bad path");
  }
  if (components.empty()) {
    return InvalidArgument("simfs: path is the root");
  }
  *name = components.back();
  components.pop_back();
  uint64_t ino = kRootIno;
  for (const std::string& part : components) {
    const Inode* dir = GetInode(ino);
    if (dir == nullptr || dir->type != NodeType::kDir) {
      return NotFound("simfs: missing directory in path");
    }
    ino = FindEntry(*dir, part);
    if (ino == 0) {
      return NotFound("simfs: missing directory in path");
    }
  }
  const Inode* parent = GetInode(ino);
  if (parent == nullptr || parent->type != NodeType::kDir) {
    return NotFound("simfs: parent is not a directory");
  }
  return ino;
}

Result<uint64_t> SimFs::Lookup(std::string_view path) const {
  std::vector<std::string> components;
  if (!SplitPath(path, &components)) {
    return InvalidArgument("simfs: bad path");
  }
  uint64_t ino = kRootIno;
  for (const std::string& part : components) {
    const Inode* node = GetInode(ino);
    if (node == nullptr || node->type != NodeType::kDir) {
      return NotFound("simfs: no such path");
    }
    ino = FindEntry(*node, part);
    if (ino == 0) {
      return NotFound("simfs: no such path");
    }
  }
  return ino;
}

Result<uint64_t> SimFs::CreateNode(std::string_view path, NodeType type) {
  ScopedAllocHooks scoped(hooks_);
  std::string name;
  LW_ASSIGN_OR_RETURN(uint64_t parent_ino, ResolveParent(path, &name));
  if (FindEntry(inodes_[parent_ino], name) != 0) {
    return AlreadyExists("simfs: entry exists");
  }
  LW_ASSIGN_OR_RETURN(uint64_t ino, AllocIno());  // may grow inodes_

  Inode& node = inodes_[ino];
  node.live = true;
  node.type = type;
  node.version = ++version_tick_;

  Inode& parent = inodes_[parent_ino];
  SetEntry(parent, name, ino);
  parent.version = ++version_tick_;
  ++live_inodes_;
  return ino;
}

Result<uint64_t> SimFs::Create(std::string_view path) {
  return CreateNode(path, NodeType::kFile);
}

Result<uint64_t> SimFs::Mkdir(std::string_view path) {
  return CreateNode(path, NodeType::kDir);
}

Result<SimFsStat> SimFs::StatIno(uint64_t ino) const {
  const Inode* node = GetInode(ino);
  if (node == nullptr) {
    return NotFound("simfs: no such inode");
  }
  SimFsStat st;
  st.ino = ino;
  st.type = node->type;
  st.size = node->type == NodeType::kFile ? node->data.size() : node->entries.size();
  st.version = node->version;
  return st;
}

Result<SimFsStat> SimFs::Stat(std::string_view path) const {
  LW_ASSIGN_OR_RETURN(uint64_t ino, Lookup(path));
  return StatIno(ino);
}

Status SimFs::Unlink(std::string_view path) {
  ScopedAllocHooks scoped(hooks_);
  std::string name;
  LW_ASSIGN_OR_RETURN(uint64_t parent_ino, ResolveParent(path, &name));
  Inode& parent = inodes_[parent_ino];
  uint64_t victim_ino = FindEntry(parent, name);
  if (victim_ino == 0) {
    return NotFound("simfs: no such entry");
  }
  const Inode* victim = GetInode(victim_ino);
  LW_CHECK(victim != nullptr);
  if (victim->type == NodeType::kDir && !victim->entries.empty()) {
    return BadState("simfs: directory not empty");
  }
  EraseEntry(parent, name);
  parent.version = ++version_tick_;
  FreeIno(victim_ino);
  return OkStatus();
}

Status SimFs::Rename(std::string_view from, std::string_view to) {
  ScopedAllocHooks scoped(hooks_);
  std::string from_name;
  std::string to_name;
  LW_ASSIGN_OR_RETURN(uint64_t from_parent_ino, ResolveParent(from, &from_name));
  LW_ASSIGN_OR_RETURN(uint64_t to_parent_ino, ResolveParent(to, &to_name));

  uint64_t moved_ino = FindEntry(inodes_[from_parent_ino], from_name);
  if (moved_ino == 0) {
    return NotFound("simfs: rename source missing");
  }
  const bool moved_is_dir = GetInode(moved_ino)->type == NodeType::kDir;

  uint64_t replaced_ino = FindEntry(inodes_[to_parent_ino], to_name);
  if (replaced_ino != 0) {
    if (replaced_ino == moved_ino) {
      return OkStatus();  // rename to self
    }
    const Inode* target = GetInode(replaced_ino);
    LW_CHECK(target != nullptr);
    if (target->type == NodeType::kDir) {
      return BadState("simfs: rename onto a directory");
    }
    if (moved_is_dir) {
      return BadState("simfs: rename directory onto a file");
    }
  }

  // A directory must not be moved under itself (classic rename cycle check).
  if (moved_is_dir) {
    std::string to_norm = NormalizePath(to);
    std::string from_norm = NormalizePath(from);
    if (to_norm.size() > from_norm.size() && to_norm.compare(0, from_norm.size(), from_norm) == 0 &&
        to_norm[from_norm.size()] == '/') {
      return BadState("simfs: rename into own subtree");
    }
  }

  Inode& from_parent = inodes_[from_parent_ino];
  EraseEntry(from_parent, from_name);
  from_parent.version = ++version_tick_;
  Inode& to_parent = inodes_[to_parent_ino];
  SetEntry(to_parent, to_name, moved_ino);
  to_parent.version = ++version_tick_;
  if (replaced_ino != 0) {
    FreeIno(replaced_ino);
  }
  return OkStatus();
}

Result<std::vector<std::string>> SimFs::Readdir(std::string_view path) const {
  LW_ASSIGN_OR_RETURN(uint64_t ino, Lookup(path));
  const Inode* node = GetInode(ino);
  if (node->type != NodeType::kDir) {
    return BadState("simfs: not a directory");
  }
  std::vector<std::string> names;
  names.reserve(node->entries.size());
  for (const DirEntry& entry : node->entries) {
    names.emplace_back(NameOf(entry.name));
  }
  return names;  // entries are kept sorted
}

Result<size_t> SimFs::ReadAt(uint64_t ino, uint64_t offset, void* out, size_t len) const {
  LW_ASSIGN_OR_RETURN(Inode * node, const_cast<SimFs*>(this)->GetFile(ino));
  return node->data.Read(offset, out, len);
}

Result<size_t> SimFs::WriteAt(uint64_t ino, uint64_t offset, const void* data, size_t len) {
  ScopedAllocHooks scoped(hooks_);
  LW_ASSIGN_OR_RETURN(Inode * node, GetFile(ino));
  node->data.Write(offset, data, len);
  node->version = ++version_tick_;
  return len;
}

Status SimFs::Truncate(uint64_t ino, uint64_t new_size) {
  LW_ASSIGN_OR_RETURN(Inode * node, GetFile(ino));
  node->data.Truncate(new_size);
  node->version = ++version_tick_;
  return OkStatus();
}

}  // namespace lw
