#include "src/interpose/guest_io.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/core/guest_api.h"
#include "src/simfs/path.h"

namespace lw {

namespace {
thread_local GuestIo* g_current_io = nullptr;
}  // namespace

GuestIo* GuestIo::Current() { return g_current_io; }
void GuestIo::SetCurrent(GuestIo* io) { g_current_io = io; }

GuestIo::GuestIo(SimFs* fs, FdTable* fds, InterposePolicy policy)
    : fs_(fs), fds_(fds), policy_(std::move(policy)) {
  LW_CHECK(fs_ != nullptr && fds_ != nullptr);
}

PolicyDecision GuestIo::Gate(GuestSyscall call) {
  stats_.invoked[static_cast<size_t>(call)]++;
  PolicyDecision d = policy_.Check(call);
  if (d == PolicyDecision::kDeny) {
    stats_.denied[static_cast<size_t>(call)]++;
  }
  return d;
}

PolicyDecision GuestIo::GatePath(GuestSyscall call, const char* path, std::string* normalized) {
  stats_.invoked[static_cast<size_t>(call)]++;
  *normalized = NormalizePath(path != nullptr ? path : "");
  PolicyDecision d = normalized->empty() ? PolicyDecision::kDeny
                                         : policy_.CheckPath(call, *normalized);
  if (d == PolicyDecision::kDeny) {
    stats_.denied[static_cast<size_t>(call)]++;
  }
  return d;
}

int GuestIo::Open(const char* path, uint32_t flags) {
  std::string norm;
  if (GatePath(GuestSyscall::kOpen, path, &norm) == PolicyDecision::kDeny) {
    return ToError(PermissionDenied(""));
  }
  if ((flags & (kOpenRead | kOpenWrite)) == 0) {
    return ToError(InvalidArgument(""));
  }
  const bool wants_write = (flags & (kOpenWrite | kOpenCreate | kOpenTrunc | kOpenAppend)) != 0;
  if (wants_write && !policy_.allows_file_mutation()) {
    stats_.denied[static_cast<size_t>(GuestSyscall::kOpen)]++;
    return ToError(PermissionDenied(""));
  }

  auto ino = fs_->Lookup(norm);
  if (!ino.ok()) {
    if ((flags & kOpenCreate) == 0) {
      stats_.failed[static_cast<size_t>(GuestSyscall::kOpen)]++;
      return ToError(ino.status());
    }
    ino = fs_->Create(norm);
    if (!ino.ok()) {
      stats_.failed[static_cast<size_t>(GuestSyscall::kOpen)]++;
      return ToError(ino.status());
    }
  }
  auto st = fs_->StatIno(*ino);
  LW_CHECK(st.ok());
  if (st->type != NodeType::kFile) {
    // Directories are reached through Readdir/Stat, never open(2) — part of the
    // sound-minimal surface.
    stats_.failed[static_cast<size_t>(GuestSyscall::kOpen)]++;
    return ToError(BadState(""));
  }
  if ((flags & kOpenTrunc) != 0) {
    Status s = fs_->Truncate(*ino, 0);
    LW_CHECK(s.ok());
  }
  auto fd = fds_->Alloc(*ino, flags);
  if (!fd.ok()) {
    stats_.failed[static_cast<size_t>(GuestSyscall::kOpen)]++;
    return ToError(fd.status());
  }
  return *fd;
}

int GuestIo::Close(int fd) {
  if (Gate(GuestSyscall::kClose) == PolicyDecision::kDeny) {
    return ToError(PermissionDenied(""));
  }
  Status s = fds_->Close(fd);
  if (!s.ok()) {
    stats_.failed[static_cast<size_t>(GuestSyscall::kClose)]++;
    return ToError(s);
  }
  return 0;
}

int64_t GuestIo::Read(int fd, void* buf, size_t len) {
  if (Gate(GuestSyscall::kRead) == PolicyDecision::kDeny) {
    return ToError(PermissionDenied(""));
  }
  if (fd == 0) {
    return 0;  // interposed stdin: EOF
  }
  FdEntry* e = fds_->Get(fd);
  if (e == nullptr || (e->flags & kOpenRead) == 0) {
    stats_.failed[static_cast<size_t>(GuestSyscall::kRead)]++;
    return ToError(InvalidArgument(""));
  }
  auto n = fs_->ReadAt(e->ino, e->offset, buf, len);
  if (!n.ok()) {
    stats_.failed[static_cast<size_t>(GuestSyscall::kRead)]++;
    return ToError(n.status());
  }
  e->offset += *n;
  return static_cast<int64_t>(*n);
}

int64_t GuestIo::Write(int fd, const void* buf, size_t len) {
  if (Gate(GuestSyscall::kWrite) == PolicyDecision::kDeny) {
    return ToError(PermissionDenied(""));
  }
  if (fd == 1 || fd == 2) {
    // The interposed standard streams: containment is the session's job
    // (buffered per path or forwarded, per SessionOptions::buffer_output).
    // Outside a session (host-side tests), fall through to the host streams.
    if (CurrentExecutor() != nullptr) {
      sys_emit(buf, len);
    } else {
      std::fwrite(buf, 1, len, fd == 1 ? stdout : stderr);
    }
    return static_cast<int64_t>(len);
  }
  FdEntry* e = fds_->Get(fd);
  if (e == nullptr || (e->flags & kOpenWrite) == 0) {
    stats_.failed[static_cast<size_t>(GuestSyscall::kWrite)]++;
    return ToError(InvalidArgument(""));
  }
  if ((e->flags & kOpenAppend) != 0) {
    auto st = fs_->StatIno(e->ino);
    LW_CHECK(st.ok());
    e->offset = st->size;
  }
  auto n = fs_->WriteAt(e->ino, e->offset, buf, len);
  if (!n.ok()) {
    stats_.failed[static_cast<size_t>(GuestSyscall::kWrite)]++;
    return ToError(n.status());
  }
  e->offset += *n;
  return static_cast<int64_t>(*n);
}

int64_t GuestIo::Pread(int fd, void* buf, size_t len, uint64_t offset) {
  if (Gate(GuestSyscall::kPread) == PolicyDecision::kDeny) {
    return ToError(PermissionDenied(""));
  }
  FdEntry* e = fds_->Get(fd);
  if (e == nullptr || (e->flags & kOpenRead) == 0) {
    stats_.failed[static_cast<size_t>(GuestSyscall::kPread)]++;
    return ToError(InvalidArgument(""));
  }
  auto n = fs_->ReadAt(e->ino, offset, buf, len);
  if (!n.ok()) {
    stats_.failed[static_cast<size_t>(GuestSyscall::kPread)]++;
    return ToError(n.status());
  }
  return static_cast<int64_t>(*n);
}

int64_t GuestIo::Pwrite(int fd, const void* buf, size_t len, uint64_t offset) {
  if (Gate(GuestSyscall::kPwrite) == PolicyDecision::kDeny) {
    return ToError(PermissionDenied(""));
  }
  FdEntry* e = fds_->Get(fd);
  if (e == nullptr || (e->flags & kOpenWrite) == 0) {
    stats_.failed[static_cast<size_t>(GuestSyscall::kPwrite)]++;
    return ToError(InvalidArgument(""));
  }
  auto n = fs_->WriteAt(e->ino, offset, buf, len);
  if (!n.ok()) {
    stats_.failed[static_cast<size_t>(GuestSyscall::kPwrite)]++;
    return ToError(n.status());
  }
  return static_cast<int64_t>(*n);
}

int64_t GuestIo::Lseek(int fd, int64_t offset, SeekWhence whence) {
  if (Gate(GuestSyscall::kLseek) == PolicyDecision::kDeny) {
    return ToError(PermissionDenied(""));
  }
  FdEntry* e = fds_->Get(fd);
  if (e == nullptr) {
    stats_.failed[static_cast<size_t>(GuestSyscall::kLseek)]++;
    return ToError(InvalidArgument(""));
  }
  int64_t base = 0;
  switch (whence) {
    case SeekWhence::kSet:
      base = 0;
      break;
    case SeekWhence::kCur:
      base = static_cast<int64_t>(e->offset);
      break;
    case SeekWhence::kEnd: {
      auto st = fs_->StatIno(e->ino);
      LW_CHECK(st.ok());
      base = static_cast<int64_t>(st->size);
      break;
    }
  }
  int64_t target = base + offset;
  if (target < 0) {
    stats_.failed[static_cast<size_t>(GuestSyscall::kLseek)]++;
    return ToError(InvalidArgument(""));
  }
  e->offset = static_cast<uint64_t>(target);
  return target;
}

int GuestIo::Stat(const char* path, SimFsStat* out) {
  std::string norm;
  if (GatePath(GuestSyscall::kStat, path, &norm) == PolicyDecision::kDeny) {
    return ToError(PermissionDenied(""));
  }
  auto st = fs_->Stat(norm);
  if (!st.ok()) {
    stats_.failed[static_cast<size_t>(GuestSyscall::kStat)]++;
    return ToError(st.status());
  }
  *out = *st;
  return 0;
}

int GuestIo::Fstat(int fd, SimFsStat* out) {
  if (Gate(GuestSyscall::kFstat) == PolicyDecision::kDeny) {
    return ToError(PermissionDenied(""));
  }
  FdEntry* e = fds_->Get(fd);
  if (e == nullptr) {
    stats_.failed[static_cast<size_t>(GuestSyscall::kFstat)]++;
    return ToError(InvalidArgument(""));
  }
  auto st = fs_->StatIno(e->ino);
  if (!st.ok()) {
    stats_.failed[static_cast<size_t>(GuestSyscall::kFstat)]++;
    return ToError(st.status());
  }
  *out = *st;
  return 0;
}

int GuestIo::Truncate(const char* path, uint64_t new_size) {
  std::string norm;
  if (GatePath(GuestSyscall::kTruncate, path, &norm) == PolicyDecision::kDeny) {
    return ToError(PermissionDenied(""));
  }
  auto ino = fs_->Lookup(norm);
  if (!ino.ok()) {
    stats_.failed[static_cast<size_t>(GuestSyscall::kTruncate)]++;
    return ToError(ino.status());
  }
  Status s = fs_->Truncate(*ino, new_size);
  if (!s.ok()) {
    stats_.failed[static_cast<size_t>(GuestSyscall::kTruncate)]++;
    return ToError(s);
  }
  return 0;
}

int GuestIo::Unlink(const char* path) {
  std::string norm;
  if (GatePath(GuestSyscall::kUnlink, path, &norm) == PolicyDecision::kDeny) {
    return ToError(PermissionDenied(""));
  }
  Status s = fs_->Unlink(norm);
  if (!s.ok()) {
    stats_.failed[static_cast<size_t>(GuestSyscall::kUnlink)]++;
    return ToError(s);
  }
  return 0;
}

int GuestIo::Mkdir(const char* path) {
  std::string norm;
  if (GatePath(GuestSyscall::kMkdir, path, &norm) == PolicyDecision::kDeny) {
    return ToError(PermissionDenied(""));
  }
  auto ino = fs_->Mkdir(norm);
  if (!ino.ok()) {
    stats_.failed[static_cast<size_t>(GuestSyscall::kMkdir)]++;
    return ToError(ino.status());
  }
  return 0;
}

int64_t GuestIo::Readdir(const char* path, char* buf, size_t cap) {
  std::string norm;
  if (GatePath(GuestSyscall::kReaddir, path, &norm) == PolicyDecision::kDeny) {
    return ToError(PermissionDenied(""));
  }
  auto names = fs_->Readdir(norm);
  if (!names.ok()) {
    stats_.failed[static_cast<size_t>(GuestSyscall::kReaddir)]++;
    return ToError(names.status());
  }
  size_t used = 0;
  for (const std::string& name : *names) {
    if (used + name.size() + 1 > cap) {
      stats_.failed[static_cast<size_t>(GuestSyscall::kReaddir)]++;
      return ToError(OutOfRange(""));
    }
    std::memcpy(buf + used, name.data(), name.size());
    used += name.size();
    buf[used++] = '\0';
  }
  return static_cast<int64_t>(used);
}

int GuestIo::Rename(const char* from, const char* to) {
  std::string from_norm;
  if (GatePath(GuestSyscall::kRename, from, &from_norm) == PolicyDecision::kDeny) {
    return ToError(PermissionDenied(""));
  }
  std::string to_norm = NormalizePath(to != nullptr ? to : "");
  if (to_norm.empty() ||
      policy_.CheckPath(GuestSyscall::kRename, to_norm) == PolicyDecision::kDeny) {
    stats_.denied[static_cast<size_t>(GuestSyscall::kRename)]++;
    return ToError(PermissionDenied(""));
  }
  Status s = fs_->Rename(from_norm, to_norm);
  if (!s.ok()) {
    stats_.failed[static_cast<size_t>(GuestSyscall::kRename)]++;
    return ToError(s);
  }
  return 0;
}

int GuestIo::Socket() {
  Gate(GuestSyscall::kSocket);
  return ToError(PermissionDenied(""));
}

int GuestIo::Connect() {
  Gate(GuestSyscall::kConnect);
  return ToError(PermissionDenied(""));
}

int GuestIo::Ioctl(int /*fd*/, uint64_t /*request*/) {
  Gate(GuestSyscall::kIoctl);
  return ToError(PermissionDenied(""));
}

// --- free functions ---

namespace {
int NoIo() { return -static_cast<int>(ErrorCode::kBadState); }
}  // namespace

int io_open(const char* path, uint32_t flags) {
  GuestIo* io = GuestIo::Current();
  return io != nullptr ? io->Open(path, flags) : NoIo();
}
int io_close(int fd) {
  GuestIo* io = GuestIo::Current();
  return io != nullptr ? io->Close(fd) : NoIo();
}
int64_t io_read(int fd, void* buf, size_t len) {
  GuestIo* io = GuestIo::Current();
  return io != nullptr ? io->Read(fd, buf, len) : NoIo();
}
int64_t io_write(int fd, const void* buf, size_t len) {
  GuestIo* io = GuestIo::Current();
  return io != nullptr ? io->Write(fd, buf, len) : NoIo();
}
int64_t io_pread(int fd, void* buf, size_t len, uint64_t offset) {
  GuestIo* io = GuestIo::Current();
  return io != nullptr ? io->Pread(fd, buf, len, offset) : NoIo();
}
int64_t io_pwrite(int fd, const void* buf, size_t len, uint64_t offset) {
  GuestIo* io = GuestIo::Current();
  return io != nullptr ? io->Pwrite(fd, buf, len, offset) : NoIo();
}
int64_t io_lseek(int fd, int64_t offset, SeekWhence whence) {
  GuestIo* io = GuestIo::Current();
  return io != nullptr ? io->Lseek(fd, offset, whence) : NoIo();
}
int io_stat(const char* path, SimFsStat* out) {
  GuestIo* io = GuestIo::Current();
  return io != nullptr ? io->Stat(path, out) : NoIo();
}
int io_fstat(int fd, SimFsStat* out) {
  GuestIo* io = GuestIo::Current();
  return io != nullptr ? io->Fstat(fd, out) : NoIo();
}
int io_truncate(const char* path, uint64_t new_size) {
  GuestIo* io = GuestIo::Current();
  return io != nullptr ? io->Truncate(path, new_size) : NoIo();
}
int io_unlink(const char* path) {
  GuestIo* io = GuestIo::Current();
  return io != nullptr ? io->Unlink(path) : NoIo();
}
int io_mkdir(const char* path) {
  GuestIo* io = GuestIo::Current();
  return io != nullptr ? io->Mkdir(path) : NoIo();
}
int64_t io_readdir(const char* path, char* buf, size_t cap) {
  GuestIo* io = GuestIo::Current();
  return io != nullptr ? io->Readdir(path, buf, cap) : NoIo();
}
int io_rename(const char* from, const char* to) {
  GuestIo* io = GuestIo::Current();
  return io != nullptr ? io->Rename(from, to) : NoIo();
}
int io_socket() {
  GuestIo* io = GuestIo::Current();
  return io != nullptr ? io->Socket() : NoIo();
}
int io_connect() {
  GuestIo* io = GuestIo::Current();
  return io != nullptr ? io->Connect() : NoIo();
}
int io_ioctl(int fd, uint64_t request) {
  GuestIo* io = GuestIo::Current();
  return io != nullptr ? io->Ioctl(fd, request) : NoIo();
}

}  // namespace lw
