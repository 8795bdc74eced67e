// GuestIo: the session's interposed I/O dispatcher, and the io_* guest API.
//
// Figure 2's libOS "traps" box: guest code calls the io_* free functions, which
// forward to the thread-current GuestIo. Each call is counted, checked against
// the InterposePolicy, and serviced against a SimFs and an FdTable. The
// dispatcher itself holds only host-side state, the policy and the stats,
// which count every path. A session places the SimFs and the FdTable in its
// guest heap (see src/simfs/fs.h), so the filesystem image and the open
// descriptors travel with every snapshot like any other guest memory: file
// side effects of a failed extension vanish on backtrack with no undo log.
//
// Error model: the io_* functions return negative lw::ErrorCode values (like
// -errno) so guest code can run without host types; 0/positive is success.
// Descriptors 0..2 are the interposed standard streams: writes to 1/2 are
// forwarded to sys_emit (and therefore obey the session's output containment);
// reads from 0 return 0 (EOF) — extensions have no interactive stdin.

#ifndef LWSNAP_SRC_INTERPOSE_GUEST_IO_H_
#define LWSNAP_SRC_INTERPOSE_GUEST_IO_H_

#include <cstdint>
#include <string>

#include "src/interpose/policy.h"
#include "src/interpose/syscall.h"
#include "src/simfs/fd_table.h"
#include "src/simfs/fs.h"
#include "src/util/status.h"

namespace lw {

class GuestIo {
 public:
  // `fs` and `fds` must outlive the GuestIo. The policy is copied.
  GuestIo(SimFs* fs, FdTable* fds, InterposePolicy policy);

  GuestIo(const GuestIo&) = delete;
  GuestIo& operator=(const GuestIo&) = delete;

  // --- dispatcher entry points (return >= 0 or -ErrorCode) ---

  int Open(const char* path, uint32_t flags);
  int Close(int fd);
  int64_t Read(int fd, void* buf, size_t len);
  int64_t Write(int fd, const void* buf, size_t len);
  int64_t Pread(int fd, void* buf, size_t len, uint64_t offset);
  int64_t Pwrite(int fd, const void* buf, size_t len, uint64_t offset);
  int64_t Lseek(int fd, int64_t offset, SeekWhence whence);
  int Stat(const char* path, SimFsStat* out);
  int Fstat(int fd, SimFsStat* out);
  int Truncate(const char* path, uint64_t new_size);
  int Unlink(const char* path);
  int Mkdir(const char* path);
  // Writes NUL-separated entry names into `buf`; returns bytes used or -code.
  int64_t Readdir(const char* path, char* buf, size_t cap);
  int Rename(const char* from, const char* to);
  // The always-denied tail (observable policy denials).
  int Socket();
  int Connect();
  int Ioctl(int fd, uint64_t request);

  const SyscallStats& stats() const { return stats_; }

  // Thread-current dispatcher (mirrors GuessExecutor registration).
  static GuestIo* Current();
  static void SetCurrent(GuestIo* io);

 private:
  static int ToError(const Status& status) { return -static_cast<int>(status.code()); }
  PolicyDecision Gate(GuestSyscall call);
  PolicyDecision GatePath(GuestSyscall call, const char* path, std::string* normalized);

  SimFs* fs_;
  FdTable* fds_;
  InterposePolicy policy_;
  SyscallStats stats_;
};

// RAII registration of the thread-current GuestIo.
class ScopedGuestIo {
 public:
  explicit ScopedGuestIo(GuestIo* io) : saved_(GuestIo::Current()) { GuestIo::SetCurrent(io); }
  ~ScopedGuestIo() { GuestIo::SetCurrent(saved_); }

  ScopedGuestIo(const ScopedGuestIo&) = delete;
  ScopedGuestIo& operator=(const ScopedGuestIo&) = delete;

 private:
  GuestIo* saved_;
};

// --- guest-visible free functions ---
// All return -static_cast<int>(ErrorCode::kBadState) when no GuestIo is current.

int io_open(const char* path, uint32_t flags);
int io_close(int fd);
int64_t io_read(int fd, void* buf, size_t len);
int64_t io_write(int fd, const void* buf, size_t len);
int64_t io_pread(int fd, void* buf, size_t len, uint64_t offset);
int64_t io_pwrite(int fd, const void* buf, size_t len, uint64_t offset);
int64_t io_lseek(int fd, int64_t offset, SeekWhence whence);
int io_stat(const char* path, SimFsStat* out);
int io_fstat(int fd, SimFsStat* out);
int io_truncate(const char* path, uint64_t new_size);
int io_unlink(const char* path);
int io_mkdir(const char* path);
int64_t io_readdir(const char* path, char* buf, size_t cap);
int io_rename(const char* from, const char* to);
int io_socket();
int io_connect();
int io_ioctl(int fd, uint64_t request);

}  // namespace lw

#endif  // LWSNAP_SRC_INTERPOSE_GUEST_IO_H_
