// Interposition tests: policy decisions (fail-closed), the io_* dispatcher, fd
// semantics, and — the §3.1 containment property — file side effects of failed
// extensions vanishing on backtrack inside a real BacktrackSession.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/backtrack.h"
#include "src/interpose/guest_io.h"
#include "src/interpose/policy.h"
#include "src/interpose/syscall.h"
#include "src/simfs/fs.h"
#include "src/simfs/path.h"
#include "src/util/rng.h"

namespace lw {
namespace {

// --- policy ---

TEST(PolicyTest, SoundMinimalAllowsFilesDeniesRest) {
  InterposePolicy p = InterposePolicy::SoundMinimal();
  EXPECT_EQ(p.Check(GuestSyscall::kOpen), PolicyDecision::kAllow);
  EXPECT_EQ(p.Check(GuestSyscall::kWrite), PolicyDecision::kAllow);
  EXPECT_EQ(p.Check(GuestSyscall::kRename), PolicyDecision::kAllow);
  EXPECT_EQ(p.Check(GuestSyscall::kSocket), PolicyDecision::kDeny);
  EXPECT_EQ(p.Check(GuestSyscall::kConnect), PolicyDecision::kDeny);
  EXPECT_EQ(p.Check(GuestSyscall::kIoctl), PolicyDecision::kDeny);
  EXPECT_EQ(p.Check(GuestSyscall::kMmapDevice), PolicyDecision::kDeny);
  EXPECT_EQ(p.Check(GuestSyscall::kExec), PolicyDecision::kDeny);
}

TEST(PolicyTest, DenyAll) {
  InterposePolicy p = InterposePolicy::DenyAll();
  EXPECT_EQ(p.Check(GuestSyscall::kOpen), PolicyDecision::kDeny);
  EXPECT_EQ(p.Check(GuestSyscall::kRead), PolicyDecision::kDeny);
  EXPECT_EQ(p.Check(GuestSyscall::kSocket), PolicyDecision::kDeny);
}

TEST(PolicyTest, ReadOnlyDeniesMutation) {
  InterposePolicy p = InterposePolicy::ReadOnly();
  EXPECT_EQ(p.Check(GuestSyscall::kOpen), PolicyDecision::kAllow);
  EXPECT_EQ(p.Check(GuestSyscall::kRead), PolicyDecision::kAllow);
  EXPECT_EQ(p.Check(GuestSyscall::kStat), PolicyDecision::kAllow);
  EXPECT_EQ(p.Check(GuestSyscall::kWrite), PolicyDecision::kDeny);
  EXPECT_EQ(p.Check(GuestSyscall::kUnlink), PolicyDecision::kDeny);
  EXPECT_EQ(p.Check(GuestSyscall::kMkdir), PolicyDecision::kDeny);
}

TEST(PolicyTest, PathJail) {
  InterposePolicy p;
  p.set_path_jail("/work");
  EXPECT_EQ(p.CheckPath(GuestSyscall::kOpen, "/work"), PolicyDecision::kAllow);
  EXPECT_EQ(p.CheckPath(GuestSyscall::kOpen, "/work/sub/f"), PolicyDecision::kAllow);
  EXPECT_EQ(p.CheckPath(GuestSyscall::kOpen, "/workother"), PolicyDecision::kDeny);
  EXPECT_EQ(p.CheckPath(GuestSyscall::kOpen, "/etc/passwd"), PolicyDecision::kDeny);
}

TEST(SyscallStatsTest, NamesAndTotals) {
  SyscallStats s;
  s.invoked[static_cast<size_t>(GuestSyscall::kOpen)] = 3;
  s.denied[static_cast<size_t>(GuestSyscall::kSocket)] = 2;
  s.invoked[static_cast<size_t>(GuestSyscall::kSocket)] = 2;
  EXPECT_EQ(s.TotalInvoked(), 5u);
  EXPECT_EQ(s.TotalDenied(), 2u);
  std::string text = s.ToString();
  EXPECT_NE(text.find("open"), std::string::npos);
  EXPECT_NE(text.find("socket"), std::string::npos);
}

// --- dispatcher (host-side, no session) ---

class GuestIoTest : public ::testing::Test {
 protected:
  GuestIoTest() : io_(&fs_, &fds_, InterposePolicy::SoundMinimal()), scoped_(&io_) {}

  SimFs fs_;
  FdTable fds_;
  GuestIo io_;
  ScopedGuestIo scoped_;
};

TEST_F(GuestIoTest, OpenCreateWriteReadRoundTrip) {
  int fd = io_open("/f.txt", kOpenRead | kOpenWrite | kOpenCreate);
  ASSERT_GE(fd, FdTable::kFirstFd);
  EXPECT_EQ(io_write(fd, "hello", 5), 5);
  EXPECT_EQ(io_lseek(fd, 0, SeekWhence::kSet), 0);
  char buf[8] = {};
  EXPECT_EQ(io_read(fd, buf, sizeof buf), 5);
  EXPECT_EQ(std::string(buf, 5), "hello");
  EXPECT_EQ(io_close(fd), 0);
}

TEST_F(GuestIoTest, OpenWithoutCreateFailsOnMissing) {
  EXPECT_EQ(io_open("/missing", kOpenRead), -static_cast<int>(ErrorCode::kNotFound));
}

TEST_F(GuestIoTest, OpenNeedsAccessMode) {
  EXPECT_EQ(io_open("/f", kOpenCreate), -static_cast<int>(ErrorCode::kInvalidArgument));
}

TEST_F(GuestIoTest, TruncFlagClearsContents) {
  int fd = io_open("/f", kOpenWrite | kOpenCreate);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(io_write(fd, "0123456789", 10), 10);
  EXPECT_EQ(io_close(fd), 0);
  fd = io_open("/f", kOpenRead | kOpenWrite | kOpenTrunc);
  ASSERT_GE(fd, 0);
  SimFsStat st;
  ASSERT_EQ(io_fstat(fd, &st), 0);
  EXPECT_EQ(st.size, 0u);
  EXPECT_EQ(io_close(fd), 0);
}

TEST_F(GuestIoTest, AppendWritesLandAtEof) {
  int fd = io_open("/log", kOpenWrite | kOpenCreate | kOpenAppend);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(io_write(fd, "aa", 2), 2);
  EXPECT_EQ(io_lseek(fd, 0, SeekWhence::kSet), 0);
  EXPECT_EQ(io_write(fd, "bb", 2), 2);  // must append, not overwrite
  SimFsStat st;
  ASSERT_EQ(io_fstat(fd, &st), 0);
  EXPECT_EQ(st.size, 4u);
  EXPECT_EQ(io_close(fd), 0);
}

TEST_F(GuestIoTest, PreadPwriteIgnoreOffset) {
  int fd = io_open("/f", kOpenRead | kOpenWrite | kOpenCreate);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(io_pwrite(fd, "XYZ", 3, 100), 3);
  char buf[4] = {};
  EXPECT_EQ(io_pread(fd, buf, 3, 100), 3);
  EXPECT_EQ(std::string(buf, 3), "XYZ");
  // File offset unmoved by p-ops.
  EXPECT_EQ(io_lseek(fd, 0, SeekWhence::kCur), 0);
  EXPECT_EQ(io_close(fd), 0);
}

TEST_F(GuestIoTest, ReadOnWriteOnlyFdFails) {
  int fd = io_open("/f", kOpenWrite | kOpenCreate);
  ASSERT_GE(fd, 0);
  char b;
  EXPECT_EQ(io_read(fd, &b, 1), -static_cast<int>(ErrorCode::kInvalidArgument));
  EXPECT_EQ(io_close(fd), 0);
}

TEST_F(GuestIoTest, LseekWhence) {
  int fd = io_open("/f", kOpenRead | kOpenWrite | kOpenCreate);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(io_write(fd, "0123456789", 10), 10);
  EXPECT_EQ(io_lseek(fd, -3, SeekWhence::kEnd), 7);
  EXPECT_EQ(io_lseek(fd, 2, SeekWhence::kCur), 9);
  EXPECT_EQ(io_lseek(fd, -100, SeekWhence::kSet), -static_cast<int>(ErrorCode::kInvalidArgument));
  EXPECT_EQ(io_close(fd), 0);
}

TEST_F(GuestIoTest, DirectoriesCannotBeOpened) {
  ASSERT_EQ(io_mkdir("/d"), 0);
  EXPECT_EQ(io_open("/d", kOpenRead), -static_cast<int>(ErrorCode::kBadState));
}

TEST_F(GuestIoTest, ReaddirPacksNames) {
  ASSERT_EQ(io_mkdir("/d"), 0);
  ASSERT_GE(io_open("/d/b", kOpenWrite | kOpenCreate), 0);
  ASSERT_GE(io_open("/d/a", kOpenWrite | kOpenCreate), 0);
  char buf[64];
  int64_t n = io_readdir("/d", buf, sizeof buf);
  ASSERT_GT(n, 0);
  EXPECT_EQ(std::string(buf, n), std::string("a\0b\0", 4));
  char tiny[2];
  EXPECT_EQ(io_readdir("/d", tiny, sizeof tiny), -static_cast<int>(ErrorCode::kOutOfRange));
}

TEST_F(GuestIoTest, RenameAndUnlink) {
  ASSERT_GE(io_open("/a", kOpenWrite | kOpenCreate), 0);
  EXPECT_EQ(io_rename("/a", "/b"), 0);
  SimFsStat st;
  EXPECT_EQ(io_stat("/b", &st), 0);
  EXPECT_EQ(io_stat("/a", &st), -static_cast<int>(ErrorCode::kNotFound));
  EXPECT_EQ(io_unlink("/b"), 0);
  EXPECT_EQ(io_stat("/b", &st), -static_cast<int>(ErrorCode::kNotFound));
}

TEST_F(GuestIoTest, ExternalChannelsFailClosed) {
  EXPECT_EQ(io_socket(), -static_cast<int>(ErrorCode::kPermissionDenied));
  EXPECT_EQ(io_connect(), -static_cast<int>(ErrorCode::kPermissionDenied));
  EXPECT_EQ(io_ioctl(5, 0x1234), -static_cast<int>(ErrorCode::kPermissionDenied));
  EXPECT_EQ(io_.stats().TotalDenied(), 3u);
}

TEST_F(GuestIoTest, StdinReadsEof) {
  char b;
  EXPECT_EQ(io_read(0, &b, 1), 0);
}

TEST_F(GuestIoTest, BadPathsRejected) {
  EXPECT_EQ(io_open("relative", kOpenRead), -static_cast<int>(ErrorCode::kPermissionDenied));
  EXPECT_EQ(io_open(nullptr, kOpenRead), -static_cast<int>(ErrorCode::kPermissionDenied));
  EXPECT_EQ(io_open("/..", kOpenRead), -static_cast<int>(ErrorCode::kPermissionDenied));
}

TEST(GuestIoNoCurrentTest, CallsFailWithBadState) {
  EXPECT_EQ(io_open("/f", kOpenRead), -static_cast<int>(ErrorCode::kBadState));
  EXPECT_EQ(io_close(3), -static_cast<int>(ErrorCode::kBadState));
  char b;
  EXPECT_EQ(io_read(3, &b, 1), -static_cast<int>(ErrorCode::kBadState));
}

TEST(GuestIoPolicyTest, ReadOnlyBlocksOpenForWrite) {
  SimFs fs;
  ASSERT_TRUE(fs.Create("/data").ok());
  FdTable fds;
  GuestIo io(&fs, &fds, InterposePolicy::ReadOnly());
  ScopedGuestIo scoped(&io);
  EXPECT_GE(io_open("/data", kOpenRead), 0);
  EXPECT_EQ(io_open("/data", kOpenRead | kOpenWrite),
            -static_cast<int>(ErrorCode::kPermissionDenied));
  EXPECT_EQ(io_open("/new", kOpenWrite | kOpenCreate),
            -static_cast<int>(ErrorCode::kPermissionDenied));
}

TEST(GuestIoPolicyTest, JailConfinesGuest) {
  SimFs fs;
  ASSERT_TRUE(fs.Mkdir("/work").ok());
  ASSERT_TRUE(fs.Create("/secret").ok());
  InterposePolicy policy;
  policy.set_path_jail("/work");
  FdTable fds;
  GuestIo io(&fs, &fds, policy);
  ScopedGuestIo scoped(&io);
  EXPECT_GE(io_open("/work/f", kOpenWrite | kOpenCreate), 0);
  EXPECT_EQ(io_open("/secret", kOpenRead), -static_cast<int>(ErrorCode::kPermissionDenied));
  SimFsStat st;
  EXPECT_EQ(io_stat("/secret", &st), -static_cast<int>(ErrorCode::kPermissionDenied));
}

// --- end-to-end containment inside a session ---

// The session's filesystem and fd table, placed in its guest heap so the
// snapshot engine carries them with the pages. Built on the thread that
// constructed the session: under kCow, that thread owns the alternate signal
// stack the arena's write faults need.
struct ArenaFiles {
  SimFs* fs;
  FdTable* fds;
};

ArenaFiles NewArenaFiles(BacktrackSession& session) {
  ScopedAllocHooks hooks(session.heap()->Hooks());
  return {GuestNew<SimFs>(session.heap()), GuestNew<FdTable>(session.heap())};
}

struct FsGuestArg {
  int solutions = 0;
};

// Each extension appends its digit to the same file; failing paths must leave
// no trace. Accepting paths are those guessing '2': the file must then read
// exactly "2" regardless of what failed paths wrote before.
void FileEffectsGuest(void* arg) {
  auto* a = static_cast<FsGuestArg*>(arg);
  if (sys_guess_strategy(StrategyKind::kDfs)) {
    int fd = io_open("/trace", kOpenRead | kOpenWrite | kOpenCreate | kOpenAppend);
    if (fd < 0) {
      sys_guess_fail();
    }
    int guess = sys_guess(3);
    char digit = static_cast<char>('0' + guess);
    io_write(fd, &digit, 1);
    if (guess != 2) {
      sys_guess_fail();  // the write above must be rolled back
    }
    SimFsStat st;
    io_fstat(fd, &st);
    if (st.size != 1) {
      // A leaked write from a sibling path would show up here.
      io_close(fd);
      sys_guess_fail();
    }
    // Solutions escape containment through the interposed stdout (fd 1), the
    // paper's printboard(); the filesystem itself is rolled back with the scope.
    char contents[2] = {};
    io_pread(fd, contents, 1, 0);
    io_write(1, contents, 1);
    io_close(fd);
    a->solutions++;
  }
}

TEST(InterposeSessionTest, FailedExtensionsLeaveNoFileTrace) {
  std::string emitted;
  SessionOptions options;
  options.arena_bytes = 8ull << 20;
  options.output = [&emitted](std::string_view text) { emitted += text; };
  BacktrackSession session(options);
  ArenaFiles files = NewArenaFiles(session);
  SimFs& fs = *files.fs;
  GuestIo io(files.fs, files.fds, InterposePolicy::SoundMinimal());
  ScopedGuestIo scoped(&io);

  FsGuestArg arg;
  ASSERT_TRUE(session.Run(&FileEffectsGuest, &arg).ok());
  EXPECT_EQ(arg.solutions, 1);

  // Only the accepting path's digit escaped — sibling paths' writes were
  // contained (no "0"/"1" leaked into the shared file before the check above).
  EXPECT_EQ(emitted, "2");

  // When the scope exhausted, the session restored the scope-opening snapshot:
  // the filesystem is back to its pre-search image (§3.1 immutability — the
  // false branch of sys_guess_strategy resumes from the original candidate).
  EXPECT_EQ(fs.Lookup("/trace").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(fs.live_inodes(), 1u);
}

// Branching over file contents: each of 4 paths writes a distinct value into
// the same file and yields a checkpoint; resuming any checkpoint must see its
// own value (snapshot isolation across the tree).
struct YieldFsArg {
  int dummy = 0;
};

void YieldFsGuest(void* /*arg*/) {
  if (sys_guess_strategy(StrategyKind::kDfs)) {
    int fd = io_open("/state", kOpenRead | kOpenWrite | kOpenCreate | kOpenTrunc);
    if (fd < 0) {
      sys_guess_fail();
    }
    int guess = sys_guess(4);
    char v = static_cast<char>('A' + guess);
    io_pwrite(fd, &v, 1, 0);
    uint64_t mailbox = 0;
    sys_yield(&mailbox, sizeof mailbox);
    // After resume: verify our file survived with our value.
    char back = 0;
    io_pread(fd, &back, 1, 0);
    if (back == v) {
      sys_note_solution();
    }
    io_close(fd);
    sys_guess_fail();
  }
}

TEST(InterposeSessionTest, CheckpointsCarryIsolatedFsState) {
  SessionOptions options;
  options.arena_bytes = 8ull << 20;
  BacktrackSession session(options);
  ArenaFiles files = NewArenaFiles(session);
  GuestIo io(files.fs, files.fds, InterposePolicy::SoundMinimal());
  ScopedGuestIo scoped(&io);

  YieldFsArg arg;
  ASSERT_TRUE(session.Run(&YieldFsGuest, &arg).ok());
  std::vector<Checkpoint> checkpoints = session.TakeNewCheckpoints();
  ASSERT_EQ(checkpoints.size(), 4u);

  // Resume in reverse order: each must still see its own byte.
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
    ASSERT_TRUE(session.Resume(*it, nullptr, 0).ok());
  }
  EXPECT_EQ(session.stats().solutions, 4u);
}

// --- randomized file-system search, checked per path against a host model ---
//
// A seeded guest walks a fixed search tree: kWalkFanout extensions per guess,
// kWalkDepth guesses deep. After each guess it applies kWalkOps random
// operations through io_*: namespace calls (create, mkdir, write, truncate,
// rename, unlink) on a small name pool, and calls on descriptors it holds
// open across guesses (open, lseek, write, read, close) on two log files. The
// host places the starting tree in the arena before the run. A step's
// operations depend only on the seed, the path's guess values and the state
// they lead to, so the host replays the path from the root on a plain model,
// expects every call's outcome, and compares every directory, file,
// descriptor and offset after each step. A write that leaked across a restore
// shows up as a mismatch.

constexpr int kWalkFanout = 3;
constexpr int kWalkDepth = 4;
constexpr int kWalkOps = 8;
constexpr size_t kWalkMaxFds = 3;
const char* const kWalkNames[] = {"/a", "/b", "/a/x", "/a/y", "/x", "/y"};
const char* const kWalkLogs[] = {"/l0", "/l1"};

struct WalkModel {
  struct HeldFd {
    int log = 0;
    uint64_t offset = 0;
    bool append = false;
  };
  std::map<std::string, std::string> files;  // path -> contents
  std::set<std::string> dirs;                // every directory but "/"
  std::map<int, HeldFd> fds;

  bool IsDir(const std::string& path) const { return path == "/" || dirs.count(path) != 0; }
  bool Exists(const std::string& path) const { return IsDir(path) || files.count(path) != 0; }
  bool HasChildren(const std::string& dir) const {
    auto under = [&dir](const std::string& path) { return path.rfind(dir + "/", 0) == 0; };
    return std::any_of(dirs.begin(), dirs.end(), under) ||
           std::any_of(files.begin(), files.end(), [&](const auto& f) { return under(f.first); });
  }
  // Moves `from` (and, for a directory, everything under it) to `to`.
  void Move(const std::string& from, const std::string& to) {
    auto rekey = [&](const std::string& path) { return to + path.substr(from.size()); };
    auto moves = [&from](const std::string& path) {
      return path == from || path.rfind(from + "/", 0) == 0;
    };
    std::set<std::string> new_dirs;
    for (const std::string& dir : dirs) {
      new_dirs.insert(moves(dir) ? rekey(dir) : dir);
    }
    dirs = std::move(new_dirs);
    std::map<std::string, std::string> new_files;
    for (auto& [path, data] : files) {
      if (!moves(path)) {
        new_files.emplace(path, data);
      }
    }
    for (auto& [path, data] : files) {
      if (moves(path)) {
        new_files[rekey(path)] = data;  // replaces a file at `to`
      }
    }
    files = std::move(new_files);
  }
  // Writes `len` bytes of `fill` at `offset` into `path`.
  void Write(const std::string& path, uint64_t offset, size_t len, char fill) {
    std::string& data = files[path];
    if (data.size() < offset + len) {
      data.resize(offset + len, '\0');
    }
    data.replace(offset, len, len, fill);
  }
};

// The tree the host places in the arena before the run.
WalkModel WalkRoot() {
  WalkModel m;
  m.dirs = {"/a"};
  m.files = {{"/a/x", "x"}, {"/x", ""}, {kWalkLogs[0], "seed"}, {kWalkLogs[1], "seed"}};
  return m;
}

constexpr int kErrInvalid = -static_cast<int>(ErrorCode::kInvalidArgument);

// Applies one random operation to `m`. When `live`, also issues it through
// io_* and expects the outcome the model predicts.
void WalkOp(Rng& rng, WalkModel& m, bool live) {
  const std::string path = kWalkNames[rng.Below(std::size(kWalkNames))];
  const std::string to = kWalkNames[rng.Below(std::size(kWalkNames))];
  const bool parent_ok = m.IsDir(DirnamePath(path));
  const uint64_t a = rng.Below(3 * FileData::kChunkSize) +
                     (rng.Below(8) == 0 ? 8 * FileData::kChunkSize : 0);  // some far holes
  const size_t len = 1 + rng.Below(300);
  const char fill = static_cast<char>('a' + rng.Below(26));
  const uint64_t pick = rng.Below(kWalkMaxFds);
  auto held = m.fds.begin();
  std::advance(held, m.fds.empty() ? 0 : pick % m.fds.size());
  std::string buf(len, fill);
  switch (rng.Below(11)) {
    case 0: {  // create (opening an existing file without kOpenTrunc keeps it)
      const bool ok = parent_ok && !m.IsDir(path);
      if (ok) {
        m.files.emplace(path, "");
      }
      if (live) {
        int fd = io_open(path.c_str(), kOpenWrite | kOpenCreate);
        EXPECT_EQ(fd >= 0, ok) << "create " << path;
        if (fd >= 0) {
          EXPECT_EQ(io_close(fd), 0);
        }
      }
      break;
    }
    case 1: {  // mkdir
      const bool ok = parent_ok && !m.Exists(path);
      if (ok) {
        m.dirs.insert(path);
      }
      if (live) {
        EXPECT_EQ(io_mkdir(path.c_str()) == 0, ok) << "mkdir " << path;
      }
      break;
    }
    case 2: {  // write at offset `a` through a transient descriptor
      const bool ok = m.files.count(path) != 0;
      if (ok) {
        m.Write(path, a, len, fill);
      }
      if (live) {
        int fd = io_open(path.c_str(), kOpenWrite);
        EXPECT_EQ(fd >= 0, ok) << "write " << path;
        if (fd >= 0) {
          EXPECT_EQ(io_pwrite(fd, buf.data(), len, a), static_cast<int64_t>(len));
          EXPECT_EQ(io_close(fd), 0);
        }
      }
      break;
    }
    case 3: {  // truncate to `a`
      const bool ok = m.files.count(path) != 0;
      if (ok) {
        m.files[path].resize(a, '\0');
      }
      if (live) {
        EXPECT_EQ(io_truncate(path.c_str(), a) == 0, ok) << "truncate " << path;
      }
      break;
    }
    case 4: {  // rename
      bool ok = parent_ok && m.IsDir(DirnamePath(to)) && m.Exists(path);
      if (ok && path != to) {
        const bool into_self = to.rfind(path + "/", 0) == 0;
        ok = !(m.Exists(to) && (m.IsDir(to) || m.IsDir(path))) && !(m.IsDir(path) && into_self);
        if (ok) {
          m.Move(path, to);
        }
      }
      if (live) {
        EXPECT_EQ(io_rename(path.c_str(), to.c_str()) == 0, ok) << "rename " << path << " " << to;
      }
      break;
    }
    case 5: {  // unlink
      const bool ok = m.Exists(path) && !m.HasChildren(path);
      if (ok) {
        m.files.erase(path);
        m.dirs.erase(path);
      }
      if (live) {
        EXPECT_EQ(io_unlink(path.c_str()) == 0, ok) << "unlink " << path;
      }
      break;
    }
    case 6: {  // open a log and hold the descriptor
      if (m.fds.size() == kWalkMaxFds) {
        break;
      }
      int expected_fd = FdTable::kFirstFd;
      while (m.fds.count(expected_fd) != 0) {
        ++expected_fd;
      }
      const int log = static_cast<int>(pick % 2);
      const bool append = fill < 'h';
      m.fds[expected_fd] = {log, 0, append};
      if (live) {
        uint32_t flags = kOpenRead | kOpenWrite | (append ? kOpenAppend : 0u);
        EXPECT_EQ(io_open(kWalkLogs[log], flags), expected_fd);
      }
      break;
    }
    case 7: {  // lseek a held descriptor
      if (m.fds.empty()) {
        break;
      }
      const auto whence = static_cast<SeekWhence>(len % 3);
      const int64_t delta = whence == SeekWhence::kSet ? static_cast<int64_t>(a)
                                                       : static_cast<int64_t>(len) - 150;
      WalkModel::HeldFd& h = held->second;
      int64_t base = 0;
      if (whence == SeekWhence::kCur) {
        base = static_cast<int64_t>(h.offset);
      } else if (whence == SeekWhence::kEnd) {
        base = static_cast<int64_t>(m.files[kWalkLogs[h.log]].size());
      }
      const int64_t target = base + delta;
      if (target >= 0) {
        h.offset = static_cast<uint64_t>(target);
      }
      if (live) {
        EXPECT_EQ(io_lseek(held->first, delta, whence), target >= 0 ? target : kErrInvalid);
      }
      break;
    }
    case 8: {  // write through a held descriptor
      if (m.fds.empty()) {
        break;
      }
      WalkModel::HeldFd& h = held->second;
      const std::string log = kWalkLogs[h.log];
      if (h.append) {
        h.offset = m.files[log].size();
      }
      m.Write(log, h.offset, len, fill);
      h.offset += len;
      if (live) {
        EXPECT_EQ(io_write(held->first, buf.data(), len), static_cast<int64_t>(len));
      }
      break;
    }
    case 9: {  // read through a held descriptor
      if (m.fds.empty()) {
        break;
      }
      WalkModel::HeldFd& h = held->second;
      const std::string& data = m.files[kWalkLogs[h.log]];
      const std::string expected = h.offset < data.size() ? data.substr(h.offset, len) : "";
      if (live) {
        EXPECT_EQ(io_read(held->first, buf.data(), len), static_cast<int64_t>(expected.size()));
        EXPECT_EQ(buf.substr(0, expected.size()), expected);
      }
      h.offset += expected.size();
      break;
    }
    case 10: {  // close a held descriptor
      if (m.fds.empty()) {
        break;
      }
      if (live) {
        EXPECT_EQ(io_close(held->first), 0);
      }
      m.fds.erase(held);
      break;
    }
  }
}

uint64_t WalkStepSeed(uint64_t seed, const int* path, int depth) {
  uint64_t h = seed;
  for (int i = 0; i < depth; ++i) {
    h = h * 1000003 + static_cast<uint64_t>(path[i]) + 1;
  }
  return h;
}

// The model of the state after the first `depth` steps of `path`.
WalkModel ReplayWalk(uint64_t seed, const int* path, int depth) {
  WalkModel m = WalkRoot();
  for (int d = 1; d <= depth; ++d) {
    Rng rng(WalkStepSeed(seed, path, d));
    for (int op = 0; op < kWalkOps; ++op) {
      WalkOp(rng, m, /*live=*/false);
    }
  }
  return m;
}

void ExpectFsMatches(const SimFs& fs, const FdTable& fds, const WalkModel& m) {
  std::set<std::string> dirs;
  std::map<std::string, std::string> files;
  std::vector<std::string> pending{"/"};
  while (!pending.empty()) {
    const std::string dir = pending.back();
    pending.pop_back();
    auto names = fs.Readdir(dir);
    ASSERT_TRUE(names.ok()) << dir;
    for (const std::string& name : *names) {
      const std::string child = (dir == "/" ? "" : dir) + "/" + name;
      auto st = fs.Stat(child);
      ASSERT_TRUE(st.ok()) << child;
      if (st->type == NodeType::kDir) {
        dirs.insert(child);
        pending.push_back(child);
        continue;
      }
      std::string data(st->size, '\0');
      auto n = fs.ReadAt(st->ino, 0, data.data(), data.size());
      ASSERT_TRUE(n.ok()) << child;
      EXPECT_EQ(*n, data.size());
      files[child] = data;
    }
  }
  EXPECT_EQ(dirs, m.dirs);
  EXPECT_TRUE(files == m.files);
  EXPECT_EQ(fds.open_count(), m.fds.size());
  for (const auto& [fd, held] : m.fds) {
    const FdEntry* entry = fds.Get(fd);
    ASSERT_NE(entry, nullptr) << "fd " << fd;
    EXPECT_EQ(entry->ino, *fs.Lookup(kWalkLogs[held.log])) << "fd " << fd;
    EXPECT_EQ(entry->offset, held.offset) << "fd " << fd;
    EXPECT_EQ((entry->flags & kOpenAppend) != 0, held.append) << "fd " << fd;
  }
}

struct FsWalk {
  uint64_t seed = 0;
  const SimFs* fs = nullptr;
  const FdTable* fds = nullptr;
  int checks = 0;  // host memory: counts every checked step on every path
};

// Runs step `depth` of `path` live and checks the result against the replayed
// model. Host objects live only inside this call, never across a guess.
void WalkStep(FsWalk* walk, const int* path, int depth) {
  WalkModel m = ReplayWalk(walk->seed, path, depth - 1);
  if (depth > 0) {
    Rng rng(WalkStepSeed(walk->seed, path, depth));
    for (int op = 0; op < kWalkOps; ++op) {
      WalkOp(rng, m, /*live=*/true);
    }
  }
  ExpectFsMatches(*walk->fs, *walk->fds, m);
  ++walk->checks;
}

void FsWalkGuest(void* arg) {
  auto* walk = static_cast<FsWalk*>(arg);
  int path[kWalkDepth] = {};
  WalkStep(walk, path, 0);
  for (int depth = 1; depth <= kWalkDepth; ++depth) {
    path[depth - 1] = sys_guess(kWalkFanout);
    WalkStep(walk, path, depth);
  }
  sys_note_solution();
}

class FsWalkTest : public ::testing::TestWithParam<std::tuple<SnapshotMode, uint64_t>> {};

TEST_P(FsWalkTest, EveryPathMatchesItsModel) {
  SessionOptions options;
  options.arena_bytes = 8ull << 20;
  options.snapshot_mode = std::get<0>(GetParam());
  BacktrackSession session(options);
  ArenaFiles files = NewArenaFiles(session);
  const WalkModel root = WalkRoot();
  for (const std::string& dir : root.dirs) {
    ASSERT_TRUE(files.fs->Mkdir(dir).ok());
  }
  for (const auto& [path, data] : root.files) {
    auto ino = files.fs->Create(path);
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(files.fs->WriteAt(*ino, 0, data.data(), data.size()).ok());
  }
  GuestIo io(files.fs, files.fds, InterposePolicy::SoundMinimal());
  ScopedGuestIo scoped(&io);

  FsWalk walk;
  walk.seed = std::get<1>(GetParam());
  walk.fs = files.fs;
  walk.fds = files.fds;
  ASSERT_TRUE(session.Run(&FsWalkGuest, &walk).ok());
  constexpr int kLeaves = kWalkFanout * kWalkFanout * kWalkFanout * kWalkFanout;
  EXPECT_EQ(session.stats().solutions, static_cast<uint64_t>(kLeaves));
  EXPECT_EQ(walk.checks, 1 + 3 + 9 + 27 + kLeaves);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, FsWalkTest,
    ::testing::Combine(::testing::Values(SnapshotMode::kCow, SnapshotMode::kIncremental,
                                         SnapshotMode::kFullCopy),
                       ::testing::Values(uint64_t{1}, uint64_t{2})),
    [](const ::testing::TestParamInfo<std::tuple<SnapshotMode, uint64_t>>& info) {
      return std::string(SnapshotModeName(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace lw
