#include "src/core/fork_engine.h"

#include <atomic>
#include <cerrno>
#include <new>
#include <cstdio>
#include <cstring>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

namespace lw {
namespace {

void DefaultForkOutput(std::string_view text) {
  std::fwrite(text.data(), 1, text.size(), stdout);
}

}  // namespace

struct ForkSession::SharedCounters {
  std::atomic<uint64_t> guesses;
  std::atomic<uint64_t> forks;
  std::atomic<uint64_t> failures;
  std::atomic<uint64_t> completions;
  std::atomic<uint64_t> solutions;
};

ForkSession::ForkSession(ForkSessionOptions options) : options_(std::move(options)) {
  if (!options_.output) {
    options_.output = &DefaultForkOutput;
  }
  void* mem = mmap(nullptr, sizeof(SharedCounters), PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  LW_CHECK_MSG(mem != MAP_FAILED, "shared counter mmap failed");
  shared_ = new (mem) SharedCounters{};
}

ForkSession::~ForkSession() {
  if (shared_ != nullptr) {
    munmap(shared_, sizeof(SharedCounters));
  }
}

Status ForkSession::Run(GuestFn fn, void* arg) {
  LW_CHECK_MSG(!started_, "ForkSession::Run may be called once");
  started_ = true;

  int pipefd[2];
  if (pipe(pipefd) != 0) {
    return IoError("pipe() failed");
  }

  pid_t root = fork();
  if (root < 0) {
    close(pipefd[0]);
    close(pipefd[1]);
    return IoError("fork() failed");
  }
  if (root == 0) {
    // Root guest process. Everything below runs in forked children; they leave
    // only via _exit so host-side atexit/gtest state is never touched.
    close(pipefd[0]);
    out_fd_ = pipefd[1];
    SetCurrentExecutor(this);
    fn(arg);
    shared_->completions.fetch_add(1, std::memory_order_relaxed);
    ExitChild();
  }

  // Host side: drain output until every descendant has closed the write end.
  close(pipefd[1]);
  char buf[4096];
  for (;;) {
    ssize_t n = read(pipefd[0], buf, sizeof(buf));
    if (n > 0) {
      options_.output(std::string_view(buf, static_cast<size_t>(n)));
      continue;
    }
    if (n == 0) {
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    close(pipefd[0]);
    return IoError("reading fork-engine output pipe failed");
  }
  close(pipefd[0]);

  int status = 0;
  if (waitpid(root, &status, 0) != root) {
    return IoError("waitpid for root guest failed");
  }
  stats_.guesses = shared_->guesses.load(std::memory_order_relaxed);
  stats_.forks = shared_->forks.load(std::memory_order_relaxed);
  stats_.failures = shared_->failures.load(std::memory_order_relaxed);
  stats_.completions = shared_->completions.load(std::memory_order_relaxed);
  stats_.solutions = shared_->solutions.load(std::memory_order_relaxed);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Internal("root guest process exited abnormally");
  }
  return OkStatus();
}

void ForkSession::ExitChild() {
  if (out_fd_ >= 0) {
    close(out_fd_);
  }
  _exit(0);
}

int ForkSession::OnGuess(int n, const GuessCost* /*costs*/) {
  shared_->guesses.fetch_add(1, std::memory_order_relaxed);
  if (n <= 0) {
    OnFail();
  }
  for (int i = 0; i < n; ++i) {
    shared_->forks.fetch_add(1, std::memory_order_relaxed);
    pid_t pid = fork();
    if (pid < 0) {
      const char msg[] = "lwsnap fork-engine: fork failed\n";
      ssize_t ignored = write(STDERR_FILENO, msg, sizeof(msg) - 1);
      (void)ignored;
      _exit(111);
    }
    if (pid == 0) {
      return i;  // the child IS the extension evaluation for value i
    }
    int status = 0;
    waitpid(pid, &status, 0);
  }
  // All extensions enumerated; this process's own continuation is dead (in the
  // snapshot engine the pre-guess execution likewise never continues).
  ExitChild();
}

void ForkSession::OnFail() {
  shared_->failures.fetch_add(1, std::memory_order_relaxed);
  ExitChild();
}

bool ForkSession::OnStrategyScope(StrategyKind kind) {
  LW_CHECK_MSG(kind == StrategyKind::kDfs,
               "fork engine supports only DFS (the paper's point, §3)");
  pid_t pid = fork();
  LW_CHECK_MSG(pid >= 0, "fork() failed in strategy scope");
  if (pid == 0) {
    return true;  // explore
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return false;  // exhausted: the one-time false return
}

size_t ForkSession::OnYield(void* /*mailbox*/, size_t /*cap*/) {
  return 0;  // checkpoints are snapshot-engine functionality
}

void ForkSession::OnNoteSolution() {
  shared_->solutions.fetch_add(1, std::memory_order_relaxed);
}

void ForkSession::OnEmit(const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    ssize_t n = write(out_fd_, p, len);
    if (n <= 0) {
      if (errno == EINTR) {
        continue;
      }
      return;
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
}

}  // namespace lw
