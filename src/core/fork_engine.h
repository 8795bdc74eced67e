// ForkSession: the paper's §3 strawman, built literally — sys_guess implemented
// with POSIX fork/wait/exit. The guest API surface is identical to the snapshot
// engine's, so the same guest program runs under both; benches E2/E4 use this as
// the naive baseline the paper argues against:
//
//   "First, fork creates both a new address space and a new thread of control
//    [...] Second, forked processes are neither isolated from each other nor
//    encapsulated [...] And last but not least, the large performance overheads
//    of this naive approach would likely dwarf any benefit."
//
// Depth-first: fork before exploring each extension, child explores the
// subtree, parent waits.
//
// Limitations inherent to the model (and the point of the comparison):
// checkpoints (sys_yield) are unsupported, only DFS order is available, and
// cross-extension isolation is only as good as fork's.

#ifndef LWSNAP_SRC_CORE_FORK_ENGINE_H_
#define LWSNAP_SRC_CORE_FORK_ENGINE_H_

#include <cstdint>
#include <functional>
#include <string_view>

#include "src/core/types.h"
#include "src/util/status.h"

namespace lw {

struct ForkSessionOptions {
  std::function<void(std::string_view)> output;  // default: stdout
};

struct ForkRunStats {
  uint64_t guesses = 0;
  uint64_t forks = 0;
  uint64_t failures = 0;
  uint64_t completions = 0;
  uint64_t solutions = 0;
};

class ForkSession : public GuessExecutor {
 public:
  using GuestFn = void (*)(void*);

  explicit ForkSession(ForkSessionOptions options);
  ~ForkSession() override;

  ForkSession(const ForkSession&) = delete;
  ForkSession& operator=(const ForkSession&) = delete;

  // Runs the guest in a forked child tree; returns when the whole tree has been
  // explored and all output drained. Call at most once.
  Status Run(GuestFn fn, void* arg);

  const ForkRunStats& stats() const { return stats_; }

  // GuessExecutor (executed inside forked children):
  int OnGuess(int n, const GuessCost* costs) override;
  [[noreturn]] void OnFail() override;
  bool OnStrategyScope(StrategyKind kind) override;
  size_t OnYield(void* mailbox, size_t cap) override;
  void OnNoteSolution() override;
  void OnEmit(const void* data, size_t len) override;

 private:
  struct SharedCounters;  // lives in MAP_SHARED memory, updated atomically

  [[noreturn]] void ExitChild();

  ForkSessionOptions options_;
  SharedCounters* shared_ = nullptr;
  int out_fd_ = -1;  // write end of the output pipe (valid inside children)
  bool started_ = false;
  ForkRunStats stats_;
};

}  // namespace lw

#endif  // LWSNAP_SRC_CORE_FORK_ENGINE_H_
