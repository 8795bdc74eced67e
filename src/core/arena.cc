#include "src/core/arena.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <sys/mman.h>
#include <unistd.h>

#if defined(__has_feature)
#if __has_feature(address_sanitizer) && !defined(__SANITIZE_ADDRESS__)
#define __SANITIZE_ADDRESS__ 1
#endif
#endif
#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#endif

namespace lw {
namespace {

// Process-global registry mapping fault addresses to arenas. Each arena is
// driven by one thread at a time, but arenas on different worker threads
// coexist (pools, tests) and fault concurrently. Registration is serialized by
// a mutex; the lookup runs in the signal handler and must stay lock-free and
// async-signal-safe, so the slots are atomics: base/size are published
// *before* the arena pointer (release), and the handler loads the arena
// pointer first (acquire), which orders the range reads after it.
constexpr int kMaxArenas = 64;

// Each slot is a tiny seqlock: writers (register/unregister, serialized by the
// registry mutex) bump `gen` to odd, mutate, bump back to even; the reader (the
// signal handler) retries the slot if `gen` was odd or changed across its
// reads. This is what makes slot *recycling* safe — without it a handler could
// pair a stale arena pointer from one generation with the base/size of the
// next and dispatch a fault to a freed GuestArena. All atomics, no locks on
// the read side: async-signal-safe.
struct ArenaSlot {
  std::atomic<uint64_t> gen{0};  // odd = mid-update
  std::atomic<uint8_t*> base{nullptr};
  std::atomic<size_t> size{0};
  std::atomic<GuestArena*> arena{nullptr};
};

ArenaSlot g_arenas[kMaxArenas];
std::mutex g_arena_registry_mu;
std::once_flag g_handler_once;
struct sigaction g_previous_action;

void WriteSlot(ArenaSlot& slot, GuestArena* arena, uint8_t* base, size_t size) {
  slot.gen.fetch_add(1, std::memory_order_release);  // even -> odd: readers retry
  slot.base.store(base, std::memory_order_relaxed);
  slot.size.store(size, std::memory_order_relaxed);
  slot.arena.store(arena, std::memory_order_relaxed);
  slot.gen.fetch_add(1, std::memory_order_release);  // odd -> even: consistent again
}

void RegisterArena(GuestArena* arena, uint8_t* base, size_t size) {
  std::lock_guard<std::mutex> lock(g_arena_registry_mu);
  for (auto& slot : g_arenas) {
    if (slot.arena.load(std::memory_order_relaxed) == nullptr) {
      WriteSlot(slot, arena, base, size);
      return;
    }
  }
  LW_CHECK_MSG(false, "too many concurrent GuestArenas");
}

void UnregisterArena(GuestArena* arena) {
  std::lock_guard<std::mutex> lock(g_arena_registry_mu);
  for (auto& slot : g_arenas) {
    if (slot.arena.load(std::memory_order_relaxed) == arena) {
      WriteSlot(slot, nullptr, nullptr, 0);
      return;
    }
  }
}

GuestArena* FindArena(const void* addr) {
  const uint8_t* p = static_cast<const uint8_t*>(addr);
  for (auto& slot : g_arenas) {
    GuestArena* arena = nullptr;
    uint8_t* base = nullptr;
    size_t size = 0;
    // Bounded retries: a slot mid-update belongs to an arena being
    // constructed or destroyed — no guest runs in it, so a fault can never
    // legitimately match it and skipping is safe. The bound also keeps a
    // handler that interrupted the writer *on the same thread* (a genuine
    // crash mid-registration) from spinning forever.
    for (int attempt = 0; attempt < 64; ++attempt) {
      uint64_t gen_before = slot.gen.load(std::memory_order_acquire);
      if ((gen_before & 1) != 0) {
        continue;  // writer finishes in a handful of stores
      }
      GuestArena* a = slot.arena.load(std::memory_order_relaxed);
      uint8_t* b = slot.base.load(std::memory_order_relaxed);
      size_t s = slot.size.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.gen.load(std::memory_order_relaxed) == gen_before) {
        arena = a;  // consistent snapshot of one generation
        base = b;
        size = s;
        break;
      }
    }
    if (arena != nullptr && base != nullptr && p >= base && p < base + size) {
      return arena;
    }
  }
  return nullptr;
}

[[noreturn]] void DieInHandler(const char* msg) {
  // Async-signal-safe reporting only.
  ssize_t ignored = write(STDERR_FILENO, msg, strlen(msg));
  (void)ignored;
  _exit(139);
}

void SegvHandler(int signo, siginfo_t* info, void* ucontext) {
  GuestArena* arena = info != nullptr ? FindArena(info->si_addr) : nullptr;
  if (arena == nullptr) {
    // Not ours: restore the previous disposition and re-raise so the crash is
    // reported normally.
    sigaction(SIGSEGV, &g_previous_action, nullptr);
    raise(signo);
    (void)ucontext;
    return;
  }
  arena->HandleWriteFault(info->si_addr);
}

}  // namespace

namespace {

// Per-thread alternate signal stack, installed on first use and disarmed (and
// freed) at thread exit. sigaltstack state is per-thread, so every worker
// thread that can take a CoW fault needs its own — a handler dispatched to a
// thread without one would push its frame onto the (possibly write-protected)
// guest stack and double-fault.
struct ThreadSignalStack {
  char* mem = nullptr;

  ThreadSignalStack() {
    // SIGSTKSZ is not a constant on modern glibc; size generously.
    const size_t alt_size = 256 * 1024;
    mem = static_cast<char*>(std::malloc(alt_size));
    LW_CHECK(mem != nullptr);
    stack_t ss{};
    ss.ss_sp = mem;
    ss.ss_size = alt_size;
    ss.ss_flags = 0;
    LW_CHECK(sigaltstack(&ss, nullptr) == 0);
  }

  ~ThreadSignalStack() {
    stack_t ss{};
    ss.ss_flags = SS_DISABLE;
    sigaltstack(&ss, nullptr);
    std::free(mem);
  }
};

}  // namespace

void EnsureThreadSignalStack() {
  static thread_local ThreadSignalStack tls_stack;
  (void)tls_stack;
}

void GuestArena::EnsureGlobalHandlerInstalled() {
  EnsureThreadSignalStack();
  std::call_once(g_handler_once, [] {
    struct sigaction sa{};
    sa.sa_sigaction = &SegvHandler;
    sa.sa_flags = SA_SIGINFO | SA_ONSTACK | SA_NODEFER;
    sigemptyset(&sa.sa_mask);
    LW_CHECK(sigaction(SIGSEGV, &sa, &g_previous_action) == 0);
  });
}

GuestArena::GuestArena(const Layout& layout)
    : dirty_(static_cast<uint32_t>((layout.arena_bytes + kPageSize - 1) / kPageSize)) {
  LW_CHECK_MSG(layout.arena_bytes % kPageSize == 0, "arena size must be page-aligned");
  LW_CHECK_MSG(layout.stack_bytes % kPageSize == 0, "stack size must be page-aligned");
  LW_CHECK_MSG(layout.guard_bytes % kPageSize == 0, "guard size must be page-aligned");
  LW_CHECK(layout.arena_bytes > layout.stack_bytes + layout.guard_bytes + 16 * kPageSize);

  size_ = layout.arena_bytes;
  stack_bytes_ = layout.stack_bytes;
  heap_bytes_ = size_ - stack_bytes_ - layout.guard_bytes;
  num_pages_ = static_cast<uint32_t>(size_ / kPageSize);
  guard_lo_ = static_cast<uint32_t>(heap_bytes_ / kPageSize);
  guard_hi_ = guard_lo_ + static_cast<uint32_t>(layout.guard_bytes / kPageSize);

  void* mem = mmap(nullptr, size_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  LW_CHECK_MSG(mem != MAP_FAILED, "guest arena mmap failed");
  base_ = static_cast<uint8_t*>(mem);

  // Guard pages are permanently inaccessible.
  LW_CHECK(mprotect(base_ + static_cast<size_t>(guard_lo_) * kPageSize,
                    static_cast<size_t>(guard_hi_ - guard_lo_) * kPageSize, PROT_NONE) == 0);

  // No signal-state changes here: the SIGSEGV handler and sigaltstack are
  // installed lazily by EnableCow(), so fault-free engine
  // configurations never perturb process signal dispositions.
  RegisterArena(this, base_, size_);
}

GuestArena::~GuestArena() {
  UnregisterArena(this);
  if (base_ != nullptr) {
    munmap(base_, size_);
  }
}

void GuestArena::EnableCow() {
  if (cow_enabled_) {
    return;
  }
  cow_enabled_ = true;
  EnsureGlobalHandlerInstalled();
  ProtectAll();
}

void GuestArena::ProtectAll() {
  LW_CHECK(cow_enabled_);
  LW_CHECK(mprotect(base_, static_cast<size_t>(guard_lo_) * kPageSize, PROT_READ) == 0);
  LW_CHECK(mprotect(base_ + static_cast<size_t>(guard_hi_) * kPageSize,
                    size_ - static_cast<size_t>(guard_hi_) * kPageSize, PROT_READ) == 0);
  dirty_.Clear();
}

void GuestArena::ReprotectDirty(const uint8_t* skip) {
  LW_CHECK(cow_enabled_);
  const uint32_t* pages = dirty_.pages();
  const uint32_t n = dirty_.count();
  auto skipped = [skip](uint32_t page) { return skip != nullptr && skip[page] != 0; };
  // Coalesce consecutive pages into single mprotect calls: dirty lists are
  // generated in fault order, which for sequential writes is ascending.
  uint32_t i = 0;
  while (i < n) {
    if (skipped(pages[i])) {
      ++i;
      continue;
    }
    uint32_t run_start = pages[i];
    uint32_t run_len = 1;
    while (i + run_len < n && pages[i + run_len] == run_start + run_len &&
           !skipped(pages[i + run_len])) {
      ++run_len;
    }
    LW_CHECK(mprotect(PageAddr(run_start), static_cast<size_t>(run_len) * kPageSize,
                      PROT_READ) == 0);
    i += run_len;
  }
  dirty_.Clear();
}

void GuestArena::UnprotectRange(uint32_t page, uint32_t count) {
  LW_CHECK(count > 0 && page + count <= num_pages_);
  LW_CHECK_MSG(page >= guard_hi_ || page + count <= guard_lo_,
               "protection range spans the guard");
  LW_CHECK(mprotect(PageAddr(page), static_cast<size_t>(count) * kPageSize,
                    PROT_READ | PROT_WRITE) == 0);
}

void GuestArena::ProtectRange(uint32_t page, uint32_t count) {
  LW_CHECK(count > 0 && page + count <= num_pages_);
  LW_CHECK_MSG(page >= guard_hi_ || page + count <= guard_lo_,
               "protection range spans the guard");
  LW_CHECK(mprotect(PageAddr(page), static_cast<size_t>(count) * kPageSize, PROT_READ) == 0);
}

void GuestArena::HandleWriteFault(void* addr) {
  // Async-signal-safe path: bounded work, no allocation.
  uint32_t page = PageOf(addr);
  if (InGuard(page)) {
    DieInHandler("lwsnap: guest stack overflow (guard page hit)\n");
  }
  if (!cow_enabled_) {
    DieInHandler("lwsnap: unexpected fault in non-CoW arena\n");
  }
  ++cow_faults_;
  dirty_.MarkDirty(page);
  if (mprotect(PageAddr(page), kPageSize, PROT_READ | PROT_WRITE) != 0) {
    DieInHandler("lwsnap: mprotect failed in fault handler\n");
  }
}

void GuestArena::UnpoisonShadow() {
#ifdef __SANITIZE_ADDRESS__
  __asan_unpoison_memory_region(base_, size_);
#endif
}

}  // namespace lw
