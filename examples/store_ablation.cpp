// PageStore spill-tier demo (E15): run
//   ./example_store_ablation --spill_dir <dir> [--budget <bytes>]
// to drive an out-of-core workload: a session parks checkpoints whose
// unique, incompressible trails logically hold ~10× the RAM budget; the
// evict → compress → spill → drop ladder keeps residency under the budget by
// paging the cold payloads into spill segments under <dir>, and every parked
// checkpoint is then resumed and its restored trail re-verified bit-for-bit
// (fault-back from disk). With no --budget the budget is self-calibrated from
// an unbounded run of the same workload.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/core/backtrack.h"
#include "src/snapshot/budget_policy.h"
#include "src/snapshot/spill_tier.h"

namespace {

constexpr int kSpillBranches = 16;
constexpr int kSpillPages = 32;

struct SpillConfig {
  int branches = 0;
  int pages = 0;
};

struct SpillMail {
  uint64_t branch = 0;
  uint64_t ok = 0;  // 1 = restored trail bit-identical, 2 = corrupt
};

uint64_t SpillWord(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *state = x;
  return x;
}

// Unique, incompressible (xorshift stream) trail page for (branch, page):
// neither dedup nor the codec gets a win, so the spill rung is the only rung
// that can shed these bytes.
void SpillFillPage(uint8_t* buf, uint64_t branch, uint64_t page) {
  uint64_t state = (branch * 0x9e3779b97f4a7c15ull + page * 2654435761ull) | 1ull;
  for (size_t off = 0; off < lw::kPageSize; off += sizeof(uint64_t)) {
    uint64_t word = SpillWord(&state);
    std::memcpy(buf + off, &word, sizeof(word));
  }
}

// Each guessed branch writes its unique trail and parks; a later resume makes
// the guest re-verify the restored trail against the regenerated stream.
void SpillGuest(void* arg) {
  const SpillConfig cfg = *static_cast<const SpillConfig*>(arg);
  auto* session = static_cast<lw::BacktrackSession*>(lw::CurrentExecutor());
  auto* mail = lw::GuestNew<SpillMail>(session->heap());
  auto* raw = static_cast<uint8_t*>(
      session->heap()->Alloc(static_cast<size_t>(cfg.pages + 1) * lw::kPageSize));
  auto* trail = reinterpret_cast<uint8_t*>(
      (reinterpret_cast<uintptr_t>(raw) + lw::kPageSize - 1) & ~(lw::kPageSize - 1));
  if (lw::sys_guess_strategy(lw::StrategyKind::kDfs)) {
    uint64_t g = static_cast<uint64_t>(lw::sys_guess(cfg.branches));
    for (int p = 0; p < cfg.pages; ++p) {
      SpillFillPage(trail + static_cast<size_t>(p) * lw::kPageSize, g + 1, p);
    }
    mail->branch = g;
    mail->ok = 0;
    lw::sys_note_solution();
    size_t len = lw::sys_yield(mail, sizeof(SpillMail));  // park this branch
    while (len > 0) {
      uint8_t expect[lw::kPageSize];
      bool match = true;
      for (int p = 0; p < cfg.pages && match; ++p) {
        SpillFillPage(expect, g + 1, p);
        match = std::memcmp(trail + static_cast<size_t>(p) * lw::kPageSize, expect,
                            lw::kPageSize) == 0;
      }
      mail->branch = g;
      mail->ok = match ? 1 : 2;
      len = lw::sys_yield(mail, sizeof(SpillMail));  // park the verdict
    }
    lw::sys_guess_fail();
  }
}

struct SpillRow {
  uint64_t live = 0;
  uint64_t logical = 0;
  uint64_t spilled_blobs = 0;
  uint64_t spill_segments = 0;
  uint64_t faultbacks = 0;
  int verified = 0;
  int corrupt = 0;
};

SpillRow RunSpillWorkload(const std::string& spill_dir, uint64_t budget) {
  lw::PageStoreOptions store_options;
  store_options.spill_dir = spill_dir;
  auto store = std::make_shared<lw::PageStore>(store_options);
  if (!spill_dir.empty() && !store->spill_enabled()) {
    std::fprintf(stderr, "spill tier failed to open: %s\n",
                 store->spill_status().ToString().c_str());
    std::exit(1);
  }

  lw::SessionOptions options;
  options.arena_bytes = 8ull << 20;
  options.snapshot_byte_budget = budget;
  options.store = store;
  options.output = [](std::string_view) {};
  SpillConfig cfg{kSpillBranches, kSpillPages};
  lw::BacktrackSession session(options);
  lw::Status status = session.Run(&SpillGuest, &cfg);
  if (!status.ok()) {
    std::fprintf(stderr, "spill workload failed: %s\n", status.ToString().c_str());
    std::exit(1);
  }
  std::vector<lw::Checkpoint> parked = session.TakeNewCheckpoints();
  if (budget != 0) {
    // The ladder a service host runs once the population is fully parked.
    lw::EnforceByteBudget(*store, budget, []() { return false; });
  }

  SpillRow row;
  lw::PageStore::Stats stats = store->stats();
  row.live = stats.bytes_live();
  row.logical = stats.bytes_logical();
  row.spilled_blobs = stats.spilled_blobs;
  row.spill_segments = stats.spill_segments;

  // Resume every parked branch — spilled trails fault back from disk — and
  // collect the guest's own bit-identity verdict.
  for (lw::Checkpoint& cp : parked) {
    uint8_t req = 1;
    if (!session.Resume(cp, &req, sizeof(req)).ok()) {
      std::exit(1);
    }
    std::vector<lw::Checkpoint> fresh = session.TakeNewCheckpoints();
    SpillMail verdict;
    if (fresh.size() != 1 ||
        !session.ReadCheckpointMailbox(fresh[0], &verdict, sizeof(verdict)).ok()) {
      std::exit(1);
    }
    (verdict.ok == 1 ? row.verified : row.corrupt) += 1;
    (void)session.ReleaseCheckpoint(fresh[0]);
    (void)session.ReleaseCheckpoint(cp);
  }
  row.faultbacks = store->stats().faultbacks;
  return row;
}

int RunSpillDemo(const std::string& spill_dir, uint64_t budget) {
  if (budget == 0) {
    SpillRow unbounded = RunSpillWorkload("", 0);
    budget = unbounded.logical / 12;  // an order of magnitude over-committed
    std::printf("calibration: unbounded run holds %" PRIu64 " KiB; budget = %" PRIu64 " KiB\n\n",
                unbounded.logical / 1024, budget / 1024);
  }
  SpillRow row = RunSpillWorkload(spill_dir, budget);
  std::printf("spill demo (%d parked branches x %d unique incompressible pages)\n", kSpillBranches,
              kSpillPages);
  std::printf("  %-22s %12s\n", "metric", "value");
  std::printf("  %-22s %9" PRIu64 " KiB\n", "ram budget", budget / 1024);
  std::printf("  %-22s %9" PRIu64 " KiB\n", "resident (live)", row.live / 1024);
  std::printf("  %-22s %9" PRIu64 " KiB\n", "logical (parked)", row.logical / 1024);
  std::printf("  %-22s %11.1fx\n", "over-budget factor",
              row.live != 0 ? static_cast<double>(row.logical) / static_cast<double>(row.live)
                            : 0.0);
  std::printf("  %-22s %12" PRIu64 "\n", "spilled blobs", row.spilled_blobs);
  std::printf("  %-22s %12" PRIu64 "\n", "spill segments", row.spill_segments);
  std::printf("  %-22s %12" PRIu64 "\n", "fault-backs", row.faultbacks);
  std::printf("  %-22s %8d / %d\n", "restores bit-identical", row.verified,
              row.verified + row.corrupt);
  return row.corrupt == 0 && row.live <= budget ? 0 : 1;
}

int Usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s --spill_dir <dir> [--budget <bytes>]\n", argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string spill_dir;
  uint64_t budget = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--spill_dir" && i + 1 < argc) {
      spill_dir = argv[++i];
    } else if (arg.rfind("--spill_dir=", 0) == 0) {
      spill_dir = arg.substr(strlen("--spill_dir="));
    } else if (arg == "--budget" && i + 1 < argc) {
      budget = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg.rfind("--budget=", 0) == 0) {
      budget = std::strtoull(arg.c_str() + strlen("--budget="), nullptr, 0);
    } else {
      return Usage(argv[0]);
    }
  }
  return spill_dir.empty() ? Usage(argv[0]) : RunSpillDemo(spill_dir, budget);
}
