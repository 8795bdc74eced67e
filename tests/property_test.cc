// Cross-module property tests: randomized operation sequences checked against
// simple reference models. These complement the per-module suites by attacking
// invariants the unit tests can't sweep by hand.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/arena.h"
#include "src/core/guest_heap.h"
#include "src/prolog/machine.h"
#include "src/prolog/term.h"
#include "src/snapshot/budget_policy.h"
#include "src/snapshot/engine.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace lw {
namespace {

// --- GuestHeap: random alloc/free against a shadow model ---

class GuestHeapRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GuestHeapRandomTest, NeverOverlapsAndSurvivesChurn) {
  Rng rng(GetParam());
  constexpr size_t kArena = 1 << 20;
  std::vector<uint8_t> backing(kArena);
  GuestHeap* heap = GuestHeap::Init(backing.data(), kArena);

  struct Block {
    uint8_t* ptr;
    size_t size;
    uint8_t fill;
  };
  std::vector<Block> live;
  uint8_t next_fill = 1;

  for (int op = 0; op < 2000; ++op) {
    bool do_alloc = live.empty() || rng.Next() % 3 != 0;
    if (do_alloc) {
      size_t size = 1 + rng.Next() % 512;
      auto* p = static_cast<uint8_t*>(heap->Alloc(size));
      if (p == nullptr) {
        continue;  // exhaustion is legal under churn
      }
      // Alignment and containment.
      ASSERT_EQ(reinterpret_cast<uintptr_t>(p) % 16, 0u);
      ASSERT_GE(p, backing.data());
      ASSERT_LE(p + size, backing.data() + kArena);
      std::memset(p, next_fill, size);
      live.push_back({p, size, next_fill});
      next_fill = static_cast<uint8_t>(next_fill == 255 ? 1 : next_fill + 1);
    } else {
      size_t victim = rng.Next() % live.size();
      // The block's fill pattern must be intact (no overlap ever happened).
      for (size_t i = 0; i < live[victim].size; ++i) {
        ASSERT_EQ(live[victim].ptr[i], live[victim].fill) << "corruption at op " << op;
      }
      heap->Free(live[victim].ptr);
      live.erase(live.begin() + static_cast<long>(victim));
    }
    if (op % 256 == 0) {
      ASSERT_TRUE(heap->CheckConsistency());
    }
  }
  for (const Block& block : live) {
    for (size_t i = 0; i < block.size; ++i) {
      ASSERT_EQ(block.ptr[i], block.fill);
    }
    heap->Free(block.ptr);
  }
  ASSERT_TRUE(heap->CheckConsistency());
  EXPECT_EQ(heap->stats().bytes_in_use, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuestHeapRandomTest, ::testing::Values(1, 2, 3, 4, 5, 99));

// --- TermHeap: unification properties on random terms ---

class TermBuilder {
 public:
  TermBuilder(AtomTable* atoms, TermHeap* heap, Rng* rng) : atoms_(atoms), heap_(heap), rng_(rng) {}

  // Builds a random term of bounded depth over a small vocabulary; `vars` is a
  // shared pool so the same variable can occur twice.
  TermRef Random(int depth, std::vector<TermRef>* vars) {
    uint64_t pick = rng_->Next() % 10;
    if (depth <= 0 || pick < 3) {
      if (pick < 1 && !vars->empty()) {
        return (*vars)[rng_->Next() % vars->size()];
      }
      if (pick < 2) {
        TermRef v = heap_->NewVar();
        vars->push_back(v);
        return v;
      }
      return heap_->NewInt(static_cast<int64_t>(rng_->Next() % 5));
    }
    if (pick < 5) {
      return heap_->NewAtom(atoms_->Intern(pick < 4 ? "a" : "b"));
    }
    uint32_t arity = 1 + static_cast<uint32_t>(rng_->Next() % 3);
    std::vector<TermRef> args(arity);
    for (TermRef& arg : args) {
      arg = Random(depth - 1, vars);
    }
    TermRef s = heap_->NewStruct(atoms_->Intern(pick < 8 ? "f" : "g"), arity);
    for (uint32_t i = 0; i < arity; ++i) {
      heap_->SetArg(s, i, args[i]);
    }
    return s;
  }

 private:
  AtomTable* atoms_;
  TermHeap* heap_;
  Rng* rng_;
};

// Exercise unification through the machine (its Unify is private, so drive it
// with =/2 queries over stringified random terms — which also round-trips the
// parser/printer pair).
class UnifyPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UnifyPropertyTest, UnifyIsSymmetricAndIdempotent) {
  Rng rng(GetParam());
  AtomTable atoms;
  TermHeap heap;
  TermBuilder builder(&atoms, &heap, &rng);

  PrologMachine machine;
  ASSERT_TRUE(machine.Consult("dummy.").ok());

  for (int round = 0; round < 60; ++round) {
    std::vector<TermRef> vars;
    TermRef t1 = builder.Random(3, &vars);
    TermRef t2 = builder.Random(3, &vars);
    std::string s1 = heap.ToString(atoms, t1);
    std::string s2 = heap.ToString(atoms, t2);
    // Variable names _Gn are parseable variables — the round trip renames
    // them consistently within one query.
    auto ab = machine.Query(s1 + " = " + s2 + ".");
    auto ba = machine.Query(s2 + " = " + s1 + ".");
    ASSERT_TRUE(ab.ok()) << s1 << " = " << s2;
    ASSERT_TRUE(ba.ok());
    // Symmetry.
    EXPECT_EQ(*ab != 0, *ba != 0) << s1 << " vs " << s2;
    // Self-unification always succeeds.
    auto self = machine.Query(s1 + " = " + s1 + ".");
    ASSERT_TRUE(self.ok());
    EXPECT_EQ(*self, 1u) << s1;
    // Unification implies structural identity afterwards: t = t2, t == t2.
    auto entail = machine.Query(s1 + " = " + s2 + ", " + s1 + " == " + s2 + ".");
    ASSERT_TRUE(entail.ok());
    EXPECT_EQ(*entail != 0, *ab != 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnifyPropertyTest, ::testing::Values(11, 22, 33, 44));

// --- TermHeap: copy preserves structure and variable sharing ---

TEST(TermHeapPropertyTest, CopyPreservesSharingAcrossHeaps) {
  Rng rng(5);
  AtomTable atoms;
  TermHeap src;
  TermBuilder builder(&atoms, &src, &rng);
  for (int round = 0; round < 40; ++round) {
    std::vector<TermRef> vars;
    TermRef t = builder.Random(4, &vars);
    TermHeap dst;
    std::unordered_map<TermRef, TermRef> var_map;
    TermRef copy = dst.CopyFrom(src, t, &var_map);
    // Printed forms agree up to variable renaming: compare shapes by replacing
    // variable spellings with position markers.
    std::string a = src.ToString(atoms, t);
    std::string b = dst.ToString(atoms, copy);
    auto shape = [](const std::string& s) {
      std::string out;
      std::map<std::string, int> names;
      for (size_t i = 0; i < s.size();) {
        if (s[i] == '_' && i + 1 < s.size() && s[i + 1] == 'G') {
          size_t j = i + 2;
          while (j < s.size() && std::isdigit(static_cast<unsigned char>(s[j])) != 0) {
            ++j;
          }
          std::string name = s.substr(i, j - i);
          auto [it, fresh] = names.emplace(name, static_cast<int>(names.size()));
          out += "V" + std::to_string(it->second);
          i = j;
        } else {
          out += s[i++];
        }
      }
      return out;
    };
    EXPECT_EQ(shape(a), shape(b));
  }
}

// --- Snapshot engines: cross-mode differential against a shadow image ---

// Seeded random page-write / materialize / restore scripts run against every
// snapshot mode, unbudgeted and under a tight byte budget with the spill tier
// on. A shadow copy of the write window is taken at each materialize; every
// restore must reproduce it byte for byte and leave the rest of the arena zero.
// Dropped snapshots exercise release along the way; in the budgeted runs the
// ladder compresses and spills after every materialize, so restores read pages
// back through decompression and fault-back.
class EngineDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

constexpr uint32_t kWindowPages = 256;  // writes land in pages [0, kWindowPages)

// Far below what the window's distinct pages occupy even compressed, so every
// ladder pass compresses and then spills.
constexpr uint64_t kTightBudget = 16 * 1024;

// A fresh spill directory, removed with everything in it on destruction.
class ScratchDir {
 public:
  ScratchDir() {
    char tmpl[] = "/tmp/lwsnap_differential_XXXXXX";
    const char* dir = mkdtemp(tmpl);
    LW_CHECK_MSG(dir != nullptr, "mkdtemp failed for the differential spill dir");
    path_ = dir;
  }
  ~ScratchDir() {
    const std::string cmd = "rm -rf '" + path_ + "'";
    const int rc = std::system(cmd.c_str());
    (void)rc;
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Returns "" on success, otherwise the first divergence. `budget` 0 runs with
// no budget and no spill tier.
std::string RunDifferentialScript(uint64_t seed, SnapshotMode mode, uint64_t budget) {
  GuestArena::Layout layout;
  layout.arena_bytes = 2ull << 20;
  layout.stack_bytes = 256 * 1024;
  layout.guard_bytes = 16 * kPageSize;
  GuestArena arena(layout);
  std::unique_ptr<ScratchDir> spill_dir;
  PageStoreOptions store_options;
  if (budget != 0) {
    spill_dir = std::make_unique<ScratchDir>();
    store_options.spill_dir = spill_dir->path() + "/store";
    store_options.spill_segment_bytes = 64 * 1024;
  }
  PageStore store(store_options);
  if (!store.spill_status().ok()) {
    return "spill tier failed to open: " + store.spill_status().ToString();
  }
  SnapshotEngineStats stats;
  SnapshotEngine::Env env;
  env.arena = &arena;
  env.store = &store;
  env.stats = &stats;
  env.hot_page_limit = 8;
  SnapshotEngine engine(mode, env);

  const size_t window = static_cast<size_t>(kWindowPages) * kPageSize;
  std::vector<uint8_t> live(window, 0);  // shadow of the window's current bytes
  struct Kept {
    std::unique_ptr<Snapshot> snap;
    std::vector<uint8_t> image;
  };
  std::vector<Kept> kept;
  Rng rng(seed);
  auto write = [&](uint32_t page, uint32_t offset, uint32_t len, uint8_t value) {
    std::memset(arena.PageAddr(page) + offset, value, len);
    std::memset(live.data() + static_cast<size_t>(page) * kPageSize + offset, value, len);
  };

  for (int op = 0; op < 120; ++op) {
    const uint64_t dice = rng.Next() % 100;
    if (dice < 45) {  // narrow write: a byte range of one or two pages
      // Nearly half land on pages 0-3, a working set that kCow promotes hot.
      const uint32_t page =
          static_cast<uint32_t>(rng.Next() % (dice < 20 ? 4 : kWindowPages - 1));
      const uint32_t offset = static_cast<uint32_t>(rng.Next() % kPageSize);
      const uint32_t len = 1 + static_cast<uint32_t>(rng.Next() % (kPageSize - offset));
      const uint8_t value = static_cast<uint8_t>(rng.Next());
      write(page, offset, len, value);
      if (dice < 10) {
        write(page + 1, 0, kPageSize, value);  // a second page with equal bytes
      }
    } else if (dice < 50) {  // wide burst across most of the window
      const uint8_t value = static_cast<uint8_t>(rng.Next());
      for (uint32_t page = kWindowPages; page-- > 16;) {
        write(page, static_cast<uint32_t>(rng.Next() % kPageSize), 1, value);
      }
    } else if (dice < 55) {  // zero a page, or rewrite one with its own bytes
      const uint32_t page = static_cast<uint32_t>(rng.Next() % kWindowPages);
      if (rng.Next() % 2 == 0) {
        write(page, 0, kPageSize, 0);
      } else {
        std::memcpy(arena.PageAddr(page), live.data() + static_cast<size_t>(page) * kPageSize,
                    kPageSize);
      }
    } else if (dice < 75) {  // materialize
      Kept k{std::make_unique<Snapshot>(), live};
      engine.Materialize(*k.snap);
      if (budget != 0) {
        EnforceByteBudget(store, budget, /*evict=*/[] { return false; });
      }
      kept.push_back(std::move(k));
      if (kept.size() > 12) {
        kept.erase(kept.begin() + static_cast<long>(rng.Next() % kept.size()));
      }
    } else if (!kept.empty()) {  // restore to a random kept snapshot
      const Kept& target = kept[rng.Next() % kept.size()];
      engine.Restore(*target.snap);
      live = target.image;
      for (uint32_t page = 0; page < arena.num_pages(); ++page) {
        if (arena.InGuard(page)) {
          continue;
        }
        const uint8_t* bytes = arena.PageAddr(page);
        bool ok = true;
        if (page < kWindowPages) {
          ok = std::memcmp(bytes, live.data() + static_cast<size_t>(page) * kPageSize,
                           kPageSize) == 0;
        } else {
          for (size_t i = 0; i < kPageSize && ok; ++i) {
            ok = bytes[i] == 0;
          }
        }
        if (!ok) {
          return "page " + std::to_string(page) + " differs after the restore at op " +
                 std::to_string(op);
        }
      }
    }
  }
  if (budget != 0) {
    // The budgeted run must actually have driven restores through the cold
    // rungs, or it checks nothing the unbudgeted run does not.
    const PageStore::Stats store_stats = store.stats();
    if (store_stats.compressions == 0 || store_stats.spills == 0) {
      return "the budget never compressed and spilled (compressions " +
             std::to_string(store_stats.compressions) + ", spills " +
             std::to_string(store_stats.spills) + ")";
    }
  }
  return "";
}

TEST_P(EngineDifferentialTest, EveryModeRestoresTheShadowImage) {
  const uint64_t seed = GetParam();
  for (SnapshotMode mode : {SnapshotMode::kCow, SnapshotMode::kFullCopy,
                            SnapshotMode::kIncremental}) {
    for (uint64_t budget : {uint64_t{0}, kTightBudget}) {
      const std::string failure = RunDifferentialScript(seed, mode, budget);
      EXPECT_TRUE(failure.empty())
          << "seed " << seed << " mode " << SnapshotModeName(mode) << " budget "
          << (budget == 0 ? std::string("unbounded") : std::to_string(budget)) << ": " << failure;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDifferentialTest, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace lw
