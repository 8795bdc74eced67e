// Strategy tests: each StrategyKind in isolation (push/pop discipline,
// eviction) and end-to-end inside sessions — including the externally
// controlled strategy of §3.1 and SM-A*'s bounded frontier.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "src/core/backtrack.h"

namespace lw {
namespace {

Extension MakeExt(uint64_t seq, int value, uint32_t depth = 0, double g = 0, double h = 0) {
  Extension ext;
  ext.snapshot = std::make_shared<Snapshot>();
  ext.snapshot->id = seq;
  ext.snapshot->depth = depth;
  ext.value = value;
  ext.depth = depth;
  ext.seq = seq;
  ext.g = g;
  ext.h = h;
  return ext;
}

TEST(StrategyUnitTest, DfsIsLifo) {
  StrategyConfig config;
  config.kind = StrategyKind::kDfs;
  auto strategy = MakeStrategy(config);
  strategy->Push(MakeExt(1, 10));
  strategy->Push(MakeExt(2, 20));
  strategy->Push(MakeExt(3, 30));
  EXPECT_EQ(strategy->Size(), 3u);
  EXPECT_EQ(strategy->Pop()->value, 30);
  EXPECT_EQ(strategy->Pop()->value, 20);
  EXPECT_EQ(strategy->Pop()->value, 10);
  EXPECT_FALSE(strategy->Pop().has_value());
}

TEST(StrategyUnitTest, BfsIsFifo) {
  StrategyConfig config;
  config.kind = StrategyKind::kBfs;
  auto strategy = MakeStrategy(config);
  strategy->Push(MakeExt(1, 10));
  strategy->Push(MakeExt(2, 20));
  strategy->Push(MakeExt(3, 30));
  EXPECT_EQ(strategy->Pop()->value, 10);
  EXPECT_EQ(strategy->Pop()->value, 20);
  EXPECT_EQ(strategy->Pop()->value, 30);
}

TEST(StrategyUnitTest, AstarPopsMinFCost) {
  StrategyConfig config;
  config.kind = StrategyKind::kAstar;
  auto strategy = MakeStrategy(config);
  strategy->Push(MakeExt(1, 1, 0, /*g=*/5, /*h=*/5));   // f=10
  strategy->Push(MakeExt(2, 2, 0, /*g=*/1, /*h=*/2));   // f=3
  strategy->Push(MakeExt(3, 3, 0, /*g=*/4, /*h=*/2));   // f=6
  EXPECT_EQ(strategy->Pop()->value, 2);
  EXPECT_EQ(strategy->Pop()->value, 3);
  EXPECT_EQ(strategy->Pop()->value, 1);
}

TEST(StrategyUnitTest, EvictWorstOnDemand) {
  StrategyConfig config;
  config.kind = StrategyKind::kSmaStar;
  auto strategy = MakeStrategy(config);
  EXPECT_FALSE(strategy->EvictWorst());  // empty
  strategy->Push(MakeExt(1, 1, 0, 1, 1));
  strategy->Push(MakeExt(2, 2, 0, 9, 9));
  EXPECT_TRUE(strategy->EvictWorst());
  EXPECT_EQ(strategy->Size(), 1u);
  EXPECT_EQ(strategy->Pop()->value, 1);
}

TEST(StrategyUnitTest, RandomIsSeedDeterministic) {
  auto run = [](uint64_t seed) {
    StrategyConfig config;
    config.kind = StrategyKind::kRandom;
    config.random_seed = seed;
    auto strategy = MakeStrategy(config);
    for (int i = 0; i < 16; ++i) {
      strategy->Push(MakeExt(static_cast<uint64_t>(i), i));
    }
    std::vector<int> order;
    while (auto ext = strategy->Pop()) {
      order.push_back(ext->value);
    }
    return order;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // overwhelmingly likely for 16! orders
}

// External scheduler: the host decides everything (§3.1).
class RecordingScheduler : public ExternalScheduler {
 public:
  void OnExtension(Extension ext) override {
    offered_.push_back(ext.value);
    pending_.push_back(std::move(ext));
  }
  std::optional<Extension> SelectNext() override {
    if (pending_.empty()) {
      return std::nullopt;
    }
    // Perverse policy: always run the *middle* pending extension.
    size_t pick = pending_.size() / 2;
    Extension ext = std::move(pending_[pick]);
    pending_.erase(pending_.begin() + static_cast<long>(pick));
    return ext;
  }
  size_t PendingCount() const override { return pending_.size(); }

  std::vector<int> offered_;

 private:
  std::deque<Extension> pending_;
};

struct ExternalArgs {
  std::vector<int>* visited;
};

void ExternalGuest(void* arg) {
  auto* args = static_cast<ExternalArgs*>(arg);
  if (sys_guess_strategy(StrategyKind::kExternal)) {
    int v = sys_guess(5);
    args->visited->push_back(v);
    sys_guess_fail();
  }
}

TEST(StrategySessionTest, ExternalSchedulerControlsOrder) {
  RecordingScheduler scheduler;
  std::vector<int> visited;
  SessionOptions options;
  options.arena_bytes = 8ull << 20;
  options.strategy.kind = StrategyKind::kExternal;
  options.strategy.external = &scheduler;
  options.output = [](std::string_view) {};
  BacktrackSession session(options);
  ExternalArgs args{&visited};
  ASSERT_TRUE(session.Run(&ExternalGuest, &args).ok());
  // All 5 guess extensions were offered (plus the scope's own continuation)
  // and all ran — the scheduler returned every one of them.
  EXPECT_GE(scheduler.offered_.size(), 5u);
  EXPECT_EQ(visited.size(), 5u);
  // The order differs from plain DFS (which would be 4,3,2,1,0 or 0..4).
  std::vector<int> sorted = visited;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4}));
}

// End-to-end: every internally driven strategy must enumerate the same
// complete leaf set of a branching guest.
struct TreeArgs {
  StrategyKind kind;
  std::vector<int>* leaves;
};

void TreeGuest(void* arg) {
  auto* args = static_cast<TreeArgs*>(arg);
  if (sys_guess_strategy(args->kind)) {
    int a = sys_guess(3);
    int b = sys_guess(3);
    args->leaves->push_back(a * 3 + b);
    sys_guess_fail();
  }
}

class StrategyEnumeration : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(StrategyEnumeration, VisitsEveryLeafExactlyOnce) {
  std::vector<int> leaves;
  SessionOptions options;
  options.arena_bytes = 8ull << 20;
  options.output = [](std::string_view) {};
  if (GetParam() == StrategyKind::kIddfs) {
    options.strategy.iddfs_initial_limit = 1;
    options.strategy.iddfs_step = 1;
  }
  BacktrackSession session(options);
  TreeArgs args{GetParam(), &leaves};
  ASSERT_TRUE(session.Run(&TreeGuest, &args).ok());
  std::sort(leaves.begin(), leaves.end());
  std::vector<int> expected(9);
  for (int i = 0; i < 9; ++i) {
    expected[static_cast<size_t>(i)] = i;
  }
  EXPECT_EQ(leaves, expected) << StrategyKindName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Kinds, StrategyEnumeration,
                         ::testing::Values(StrategyKind::kDfs, StrategyKind::kBfs,
                                           StrategyKind::kAstar, StrategyKind::kSmaStar,
                                           StrategyKind::kRandom),
                         [](const ::testing::TestParamInfo<StrategyKind>& param_info) {
                           std::string name = StrategyKindName(param_info.param);
                           for (char& c : name) {
                             if (c == '-' || c == '*') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// SM-A* inside a session: a byte budget forces evictions; search still ends.
struct BudgetArgs {
  int completions = 0;
};

void BudgetGuest(void* arg) {
  auto* args = static_cast<BudgetArgs*>(arg);
  auto* session = static_cast<BacktrackSession*>(CurrentExecutor());
  auto* buffer = static_cast<uint8_t*>(session->heap()->Alloc(64 * 4096));
  if (sys_guess_strategy(StrategyKind::kSmaStar)) {
    uint8_t sig = 0;  // path signature: restored with the snapshot, unique per prefix
    for (int d = 0; d < 4; ++d) {
      GuessCost costs[3] = {{d * 1.0, 3.0 - d}, {d * 1.0, 2.0}, {d * 1.0, 1.0}};
      int pick = sys_guess_weighted(3, costs);
      // Dirty a few pages with *path-unique* content so snapshots have real
      // weight — byte-identical sibling writes would content-dedup to shared
      // blobs and never pressure the budget.
      sig = static_cast<uint8_t>(sig * 3 + pick + 1);
      buffer[static_cast<size_t>(d) * 8 * 4096 + static_cast<size_t>(pick)] = sig;
    }
    args->completions++;
    sys_guess_fail();
  }
}

TEST(StrategySessionTest, SmaStarByteBudgetEvictsButTerminates) {
  BudgetArgs args;
  SessionOptions options;
  options.arena_bytes = 8ull << 20;
  options.strategy.kind = StrategyKind::kSmaStar;
  options.snapshot_byte_budget = 64 * 4096;  // tight: forces evictions
  options.output = [](std::string_view) {};
  BacktrackSession session(options);
  ASSERT_TRUE(session.Run(&BudgetGuest, &args).ok());
  EXPECT_GT(args.completions, 0);       // found at least one leaf
  EXPECT_GT(session.stats().evictions, 0u);
  EXPECT_LT(args.completions, 81);      // and the budget really pruned
}

// SM-A*'s frontier cap inside a session: with max_frontier = 2, a three-way
// guess overflows the frontier by one. The session evicts the worst entry
// (f = 10) and counts it; the survivors run best-first.
void FrontierCapGuest(void* arg) {
  auto* picks = static_cast<std::vector<int>*>(arg);
  if (sys_guess_strategy(StrategyKind::kSmaStar)) {
    GuessCost costs[3] = {{5.0, 5.0}, {1.0, 2.0}, {4.0, 2.0}};  // f = 10, 3, 6
    picks->push_back(sys_guess_weighted(3, costs));
    sys_guess_fail();
  }
}

TEST(StrategySessionTest, SmaStarFrontierCapEvictsWorst) {
  std::vector<int> picks;
  SessionOptions options;
  options.arena_bytes = 8ull << 20;
  options.strategy.kind = StrategyKind::kSmaStar;
  options.strategy.max_frontier = 2;
  options.output = [](std::string_view) {};
  BacktrackSession session(options);
  ASSERT_TRUE(session.Run(&FrontierCapGuest, &picks).ok());
  EXPECT_EQ(session.stats().evictions, 1u);
  EXPECT_EQ(picks, (std::vector<int>{1, 2}));  // f = 3, then f = 6; f = 10 was dropped
}

}  // namespace
}  // namespace lw
