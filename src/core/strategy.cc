#include "src/core/strategy.h"

#include <algorithm>
#include <deque>

#include "src/util/status.h"

namespace lw {

const char* StrategyKindName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kDfs:
      return "dfs";
    case StrategyKind::kBfs:
      return "bfs";
    case StrategyKind::kAstar:
      return "astar";
    case StrategyKind::kSmaStar:
      return "sma-star";
    case StrategyKind::kIddfs:
      return "iddfs";
    case StrategyKind::kRandom:
      return "random";
    case StrategyKind::kExternal:
      return "external";
  }
  return "?";
}

namespace {

// Depth-first: LIFO. The session pushes a guess's extensions in reverse value
// order so that value 0 is explored first — matching the sequential fork-based
// semantics in §3 of the paper.
class DfsStrategy : public Strategy {
 public:
  void Push(Extension ext) override { stack_.push_back(std::move(ext)); }

  std::optional<Extension> Pop() override {
    if (stack_.empty()) {
      return std::nullopt;
    }
    Extension ext = std::move(stack_.back());
    stack_.pop_back();
    return ext;
  }

  size_t Size() const override { return stack_.size(); }
  StrategyKind kind() const override { return StrategyKind::kDfs; }

 private:
  std::vector<Extension> stack_;
};

class BfsStrategy : public Strategy {
 public:
  void Push(Extension ext) override { queue_.push_back(std::move(ext)); }

  std::optional<Extension> Pop() override {
    if (queue_.empty()) {
      return std::nullopt;
    }
    Extension ext = std::move(queue_.front());
    queue_.pop_front();
    return ext;
  }

  size_t Size() const override { return queue_.size(); }
  StrategyKind kind() const override { return StrategyKind::kBfs; }

 private:
  std::deque<Extension> queue_;
};

// Best-first on f = g + h, FIFO among equals. Implemented as a sorted-on-demand
// vector rather than std::priority_queue so EvictWorst (SM-A*) can remove the
// max element. SM-A*'s frontier cap is enforced by the session, which evicts
// through EvictWorst.
class AstarStrategy : public Strategy {
 public:
  explicit AstarStrategy(bool bounded) : bounded_(bounded) {}

  void Push(Extension ext) override {
    heap_.push_back(std::move(ext));
    std::push_heap(heap_.begin(), heap_.end(), MinFirst);
  }

  std::optional<Extension> Pop() override {
    if (heap_.empty()) {
      return std::nullopt;
    }
    std::pop_heap(heap_.begin(), heap_.end(), MinFirst);
    Extension ext = std::move(heap_.back());
    heap_.pop_back();
    return ext;
  }

  size_t Size() const override { return heap_.size(); }

  std::optional<Extension> EvictWorst() override {
    if (heap_.size() <= 1) {
      return std::nullopt;  // never evict the last hope
    }
    // Linear scan for the worst (max f, then newest): eviction is rare relative to
    // push/pop, so O(n) here beats maintaining a second heap.
    size_t worst = 0;
    for (size_t i = 1; i < heap_.size(); ++i) {
      if (Better(heap_[worst], heap_[i])) {
        worst = i;
      }
    }
    Extension evicted = std::move(heap_[worst]);
    heap_.erase(heap_.begin() + static_cast<ptrdiff_t>(worst));
    std::make_heap(heap_.begin(), heap_.end(), MinFirst);
    return evicted;
  }

  StrategyKind kind() const override {
    return bounded_ ? StrategyKind::kSmaStar : StrategyKind::kAstar;
  }

 private:
  // Strict-weak order used as the heap comparator: "a sorts after b" for a
  // max-heap on (-f, -seq) i.e. the heap top is the min-f, oldest extension.
  static bool MinFirst(const Extension& a, const Extension& b) {
    if (a.f() != b.f()) {
      return a.f() > b.f();
    }
    return a.seq > b.seq;
  }

  // True if `b` is a worse candidate than `a` (for eviction).
  static bool Better(const Extension& a, const Extension& b) {
    if (a.f() != b.f()) {
      return b.f() > a.f();
    }
    return b.seq > a.seq;
  }

  std::vector<Extension> heap_;
  bool bounded_;
};

// Snapshot-retaining iterative deepening: extensions beyond the current depth
// limit are stashed; when the frontier drains, the limit grows by `step` and the
// stash becomes the next wave. (Classic IDDFS re-executes from the root to save
// memory; with O(1) snapshot sharing, retaining the frontier is cheaper — noted
// as a deliberate deviation in DESIGN.md.)
class IddfsStrategy : public Strategy {
 public:
  IddfsStrategy(uint32_t initial_limit, uint32_t step) : limit_(initial_limit), step_(step) {}

  void Push(Extension ext) override {
    if (ext.depth > limit_) {
      stash_.push_back(std::move(ext));
    } else {
      stack_.push_back(std::move(ext));
    }
  }

  std::optional<Extension> Pop() override {
    while (true) {
      if (!stack_.empty()) {
        Extension ext = std::move(stack_.back());
        stack_.pop_back();
        return ext;
      }
      if (stash_.empty()) {
        return std::nullopt;
      }
      limit_ += step_;
      std::vector<Extension> pending = std::move(stash_);
      stash_.clear();
      for (auto& ext : pending) {
        Push(std::move(ext));
      }
    }
  }

  size_t Size() const override { return stack_.size() + stash_.size(); }
  StrategyKind kind() const override { return StrategyKind::kIddfs; }

 private:
  uint32_t limit_;
  uint32_t step_;
  std::vector<Extension> stack_;
  std::vector<Extension> stash_;
};

class RandomStrategy : public Strategy {
 public:
  explicit RandomStrategy(uint64_t seed) : rng_(seed) {}

  void Push(Extension ext) override { pool_.push_back(std::move(ext)); }

  std::optional<Extension> Pop() override {
    if (pool_.empty()) {
      return std::nullopt;
    }
    size_t i = static_cast<size_t>(rng_.Below(pool_.size()));
    std::swap(pool_[i], pool_.back());
    Extension ext = std::move(pool_.back());
    pool_.pop_back();
    return ext;
  }

  size_t Size() const override { return pool_.size(); }
  StrategyKind kind() const override { return StrategyKind::kRandom; }

 private:
  Rng rng_;
  std::vector<Extension> pool_;
};

class ExternalStrategy : public Strategy {
 public:
  explicit ExternalStrategy(ExternalScheduler* scheduler) : scheduler_(scheduler) {
    LW_CHECK_MSG(scheduler != nullptr, "kExternal requires an ExternalScheduler");
  }

  void Push(Extension ext) override { scheduler_->OnExtension(std::move(ext)); }
  std::optional<Extension> Pop() override { return scheduler_->SelectNext(); }
  size_t Size() const override { return scheduler_->PendingCount(); }
  StrategyKind kind() const override { return StrategyKind::kExternal; }

 private:
  ExternalScheduler* scheduler_;
};

}  // namespace

std::unique_ptr<Strategy> MakeStrategy(const StrategyConfig& config) {
  switch (config.kind) {
    case StrategyKind::kDfs:
      return std::make_unique<DfsStrategy>();
    case StrategyKind::kBfs:
      return std::make_unique<BfsStrategy>();
    case StrategyKind::kAstar:
      return std::make_unique<AstarStrategy>(/*bounded=*/false);
    case StrategyKind::kSmaStar:
      return std::make_unique<AstarStrategy>(/*bounded=*/true);
    case StrategyKind::kIddfs:
      return std::make_unique<IddfsStrategy>(config.iddfs_initial_limit, config.iddfs_step);
    case StrategyKind::kRandom:
      return std::make_unique<RandomStrategy>(config.random_seed);
    case StrategyKind::kExternal:
      return std::make_unique<ExternalStrategy>(config.external);
  }
  LW_CHECK_MSG(false, "unknown strategy kind");
  return nullptr;
}

}  // namespace lw
