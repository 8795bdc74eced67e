// Search strategies: the policy that schedules which unevaluated extension runs
// next (§3.1). "The snapshots are not scheduled by a traditional OS scheduler,
// but instead by one of the various well-understood search strategies."
//
// All strategies are internally driven except kExternal, which delegates every
// scheduling decision to a host-provided ExternalScheduler — the paper's
// "externally controlled search strategies where an external entity can generate
// new extension steps for any given partial candidates".

#ifndef LWSNAP_SRC_CORE_STRATEGY_H_
#define LWSNAP_SRC_CORE_STRATEGY_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/core/search_graph.h"
#include "src/core/types.h"
#include "src/util/rng.h"

namespace lw {

class Strategy {
 public:
  virtual ~Strategy() = default;

  virtual void Push(Extension ext) = 0;
  virtual std::optional<Extension> Pop() = 0;
  virtual size_t Size() const = 0;
  bool Empty() const { return Size() == 0; }

  // Removes and returns the least promising frontier entry (bounded-memory
  // strategies); nullopt if nothing can be evicted. Default: not supported.
  virtual std::optional<Extension> EvictWorst() { return std::nullopt; }

  virtual StrategyKind kind() const = 0;
};

// Host-side scheduling callbacks for StrategyKind::kExternal.
class ExternalScheduler {
 public:
  virtual ~ExternalScheduler() = default;

  // A new unevaluated extension exists. The scheduler owns it until it returns it
  // from SelectNext (or drops it to prune the subtree).
  virtual void OnExtension(Extension ext) = 0;

  // Returns the next extension to evaluate, or nullopt to end the search.
  virtual std::optional<Extension> SelectNext() = 0;

  // Remaining frontier size as seen by the scheduler.
  virtual size_t PendingCount() const = 0;
};

struct StrategyConfig {
  StrategyKind kind = StrategyKind::kDfs;
  uint64_t random_seed = 1;
  // kSmaStar: maximum number of frontier entries (0 = unbounded). After each
  // guess the session evicts the worst entries past it, through the same
  // EvictWorst site as its byte budget, and counts them in
  // SessionStats::evictions.
  size_t max_frontier = 0;
  // kIddfs: initial depth limit and per-wave increment.
  uint32_t iddfs_initial_limit = 1;
  uint32_t iddfs_step = 1;
  ExternalScheduler* external = nullptr;  // required for kExternal
};

std::unique_ptr<Strategy> MakeStrategy(const StrategyConfig& config);

}  // namespace lw

#endif  // LWSNAP_SRC_CORE_STRATEGY_H_
