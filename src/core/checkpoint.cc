#include "src/core/checkpoint.h"

namespace lw {
namespace internal {

void ReclaimQueue::Push(uint64_t token) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!detached_) {
    pending_.push_back(token);
  }
}

std::vector<uint64_t> ReclaimQueue::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> out;
  out.swap(pending_);
  return out;
}

void ReclaimQueue::Detach() {
  std::lock_guard<std::mutex> lock(mu_);
  detached_ = true;
  pending_.clear();
}

bool ReclaimQueue::detached() const {
  std::lock_guard<std::mutex> lock(mu_);
  return detached_;
}

}  // namespace internal
}  // namespace lw
