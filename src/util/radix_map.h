// PersistentRadixMap: an immutable, structurally shared map from dense uint32
// keys to values, implemented as a path-copying radix tree with fanout 16.
//
// This is the "space-efficient encoding of the parent relationship" from §3.1 of
// the paper: sharing a snapshot's page map costs O(1) (bump a root refcount), a
// point update copies only the O(log n) nodes on the key's path, and a diff
// between two maps skips whole subtrees that are pointer-equal — so restoring to
// a nearby snapshot touches only the pages that actually differ.
//
// Requirements on T: default-constructible, copyable, equality-comparable. The
// default value is treated as "absent" for iteration purposes.

#ifndef LWSNAP_SRC_UTIL_RADIX_MAP_H_
#define LWSNAP_SRC_UTIL_RADIX_MAP_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace lw {

template <typename T>
class PersistentRadixMap {
 public:
  static constexpr uint32_t kFanout = 16;
  static constexpr uint32_t kBitsPerLevel = 4;

  // A map covering keys [0, capacity). All maps that interoperate (Diff/assignment)
  // must share the same capacity.
  explicit PersistentRadixMap(uint32_t capacity = 0) : capacity_(capacity) {
    height_ = HeightFor(capacity);
  }

  uint32_t capacity() const { return capacity_; }

  // Value at `key`; default-constructed T if never set.
  T Get(uint32_t key) const {
    LW_CHECK(key < capacity_);
    const Node* node = root_.get();
    for (int level = height_ - 1; level >= 1 && node != nullptr; --level) {
      node = node->children[SlotAt(key, level)].get();
    }
    if (node == nullptr) {
      return T();
    }
    return node->values[SlotAt(key, 0)];
  }

  // Sets `key` to `value`, path-copying the spine. O(height) node copies.
  void Set(uint32_t key, const T& value) {
    LW_CHECK(key < capacity_);
    root_ = SetRec(root_, key, value, height_ - 1);
  }

  // Rvalue overload: moves `value` into the tree, so refcounted T (PageRef)
  // pays zero bump/drop pairs on the materialize hot path.
  void Set(uint32_t key, T&& value) {
    LW_CHECK(key < capacity_);
    root_ = SetRec(root_, key, std::move(value), height_ - 1);
  }

  // Explicit O(spine) release: tears down only the nodes this map uniquely
  // owns (use_count() == 1), moving their non-default leaf values into
  // `*drain`; subtrees shared with other maps are dropped with a single child
  // refcount decrement and never descended. Afterwards the map is empty (every
  // Get returns T()). Returns the number of nodes actually visited (torn
  // down), so callers can assert the O(delta · height) bound. Iterative — no
  // recursion, so arbitrarily deep ownership chains cannot overflow the stack.
  //
  // The unique-ownership test reads shared_ptr::use_count(), which is only
  // meaningful when no other thread can concurrently copy or drop this map's
  // nodes — true for snapshot maps, which are session-thread-affine.
  size_t ReleaseInto(std::vector<T>* drain) {
    size_t visited = 0;
    struct Frame {
      NodePtr node;
      int level;
      uint32_t slot = 0;
    };
    std::vector<Frame> stack;
    auto visit = [&](NodePtr&& node, int level) {
      if (node == nullptr) {
        return;
      }
      if (node.use_count() > 1) {
        node.reset();  // shared subtree: one decrement, no descent
        return;
      }
      ++visited;
      if (level == 0) {
        for (uint32_t slot = 0; slot < kFanout; ++slot) {
          if (!(node->values[slot] == T())) {
            drain->push_back(std::move(node->values[slot]));
          }
        }
        node.reset();
        return;
      }
      stack.push_back(Frame{std::move(node), level});
    };
    visit(std::move(root_), height_ - 1);
    root_ = nullptr;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.slot == kFanout) {
        stack.pop_back();
        continue;
      }
      NodePtr child = std::move(frame.node->children[frame.slot]);
      ++frame.slot;
      // `visit` may push (invalidating `frame`); nothing touches it after this.
      visit(std::move(child), frame.level - 1);
    }
    return visited;
  }

  // Invokes fn(key, value) for every key whose value differs from T().
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    ForEachRec(root_.get(), 0, height_ - 1, fn);
  }

  // Invokes fn(key, this_value, other_value) for every key where the two maps
  // disagree. Pointer-equal subtrees are skipped without descent — the payoff of
  // structural sharing.
  template <typename Fn>
  void Diff(const PersistentRadixMap& other, Fn&& fn) const {
    LW_CHECK(capacity_ == other.capacity_);
    DiffRec(root_.get(), other.root_.get(), 0, height_ - 1, fn);
  }

 private:
  struct Node {
    // Interior levels use children; the leaf level (level 0) uses values.
    std::shared_ptr<Node> children[kFanout];
    T values[kFanout];
  };
  using NodePtr = std::shared_ptr<Node>;

  static int HeightFor(uint32_t capacity) {
    if (capacity == 0) {
      return 1;
    }
    int height = 1;
    uint64_t span = kFanout;
    while (span < capacity) {
      span *= kFanout;
      ++height;
    }
    return height;
  }

  static uint32_t SlotAt(uint32_t key, int level) {
    return (key >> (kBitsPerLevel * level)) & (kFanout - 1);
  }

  static const T& DefaultValue() {
    static const T kDefault{};
    return kDefault;
  }

  // U&& is a forwarding reference: the lvalue Set copies into the leaf, the
  // rvalue Set moves — one shared SetRec instead of two near-identical bodies.
  template <typename U>
  static NodePtr SetRec(const NodePtr& node, uint32_t key, U&& value, int level) {
    NodePtr copy = node ? std::make_shared<Node>(*node) : std::make_shared<Node>();
    if (level == 0) {
      copy->values[SlotAt(key, 0)] = std::forward<U>(value);
    } else {
      uint32_t slot = SlotAt(key, level);
      copy->children[slot] = SetRec(copy->children[slot], key, std::forward<U>(value), level - 1);
    }
    return copy;
  }

  template <typename Fn>
  static void ForEachRec(const Node* node, uint32_t prefix, int level, Fn&& fn) {
    if (node == nullptr) {
      return;
    }
    if (level == 0) {
      for (uint32_t slot = 0; slot < kFanout; ++slot) {
        if (!(node->values[slot] == T())) {
          fn(prefix * kFanout + slot, node->values[slot]);
        }
      }
      return;
    }
    for (uint32_t slot = 0; slot < kFanout; ++slot) {
      ForEachRec(node->children[slot].get(), prefix * kFanout + slot, level - 1, fn);
    }
  }

  template <typename Fn>
  static void DiffRec(const Node* a, const Node* b, uint32_t prefix, int level, Fn&& fn) {
    if (a == b) {
      return;  // Shared subtree: identical by construction.
    }
    if (level == 0) {
      // Hand leaf values to fn by reference: refcounted T (PageRef) would
      // otherwise pay an atomic bump/drop pair per differing page on every
      // restore diff. Absent slots reference one shared default instance.
      for (uint32_t slot = 0; slot < kFanout; ++slot) {
        const T& av = a != nullptr ? a->values[slot] : DefaultValue();
        const T& bv = b != nullptr ? b->values[slot] : DefaultValue();
        if (!(av == bv)) {
          fn(prefix * kFanout + slot, av, bv);
        }
      }
      return;
    }
    for (uint32_t slot = 0; slot < kFanout; ++slot) {
      const Node* ac = a != nullptr ? a->children[slot].get() : nullptr;
      const Node* bc = b != nullptr ? b->children[slot].get() : nullptr;
      DiffRec(ac, bc, prefix * kFanout + slot, level - 1, fn);
    }
  }

  uint32_t capacity_;
  int height_;
  NodePtr root_;
};

}  // namespace lw

#endif  // LWSNAP_SRC_UTIL_RADIX_MAP_H_
