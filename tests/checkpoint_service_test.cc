// CheckpointService host-layer tests: the generic boot/mailbox/park/drain
// machinery every service shares — boot-once lifecycle, exactly-one-checkpoint
// protocol, raw request/response framing, typed-handle validation across two
// hosts, handles cloned and dropped on foreign threads, and the
// WireReader/WireWriter bounds behavior the codecs rely on.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/guest_api.h"
#include "src/service/host.h"
#include "src/snapshot/page_store.h"
#include "src/util/vec.h"

namespace lw {
namespace {

// A minimal codec: the response is "<accumulated text>"; each request appends
// its bytes. State is a Vec<char> in the arena — the canonical branchable
// guest state.
void EchoServe(GuestMailbox& mailbox, void* arg) {
  (void)arg;
  Vec<char> text;
  while (true) {
    WireWriter w(mailbox.data(), mailbox.capacity());
    w.u32(static_cast<uint32_t>(text.size()));
    w.bytes(text.data(), text.size());
    LW_CHECK(!w.overflowed());
    size_t len = mailbox.Park();
    for (size_t i = 0; i < len; ++i) {
      text.push_back(static_cast<char>(mailbox.data()[i]));
    }
  }
}

// A codec that breaks the protocol: the first extension forks (sys_guess) and
// parks a checkpoint on *each* branch, so one drive yields two checkpoints.
void DoubleParkServe(GuestMailbox& mailbox, void* arg) {
  (void)arg;
  std::memset(mailbox.data(), 0, 4);
  mailbox.Park();
  sys_guess(2);
  while (true) {
    mailbox.Park();
  }
}

// A codec whose every resume fills 16 page-aligned heap pages with
// `request[0] + p`, so each checkpoint owns 16 private pages that name it.
constexpr size_t kFillPages = 16;
void PageFillServe(GuestMailbox& mailbox, void* arg) {
  (void)arg;
  auto raw = reinterpret_cast<uintptr_t>(mailbox.heap()->Alloc((kFillPages + 1) * kPageSize));
  LW_CHECK(raw != 0);
  auto* pages = reinterpret_cast<uint8_t*>((raw + kPageSize - 1) & ~(kPageSize - 1));
  while (true) {
    std::memset(mailbox.data(), 0, 4);
    size_t len = mailbox.Park();
    const uint8_t seed = len > 0 ? mailbox.data()[0] : 0;
    for (size_t p = 0; p < kFillPages; ++p) {
      std::memset(pages + p * kPageSize, static_cast<uint8_t>(seed + p), kPageSize);
    }
  }
}

// The content-dedup hits one publish of a page filled with `byte` scores: 1
// when a live snapshot still holds that page, 0 when it died.
uint64_t DedupHitsFor(PageStore& store, uint8_t byte) {
  std::vector<uint8_t> page(kPageSize, byte);
  const uint64_t before = store.stats().content_dedup_hits;
  PageRef probe = store.Publish(page.data());
  return store.stats().content_dedup_hits - before;
}

CheckpointServiceOptions SmallHost() {
  CheckpointServiceOptions options;
  options.arena_bytes = 8ull << 20;
  options.mailbox_bytes = 4096;
  return options;
}

std::string ReadEcho(CheckpointService& host, const Checkpoint& cp) {
  uint32_t len = 0;
  EXPECT_TRUE(host.ReadResponse(cp, &len, 4).ok());
  std::vector<uint8_t> full(4 + len);
  EXPECT_TRUE(host.ReadResponse(cp, full.data(), full.size()).ok());
  return std::string(full.begin() + 4, full.end());
}

TEST(CheckpointServiceTest, BootExtendBranchRelease) {
  CheckpointService host(SmallHost());
  EXPECT_FALSE(host.booted());
  auto root = host.Boot(&EchoServe, nullptr);
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE(host.booted());
  EXPECT_EQ(ReadEcho(host, *root), "");

  auto left = host.Extend(*root, "ab", 2);
  auto right = host.Extend(*root, "xyz", 3);
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());
  // Divergent branches of one parent: neither sees the other's request.
  EXPECT_EQ(ReadEcho(host, *left), "ab");
  EXPECT_EQ(ReadEcho(host, *right), "xyz");

  auto deeper = host.Extend(*left, "c", 1);
  ASSERT_TRUE(deeper.ok());
  EXPECT_EQ(ReadEcho(host, *deeper), "abc");

  // Releasing the parent keeps descendants working.
  EXPECT_TRUE(host.Release(*root).ok());
  EXPECT_FALSE(root->valid());
  auto after = host.Extend(*deeper, "d", 1);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(ReadEcho(host, *after), "abcd");
}

TEST(CheckpointServiceTest, LifecycleErrors) {
  CheckpointService host(SmallHost());
  Checkpoint none;
  EXPECT_EQ(host.Extend(none, "x", 1).status().code(), ErrorCode::kBadState);  // before boot
  auto root = host.Boot(&EchoServe, nullptr);
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(host.Boot(&EchoServe, nullptr).status().code(), ErrorCode::kBadState);
  // Empty handle after boot: InvalidArgument from the session's validation.
  EXPECT_EQ(host.Extend(none, "x", 1).status().code(), ErrorCode::kInvalidArgument);
  // Oversized request rejected before touching the guest.
  std::vector<uint8_t> big(host.mailbox_capacity() + 1, 0);
  EXPECT_EQ(host.Extend(*root, big.data(), big.size()).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(CheckpointServiceTest, HandlesAreHostAffine) {
  CheckpointService a(SmallHost());
  CheckpointService b(SmallHost());
  auto root_a = a.Boot(&EchoServe, nullptr);
  auto root_b = b.Boot(&EchoServe, nullptr);
  ASSERT_TRUE(root_a.ok());
  ASSERT_TRUE(root_b.ok());
  EXPECT_EQ(b.Extend(*root_a, "x", 1).status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(b.Release(*root_a).code(), ErrorCode::kInvalidArgument);
  uint32_t word = 0;
  EXPECT_EQ(b.ReadResponse(*root_a, &word, 4).code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(root_a->valid());
  EXPECT_TRUE(a.Extend(*root_a, "x", 1).ok());
}

TEST(CheckpointServiceTest, DoubleParkIsProtocolError) {
  CheckpointService host(SmallHost());
  auto root = host.Boot(&DoubleParkServe, nullptr);
  ASSERT_TRUE(root.ok());
  auto broken = host.Extend(*root, "x", 1);
  EXPECT_EQ(broken.status().code(), ErrorCode::kInternal);
}

// Handles travel to other threads, which clone and drop them while the host
// keeps driving. A drop anywhere only queues its token; the host's next drive
// boundary reclaims the snapshots whose last handle went.
TEST(CheckpointServiceTest, HandlesClonedAndDroppedOnForeignThreads) {
  constexpr int kParked = 48;
  constexpr int kThreads = 4;
  auto store = std::make_shared<PageStore>();
  CheckpointServiceOptions options = SmallHost();
  options.store = store;
  {
    CheckpointService host(options);
    auto root = host.Boot(&EchoServe, nullptr);
    ASSERT_TRUE(root.ok());

    // Every thread gets a handle to every parked checkpoint, so the threads
    // race on the same references and the last drop lands on any of them.
    std::vector<std::vector<Checkpoint>> shares(kThreads);
    for (int i = 0; i < kParked; ++i) {
      const std::string payload = "payload-" + std::to_string(i) + std::string(200, 'a' + i % 26);
      auto child = host.Extend(*root, payload.data(), payload.size());
      ASSERT_TRUE(child.ok());
      for (int t = 1; t < kThreads; ++t) {
        shares[t].push_back(child->Clone());
      }
      shares[0].push_back(std::move(*child));
    }

    // Each thread clones every handle and drops both. The first half races
    // the host's drains; the second half drops once the host has stopped, so
    // those tokens are still queued after the join.
    std::atomic<int> raced{0};
    std::atomic<bool> host_stopped{false};
    std::atomic<int> clones{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, handles = std::move(shares[t])]() mutable {
        for (size_t i = 0; i < handles.size(); ++i) {
          if (i == handles.size() / 2) {
            raced.fetch_add(1);
            while (!host_stopped.load()) {
              std::this_thread::yield();
            }
          }
          Checkpoint clone = handles[i].Clone();
          clones.fetch_add(clone.valid() ? 1 : 0);
          handles[i] = Checkpoint();
        }
      });
    }
    // Every Extend is a drive boundary that drains what the threads dropped.
    bool extended = true;
    while (extended && raced.load() < kThreads) {
      extended = host.Extend(*root, "x", 1).ok();
    }
    host_stopped.store(true);
    for (std::thread& thread : threads) {
      thread.join();
    }
    EXPECT_TRUE(extended);
    EXPECT_EQ(clones.load(), kParked * kThreads);

    const uint64_t live_after_join = store->stats().bytes_live();
    auto next = host.Extend(*root, "y", 1);
    ASSERT_TRUE(next.ok());
    EXPECT_EQ(ReadEcho(host, *next), "y");
    EXPECT_LT(store->stats().bytes_live(), live_after_join);
  }
  // The host's snapshots are gone; only the store-held zero blob may remain.
  EXPECT_LE(store->stats().live_blobs, 1u);
}

// A child needs nothing from its parent's snapshot object: once a released
// parent is no longer the snapshot the last drive ran from, its private pages
// die while its child is still held.
TEST(CheckpointServiceTest, ReleasedParentDiesWhileChildIsHeld) {
  auto store = std::make_shared<PageStore>();
  CheckpointServiceOptions options = SmallHost();
  options.store = store;
  CheckpointService host(options);
  auto root = host.Boot(&PageFillServe, nullptr);
  ASSERT_TRUE(root.ok());
  const uint8_t p_request = 1;
  const uint8_t c_request = 100;
  const uint8_t d_request = 200;
  auto parent = host.Extend(*root, &p_request, 1);
  ASSERT_TRUE(parent.ok());
  auto child = host.Extend(*parent, &c_request, 1);
  ASSERT_TRUE(child.ok());
  EXPECT_EQ(DedupHitsFor(*store, 0x01), 1u);  // the parent's first private page is live

  ASSERT_TRUE(host.Release(*parent).ok());
  // The last drive ran from the parent; this one moves off it.
  auto grandchild = host.Extend(*child, &d_request, 1);
  ASSERT_TRUE(grandchild.ok());
  EXPECT_EQ(DedupHitsFor(*store, 0x01), 0u);
  EXPECT_EQ(DedupHitsFor(*store, c_request), 1u);  // the held child's pages stay
}

TEST(WireCodecTest, ReaderRejectsOverflow) {
  uint8_t buf[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  WireReader r(buf, sizeof(buf));
  uint32_t a = 0;
  EXPECT_TRUE(r.u32(&a));
  EXPECT_EQ(r.remaining(), 4u);
  uint64_t b = 0;
  EXPECT_FALSE(r.u64(&b));  // 8 bytes wanted, 4 left
  EXPECT_FALSE(r.ok());     // failure latches
  uint8_t c = 0;
  EXPECT_FALSE(r.u8(&c));  // even though a byte remains

  WireReader empty(buf, 0);
  EXPECT_FALSE(empty.u8(&c));
  uint8_t sink[16];
  WireReader partial(buf, 8);
  EXPECT_FALSE(partial.bytes(sink, 9));
}

TEST(WireCodecTest, WriterLatchesOverflow) {
  uint8_t buf[8];
  WireWriter w(buf, sizeof(buf));
  EXPECT_TRUE(w.u32(7));
  EXPECT_TRUE(w.u32(9));
  EXPECT_FALSE(w.u8(1));  // full
  EXPECT_TRUE(w.overflowed());
  EXPECT_EQ(w.written(), 8u);  // never past capacity
}

}  // namespace
}  // namespace lw
