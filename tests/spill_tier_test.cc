// Spill tier (the budget ladder's fourth rung):
//   * SpillTier unit coverage — append/read/free round trips, segment rollover
//     and compaction, option validation;
//   * unnamed segments — live segments leave no entry in the spill directory,
//     Open ignores files already there, and two stores sharing one directory
//     never collide;
//   * rung ordering — EnforceByteBudget meets a budget reachable by compression
//     alone without touching disk, and only reaches for the spill rung when
//     compression is exhausted;
//   * round-trip parity — spilled blobs fault back bit-identical through every
//     guarded accessor, dedup identity (same bytes → same blob pointer) holds
//     across the RAM/disk boundary, and a store with spill disabled keeps all
//     spill counters at exactly zero;
//   * concurrency — reader fault-backs, publishes, ReleaseBatch storms, and a
//     spiller thread hammering one shared store stay coherent (tsan-safe);
//   * E15 acceptance — a parked checkpoint population whose logical bytes are
//     ≥ 10× the RAM budget stays resident under the budget and restores
//     bit-identically to a never-spilled run, in every snapshot mode.

#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/backtrack.h"
#include "src/core/guest_api.h"
#include "src/snapshot/budget_policy.h"
#include "src/snapshot/spill_tier.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer) && !defined(__SANITIZE_THREAD__)
#define __SANITIZE_THREAD__ 1
#endif
#endif

namespace lw {
namespace {

bool SkipForMode(SnapshotMode mode, const char** reason) {
#ifdef __SANITIZE_THREAD__
  if (mode == SnapshotMode::kCow) {
    *reason = "CoW SIGSEGV protocol conflicts with TSan signal interposition";
    return true;
  }
#endif
  (void)mode;
  (void)reason;
  return false;
}

// Scoped spill directory under /tmp; recursively removed on destruction so
// ctest leaves nothing behind even when a test fails mid-way.
class ScopedSpillDir {
 public:
  ScopedSpillDir() {
    char tmpl[] = "/tmp/lwsnap_spill_XXXXXX";
    char* dir = mkdtemp(tmpl);
    LW_CHECK_MSG(dir != nullptr, "mkdtemp failed for spill test dir");
    path_ = dir;
  }
  ~ScopedSpillDir() {
    // Live segments have no name in the directory; this sweeps the test's
    // own files and the directories the stores created.
    std::string cmd = "rm -rf '" + path_ + "'";
    int rc = std::system(cmd.c_str());
    (void)rc;
  }
  const std::string& path() const { return path_; }
  std::string Sub(const char* name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

// Deterministic distinct page content (compressible: the byte pattern is
// periodic). Same scheme as release_batch_test.cc.
void FillPage(uint8_t* buf, uint32_t salt, uint32_t i) {
  for (size_t b = 0; b < kPageSize; ++b) {
    buf[b] = static_cast<uint8_t>((salt * 131 + b * 13) | 1);
  }
  std::memcpy(buf, &salt, sizeof(salt));
  std::memcpy(buf + sizeof(salt), &i, sizeof(i));
}

uint64_t XorShift(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *state = x;
  return x;
}

// Deterministic *incompressible* page content: an xorshift64 stream seeded by
// (salt, i). No codec in the tree gets a win on this, so these pages spill at
// their full raw size.
void FillNoisePage(uint8_t* buf, uint64_t salt, uint64_t i) {
  uint64_t state = (salt * 0x9e3779b97f4a7c15ull + i * 2654435761ull) | 1ull;
  for (size_t off = 0; off < kPageSize; off += sizeof(uint64_t)) {
    uint64_t word = XorShift(&state);
    std::memcpy(buf + off, &word, sizeof(word));
  }
}

// Names in `dir` other than "." and "..".
std::vector<std::string> DirEntries(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) {
    return names;
  }
  while (struct dirent* e = readdir(d)) {
    if (std::strcmp(e->d_name, ".") != 0 && std::strcmp(e->d_name, "..") != 0) {
      names.push_back(e->d_name);
    }
  }
  closedir(d);
  return names;
}

uint64_t Fnv1a(const uint8_t* data, size_t len) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < len; ++i) {
    h = (h ^ data[i]) * 1099511628211ull;
  }
  return h;
}

// --- SpillTier unit coverage ------------------------------------------------------

TEST(SpillTierTest, OpenRejectsBadOptions) {
  ScopedSpillDir tmp;
  EXPECT_FALSE(SpillTier::Open("", SpillTier::kMinSegmentBytes).ok());
  EXPECT_FALSE(SpillTier::Open(tmp.Sub("t"), SpillTier::kMinSegmentBytes - 1).ok());
  EXPECT_TRUE(SpillTier::Open(tmp.Sub("t"), SpillTier::kMinSegmentBytes).ok());
}

TEST(SpillTierTest, AppendReadFreeRoundTrip) {
  ScopedSpillDir tmp;
  const std::string dir = tmp.Sub("tier");
  auto tier_or = SpillTier::Open(dir, SpillTier::kMinSegmentBytes);
  ASSERT_TRUE(tier_or.ok()) << tier_or.status().ToString();
  std::unique_ptr<SpillTier> tier = std::move(*tier_or);

  uint8_t a[kPageSize], b[kPageSize], out[kPageSize];
  FillNoisePage(a, 1, 1);
  FillNoisePage(b, 1, 2);

  SpillRecord* ra = tier->Append(a, kPageSize, 0);
  SpillRecord* rb = tier->Append(b, kPageSize, 0);
  ASSERT_NE(ra, nullptr);
  ASSERT_NE(rb, nullptr);
  EXPECT_NE(ra, rb);

  SpillTier::Stats stats = tier->stats();
  EXPECT_EQ(stats.live_records, 2u);
  EXPECT_EQ(stats.appends, 2u);
  EXPECT_EQ(stats.live_payload_bytes, 2 * kPageSize);
  // The live segment is an unnamed file: nothing in the directory names it.
  EXPECT_EQ(stats.segments, 1u);
  EXPECT_TRUE(DirEntries(dir).empty());

  tier->Read(ra, out);
  EXPECT_EQ(std::memcmp(out, a, kPageSize), 0);
  tier->Read(rb, out);
  EXPECT_EQ(std::memcmp(out, b, kPageSize), 0);

  tier->Free(ra);
  stats = tier->stats();
  EXPECT_EQ(stats.live_records, 1u);
  EXPECT_EQ(stats.live_payload_bytes, kPageSize);
  tier->Read(rb, out);
  EXPECT_EQ(std::memcmp(out, b, kPageSize), 0);
  tier->Free(rb);
  stats = tier->stats();
  EXPECT_EQ(stats.live_records, 0u);
  EXPECT_EQ(stats.live_payload_bytes, 0u);
}

TEST(SpillTierTest, SegmentRolloverAndCompactionKeepRecordsReadable) {
  ScopedSpillDir tmp;
  // 16 pages per segment.
  auto tier_or = SpillTier::Open(tmp.Sub("tier"), SpillTier::kMinSegmentBytes);
  ASSERT_TRUE(tier_or.ok()) << tier_or.status().ToString();
  std::unique_ptr<SpillTier> tier = std::move(*tier_or);

  constexpr int kCount = 45;  // spans three segments
  std::vector<SpillRecord*> recs(kCount);
  uint8_t buf[kPageSize];
  for (int i = 0; i < kCount; ++i) {
    FillNoisePage(buf, 7, static_cast<uint64_t>(i));
    recs[i] = tier->Append(buf, kPageSize, 0);
    ASSERT_NE(recs[i], nullptr);
  }
  SpillTier::Stats stats = tier->stats();
  EXPECT_GE(stats.segments, 3u);
  EXPECT_EQ(stats.live_records, static_cast<uint64_t>(kCount));

  // Kill most of the first segment's records: it becomes more than half
  // garbage, so survivors get rewritten to the tail and the segment goes
  // away. Every surviving record must stay readable through the move.
  for (int i = 0; i < 12; ++i) {
    tier->Free(recs[i]);
    recs[i] = nullptr;
  }
  stats = tier->stats();
  EXPECT_GE(stats.segments_compacted + stats.records_rewritten, 1u)
      << "expected the mostly-dead sealed segment to be reclaimed";
  EXPECT_EQ(stats.live_records, static_cast<uint64_t>(kCount - 12));

  uint8_t expect[kPageSize];
  for (int i = 12; i < kCount; ++i) {
    FillNoisePage(expect, 7, static_cast<uint64_t>(i));
    tier->Read(recs[i], buf);
    EXPECT_EQ(std::memcmp(buf, expect, kPageSize), 0) << "record " << i;
    tier->Free(recs[i]);
  }
  stats = tier->stats();
  EXPECT_EQ(stats.live_records, 0u);
}

TEST(SpillTierTest, ForeignFilesAreIgnored) {
  ScopedSpillDir tmp;
  const std::string dir = tmp.Sub("tier");
  ASSERT_EQ(mkdir(dir.c_str(), 0755), 0);
  // A file that is no spill segment at all, under the name older builds gave
  // their first segment. Open must neither read nor delete it.
  const std::string foreign = dir + "/seg-000000.lwspill";
  std::vector<uint8_t> garbage(kPageSize + 123);
  for (size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<uint8_t>(i * 29 + 0xde);
  }
  {
    std::FILE* f = std::fopen(foreign.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(garbage.data(), 1, garbage.size(), f), garbage.size());
    std::fclose(f);
  }

  auto tier_or = SpillTier::Open(dir, SpillTier::kMinSegmentBytes);
  ASSERT_TRUE(tier_or.ok()) << tier_or.status().ToString();
  std::unique_ptr<SpillTier> tier = std::move(*tier_or);
  constexpr int kCount = 40;  // three segments
  std::vector<SpillRecord*> recs(kCount);
  uint8_t buf[kPageSize], expect[kPageSize];
  for (int i = 0; i < kCount; ++i) {
    FillNoisePage(buf, 13, static_cast<uint64_t>(i));
    recs[i] = tier->Append(buf, kPageSize, 0);
    ASSERT_NE(recs[i], nullptr);
  }
  EXPECT_GE(tier->stats().segments, 3u);
  for (int i = 0; i < kCount; ++i) {
    FillNoisePage(expect, 13, static_cast<uint64_t>(i));
    tier->Read(recs[i], buf);
    EXPECT_EQ(std::memcmp(buf, expect, kPageSize), 0) << "record " << i;
    tier->Free(recs[i]);
  }
  tier.reset();

  std::vector<uint8_t> after(garbage.size() + 1);
  std::FILE* f = std::fopen(foreign.c_str(), "rb");
  ASSERT_NE(f, nullptr) << "foreign file was deleted";
  size_t got = std::fread(after.data(), 1, after.size(), f);
  std::fclose(f);
  ASSERT_EQ(got, garbage.size());
  after.resize(got);
  EXPECT_EQ(after, garbage);
  EXPECT_EQ(DirEntries(dir), std::vector<std::string>{"seg-000000.lwspill"});
}

// --- Store integration ------------------------------------------------------------

TEST(SpillStoreTest, DisabledStoreKeepsSpillCountersAtZero) {
  PageStore store;  // no spill_dir
  EXPECT_FALSE(store.spill_enabled());
  EXPECT_TRUE(store.spill_status().ok());

  uint8_t buf[kPageSize];
  std::vector<PageRef> refs;
  for (uint32_t i = 0; i < 32; ++i) {
    FillNoisePage(buf, 3, i);
    refs.push_back(store.Publish(buf));
  }
  store.CompressAllCold();
  EXPECT_FALSE(store.SpillOneCold());
  EXPECT_EQ(store.SpillAllCold(), 0u);
  store.ReleaseBatch(refs);

  const PageStore::Stats stats = store.stats();
  EXPECT_EQ(stats.spilled_blobs, 0u);
  EXPECT_EQ(stats.spill_bytes, 0u);
  EXPECT_EQ(stats.spills, 0u);
  EXPECT_EQ(stats.faultbacks, 0u);
  EXPECT_EQ(stats.spill_segments, 0u);
  EXPECT_EQ(stats.spill_segments_compacted, 0u);
}

TEST(SpillStoreTest, SpillRoundTripIsBitIdenticalAndKeepsDedupIdentity) {
  ScopedSpillDir tmp;
  PageStoreOptions options;
  options.spill_dir = tmp.Sub("store");
  options.spill_segment_bytes = SpillTier::kMinSegmentBytes;
  PageStore store(options);
  ASSERT_TRUE(store.spill_enabled()) << store.spill_status().ToString();

  // Half compressible (spill at codec size), half incompressible (spill raw).
  constexpr uint32_t kCount = 64;
  uint8_t buf[kPageSize];
  std::vector<PageRef> refs;
  for (uint32_t i = 0; i < kCount; ++i) {
    if (i % 2 == 0) {
      FillPage(buf, 5, i);
    } else {
      FillNoisePage(buf, 5, i);
    }
    refs.push_back(store.Publish(buf));
  }

  store.CompressAllCold();
  uint64_t spilled = store.SpillAllCold();
  EXPECT_EQ(spilled, kCount);
  PageStore::Stats stats = store.stats();
  EXPECT_EQ(stats.spilled_blobs, kCount);
  EXPECT_GT(stats.spill_bytes, 0u);
  EXPECT_GT(stats.spill_segments, 0u);
  EXPECT_LT(stats.bytes_live(), stats.bytes_logical());

  // Every guarded accessor faults back bit-identical content.
  uint8_t expect[kPageSize], out[kPageSize];
  for (uint32_t i = 0; i < kCount; ++i) {
    if (i % 2 == 0) {
      FillPage(expect, 5, i);
    } else {
      FillNoisePage(expect, 5, i);
    }
    EXPECT_TRUE(refs[i].spilled());
    if (i % 4 < 2) {
      refs[i].CopyTo(out);
      EXPECT_EQ(std::memcmp(out, expect, kPageSize), 0) << "page " << i;
    } else {
      EXPECT_TRUE(refs[i].EqualsPage(expect)) << "page " << i;
    }
    EXPECT_FALSE(refs[i].spilled());
  }
  stats = store.stats();
  EXPECT_EQ(stats.faultbacks, kCount);
  EXPECT_EQ(stats.spilled_blobs, 0u);
  EXPECT_EQ(stats.spill_bytes, 0u);

  // Re-spill is free I/O-wise: records were retained across fault-back, so no
  // new segments appear.
  uint64_t segments_before = stats.spill_segments;
  store.CompressAllCold();
  EXPECT_EQ(store.SpillAllCold(), kCount);
  stats = store.stats();
  EXPECT_EQ(stats.spilled_blobs, kCount);
  EXPECT_EQ(stats.spill_segments, segments_before);

  // Dedup identity crosses the RAM/disk boundary: publishing bytes whose blob
  // is currently on disk collapses to the *same* blob (faulted back to prove
  // the match).
  FillNoisePage(buf, 5, 1);
  PageRef again = store.Publish(buf);
  EXPECT_EQ(again, refs[1]);
  EXPECT_FALSE(again.spilled());

  again.Reset();
  store.ReleaseBatch(refs);
  stats = store.stats();
  EXPECT_EQ(stats.spilled_blobs, 0u);
  EXPECT_EQ(stats.spill_bytes, 0u);
}

// Two stores built from one spill_dir (as two services with private stores,
// or two processes, would be) take turns spilling. Neither may see the
// other's segments: every cold page spills on both stores in every round and
// faults back bit-identical, and the directory stays empty throughout.
TEST(SpillStoreTest, TwoStoresShareOneSpillDir) {
  ScopedSpillDir tmp;
  PageStoreOptions options;
  options.spill_dir = tmp.Sub("shared");
  options.spill_segment_bytes = SpillTier::kMinSegmentBytes;
  PageStore stores[2] = {PageStore(options), PageStore(options)};
  for (PageStore& store : stores) {
    ASSERT_TRUE(store.spill_enabled()) << store.spill_status().ToString();
  }

  constexpr uint32_t kPages = 40;
  constexpr int kRounds = 4;
  uint8_t buf[kPageSize];
  for (int round = 0; round < kRounds; ++round) {
    std::vector<PageRef> refs[2];
    for (int s = 0; s < 2; ++s) {
      const uint64_t salt = 200 + static_cast<uint64_t>(round * 2 + s);
      for (uint32_t i = 0; i < kPages; ++i) {
        FillNoisePage(buf, salt, i);
        refs[s].push_back(stores[s].Publish(buf));
      }
      stores[s].CompressAllCold();
      EXPECT_EQ(stores[s].SpillAllCold(), kPages) << "round " << round << " store " << s;
      EXPECT_TRUE(stores[s].spill_status().ok());
    }
    EXPECT_TRUE(DirEntries(options.spill_dir).empty()) << "round " << round;
    for (int s = 0; s < 2; ++s) {
      const uint64_t salt = 200 + static_cast<uint64_t>(round * 2 + s);
      for (uint32_t i = 0; i < kPages; ++i) {
        FillNoisePage(buf, salt, i);
        EXPECT_TRUE(refs[s][i].EqualsPage(buf))
            << "round " << round << " store " << s << " page " << i;
      }
      stores[s].ReleaseBatch(refs[s]);
    }
  }
  for (PageStore& store : stores) {
    EXPECT_EQ(store.stats().faultbacks, uint64_t{kPages} * kRounds);
  }
}

TEST(SpillStoreTest, BudgetLadderSpillsOnlyAfterCompressionIsExhausted) {
  ScopedSpillDir tmp;
  PageStoreOptions options;
  options.spill_dir = tmp.Sub("store");
  PageStore store(options);
  ASSERT_TRUE(store.spill_enabled()) << store.spill_status().ToString();

  // All pages compressible: the codec shrinks them far below 4 KiB each.
  constexpr uint32_t kCount = 64;
  uint8_t buf[kPageSize];
  std::vector<PageRef> refs;
  for (uint32_t i = 0; i < kCount; ++i) {
    FillPage(buf, 9, i);
    refs.push_back(store.Publish(buf));
  }
  const uint64_t raw_live = store.stats().bytes_live();

  auto no_evict = []() { return false; };

  // A budget compression alone can meet: the spill rung must not run.
  EnforceByteBudget(store, raw_live / 2, no_evict);
  PageStore::Stats stats = store.stats();
  EXPECT_LE(stats.bytes_live(), raw_live / 2);
  EXPECT_GT(stats.compressions, 0u);
  EXPECT_EQ(stats.spills, 0u) << "spill rung ran while compression could still pay";

  // A budget below what compression can reach: now the ladder reaches disk.
  EnforceByteBudget(store, raw_live / 64, no_evict);
  stats = store.stats();
  EXPECT_GT(stats.spills, 0u);
  EXPECT_GT(stats.spilled_blobs, 0u);
  EXPECT_LT(stats.bytes_live(), raw_live / 2);

  store.ReleaseBatch(refs);
}

// Lowers the process's file-size limit (RLIMIT_FSIZE) with SIGXFSZ ignored, so
// growing a file past the limit fails with EFBIG instead of killing the
// process. Restores both on destruction.
class ScopedFileSizeLimit {
 public:
  explicit ScopedFileSizeLimit(rlim_t bytes) {
    LW_CHECK(::getrlimit(RLIMIT_FSIZE, &saved_) == 0);
    old_handler_ = ::signal(SIGXFSZ, SIG_IGN);
    struct rlimit lowered = saved_;
    lowered.rlim_cur = bytes;
    LW_CHECK(::setrlimit(RLIMIT_FSIZE, &lowered) == 0);
  }
  ~ScopedFileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &saved_);
    ::signal(SIGXFSZ, old_handler_);
  }

 private:
  struct rlimit saved_;
  void (*old_handler_)(int);
};

TEST(SpillStoreTest, SegmentCreationFailureLeavesBlobResident) {
  ScopedSpillDir tmp;
  PageStoreOptions options;
  options.spill_dir = tmp.Sub("store");
  options.spill_segment_bytes = SpillTier::kMinSegmentBytes;
  PageStore store(options);
  ASSERT_TRUE(store.spill_enabled()) << store.spill_status().ToString();

  uint8_t page[kPageSize];
  FillNoisePage(page, 31, 1);
  PageRef ref = store.Publish(page);
  store.CompressAllCold();  // incompressible: straight onto the spill candidates

  {
    // The first segment cannot be sized: the spill rung reports nothing
    // spilled and the blob keeps its RAM payload.
    ScopedFileSizeLimit limit(options.spill_segment_bytes / 2);
    EXPECT_FALSE(store.SpillOneCold());
  }
  EXPECT_FALSE(ref.spilled());
  uint8_t out[kPageSize];
  ref.CopyTo(out);
  EXPECT_EQ(std::memcmp(out, page, kPageSize), 0);
  PageStore::Stats stats = store.stats();
  EXPECT_EQ(stats.spills, 0u);
  EXPECT_EQ(stats.spilled_blobs, 0u);
  EXPECT_EQ(stats.spill_bytes, 0u);
  EXPECT_EQ(stats.spill_segments, 0u);

  // With the limit restored the same blob spills normally.
  EXPECT_TRUE(store.SpillOneCold());
  EXPECT_TRUE(ref.spilled());
  EXPECT_EQ(store.stats().spills, 1u);
  ref.CopyTo(out);
  EXPECT_EQ(std::memcmp(out, page, kPageSize), 0);
}

// Compressible page with an xorshift prefix of `noise_words` words: the codec's
// output grows with the prefix, so which blobs a partial rung takes shows up
// in live_bytes and spill_bytes.
void FillMixedPage(uint8_t* buf, uint32_t salt, uint32_t i, uint32_t noise_words) {
  FillPage(buf, salt, i);
  uint64_t state = (static_cast<uint64_t>(salt) * 0x9e3779b97f4a7c15ull + i) | 1ull;
  for (uint32_t w = 0; w < noise_words; ++w) {
    uint64_t word = XorShift(&state);
    std::memcpy(buf + 8 + w * sizeof(word), &word, sizeof(word));
  }
}

// Page i of the ladder script: every tenth slot is a zero page, slot 7 of
// every ten republishes slot i - 5, every third remaining slot is
// incompressible noise, and the rest are compressible with a varying prefix.
void LadderPage(uint8_t* buf, uint32_t i) {
  if (i % 10 == 9) {
    std::memset(buf, 0, kPageSize);
  } else if (i % 10 == 7) {
    LadderPage(buf, i - 5);
  } else if (i % 3 == 0) {
    FillNoisePage(buf, 21, i);
  } else {
    FillMixedPage(buf, 21, i, (i % 8) * 24);
  }
}

std::string LadderLine(const PageStore::Stats& s, const std::vector<PageRef>& refs) {
  std::ostringstream line;
  line << "live_blobs=" << s.live_blobs << " free_blobs=" << s.free_blobs
       << " peak_live_blobs=" << s.peak_live_blobs << " total_published=" << s.total_published
       << " zero_dedup_hits=" << s.zero_dedup_hits
       << " content_dedup_hits=" << s.content_dedup_hits
       << " cross_session_dedup_hits=" << s.cross_session_dedup_hits
       << " compressed_blobs=" << s.compressed_blobs << " compressions=" << s.compressions
       << " compression_attempts=" << s.compression_attempts
       << " decompressions=" << s.decompressions << " live_bytes=" << s.live_bytes
       << " free_bytes=" << s.free_bytes << " peak_live_bytes=" << s.peak_live_bytes
       << " release_batches=" << s.release_batches
       << " blobs_recycled_batched=" << s.blobs_recycled_batched
       << " release_shard_locks=" << s.release_shard_locks
       << " spilled_blobs=" << s.spilled_blobs << " spill_bytes=" << s.spill_bytes
       << " spills=" << s.spills << " faultbacks=" << s.faultbacks
       << " spill_segments=" << s.spill_segments
       << " spill_segments_compacted=" << s.spill_segments_compacted << " states=";
  // One letter per script slot: r = raw resident, c = compressed, s = on disk,
  // - = released.
  for (const PageRef& ref : refs) {
    line << (!ref.valid() ? '-' : ref.spilled() ? 's' : ref.compressed() ? 'c' : 'r');
  }
  return line.str();
}

// A fixed single-threaded script through every rung of the ladder, pinned as
// one counter line. PageStore only (no arena), so no host address reaches page
// bytes and every value is deterministic: any change in victim choice,
// accounting or compaction shows here.
TEST(SpillStoreTest, LadderScriptHitsRecordedCounters) {
  ScopedSpillDir tmp;
  PageStoreOptions options;
  options.spill_dir = tmp.Sub("store");
  options.spill_segment_bytes = 64ull << 10;
  PageStore store(options);
  ASSERT_TRUE(store.spill_enabled()) << store.spill_status().ToString();

  constexpr uint32_t kSlots = 160;
  uint8_t buf[kPageSize];
  std::vector<PageRef> refs;
  for (uint32_t i = 0; i < kSlots; ++i) {
    LadderPage(buf, i);
    refs.push_back(store.Publish(buf));
  }
  auto no_evict = []() { return false; };
  const uint64_t raw_live = store.stats().bytes_live();

  // Stops part-way through the compress rung, then part-way through the
  // spill rung (which only starts once compression is exhausted).
  EnforceByteBudget(store, raw_live * 3 / 4, no_evict);
  EnforceByteBudget(store, raw_live / 5, no_evict);

  // Read a fixed subset back: compressed blobs re-inflate, spilled ones fault
  // back from disk.
  uint8_t out[kPageSize];
  for (uint32_t i = 0; i < kSlots; i += 4) {
    refs[i].CopyTo(out);
    LadderPage(buf, i);
    EXPECT_EQ(std::memcmp(out, buf, kPageSize), 0) << "slot " << i;
  }

  // Release one subset in a batch and drop another per ref; sealed segments
  // cross the compaction ratio.
  std::vector<PageRef> batch;
  for (uint32_t i = 0; i < kSlots; ++i) {
    if (i % 5 == 1 || i % 5 == 3) {
      batch.push_back(std::move(refs[i]));
    } else if (i % 5 == 2) {
      refs[i].Reset();
    }
  }
  store.ReleaseBatch(batch);

  EnforceByteBudget(store, raw_live / 12, no_evict);

  EXPECT_EQ(LadderLine(store.stats(), refs),
            "live_blobs=49 free_blobs=0 peak_live_blobs=129 total_published=129"
            " zero_dedup_hits=16 content_dedup_hits=16 cross_session_dedup_hits=0"
            " compressed_blobs=14 compressions=95 compression_attempts=138 decompressions=10"
            " live_bytes=44645 free_bytes=0 peak_live_bytes=539736 release_batches=1"
            " blobs_recycled_batched=64 release_shard_locks=16 spilled_blobs=28"
            " spill_bytes=58953 spills=92 faultbacks=24 spill_segments=2"
            " spill_segments_compacted=2 states="
            "r---cs---rs---ss---rc---rs---rs---ss---rc---ss---rs---ss---rs---cs---rs---sr---"
            "rc---rs---rs---sc---rc---cs---rs---sc---rr---cc---rc---ss---rc---rs---rs---sc---r");
  store.ReleaseBatch(refs);
}

// Four threads against one spill-enabled store: readers fault blobs back while
// a spiller pushes them out again and a churner publishes and batch-releases
// fresh content. No session, no CoW — tsan-safe by construction.
TEST(SpillStoreTest, ConcurrentFaultbackPublishReleaseStorm) {
  ScopedSpillDir tmp;
  PageStoreOptions options;
  options.spill_dir = tmp.Sub("store");
  options.spill_segment_bytes = SpillTier::kMinSegmentBytes;
  auto store = std::make_shared<PageStore>(options);
  ASSERT_TRUE(store->spill_enabled()) << store->spill_status().ToString();

  constexpr uint32_t kShared = 96;
  constexpr int kRounds = 3;
  std::vector<PageRef> shared;
  {
    uint8_t buf[kPageSize];
    for (uint32_t i = 0; i < kShared; ++i) {
      FillNoisePage(buf, 11, i);
      shared.push_back(store->Publish(buf));
    }
  }
  store->CompressAllCold();
  store->SpillAllCold();

  auto reader = [&store, &shared](uint64_t salt_check) {
    uint8_t expect[kPageSize];
    for (int round = 0; round < kRounds; ++round) {
      for (uint32_t i = 0; i < kShared; ++i) {
        FillNoisePage(expect, salt_check, i);
        PageRef local = shared[i];  // refcount bump, lock-free
        EXPECT_TRUE(local.EqualsPage(expect)) << "page " << i;
      }
    }
  };
  auto churner = [&store]() {
    uint8_t buf[kPageSize];
    for (int round = 0; round < kRounds; ++round) {
      std::vector<PageRef> mine;
      for (uint32_t i = 0; i < 48; ++i) {
        FillNoisePage(buf, 100 + static_cast<uint64_t>(round), i);
        mine.push_back(store->Publish(buf));
      }
      store->CompressAllCold();
      store->SpillAllCold();
      store->ReleaseBatch(mine);  // dying spilled blobs must not fault back
    }
  };
  auto spiller = [&store]() {
    for (int i = 0; i < 400; ++i) {
      store->CompressOneCold();
      store->SpillOneCold();
      if (i % 97 == 0) {
        store->SpillAllCold();
      }
    }
  };

  std::thread t1(reader, 11);
  std::thread t2(reader, 11);
  std::thread t3(churner);
  std::thread t4(spiller);
  t1.join();
  t2.join();
  t3.join();
  t4.join();

  uint8_t expect[kPageSize];
  for (uint32_t i = 0; i < kShared; ++i) {
    FillNoisePage(expect, 11, i);
    EXPECT_TRUE(shared[i].EqualsPage(expect)) << "page " << i;
  }
  store->ReleaseBatch(shared);
  const PageStore::Stats stats = store->stats();
  EXPECT_EQ(stats.spilled_blobs, 0u);
  EXPECT_EQ(stats.spill_bytes, 0u);
  EXPECT_GT(stats.faultbacks, 0u);
}

// --- E15: over-budget parked population, bit-identical restore --------------------

constexpr int kE15Branches = 12;
constexpr int kE15Pages = 32;

struct E15Config {
  int branches = 0;
  int pages = 0;
};

struct E15Mail {
  uint64_t branch = 0;
  uint64_t checksum = 0;
  uint64_t ok = 0;  // 0 = parked, 1 = restored bit-identical, 2 = corrupt
};

// Fills the branch's trail pages with the xorshift stream for (branch, page).
void E15Fill(uint8_t* buf, int pages, uint64_t branch) {
  for (int p = 0; p < pages; ++p) {
    FillNoisePage(buf + static_cast<size_t>(p) * kPageSize, branch + 1000, p);
  }
}

// Word-by-word comparison against the regenerated stream — no second buffer,
// so the guest arena stays small.
bool E15Matches(const uint8_t* buf, int pages, uint64_t branch) {
  uint8_t expect[kPageSize];
  for (int p = 0; p < pages; ++p) {
    FillNoisePage(expect, branch + 1000, p);
    if (std::memcmp(buf + static_cast<size_t>(p) * kPageSize, expect, kPageSize) != 0) {
      return false;
    }
  }
  return true;
}

// Each guessed branch writes kE15Pages of unique incompressible trail, parks a
// checkpoint, and fails to the next branch. When the host later resumes a
// parked branch (request length > 0), the guest re-verifies its restored trail
// against the regenerated stream and parks the verdict.
void E15Guest(void* arg) {
  const E15Config cfg = *static_cast<const E15Config*>(arg);
  auto* session = static_cast<BacktrackSession*>(CurrentExecutor());
  auto* mail = GuestNew<E15Mail>(session->heap());
  auto* raw = static_cast<uint8_t*>(
      session->heap()->Alloc(static_cast<size_t>(cfg.pages + 1) * kPageSize));
  auto* trail = reinterpret_cast<uint8_t*>(
      (reinterpret_cast<uintptr_t>(raw) + kPageSize - 1) & ~(kPageSize - 1));
  if (sys_guess_strategy(StrategyKind::kDfs)) {
    uint64_t g = static_cast<uint64_t>(sys_guess(cfg.branches));
    E15Fill(trail, cfg.pages, g);
    mail->branch = g;
    mail->checksum = Fnv1a(trail, static_cast<size_t>(cfg.pages) * kPageSize);
    mail->ok = 0;
    sys_note_solution();
    size_t len = sys_yield(mail, sizeof(E15Mail));  // park this branch
    while (len > 0) {
      // Host verification request: the snapshot was restored (possibly from
      // disk) — prove the trail is bit-identical to what was parked. The
      // request bytes landed in the mailbox, so rebuild every field from the
      // restored stack variable g.
      mail->branch = g;
      mail->checksum = Fnv1a(trail, static_cast<size_t>(cfg.pages) * kPageSize);
      mail->ok = E15Matches(trail, cfg.pages, g) ? 1 : 2;
      len = sys_yield(mail, sizeof(E15Mail));  // park the verdict
    }
    sys_guess_fail();
  }
}

struct E15Run {
  uint64_t live_after_park = 0;
  uint64_t logical_after_park = 0;
  uint64_t spilled_blobs = 0;
  uint64_t faultbacks = 0;
  std::map<uint64_t, uint64_t> parked;    // branch -> checksum at park time
  std::map<uint64_t, uint64_t> restored;  // branch -> checksum after restore
};

void RunE15(SnapshotMode mode, const std::string& spill_dir, uint64_t budget, E15Run* out) {
  PageStoreOptions store_options;
  store_options.spill_dir = spill_dir;
  store_options.spill_segment_bytes = SpillTier::kMinSegmentBytes * 4;
  auto store = std::make_shared<PageStore>(store_options);
  if (!spill_dir.empty()) {
    ASSERT_TRUE(store->spill_enabled()) << store->spill_status().ToString();
  }

  SessionOptions options;
  options.arena_bytes = 8ull << 20;
  options.guest_stack_bytes = 256 << 10;
  options.snapshot_mode = mode;
  options.snapshot_byte_budget = budget;
  options.store = store;
  options.output = [](std::string_view) {};

  E15Config cfg{kE15Branches, kE15Pages};
  BacktrackSession session(options);
  Status status = session.Run(&E15Guest, &cfg);
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::vector<Checkpoint> parked = session.TakeNewCheckpoints();
  ASSERT_EQ(parked.size(), static_cast<size_t>(kE15Branches));

  if (budget != 0) {
    // The DFS driver's final unwind faults a handful of shared pages back in
    // *after* the last park's enforcement. A long-running service parks and
    // idles at this point, and its host's ladder runs once more; mirror that
    // before measuring steady-state residency.
    EnforceByteBudget(*store, budget, []() { return false; });
  }
  PageStore::Stats stats = store->stats();
  out->live_after_park = stats.bytes_live();
  out->logical_after_park = stats.bytes_logical();
  out->spilled_blobs = stats.spilled_blobs;

  for (Checkpoint& cp : parked) {
    E15Mail mail;
    Status read = session.ReadCheckpointMailbox(cp, &mail, sizeof(mail));
    ASSERT_TRUE(read.ok()) << read.ToString();
    EXPECT_EQ(mail.ok, 0u);
    out->parked[mail.branch] = mail.checksum;
  }

  // Resume every parked branch (spilled pages fault back during restore) and
  // collect the guest's own bit-identity verdict.
  for (Checkpoint& cp : parked) {
    uint8_t req = 1;
    Status resumed = session.Resume(cp, &req, sizeof(req));
    ASSERT_TRUE(resumed.ok()) << resumed.ToString();
    std::vector<Checkpoint> fresh = session.TakeNewCheckpoints();
    ASSERT_EQ(fresh.size(), 1u);
    E15Mail verdict;
    Status read = session.ReadCheckpointMailbox(fresh[0], &verdict, sizeof(verdict));
    ASSERT_TRUE(read.ok()) << read.ToString();
    EXPECT_EQ(verdict.ok, 1u) << "restored trail diverged for branch " << verdict.branch;
    out->restored[verdict.branch] = verdict.checksum;
    Status released = session.ReleaseCheckpoint(fresh[0]);
    ASSERT_TRUE(released.ok()) << released.ToString();
  }
  for (Checkpoint& cp : parked) {
    Status released = session.ReleaseCheckpoint(cp);
    ASSERT_TRUE(released.ok()) << released.ToString();
  }
  out->faultbacks = store->stats().faultbacks;
}

class SpillSessionTest : public ::testing::TestWithParam<SnapshotMode> {};

TEST_P(SpillSessionTest, OverBudgetParkedPopulationRestoresBitIdentical) {
  const SnapshotMode mode = GetParam();
  const char* reason = nullptr;
  if (SkipForMode(mode, &reason)) {
    GTEST_SKIP() << reason;
  }
  ScopedSpillDir tmp;

  // Calibrate: the never-spilled run measures what the population logically
  // holds; the spilled run then gets a RAM budget an order of magnitude
  // smaller than that.
  E15Run base;
  RunE15(mode, "", 0, &base);
  if (::testing::Test::HasFatalFailure()) {
    return;
  }
  ASSERT_EQ(base.parked.size(), static_cast<size_t>(kE15Branches));
  EXPECT_EQ(base.spilled_blobs, 0u);
  EXPECT_EQ(base.faultbacks, 0u);
  // /12 keeps the budget above the store's irreducible floor (spilled-blob
  // headers stay resident) while the logical population is still ≥ 10×.
  const uint64_t budget = base.live_after_park / 12;
  ASSERT_GT(budget, 0u);

  E15Run spilled;
  RunE15(mode, tmp.Sub("run"), budget, &spilled);
  if (::testing::Test::HasFatalFailure()) {
    return;
  }

  // The ladder kept residency under the budget while the parked population
  // logically holds ≥ 10× the budget — the spill tier's whole point.
  EXPECT_LE(spilled.live_after_park, budget);
  EXPECT_GE(spilled.logical_after_park, 10 * budget);
  EXPECT_GT(spilled.spilled_blobs, 0u);
  EXPECT_GT(spilled.faultbacks, 0u);

  // Bit-identity: park-time checksums match the never-spilled run, and every
  // restore-from-disk reproduced them exactly.
  EXPECT_EQ(spilled.parked, base.parked);
  EXPECT_EQ(spilled.restored, spilled.parked);
  EXPECT_EQ(base.restored, base.parked);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, SpillSessionTest,
                         ::testing::Values(SnapshotMode::kCow, SnapshotMode::kFullCopy,
                                           SnapshotMode::kIncremental),
                         [](const ::testing::TestParamInfo<SnapshotMode>& info) {
                           return SnapshotModeName(info.param);
                         });

}  // namespace
}  // namespace lw
