#include "src/snapshot/page_store.h"

#include <cstdlib>

#include "src/snapshot/codec.h"
#include "src/snapshot/spill_tier.h"

namespace lw {

using internal::PageBlob;

namespace {

constexpr size_t kInitialIndexSlots = 256;  // power of two, per shard

bool IsZeroPage(const void* src) {
  // memcmp with early exit: real data almost always differs within the first
  // few bytes, so the dedup probe costs nanoseconds on the common path.
  static const uint8_t kZero[kPageSize] = {};
  return std::memcmp(src, kZero, kPageSize) == 0;
}

// 64-bit content hash: xor-multiply-shift over 8-byte words (fmix64-style
// finalizer per word). Collisions are tolerated — the index confirms every
// candidate with a full memcmp — so speed matters more than distribution tails.
// The top bits select the shard, the low bits the slot; the per-word multiply
// mixes every input word into both.
uint64_t HashPage(const void* src) {
  const uint8_t* p = static_cast<const uint8_t*>(src);
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (size_t i = 0; i < kPageSize; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    h ^= w;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
  }
  return h;
}

size_t PayloadBytes(const PageBlob* blob) {
  if (blob->payload == nullptr) {
    return 0;
  }
  uint32_t comp = blob->comp_bytes.load(std::memory_order_relaxed);
  return comp != 0 ? comp : kPageSize;
}

}  // namespace

PageStore::PageStore(const PageStoreOptions& options) {
  for (Shard& shard : shards_) {
    shard.index.assign(kInitialIndexSlots, nullptr);
  }
  if (!options.spill_dir.empty()) {
    auto tier = SpillTier::Open(options.spill_dir, options.spill_segment_bytes);
    if (tier.ok()) {
      spill_ = std::move(*tier);
    } else {
      // The store stays usable — the budget ladder just loses its spill rung.
      // spill_status() carries the reason for callers that want to hard-fail.
      spill_status_ = tier.status();
    }
  }
}

PageStore::~PageStore() {
  zero_page_.Reset();
  TrimFreeList();
  // All snapshots/sessions referencing this store must be destroyed first; a
  // live blob here means a PageRef will later touch freed store state.
  LW_CHECK_MSG(counters_.live_blobs.load(std::memory_order_acquire) == 0,
               "PageStore destroyed while pages are still referenced");
}

void PageStore::BumpPeak(std::atomic<uint64_t>& peak, uint64_t value) {
  uint64_t cur = peak.load(std::memory_order_relaxed);
  while (cur < value && !peak.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

// ---------------------------------------------------------------------------
// Blob lifecycle.
// ---------------------------------------------------------------------------

PageBlob* PageStore::AcquireBlobLocked(Shard& shard, uint32_t shard_id) {
  PageBlob* blob = shard.free_list;
  if (blob != nullptr) {
    shard.free_list = blob->next_free;
    counters_.free_blobs.fetch_sub(1, std::memory_order_relaxed);
    counters_.free_bytes.fetch_sub(sizeof(PageBlob) + PayloadBytes(blob),
                                   std::memory_order_relaxed);
  } else {
    void* mem = std::malloc(sizeof(PageBlob));
    LW_CHECK_MSG(mem != nullptr, "host allocation for page blob failed");
    blob = new (mem) PageBlob();
    blob->payload = nullptr;
  }
  if (blob->payload == nullptr) {
    blob->payload = static_cast<uint8_t*>(std::malloc(kPageSize));
    LW_CHECK_MSG(blob->payload != nullptr, "host allocation for page payload failed");
  }
  // Not yet visible to any other thread: published to the index (and thus to
  // other threads) only under this same shard lock.
  blob->refcount.store(1, std::memory_order_relaxed);
  blob->comp_bytes.store(0, std::memory_order_relaxed);
  blob->spilled.store(0, std::memory_order_relaxed);
  blob->spill_rec = nullptr;
  blob->hash = 0;
  blob->owner = 0;
  blob->shard = shard_id;
  blob->flags = 0;
  blob->indexed = false;
  blob->store = this;
  blob->next_free = nullptr;
  blob->lru_prev = nullptr;
  blob->lru_next = nullptr;
  uint64_t live = counters_.live_blobs.fetch_add(1, std::memory_order_relaxed) + 1;
  BumpPeak(counters_.peak_live_blobs, live);
  uint64_t live_bytes =
      counters_.live_bytes.fetch_add(sizeof(PageBlob) + kPageSize, std::memory_order_relaxed) +
      sizeof(PageBlob) + kPageSize;
  BumpPeak(counters_.peak_live_bytes, live_bytes);
  counters_.total_published.fetch_add(1, std::memory_order_relaxed);
  return blob;
}

void PageStore::RecycleBlob(PageBlob* blob) {
  // Only the thread that moved the refcount 1 → 0 gets here, exactly once per
  // blob lifetime: the index never revives zero-refcount blobs, so the count
  // cannot have risen again.
  Shard& shard = shards_[blob->shard];
  std::lock_guard<std::mutex> lock(shard.mu);
  RecycleBlobLocked(shard, blob);
}

void PageStore::RecycleBlobLocked(Shard& shard, PageBlob* blob) {
  RetiredDeltas retired;
  RetireBlobLocked(shard, blob, &retired);
  ApplyRetired(retired);
}

void PageStore::RetireBlobLocked(Shard& shard, PageBlob* blob, RetiredDeltas* retired) {
  LW_CHECK(blob->refcount.load(std::memory_order_acquire) == 0);
  if (blob->indexed) {
    IndexRemoveLocked(shard, blob);
  }
  ColdUnlinkLocked(shard, blob);
  uint32_t comp = blob->comp_bytes.load(std::memory_order_relaxed);
  retired->live_bytes += sizeof(PageBlob) + PayloadBytes(blob);
  // A dying spilled blob never faults back: only its disk record and header
  // go away, the payload bytes are never read again.
  if (blob->spill_rec != nullptr) {
    if (blob->spilled.load(std::memory_order_relaxed) != 0) {
      retired->spilled_blobs++;
      retired->spill_bytes += blob->spill_rec->len;
      blob->spilled.store(0, std::memory_order_relaxed);
    }
    spill_->Free(blob->spill_rec);
    blob->spill_rec = nullptr;
  }
  if (comp != 0) {
    // Compressed payloads are odd-sized; recycle the header only and let the
    // next acquire mint a fresh raw payload.
    retired->compressed_blobs++;
    std::free(blob->payload);
    blob->payload = nullptr;
    blob->comp_bytes.store(0, std::memory_order_relaxed);
  }
  retired->free_bytes += sizeof(PageBlob) + PayloadBytes(blob);
  retired->blobs++;
  blob->next_free = shard.free_list;
  shard.free_list = blob;
}

void PageStore::ApplyRetired(const RetiredDeltas& retired) {
  counters_.live_bytes.fetch_sub(retired.live_bytes, std::memory_order_relaxed);
  if (retired.compressed_blobs != 0) {
    counters_.compressed_blobs.fetch_sub(retired.compressed_blobs, std::memory_order_relaxed);
  }
  if (retired.spilled_blobs != 0) {
    counters_.spilled_blobs.fetch_sub(retired.spilled_blobs, std::memory_order_relaxed);
    counters_.spill_bytes.fetch_sub(retired.spill_bytes, std::memory_order_relaxed);
  }
  counters_.live_blobs.fetch_sub(retired.blobs, std::memory_order_release);
  counters_.free_blobs.fetch_add(retired.blobs, std::memory_order_relaxed);
  counters_.free_bytes.fetch_add(retired.free_bytes, std::memory_order_relaxed);
}

void PageStore::ReleaseBatch(std::vector<PageRef>& refs) {
  if (refs.empty()) {
    return;
  }
  // Phase 1 — lock-free decrements. A ref whose blob survives costs exactly
  // what PageRef::Release would have; a ref that moved the count 1 → 0 makes
  // this thread the blob's unique recycler (the index never revives
  // zero-refcount blobs), so the blob can be parked on a per-shard doom list.
  // next_free is reusable as the list link: it is only meaningful while the
  // blob sits on a shard free list, which cannot happen before
  // RetireBlobLocked below.
  PageBlob* doomed[kPageStoreShards] = {};
  uint64_t dying = 0;
  for (PageRef& ref : refs) {
    PageBlob* blob = ref.blob_;
    if (blob == nullptr) {
      continue;
    }
    ref.blob_ = nullptr;  // the batch consumed this reference
    LW_CHECK_MSG(blob->store == this, "ReleaseBatch ref minted by a different store");
    uint32_t prev = blob->refcount.fetch_sub(1, std::memory_order_acq_rel);
    LW_CHECK(prev > 0);
    if (prev == 1) {
      blob->next_free = doomed[blob->shard];
      doomed[blob->shard] = blob;
      ++dying;
    }
  }
  refs.clear();
  counters_.release_batches.fetch_add(1, std::memory_order_relaxed);
  if (dying == 0) {
    return;
  }
  // Phase 2 — one lock hold per touched shard, retiring every doomed blob of
  // that shard under it. Between phases the dying blobs stay indexed/LRU-linked
  // exactly as they would during the window between PageRef::Release's
  // decrement and RecycleBlob's lock acquisition — lookups treat refcount-zero
  // blobs as dead either way. Counter traffic is batch-grained too: the
  // byte/blob deltas accumulate across shards and land as one RMW per counter
  // per batch, where the per-ref path applies them once per dying blob.
  RetiredDeltas retired;
  for (uint32_t shard_id = 0; shard_id < kPageStoreShards; ++shard_id) {
    PageBlob* blob = doomed[shard_id];
    if (blob == nullptr) {
      continue;
    }
    Shard& shard = shards_[shard_id];
    std::lock_guard<std::mutex> lock(shard.mu);
    counters_.release_shard_locks.fetch_add(1, std::memory_order_relaxed);
    while (blob != nullptr) {
      PageBlob* next = blob->next_free;  // the free-list push rewrites the link
      RetireBlobLocked(shard, blob, &retired);
      blob = next;
    }
  }
  ApplyRetired(retired);
  counters_.blobs_recycled_batched.fetch_add(dying, std::memory_order_relaxed);
}

void PageStore::TrimFreeList() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    while (shard.free_list != nullptr) {
      PageBlob* next = shard.free_list->next_free;
      counters_.free_bytes.fetch_sub(sizeof(PageBlob) + PayloadBytes(shard.free_list),
                                     std::memory_order_relaxed);
      std::free(shard.free_list->payload);
      shard.free_list->~PageBlob();
      std::free(shard.free_list);
      shard.free_list = next;
      counters_.free_blobs.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

// ---------------------------------------------------------------------------
// Content-addressed publish.
// ---------------------------------------------------------------------------

PageRef PageStore::Publish(const void* src, uint32_t owner) {
  if (IsZeroPage(src)) {
    counters_.zero_dedup_hits.fetch_add(1, std::memory_order_relaxed);
    return ZeroPage();
  }
  const uint64_t hash = HashPage(src);
  const uint32_t shard_id = ShardOfHash(hash);
  Shard& shard = shards_[shard_id];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (PageBlob* hit = IndexFindLocked(shard, hash, src)) {
    counters_.content_dedup_hits.fetch_add(1, std::memory_order_relaxed);
    if (hit->owner != owner) {
      counters_.cross_session_dedup_hits.fetch_add(1, std::memory_order_relaxed);
    }
    LruTouchLocked(shard, hit);
    return PageRef(hit);  // IndexFindLocked already took the reference
  }
  PageBlob* blob = AcquireBlobLocked(shard, shard_id);
  std::memcpy(blob->payload, src, kPageSize);
  blob->owner = owner;
  blob->hash = hash;
  IndexInsertLocked(shard, blob);
  LruPushFrontLocked(shard, blob);
  return PageRef(blob);
}

PageRef PageStore::ZeroPage() {
  std::call_once(zero_once_, [this] {
    Shard& shard = shards_[0];
    std::lock_guard<std::mutex> lock(shard.mu);
    PageBlob* blob = AcquireBlobLocked(shard, 0);
    std::memset(blob->payload, 0, kPageSize);
    blob->flags = PageBlob::kPinned;  // permanently shared and hot: never cold-compressed
    zero_page_ = PageRef(blob);
  });
  return zero_page_;
}

// ---------------------------------------------------------------------------
// Open-addressed content index (per shard; linear probing, backward-shift
// deletion). All index helpers run under the shard's mutex.
// ---------------------------------------------------------------------------

PageBlob* PageStore::IndexFindLocked(Shard& shard, uint64_t hash, const void* src) {
  const size_t mask = shard.index.size() - 1;
restart:
  for (size_t i = hash & mask; shard.index[i] != nullptr; i = (i + 1) & mask) {
    PageBlob* cand = shard.index[i];
    if (cand->hash != hash) {
      continue;
    }
    // Take the reference before touching payload bytes, and never from zero: a
    // blob whose count already hit zero is owned by its (unique) recycler — it
    // only remains indexed until that thread takes this shard lock. Treat it
    // as dead and republish fresh content instead of resurrecting it.
    uint32_t count = cand->refcount.load(std::memory_order_relaxed);
    bool acquired = false;
    while (count != 0) {
      if (cand->refcount.compare_exchange_weak(count, count + 1, std::memory_order_acq_rel)) {
        acquired = true;
        break;
      }
    }
    if (!acquired) {
      continue;
    }
    // Hash matched a cold or spilled blob: make it resident to confirm. A
    // confirmed hit means this content is being republished, so warming it
    // is the right move.
    EnsureResidentLocked(cand);
    if (std::memcmp(cand->payload, src, kPageSize) == 0) {
      return cand;  // reference transferred to the caller
    }
    // Collision: hand the reference back. The true holder may have released
    // concurrently, making this the final reference — recycle inline then (we
    // already hold the shard lock this blob recycles under). Recycling edits
    // the probe chain (backward-shift deletion), so restart the probe.
    if (cand->refcount.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      RecycleBlobLocked(shard, cand);
      goto restart;
    }
  }
  return nullptr;
}

void PageStore::IndexInsertLocked(Shard& shard, PageBlob* blob) {
  if ((shard.index_used + 1) * 10 >= shard.index.size() * 7) {  // grow at 70% load
    IndexGrowLocked(shard);
  }
  const size_t mask = shard.index.size() - 1;
  size_t i = blob->hash & mask;
  while (shard.index[i] != nullptr) {
    i = (i + 1) & mask;
  }
  shard.index[i] = blob;
  blob->indexed = true;
  ++shard.index_used;
}

void PageStore::IndexGrowLocked(Shard& shard) {
  std::vector<PageBlob*> old = std::move(shard.index);
  shard.index.assign(old.size() * 2, nullptr);
  const size_t mask = shard.index.size() - 1;
  for (PageBlob* blob : old) {
    if (blob == nullptr) {
      continue;
    }
    size_t i = blob->hash & mask;
    while (shard.index[i] != nullptr) {
      i = (i + 1) & mask;
    }
    shard.index[i] = blob;
  }
}

void PageStore::IndexRemoveLocked(Shard& shard, PageBlob* blob) {
  const size_t mask = shard.index.size() - 1;
  size_t i = blob->hash & mask;
  while (shard.index[i] != blob) {
    LW_CHECK_MSG(shard.index[i] != nullptr, "indexed blob missing from index");
    i = (i + 1) & mask;
  }
  blob->indexed = false;
  --shard.index_used;
  // Backward-shift deletion keeps probe chains tombstone-free: walk the
  // cluster after the hole and move back any entry whose home slot makes the
  // hole part of its probe path.
  size_t j = i;
  while (true) {
    shard.index[i] = nullptr;
    while (true) {
      j = (j + 1) & mask;
      if (shard.index[j] == nullptr) {
        return;
      }
      size_t home = shard.index[j]->hash & mask;
      // Does entry j probe across slot i? (circular interval check)
      bool moves = i <= j ? (home <= i || home > j) : (home <= i && home > j);
      if (moves) {
        break;
      }
    }
    shard.index[i] = shard.index[j];
    i = j;
  }
}

// ---------------------------------------------------------------------------
// Guarded page access (safe against concurrent compression).
// ---------------------------------------------------------------------------

void PageRef::CopyTo(void* dst) const {
  LW_CHECK(blob_ != nullptr);
  PageStore::Shard& shard = blob_->store->shards_[blob_->shard];
  std::lock_guard<std::mutex> lock(shard.mu);
  blob_->store->EnsureResidentLocked(blob_);
  std::memcpy(dst, blob_->payload, kPageSize);
}

bool PageRef::EqualsPage(const void* src) const {
  LW_CHECK(blob_ != nullptr);
  PageStore::Shard& shard = blob_->store->shards_[blob_->shard];
  std::lock_guard<std::mutex> lock(shard.mu);
  blob_->store->EnsureResidentLocked(blob_);
  return std::memcmp(blob_->payload, src, kPageSize) == 0;
}

bool PageRef::CopyToIfDifferent(void* dst) const {
  LW_CHECK(blob_ != nullptr);
  PageStore::Shard& shard = blob_->store->shards_[blob_->shard];
  std::lock_guard<std::mutex> lock(shard.mu);
  blob_->store->EnsureResidentLocked(blob_);
  if (std::memcmp(blob_->payload, dst, kPageSize) == 0) {
    return false;
  }
  std::memcpy(dst, blob_->payload, kPageSize);
  return true;
}

void PageRef::ReadBytes(size_t offset, void* dst, size_t len) const {
  LW_CHECK(blob_ != nullptr);
  LW_CHECK(offset + len <= kPageSize);
  PageStore::Shard& shard = blob_->store->shards_[blob_->shard];
  std::lock_guard<std::mutex> lock(shard.mu);
  blob_->store->EnsureResidentLocked(blob_);
  std::memcpy(dst, blob_->payload + offset, len);
}

// ---------------------------------------------------------------------------
// Cold-compression tier (per-shard LRU lists; helpers run under the shard's
// mutex).
// ---------------------------------------------------------------------------

void PageStore::ColdList::PushFront(PageBlob* blob) {
  blob->lru_prev = nullptr;
  blob->lru_next = head;
  if (head != nullptr) {
    head->lru_prev = blob;
  }
  head = blob;
  if (tail == nullptr) {
    tail = blob;
  }
}

void PageStore::ColdList::Remove(PageBlob* blob) {
  if (blob->lru_prev != nullptr) {
    blob->lru_prev->lru_next = blob->lru_next;
  } else if (head == blob) {
    head = blob->lru_next;
  }
  if (blob->lru_next != nullptr) {
    blob->lru_next->lru_prev = blob->lru_prev;
  } else if (tail == blob) {
    tail = blob->lru_prev;
  }
  blob->lru_prev = nullptr;
  blob->lru_next = nullptr;
}

void PageStore::LruPushFrontLocked(Shard& shard, PageBlob* blob) {
  // Pinned blobs never compress; known-incompressible blobs would only waste
  // another full compressor pass — neither belongs on the cold list.
  if ((blob->flags & (PageBlob::kPinned | PageBlob::kIncompressible)) == 0) {
    shard.lru.PushFront(blob);
  }
}

void PageStore::LruRemoveLocked(Shard& shard, PageBlob* blob) {
  if ((blob->flags & PageBlob::kPinned) == 0) {
    shard.lru.Remove(blob);
  }
}

void PageStore::LruTouchLocked(Shard& shard, PageBlob* blob) {
  if ((blob->flags & PageBlob::kSpillCand) != 0) {
    // Spill candidates track recency on their own list; the spill rung eats
    // from its tail, so a republish hit keeps this blob off disk for longer.
    shard.spill_cands.Remove(blob);
    shard.spill_cands.PushFront(blob);
    return;
  }
  if ((blob->flags & PageBlob::kPinned) != 0 ||
      blob->comp_bytes.load(std::memory_order_relaxed) != 0) {
    return;
  }
  LruRemoveLocked(shard, blob);
  LruPushFrontLocked(shard, blob);
}

void PageStore::SpillCandPushFrontLocked(Shard& shard, PageBlob* blob) {
  if (spill_ == nullptr || (blob->flags & PageBlob::kPinned) != 0) {
    return;
  }
  blob->flags |= PageBlob::kSpillCand;
  shard.spill_cands.PushFront(blob);
}

void PageStore::SpillCandRemoveLocked(Shard& shard, PageBlob* blob) {
  shard.spill_cands.Remove(blob);
  blob->flags &= static_cast<uint8_t>(~PageBlob::kSpillCand);
}

void PageStore::ColdUnlinkLocked(Shard& shard, PageBlob* blob) {
  if ((blob->flags & PageBlob::kSpillCand) != 0) {
    SpillCandRemoveLocked(shard, blob);
  } else if (blob->comp_bytes.load(std::memory_order_relaxed) == 0) {
    LruRemoveLocked(shard, blob);
  }
}

bool PageStore::CompressBlobLocked(Shard& shard, PageBlob* blob) {
  counters_.compression_attempts.fetch_add(1, std::memory_order_relaxed);
  uint8_t tmp[MaxCompressedBytes(kPageSize)];
  // Only worthwhile when the payload actually shrinks: cap the output below
  // kPageSize so incompressible pages stay raw.
  size_t n = Compress(blob->payload, kPageSize, tmp, kPageSize - 1);
  if (n == 0) {
    blob->flags |= PageBlob::kIncompressible;
    LruRemoveLocked(shard, blob);
    // The compress rung is done with it, but the spill rung can still take
    // its raw payload to disk.
    SpillCandPushFrontLocked(shard, blob);
    return false;
  }
  uint8_t* small = static_cast<uint8_t*>(std::malloc(n));
  LW_CHECK_MSG(small != nullptr, "host allocation for compressed payload failed");
  std::memcpy(small, tmp, n);
  std::free(blob->payload);
  blob->payload = small;
  blob->comp_bytes.store(static_cast<uint32_t>(n), std::memory_order_release);
  LruRemoveLocked(shard, blob);
  SpillCandPushFrontLocked(shard, blob);  // next rung down is disk
  counters_.live_bytes.fetch_sub(kPageSize - n, std::memory_order_relaxed);
  counters_.compressed_blobs.fetch_add(1, std::memory_order_relaxed);
  counters_.compressions.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void PageStore::DecompressBlobLocked(PageBlob* blob) {
  uint32_t comp = blob->comp_bytes.load(std::memory_order_relaxed);
  LW_CHECK(comp != 0);
  if ((blob->flags & PageBlob::kSpillCand) != 0) {
    // Re-inflating means the blob is warm again: off the spill-candidate
    // list, back onto the raw LRU (below).
    SpillCandRemoveLocked(shards_[blob->shard], blob);
  }
  uint8_t* raw = static_cast<uint8_t*>(std::malloc(kPageSize));
  LW_CHECK_MSG(raw != nullptr, "host allocation for decompressed payload failed");
  size_t n = Decompress(blob->payload, comp, raw, kPageSize);
  LW_CHECK_MSG(n == kPageSize, "cold blob decompressed to the wrong size");
  uint64_t live =
      counters_.live_bytes.fetch_add(kPageSize - comp, std::memory_order_relaxed) + kPageSize -
      comp;
  BumpPeak(counters_.peak_live_bytes, live);
  std::free(blob->payload);
  blob->payload = raw;
  blob->comp_bytes.store(0, std::memory_order_release);
  counters_.compressed_blobs.fetch_sub(1, std::memory_order_relaxed);
  counters_.decompressions.fetch_add(1, std::memory_order_relaxed);
  LruPushFrontLocked(shards_[blob->shard], blob);  // just touched: warmest again
}

bool PageStore::CompressOneColdInShard(uint32_t shard_id) {
  Shard& shard = shards_[shard_id];
  std::lock_guard<std::mutex> lock(shard.mu);
  while (shard.lru.tail != nullptr) {
    if (CompressBlobLocked(shard, shard.lru.tail)) {
      return true;
    }
    // Incompressible: CompressBlobLocked dropped it from the list; try next.
  }
  return false;
}

bool PageStore::TakeOneCold(ColdRung in_shard) {
  // Round-robin over shards: "coldest per shard" approximates the global LRU
  // order well enough for a budget policy (the hash spreads content evenly).
  uint32_t start = shard_cursor_.fetch_add(1, std::memory_order_relaxed);
  for (uint32_t i = 0; i < kPageStoreShards; ++i) {
    if ((this->*in_shard)((start + i) & (kPageStoreShards - 1))) {
      return true;
    }
  }
  return false;
}

uint64_t PageStore::TakeAllCold(ColdRung in_shard) {
  uint64_t count = 0;
  for (uint32_t shard_id = 0; shard_id < kPageStoreShards; ++shard_id) {
    while ((this->*in_shard)(shard_id)) {
      ++count;
    }
  }
  return count;
}

bool PageStore::CompressOneCold() { return TakeOneCold(&PageStore::CompressOneColdInShard); }

uint64_t PageStore::CompressAllCold() { return TakeAllCold(&PageStore::CompressOneColdInShard); }

// ---------------------------------------------------------------------------
// Spill tier (fourth budget rung). Helpers run under the blob's shard mutex;
// SpillTier calls nest its own mutex inside it (shard → tier, never cycles).
// ---------------------------------------------------------------------------

bool PageStore::SpillBlobLocked(Shard& shard, PageBlob* blob) {
  uint32_t comp = blob->comp_bytes.load(std::memory_order_relaxed);
  uint32_t len = comp != 0 ? comp : static_cast<uint32_t>(kPageSize);
  SpillRecord* rec = blob->spill_rec;
  if (rec == nullptr) {
    rec = spill_->Append(blob->payload, len, comp);
    if (rec == nullptr) {
      return false;  // disk trouble — leave the blob resident
    }
    blob->spill_rec = rec;
  } else {
    // Retained from an earlier residency. The blob's bytes are immutable and
    // the codec deterministic, and a faulted-back blob re-enters the ladder
    // at the rung it left, so the record already holds exactly this payload.
    LW_CHECK(rec->len == len && rec->comp_bytes == comp);
  }
  // Payload lives on disk now; only the header stays resident.
  ColdUnlinkLocked(shard, blob);
  std::free(blob->payload);
  blob->payload = nullptr;
  blob->comp_bytes.store(0, std::memory_order_relaxed);
  blob->spilled.store(1, std::memory_order_release);
  counters_.live_bytes.fetch_sub(len, std::memory_order_relaxed);
  if (comp != 0) {
    counters_.compressed_blobs.fetch_sub(1, std::memory_order_relaxed);
  }
  counters_.spilled_blobs.fetch_add(1, std::memory_order_relaxed);
  counters_.spill_bytes.fetch_add(len, std::memory_order_relaxed);
  counters_.spills.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void PageStore::FaultBackBlobLocked(PageBlob* blob) {
  LW_CHECK(blob->spilled.load(std::memory_order_acquire) != 0);
  SpillRecord* rec = blob->spill_rec;
  uint8_t* raw = static_cast<uint8_t*>(std::malloc(kPageSize));
  LW_CHECK_MSG(raw != nullptr, "host allocation for faulted-back payload failed");
  if (rec->comp_bytes != 0) {
    uint8_t tmp[MaxCompressedBytes(kPageSize)];
    spill_->Read(rec, tmp);
    size_t n = Decompress(tmp, rec->comp_bytes, raw, kPageSize);
    LW_CHECK_MSG(n == kPageSize, "spilled blob decompressed to the wrong size");
  } else {
    spill_->Read(rec, raw);
  }
  blob->payload = raw;
  blob->spilled.store(0, std::memory_order_release);
  uint64_t live =
      counters_.live_bytes.fetch_add(kPageSize, std::memory_order_relaxed) + kPageSize;
  BumpPeak(counters_.peak_live_bytes, live);
  counters_.spilled_blobs.fetch_sub(1, std::memory_order_relaxed);
  counters_.spill_bytes.fetch_sub(rec->len, std::memory_order_relaxed);
  counters_.faultbacks.fetch_add(1, std::memory_order_relaxed);
  // The blob keeps its record: when it goes cold again (unchanged — blobs are
  // immutable), the re-spill is an accounting flip, no I/O.
  // Warm again: incompressible blobs rejoin the spill candidates directly
  // (the compress rung would only waste a pass on them), everything else
  // rejoins the raw LRU and descends the ladder normally.
  Shard& shard = shards_[blob->shard];
  if ((blob->flags & PageBlob::kIncompressible) != 0) {
    SpillCandPushFrontLocked(shard, blob);
  } else {
    LruPushFrontLocked(shard, blob);
  }
}

void PageStore::EnsureResidentLocked(PageBlob* blob) {
  if (blob->spilled.load(std::memory_order_relaxed) != 0) {
    FaultBackBlobLocked(blob);
  } else if (blob->comp_bytes.load(std::memory_order_relaxed) != 0) {
    DecompressBlobLocked(blob);
  }
}

bool PageStore::SpillOneColdInShard(uint32_t shard_id) {
  Shard& shard = shards_[shard_id];
  std::lock_guard<std::mutex> lock(shard.mu);
  // Coldest spill candidate first: only blobs the compress rung is done with
  // (compressed or proven incompressible) are candidates.
  PageBlob* victim = shard.spill_cands.tail;
  return victim != nullptr && SpillBlobLocked(shard, victim);
}

bool PageStore::SpillOneCold() {
  return spill_ != nullptr && TakeOneCold(&PageStore::SpillOneColdInShard);
}

uint64_t PageStore::SpillAllCold() {
  return spill_ != nullptr ? TakeAllCold(&PageStore::SpillOneColdInShard) : 0;
}

// ---------------------------------------------------------------------------
// Stats.
// ---------------------------------------------------------------------------

PageStore::Stats PageStore::stats() const {
  Stats s;
  s.live_blobs = counters_.live_blobs.load(std::memory_order_acquire);
  s.free_blobs = counters_.free_blobs.load(std::memory_order_relaxed);
  s.peak_live_blobs = counters_.peak_live_blobs.load(std::memory_order_relaxed);
  s.total_published = counters_.total_published.load(std::memory_order_relaxed);
  s.zero_dedup_hits = counters_.zero_dedup_hits.load(std::memory_order_relaxed);
  s.content_dedup_hits = counters_.content_dedup_hits.load(std::memory_order_relaxed);
  s.cross_session_dedup_hits =
      counters_.cross_session_dedup_hits.load(std::memory_order_relaxed);
  s.compressed_blobs = counters_.compressed_blobs.load(std::memory_order_relaxed);
  s.compressions = counters_.compressions.load(std::memory_order_relaxed);
  s.compression_attempts = counters_.compression_attempts.load(std::memory_order_relaxed);
  s.decompressions = counters_.decompressions.load(std::memory_order_relaxed);
  s.live_bytes = counters_.live_bytes.load(std::memory_order_relaxed);
  s.free_bytes = counters_.free_bytes.load(std::memory_order_relaxed);
  s.peak_live_bytes = counters_.peak_live_bytes.load(std::memory_order_relaxed);
  s.release_batches = counters_.release_batches.load(std::memory_order_relaxed);
  s.blobs_recycled_batched = counters_.blobs_recycled_batched.load(std::memory_order_relaxed);
  s.release_shard_locks = counters_.release_shard_locks.load(std::memory_order_relaxed);
  s.spilled_blobs = counters_.spilled_blobs.load(std::memory_order_relaxed);
  s.spill_bytes = counters_.spill_bytes.load(std::memory_order_relaxed);
  s.spills = counters_.spills.load(std::memory_order_relaxed);
  s.faultbacks = counters_.faultbacks.load(std::memory_order_relaxed);
  if (spill_ != nullptr) {
    SpillTier::Stats tier = spill_->stats();
    s.spill_segments = tier.segments;
    s.spill_segments_compacted = tier.segments_compacted;
  }
  return s;
}

}  // namespace lw
