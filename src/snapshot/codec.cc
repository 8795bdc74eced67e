#include "src/snapshot/codec.h"

#include <cstring>

#include "src/util/status.h"

namespace lw {
namespace {

constexpr int kHashBits = 12;
constexpr size_t kMinMatch = 4;
constexpr uint32_t kMaxOffset = 65535;

inline uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint32_t Hash4(uint32_t v) { return (v * 2654435761u) >> (32 - kHashBits); }

// Emits a run length in the LZ4 style: `nibble` already holds min(len, 15);
// when it saturates, the remainder follows as 255-bytes plus a final byte.
inline bool PutExtendedLength(uint8_t** dst, const uint8_t* dst_end, size_t len) {
  while (len >= 255) {
    if (*dst >= dst_end) {
      return false;
    }
    *(*dst)++ = 255;
    len -= 255;
  }
  if (*dst >= dst_end) {
    return false;
  }
  *(*dst)++ = static_cast<uint8_t>(len);
  return true;
}

}  // namespace

// Both byte loops below are sensitive to where they sit relative to 64-byte
// fetch boundaries: a 16-byte shift of unrelated code linked before this file
// moved the budgeted queens search (lwbench search_spill) by ~15% on an Intel
// Xeon host. A fixed entry alignment pins the loops' placement.
__attribute__((aligned(64))) size_t Compress(const uint8_t* src, size_t src_len, uint8_t* dst,
                                             size_t dst_cap) {
  uint32_t table[1u << kHashBits];
  std::memset(table, 0xff, sizeof(table));  // 0xffffffff = empty

  uint8_t* out = dst;
  uint8_t* const out_end = dst + dst_cap;
  size_t anchor = 0;
  size_t pos = 0;
  // Matches may not start in the final kMinMatch bytes (nothing to extend) and
  // the block always ends in a literal-only sequence, as in LZ4.
  const size_t match_limit = src_len > kMinMatch ? src_len - kMinMatch : 0;

  auto emit = [&](size_t lit_end, size_t match_len, uint32_t offset) -> bool {
    size_t lit_len = lit_end - anchor;
    if (out >= out_end) {
      return false;
    }
    uint8_t* token = out++;
    *token = static_cast<uint8_t>((lit_len < 15 ? lit_len : 15) << 4);
    if (lit_len >= 15 && !PutExtendedLength(&out, out_end, lit_len - 15)) {
      return false;
    }
    if (out + lit_len > out_end) {
      return false;
    }
    std::memcpy(out, src + anchor, lit_len);
    out += lit_len;
    if (match_len == 0) {
      return true;  // terminal literal-only sequence
    }
    if (out + 2 > out_end) {
      return false;
    }
    *out++ = static_cast<uint8_t>(offset & 0xff);
    *out++ = static_cast<uint8_t>(offset >> 8);
    size_t code = match_len - kMinMatch;
    *token |= static_cast<uint8_t>(code < 15 ? code : 15);
    if (code >= 15 && !PutExtendedLength(&out, out_end, code - 15)) {
      return false;
    }
    return true;
  };

  while (pos < match_limit) {
    uint32_t seq = Load32(src + pos);
    uint32_t h = Hash4(seq);
    uint32_t cand = table[h];
    table[h] = static_cast<uint32_t>(pos);
    if (cand != 0xffffffffu && pos - cand <= kMaxOffset && Load32(src + cand) == seq) {
      size_t len = kMinMatch;
      while (pos + len < src_len && src[cand + len] == src[pos + len]) {
        ++len;
      }
      if (!emit(pos, len, static_cast<uint32_t>(pos - cand))) {
        return 0;
      }
      pos += len;
      anchor = pos;
    } else {
      ++pos;
    }
  }
  if (!emit(src_len, 0, 0)) {
    return 0;
  }
  return static_cast<size_t>(out - dst);
}

__attribute__((aligned(64))) size_t Decompress(const uint8_t* src, size_t src_len, uint8_t* dst,
                                               size_t dst_cap) {
  const uint8_t* p = src;
  const uint8_t* const src_end = src + src_len;
  size_t written = 0;

  auto get_extended = [&](size_t base) -> size_t {
    size_t len = base;
    if (base == 15) {
      uint8_t b;
      do {
        LW_CHECK_MSG(p < src_end, "codec: truncated length");
        b = *p++;
        len += b;
      } while (b == 255);
    }
    return len;
  };

  while (p < src_end) {
    uint8_t token = *p++;
    size_t lit_len = get_extended(token >> 4);
    LW_CHECK_MSG(p + lit_len <= src_end, "codec: truncated literals");
    LW_CHECK_MSG(written + lit_len <= dst_cap, "codec: output overflow");
    std::memcpy(dst + written, p, lit_len);
    p += lit_len;
    written += lit_len;
    if (p == src_end) {
      break;  // terminal literal-only sequence
    }
    LW_CHECK_MSG(p + 2 <= src_end, "codec: truncated offset");
    uint32_t offset = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8);
    p += 2;
    size_t match_len = get_extended(token & 15) + kMinMatch;
    LW_CHECK_MSG(offset != 0 && offset <= written, "codec: bad offset");
    LW_CHECK_MSG(written + match_len <= dst_cap, "codec: output overflow");
    // Byte-wise copy: offsets shorter than the match length replicate the
    // window (RLE-style), which memcpy would get wrong.
    const uint8_t* from = dst + written - offset;
    for (size_t i = 0; i < match_len; ++i) {
      dst[written + i] = from[i];
    }
    written += match_len;
  }
  return written;
}

}  // namespace lw
