// SSE4 kernel: 4-lane block-wise sorted intersection (SSSE3 shuffle
// compaction). Compiled with -msse4.2; on builds without the flag (non-x86
// or the scalar-baseline CI job) the table is empty and the dispatcher
// falls back to scalar.

#include "common/simd/simd.h"

#if defined(__SSE4_2__) && defined(__SSSE3__)

#include <immintrin.h>

#include <cstring>

namespace cexplorer {
namespace simd {

namespace {

/// Byte-shuffle masks compacting the matched lanes of a 4x u32 vector to
/// the front: entry m keeps exactly the lanes whose bit is set in m, in
/// order. Unused output bytes have the high bit set (shuffle yields 0).
struct CompactTable {
  alignas(16) std::uint8_t masks[16][16];
};

const CompactTable& Compact4() {
  static const CompactTable table = [] {
    CompactTable t;
    for (int m = 0; m < 16; ++m) {
      int pos = 0;
      std::memset(t.masks[m], 0x80, 16);
      for (int lane = 0; lane < 4; ++lane) {
        if (m & (1 << lane)) {
          for (int byte = 0; byte < 4; ++byte) {
            t.masks[m][pos * 4 + byte] =
                static_cast<std::uint8_t>(lane * 4 + byte);
          }
          ++pos;
        }
      }
    }
    return t;
  }();
  return table;
}

std::size_t IntersectSse4(const std::uint32_t* a, std::size_t na,
                          const std::uint32_t* b, std::size_t nb,
                          std::uint32_t* out) {
  std::size_t i = 0, j = 0, cnt = 0;
  if (na >= 4 && nb >= 4) {
    __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
    __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
    for (;;) {
      // Compare the a-block against all four rotations of the b-block:
      // the OR of the equality masks flags every a-lane with a match.
      const __m128i r1 = _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1));
      const __m128i r2 = _mm_shuffle_epi32(vb, _MM_SHUFFLE(1, 0, 3, 2));
      const __m128i r3 = _mm_shuffle_epi32(vb, _MM_SHUFFLE(2, 1, 0, 3));
      const __m128i eq = _mm_or_si128(
          _mm_or_si128(_mm_cmpeq_epi32(va, vb), _mm_cmpeq_epi32(va, r1)),
          _mm_or_si128(_mm_cmpeq_epi32(va, r2), _mm_cmpeq_epi32(va, r3)));
      const int mask = _mm_movemask_ps(_mm_castsi128_ps(eq));
      const __m128i shuf = _mm_load_si128(
          reinterpret_cast<const __m128i*>(Compact4().masks[mask]));
      // cnt <= min(i, j) + 3 here (a block can match against several
      // opposing blocks before advancing), so the full 16-byte store can
      // spill up to 3 slots past min(na, nb) — within the kIntersectPad
      // slack callers provide. The write past the matched prefix is also
      // why out must not alias an input.
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + cnt),
                       _mm_shuffle_epi8(va, shuf));
      cnt += static_cast<std::size_t>(__builtin_popcount(
          static_cast<unsigned>(mask)));
      const std::uint32_t amax = a[i + 3];
      const std::uint32_t bmax = b[j + 3];
      // Advance whichever block cannot hold further matches; on a tie both
      // advance. Every match between a surviving block and a discarded one
      // would exceed the discarded block's max — impossible.
      if (amax <= bmax) {
        i += 4;
        if (i + 4 > na) break;
        va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
      }
      if (bmax <= amax) {
        j += 4;
        if (j + 4 > nb) break;
        vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
      }
    }
  }
  while (i < na && j < nb) {
    const std::uint32_t x = a[i];
    const std::uint32_t y = b[j];
    if (x == y) {
      out[cnt++] = x;
      ++i;
      ++j;
    } else if (x < y) {
      ++i;
    } else {
      ++j;
    }
  }
  return cnt;
}

}  // namespace

const KernelTable& Sse4Kernels() {
  static const KernelTable table{&IntersectSse4};
  return table;
}

}  // namespace simd
}  // namespace cexplorer

#else  // !(__SSE4_2__ && __SSSE3__)

namespace cexplorer {
namespace simd {

const KernelTable& Sse4Kernels() {
  static const KernelTable table{};
  return table;
}

}  // namespace simd
}  // namespace cexplorer

#endif
