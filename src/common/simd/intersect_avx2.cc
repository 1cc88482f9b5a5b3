// AVX2 kernel: 8-lane block-wise sorted intersection with permute
// compaction. Compiled with -mavx2; without the flag the table is empty
// and the dispatcher falls back to SSE4 or scalar.

#include "common/simd/simd.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

namespace cexplorer {
namespace simd {

namespace {

/// Lane-permutation table compacting the matched lanes of an 8x u32 vector
/// to the front: entry m lists the set-bit lanes of m in order (unused
/// slots repeat lane 0; only the first popcount(m) outputs are consumed).
struct PermuteTable {
  alignas(32) std::int32_t perms[256][8];
};

const PermuteTable& Compact8() {
  static const PermuteTable table = [] {
    PermuteTable t;
    for (int m = 0; m < 256; ++m) {
      int pos = 0;
      for (int lane = 0; lane < 8; ++lane) {
        if (m & (1 << lane)) t.perms[m][pos++] = lane;
      }
      for (; pos < 8; ++pos) t.perms[m][pos] = 0;
    }
    return t;
  }();
  return table;
}

std::size_t IntersectAvx2(const std::uint32_t* a, std::size_t na,
                          const std::uint32_t* b, std::size_t nb,
                          std::uint32_t* out) {
  std::size_t i = 0, j = 0, cnt = 0;
  if (na >= 8 && nb >= 8) {
    // Rotation index vectors for the seven non-identity rotations of the
    // b-block.
    const __m256i rot1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
    const __m256i rot2 = _mm256_setr_epi32(2, 3, 4, 5, 6, 7, 0, 1);
    const __m256i rot3 = _mm256_setr_epi32(3, 4, 5, 6, 7, 0, 1, 2);
    const __m256i rot4 = _mm256_setr_epi32(4, 5, 6, 7, 0, 1, 2, 3);
    const __m256i rot5 = _mm256_setr_epi32(5, 6, 7, 0, 1, 2, 3, 4);
    const __m256i rot6 = _mm256_setr_epi32(6, 7, 0, 1, 2, 3, 4, 5);
    const __m256i rot7 = _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
    for (;;) {
      __m256i eq = _mm256_cmpeq_epi32(va, vb);
      eq = _mm256_or_si256(
          eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot1)));
      eq = _mm256_or_si256(
          eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot2)));
      eq = _mm256_or_si256(
          eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot3)));
      eq = _mm256_or_si256(
          eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot4)));
      eq = _mm256_or_si256(
          eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot5)));
      eq = _mm256_or_si256(
          eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot6)));
      eq = _mm256_or_si256(
          eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot7)));
      const int mask = _mm256_movemask_ps(_mm256_castsi256_ps(eq));
      const __m256i perm = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(Compact8().perms[mask]));
      // cnt <= min(i, j) + 7 here (a block can match against several
      // opposing blocks before advancing), so the full 32-byte store can
      // spill up to 7 slots past min(na, nb) — within the kIntersectPad
      // slack callers provide. The write past the matched prefix is also
      // why out must not alias an input.
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + cnt),
                          _mm256_permutevar8x32_epi32(va, perm));
      cnt += static_cast<std::size_t>(__builtin_popcount(
          static_cast<unsigned>(mask)));
      const std::uint32_t amax = a[i + 7];
      const std::uint32_t bmax = b[j + 7];
      if (amax <= bmax) {
        i += 8;
        if (i + 8 > na) break;
        va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      }
      if (bmax <= amax) {
        j += 8;
        if (j + 8 > nb) break;
        vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
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

const KernelTable& Avx2Kernels() {
  static const KernelTable table{&IntersectAvx2};
  return table;
}

}  // namespace simd
}  // namespace cexplorer

#else  // !__AVX2__

namespace cexplorer {
namespace simd {

const KernelTable& Avx2Kernels() {
  static const KernelTable table{};
  return table;
}

}  // namespace simd
}  // namespace cexplorer

#endif
