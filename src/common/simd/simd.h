// Vectorized kernels for the query hot path: sorted-set intersection and
// tiny bloom filters.
//
// The kernels come in up to three implementations — scalar, SSE4 (SSSE3
// shuffles + SSE4 extracts) and AVX2 — compiled into separate translation
// units with per-file -msse4.2 / -mavx2 flags, and selected once at startup
// by runtime CPU detection. Callers use the dispatching entry points below
// and never see the ISA; every implementation produces bit-identical output
// (intersection of sorted unique lists is a unique sorted list), so
// switching ISAs can never change a query result.
//
// Dispatch can be forced down with CEXPLORER_SIMD=scalar|sse4|avx2 (clamped
// to what the CPU and the build support) — CI uses this to prove the
// fallback paths agree with the vectorized ones.

#ifndef CEXPLORER_COMMON_SIMD_SIMD_H_
#define CEXPLORER_COMMON_SIMD_SIMD_H_

#include <cstdint>
#include <span>
#include <vector>

namespace cexplorer {
namespace simd {

/// Instruction set an intersection kernel is implemented against.
enum class Isa {
  kScalar,  ///< portable C++, always available
  kSse4,    ///< 4-lane blocks (SSSE3 shuffle compaction, SSE4 extracts)
  kAvx2,    ///< 8-lane blocks (AVX2 permutes)
};

/// Name for stats/logging: "scalar", "sse4", "avx2".
const char* IsaName(Isa isa);

/// The ISA the dispatching entry points resolved to at startup: the widest
/// one the CPU supports and the build carries, clamped down by the
/// CEXPLORER_SIMD environment variable if set.
Isa ActiveIsa();

/// True iff `isa` is usable in this process (CPU support + the translation
/// unit was built with the matching -m flag). kScalar is always true.
bool IsaAvailable(Isa isa);

// ---------------------------------------------------------------------------
// Sorted-set intersection
// ---------------------------------------------------------------------------
//
// Inputs are strictly increasing u32 sequences (posting lists, adjacency
// lists and candidate sets all are). Output is their intersection,
// strictly increasing. `out` must have room for min(a.size(), b.size()) +
// kIntersectPad elements and must NOT alias either input: the block
// kernels store a full SIMD register per block, and because one block can
// collect matches against several opposing blocks before advancing, the
// matched prefix can reach min(na, nb) while the store still writes a
// whole register — spilling up to lane-count minus one slots past it.
// The same full-width store is why aliasing is forbidden (it would clobber
// unread input and the block maxima, which are re-read from memory).
// Progressive multi-list intersections ping-pong between two scratch
// buffers instead.
//
// The dispatching entry point routes skewed inputs (one side much shorter)
// to a galloping kernel — per-element doubling search in the longer list —
// and comparable sizes to the block-wise SIMD merge of the active ISA.

/// Output slack the block kernels may scribble into beyond the matched
/// count: one AVX2 register of u32 lanes. Slots past the returned count
/// hold unspecified values.
inline constexpr std::size_t kIntersectPad = 8;

/// Intersection of two sorted unique lists into `out`; returns the count.
std::size_t IntersectSorted(std::span<const std::uint32_t> a,
                            std::span<const std::uint32_t> b,
                            std::uint32_t* out);

/// Like IntersectSorted, but forcing a specific ISA's block-wise kernel
/// (no galloping cutover). Test hook; `isa` must be available.
std::size_t IntersectSortedWithIsa(std::span<const std::uint32_t> a,
                                   std::span<const std::uint32_t> b,
                                   std::uint32_t* out, Isa isa);

/// |a ∩ b| without materializing the intersection.
std::size_t IntersectCount(std::span<const std::uint32_t> a,
                           std::span<const std::uint32_t> b);

/// Intersection appended into a vector (resized to fit, then shrunk to the
/// exact count). Convenience for non-hot-path callers.
void IntersectInto(std::span<const std::uint32_t> a,
                   std::span<const std::uint32_t> b,
                   std::vector<std::uint32_t>* out);

// ---------------------------------------------------------------------------
// 64-bit bloom fingerprints
// ---------------------------------------------------------------------------
//
// A one-word bloom filter with two probe bits per key: big enough to
// pre-prune "does this CL-tree node carry keyword kw at all?" and "can
// vertex v possibly hold all keywords of S?" with one AND, small enough to
// live inline next to the data it guards. False positives only ever cost
// the exact check they precede — never a wrong answer.

/// The two-bit probe mask of one key.
inline std::uint64_t BloomMask(std::uint32_t key) {
  // Two independent bit positions from a 64-bit mix (splitmix64 finalizer).
  std::uint64_t h = key + 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return (1ULL << (h & 63)) | (1ULL << ((h >> 6) & 63));
}

/// Fingerprint of a whole key set (OR of the per-key masks).
inline std::uint64_t BloomFingerprint(std::span<const std::uint32_t> keys) {
  std::uint64_t fp = 0;
  for (std::uint32_t k : keys) fp |= BloomMask(k);
  return fp;
}

/// False iff `key` is definitely not in the set behind `filter`.
inline bool BloomMayContain(std::uint64_t filter, std::uint32_t key) {
  const std::uint64_t mask = BloomMask(key);
  return (filter & mask) == mask;
}

/// False iff some key of the set behind `query_fp` is definitely not in
/// the set behind `filter` (superset pre-test).
inline bool BloomMayContainAll(std::uint64_t filter, std::uint64_t query_fp) {
  return (query_fp & ~filter) == 0;
}

// ---------------------------------------------------------------------------
// Implementation registry (internal; one per ISA translation unit)
// ---------------------------------------------------------------------------

/// Kernel table one ISA TU exports. Entries are null when the TU was built
/// without its -m flag (non-x86 or baseline builds).
struct KernelTable {
  std::size_t (*intersect)(const std::uint32_t*, std::size_t,
                           const std::uint32_t*, std::size_t,
                           std::uint32_t*) = nullptr;
};

/// Tables defined in intersect_scalar/sse4/avx2; null entries fall back to
/// scalar in the dispatcher.
const KernelTable& ScalarKernels();
const KernelTable& Sse4Kernels();
const KernelTable& Avx2Kernels();

}  // namespace simd
}  // namespace cexplorer

#endif  // CEXPLORER_COMMON_SIMD_SIMD_H_
