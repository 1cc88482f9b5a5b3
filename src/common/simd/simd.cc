#include "common/simd/simd.h"

#include <algorithm>
#include <cstdlib>
#include <string_view>
#include <utility>

namespace cexplorer {
namespace simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar kernels (always available; the oracle every SIMD path must match)
// ---------------------------------------------------------------------------

std::size_t IntersectScalar(const std::uint32_t* a, std::size_t na,
                            const std::uint32_t* b, std::size_t nb,
                            std::uint32_t* out) {
  std::size_t i = 0, j = 0, cnt = 0;
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

// ---------------------------------------------------------------------------
// Galloping kernel (skewed sizes; ISA-independent)
// ---------------------------------------------------------------------------

/// Per-element doubling search of the short list `a` in the long list `b`.
std::size_t IntersectGallop(const std::uint32_t* a, std::size_t na,
                            const std::uint32_t* b, std::size_t nb,
                            std::uint32_t* out) {
  std::size_t j = 0, cnt = 0;
  for (std::size_t i = 0; i < na && j < nb; ++i) {
    const std::uint32_t x = a[i];
    std::size_t bound = 1;
    while (j + bound < nb && b[j + bound] < x) bound <<= 1;
    const std::size_t hi = std::min(nb, j + bound + 1);
    j = static_cast<std::size_t>(std::lower_bound(b + j, b + hi, x) - b);
    if (j < nb && b[j] == x) {
      out[cnt++] = x;
      ++j;
    }
  }
  return cnt;
}

/// Size ratio beyond which galloping beats the block-wise merge.
constexpr std::size_t kGallopRatio = 32;

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

Isa DetectIsa() {
#if defined(__x86_64__) || defined(__i386__)
  if (Avx2Kernels().intersect != nullptr && __builtin_cpu_supports("avx2")) {
    return Isa::kAvx2;
  }
  if (Sse4Kernels().intersect != nullptr &&
      __builtin_cpu_supports("sse4.2")) {
    return Isa::kSse4;
  }
#endif
  return Isa::kScalar;
}

Isa ResolveActiveIsa() {
  Isa best = DetectIsa();
  const char* env = std::getenv("CEXPLORER_SIMD");
  if (env != nullptr) {
    const std::string_view want(env);
    // The override only ever narrows: asking for an ISA the CPU or build
    // lacks clamps to the widest available one below it.
    if (want == "scalar") return Isa::kScalar;
    if (want == "sse4") {
      return best == Isa::kScalar ? Isa::kScalar : Isa::kSse4;
    }
    // "avx2" (or anything unrecognized) keeps the detected best.
  }
  return best;
}

const KernelTable& TableFor(Isa isa) {
  switch (isa) {
    case Isa::kAvx2:
      return Avx2Kernels();
    case Isa::kSse4:
      return Sse4Kernels();
    case Isa::kScalar:
      break;
  }
  return ScalarKernels();
}

/// The block-wise intersection kernel of `isa`, or the scalar one when the
/// build carries no translation unit for it.
decltype(KernelTable::intersect) IntersectKernel(Isa isa) {
  const KernelTable& table = TableFor(isa);
  return table.intersect != nullptr ? table.intersect
                                    : ScalarKernels().intersect;
}

}  // namespace

const KernelTable& ScalarKernels() {
  static const KernelTable table{&IntersectScalar};
  return table;
}

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kSse4:
      return "sse4";
    case Isa::kAvx2:
      return "avx2";
  }
  return "?";
}

Isa ActiveIsa() {
  static const Isa isa = ResolveActiveIsa();
  return isa;
}

bool IsaAvailable(Isa isa) {
  if (isa == Isa::kScalar) return true;
#if defined(__x86_64__) || defined(__i386__)
  if (isa == Isa::kSse4) {
    return Sse4Kernels().intersect != nullptr &&
           __builtin_cpu_supports("sse4.2");
  }
  return Avx2Kernels().intersect != nullptr && __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

std::size_t IntersectSorted(std::span<const std::uint32_t> a,
                            std::span<const std::uint32_t> b,
                            std::uint32_t* out) {
  // Gallop from the short side when the sizes are skewed; the doubling
  // search does O(short * log(long)) work where the merge pays O(long).
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return 0;
  if (b.size() / a.size() >= kGallopRatio) {
    return IntersectGallop(a.data(), a.size(), b.data(), b.size(), out);
  }
  static const auto active = IntersectKernel(ActiveIsa());
  return active(a.data(), a.size(), b.data(), b.size(), out);
}

std::size_t IntersectSortedWithIsa(std::span<const std::uint32_t> a,
                                   std::span<const std::uint32_t> b,
                                   std::uint32_t* out, Isa isa) {
  return IntersectKernel(isa)(a.data(), a.size(), b.data(), b.size(), out);
}

std::size_t IntersectCount(std::span<const std::uint32_t> a,
                           std::span<const std::uint32_t> b) {
  thread_local std::vector<std::uint32_t> scratch;
  const std::size_t cap = std::min(a.size(), b.size()) + kIntersectPad;
  if (scratch.size() < cap) scratch.resize(cap);
  return IntersectSorted(a, b, scratch.data());
}

void IntersectInto(std::span<const std::uint32_t> a,
                   std::span<const std::uint32_t> b,
                   std::vector<std::uint32_t>* out) {
  out->resize(std::min(a.size(), b.size()) + kIntersectPad);
  out->resize(IntersectSorted(a, b, out->data()));
}

}  // namespace simd
}  // namespace cexplorer
