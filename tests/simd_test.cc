// Tests for the vectorized kernel layer (common/simd): sorted-set
// intersection against a scalar oracle across widths and ISAs, the
// galloping cutover, bloom filter guarantees and false-positive bounds, and
// bitset-vs-stamp peel frontier equivalence.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/simd/simd.h"
#include "core/kcore.h"
#include "graph/graph.h"

namespace cexplorer {
namespace {

using U32List = std::vector<std::uint32_t>;

/// The trivially correct two-pointer merge the kernels must agree with.
U32List OracleIntersect(const U32List& a, const U32List& b) {
  U32List out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// Sorted unique list of `count` values drawn from [0, universe).
U32List RandomSortedList(Rng* rng, std::size_t count, std::uint32_t universe) {
  std::set<std::uint32_t> values;
  while (values.size() < count) values.insert(rng->UniformU32(universe));
  return U32List(values.begin(), values.end());
}

/// ISAs usable in this process (scalar always; wider ones when the CPU and
/// the build carry them). Every test sweeps this so the suite exercises
/// whatever the host offers and still passes on a scalar-only build.
std::vector<simd::Isa> AvailableIsas() {
  std::vector<simd::Isa> isas{simd::Isa::kScalar};
  if (simd::IsaAvailable(simd::Isa::kSse4)) isas.push_back(simd::Isa::kSse4);
  if (simd::IsaAvailable(simd::Isa::kAvx2)) isas.push_back(simd::Isa::kAvx2);
  return isas;
}

/// Runs one (a, b) pair through the dispatcher and every available ISA's
/// block kernel, in both argument orders, expecting the oracle's answer.
void ExpectIntersection(const U32List& a, const U32List& b) {
  const U32List expected = OracleIntersect(a, b);
  // The documented output capacity: min size plus the kernels' write
  // slack. Canary words beyond it must never be touched.
  const std::size_t cap = std::min(a.size(), b.size()) + simd::kIntersectPad;
  for (const auto* lhs : {&a, &b}) {
    const auto* rhs = lhs == &a ? &b : &a;
    U32List out(cap + 4, 0xdeadbeefu);
    const std::size_t n = simd::IntersectSorted(*lhs, *rhs, out.data());
    ASSERT_EQ(n, expected.size());
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(), out.begin()));
    for (std::size_t i = cap; i < out.size(); ++i) {
      EXPECT_EQ(out[i], 0xdeadbeefu) << "write past capacity at " << i;
    }
    EXPECT_EQ(simd::IntersectCount(*lhs, *rhs), expected.size());
    for (simd::Isa isa : AvailableIsas()) {
      U32List forced(cap + 4, 0xdeadbeefu);
      const std::size_t fn =
          simd::IntersectSortedWithIsa(*lhs, *rhs, forced.data(), isa);
      ASSERT_EQ(fn, expected.size()) << simd::IsaName(isa);
      EXPECT_TRUE(std::equal(expected.begin(), expected.end(), forced.begin()))
          << simd::IsaName(isa);
      for (std::size_t i = cap; i < forced.size(); ++i) {
        EXPECT_EQ(forced[i], 0xdeadbeefu)
            << simd::IsaName(isa) << " wrote past capacity at " << i;
      }
    }
  }
}

TEST(IntersectTest, EmptyAndSingleton) {
  ExpectIntersection({}, {});
  ExpectIntersection({}, {1, 2, 3});
  ExpectIntersection({5}, {5});
  ExpectIntersection({5}, {6});
  ExpectIntersection({5}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
}

TEST(IntersectTest, TailsBelowLaneWidth) {
  // Lengths straddling the 4-lane (SSE4) and 8-lane (AVX2) block sizes so
  // both the block loop and the scalar tail run, including the pure-tail
  // case where one side never fills a block.
  for (std::size_t na : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u}) {
    for (std::size_t nb : {1u, 3u, 4u, 7u, 8u, 9u, 16u, 31u}) {
      U32List a, b;
      for (std::size_t i = 0; i < na; ++i) {
        a.push_back(static_cast<std::uint32_t>(2 * i));
      }
      for (std::size_t i = 0; i < nb; ++i) {
        b.push_back(static_cast<std::uint32_t>(3 * i));
      }
      ExpectIntersection(a, b);
    }
  }
}

TEST(IntersectTest, FullyDisjointAndFullyEqual) {
  U32List evens, odds;
  for (std::uint32_t i = 0; i < 64; ++i) {
    evens.push_back(2 * i);
    odds.push_back(2 * i + 1);
  }
  ExpectIntersection(evens, odds);   // disjoint but interleaved
  ExpectIntersection(evens, evens);  // identical
  U32List low(evens.begin(), evens.begin() + 32);
  U32List high(evens.begin() + 32, evens.end());
  ExpectIntersection(low, high);  // disjoint ranges: block max fast-forward
}

TEST(IntersectTest, SkewedSizesHitGalloping) {
  // 16 needles in a 100k-element haystack: the dispatcher's size-ratio
  // cutover routes this to the galloping kernel; the answer must not care.
  Rng rng(7);
  U32List haystack = RandomSortedList(&rng, 100000, 1u << 24);
  U32List needles;
  for (std::size_t i = 0; i < 16; ++i) {
    needles.push_back(haystack[(i * 9973) % haystack.size()]);
  }
  needles.push_back((1u << 24) + 1);  // one miss beyond the range
  std::sort(needles.begin(), needles.end());
  needles.erase(std::unique(needles.begin(), needles.end()), needles.end());
  ExpectIntersection(needles, haystack);
}

TEST(IntersectTest, RandomizedAgainstOracle) {
  Rng rng(42);
  for (int round = 0; round < 200; ++round) {
    // Small universes force dense overlap; large ones force sparse.
    const std::uint32_t universe = 1u + rng.UniformU32(2000);
    const std::size_t na = rng.UniformU32(std::min(universe, 300u));
    const std::size_t nb = rng.UniformU32(std::min(universe, 300u));
    ExpectIntersection(RandomSortedList(&rng, na, universe),
                       RandomSortedList(&rng, nb, universe));
  }
}

TEST(IntersectTest, IntersectIntoVector) {
  U32List out{99, 98};  // stale contents must be replaced
  simd::IntersectInto({{1, 3, 5, 7}}, {{2, 3, 4, 7, 9}}, &out);
  EXPECT_EQ(out, (U32List{3, 7}));
}

// ---------------------------------------------------------------------------
// Bloom fingerprints
// ---------------------------------------------------------------------------

TEST(BloomTest, NoFalseNegatives) {
  // The hard guarantee: a present key (or subset) always passes. Checked
  // over many random sets — a false negative would corrupt query results,
  // not just waste work.
  Rng rng(5);
  for (int round = 0; round < 500; ++round) {
    const std::size_t count = 1 + rng.UniformU32(12);
    const U32List keys = RandomSortedList(&rng, count, 1u << 20);
    const std::uint64_t fp = simd::BloomFingerprint(keys);
    for (std::uint32_t k : keys) {
      EXPECT_TRUE(simd::BloomMayContain(fp, k));
    }
    // Any subset's fingerprint must pass the superset pre-test.
    U32List subset;
    for (std::uint32_t k : keys) {
      if (rng.UniformU32(2) == 0) subset.push_back(k);
    }
    EXPECT_TRUE(simd::BloomMayContainAll(fp, simd::BloomFingerprint(subset)));
  }
}

TEST(BloomTest, FalsePositiveRateIsBounded) {
  // Two probe bits in 64: for a filter holding 4 keys (<= 8 bits set), a
  // random absent key collides with probability <= (8/64)^2 ~ 1.6%.
  // Allow generous slack (5%) so the bound never flakes.
  Rng rng(13);
  int false_positives = 0;
  const int kTrials = 20000;
  for (int t = 0; t < kTrials; ++t) {
    const U32List keys = RandomSortedList(&rng, 4, 1u << 30);
    const std::uint64_t fp = simd::BloomFingerprint(keys);
    std::uint32_t probe;
    do {
      probe = rng.UniformU32(1u << 30);
    } while (std::binary_search(keys.begin(), keys.end(), probe));
    if (simd::BloomMayContain(fp, probe)) ++false_positives;
  }
  EXPECT_LT(false_positives, kTrials / 20);
}

// ---------------------------------------------------------------------------
// Peel frontier modes: bitset vs stamps
// ---------------------------------------------------------------------------

Graph RandomGraph(std::size_t n, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (std::size_t i = 0; i < m; ++i) {
    b.AddEdge(rng.UniformU32(static_cast<std::uint32_t>(n)),
              rng.UniformU32(static_cast<std::uint32_t>(n)));
  }
  return b.Build();
}

/// Guard restoring the process-wide frontier mode on scope exit.
class FrontierModeGuard {
 public:
  explicit FrontierModeGuard(PeelFrontierMode mode)
      : saved_(GetPeelFrontierMode()) {
    SetPeelFrontierMode(mode);
  }
  ~FrontierModeGuard() { SetPeelFrontierMode(saved_); }

 private:
  PeelFrontierMode saved_;
};

TEST(PeelFrontierTest, BitsetMatchesStampsExactly) {
  // The membership representation is a pure implementation detail: both
  // modes must peel to the identical community (same vertices, same order)
  // for dense and sparse candidate sets alike.
  const Graph g = RandomGraph(400, 1600, 99);
  Rng rng(17);
  for (int round = 0; round < 50; ++round) {
    const std::size_t count = 1 + rng.UniformU32(400);
    std::set<VertexId> pick;
    while (pick.size() < count) pick.insert(rng.UniformU32(400));
    const VertexList candidates(pick.begin(), pick.end());
    const VertexId anchor = candidates[rng.UniformU32(
        static_cast<std::uint32_t>(candidates.size()))];
    const std::uint32_t k = 1 + rng.UniformU32(4);

    VertexList stamps, bitset;
    {
      FrontierModeGuard guard(PeelFrontierMode::kStamps);
      stamps = PeelToKCoreSorted(g, candidates, k, anchor);
    }
    {
      FrontierModeGuard guard(PeelFrontierMode::kBitset);
      bitset = PeelToKCoreSorted(g, candidates, k, anchor);
    }
    EXPECT_EQ(stamps, bitset) << "k=" << k << " anchor=" << anchor;

    // The auto heuristic picks one of the two — either way, same answer.
    EXPECT_EQ(PeelToKCoreSorted(g, candidates, k, anchor), stamps);
  }
}

TEST(PeelFrontierTest, UnsortedEntryPointAgrees) {
  const Graph g = RandomGraph(100, 500, 3);
  VertexList shuffled;
  for (VertexId v = 0; v < 100; ++v) shuffled.push_back(v);
  Rng rng(8);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.UniformU32(
                                   static_cast<std::uint32_t>(i))]);
  }
  VertexList sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(PeelToKCore(g, shuffled, 2, 0), PeelToKCoreSorted(g, sorted, 2, 0));
}

}  // namespace
}  // namespace cexplorer
