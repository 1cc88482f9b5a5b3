#include "metrics/quality.h"

#include <span>
#include <vector>

#include "common/rng.h"
#include "common/simd/simd.h"

namespace cexplorer {

namespace {

/// Jaccard similarity of two keyword rows (strictly ascending, as every
/// AttributedGraph row is); 0 when both are empty.
double RowJaccard(std::span<const KeywordId> a, std::span<const KeywordId> b) {
  if (a.empty() && b.empty()) return 0.0;
  const std::size_t inter = simd::IntersectCount(a, b);
  return static_cast<double>(inter) /
         static_cast<double>(a.size() + b.size() - inter);
}

/// The members' keyword rows copied once, in member order, into one
/// compact CSR. The pair loops then read short rows packed together
/// instead of rows scattered over the whole graph's keyword array.
class MemberKeywordRows {
 public:
  MemberKeywordRows(const AttributedGraph& g, const VertexList& members) {
    // Exact sizes up front: one allocation per array instead of a chain of
    // regrowths, whose freed blocks fragment the heap of a busy server.
    std::size_t total = 0;
    for (VertexId v : members) total += g.Keywords(v).size();
    data_.reserve(total);
    offsets_.reserve(members.size() + 1);
    offsets_.push_back(0);
    for (VertexId v : members) {
      const auto row = g.Keywords(v);
      data_.insert(data_.end(), row.begin(), row.end());
      offsets_.push_back(data_.size());
    }
  }

  /// Jaccard similarity of the rows of members[i] and members[j].
  double Jaccard(std::size_t i, std::size_t j) const {
    return RowJaccard(Row(i), Row(j));
  }

 private:
  std::span<const KeywordId> Row(std::size_t i) const {
    return {data_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }

  std::vector<std::size_t> offsets_;
  std::vector<KeywordId> data_;
};

}  // namespace

double KeywordJaccard(const AttributedGraph& g, VertexId a, VertexId b) {
  return RowJaccard(g.Keywords(a), g.Keywords(b));
}

double Cpj(const AttributedGraph& g, const VertexList& community) {
  if (community.size() < 2) return 0.0;
  const MemberKeywordRows rows(g, community);
  double total = 0.0;
  for (std::size_t i = 0; i < community.size(); ++i) {
    for (std::size_t j = i + 1; j < community.size(); ++j) {
      total += rows.Jaccard(i, j);
    }
  }
  const double pairs =
      static_cast<double>(community.size()) *
      static_cast<double>(community.size() - 1) / 2.0;
  return total / pairs;
}

double CpjSampled(const AttributedGraph& g, const VertexList& community,
                  std::size_t max_pairs, std::uint64_t seed) {
  if (community.size() < 2) return 0.0;
  const double pairs = static_cast<double>(community.size()) *
                       static_cast<double>(community.size() - 1) / 2.0;
  if (pairs <= static_cast<double>(max_pairs)) return Cpj(g, community);

  const MemberKeywordRows rows(g, community);
  Rng rng(seed);
  double total = 0.0;
  const std::uint32_t n = static_cast<std::uint32_t>(community.size());
  for (std::size_t s = 0; s < max_pairs; ++s) {
    const std::uint32_t a = rng.UniformU32(n);
    std::uint32_t b = rng.UniformU32(n);
    // Redraw on the same vertex, not the same slot: a duplicated member
    // is still one vertex.
    while (community[b] == community[a]) b = rng.UniformU32(n);
    total += rows.Jaccard(a, b);
  }
  return total / static_cast<double>(max_pairs);
}

double Cmf(const AttributedGraph& g, const VertexList& community, VertexId q) {
  if (community.empty()) return 0.0;
  auto wq = g.Keywords(q);
  if (wq.empty()) return 0.0;
  double total = 0.0;
  for (VertexId v : community) {
    std::size_t hits = 0;
    for (KeywordId kw : wq) {
      if (g.HasKeyword(v, kw)) ++hits;
    }
    total += static_cast<double>(hits) / static_cast<double>(wq.size());
  }
  return total / static_cast<double>(community.size());
}

}  // namespace cexplorer
