#include "graph/attributed_graph.h"

#include <algorithm>
#include <cctype>
#include <numeric>

#include "common/simd/simd.h"
#include "common/strings.h"

namespace cexplorer {

namespace {

/// Three-way compare of tolower(a) against the already-lower-cased `b`,
/// byte-wise — the lazy form of ToLower(a) <=> b that the name lookup uses
/// so a binary-search probe never allocates.
int CompareLoweredTo(std::string_view a, std::string_view b_lower) {
  const std::size_t n = std::min(a.size(), b_lower.size());
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned char ca = static_cast<unsigned char>(
        std::tolower(static_cast<unsigned char>(a[i])));
    const unsigned char cb = static_cast<unsigned char>(b_lower[i]);
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (a.size() == b_lower.size()) return 0;
  return a.size() < b_lower.size() ? -1 : 1;
}

}  // namespace

KeywordId KeywordInterner::Intern(std::string_view word) {
  auto it = index_.find(std::string(word));
  if (it != index_.end()) return it->second;
  KeywordId id = static_cast<KeywordId>(words_.size());
  words_.emplace_back(word);
  index_.emplace(words_.back(), id);
  return id;
}

KeywordId Vocabulary::Find(std::string_view word) const {
  if (base_ != nullptr) {
    const KeywordId id = base_->Find(word);
    if (id != kInvalidKeyword) return id;
    auto it = extra_index_->find(std::string(word));
    if (it == extra_index_->end()) return kInvalidKeyword;
    return it->second;
  }
  // order_ sorts ids by exact word bytes; probe with plain comparisons.
  auto it = std::lower_bound(order_.begin(), order_.end(), word,
                             [this](KeywordId id, std::string_view w) {
                               return Word(id) < w;
                             });
  if (it == order_.end() || Word(*it) != word) return kInvalidKeyword;
  return *it;
}

bool AttributedGraph::HasKeyword(VertexId v, KeywordId kw) const {
  auto kws = Keywords(v);
  return std::binary_search(kws.begin(), kws.end(), kw);
}

bool AttributedGraph::HasAllKeywords(VertexId v,
                                     std::span<const KeywordId> kws) const {
  auto mine = Keywords(v);
  // Merge-style subset test over two sorted ranges.
  std::size_t i = 0;
  for (KeywordId want : kws) {
    while (i < mine.size() && mine[i] < want) ++i;
    if (i >= mine.size() || mine[i] != want) return false;
  }
  return true;
}

VertexId AttributedGraph::FindByName(std::string_view name) const {
  if (delta_base_ != nullptr) {
    // Base vertices carry lower ids than any tail vertex, so resolving
    // against the base first preserves the lowest-id-wins tie-break of a
    // from-scratch rebuild.
    const VertexId hit = delta_base_->FindByName(name);
    if (hit != kInvalidVertex) return hit;
    auto it = tail_name_lookup_->find(ToLower(name));
    if (it == tail_name_lookup_->end()) return kInvalidVertex;
    return it->second;
  }
  const std::string lower = ToLower(name);
  // name_order_ is sorted by (lower-cased name, id), so the first entry
  // whose lowered name equals the query is the lowest matching id. Unnamed
  // vertices are not in it, so "" finds nothing.
  auto it = std::lower_bound(name_order_.begin(), name_order_.end(), lower,
                             [this](VertexId v, const std::string& target) {
                               return CompareLoweredTo(Name(v), target) < 0;
                             });
  if (it == name_order_.end() || CompareLoweredTo(Name(*it), lower) != 0) {
    return kInvalidVertex;
  }
  return *it;
}

std::vector<std::string> AttributedGraph::KeywordStrings(VertexId v) const {
  std::vector<std::string> out;
  for (KeywordId kw : Keywords(v)) out.emplace_back(vocab_.Word(kw));
  return out;
}

VertexId AttributedGraphBuilder::AddVertex(
    std::string name, const std::vector<std::string>& keywords) {
  std::vector<KeywordId> ids;
  ids.reserve(keywords.size());
  for (const auto& w : keywords) ids.push_back(vocab_.Intern(w));
  return AddVertexWithIds(std::move(name), std::move(ids));
}

VertexId AttributedGraphBuilder::AddVertexWithIds(
    std::string name, std::vector<KeywordId> keywords) {
  std::sort(keywords.begin(), keywords.end());
  keywords.erase(std::unique(keywords.begin(), keywords.end()),
                 keywords.end());
  const VertexId id = static_cast<VertexId>(num_vertices());
  name_blob_.append(name);
  name_offsets_.push_back(name_blob_.size());
  keyword_data_.insert(keyword_data_.end(), keywords.begin(), keywords.end());
  keyword_offsets_.push_back(keyword_data_.size());
  return id;
}

Status AttributedGraphBuilder::AddEdge(VertexId u, VertexId v) {
  if (u >= num_vertices() || v >= num_vertices()) {
    return Status::InvalidArgument("edge endpoint does not exist");
  }
  edges_.AddEdge(u, v);
  return Status::Ok();
}

AttributedGraph AttributedGraphBuilder::Build() {
  // Every array the graph serves, moved here from the builder or filled in
  // place, so the graph's spans point at the only copy.
  struct Arrays {
    std::vector<std::uint64_t> keyword_offsets;
    std::vector<KeywordId> keyword_data;
    std::vector<std::uint64_t> keyword_fp;
    std::string name_blob;
    std::vector<std::uint64_t> name_offsets;
    std::vector<VertexId> name_order;
    std::string vocab_blob;
    std::vector<std::uint64_t> vocab_offsets{0};
    std::vector<KeywordId> vocab_order;
  };
  auto a = std::make_shared<Arrays>();
  a->keyword_offsets = std::move(keyword_offsets_);
  a->keyword_data = std::move(keyword_data_);
  a->name_blob = std::move(name_blob_);
  a->name_offsets = std::move(name_offsets_);
  const std::size_t n = a->name_offsets.size() - 1;

  AttributedGraph g;
  edges_.EnsureVertices(n);
  g.graph_ = edges_.Build();
  g.keyword_offsets_ = a->keyword_offsets;
  g.keyword_data_ = a->keyword_data;
  a->keyword_fp.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    a->keyword_fp[v] = simd::BloomFingerprint(g.Keywords(v));
  }
  g.keyword_fp_ = a->keyword_fp;

  // Sorting a lower-cased copy of the blob by plain byte comparison gives
  // the order of comparing tolower() bytes as unsigned values, which is
  // what FindByName's CompareLoweredTo probes.
  const std::string lower = ToLower(a->name_blob);
  const auto lowered = [&](VertexId v) {
    return std::string_view(lower).substr(
        a->name_offsets[v], a->name_offsets[v + 1] - a->name_offsets[v]);
  };
  for (VertexId v = 0; v < n; ++v) {
    if (a->name_offsets[v + 1] != a->name_offsets[v]) {
      a->name_order.push_back(v);
    }
  }
  std::sort(a->name_order.begin(), a->name_order.end(),
            [&lowered](VertexId x, VertexId y) {
              const int c = lowered(x).compare(lowered(y));
              return c != 0 ? c < 0 : x < y;
            });
  g.name_blob_ = a->name_blob;
  g.name_offsets_ = a->name_offsets;
  g.name_order_ = a->name_order;

  // Words in id order, and the ids sorted by word bytes for Find().
  const std::vector<std::string>& words = vocab_.words_;
  for (const std::string& word : words) {
    a->vocab_blob.append(word);
    a->vocab_offsets.push_back(a->vocab_blob.size());
  }
  a->vocab_order.resize(words.size());
  std::iota(a->vocab_order.begin(), a->vocab_order.end(), KeywordId{0});
  std::sort(a->vocab_order.begin(), a->vocab_order.end(),
            [&words](KeywordId x, KeywordId y) { return words[x] < words[y]; });
  g.vocab_.blob_ = a->vocab_blob;
  g.vocab_.offsets_ = a->vocab_offsets;
  g.vocab_.order_ = a->vocab_order;
  g.owner_ = std::move(a);

  *this = AttributedGraphBuilder();
  return g;
}

}  // namespace cexplorer
