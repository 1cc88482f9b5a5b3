// Attributed graph: an undirected graph whose vertices carry a display name
// and a set of keywords, as defined in Section 3.2 of the C-Explorer paper.
//
// Keywords are interned into a vocabulary so that per-vertex keyword sets
// are small sorted arrays of integer ids — this is what the CL-tree's
// inverted lists and the ACQ verification loops operate on.
//
// Every array has one in-memory form, the one the snapshot file stores.
// Names and keyword strings are concatenated blobs with per-entry offsets
// plus a sorted id permutation, so name and keyword lookups are binary
// searches that allocate nothing proportional to the graph.
// AttributedGraphBuilder lays the arrays out; a snapshot load
// (snapshot::Access) views the same arrays in the mapped file.

#ifndef CEXPLORER_GRAPH_ATTRIBUTED_GRAPH_H_
#define CEXPLORER_GRAPH_ATTRIBUTED_GRAPH_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace cexplorer {

/// Keyword <-> id mapping of an attributed graph: the words' bytes, their
/// bounds and the ids sorted by word bytes, so Find() is a binary search.
/// The arrays belong to the enclosing AttributedGraph, which keeps them
/// alive; the builder's KeywordInterner assigns the ids.
class Vocabulary {
 public:
  Vocabulary() = default;

  /// Returns the id of `word` or kInvalidKeyword if absent.
  KeywordId Find(std::string_view word) const;

  /// The word for an id. Precondition: id < size(). The view is valid as
  /// long as the graph holding this vocabulary lives.
  std::string_view Word(KeywordId id) const {
    if (base_ != nullptr) {
      const std::size_t base_size = base_->size();
      if (id < base_size) return base_->Word(id);
      return extra_words_[id - base_size];
    }
    return {blob_.data() + offsets_[id],
            static_cast<std::size_t>(offsets_[id + 1] - offsets_[id])};
  }

  /// Number of distinct keywords.
  std::size_t size() const {
    if (base_ != nullptr) return base_->size() + extra_words_.size();
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

 private:
  friend class AttributedGraphBuilder;
  friend struct snapshot::Access;
  friend struct delta::Access;

  // Concatenated word bytes, per-word [offset, offset) bounds (size()+1
  // entries) and keyword ids sorted by word bytes for Find().
  std::span<const char> blob_;
  std::span<const std::uint64_t> offsets_;
  std::span<const KeywordId> order_;

  // Delta-overlay mode (delta::Access): ids below the base vocabulary's
  // size resolve there, appended tail words follow. Interning stays
  // append-only in first-occurrence order, so ids agree with a from-scratch
  // rebuild of the mutated graph. The overlay graph's owner keeps base_
  // and the extra-word storage alive.
  const Vocabulary* base_ = nullptr;
  std::span<const std::string> extra_words_;
  const std::unordered_map<std::string, KeywordId>* extra_index_ = nullptr;
};

/// Assigns keyword ids in first-occurrence order while a graph is built
/// (AttributedGraphBuilder::mutable_vocabulary). Build lays the interned
/// words out as the graph's Vocabulary.
class KeywordInterner {
 public:
  /// Returns the id of `word`, interning it if new.
  KeywordId Intern(std::string_view word);

 private:
  friend class AttributedGraphBuilder;

  std::vector<std::string> words_;
  std::unordered_map<std::string, KeywordId> index_;
};

/// Immutable attributed graph G(V, E) with W(v) keyword sets and names.
/// Construct through AttributedGraphBuilder or graph/io.h loaders.
class AttributedGraph {
 public:
  AttributedGraph() = default;

  /// The underlying topology.
  const Graph& graph() const { return graph_; }

  /// Number of vertices (same as graph().num_vertices()).
  std::size_t num_vertices() const { return graph_.num_vertices(); }

  /// The keyword vocabulary.
  const Vocabulary& vocabulary() const { return vocab_; }

  /// W(v): sorted keyword ids of vertex v.
  std::span<const KeywordId> Keywords(VertexId v) const {
    if (delta_base_ != nullptr) {
      if (v < delta_base_n_) return delta_base_->Keywords(v);
      const std::size_t t = v - delta_base_n_;
      return {tail_kw_data_.data() + tail_kw_offsets_[t],
              tail_kw_offsets_[t + 1] - tail_kw_offsets_[t]};
    }
    return {keyword_data_.data() + keyword_offsets_[v],
            keyword_offsets_[v + 1] - keyword_offsets_[v]};
  }

  /// True iff keyword `kw` is in W(v) (binary search).
  bool HasKeyword(VertexId v, KeywordId kw) const;

  /// True iff every keyword in the sorted list `kws` is in W(v).
  bool HasAllKeywords(VertexId v, std::span<const KeywordId> kws) const;

  /// 64-bit bloom fingerprint of W(v) (simd::BloomFingerprint). A scan can
  /// reject most non-matching vertices with one AND before falling back to
  /// the exact HasAllKeywords test; matches are never rejected.
  std::uint64_t KeywordFingerprint(VertexId v) const {
    if (delta_base_ != nullptr) {
      if (v < delta_base_n_) return delta_base_->KeywordFingerprint(v);
      return tail_kw_fp_[v - delta_base_n_];
    }
    return keyword_fp_[v];
  }

  /// Display name of vertex v (may be empty when unnamed). The view is
  /// valid as long as this graph, or a copy of it, lives.
  std::string_view Name(VertexId v) const {
    if (delta_base_ != nullptr) {
      if (v < delta_base_n_) return delta_base_->Name(v);
      return tail_names_[v - delta_base_n_];
    }
    return {name_blob_.data() + name_offsets_[v],
            static_cast<std::size_t>(name_offsets_[v + 1] - name_offsets_[v])};
  }

  /// Finds a vertex by exact name (case-insensitive); kInvalidVertex if
  /// absent. Ambiguous names resolve to the lowest vertex id.
  VertexId FindByName(std::string_view name) const;

  /// Keyword ids of `v` rendered back to strings (for display).
  std::vector<std::string> KeywordStrings(VertexId v) const;

  /// Total number of (vertex, keyword) pairs.
  std::size_t TotalKeywordCount() const {
    if (delta_base_ != nullptr) {
      return delta_base_->TotalKeywordCount() + tail_kw_data_.size();
    }
    return keyword_data_.size();
  }

 private:
  friend class AttributedGraphBuilder;
  friend struct snapshot::Access;
  friend struct delta::Access;

  Graph graph_;
  Vocabulary vocab_;

  // Keeps the arrays below and vocab_'s alive: the builder's vectors, the
  // mapped snapshot, or a delta overlay's storage. Copying the graph
  // shares them.
  std::shared_ptr<const void> owner_;
  std::span<const std::uint64_t> keyword_offsets_;  // size n+1
  std::span<const KeywordId> keyword_data_;         // sorted per vertex
  std::span<const std::uint64_t> keyword_fp_;  // bloom fingerprint per vertex

  // Names: concatenated bytes, per-vertex bounds (n+1), and the ids of
  // non-empty-named vertices sorted by (lower-cased name, id), so
  // FindByName is a case-insensitive binary search in which the lowest id
  // wins a tie.
  std::span<const char> name_blob_;
  std::span<const std::uint64_t> name_offsets_;
  std::span<const VertexId> name_order_;

  // Delta-overlay mode (delta::Access): attributes of vertices below
  // delta_base_n_ delegate to the base graph, while appended tail vertices
  // read the tail arrays; graph_ carries the patched topology for every
  // vertex. owner_ then holds the overlay's storage, which also keeps the
  // base dataset (and so delta_base_) alive.
  const AttributedGraph* delta_base_ = nullptr;
  std::size_t delta_base_n_ = 0;
  std::span<const std::uint64_t> tail_kw_offsets_;  // tail count + 1
  std::span<const KeywordId> tail_kw_data_;
  std::span<const std::uint64_t> tail_kw_fp_;
  std::span<const std::string> tail_names_;
  /// Lower-cased tail name -> id, consulted only when the base misses
  /// (first-insertion-wins, matching a from-scratch rebuild).
  const std::unordered_map<std::string, VertexId>* tail_name_lookup_ = nullptr;
};

/// Builder: declare vertices (name + keywords), add edges, Build().
class AttributedGraphBuilder {
 public:
  AttributedGraphBuilder() = default;

  /// Appends a vertex; returns its id. Keywords may repeat (deduped).
  VertexId AddVertex(std::string name,
                     const std::vector<std::string>& keywords);

  /// Appends an unnamed vertex with pre-interned keyword ids.
  VertexId AddVertexWithIds(std::string name, std::vector<KeywordId> keywords);

  /// Records the undirected edge {u, v}. Vertices must already exist.
  Status AddEdge(VertexId u, VertexId v);

  /// The keyword interner (e.g. to pre-intern a topic list).
  KeywordInterner* mutable_vocabulary() { return &vocab_; }

  /// Number of vertices added so far.
  std::size_t num_vertices() const { return name_offsets_.size() - 1; }

  /// Builds the attributed graph; the builder is left empty.
  AttributedGraph Build();

 private:
  KeywordInterner vocab_;
  // Names and keyword rows, appended per vertex in the graph's layout.
  std::string name_blob_;
  std::vector<std::uint64_t> name_offsets_{0};
  std::vector<std::uint64_t> keyword_offsets_{0};
  std::vector<KeywordId> keyword_data_;
  GraphBuilder edges_;
};

}  // namespace cexplorer

#endif  // CEXPLORER_GRAPH_ATTRIBUTED_GRAPH_H_
