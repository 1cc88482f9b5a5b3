// ACQ: attributed community queries (Problem 1 of the C-Explorer paper).
//
// Given an attributed graph G, a query vertex q, a minimum degree k and a
// keyword set S subseteq W(q), an ACQ answer is the set of communities Gq
// such that
//   * Gq is connected and contains q,
//   * every vertex of Gq has degree >= k within Gq,
//   * the set of keywords from S shared by ALL vertices of Gq is of maximal
//     size among all subgraphs satisfying the first two properties.
// One community (the maximal connected qualifying subgraph) is returned per
// maximal shared-keyword set; when no non-empty keyword set qualifies, the
// connected k-core component of q is returned with an empty shared set.
//
// Qualification is anti-monotone in the keyword set (adding keywords only
// removes vertices), which yields the paper's three index-based algorithms:
// Inc-S and Inc-T ascend the subset lattice Apriori-style (Inc-T batching
// verification through the CL-tree inverted lists), while Dec — the system
// default — descends from the largest support-feasible set. All three are
// exact and are property-tested against the brute-force oracle.

#ifndef CEXPLORER_ACQ_ACQ_H_
#define CEXPLORER_ACQ_ACQ_H_

#include <string>
#include <string_view>
#include <vector>

#include "cltree/cltree.h"
#include "common/cancel.h"
#include "common/status.h"
#include "graph/attributed_graph.h"
#include "graph/types.h"

namespace cexplorer {

class ThreadPool;

/// Which ACQ query algorithm to run.
enum class AcqAlgorithm {
  kBruteForce,  ///< exhaustive subset enumeration, no index (test oracle)
  kIncS,        ///< incremental ascent, per-candidate scan verification
  kIncT,        ///< incremental ascent, batched CL-tree verification
  kDec,         ///< decremental descent (the system default; usually fastest)
};

/// Human-readable algorithm name ("Dec", "Inc-S", ...).
const char* AcqAlgorithmName(AcqAlgorithm algo);

/// One attributed community: its members and the keywords of S shared by
/// every member (L(Gq, S)).
struct AttributedCommunity {
  VertexList vertices;
  KeywordList shared_keywords;

  friend bool operator==(const AttributedCommunity&,
                         const AttributedCommunity&) = default;
};

/// Work counters for benchmarking the query algorithms. Purely additive,
/// so the counters of several queries merge into one total.
struct AcqStats {
  std::size_t candidates_generated = 0;  ///< keyword sets considered
  std::size_t candidates_verified = 0;   ///< peel computations performed
  std::size_t support_pruned = 0;        ///< sets rejected before peeling

  /// Accumulates another query's counters into this one.
  void Merge(const AcqStats& other) {
    candidates_generated += other.candidates_generated;
    candidates_verified += other.candidates_verified;
    support_pruned += other.support_pruned;
  }
};

/// The answer to one ACQ query. Communities are sorted by shared keyword
/// set; all carry shared sets of the same (maximal) size.
struct AcqResult {
  std::vector<AttributedCommunity> communities;
  AcqStats stats;
};

/// L(Gq, S): the keywords of `keyword_space` carried by every member of
/// `community`. The shared-keyword sets reported in AcqResult satisfy
/// shared_keywords == SharedKeywords(g, vertices, S).
KeywordList SharedKeywords(const AttributedGraph& g,
                           const VertexList& community,
                           const KeywordList& keyword_space);

/// ACQ query engine bound to a graph and its CL-tree index.
/// Both must outlive the engine.
///
/// A query runs on the calling thread. The engine itself holds no mutable
/// state, so one engine may serve concurrent callers.
class AcqEngine {
 public:
  /// The trailing pool is ignored; it stays only for the benchmark
  /// harness's call (e2ebench/e2e.cc:596).
  AcqEngine(const AttributedGraph* graph, const ClTree* index,
            ThreadPool* = nullptr)
      : g_(graph), index_(index) {}

  /// Runs an ACQ query. With a `control`, the lattice walk checkpoints at
  /// every level and the query aborts with kCancelled / kDeadlineExceeded.
  ///
  /// Errors: InvalidArgument if q is out of range or S is not a subset of
  /// W(q). A structurally impossible query (core(q) < k) is not an error:
  /// it returns an empty community list.
  Result<AcqResult> Search(VertexId q, std::uint32_t k, KeywordList keywords,
                           AcqAlgorithm algo = AcqAlgorithm::kDec,
                           const ExecControl* control = nullptr) const;

  /// Convenience overload resolving a vertex name and keyword strings.
  Result<AcqResult> SearchByName(
      std::string_view name, std::uint32_t k,
      const std::vector<std::string>& keywords,
      AcqAlgorithm algo = AcqAlgorithm::kDec) const;

  /// Multi-vertex variant (Section 3.2): the communities must contain every
  /// vertex of Q. S must be shared by all query vertices.
  Result<AcqResult> SearchMulti(const VertexList& query_vertices,
                                std::uint32_t k, KeywordList keywords,
                                AcqAlgorithm algo = AcqAlgorithm::kDec,
                                const ExecControl* control = nullptr) const;

  const AttributedGraph& graph() const { return *g_; }
  const ClTree& index() const { return *index_; }

 private:
  const AttributedGraph* g_;
  const ClTree* index_;
};

}  // namespace cexplorer

#endif  // CEXPLORER_ACQ_ACQ_H_
