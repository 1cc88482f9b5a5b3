// The memo behind Dec's first level: labelled keyword-set k-cores, one per
// (CL-tree node, k, effective keyword set), kept for one dataset.
//
// Dec's first level verifies S_eff, the keywords of S that pass the
// per-keyword support check in the subtree of the node LocateKCore finds
// for q. Its candidates are the vertices of that subtree carrying all of
// S_eff, and their k-core depends on the node, k and S_eff only: every
// query vertex of the same component gathers and peels the same set. The
// memo keeps that set peeled once, with its components labelled
// (PeelToLabelledKCoreSorted), so a later query vertex reads its community
// by label. k stays in the key because one compressed node serves several
// k. Entries refer to one graph's vertex ids: a memo belongs to one
// dataset, and a new dataset (upload, snapshot load, mutation publish or
// compaction) starts with an empty one.
//
// Bounded by the graph, not by an option: the memo holds at most
// kSurvivorsPerVertex survivors per graph vertex, and an insert that would
// pass that bound first drops every entry.

#ifndef CEXPLORER_ACQ_MEMO_H_
#define CEXPLORER_ACQ_MEMO_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>

#include "cltree/cltree.h"
#include "core/kcore.h"
#include "graph/types.h"

namespace cexplorer {

/// Internally synchronized; lookups share a read lock. A miss peels outside
/// any lock and the first insert of a key wins, so concurrent first callers
/// may both peel but none waits for another.
class AcqMemo {
 public:
  /// Survivors the memo may hold, per vertex of the graph.
  static constexpr std::size_t kSurvivorsPerVertex = 8;

  struct Stats {
    std::size_t entries = 0;
    std::size_t survivors = 0;  ///< summed over the entries
    std::uint64_t hits = 0;     ///< lookups that found their key
    std::uint64_t misses = 0;   ///< lookups that did not
    std::uint64_t drops = 0;    ///< times the bound emptied the memo
  };

  /// The labelled k-core memoized for the key, or null.
  std::shared_ptr<const LabelledKCore> Find(ClNodeId node, std::uint32_t k,
                                            const KeywordList& keywords);

  /// Memoizes `core` under the key unless the key is present. `num_vertices`
  /// is the graph's, and sets the bound.
  void Insert(ClNodeId node, std::uint32_t k, const KeywordList& keywords,
              std::shared_ptr<const LabelledKCore> core,
              std::size_t num_vertices);

  Stats GetStats() const;

 private:
  struct Entry {
    ClNodeId node;
    std::uint32_t k;
    KeywordList keywords;
    std::shared_ptr<const LabelledKCore> core;
  };

  /// Entries are filed by a hash of their key and hold the key itself: a
  /// lookup whose hash lands on another key is a miss, and an insert there
  /// keeps the first entry.
  mutable std::shared_mutex mu_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::size_t survivors_ = 0;
  std::uint64_t drops_ = 0;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace cexplorer

#endif  // CEXPLORER_ACQ_MEMO_H_
