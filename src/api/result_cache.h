// The snapshot-keyed query result cache of the QueryService.
//
// Identical searches are frequent in an interactive browsing system: many
// sessions start from the same renowned author (the paper's Jim Gray demo),
// dashboards re-poll the same query, and /batch fan-outs repeat entries.
// The cache stores the complete outcome of a search — the communities plus
// the rendered JSON body — keyed by
//
//   graph epoch | algorithm | canonicalized query (k, name, vertices,
//   sorted+deduped keywords)
//
// so a repeated query skips algorithm execution AND response rendering.
// The entry also memoizes each community's analysis on its first
// /community click, so every later click on it is a lookup.
// Carrying the graph epoch in the key is the invalidation rule: an /upload,
// a snapshot load or a mutation publish bumps the epoch and every old entry
// simply stops matching (the service additionally clears the cache on every
// epoch change so dead entries do not occupy capacity). A compaction keeps
// the epoch, and the cache stays warm — exactly like the session-level
// caches.
//
// Many different queries reach the same answer (every search that falls
// back to one k-core component renders the same members, size and theme),
// so an entry holds its answer — communities plus body — as a shared
// immutable SearchAnswer: Intern hands every identical answer the one copy
// already alive. The analysis memo stays per entry. Each entry is still
// charged its full answer against the byte budget, so eviction order and
// hit ratios do not depend on sharing, and the real footprint can only be
// smaller than the charged one.
//
// Concurrency: the LRU is sharded by key hash; each shard serializes its
// own map + recency list behind one mutex held only for the lookup/insert
// itself. Values are shared_ptr<const CachedSearch>, so a hit handed to a
// session stays valid even if the entry is evicted a microsecond later.
// The intern table has a mutex of its own, taken once per rendered answer.
// Hit/miss/insert/evict counters are process-cheap relaxed atomics,
// surfaced on GET /v1/stats.

#ifndef CEXPLORER_API_RESULT_CACHE_H_
#define CEXPLORER_API_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "explorer/community.h"
#include "explorer/explorer.h"

namespace cexplorer {
namespace api {

/// One search answer: the communities and the rendered response `body`,
/// byte-identical to what execution would have produced. The body holds
/// only the answer (algorithm, members, sizes, themes), not the query, so
/// every query that reaches the same communities renders the same bytes.
/// Immutable once built, so entries may share it (ResultCache::Intern).
struct SearchAnswer {
  std::vector<Community> communities;
  std::string body;
};

using SearchAnswerPtr = std::shared_ptr<const SearchAnswer>;

/// One search outcome, shared by the result cache and by every session
/// whose last search ran or hit it: it is that session's browser cache (so
/// /community, /export and /explore behave as if the search had run). A
/// search of an uncacheable algorithm gets one too; it is simply never Put.
struct CachedSearch {
  /// Never null.
  explicit CachedSearch(SearchAnswerPtr shared_answer)
      : answer(std::move(shared_answer)) {}

  const SearchAnswerPtr answer;

  const std::vector<Community>& communities() const {
    return answer->communities;
  }
  const std::string& body() const { return answer->body; }

  /// Explorer::Analyze of communities()[i] (no query vertex), computed on
  /// the first call for `i` and returned from this entry on every later
  /// call, from any session. Concurrent first callers wait for the one fill. The
  /// analysis depends only on the members, their induced edges and their
  /// keyword rows, all fixed by the graph epoch in the entry's key, so it
  /// holds for the entry's whole life: an epoch change clears the cache.
  /// The memo belongs to this entry alone, even when its answer is shared.
  /// Precondition: i < communities().size().
  Result<CommunityAnalysis> Analysis(std::size_t i,
                                     const Explorer& explorer) const;

 private:
  mutable std::mutex analysis_mu_;
  /// One slot per community, sized on the first fill.
  mutable std::vector<std::optional<CommunityAnalysis>> analyses_;
};

using CachedSearchPtr = std::shared_ptr<const CachedSearch>;

/// Sharded LRU over rendered search results. Thread-safe.
class ResultCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 512;
  static constexpr std::size_t kDefaultShards = 8;
  /// Default byte budget across all shards. Bounds the memory a cache full
  /// of huge communities (a Global k-core over most of a big graph) can
  /// pin: the LRU evicts by bytes as well as by entry count.
  static constexpr std::size_t kDefaultMaxBytes = 64u << 20;  // 64 MiB

  /// Aggregate counters and sizing, as reported by /v1/stats. GetStats
  /// snapshots every counter exactly once, ordered against the update
  /// paths, so one Stats value is internally consistent: hits + misses ==
  /// lookups, evictions <= insertions <= misses — even while lookups race
  /// the render.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t lookups = 0;  ///< hits + misses, from the same snapshot
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    /// Always 0: nothing writes it; read by e2ebench/e2e.cc:772.
    std::uint64_t reused_across_mutation = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;
    std::size_t capacity = 0;
    std::size_t max_bytes = 0;
    std::size_t shards = 0;
  };

  /// `capacity` bounds the total entry count (0 disables the cache);
  /// `shards` spreads lock contention and is clamped to >= 1; `max_bytes`
  /// bounds the approximate total payload size (body + communities).
  explicit ResultCache(std::size_t capacity = kDefaultCapacity,
                       std::size_t shards = kDefaultShards,
                       std::size_t max_bytes = kDefaultMaxBytes);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// True when the cache can hold entries at all.
  bool enabled() const { return capacity_ > 0; }

  /// Looks `key` up, refreshing its recency. Counts a hit or a miss.
  CachedSearchPtr Get(const std::string& key);

  /// Inserts (or refreshes) `key`, evicting the shard's least recently
  /// used entry when the shard is at capacity. No-op when disabled. The
  /// entry is charged its answer's full size, shared or not.
  void Put(const std::string& key, CachedSearchPtr value);

  /// The live answer equal to `answer` (same communities, same body), or
  /// `answer` itself, which then becomes the one later equal answers get.
  /// Answers are held weakly, so interning never keeps one alive. Returns
  /// `answer` unchanged when the cache is disabled.
  SearchAnswerPtr Intern(SearchAnswerPtr answer);

  /// Drops every entry (graph swap) and forgets every interned answer;
  /// counters are kept.
  void Clear();

  Stats GetStats() const;

 private:
  struct Entry {
    std::string key;
    CachedSearchPtr value;
    std::size_t bytes = 0;
  };

  struct Shard {
    std::mutex mu;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    std::size_t bytes = 0;
  };

  Shard& ShardOf(const std::string& key);

  /// Approximate payload footprint of one answer.
  static std::size_t PayloadBytes(const SearchAnswer& answer);

  /// Drops LRU entries until the shard respects both budgets. Requires
  /// shard.mu held.
  void EvictWhileOver(Shard* shard);

  std::size_t capacity_ = 0;
  std::size_t capacity_per_shard_ = 0;
  std::size_t max_bytes_per_shard_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Interned answers by a hash of the body and the community sizes;
  /// Intern sweeps the expired ones once the table reaches
  /// `intern_sweep_at_` entries.
  std::mutex intern_mu_;
  std::unordered_multimap<std::uint64_t, std::weak_ptr<const SearchAnswer>>
      interned_;
  std::size_t intern_sweep_at_ = 0;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace api
}  // namespace cexplorer

#endif  // CEXPLORER_API_RESULT_CACHE_H_
