#include "api/result_cache.h"

#include <functional>
#include <utility>

namespace cexplorer {
namespace api {

Result<CommunityAnalysis> CachedSearch::Analysis(
    std::size_t i, const Explorer& explorer) const {
  std::lock_guard<std::mutex> lock(analysis_mu_);
  if (analyses_.empty()) analyses_.resize(communities.size());
  std::optional<CommunityAnalysis>& slot = analyses_[i];
  if (!slot) {
    auto analysis = explorer.Analyze(communities[i]);
    if (!analysis.ok()) return analysis.status();
    slot = std::move(analysis).value();
  }
  return *slot;
}

ResultCache::ResultCache(std::size_t capacity, std::size_t shards,
                         std::size_t max_bytes)
    : capacity_(capacity) {
  if (shards == 0) shards = 1;
  if (shards > capacity && capacity > 0) shards = capacity;
  if (capacity > 0) {
    capacity_per_shard_ = (capacity + shards - 1) / shards;
    max_bytes_per_shard_ = max_bytes / shards;
    if (max_bytes_per_shard_ == 0) max_bytes_per_shard_ = 1;
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }
}

ResultCache::Shard& ResultCache::ShardOf(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::size_t ResultCache::PayloadBytes(const CachedSearch& value) {
  std::size_t bytes = value.body.size();
  for (const Community& community : value.communities) {
    bytes += community.method.size() +
             community.vertices.size() * sizeof(VertexId) +
             community.shared_keywords.size() * sizeof(KeywordId);
  }
  return bytes;
}

void ResultCache::EvictWhileOver(Shard* shard) {
  while (!shard->lru.empty() && (shard->lru.size() > capacity_per_shard_ ||
                                 shard->bytes > max_bytes_per_shard_)) {
    shard->bytes -= shard->lru.back().bytes;
    shard->index.erase(shard->lru.back().key);
    shard->lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

CachedSearchPtr ResultCache::Get(const std::string& key) {
  if (!enabled()) return nullptr;
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->value;
}

void ResultCache::Put(const std::string& key, CachedSearchPtr value,
                      const CacheTag& tag) {
  if (!enabled() || value == nullptr) return;
  const std::size_t bytes = PayloadBytes(*value);
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    shard.bytes += bytes;
    shard.bytes -= it->second->bytes;
    it->second->value = std::move(value);
    it->second->bytes = bytes;
    it->second->tag = tag;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    EvictWhileOver(&shard);
    return;
  }
  shard.lru.push_front({key, std::move(value), bytes, tag});
  shard.bytes += bytes;
  shard.index.emplace(key, shard.lru.begin());
  insertions_.fetch_add(1, std::memory_order_relaxed);
  EvictWhileOver(&shard);
}

void ResultCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
    shard->bytes = 0;
  }
}

std::size_t ResultCache::MigrateAcrossEpoch(
    const std::string& old_prefix, const std::string& new_prefix,
    const std::function<bool(const CacheTag&)>& keep) {
  if (!enabled()) return 0;
  // Drain every shard first (one lock at a time — re-keying moves entries
  // between shards, so in-place rewrites would need two locks at once),
  // then re-insert the survivors. A query racing the drain sees a miss and
  // re-executes; that is the same outcome a plain Clear() would give it.
  std::list<Entry> drained;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    drained.splice(drained.end(), shard->lru);
    shard->index.clear();
    shard->bytes = 0;
  }
  std::size_t kept = 0;
  for (Entry& entry : drained) {
    if (!entry.tag.valid || !keep(entry.tag)) continue;
    if (entry.key.compare(0, old_prefix.size(), old_prefix) != 0) continue;
    std::string new_key =
        new_prefix + entry.key.substr(old_prefix.size());
    Shard& shard = ShardOf(new_key);
    std::lock_guard<std::mutex> lock(shard.mu);
    // Iterating front (MRU) to back and appending keeps relative recency.
    shard.lru.push_back({std::move(new_key), std::move(entry.value),
                         entry.bytes, entry.tag});
    auto it = std::prev(shard.lru.end());
    shard.bytes += entry.bytes;
    shard.index.emplace(it->key, it);
    EvictWhileOver(&shard);
    ++kept;
  }
  reused_across_mutation_.fetch_add(kept, std::memory_order_relaxed);
  return kept;
}

ResultCache::Stats ResultCache::GetStats() const {
  Stats stats;
  // One load per counter, into locals, ordered against the update chain:
  // an eviction is always preceded by its entry's insertion, and (for the
  // query service) an insertion by a miss — so loading evictions first and
  // misses last can only under-count the earlier link of each pair, never
  // invert it. Derived values (lookups) come from the same locals, so a
  // rendered body can't show hits > lookups no matter how the loads race
  // concurrent queries.
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.insertions = insertions_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.lookups = stats.hits + stats.misses;
  stats.reused_across_mutation =
      reused_across_mutation_.load(std::memory_order_relaxed);
  stats.capacity = capacity_;
  stats.max_bytes = max_bytes_per_shard_ * shards_.size();
  stats.shards = shards_.size();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.entries += shard->lru.size();
    stats.bytes += shard->bytes;
  }
  return stats;
}

}  // namespace api
}  // namespace cexplorer
