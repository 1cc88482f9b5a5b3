#include "api/result_cache.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/hash64.h"

namespace cexplorer {
namespace api {

namespace {

/// The intern table is swept once it reaches this multiple of the cache
/// capacity.
constexpr std::size_t kInternSweepFactor = 2;

std::uint64_t AnswerHash(const SearchAnswer& answer) {
  std::uint64_t h = Hash64(answer.body.data(), answer.body.size());
  for (const Community& community : answer.communities) {
    const std::uint64_t size = community.vertices.size();
    h = Hash64(&size, sizeof(size), h);
  }
  return h;
}

bool SameAnswer(const SearchAnswer& a, const SearchAnswer& b) {
  return a.body == b.body &&
         std::equal(a.communities.begin(), a.communities.end(),
                    b.communities.begin(), b.communities.end(),
                    [](const Community& x, const Community& y) {
                      return x.vertices == y.vertices &&
                             x.shared_keywords == y.shared_keywords &&
                             x.method == y.method;
                    });
}

}  // namespace

Result<CommunityAnalysis> CachedSearch::Analysis(
    std::size_t i, const Explorer& explorer) const {
  std::lock_guard<std::mutex> lock(analysis_mu_);
  if (analyses_.empty()) analyses_.resize(communities().size());
  std::optional<CommunityAnalysis>& slot = analyses_[i];
  if (!slot) {
    auto analysis = explorer.Analyze(communities()[i]);
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
    intern_sweep_at_ = kInternSweepFactor * capacity;
  }
}

ResultCache::Shard& ResultCache::ShardOf(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::size_t ResultCache::PayloadBytes(const SearchAnswer& answer) {
  std::size_t bytes = answer.body.size();
  for (const Community& community : answer.communities) {
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

void ResultCache::Put(const std::string& key, CachedSearchPtr value) {
  if (!enabled() || value == nullptr) return;
  const std::size_t bytes = PayloadBytes(*value->answer);
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    shard.bytes += bytes;
    shard.bytes -= it->second->bytes;
    it->second->value = std::move(value);
    it->second->bytes = bytes;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    EvictWhileOver(&shard);
    return;
  }
  shard.lru.push_front({key, std::move(value), bytes});
  shard.bytes += bytes;
  shard.index.emplace(key, shard.lru.begin());
  insertions_.fetch_add(1, std::memory_order_relaxed);
  EvictWhileOver(&shard);
}

SearchAnswerPtr ResultCache::Intern(SearchAnswerPtr answer) {
  if (!enabled()) return answer;
  const std::uint64_t hash = AnswerHash(*answer);
  std::lock_guard<std::mutex> lock(intern_mu_);
  auto [first, last] = interned_.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    SearchAnswerPtr live = it->second.lock();
    if (live != nullptr && SameAnswer(*live, *answer)) return live;
  }
  interned_.emplace(hash, answer);
  if (interned_.size() >= intern_sweep_at_) {
    std::erase_if(interned_, [](const auto& slot) {
      return slot.second.expired();
    });
    // Doubling past the live count keeps the sweeps amortized O(1) per
    // Intern even when sessions keep more answers alive than the cache.
    intern_sweep_at_ = std::max(kInternSweepFactor * capacity_,
                                kInternSweepFactor * interned_.size());
  }
  return answer;
}

void ResultCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
    shard->bytes = 0;
  }
  std::lock_guard<std::mutex> lock(intern_mu_);
  interned_.clear();
  intern_sweep_at_ = kInternSweepFactor * capacity_;
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
