#include "acq/memo.h"

#include <mutex>
#include <utility>

#include "common/hash64.h"

namespace cexplorer {

namespace {

std::uint64_t KeyHash(ClNodeId node, std::uint32_t k,
                      const KeywordList& keywords) {
  return Hash64(keywords.data(), keywords.size() * sizeof(KeywordId),
                (std::uint64_t{node} << 32) | k);
}

}  // namespace

std::shared_ptr<const LabelledKCore> AcqMemo::Find(
    ClNodeId node, std::uint32_t k, const KeywordList& keywords) {
  const std::uint64_t hash = KeyHash(node, k, keywords);
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    const auto it = entries_.find(hash);
    if (it != entries_.end() && it->second.node == node &&
        it->second.k == k && it->second.keywords == keywords) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second.core;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void AcqMemo::Insert(ClNodeId node, std::uint32_t k,
                     const KeywordList& keywords,
                     std::shared_ptr<const LabelledKCore> core,
                     std::size_t num_vertices) {
  const std::uint64_t hash = KeyHash(node, k, keywords);
  const std::size_t size = core->vertices.size();
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (entries_.contains(hash)) return;
  if (survivors_ + size > kSurvivorsPerVertex * num_vertices) {
    entries_.clear();
    survivors_ = 0;
    ++drops_;
  }
  entries_.emplace(hash, Entry{node, k, keywords, std::move(core)});
  survivors_ += size;
}

AcqMemo::Stats AcqMemo::GetStats() const {
  Stats stats;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    stats.entries = entries_.size();
    stats.survivors = survivors_;
    stats.drops = drops_;
  }
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace cexplorer
