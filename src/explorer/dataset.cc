#include "explorer/dataset.h"

#include <atomic>
#include <mutex>
#include <utility>

#include "common/rng.h"
#include "core/kcore.h"
#include "graph/io.h"
#include "snapshot/snapshot.h"

namespace cexplorer {

namespace {

/// Monotonic snapshot ids, process-wide. Starts at 1 so 0 can serve as a
/// "no dataset" tag in session caches.
std::atomic<std::uint64_t> g_next_dataset_id{1};

/// CL-tree constructions performed by this process.
std::atomic<std::uint64_t> g_index_builds{0};

}  // namespace

PostingFormat Dataset::DefaultPostingFormat() { return PostingFormat::kRaw; }

std::uint64_t Dataset::NextId() {
  return g_next_dataset_id.fetch_add(1, std::memory_order_relaxed);
}

Result<DatasetPtr> Dataset::Build(AttributedGraph graph) {
  auto dataset = std::shared_ptr<Dataset>(new Dataset());
  dataset->graph_ = std::move(graph);
  // The expensive offline step, on the calling thread: one core
  // decomposition, whose result the CL-tree build reuses.
  auto cores = std::make_shared<const std::vector<std::uint32_t>>(
      CoreDecomposition(dataset->graph_.graph()));
  dataset->core_span_ = *cores;
  dataset->backing_ = std::move(cores);
  dataset->index_ = ClTree::Build(dataset->graph_, dataset->core_span_,
                                  ClTreeBuildMethod::kAdvanced);
  g_index_builds.fetch_add(1, std::memory_order_relaxed);
  dataset->id_ = g_next_dataset_id.fetch_add(1, std::memory_order_relaxed);
  dataset->graph_epoch_ = dataset->id_;  // a fresh graph is a fresh epoch
  return DatasetPtr(std::move(dataset));
}

Result<DatasetPtr> Dataset::FromFile(const std::string& file_path) {
  auto graph = LoadAttributed(file_path);
  if (!graph.ok()) return graph.status();
  return Build(std::move(graph.value()));
}

Result<DatasetPtr> Dataset::FromSnapshotFile(const std::string& path) {
  auto loaded = snapshot::LoadSnapshot(path);
  if (!loaded.ok()) return loaded.status();
  auto dataset = std::shared_ptr<Dataset>(new Dataset());
  dataset->graph_ = std::move(loaded.value().graph);
  dataset->core_span_ = loaded.value().core_numbers;
  dataset->backing_ = std::move(loaded.value().mapping);
  dataset->index_ = std::move(loaded.value().tree);
  dataset->storage_.mode = "mmap";
  dataset->storage_.file_bytes = loaded.value().info.file_bytes;
  dataset->storage_.checksum = loaded.value().info.checksum;
  // No index build happened: the tree came off disk. A snapshot load is a
  // graph change from the serving process's point of view, so it gets a
  // fresh epoch (session caches for the previous graph must not apply).
  dataset->id_ = g_next_dataset_id.fetch_add(1, std::memory_order_relaxed);
  dataset->graph_epoch_ = dataset->id_;
  return DatasetPtr(std::move(dataset));
}

Status Dataset::SaveSnapshot(const std::string& path) const {
  if (overlay_) {
    // The snapshot writer reads the raw base CSR/attribute arrays and
    // would silently drop every overlay patch; callers must fold the
    // overlay into an owned dataset first (QueryService::SnapshotSave
    // does this automatically).
    return Status::InvalidArgument(
        "dataset carries uncompacted mutations; compact before saving");
  }
  return snapshot::WriteSnapshot(graph_, core_span_, index_, path);
}

ExplorerContext Dataset::Context() const {
  ExplorerContext ctx;
  ctx.graph = &graph_;
  ctx.index = &index_;
  ctx.core_numbers = core_span_;
  ctx.graph_epoch = graph_epoch_;
  return ctx;
}

Result<AuthorProfile> Dataset::Profile(VertexId v) const {
  if (v >= graph_.num_vertices()) {
    return Status::InvalidArgument("vertex out of range");
  }
  {
    // Warm lookups — the common case under load — share the lock.
    std::shared_lock<std::shared_mutex> lock(profiles_mu_);
    auto it = profiles_.find(v);
    if (it != profiles_.end()) return it->second;
  }
  // Generate outside any lock so cold-cache misses on distinct vertices
  // don't serialize across sessions. Deterministic per vertex (the rng is
  // seeded with the id), so a racing loser adopting the winner's entry is
  // indistinguishable from its own.
  Rng rng(0x9e3779b97f4a7c15ULL ^ v);
  AuthorProfile profile =
      MakeProfile(std::string(graph_.Name(v)), graph_.KeywordStrings(v),
                  &rng);
  std::unique_lock<std::shared_mutex> lock(profiles_mu_);
  return profiles_.emplace(v, std::move(profile)).first->second;
}

std::uint64_t Dataset::TotalIndexBuilds() {
  return g_index_builds.load(std::memory_order_relaxed);
}

}  // namespace cexplorer
