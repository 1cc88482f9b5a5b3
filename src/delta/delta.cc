#include "delta/delta.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>

#include "cltree/cltree.h"
#include "common/simd/simd.h"
#include "common/strings.h"
#include "graph/attributed_graph.h"
#include "graph/graph.h"

namespace cexplorer {
namespace delta {

/// Owns every array an overlay graph's spans point into: the patch CSR,
/// the appended-vertex attribute tail, the vocabulary extension, the
/// maintained core numbers, and the base dataset itself (which keeps the
/// base CSR/attribute arrays, built or mapped, alive). The overlay graph
/// and its dataset both hold it.
struct OverlaySnapshot {
  DatasetPtr base;

  std::vector<std::uint32_t> patch_slot;     // per-vertex, kNoPatchSlot or slot
  std::vector<std::uint64_t> patch_offsets;  // slots + 1
  std::vector<VertexId> patch_adjacency;

  std::vector<std::string> extra_words;
  std::unordered_map<std::string, KeywordId> extra_index;

  std::vector<std::uint64_t> tail_kw_offsets;  // tail count + 1
  std::vector<KeywordId> tail_kw_data;
  std::vector<std::uint64_t> tail_kw_fp;
  std::vector<std::string> tail_names;
  std::unordered_map<std::string, VertexId> tail_name_index;

  std::vector<std::uint32_t> cores;
};

/// The one place allowed to reach into Graph / Vocabulary /
/// AttributedGraph / Dataset privates to assemble overlay views and to
/// mint datasets outside the factory functions.
struct Access {
  /// The overlay graph: the base arrays plus `snap`'s patch and tail
  /// storage, which the graph keeps alive. `snap` must already hold its
  /// final vectors (no further reallocation).
  static AttributedGraph OverlayGraph(
      std::shared_ptr<const OverlaySnapshot> snap, std::uint64_t num_edges) {
    const AttributedGraph& base = snap->base->graph();
    AttributedGraph ag;

    Graph& g = ag.graph_;
    g = base.graph();  // shares the base CSR
    g.patch_slot_ = snap->patch_slot;
    g.patch_offsets_ = snap->patch_offsets;
    g.patch_adjacency_ = snap->patch_adjacency;
    g.patch_num_edges_ = num_edges;

    Vocabulary& vocab = ag.vocab_;
    vocab.base_ = &base.vocabulary();
    vocab.extra_words_ = snap->extra_words;
    vocab.extra_index_ = &snap->extra_index;

    ag.delta_base_ = &base;
    ag.delta_base_n_ = base.num_vertices();
    ag.tail_kw_offsets_ = snap->tail_kw_offsets;
    ag.tail_kw_data_ = snap->tail_kw_data;
    ag.tail_kw_fp_ = snap->tail_kw_fp;
    ag.tail_names_ = snap->tail_names;
    ag.tail_name_lookup_ = &snap->tail_name_index;
    ag.owner_ = std::move(snap);
    return ag;
  }

  /// An overlay dataset serving `graph`, the OverlayGraph of `snap`. Fresh
  /// id, fresh graph epoch (the graph changed); storage mode "overlay";
  /// SaveSnapshot refuses it.
  static DatasetPtr MakeOverlayDataset(
      std::shared_ptr<const OverlaySnapshot> snap, AttributedGraph graph,
      ClTree index) {
    auto dataset = std::shared_ptr<Dataset>(new Dataset());
    dataset->graph_ = std::move(graph);
    dataset->core_span_ = snap->cores;
    dataset->index_ = std::move(index);
    dataset->storage_.mode = "overlay";
    dataset->overlay_ = true;
    dataset->id_ = Dataset::NextId();
    dataset->graph_epoch_ = dataset->id_;
    dataset->backing_ = std::move(snap);
    return dataset;
  }

  /// Recovers the snapshot bundle behind an overlay dataset (every overlay
  /// dataset in the process is minted by MakeOverlayDataset, so its
  /// backing_ is an OverlaySnapshot). Precondition: d->is_overlay().
  static std::shared_ptr<const OverlaySnapshot> SnapshotOf(
      const DatasetPtr& d) {
    return std::static_pointer_cast<const OverlaySnapshot>(d->backing_);
  }

  /// An owned dataset from pre-built parts (the compaction fold). The
  /// caller passes the epoch of the overlay being folded: a compaction
  /// changes storage, not the graph, so epoch-tagged session caches stay
  /// valid across it.
  static DatasetPtr MakeOwnedDataset(AttributedGraph graph,
                                     std::vector<std::uint32_t> cores,
                                     ClTree index, std::uint64_t graph_epoch) {
    auto dataset = std::shared_ptr<Dataset>(new Dataset());
    dataset->graph_ = std::move(graph);
    auto store =
        std::make_shared<const std::vector<std::uint32_t>>(std::move(cores));
    dataset->core_span_ = *store;
    dataset->backing_ = std::move(store);
    dataset->index_ = std::move(index);
    dataset->id_ = Dataset::NextId();
    dataset->graph_epoch_ = graph_epoch;
    return dataset;
  }
};

/// The mutator's private shadow of the served graph: base dataset plus
/// everything the overlay changes, in mutation-friendly form (hash map of
/// patched adjacencies rather than a CSR). Guarded by Mutator::mu_.
struct Mutator::Working {
  struct TailVertex {
    std::string name;
    std::vector<KeywordId> keywords;  // sorted, deduped
    std::uint64_t fingerprint = 0;
  };

  DatasetPtr base;       ///< overlay-free dataset the patches layer over
  DatasetPtr published;  ///< last dataset we published (== base when clean)
  std::size_t base_n = 0;

  /// Full sorted adjacency of every patched vertex (tail vertices always
  /// have an entry, possibly empty).
  std::unordered_map<VertexId, std::vector<VertexId>> patched;
  std::vector<TailVertex> tail;
  std::vector<std::string> extra_words;
  std::unordered_map<std::string, KeywordId> extra_index;
  std::unordered_map<std::string, VertexId> tail_name_index;
  std::vector<std::uint32_t> cores;  ///< maintained incrementally
  std::uint64_t num_edges = 0;

  std::uint64_t pending_batches = 0;
  std::uint64_t edge_mutations = 0;  ///< adds+removes in the overlay

  std::size_t TotalVertices() const { return base_n + tail.size(); }

  bool Clean() const {
    return patched.empty() && tail.empty() && published == base;
  }

  std::span<const VertexId> Adj(VertexId v) const {
    auto it = patched.find(v);
    if (it != patched.end()) return it->second;
    return base->graph().graph().Neighbors(v);
  }

  bool HasEdge(VertexId u, VertexId v) const {
    auto adj = Adj(u);
    return std::binary_search(adj.begin(), adj.end(), v);
  }

  /// The patched adjacency of v, materializing a copy of the base row on
  /// first touch (copy-on-write).
  std::vector<VertexId>& MutableAdj(VertexId v) {
    auto it = patched.find(v);
    if (it != patched.end()) return it->second;
    std::vector<VertexId>& row = patched[v];
    if (v < base_n) {
      auto nb = base->graph().graph().Neighbors(v);
      row.assign(nb.begin(), nb.end());
    }
    return row;
  }

  /// Resolves a keyword to the id a from-scratch rebuild would assign:
  /// base vocabulary first, then the appended words, interning new words
  /// append-only in first-occurrence order.
  KeywordId InternWord(const std::string& word) {
    const Vocabulary& base_vocab = base->graph().vocabulary();
    const KeywordId id = base_vocab.Find(word);
    if (id != kInvalidKeyword) return id;
    auto it = extra_index.find(word);
    if (it != extra_index.end()) return it->second;
    const KeywordId fresh =
        static_cast<KeywordId>(base_vocab.size() + extra_words.size());
    extra_words.push_back(word);
    extra_index.emplace(word, fresh);
    return fresh;
  }
};

namespace {

/// Inserts `value` into the sorted row, keeping it sorted. No-op duplicate
/// protection is the caller's job (HasEdge runs first).
void InsertSorted(std::vector<VertexId>* row, VertexId value) {
  row->insert(std::lower_bound(row->begin(), row->end(), value), value);
}

void EraseSorted(std::vector<VertexId>* row, VertexId value) {
  auto it = std::lower_bound(row->begin(), row->end(), value);
  if (it != row->end() && *it == value) row->erase(it);
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

Mutator::Mutator(PublishFn publish) : publish_(std::move(publish)) {
  compact_threshold_ = 4096;
  if (const char* env = std::getenv("CEXPLORER_COMPACT_THRESHOLD")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) compact_threshold_ = v;
  }
}

Mutator::~Mutator() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  compact_cv_.notify_all();
  if (compact_thread_.joinable()) compact_thread_.join();
}

void Mutator::set_compact_threshold(std::uint64_t edges) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    compact_threshold_ = edges == 0 ? 1 : edges;
  }
  compact_cv_.notify_all();
}

void Mutator::RebaseLocked(const DatasetPtr& served) {
  work_ = std::make_unique<Working>();
  Working& w = *work_;
  w.published = served;
  if (!served->is_overlay()) {
    w.base = served;
    w.base_n = served->graph().num_vertices();
  } else {
    // Rebasing onto an overlay (e.g. the working state was wiped by a lost
    // publish race while an overlay stayed served): unfold it into the
    // working form. `base` must always be overlay-free — wiring a fresh
    // overlay's patch spans over another overlay's base arrays would read
    // the *unpatched* rows for every vertex only the old overlay touched.
    auto snap = Access::SnapshotOf(served);
    w.base = snap->base;
    w.base_n = w.base->graph().num_vertices();
    for (std::size_t v = 0; v < snap->patch_slot.size(); ++v) {
      const std::uint32_t slot = snap->patch_slot[v];
      if (slot == Graph::kNoPatchSlot) continue;
      const auto begin = static_cast<std::ptrdiff_t>(snap->patch_offsets[slot]);
      const auto end =
          static_cast<std::ptrdiff_t>(snap->patch_offsets[slot + 1]);
      w.patched.emplace(static_cast<VertexId>(v),
                        std::vector<VertexId>(
                            snap->patch_adjacency.begin() + begin,
                            snap->patch_adjacency.begin() + end));
    }
    w.tail.reserve(snap->tail_names.size());
    for (std::size_t i = 0; i < snap->tail_names.size(); ++i) {
      Working::TailVertex t;
      t.name = snap->tail_names[i];
      t.keywords.assign(
          snap->tail_kw_data.begin() +
              static_cast<std::ptrdiff_t>(snap->tail_kw_offsets[i]),
          snap->tail_kw_data.begin() +
              static_cast<std::ptrdiff_t>(snap->tail_kw_offsets[i + 1]));
      t.fingerprint = snap->tail_kw_fp[i];
      w.tail.push_back(std::move(t));
    }
    w.extra_words = snap->extra_words;
    w.extra_index = snap->extra_index;
    w.tail_name_index = snap->tail_name_index;
  }
  const auto cores = served->core_numbers();
  w.cores.assign(cores.begin(), cores.end());
  w.num_edges = served->graph().graph().num_edges();
}

Result<ApplyResult> Mutator::Apply(const DatasetPtr& served,
                                   const MutationBatch& batch) {
  if (served == nullptr) {
    return Status::FailedPrecondition("no graph uploaded");
  }
  if (batch.add_edges.empty() && batch.remove_edges.empty() &&
      batch.add_vertices.empty()) {
    return Status::InvalidArgument("empty mutation batch");
  }
  std::unique_lock<std::mutex> lock(mu_);
  // Mutations always target what queries currently see: if an upload or
  // snapshot load published past us, start a fresh overlay on top of it.
  if (work_ == nullptr || work_->published != served) RebaseLocked(served);
  Working& w = *work_;

  // Validate the whole batch up front — rejection must leave the working
  // state untouched. Edges may reference vertices this batch adds.
  const std::size_t n_after = w.TotalVertices() + batch.add_vertices.size();
  for (const auto* edges : {&batch.add_edges, &batch.remove_edges}) {
    for (const auto& [u, v] : *edges) {
      if (u == v) {
        return Status::InvalidArgument("self-loop edge (" +
                                       std::to_string(u) + ")");
      }
      if (u >= n_after || v >= n_after) {
        return Status::InvalidArgument(
            "edge endpoint out of range: (" + std::to_string(u) + ", " +
            std::to_string(v) + ") with " + std::to_string(n_after) +
            " vertices");
      }
    }
  }

  ApplyCounts counts;
  for (const NewVertex& nv : batch.add_vertices) {
    const VertexId id = static_cast<VertexId>(w.TotalVertices());
    Working::TailVertex t;
    t.name = nv.name;
    t.keywords.reserve(nv.keywords.size());
    for (const std::string& word : nv.keywords) {
      t.keywords.push_back(w.InternWord(word));
    }
    std::sort(t.keywords.begin(), t.keywords.end());
    t.keywords.erase(std::unique(t.keywords.begin(), t.keywords.end()),
                     t.keywords.end());
    t.fingerprint = simd::BloomFingerprint(t.keywords);
    if (!t.name.empty()) {
      // First insertion wins within the tail; FindByName consults the base
      // first, so the combined order matches a from-scratch rebuild.
      w.tail_name_index.emplace(ToLower(t.name), id);
    }
    w.tail.push_back(std::move(t));
    w.patched.emplace(id, std::vector<VertexId>{});  // tail: always patched
    w.cores.push_back(0);
    ++counts.vertices_added;
  }

  CoreRepairStats repair;
  const auto core_start = std::chrono::steady_clock::now();
  const auto adj = [&w](VertexId v) { return w.Adj(v); };
  for (const auto& [u, v] : batch.add_edges) {
    if (w.HasEdge(u, v)) {
      ++counts.edges_ignored;
      continue;
    }
    InsertSorted(&w.MutableAdj(u), v);
    InsertSorted(&w.MutableAdj(v), u);
    ++w.num_edges;
    ++w.edge_mutations;
    ++counts.edges_added;
    RepairCoresAfterInsert(adj, &w.cores, u, v, &repair);
  }
  for (const auto& [u, v] : batch.remove_edges) {
    if (!w.HasEdge(u, v)) {
      ++counts.edges_missing;
      continue;
    }
    EraseSorted(&w.MutableAdj(u), v);
    EraseSorted(&w.MutableAdj(v), u);
    --w.num_edges;
    ++w.edge_mutations;
    ++counts.edges_removed;
    RepairCoresAfterRemove(adj, &w.cores, u, v, &repair);
  }
  stats_.publish_core_repair_ms += MsSince(core_start);

  ++w.pending_batches;
  ++stats_.batches;
  stats_.edges_added += counts.edges_added;
  stats_.edges_removed += counts.edges_removed;
  stats_.vertices_added += counts.vertices_added;
  stats_.core_repair_visited += repair.visited;
  stats_.core_repair_changed += repair.changed;

  auto published = PublishOverlayLocked();
  if (!published.ok()) return published.status();

  if (!compact_thread_started_) {
    compact_thread_started_ = true;
    compact_thread_ = std::thread(&Mutator::CompactionLoop, this);
  }
  if (work_ != nullptr && work_->edge_mutations >= compact_threshold_) {
    compact_cv_.notify_one();
  }
  return ApplyResult{std::move(published.value()), counts};
}

Result<DatasetPtr> Mutator::PublishOverlayLocked() {
  Working& w = *work_;
  const auto arena_start = std::chrono::steady_clock::now();
  auto snap = std::make_shared<OverlaySnapshot>();
  snap->base = w.base;

  const std::size_t n_total = w.TotalVertices();
  snap->patch_slot.assign(n_total, Graph::kNoPatchSlot);
  std::vector<VertexId> patched_ids;
  patched_ids.reserve(w.patched.size());
  for (const auto& entry : w.patched) patched_ids.push_back(entry.first);
  std::sort(patched_ids.begin(), patched_ids.end());
  snap->patch_offsets.reserve(patched_ids.size() + 1);
  snap->patch_offsets.push_back(0);
  for (std::size_t slot = 0; slot < patched_ids.size(); ++slot) {
    const VertexId v = patched_ids[slot];
    snap->patch_slot[v] = static_cast<std::uint32_t>(slot);
    const std::vector<VertexId>& row = w.patched.at(v);
    snap->patch_adjacency.insert(snap->patch_adjacency.end(), row.begin(),
                                 row.end());
    snap->patch_offsets.push_back(snap->patch_adjacency.size());
  }

  snap->extra_words = w.extra_words;
  snap->extra_index = w.extra_index;

  snap->tail_kw_offsets.reserve(w.tail.size() + 1);
  snap->tail_kw_offsets.push_back(0);
  for (const Working::TailVertex& t : w.tail) {
    snap->tail_kw_data.insert(snap->tail_kw_data.end(), t.keywords.begin(),
                              t.keywords.end());
    snap->tail_kw_offsets.push_back(snap->tail_kw_data.size());
    snap->tail_kw_fp.push_back(t.fingerprint);
    snap->tail_names.push_back(t.name);
  }
  snap->tail_name_index = w.tail_name_index;
  snap->cores = w.cores;

  AttributedGraph graph = Access::OverlayGraph(snap, w.num_edges);
  stats_.publish_arena_copy_ms += MsSince(arena_start);

  // Index phase: building from the maintained core numbers keeps this
  // proportional to the tree construction, not a full re-peel; the
  // deterministic builder makes the result byte-identical to a
  // from-scratch rebuild.
  const auto index_start = std::chrono::steady_clock::now();
  ClTree tree = ClTree::Build(graph, snap->cores, ClTreeBuildMethod::kAdvanced);
  stats_.publish_index_repair_ms += MsSince(index_start);
  DatasetPtr fresh = Access::MakeOverlayDataset(
      std::move(snap), std::move(graph), std::move(tree));

  const auto cas_start = std::chrono::steady_clock::now();
  const bool won = publish_(w.published, fresh);
  stats_.publish_cas_ms += MsSince(cas_start);
  if (!won) {
    // A concurrent upload/snapshot-load won the CAS: the graph we mutated
    // is no longer served, so the whole working overlay is stale.
    work_.reset();
    return Status::FailedPrecondition(
        "a concurrent graph replacement won; mutation batch discarded");
  }
  w.published = fresh;
  return fresh;
}

Result<DatasetPtr> Mutator::CompactNow(const DatasetPtr& served) {
  std::unique_lock<std::mutex> lock(mu_);
  if (served == nullptr || !served->is_overlay()) {
    // Nothing to fold for the caller's snapshot. (The working overlay, if
    // any, is no longer served — a replacement won — so folding it would
    // publish a stale graph; leave it for the next Apply to rebase away.)
    return served;
  }
  if (work_ == nullptr || work_->published != served) {
    // The served overlay is not the working state's (wiped by a lost race,
    // or published by an earlier incarnation): rebuild the working form
    // from the overlay itself, then fold it.
    RebaseLocked(served);
  }
  return CompactLocked();
}

Result<DatasetPtr> Mutator::CompactLocked() {
  Working& w = *work_;
  const auto start = std::chrono::steady_clock::now();

  // Fold: rebuild an owned attributed graph equal to the overlay. Keyword
  // ids are reproduced exactly (base vocabulary order, then appended words
  // in first-occurrence order), so postings and JSON render identically.
  const AttributedGraph& base = w.base->graph();
  AttributedGraphBuilder builder;
  KeywordInterner* vocab = builder.mutable_vocabulary();
  const std::size_t base_words = base.vocabulary().size();
  for (std::size_t i = 0; i < base_words; ++i) {
    vocab->Intern(base.vocabulary().Word(static_cast<KeywordId>(i)));
  }
  for (const std::string& word : w.extra_words) vocab->Intern(word);

  const std::size_t n_total = w.TotalVertices();
  for (std::size_t v = 0; v < n_total; ++v) {
    std::string name;
    std::vector<KeywordId> kws;
    if (v < w.base_n) {
      name = std::string(base.Name(static_cast<VertexId>(v)));
      const auto span = base.Keywords(static_cast<VertexId>(v));
      kws.assign(span.begin(), span.end());
    } else {
      const Working::TailVertex& t = w.tail[v - w.base_n];
      name = t.name;
      kws = t.keywords;
    }
    builder.AddVertexWithIds(std::move(name), std::move(kws));
  }
  for (std::size_t v = 0; v < n_total; ++v) {
    for (VertexId u : w.Adj(static_cast<VertexId>(v))) {
      if (u > v) {
        Status st = builder.AddEdge(static_cast<VertexId>(v), u);
        (void)st;  // endpoints were just added; cannot fail
      }
    }
  }

  AttributedGraph graph = builder.Build();
  std::vector<std::uint32_t> cores = w.cores;
  ClTree tree = ClTree::Build(graph, cores, ClTreeBuildMethod::kAdvanced);
  DatasetPtr compacted =
      Access::MakeOwnedDataset(std::move(graph), std::move(cores),
                               std::move(tree),
                               w.published->graph_epoch());

  if (!publish_(w.published, compacted)) {
    work_.reset();
    return Status::FailedPrecondition(
        "a concurrent graph replacement won; compaction discarded");
  }

  // The compacted dataset is the new clean base; keep the maintained core
  // numbers (unchanged by the fold) for the next overlay.
  w.base = compacted;
  w.published = compacted;
  w.base_n = n_total;
  w.patched.clear();
  w.tail.clear();
  w.extra_words.clear();
  w.extra_index.clear();
  w.tail_name_index.clear();
  w.pending_batches = 0;
  w.edge_mutations = 0;

  ++stats_.compactions;
  stats_.last_compaction_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  return compacted;
}

MutationStats Mutator::StatsFor(const DatasetPtr& served) const {
  std::lock_guard<std::mutex> lock(mu_);
  MutationStats s = stats_;
  s.active = served != nullptr && served->is_overlay();
  if (work_ != nullptr) {
    s.pending_batches = work_->pending_batches;
    s.overlay_edges = work_->edge_mutations;
    s.patched_vertices = work_->patched.size();
    s.tail_vertices = work_->tail.size();
  }
  return s;
}

void Mutator::CompactionLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    compact_cv_.wait(lock, [this] {
      return stopping_ ||
             (work_ != nullptr && !work_->Clean() &&
              work_->edge_mutations >= compact_threshold_);
    });
    if (stopping_) return;
    // Holding mu_ across the fold stalls concurrent mutations (by design);
    // queries never touch this lock and keep serving pinned snapshots. A
    // CAS loss here just means an upload replaced the graph — the wiped
    // state rebases on the next Apply.
    auto result = CompactLocked();
    (void)result;
  }
}

}  // namespace delta
}  // namespace cexplorer
