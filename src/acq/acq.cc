#include "acq/acq.h"

#include <algorithm>

#include "common/simd/simd.h"
#include "core/kcore.h"

namespace cexplorer {

const char* AcqAlgorithmName(AcqAlgorithm algo) {
  switch (algo) {
    case AcqAlgorithm::kBruteForce:
      return "BruteForce";
    case AcqAlgorithm::kIncS:
      return "Inc-S";
    case AcqAlgorithm::kIncT:
      return "Inc-T";
    case AcqAlgorithm::kDec:
      return "Dec";
  }
  return "?";
}

namespace {

/// Reusable per-thread buffers of the ACQ hot path, complementing the peel
/// scratch (core/kcore.h) the verification step already reuses. The gather
/// buffer absorbs the growth churn of candidate collection (the final list
/// is copied out exactly-sized), and the frontier buffer replaces the old
/// std::set<KeywordList> lattice dedup in Dec with a flat sort + unique —
/// no node allocations, identical (sorted, unique) frontier contents.
struct AcqScratch {
  VertexList gather;
  std::vector<KeywordList> next_frontier;
  std::vector<std::uint64_t> fps;  // per-candidate bloom fingerprints
  std::vector<VertexList> batch;   // per-candidate gather lists (Inc-T)
};

AcqScratch& ThreadAcqScratch() {
  thread_local AcqScratch scratch;
  return scratch;
}

/// All state one query needs, shared by the four algorithms.
struct QueryContext {
  const AttributedGraph* g = nullptr;
  const ClTree* index = nullptr;  // null for the brute-force oracle
  VertexList query_vertices;      // non-empty; [0] is the anchor
  const ExecControl* control = nullptr;  // checked once per lattice level
  std::uint32_t k = 0;
  KeywordList keywords;  // S, sorted
  ClNodeId node = kInvalidClNode;
  VertexList component;  // subtree of `node` (indexed algorithms only)
  AcqStats stats;
};

/// True iff every query vertex appears in the sorted `community`.
bool ContainsAllQueryVertices(const QueryContext& ctx,
                              const VertexList& community) {
  for (VertexId q : ctx.query_vertices) {
    if (!std::binary_search(community.begin(), community.end(), q)) {
      return false;
    }
  }
  return true;
}

/// Peels `candidates` to the k-core component of the anchor and checks that
/// all query vertices survived. Empty return means "not qualified". Counts
/// into `stats`. Every gather path (component scan, CL-tree batch, subtree
/// collect) produces sorted unique lists, so the sorted peel entry point
/// applies.
VertexList PeelAndCheck(const QueryContext& ctx, VertexList candidates,
                        AcqStats* stats) {
  ++stats->candidates_verified;
  VertexList community = PeelToKCoreSorted(
      ctx.g->graph(), std::move(candidates), ctx.k, ctx.query_vertices[0]);
  if (community.empty() || !ContainsAllQueryVertices(ctx, community)) {
    return {};
  }
  return community;
}

/// Verifies one lattice level's candidate vertex lists: result[i] is the
/// qualified community for `gathered[i]` (empty when unqualified).
std::vector<VertexList> VerifyLevel(QueryContext* ctx,
                                    std::vector<VertexList> gathered) {
  std::vector<VertexList> communities(gathered.size());
  for (std::size_t i = 0; i < gathered.size(); ++i) {
    if (gathered[i].size() < ctx->k + 1) {
      ++ctx->stats.support_pruned;
      continue;
    }
    communities[i] = PeelAndCheck(*ctx, std::move(gathered[i]), &ctx->stats);
  }
  return communities;
}

/// Candidate vertices for keyword set `cand`, gathered by scanning a vertex
/// list and testing keyword containment directly (Inc-S / brute force).
VertexList GatherByScan(const QueryContext& ctx, const VertexList& universe,
                        const KeywordList& cand) {
  VertexList& buf = ThreadAcqScratch().gather;
  buf.clear();
  // One-word bloom pre-test per vertex rejects most non-matches before the
  // exact merge test (false positives only cost the exact check).
  const std::uint64_t cand_fp = simd::BloomFingerprint(cand);
  for (VertexId v : universe) {
    if (!simd::BloomMayContainAll(ctx.g->KeywordFingerprint(v), cand_fp)) {
      continue;
    }
    if (ctx.g->HasAllKeywords(v, cand)) buf.push_back(v);
  }
  return VertexList(buf.begin(), buf.end());  // one exact-size allocation
}

/// Candidate vertices for keyword set `cand`, gathered by walking the
/// query node's CL-tree subtree (the Dec descent). Same result as
/// ClTree::CollectWithKeywords, but the growth churn of the appends lands
/// in the per-thread gather buffer and the result is copied out
/// exactly-sized.
VertexList GatherBySubtree(const QueryContext& ctx, const KeywordList& cand) {
  VertexList& buf = ThreadAcqScratch().gather;
  buf.clear();
  const ClTree& tree = *ctx.index;
  const ClNodeId end = tree.node(ctx.node).subtree_end;
  const std::uint64_t fp = simd::BloomFingerprint(cand);
  for (ClNodeId i = ctx.node; i < end; ++i) {
    tree.AppendNodeMatches(i, cand, fp, &buf);
  }
  std::sort(buf.begin(), buf.end());
  return VertexList(buf.begin(), buf.end());
}

/// The fallback community (empty shared keyword set): the connected k-core
/// component of the anchor, or nothing if the query vertices are not all in
/// one such component.
std::vector<AttributedCommunity> FallbackCommunity(QueryContext* ctx,
                                                   const VertexList& universe) {
  // Both callers pass a sorted unique universe (the subtree component or
  // the full vertex range).
  VertexList community = PeelToKCoreSorted(ctx->g->graph(), universe, ctx->k,
                                           ctx->query_vertices[0]);
  if (community.empty() || !ContainsAllQueryVertices(*ctx, community)) {
    return {};
  }
  return {AttributedCommunity{std::move(community), {}}};
}

void SortCommunities(std::vector<AttributedCommunity>* communities) {
  std::sort(communities->begin(), communities->end(),
            [](const AttributedCommunity& a, const AttributedCommunity& b) {
              if (a.shared_keywords != b.shared_keywords) {
                return a.shared_keywords < b.shared_keywords;
              }
              return a.vertices < b.vertices;
            });
}

// ---------------------------------------------------------------------------
// Brute-force oracle: enumerate every subset of S, largest first.
// ---------------------------------------------------------------------------

/// Invokes fn(subset) for every `size`-subset of `S` in lexicographic order.
template <typename Fn>
void ForEachSubset(const KeywordList& S, std::size_t size, Fn&& fn) {
  std::vector<std::size_t> idx(size);
  for (std::size_t i = 0; i < size; ++i) idx[i] = i;
  KeywordList subset(size);
  for (;;) {
    for (std::size_t i = 0; i < size; ++i) subset[i] = S[idx[i]];
    fn(subset);
    // Advance the combination.
    std::size_t i = size;
    while (i > 0) {
      --i;
      if (idx[i] + (size - i) < S.size()) {
        ++idx[i];
        for (std::size_t j = i + 1; j < size; ++j) idx[j] = idx[j - 1] + 1;
        break;
      }
      if (i == 0) return;
    }
    if (size == 0) return;
  }
}

Result<std::vector<AttributedCommunity>> RunBruteForce(QueryContext* ctx) {
  VertexList universe(ctx->g->num_vertices());
  for (VertexId v = 0; v < universe.size(); ++v) universe[v] = v;

  for (std::size_t size = ctx->keywords.size(); size >= 1; --size) {
    CEXPLORER_RETURN_IF_ERROR(CheckControl(ctx->control));
    std::vector<AttributedCommunity> found;
    ForEachSubset(ctx->keywords, size, [&](const KeywordList& cand) {
      ++ctx->stats.candidates_generated;
      VertexList gather = GatherByScan(*ctx, universe, cand);
      VertexList community = PeelAndCheck(*ctx, std::move(gather), &ctx->stats);
      if (!community.empty()) {
        found.push_back({std::move(community), cand});
      }
    });
    if (!found.empty()) {
      SortCommunities(&found);
      return found;
    }
  }
  return FallbackCommunity(ctx, universe);
}

// ---------------------------------------------------------------------------
// Shared Apriori machinery for Inc-S / Inc-T.
// ---------------------------------------------------------------------------

/// Joins qualified size-c sets into size-(c+1) candidates whose every
/// c-subset is qualified. `qualified` must be sorted.
std::vector<KeywordList> AprioriJoin(const std::vector<KeywordList>& qualified) {
  std::vector<KeywordList> out;
  for (std::size_t i = 0; i < qualified.size(); ++i) {
    for (std::size_t j = i + 1; j < qualified.size(); ++j) {
      const KeywordList& a = qualified[i];
      const KeywordList& b = qualified[j];
      if (!std::equal(a.begin(), a.end() - 1, b.begin())) break;
      KeywordList cand(a);
      cand.push_back(b.back());
      // Every c-subset must be qualified (drop one element at a time; the
      // two parents are already known to be).
      bool all_in = true;
      for (std::size_t drop = 0; drop + 2 < cand.size() && all_in; ++drop) {
        KeywordList sub;
        sub.reserve(cand.size() - 1);
        for (std::size_t t = 0; t < cand.size(); ++t) {
          if (t != drop) sub.push_back(cand[t]);
        }
        all_in = std::binary_search(qualified.begin(), qualified.end(), sub);
      }
      if (all_in) out.push_back(std::move(cand));
    }
  }
  return out;
}

/// Gathers candidate vertex lists for all `cands` in one subtree walk over
/// the CL-tree inverted lists (the Inc-T batching).
std::vector<VertexList> BatchCollect(const QueryContext& ctx,
                                     const std::vector<KeywordList>& cands) {
  std::vector<VertexList> out(cands.size());
  const ClTree& tree = *ctx.index;
  const ClNodeId end = tree.node(ctx.node).subtree_end;
  AcqScratch& s = ThreadAcqScratch();
  // Per-candidate bloom fingerprints, computed once for the whole walk.
  s.fps.clear();
  for (const KeywordList& cand : cands) {
    s.fps.push_back(simd::BloomFingerprint(cand));
  }
  // Gather into the per-thread batch buffers — they keep their capacity
  // across lattice levels and queries, so the growth churn of the appends
  // lands there once per thread. The caller-owned result is copied out
  // exactly-sized, mirroring GatherByScan.
  if (s.batch.size() < cands.size()) s.batch.resize(cands.size());
  for (std::size_t c = 0; c < cands.size(); ++c) s.batch[c].clear();
  for (ClNodeId i = ctx.node; i < end; ++i) {
    for (std::size_t c = 0; c < cands.size(); ++c) {
      tree.AppendNodeMatches(i, cands[c], s.fps[c], &s.batch[c]);
    }
  }
  for (std::size_t c = 0; c < cands.size(); ++c) {
    std::sort(s.batch[c].begin(), s.batch[c].end());
    out[c].assign(s.batch[c].begin(), s.batch[c].end());
  }
  return out;
}

Result<std::vector<AttributedCommunity>> RunIncremental(QueryContext* ctx,
                                                        bool tree_batched) {
  std::vector<KeywordList> frontier;
  for (KeywordId kw : ctx->keywords) frontier.push_back({kw});

  std::vector<AttributedCommunity> best;
  while (!frontier.empty()) {
    CEXPLORER_RETURN_IF_ERROR(CheckControl(ctx->control));
    std::sort(frontier.begin(), frontier.end());
    ctx->stats.candidates_generated += frontier.size();

    std::vector<VertexList> gathered(frontier.size());
    if (tree_batched) {
      gathered = BatchCollect(*ctx, frontier);
    } else {
      for (std::size_t i = 0; i < frontier.size(); ++i) {
        gathered[i] = GatherByScan(*ctx, ctx->component, frontier[i]);
      }
    }

    std::vector<VertexList> communities = VerifyLevel(ctx, std::move(gathered));
    std::vector<KeywordList> qualified;
    std::vector<AttributedCommunity> level_communities;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      if (!communities[i].empty()) {
        qualified.push_back(frontier[i]);
        level_communities.push_back({std::move(communities[i]), frontier[i]});
      }
    }
    if (qualified.empty()) break;
    best = std::move(level_communities);
    frontier = AprioriJoin(qualified);
  }

  if (best.empty()) return FallbackCommunity(ctx, ctx->component);
  SortCommunities(&best);
  return best;
}

// ---------------------------------------------------------------------------
// Dec: decremental descent from the largest support-feasible keyword set.
// ---------------------------------------------------------------------------

Result<std::vector<AttributedCommunity>> RunDec(QueryContext* ctx) {
  // Per-keyword support within the component; keywords that cannot reach
  // k+1 supporting vertices can never appear in a qualified set.
  KeywordList effective;
  for (KeywordId kw : ctx->keywords) {
    if (ctx->index->CountKeyword(ctx->node, kw) >= ctx->k + 1) {
      effective.push_back(kw);
    } else {
      ++ctx->stats.support_pruned;
    }
  }
  if (effective.empty()) return FallbackCommunity(ctx, ctx->component);

  std::vector<KeywordList> frontier{effective};
  while (!frontier.empty()) {
    CEXPLORER_RETURN_IF_ERROR(CheckControl(ctx->control));
    ctx->stats.candidates_generated += frontier.size();
    std::vector<VertexList> gathered(frontier.size());
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      gathered[i] = GatherBySubtree(*ctx, frontier[i]);
    }
    std::vector<VertexList> communities = VerifyLevel(ctx, std::move(gathered));

    std::vector<AttributedCommunity> qualified;
    // Flat frontier expansion: collect every one-smaller subset, then
    // sort + unique — the same (sorted, duplicate-free) next level the old
    // std::set produced, without a node allocation per subset probe.
    std::vector<KeywordList>& next = ThreadAcqScratch().next_frontier;
    next.clear();
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      const KeywordList& cand = frontier[i];
      if (!communities[i].empty()) {
        qualified.push_back({std::move(communities[i]), cand});
        continue;
      }
      if (cand.size() > 1) {
        for (std::size_t drop = 0; drop < cand.size(); ++drop) {
          KeywordList sub;
          sub.reserve(cand.size() - 1);
          for (std::size_t t = 0; t < cand.size(); ++t) {
            if (t != drop) sub.push_back(cand[t]);
          }
          next.push_back(std::move(sub));
        }
      }
    }
    if (!qualified.empty()) {
      SortCommunities(&qualified);
      return qualified;
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    frontier.assign(std::make_move_iterator(next.begin()),
                    std::make_move_iterator(next.end()));
  }
  return FallbackCommunity(ctx, ctx->component);
}

Result<QueryContext> MakeContext(const AttributedGraph& g, const ClTree* index,
                                 VertexList query_vertices, std::uint32_t k,
                                 KeywordList keywords, bool need_index,
                                 const ExecControl* control) {
  QueryContext ctx;
  ctx.g = &g;
  ctx.index = index;
  ctx.control = control;
  ctx.k = k;

  if (query_vertices.empty()) {
    return Status::InvalidArgument("no query vertex given");
  }
  std::sort(query_vertices.begin(), query_vertices.end());
  query_vertices.erase(
      std::unique(query_vertices.begin(), query_vertices.end()),
      query_vertices.end());
  for (VertexId q : query_vertices) {
    if (q >= g.num_vertices()) {
      return Status::InvalidArgument("query vertex " + std::to_string(q) +
                                     " out of range");
    }
  }
  ctx.query_vertices = std::move(query_vertices);

  std::sort(keywords.begin(), keywords.end());
  keywords.erase(std::unique(keywords.begin(), keywords.end()),
                 keywords.end());
  for (KeywordId kw : keywords) {
    for (VertexId q : ctx.query_vertices) {
      if (!g.HasKeyword(q, kw)) {
        const std::string who = g.Name(q).empty()
                                    ? std::to_string(q)
                                    : std::string(g.Name(q));
        return Status::InvalidArgument(
            "keyword '" + std::string(g.vocabulary().Word(kw)) +
            "' is not in the keyword set of query vertex " + who);
      }
    }
  }
  ctx.keywords = std::move(keywords);

  if (need_index) {
    ctx.node = index->LocateKCore(ctx.query_vertices[0], k);
    if (ctx.node != kInvalidClNode) {
      // Every query vertex must live in the same k-core component.
      for (VertexId q : ctx.query_vertices) {
        if (index->LocateKCore(q, k) != ctx.node) {
          ctx.node = kInvalidClNode;
          break;
        }
      }
    }
    if (ctx.node != kInvalidClNode) {
      ctx.component = index->SubtreeVertices(ctx.node);
    }
  }
  return ctx;
}

Result<AcqResult> RunQuery(const AttributedGraph& g, const ClTree* index,
                           VertexList query_vertices, std::uint32_t k,
                           KeywordList keywords, AcqAlgorithm algo,
                           const ExecControl* control) {
  const bool need_index = algo != AcqAlgorithm::kBruteForce;
  if (need_index && index == nullptr) {
    return Status::FailedPrecondition("indexed algorithm requires a CL-tree");
  }
  auto ctx_or = MakeContext(g, index, std::move(query_vertices), k,
                            std::move(keywords), need_index, control);
  if (!ctx_or.ok()) return ctx_or.status();
  QueryContext ctx = std::move(ctx_or.value());

  AcqResult result;
  if (need_index && ctx.node == kInvalidClNode) {
    // Query vertices are not together in any k-core: no community.
    result.stats = ctx.stats;
    return result;
  }

  Result<std::vector<AttributedCommunity>> communities =
      std::vector<AttributedCommunity>{};
  switch (algo) {
    case AcqAlgorithm::kBruteForce:
      communities = RunBruteForce(&ctx);
      break;
    case AcqAlgorithm::kIncS:
      communities = RunIncremental(&ctx, /*tree_batched=*/false);
      break;
    case AcqAlgorithm::kIncT:
      communities = RunIncremental(&ctx, /*tree_batched=*/true);
      break;
    case AcqAlgorithm::kDec:
      communities = RunDec(&ctx);
      break;
  }
  if (!communities.ok()) return communities.status();
  result.communities = std::move(communities.value());
  result.stats = ctx.stats;
  return result;
}

}  // namespace

KeywordList SharedKeywords(const AttributedGraph& g,
                           const VertexList& community,
                           const KeywordList& keyword_space) {
  KeywordList shared;
  for (KeywordId kw : keyword_space) {
    bool everywhere = true;
    for (VertexId v : community) {
      if (!g.HasKeyword(v, kw)) {
        everywhere = false;
        break;
      }
    }
    if (everywhere) shared.push_back(kw);
  }
  return shared;
}

Result<AcqResult> AcqEngine::Search(VertexId q, std::uint32_t k,
                                    KeywordList keywords, AcqAlgorithm algo,
                                    const ExecControl* control) const {
  return RunQuery(*g_, index_, {q}, k, std::move(keywords), algo, control);
}

Result<AcqResult> AcqEngine::SearchByName(
    std::string_view name, std::uint32_t k,
    const std::vector<std::string>& keywords, AcqAlgorithm algo) const {
  VertexId q = g_->FindByName(name);
  if (q == kInvalidVertex) {
    return Status::NotFound("no vertex named '" + std::string(name) + "'");
  }
  KeywordList ids;
  for (const auto& word : keywords) {
    KeywordId kw = g_->vocabulary().Find(word);
    if (kw == kInvalidKeyword) {
      return Status::NotFound("unknown keyword '" + word + "'");
    }
    ids.push_back(kw);
  }
  return Search(q, k, std::move(ids), algo);
}

Result<AcqResult> AcqEngine::SearchMulti(const VertexList& query_vertices,
                                         std::uint32_t k, KeywordList keywords,
                                         AcqAlgorithm algo,
                                         const ExecControl* control) const {
  return RunQuery(*g_, index_, query_vertices, k, std::move(keywords), algo,
                  control);
}

}  // namespace cexplorer
