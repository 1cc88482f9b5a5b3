// Seeded request scripts of the end-to-end benchmark.
//
// Every request the harness sends is generated here, from the served graph
// and the workload seed, before any timing starts. The same graph, seed and
// session id always give byte-identical scripts (scripts_test.cc checks
// it), so two runs of one seed send the same requests in the same order.
// Two choices depend on a response and cannot be scripted as text: which
// member of the returned community the browser opens (profile) and
// explores from. The script fixes those as pre-drawn pick numbers, so they
// are deterministic too.

#ifndef CEXPLORER_E2EBENCH_SCRIPTS_H_
#define CEXPLORER_E2EBENCH_SCRIPTS_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/attributed_graph.h"
#include "server/http.h"

namespace cexplorer {
namespace e2e {

/// The degree constraint of every scripted search.
inline constexpr std::uint32_t kK = 4;

/// Zipf exponent of the browse workloads' author draw (by degree rank).
inline constexpr double kZipfExponent = 1.3;

/// Entries of one scripted /v1/batch, and how often a search_uniform
/// request is a batch (one in kBatchEvery).
inline constexpr std::size_t kBatchSize = 8;
inline constexpr std::size_t kBatchEvery = 8;

/// The writer's slot pattern: a vertex batch every kVertexEvery slots and a
/// compaction every kCompactEvery slots; every other slot is an edge batch.
inline constexpr std::size_t kVertexEvery = 32;
inline constexpr std::size_t kCompactEvery = 64;

/// The authors scripts draw from: core number >= kK (so every search has a
/// community and every follow-up click succeeds) and a name that resolves
/// back to the same vertex. Sorted by degree, highest first, ties by id.
inline std::vector<VertexId> MakePopulation(
    const AttributedGraph& g, std::span<const std::uint32_t> core) {
  std::vector<VertexId> authors;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (core[v] < kK || g.Name(v).empty()) continue;
    if (g.FindByName(g.Name(v)) != v) continue;
    authors.push_back(v);
  }
  std::stable_sort(authors.begin(), authors.end(),
                   [&g](VertexId a, VertexId b) {
                     return g.graph().Degree(a) > g.graph().Degree(b);
                   });
  return authors;
}

/// The keywords of one scripted query.
struct QuerySpec {
  VertexId q = 0;
  std::vector<std::string> keywords;
};

/// One iteration of the paper's browsing loop: look the author up, search,
/// open the first community, open a member's profile, explore from a
/// member. The member requests are formed when the search answers.
struct BrowseStep {
  QuerySpec query;
  std::string author_request;
  std::string search_request;
  std::string community_request;
  std::uint32_t profile_pick = 0;
  std::uint32_t explore_pick = 0;
};

/// One closed-loop search client request: a /v1/search or a /v1/batch.
struct SearchItem {
  std::string request;
  bool batch = false;
  std::vector<QuerySpec> queries;  ///< one per search, kBatchSize per batch
};

/// One open-loop writer slot.
struct WriteOp {
  enum class Kind { kAddEdges, kRemoveEdges, kAddVertices, kCompact };
  Kind kind = Kind::kCompact;
  std::string request;
  std::vector<std::pair<VertexId, VertexId>> edges;
  /// Appended vertices: name and keywords.
  std::vector<std::pair<std::string, std::vector<std::string>>> vertices;
};

inline std::string JoinKeywords(const std::vector<std::string>& keywords) {
  std::string joined;
  for (const std::string& kw : keywords) {
    if (!joined.empty()) joined += ',';
    joined += kw;
  }
  return joined;
}

inline std::string SearchRequestText(const AttributedGraph& g,
                                     const QuerySpec& spec, bool by_name,
                                     const std::string& session) {
  std::string text = "GET /v1/search?";
  if (by_name) {
    text += "name=" + UrlEncode(g.Name(spec.q));
  } else {
    text += "vertex=" + std::to_string(spec.q);
  }
  text += "&k=" + std::to_string(kK) +
          "&keywords=" + UrlEncode(JoinKeywords(spec.keywords)) +
          "&algo=ACQ&session=" + session;
  return text;
}

inline std::string ProfileRequestText(VertexId v, const std::string& session) {
  return "GET /v1/profile?vertex=" + std::to_string(v) +
         "&session=" + session;
}

inline std::string ExploreRequestText(VertexId v, const std::string& session) {
  return "GET /v1/explore?vertex=" + std::to_string(v) +
         "&k=" + std::to_string(kK) + "&algo=ACQ&session=" + session;
}

/// `steps` browse iterations over Zipf(kZipfExponent)-by-degree-rank
/// authors, each searching with the author's first two keywords.
inline std::vector<BrowseStep> MakeBrowseScript(
    const AttributedGraph& g, const std::vector<VertexId>& population,
    std::uint64_t seed, const std::string& session, std::size_t steps) {
  Rng rng(seed);
  const ZipfSampler zipf(population.size(), kZipfExponent);
  std::vector<BrowseStep> script(steps);
  for (BrowseStep& step : script) {
    step.query.q = population[zipf.Sample(&rng)];
    std::vector<std::string> keywords = g.KeywordStrings(step.query.q);
    keywords.resize(std::min<std::size_t>(keywords.size(), 2));
    step.query.keywords = std::move(keywords);
    step.author_request = "GET /v1/author?name=" +
                          UrlEncode(g.Name(step.query.q)) +
                          "&session=" + session;
    step.search_request = SearchRequestText(g, step.query, true, session);
    step.community_request =
        "GET /v1/community?id=0&limit=50&session=" + session;
    step.profile_pick = rng.NextU32();
    step.explore_pick = rng.NextU32();
  }
  return script;
}

/// A uniform draw over `population` with 1-3 of the author's own keywords.
inline QuerySpec UniformQuery(const AttributedGraph& g,
                              const std::vector<VertexId>& population,
                              Rng* rng) {
  QuerySpec spec;
  spec.q = population[rng->UniformU32(
      static_cast<std::uint32_t>(population.size()))];
  std::vector<std::string> keywords = g.KeywordStrings(spec.q);
  rng->Shuffle(&keywords);
  const std::size_t count = std::min<std::size_t>(
      keywords.size(), 1 + static_cast<std::size_t>(rng->UniformU32(3)));
  keywords.resize(count);
  spec.keywords = std::move(keywords);
  return spec;
}

/// `items` cold searches; every kBatchEvery-th item is a POST /v1/batch of
/// kBatchSize such searches.
inline std::vector<SearchItem> MakeSearchScript(
    const AttributedGraph& g, const std::vector<VertexId>& population,
    std::uint64_t seed, const std::string& session, std::size_t items) {
  Rng rng(seed);
  std::vector<SearchItem> script(items);
  for (std::size_t i = 0; i < items; ++i) {
    SearchItem& item = script[i];
    item.batch = i % kBatchEvery == kBatchEvery - 1;
    if (!item.batch) {
      item.queries.push_back(UniformQuery(g, population, &rng));
      item.request = SearchRequestText(g, item.queries[0], false, session);
      continue;
    }
    std::string body = "[";
    for (std::size_t e = 0; e < kBatchSize; ++e) {
      item.queries.push_back(UniformQuery(g, population, &rng));
      const QuerySpec& spec = item.queries.back();
      if (e > 0) body += ',';
      body += "{\"vertex\":" + std::to_string(spec.q) +
              ",\"k\":" + std::to_string(kK) + ",\"keywords\":[";
      for (std::size_t k = 0; k < spec.keywords.size(); ++k) {
        if (k > 0) body += ',';
        body += "\"" + spec.keywords[k] + "\"";
      }
      body += "],\"algo\":\"ACQ\"}";
    }
    item.request = "POST /v1/batch?session=" + session + "\n\n" + body + "]";
  }
  return script;
}

inline std::string EdgesBody(
    const std::vector<std::pair<VertexId, VertexId>>& edges) {
  std::string body = "{\"edges\":[";
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i > 0) body += ',';
    body += "[" + std::to_string(edges[i].first) + "," +
            std::to_string(edges[i].second) + "]";
  }
  return body + "]}";
}

/// `slots` writer operations. Edge batches are random (not triangle-
/// closing) non-edges of `g`, alternately 1 and 16 edges; each add is
/// followed by its mirror DELETE, so the topology returns to `g` after every
/// pair. Appended vertices take keywords from the existing vocabulary, so
/// the vocabulary never grows.
inline std::vector<WriteOp> MakeWriteScript(const AttributedGraph& g,
                                            std::uint64_t seed,
                                            const std::string& session,
                                            std::size_t slots) {
  Rng rng(seed);
  const auto n = static_cast<std::uint32_t>(g.num_vertices());
  const auto vocab = static_cast<std::uint32_t>(g.vocabulary().size());
  std::vector<WriteOp> script(slots);
  std::size_t edge_batches = 0;
  std::size_t appended = 0;
  const std::vector<std::pair<VertexId, VertexId>>* pending = nullptr;
  for (std::size_t i = 0; i < slots; ++i) {
    WriteOp& op = script[i];
    if ((i + 1) % kCompactEvery == 0) {
      op.kind = WriteOp::Kind::kCompact;
      op.request = "POST /v1/compact?session=" + session;
    } else if ((i + 1) % kVertexEvery == 0) {
      op.kind = WriteOp::Kind::kAddVertices;
      std::string body = "{\"vertices\":[";
      for (int v = 0; v < 4; ++v) {
        std::string name = "e2e writer vertex " + std::to_string(appended++);
        std::vector<std::string> keywords;
        for (int k = 0; k < 3; ++k) {
          keywords.emplace_back(g.vocabulary().Word(rng.UniformU32(vocab)));
        }
        if (v > 0) body += ',';
        body += "{\"name\":\"" + name + "\",\"keywords\":[";
        for (std::size_t k = 0; k < keywords.size(); ++k) {
          if (k > 0) body += ',';
          body += "\"" + keywords[k] + "\"";
        }
        body += "]}";
        op.vertices.emplace_back(std::move(name), std::move(keywords));
      }
      op.request = "POST /v1/vertices?session=" + session + "\n\n" + body +
                   "]}";
    } else if (pending != nullptr) {
      op.kind = WriteOp::Kind::kRemoveEdges;
      op.edges = *pending;
      pending = nullptr;
      op.request = "DELETE /v1/edges?session=" + session + "\n\n" +
                   EdgesBody(op.edges);
    } else {
      op.kind = WriteOp::Kind::kAddEdges;
      const std::size_t size = edge_batches++ % 2 == 0 ? 1 : 16;
      while (op.edges.size() < size) {
        const VertexId u = rng.UniformU32(n);
        const VertexId v = rng.UniformU32(n);
        if (u == v || g.graph().HasEdge(u, v)) continue;
        const std::pair<VertexId, VertexId> edge{std::min(u, v),
                                                 std::max(u, v)};
        if (std::find(op.edges.begin(), op.edges.end(), edge) !=
            op.edges.end()) {
          continue;
        }
        op.edges.push_back(edge);
      }
      pending = &op.edges;
      op.request = "POST /v1/edges?session=" + session + "\n\n" +
                   EdgesBody(op.edges);
    }
  }
  return script;
}

}  // namespace e2e
}  // namespace cexplorer

#endif  // CEXPLORER_E2EBENCH_SCRIPTS_H_
