#include "api/query_service.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <utility>

#include "api/routes.h"
#include "common/json.h"
#include "common/simd/simd.h"
#include "common/strings.h"
#include "explorer/explorer.h"
#include "metrics/quality.h"

namespace cexplorer {
namespace api {

namespace {

/// Server version reported by /v1/version. Bump on releases.
constexpr const char* kServerVersion = "0.4.0";

/// Default page size when a cursor is presented without an explicit limit.
constexpr std::uint64_t kDefaultPageLimit = 100;

/// The most members a legacy full shape carries: search results truncate
/// longer member lists here, and /v1/community without a page and
/// /v1/export refuse larger communities, whose all-pairs force layout
/// would run for minutes (about 2 s already at this size).
constexpr std::size_t kMaxFullShapeMembers = 2000;

/// Serializes the members[begin, end) window of a community as the
/// {"id","name"} objects shared by every response shape (full, truncated,
/// paginated) — one loop, so the shapes can never drift apart.
void WriteMembers(JsonWriter* w, const AttributedGraph& graph,
                  const cexplorer::Community& community, std::size_t begin,
                  std::size_t end) {
  w->Key("members");
  w->BeginArray();
  for (std::size_t i = begin; i < end; ++i) {
    VertexId v = community.vertices[i];
    w->BeginObject();
    w->Key("id");
    w->UInt(v);
    w->Key("name");
    w->String(graph.Name(v));
    w->EndObject();
  }
  w->EndArray();
}

void WriteTheme(JsonWriter* w, const AttributedGraph& graph,
                const cexplorer::Community& community) {
  w->Key("theme");
  w->BeginArray();
  for (KeywordId kw : community.shared_keywords) {
    w->String(graph.vocabulary().Word(kw));
  }
  w->EndArray();
}

/// Serializes one community (members with names, shared keywords) in the
/// legacy full shape. Very large communities get their member list
/// truncated, flagged by the "members_truncated" field.
void WriteCommunity(JsonWriter* w, const AttributedGraph& graph,
                    const cexplorer::Community& community,
                    std::size_t max_members = kMaxFullShapeMembers) {
  w->BeginObject();
  w->Key("method");
  w->String(community.method);
  w->Key("size");
  w->UInt(community.vertices.size());
  const std::size_t shown = std::min(community.vertices.size(), max_members);
  WriteMembers(w, graph, community, 0, shown);
  if (shown < community.vertices.size()) {
    w->Key("members_truncated");
    w->Bool(true);
  }
  WriteTheme(w, graph, community);
  w->EndObject();
}

/// Serializes one page of a community's member list plus the "page" object
/// with the continuation cursor (present only when members remain).
void WriteCommunityPage(JsonWriter* w, const AttributedGraph& graph,
                        const cexplorer::Community& community,
                        std::uint64_t offset, std::uint64_t limit,
                        const PageToken& next) {
  const std::uint64_t total = community.vertices.size();
  const std::uint64_t begin = std::min(offset, total);
  const std::uint64_t end = std::min(begin + limit, total);
  w->Key("community");
  w->BeginObject();
  w->Key("method");
  w->String(community.method);
  w->Key("size");
  w->UInt(total);
  WriteMembers(w, graph, community, begin, end);
  WriteTheme(w, graph, community);
  w->EndObject();
  w->Key("page");
  w->BeginObject();
  w->Key("offset");
  w->UInt(begin);
  w->Key("limit");
  w->UInt(limit);
  w->Key("returned");
  w->UInt(end - begin);
  w->Key("total");
  w->UInt(total);
  if (end < total) {
    PageToken token = next;
    token.offset = end;
    w->Key("next_cursor");
    w->String(token.Encode());
  }
  w->EndObject();
}

/// Writes the inner error object of the envelope ({"code","message"}), used
/// for per-slot batch errors.
void WriteErrorValue(JsonWriter* w, ApiCode code, const std::string& message) {
  w->BeginObject();
  w->Key("code");
  w->String(ApiCodeName(code));
  w->Key("message");
  w->String(message);
  w->EndObject();
}

/// Writes the fields of the /v1/detect response shape (algorithm, cluster
/// count, modularity, size histogram) into the currently open object —
/// shared between the synchronous endpoint and finished detection jobs.
void WriteDetectionFields(JsonWriter* w, const Graph& graph,
                          const Clustering& clustering,
                          const std::string& algo) {
  // Cluster-size histogram: how many clusters of each magnitude.
  auto sizes = clustering.Sizes();
  std::size_t singletons = 0;
  std::size_t small = 0;   // 2..9
  std::size_t medium = 0;  // 10..99
  std::size_t large = 0;   // 100+
  std::size_t largest = 0;
  for (std::size_t s : sizes) {
    largest = std::max(largest, s);
    if (s <= 1) {
      ++singletons;
    } else if (s < 10) {
      ++small;
    } else if (s < 100) {
      ++medium;
    } else {
      ++large;
    }
  }

  w->Key("algorithm");
  w->String(algo);
  w->Key("num_clusters");
  w->UInt(clustering.num_clusters);
  w->Key("modularity");
  w->Double(Modularity(graph, clustering));
  w->Key("largest_cluster");
  w->UInt(largest);
  w->Key("size_histogram");
  w->BeginObject();
  w->Key("singleton");
  w->UInt(singletons);
  w->Key("small_2_9");
  w->UInt(small);
  w->Key("medium_10_99");
  w->UInt(medium);
  w->Key("large_100_plus");
  w->UInt(large);
  w->EndObject();
}

/// Writes one search-result shape (algorithm, count, full community list)
/// into the currently open object — shared between the synchronous /search
/// path and finished search jobs.
void WriteSearchFields(JsonWriter* w, const AttributedGraph& graph,
                       const std::string& algo,
                       const std::vector<cexplorer::Community>& communities) {
  w->Key("algorithm");
  w->String(algo);
  w->Key("num_communities");
  w->UInt(communities.size());
  w->Key("communities");
  w->BeginArray();
  for (const auto& community : communities) {
    WriteCommunity(w, graph, community);
  }
  w->EndArray();
}

/// Writes one job document ({"id","algo","kind","state","progress",...}).
void WriteJobObject(JsonWriter* w, const Job::Snapshot& snapshot) {
  w->BeginObject();
  w->Key("id");
  w->String(snapshot.id);
  w->Key("algo");
  w->String(snapshot.algo);
  w->Key("kind");
  w->String(AlgorithmKindName(snapshot.kind));
  w->Key("state");
  w->String(JobStateName(snapshot.state));
  w->Key("progress");
  w->Double(snapshot.progress);
  w->Key("dataset_id");
  w->UInt(snapshot.dataset_id);
  w->Key("runtime_ms");
  w->Int(snapshot.runtime_ms);
  if (snapshot.deadline_ms > 0) {
    w->Key("deadline_ms");
    w->Int(snapshot.deadline_ms);
  }
  if (!snapshot.error.ok()) {
    const ApiError error = FromStatus(snapshot.error);
    w->Key("error");
    WriteErrorValue(w, error.code, error.message);
  }
  w->EndObject();
}

/// Renders a JSON scalar as the string form ParamBag expects.
std::string ScalarToParamString(const JsonValue& value) {
  switch (value.type()) {
    case JsonValue::Type::kString:
      return value.AsString();
    case JsonValue::Type::kBool:
      return value.AsBool() ? "true" : "false";
    default:
      return value.Dump();
  }
}

/// An explicit JSON `vertex`, `k` or edge endpoint through the checked
/// conversion (CheckedUint32); a non-number fails like an out-of-range one.
std::optional<std::uint32_t> Uint32Field(const JsonValue& value) {
  if (value.type() != JsonValue::Type::kNumber) return std::nullopt;
  return CheckedUint32(value.AsDouble());
}

/// Decodes the POST /v1/jobs body into a JobSpec (kind not yet resolved —
/// the caller matches it against the registry). `kind_text` receives the
/// raw "kind" field ("" when absent).
ApiResult<JobSpec> ParseJobSpec(const std::string& body,
                                std::string* kind_text) {
  auto parsed = JsonValue::Parse(body);
  if (!parsed.ok() || !parsed->is_object()) {
    return ApiError::InvalidArgument(
        "job spec must be a JSON object "
        "({\"algo\",\"kind\",\"params\",...})");
  }
  JobSpec spec;
  spec.algo = parsed->Get("algo").AsString();
  if (spec.algo.empty()) {
    return ApiError::InvalidArgument("job spec needs an 'algo'");
  }
  *kind_text = parsed->Get("kind").AsString();
  if (parsed->Has("name")) spec.query.name = parsed->Get("name").AsString();
  if (parsed->Has("vertex")) {
    const auto v = Uint32Field(parsed->Get("vertex"));
    if (!v) return ApiError::InvalidArgument("bad 'vertex'");
    spec.query.vertices.push_back(*v);
  }
  if (parsed->Has("k")) {
    const auto k = Uint32Field(parsed->Get("k"));
    if (!k) return ApiError::InvalidArgument("bad 'k'");
    spec.query.k = *k;
  }
  const JsonValue& kws = parsed->Get("keywords");
  if (kws.is_array()) {
    for (const JsonValue& kw : kws.Items()) {
      if (!kw.AsString().empty()) {
        spec.query.keywords.push_back(kw.AsString());
      }
    }
  } else if (!kws.AsString().empty()) {
    spec.query.keywords = SplitNonEmpty(kws.AsString(), ',');
  }
  const JsonValue& params = parsed->Get("params");
  if (!params.is_null()) {
    if (!params.is_object()) {
      return ApiError::InvalidArgument("'params' must be a JSON object");
    }
    for (const auto& [name, value] : params.Members()) {
      spec.params[name] = ScalarToParamString(value);
    }
  }
  spec.deadline_ms = parsed->Get("deadline_ms").AsInt(0);
  if (spec.deadline_ms < 0) {
    return ApiError::InvalidArgument("'deadline_ms' must be non-negative");
  }
  return spec;
}

void WriteStats(JsonWriter* w, const CommunityAnalysis& analysis) {
  w->Key("stats");
  w->BeginObject();
  w->Key("vertices");
  w->UInt(analysis.stats.num_vertices);
  w->Key("edges");
  w->UInt(analysis.stats.num_edges);
  w->Key("avg_degree");
  w->Double(analysis.stats.average_degree);
  w->Key("cpj");
  w->Double(analysis.cpj);
  w->EndObject();
}

/// True iff the session's last search left a community with this id.
bool HasCachedCommunity(const Session& session, std::int64_t id) {
  return session.communities != nullptr && id >= 0 &&
         static_cast<std::size_t>(id) < session.communities->communities.size();
}

/// The answer of the routes that lay out a whole community (/v1/community
/// without a page, /v1/export) when it has too many members to lay out.
ApiError TooLargeToLayOut(std::size_t members) {
  const std::string limit = std::to_string(kMaxFullShapeMembers);
  return ApiError::InvalidArgument(
      "community has " + std::to_string(members) + " members; the full " +
      "/v1/community shape and /v1/export lay out at most " + limit +
      "; page through it with /v1/community?id=N&limit=L");
}

/// Resolved pagination window. When `paginated` is false the endpoint
/// renders its legacy full shape.
struct PageWindow {
  bool paginated = false;
  std::uint64_t offset = 0;
  std::uint64_t limit = 0;
};

/// Applies the cursor contract: a cursor must decode, must have been minted
/// by the same endpoint family for the same `object_id`, and must carry the
/// current graph epoch and result-set generation — an /upload or a new
/// search/detect in between makes it kConflict, because the member lists it
/// pointed into are gone.
ApiResult<PageWindow> ResolvePage(const PageParams& page, std::uint64_t epoch,
                                  PageToken::Kind kind,
                                  std::uint64_t object_id,
                                  std::uint64_t generation) {
  PageWindow window;
  if (page.cursor.empty() && page.limit == 0) return window;  // legacy shape
  window.paginated = true;
  window.limit = page.limit == 0 ? kDefaultPageLimit : page.limit;
  if (!page.cursor.empty()) {
    auto token = PageToken::Decode(page.cursor);
    if (!token.ok()) return token.error();
    if (token->kind != kind || token->object_id != object_id) {
      return ApiError::InvalidArgument(
          "cursor was minted for a different object (id " +
          std::to_string(token->object_id) + ")");
    }
    if (token->graph_epoch != epoch) {
      return ApiError::Conflict(
          "cursor refers to a superseded graph snapshot; restart pagination");
    }
    if (token->generation != generation) {
      return ApiError::Conflict(
          "cursor refers to a result set replaced by a newer search; "
          "restart pagination");
    }
    window.offset = token->offset;
  }
  return window;
}

/// The built-in registry, for descriptor lookups that must not depend on
/// (or wait for) any session: job-spec resolution, the /v1/api fallback,
/// and the result cache's "is this algorithm shared across sessions"
/// test. Read-only after construction, so concurrent readers are safe.
const Explorer& BuiltinExplorer() {
  static const Explorer kBuiltins;
  return kBuiltins;
}

/// Only built-in search algorithms are cacheable across sessions: their
/// names cannot be re-registered (the registry rejects duplicate keys), so
/// one name means one deterministic algorithm for every session. A
/// session-local plug-in gets its own execution every time.
bool CacheableSearchAlgo(const std::string& algo) {
  return BuiltinExplorer().Describe(AlgorithmKind::kCommunitySearch, algo) !=
         nullptr;
}

/// The snapshot-keyed cache key: graph epoch, algorithm, and the
/// canonicalized query. Keywords are sorted and deduplicated (every
/// built-in treats S as a set — ACQ sorts internally, the others ignore
/// it); vertices keep their order (Global/Local anchor on the first).
/// Free-form fields (name, keywords) are length-prefixed so no byte an
/// uploaded vocabulary or a %-escaped query can contain forges a field or
/// item boundary — two distinct queries can never share a key.
std::string SearchCacheKey(std::uint64_t epoch, const std::string& algo,
                           const Query& query) {
  constexpr char kField = '\x1e';
  std::string key;
  key.reserve(64 + query.name.size());
  auto append_sized = [&key](const std::string& text) {
    key += std::to_string(text.size());
    key += ':';
    key += text;
  };
  key += std::to_string(epoch);
  key += kField;
  key += algo;
  key += kField;
  key += std::to_string(query.k);
  key += kField;
  append_sized(query.name);
  key += kField;
  for (VertexId v : query.vertices) {
    key += std::to_string(v);
    key += ',';
  }
  key += kField;
  std::vector<std::string> keywords = query.keywords;
  std::sort(keywords.begin(), keywords.end());
  keywords.erase(std::unique(keywords.begin(), keywords.end()), keywords.end());
  for (const std::string& kw : keywords) {
    append_sized(kw);
  }
  return key;
}

}  // namespace

QueryService::QueryService()
    : result_cache_(std::make_shared<ResultCache>()),
      start_time_(ExecControl::Clock::now()) {}

void QueryService::ConfigureResultCache(std::size_t capacity,
                                        std::size_t shards,
                                        std::size_t max_bytes) {
  auto fresh = std::make_shared<ResultCache>(capacity, shards, max_bytes);
  std::lock_guard<std::mutex> lock(result_cache_mu_);
  result_cache_ = std::move(fresh);
}

std::shared_ptr<ResultCache> QueryService::result_cache() const {
  std::lock_guard<std::mutex> lock(result_cache_mu_);
  return result_cache_;
}

ResultCache::Stats QueryService::ResultCacheStats() const {
  return result_cache()->GetStats();
}

const ExecControl* QueryService::ArmSyncDeadline(ExecControl* control) const {
  const std::int64_t ms = sync_deadline_ms_.load(std::memory_order_relaxed);
  if (ms <= 0) return nullptr;
  control->set_deadline(ExecControl::Clock::now() +
                        std::chrono::milliseconds(ms));
  return control;
}

Status QueryService::UploadGraph(AttributedGraph graph) {
  auto dataset = Dataset::Build(std::move(graph));
  if (!dataset.ok()) return dataset.status();
  SwapDataset(std::move(dataset.value()));
  return Status::Ok();
}

Status QueryService::Upload(const std::string& path) {
  auto dataset = Dataset::FromFile(path);
  if (!dataset.ok()) return dataset.status();
  SwapDataset(std::move(dataset.value()));
  return Status::Ok();
}

bool QueryService::AttachDataset(DatasetPtr dataset) {
  return SwapDataset(std::move(dataset));
}

DatasetPtr QueryService::dataset() const {
  std::shared_lock<std::shared_mutex> lock(dataset_mu_);
  return dataset_;
}

bool QueryService::InstallDataset(const DatasetPtr* expected,
                                  DatasetPtr fresh) {
  bool epoch_changed = false;
  DatasetPtr replaced;  // released after the lock
  {
    std::unique_lock<std::shared_mutex> lock(dataset_mu_);
    if (fresh == nullptr) return false;
    if (expected != nullptr) {
      // CAS mode: install only over the exact snapshot the caller built
      // against (uploads in flight, mutation publishes, compactions).
      if (dataset_ != *expected) return false;  // lost the race; don't revert
    } else if (dataset_ != nullptr && fresh->id() < dataset_->id()) {
      // Unconditional mode still only moves forward in snapshot-id order:
      // concurrent programmatic uploads linearize to the newest dataset,
      // keeping the monotonic-id invariant the per-session late-attach
      // relies on.
      return false;
    }
    epoch_changed = dataset_ == nullptr ||
                    dataset_->graph_epoch() != fresh->graph_epoch();
    replaced = std::move(dataset_);
    dataset_ = std::move(fresh);
  }
  // Keys carry the epoch, so stale entries could never *hit*; clearing on a
  // graph swap just stops them from occupying capacity. Index-only swaps
  // and compactions keep the epoch and the cache stays warm. Because every
  // install funnels through here, no consumer can ever observe a graph
  // change (upload, snapshot load, or mutation) without its epoch change.
  if (epoch_changed) result_cache()->Clear();
  return true;
}

bool QueryService::SwapDataset(DatasetPtr dataset) {
  return InstallDataset(/*expected=*/nullptr, std::move(dataset));
}

bool QueryService::PublishDataset(RequestContext& ctx, DatasetPtr fresh) {
  if (!InstallDataset(&ctx.dataset, fresh)) return false;
  ctx.dataset = std::move(fresh);
  return true;
}

void QueryService::AttachLocked(RequestContext& ctx, bool adopt_newer,
                                bool clear_history) {
  // History clears unconditionally: a successful upload resets the
  // session's exploration chain even if a still-newer snapshot already
  // landed meanwhile.
  if (clear_history) ctx.session->history.clear();
  const DatasetPtr& attached = ctx.session->explorer.dataset();
  if (attached != nullptr && ctx.dataset != nullptr &&
      attached->id() > ctx.dataset->id()) {
    // A newer snapshot already landed on this session while this request
    // (or publish) was in flight; never move a session backwards, and
    // don't wipe the state its clients built against the newer snapshot.
    if (adopt_newer) ctx.dataset = attached;
    return;
  }
  if (ctx.dataset != nullptr && attached != ctx.dataset) {
    // Caches derived from the same graph survive index-only swaps; a new
    // graph epoch invalidates them.
    const bool epoch_changed =
        attached == nullptr ||
        attached->graph_epoch() != ctx.dataset->graph_epoch();
    ctx.session->explorer.AttachDataset(ctx.dataset);
    if (epoch_changed) ctx.session->InvalidateCaches();
  }
}

void QueryService::AttachToSession(RequestContext& ctx, bool clear_history) {
  std::lock_guard<std::mutex> lock(ctx.session->mu);
  AttachLocked(ctx, /*adopt_newer=*/false, clear_history);
}

ApiResult<QueryService::RequestContext> QueryService::Begin(
    const std::string& session_id) {
  RequestContext ctx;
  // Requests without a session share the implicit "default" session (the
  // single-browser demo of the paper).
  if (session_id.empty()) {
    ctx.session = sessions_.GetOrCreate("default");
  } else {
    ctx.session = sessions_.Get(session_id);
    if (ctx.session == nullptr) {
      return ApiError::NotFound("unknown session '" + session_id +
                                "'; create one via /v1/session/new first");
    }
  }
  {
    // Shared lock just long enough to copy the pointer: the snapshot stays
    // alive for the whole request even if an upload swaps it out meanwhile.
    std::shared_lock<std::shared_mutex> lock(dataset_mu_);
    ctx.dataset = dataset_;
  }
  return ctx;
}

namespace {

/// Decodes an edge-batch body: {"edges": [[u, v], ...]} or the bare array.
ApiResult<std::vector<std::pair<VertexId, VertexId>>> ParseEdgePairs(
    const std::string& body) {
  auto parsed = JsonValue::Parse(body);
  if (!parsed.ok()) {
    return ApiError::InvalidArgument("malformed JSON body: " +
                                     parsed.status().message());
  }
  const JsonValue& root = parsed.value();
  const JsonValue* list = &root;
  if (root.is_object()) {
    if (!root.Has("edges")) {
      return ApiError::InvalidArgument(
          "missing 'edges': pass {\"edges\": [[u, v], ...]} or the bare "
          "array");
    }
    list = &root.Get("edges");
  }
  if (!list->is_array()) {
    return ApiError::InvalidArgument("'edges' must be an array of [u, v] "
                                     "pairs");
  }
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(list->Items().size());
  for (const JsonValue& entry : list->Items()) {
    const auto& pair = entry.Items();
    if (!entry.is_array() || pair.size() != 2 ||
        pair[0].type() != JsonValue::Type::kNumber ||
        pair[1].type() != JsonValue::Type::kNumber) {
      return ApiError::InvalidArgument(
          "each edge must be a [u, v] pair of integers");
    }
    const auto u = Uint32Field(pair[0]);
    const auto v = Uint32Field(pair[1]);
    if (!u || !v) {
      return ApiError::InvalidArgument(
          "edge endpoints must be vertex ids in [0, 4294967295]");
    }
    edges.emplace_back(*u, *v);
  }
  if (edges.empty()) {
    return ApiError::InvalidArgument("empty edge batch");
  }
  return edges;
}

/// Decodes a vertex-batch body: {"vertices": [{"name", "keywords"}, ...]}
/// or the bare array; both fields optional per vertex.
ApiResult<std::vector<delta::NewVertex>> ParseNewVertices(
    const std::string& body) {
  auto parsed = JsonValue::Parse(body);
  if (!parsed.ok()) {
    return ApiError::InvalidArgument("malformed JSON body: " +
                                     parsed.status().message());
  }
  const JsonValue& root = parsed.value();
  const JsonValue* list = &root;
  if (root.is_object()) {
    if (!root.Has("vertices")) {
      return ApiError::InvalidArgument(
          "missing 'vertices': pass {\"vertices\": [{\"name\", "
          "\"keywords\"}, ...]} or the bare array");
    }
    list = &root.Get("vertices");
  }
  if (!list->is_array()) {
    return ApiError::InvalidArgument("'vertices' must be an array of "
                                     "objects");
  }
  std::vector<delta::NewVertex> vertices;
  vertices.reserve(list->Items().size());
  for (const JsonValue& entry : list->Items()) {
    if (!entry.is_object()) {
      return ApiError::InvalidArgument(
          "each vertex must be an object with optional 'name' and "
          "'keywords'");
    }
    delta::NewVertex nv;
    nv.name = entry.Get("name").AsString();
    const JsonValue& keywords = entry.Get("keywords");
    if (!keywords.is_null()) {
      if (!keywords.is_array()) {
        return ApiError::InvalidArgument("'keywords' must be an array of "
                                         "strings");
      }
      for (const JsonValue& kw : keywords.Items()) {
        if (kw.type() != JsonValue::Type::kString) {
          return ApiError::InvalidArgument("'keywords' must be an array of "
                                           "strings");
        }
        nv.keywords.push_back(kw.AsString());
      }
    }
    vertices.push_back(std::move(nv));
  }
  if (vertices.empty()) {
    return ApiError::InvalidArgument("empty vertex batch");
  }
  return vertices;
}

}  // namespace

delta::Mutator& QueryService::mutator() {
  std::lock_guard<std::mutex> lock(mutator_mu_);
  if (mutator_ == nullptr) {
    mutator_ = std::make_unique<delta::Mutator>(
        [this](const DatasetPtr& expected, DatasetPtr fresh) {
          return InstallDataset(&expected, std::move(fresh));
        });
  }
  return *mutator_;
}

ApiResult<std::string> QueryService::ApplyMutations(
    const std::string& session, delta::MutationBatch batch) {
  auto begun = Begin(session);
  if (!begun.ok()) return begun.error();
  RequestContext ctx = std::move(begun).value();
  if (ctx.dataset == nullptr) {
    return ApiError::Conflict("no graph uploaded");
  }
  auto applied = mutator().Apply(ctx.dataset, batch);
  if (!applied.ok()) return FromStatus(applied.status());
  ctx.dataset = applied->dataset;
  AttachToSession(ctx, /*clear_history=*/false);
  const delta::ApplyCounts& counts = applied->counts;
  JsonWriter w = JsonWriter::Recycled();
  w.BeginObject();
  w.Key("applied");
  w.Bool(true);
  w.Key("edges_added");
  w.UInt(counts.edges_added);
  w.Key("edges_ignored");
  w.UInt(counts.edges_ignored);
  w.Key("edges_removed");
  w.UInt(counts.edges_removed);
  w.Key("edges_missing");
  w.UInt(counts.edges_missing);
  w.Key("vertices_added");
  w.UInt(counts.vertices_added);
  w.Key("dataset_id");
  w.UInt(ctx.dataset->id());
  w.Key("graph_epoch");
  w.UInt(ctx.dataset->graph_epoch());
  w.Key("vertices");
  w.UInt(ctx.dataset->graph().num_vertices());
  w.Key("edges");
  w.UInt(ctx.dataset->graph().graph().num_edges());
  w.EndObject();
  return w.TakeString();
}

ApiResult<std::string> QueryService::AddEdges(const MutationRequest& request) {
  if (request.body.empty()) {
    return ApiError::InvalidArgument(
        "missing mutation body: POST {\"edges\": [[u, v], ...]}");
  }
  auto edges = ParseEdgePairs(request.body);
  if (!edges.ok()) return edges.error();
  delta::MutationBatch batch;
  batch.add_edges = std::move(edges).value();
  return ApplyMutations(request.session, std::move(batch));
}

ApiResult<std::string> QueryService::RemoveEdges(
    const MutationRequest& request) {
  if (request.body.empty()) {
    return ApiError::InvalidArgument(
        "missing mutation body: send {\"edges\": [[u, v], ...]}");
  }
  auto edges = ParseEdgePairs(request.body);
  if (!edges.ok()) return edges.error();
  delta::MutationBatch batch;
  batch.remove_edges = std::move(edges).value();
  return ApplyMutations(request.session, std::move(batch));
}

ApiResult<std::string> QueryService::AddVertices(
    const MutationRequest& request) {
  if (request.body.empty()) {
    return ApiError::InvalidArgument(
        "missing mutation body: POST {\"vertices\": [{\"name\", "
        "\"keywords\"}, ...]}");
  }
  auto vertices = ParseNewVertices(request.body);
  if (!vertices.ok()) return vertices.error();
  delta::MutationBatch batch;
  batch.add_vertices = std::move(vertices).value();
  return ApplyMutations(request.session, std::move(batch));
}

ApiResult<std::string> QueryService::CompactMutations(
    const std::string& session) {
  auto begun = Begin(session);
  if (!begun.ok()) return begun.error();
  RequestContext ctx = std::move(begun).value();
  if (ctx.dataset == nullptr) {
    return ApiError::Conflict("no graph uploaded");
  }
  auto compacted = mutator().CompactNow(ctx.dataset);
  if (!compacted.ok()) return FromStatus(compacted.status());
  const bool folded = compacted.value() != ctx.dataset;
  ctx.dataset = std::move(compacted).value();
  if (ctx.dataset != nullptr) {
    AttachToSession(ctx, /*clear_history=*/false);
  }
  JsonWriter w = JsonWriter::Recycled();
  w.BeginObject();
  w.Key("compacted");
  w.Bool(folded);
  if (ctx.dataset != nullptr) {
    w.Key("dataset_id");
    w.UInt(ctx.dataset->id());
    w.Key("graph_epoch");
    w.UInt(ctx.dataset->graph_epoch());
    w.Key("storage");
    w.String(ctx.dataset->storage().mode);
  }
  w.EndObject();
  return w.TakeString();
}

delta::MutationStats QueryService::MutationStatsNow() {
  const DatasetPtr snapshot = dataset();
  std::lock_guard<std::mutex> lock(mutator_mu_);
  if (mutator_ == nullptr) {
    delta::MutationStats stats;
    stats.active = snapshot != nullptr && snapshot->is_overlay();
    return stats;
  }
  return mutator_->StatsFor(snapshot);
}

ApiResult<std::string> QueryService::CreateSession() {
  auto session = sessions_.Create();
  if (session == nullptr) {
    return ApiError::Unavailable("session limit reached");
  }
  JsonWriter w = JsonWriter::Recycled();
  w.BeginObject();
  w.Key("session");
  w.String(session->id);
  w.EndObject();
  return w.TakeString();
}

ApiResult<std::string> QueryService::DeleteSession(const std::string& id) {
  if (id.empty()) return ApiError::InvalidArgument("missing session id");
  if (!sessions_.Remove(id)) {
    return ApiError::NotFound("unknown session '" + id + "'");
  }
  JsonWriter w = JsonWriter::Recycled();
  w.BeginObject();
  w.Key("deleted");
  w.String(id);
  w.EndObject();
  return w.TakeString();
}

ApiResult<std::string> QueryService::ListSessions() {
  JsonWriter w = JsonWriter::Recycled();
  w.BeginObject();
  w.Key("sessions");
  w.BeginArray();
  for (const auto& session : sessions_.List()) {
    // try_lock: a session stuck in a long query shows as busy instead of
    // stalling the whole listing.
    std::unique_lock<std::mutex> lock(session->mu, std::try_to_lock);
    w.BeginObject();
    w.Key("id");
    w.String(session->id);
    if (lock.owns_lock()) {
      w.Key("cached_communities");
      w.UInt(session->communities == nullptr
                 ? 0
                 : session->communities->communities.size());
      w.Key("history_length");
      w.UInt(session->history.size());
      const DatasetPtr& snapshot = session->explorer.dataset();
      w.Key("dataset_id");
      w.UInt(snapshot == nullptr ? 0 : snapshot->id());
    } else {
      w.Key("busy");
      w.Bool(true);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

ApiResult<std::string> QueryService::Summary(const std::string& session) {
  auto begun = Begin(session);
  if (!begun.ok()) return begun.error();
  RequestContext ctx = std::move(begun).value();
  std::lock_guard<std::mutex> lock(ctx.session->mu);
  AttachLocked(ctx, /*adopt_newer=*/true, /*clear_history=*/false);
  const Explorer& explorer = ctx.session->explorer;
  JsonWriter w = JsonWriter::Recycled();
  w.BeginObject();
  w.Key("system");
  w.String("C-Explorer");
  w.Key("session");
  w.String(ctx.session->id);
  w.Key("num_sessions");
  w.UInt(sessions_.size());
  w.Key("graph_loaded");
  w.Bool(ctx.dataset != nullptr);
  if (ctx.dataset != nullptr) {
    w.Key("dataset_id");
    w.UInt(ctx.dataset->id());
    w.Key("vertices");
    w.UInt(ctx.dataset->graph().num_vertices());
    w.Key("edges");
    w.UInt(ctx.dataset->graph().graph().num_edges());
  }
  w.Key("cs_algorithms");
  w.BeginArray();
  for (const auto& name : explorer.CsAlgorithmNames()) w.String(name);
  w.EndArray();
  w.Key("cd_algorithms");
  w.BeginArray();
  for (const auto& name : explorer.CdAlgorithmNames()) w.String(name);
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

ApiResult<std::string> QueryService::RunSearch(RequestContext& ctx,
                                               const std::string& algo,
                                               const Query& query,
                                               const ExecControl* control) {
  Session& session = *ctx.session;

  auto record_in_session = [&](const Query& q) {
    session.communities_epoch = ctx.dataset->graph_epoch();
    // Invalidates outstanding page cursors, including across sessions.
    session.communities_generation = NextResultGeneration();
    session.last_query = q;
    std::string who = q.name;
    if (who.empty() && !q.vertices.empty()) {
      who = ctx.dataset->graph().Name(q.vertices.front());
    }
    session.history.push_back(algo + ":" + who + ":k=" + std::to_string(q.k));
  };

  // Identical searches (any session) are answered from the shared result
  // cache: no algorithm execution, no rendering. The session then holds
  // the cached entry itself as its browser cache, so /community, /export
  // and /explore behave exactly as after a real run, and a click reuses
  // the analysis any session already computed on that entry.
  const std::shared_ptr<ResultCache> cache = result_cache();
  const bool cacheable = cache->enabled() && CacheableSearchAlgo(algo);
  std::string cache_key;
  if (cacheable) {
    cache_key = SearchCacheKey(ctx.dataset->graph_epoch(), algo, query);
    if (CachedSearchPtr hit = cache->Get(cache_key)) {
      session.communities = std::move(hit);
      record_in_session(query);
      return session.communities->body;
    }
  }

  auto communities = session.explorer.Search(algo, query, control);
  if (!communities.ok()) return FromStatus(communities.status());
  auto result = std::make_shared<CachedSearch>();
  result->communities = std::move(communities).value();
  JsonWriter w = JsonWriter::Recycled();
  w.BeginObject();
  WriteSearchFields(&w, ctx.dataset->graph(), algo, result->communities);
  w.EndObject();
  result->body = w.TakeString();
  session.communities = result;
  record_in_session(query);
  if (cacheable) cache->Put(cache_key, result);
  return result->body;
}

ApiResult<std::string> QueryService::Search(const SearchRequest& request) {
  auto begun = Begin(request.session);
  if (!begun.ok()) return begun.error();
  RequestContext ctx = std::move(begun).value();
  std::lock_guard<std::mutex> lock(ctx.session->mu);
  AttachLocked(ctx, /*adopt_newer=*/true, /*clear_history=*/false);
  if (ctx.dataset == nullptr) {
    return ApiError::Conflict("no graph uploaded");
  }
  if (request.name.empty() && request.vertices.empty()) {
    return ApiError::InvalidArgument("search needs a 'name' or a 'vertex'");
  }
  Query query;
  query.name = request.name;
  query.vertices = request.vertices;
  query.k = request.k;
  query.keywords = request.keywords;
  ExecControl control;
  return RunSearch(ctx, request.algo.empty() ? "ACQ" : request.algo, query,
                   ArmSyncDeadline(&control));
}

ApiResult<std::string> QueryService::Explore(const ExploreRequest& request) {
  auto begun = Begin(request.session);
  if (!begun.ok()) return begun.error();
  RequestContext ctx = std::move(begun).value();
  std::lock_guard<std::mutex> lock(ctx.session->mu);
  AttachLocked(ctx, /*adopt_newer=*/true, /*clear_history=*/false);
  if (ctx.dataset == nullptr) {
    return ApiError::Conflict("no graph uploaded");
  }
  if (request.vertex >= ctx.dataset->graph().num_vertices()) {
    return ApiError::NotFound("vertex not found");
  }
  Query query;
  query.vertices.push_back(request.vertex);
  query.k = request.k >= 0 ? static_cast<std::uint32_t>(request.k)
                           : ctx.session->last_query.k;
  ExecControl control;
  return RunSearch(ctx, request.algo.empty() ? "ACQ" : request.algo, query,
                   ArmSyncDeadline(&control));
}

ApiResult<std::string> QueryService::Compare(const CompareRequest& request) {
  auto begun = Begin(request.session);
  if (!begun.ok()) return begun.error();
  RequestContext ctx = std::move(begun).value();
  std::lock_guard<std::mutex> lock(ctx.session->mu);
  AttachLocked(ctx, /*adopt_newer=*/true, /*clear_history=*/false);
  if (ctx.dataset == nullptr) {
    return ApiError::Conflict("no graph uploaded");
  }
  if (request.name.empty()) {
    return ApiError::InvalidArgument("compare needs a 'name'");
  }
  Query query;
  query.name = request.name;
  query.k = request.k;
  query.keywords = request.keywords;
  std::vector<std::string> algos = request.algos;
  if (algos.empty()) algos = {"Global", "Local", "CODICIL", "ACQ"};
  ExecControl control;
  auto report = ctx.session->explorer.Compare(query, algos,
                                              ArmSyncDeadline(&control));
  if (!report.ok()) return FromStatus(report.status());

  JsonWriter w = JsonWriter::Recycled();
  w.BeginObject();
  w.Key("query");
  w.String(query.name);
  w.Key("k");
  w.UInt(query.k);
  w.Key("rows");
  w.BeginArray();
  for (const auto& row : report->rows) {
    w.BeginObject();
    w.Key("method");
    w.String(row.method);
    w.Key("communities");
    w.UInt(row.num_communities);
    w.Key("vertices");
    w.Double(row.avg_vertices);
    w.Key("edges");
    w.Double(row.avg_edges);
    w.Key("degree");
    w.Double(row.avg_degree);
    w.Key("cpj");
    w.Double(row.cpj);
    w.Key("cmf");
    w.Double(row.cmf);
    w.EndObject();
  }
  w.EndArray();
  w.Key("table");
  w.String(report->ToTable());
  w.EndObject();
  return w.TakeString();
}

ApiResult<std::string> QueryService::Detect(const DetectRequest& request) {
  auto begun = Begin(request.session);
  if (!begun.ok()) return begun.error();
  RequestContext ctx = std::move(begun).value();
  std::lock_guard<std::mutex> lock(ctx.session->mu);
  AttachLocked(ctx, /*adopt_newer=*/true, /*clear_history=*/false);
  if (ctx.dataset == nullptr) {
    return ApiError::Conflict("no graph uploaded");
  }
  Session& session = *ctx.session;
  const std::string algo = request.algo.empty() ? "CODICIL" : request.algo;
  ExecControl control;
  auto clustering = session.explorer.Detect(algo, ArmSyncDeadline(&control));
  if (!clustering.ok()) return FromStatus(clustering.status());
  session.detection = std::move(clustering.value());
  session.detection_algo = algo;
  session.detection_epoch = ctx.dataset->graph_epoch();
  // Invalidates outstanding page cursors, including across sessions.
  session.detection_generation = NextResultGeneration();
  session.history.push_back("detect:" + algo);

  JsonWriter w = JsonWriter::Recycled();
  w.BeginObject();
  WriteDetectionFields(&w, ctx.dataset->graph().graph(), session.detection,
                       algo);
  w.EndObject();
  return w.TakeString();
}

ApiResult<std::string> QueryService::Community(
    const CommunityRequest& request) {
  auto begun = Begin(request.session);
  if (!begun.ok()) return begun.error();
  RequestContext ctx = std::move(begun).value();
  std::lock_guard<std::mutex> lock(ctx.session->mu);
  AttachLocked(ctx, /*adopt_newer=*/true, /*clear_history=*/false);
  Session& session = *ctx.session;
  if (!HasCachedCommunity(session, request.id)) {
    return ApiError::NotFound("no cached community with that id");
  }
  if (ctx.dataset == nullptr ||
      session.communities_epoch != ctx.dataset->graph_epoch()) {
    return ApiError::Conflict(
        "cached communities are stale (graph was reloaded); search again");
  }
  const CachedSearch& search = *session.communities;
  const std::size_t index = static_cast<std::size_t>(request.id);
  const cexplorer::Community& community = search.communities[index];

  auto window = ResolvePage(request.page, ctx.dataset->graph_epoch(),
                            PageToken::Kind::kCommunity,
                            static_cast<std::uint64_t>(request.id),
                            session.communities_generation);
  if (!window.ok()) return window.error();

  if (window->paginated) {
    // Paginated shape: the requested member window, plus stats on the
    // first page only. The stats come from the search result's analysis
    // memo: the first click on a community computes them, every later
    // click on that result (any session, any page size) reads them. The
    // layout and ASCII rendering cover the WHOLE community and are only
    // produced in the legacy full shape.
    PageToken next{ctx.dataset->graph_epoch(), PageToken::Kind::kCommunity,
                   static_cast<std::uint64_t>(request.id),
                   session.communities_generation, 0};
    JsonWriter w = JsonWriter::Recycled();
    w.BeginObject();
    WriteCommunityPage(&w, ctx.dataset->graph(), community, window->offset,
                       window->limit, next);
    if (window->offset == 0) {
      auto analysis = search.Analysis(index, session.explorer);
      if (!analysis.ok()) {
        return ApiError::Internal(analysis.status().ToString());
      }
      WriteStats(&w, *analysis);
    }
    w.EndObject();
    return w.TakeString();
  }

  if (community.vertices.size() > kMaxFullShapeMembers) {
    return TooLargeToLayOut(community.vertices.size());
  }
  auto analysis = search.Analysis(index, session.explorer);
  if (!analysis.ok()) {
    return ApiError::Internal(analysis.status().ToString());
  }
  auto display = session.explorer.Display(community);
  if (!display.ok()) {
    return ApiError::Internal(display.status().ToString());
  }

  JsonWriter w = JsonWriter::Recycled();
  w.BeginObject();
  w.Key("community");
  WriteCommunity(&w, ctx.dataset->graph(), community);
  WriteStats(&w, *analysis);
  w.Key("layout");
  w.BeginArray();
  for (std::size_t i = 0; i < display->layout.size(); ++i) {
    w.BeginObject();
    w.Key("id");
    w.UInt(community.vertices[i]);
    w.Key("x");
    w.Double(display->layout[i].x);
    w.Key("y");
    w.Double(display->layout[i].y);
    w.EndObject();
  }
  w.EndArray();
  w.Key("ascii");
  w.String(display->ascii);
  w.EndObject();
  return w.TakeString();
}

ApiResult<std::string> QueryService::Cluster(const ClusterRequest& request) {
  auto begun = Begin(request.session);
  if (!begun.ok()) return begun.error();
  RequestContext ctx = std::move(begun).value();
  std::lock_guard<std::mutex> lock(ctx.session->mu);
  AttachLocked(ctx, /*adopt_newer=*/true, /*clear_history=*/false);
  Session& session = *ctx.session;
  if (session.detection.assignment.empty()) {
    return ApiError::NotFound("no detection result cached; run detect first");
  }
  if (ctx.dataset == nullptr ||
      session.detection_epoch != ctx.dataset->graph_epoch()) {
    return ApiError::Conflict(
        "cached detection is stale (graph was reloaded); detect again");
  }
  if (request.id < 0 || static_cast<std::uint64_t>(request.id) >=
                            session.detection.num_clusters) {
    return ApiError::NotFound("cluster id out of range");
  }
  cexplorer::Community community;
  community.method = session.detection_algo;
  community.vertices =
      session.detection.Members(static_cast<std::uint32_t>(request.id));

  auto window = ResolvePage(request.page, ctx.dataset->graph_epoch(),
                            PageToken::Kind::kCluster,
                            static_cast<std::uint64_t>(request.id),
                            session.detection_generation);
  if (!window.ok()) return window.error();

  JsonWriter w = JsonWriter::Recycled();
  w.BeginObject();
  w.Key("cluster");
  w.Int(request.id);
  if (window->paginated) {
    PageToken next{ctx.dataset->graph_epoch(), PageToken::Kind::kCluster,
                   static_cast<std::uint64_t>(request.id),
                   session.detection_generation, 0};
    WriteCommunityPage(&w, ctx.dataset->graph(), community, window->offset,
                       window->limit, next);
  } else {
    w.Key("community");
    WriteCommunity(&w, ctx.dataset->graph(), community, /*max_members=*/500);
  }
  // Stats scan the whole cluster's induced subgraph; on paginated reads
  // they are served with the first page only (see Community()).
  if (!window->paginated || window->offset == 0) {
    auto analysis = session.explorer.Analyze(community);
    if (!analysis.ok()) {
      return ApiError::Internal(analysis.status().ToString());
    }
    WriteStats(&w, *analysis);
  }
  w.EndObject();
  return w.TakeString();
}

ApiResult<std::string> QueryService::Profile(const ProfileRequest& request) {
  auto begun = Begin(request.session);
  if (!begun.ok()) return begun.error();
  RequestContext ctx = std::move(begun).value();
  std::lock_guard<std::mutex> lock(ctx.session->mu);
  AttachLocked(ctx, /*adopt_newer=*/true, /*clear_history=*/false);
  if (ctx.dataset == nullptr) {
    return ApiError::Conflict("no graph uploaded");
  }
  const AttributedGraph& graph = ctx.dataset->graph();
  VertexId v = kInvalidVertex;
  if (!request.name.empty()) {
    v = graph.FindByName(request.name);
  } else if (request.vertex >= 0) {
    v = static_cast<VertexId>(request.vertex);
  }
  if (v == kInvalidVertex || v >= graph.num_vertices()) {
    return ApiError::NotFound("author not found");
  }
  auto profile = ctx.dataset->Profile(v);
  if (!profile.ok()) {
    return ApiError::Internal(profile.status().ToString());
  }

  JsonWriter w = JsonWriter::Recycled();
  w.BeginObject();
  w.Key("id");
  w.UInt(v);
  w.Key("name");
  w.String(profile->name);
  w.Key("institute");
  w.String(profile->institute);
  w.Key("areas");
  w.BeginArray();
  for (const auto& area : profile->areas) w.String(area);
  w.EndArray();
  w.Key("interests");
  w.BeginArray();
  for (const auto& interest : profile->interests) w.String(interest);
  w.EndArray();
  w.Key("keywords");
  w.BeginArray();
  for (const auto& kw : graph.KeywordStrings(v)) w.String(kw);
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

ApiResult<std::string> QueryService::Author(const AuthorRequest& request) {
  // Populates the query form of Figure 1: after the user types a name, the
  // UI shows "a list of degree constraints, and a set of keywords of this
  // author".
  auto begun = Begin(request.session);
  if (!begun.ok()) return begun.error();
  RequestContext ctx = std::move(begun).value();
  std::lock_guard<std::mutex> lock(ctx.session->mu);
  AttachLocked(ctx, /*adopt_newer=*/true, /*clear_history=*/false);
  if (ctx.dataset == nullptr) {
    return ApiError::Conflict("no graph uploaded");
  }
  if (request.name.empty()) {
    return ApiError::InvalidArgument("missing author name");
  }
  const AttributedGraph& graph = ctx.dataset->graph();
  VertexId v = graph.FindByName(request.name);
  if (v == kInvalidVertex) {
    return ApiError::NotFound("author not found");
  }
  const std::uint32_t core = ctx.dataset->core_numbers()[v];
  JsonWriter w = JsonWriter::Recycled();
  w.BeginObject();
  w.Key("id");
  w.UInt(v);
  w.Key("name");
  w.String(graph.Name(v));
  w.Key("degree");
  w.UInt(graph.graph().Degree(v));
  // Feasible "degree >= k" values: any k up to the author's core number.
  w.Key("degree_constraints");
  w.BeginArray();
  for (std::uint32_t k = 1; k <= core; ++k) w.UInt(k);
  w.EndArray();
  w.Key("keywords");
  w.BeginArray();
  for (const auto& kw : graph.KeywordStrings(v)) w.String(kw);
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

ApiResult<std::string> QueryService::History(const std::string& session) {
  auto begun = Begin(session);
  if (!begun.ok()) return begun.error();
  RequestContext ctx = std::move(begun).value();
  std::lock_guard<std::mutex> lock(ctx.session->mu);
  AttachLocked(ctx, /*adopt_newer=*/true, /*clear_history=*/false);
  JsonWriter w = JsonWriter::Recycled();
  w.BeginObject();
  w.Key("session");
  w.String(ctx.session->id);
  w.Key("history");
  w.BeginArray();
  for (const auto& entry : ctx.session->history) w.String(entry);
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

ApiResult<std::string> QueryService::ExportSvg(const ExportRequest& request) {
  auto begun = Begin(request.session);
  if (!begun.ok()) return begun.error();
  RequestContext ctx = std::move(begun).value();
  std::lock_guard<std::mutex> lock(ctx.session->mu);
  AttachLocked(ctx, /*adopt_newer=*/true, /*clear_history=*/false);
  Session& session = *ctx.session;
  if (!HasCachedCommunity(session, request.id)) {
    return ApiError::NotFound("no cached community with that id");
  }
  if (ctx.dataset == nullptr ||
      session.communities_epoch != ctx.dataset->graph_epoch()) {
    return ApiError::Conflict(
        "cached communities are stale (graph was reloaded); search again");
  }
  const cexplorer::Community& community =
      session.communities->communities[static_cast<std::size_t>(request.id)];
  if (community.vertices.size() > kMaxFullShapeMembers) {
    return TooLargeToLayOut(community.vertices.size());
  }
  VertexId q = session.last_query.vertices.empty()
                   ? ctx.dataset->graph().FindByName(session.last_query.name)
                   : session.last_query.vertices.front();
  auto svg = session.explorer.ExportSvg(community, q);
  if (!svg.ok()) return ApiError::Internal(svg.status().ToString());
  return std::move(svg).value();
}

ApiResult<std::string> QueryService::UploadFile(const DatasetRequest& request) {
  auto begun = Begin(request.session);
  if (!begun.ok()) return begun.error();
  RequestContext ctx = std::move(begun).value();
  if (request.path.empty()) {
    return ApiError::InvalidArgument("missing dataset path");
  }
  // Build outside all locks: queries keep flowing against the old snapshot
  // while the core decomposition and CL-tree run.
  auto dataset = Dataset::FromFile(request.path);
  if (!dataset.ok()) return FromStatus(dataset.status());
  if (!PublishDataset(ctx, std::move(dataset.value()))) {
    return ApiError::Conflict(
        "dataset changed while this upload was building; retry");
  }
  AttachToSession(ctx, /*clear_history=*/true);
  JsonWriter w = JsonWriter::Recycled();
  w.BeginObject();
  w.Key("uploaded");
  w.String(request.path);
  w.Key("dataset_id");
  w.UInt(ctx.dataset->id());
  w.Key("vertices");
  w.UInt(ctx.dataset->graph().num_vertices());
  w.Key("edges");
  w.UInt(ctx.dataset->graph().graph().num_edges());
  w.EndObject();
  return w.TakeString();
}

ApiResult<std::string> QueryService::SaveIndex(const DatasetRequest& request) {
  auto begun = Begin(request.session);
  if (!begun.ok()) return begun.error();
  RequestContext ctx = std::move(begun).value();
  if (request.path.empty()) {
    return ApiError::InvalidArgument("missing index path");
  }
  if (ctx.dataset == nullptr) {
    return ApiError::Conflict("no graph uploaded");
  }
  Status st = ctx.dataset->SaveIndex(request.path);
  if (!st.ok()) return FromStatus(st);
  JsonWriter w = JsonWriter::Recycled();
  w.BeginObject();
  w.Key("saved");
  w.String(request.path);
  w.EndObject();
  return w.TakeString();
}

ApiResult<std::string> QueryService::LoadIndex(const DatasetRequest& request) {
  auto begun = Begin(request.session);
  if (!begun.ok()) return begun.error();
  RequestContext ctx = std::move(begun).value();
  if (request.path.empty()) {
    return ApiError::InvalidArgument("missing index path");
  }
  if (ctx.dataset == nullptr) {
    return ApiError::Conflict("no graph uploaded");
  }
  // Deserialize against the current snapshot, then swap server-wide: the
  // graph and core numbers are shared, only the index is replaced. The
  // publish is conditional — if another upload landed meanwhile, installing
  // an index for the old graph would silently revert it.
  auto dataset = ctx.dataset->WithIndexFromFile(request.path);
  if (!dataset.ok()) return FromStatus(dataset.status());
  if (!PublishDataset(ctx, std::move(dataset.value()))) {
    return ApiError::Conflict(
        "dataset changed while the index was loading; retry");
  }
  AttachToSession(ctx, /*clear_history=*/false);
  JsonWriter w = JsonWriter::Recycled();
  w.BeginObject();
  w.Key("loaded");
  w.String(request.path);
  w.Key("dataset_id");
  w.UInt(ctx.dataset->id());
  w.EndObject();
  return w.TakeString();
}

ApiResult<std::string> QueryService::SnapshotSave(
    const DatasetRequest& request) {
  auto begun = Begin(request.session);
  if (!begun.ok()) return begun.error();
  RequestContext ctx = std::move(begun).value();
  if (request.path.empty()) {
    return ApiError::InvalidArgument("missing snapshot path");
  }
  if (ctx.dataset == nullptr) {
    return ApiError::Conflict("no graph uploaded");
  }
  if (ctx.dataset->is_overlay()) {
    // The snapshot writer reads the base arrays, so saving an uncompacted
    // overlay would silently drop every pending mutation. Fold first; a
    // CAS loss (concurrent upload) surfaces as CONFLICT rather than a
    // snapshot that lies about its contents.
    auto compacted = mutator().CompactNow(ctx.dataset);
    if (!compacted.ok()) return FromStatus(compacted.status());
    ctx.dataset = std::move(compacted).value();
    AttachToSession(ctx, /*clear_history=*/false);
  }
  // Write outside all locks against the pinned snapshot; concurrent
  // queries and even a concurrent dataset swap are unaffected (the pin
  // keeps this snapshot alive until the write finishes).
  Status st = ctx.dataset->SaveSnapshot(request.path);
  if (!st.ok()) return FromStatus(st);
  JsonWriter w = JsonWriter::Recycled();
  w.BeginObject();
  w.Key("saved");
  w.String(request.path);
  w.Key("dataset_id");
  w.UInt(ctx.dataset->id());
  w.Key("vertices");
  w.UInt(ctx.dataset->graph().num_vertices());
  w.EndObject();
  return w.TakeString();
}

ApiResult<std::string> QueryService::SnapshotLoad(
    const DatasetRequest& request) {
  auto begun = Begin(request.session);
  if (!begun.ok()) return begun.error();
  RequestContext ctx = std::move(begun).value();
  if (request.path.empty()) {
    return ApiError::InvalidArgument("missing snapshot path");
  }
  // Map + validate outside all locks: queries keep flowing against the old
  // snapshot until the CAS publish below. Unlike /load_index this installs
  // a different *graph*, so it is published like an upload: sessions drop
  // their dataset-derived caches on next attach.
  auto dataset = Dataset::FromSnapshotFile(request.path);
  if (!dataset.ok()) return FromStatus(dataset.status());
  if (!PublishDataset(ctx, std::move(dataset.value()))) {
    return ApiError::Conflict(
        "dataset changed while the snapshot was loading; retry");
  }
  AttachToSession(ctx, /*clear_history=*/true);
  JsonWriter w = JsonWriter::Recycled();
  w.BeginObject();
  w.Key("loaded");
  w.String(request.path);
  w.Key("dataset_id");
  w.UInt(ctx.dataset->id());
  w.Key("vertices");
  w.UInt(ctx.dataset->graph().num_vertices());
  w.Key("edges");
  w.UInt(ctx.dataset->graph().graph().num_edges());
  w.Key("storage");
  w.String(ctx.dataset->storage().mode);
  w.EndObject();
  return w.TakeString();
}

ApiResult<std::string> QueryService::DescribeApi(const std::string& session) {
  auto begun = Begin(session);
  if (!begun.ok()) return begun.error();
  RequestContext ctx = std::move(begun).value();
  // try_lock: discovery must answer immediately even while this session is
  // deep in a long synchronous query (its mutex is held for the whole
  // run). A busy session falls back to the built-in registry — identical
  // unless the session registered extra plug-ins.
  std::unique_lock<std::mutex> lock(ctx.session->mu, std::try_to_lock);
  if (lock.owns_lock()) {
    return api::DescribeApi(ctx.session->explorer.Descriptors());
  }
  return api::DescribeApi(BuiltinExplorer().Descriptors());
}

ApiResult<std::string> QueryService::Healthz() {
  const DatasetPtr snapshot = dataset();
  const std::int64_t uptime_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          ExecControl::Clock::now() - start_time_)
          .count();
  JsonWriter w = JsonWriter::Recycled();
  w.BeginObject();
  w.Key("status");
  w.String("ok");
  w.Key("uptime_ms");
  w.Int(uptime_ms);
  w.Key("graph_loaded");
  w.Bool(snapshot != nullptr);
  if (snapshot != nullptr) {
    w.Key("dataset_id");
    w.UInt(snapshot->id());
    w.Key("graph_epoch");
    w.UInt(snapshot->graph_epoch());
  }
  w.Key("sessions");
  w.UInt(sessions_.size());
  w.Key("jobs");
  w.UInt(jobs_.size());
  w.EndObject();
  return w.TakeString();
}

ApiResult<std::string> QueryService::Version() {
  JsonWriter w = JsonWriter::Recycled();
  w.BeginObject();
  w.Key("server");
  w.String("C-Explorer");
  w.Key("version");
  w.String(kServerVersion);
  w.Key("api_version");
  w.String("v1");
  w.Key("build");
  w.BeginObject();
  w.Key("compiler");
  w.String(__VERSION__);
  w.Key("cxx_standard");
  w.Int(__cplusplus / 100);
  w.Key("date");
  w.String(__DATE__);
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

ApiResult<std::string> QueryService::Stats() {
  const ResultCache::Stats cache_stats = result_cache()->GetStats();
  const DatasetPtr snapshot = dataset();
  JsonWriter w = JsonWriter::Recycled();
  w.BeginObject();
  w.Key("result_cache");
  w.BeginObject();
  w.Key("enabled");
  w.Bool(cache_stats.capacity > 0);
  w.Key("capacity");
  w.UInt(cache_stats.capacity);
  w.Key("shards");
  w.UInt(cache_stats.shards);
  w.Key("entries");
  w.UInt(cache_stats.entries);
  w.Key("bytes");
  w.UInt(cache_stats.bytes);
  w.Key("max_bytes");
  w.UInt(cache_stats.max_bytes);
  w.Key("hits");
  w.UInt(cache_stats.hits);
  w.Key("misses");
  w.UInt(cache_stats.misses);
  w.Key("lookups");
  w.UInt(cache_stats.lookups);
  w.Key("insertions");
  w.UInt(cache_stats.insertions);
  w.Key("evictions");
  w.UInt(cache_stats.evictions);
  w.EndObject();
  w.Key("sessions");
  w.UInt(sessions_.size());
  w.Key("jobs");
  w.UInt(jobs_.size());
  w.Key("graph_loaded");
  w.Bool(snapshot != nullptr);
  if (snapshot != nullptr) {
    w.Key("dataset_id");
    w.UInt(snapshot->id());
    w.Key("graph_epoch");
    w.UInt(snapshot->graph_epoch());
  }
  // The dynamic-graph tier: overlay depth, pending work, compaction
  // history. Always present (zeros before the first mutation) so clients
  // can rely on the shape.
  const delta::MutationStats mutations = MutationStatsNow();
  w.Key("mutations");
  w.BeginObject();
  w.Key("active");
  w.Bool(mutations.active);
  w.Key("overlay_edges");
  w.UInt(mutations.overlay_edges);
  w.Key("pending_batches");
  w.UInt(mutations.pending_batches);
  w.Key("batches");
  w.UInt(mutations.batches);
  w.Key("patched_vertices");
  w.UInt(mutations.patched_vertices);
  w.Key("tail_vertices");
  w.UInt(mutations.tail_vertices);
  w.Key("edges_added");
  w.UInt(mutations.edges_added);
  w.Key("edges_removed");
  w.UInt(mutations.edges_removed);
  w.Key("vertices_added");
  w.UInt(mutations.vertices_added);
  w.Key("compactions");
  w.UInt(mutations.compactions);
  w.Key("last_compaction_ms");
  w.Double(mutations.last_compaction_ms);
  w.Key("core_repair_visited");
  w.UInt(mutations.core_repair_visited);
  w.Key("core_repair_changed");
  w.UInt(mutations.core_repair_changed);
  w.EndObject();
  // Which kernel implementation this process resolved at startup — so a
  // deploy can verify it actually runs the vectorized paths it was built
  // for.
  w.Key("kernels");
  w.BeginObject();
  w.Key("isa");
  w.String(simd::IsaName(simd::ActiveIsa()));
  w.EndObject();
  // How the served dataset's arrays are backed: "owned" (built in-process),
  // "mmap" (zero-copy views over a page-cache-shared snapshot file) or
  // "heap" (snapshot read into an aligned buffer).
  if (snapshot != nullptr) {
    const Dataset::StorageInfo& storage = snapshot->storage();
    w.Key("storage");
    w.BeginObject();
    w.Key("mode");
    w.String(storage.mode);
    if (storage.mode != "owned") {
      w.Key("file_bytes");
      w.UInt(storage.file_bytes);
      w.Key("checksum");
      w.UInt(storage.checksum);
    }
    w.EndObject();
  }
  w.EndObject();
  return w.TakeString();
}

ApiResult<std::string> QueryService::SubmitJob(const JobSubmitRequest& request,
                                               ThreadPool* pool) {
  auto begun = Begin(request.session);
  if (!begun.ok()) return begun.error();
  RequestContext ctx = std::move(begun).value();
  if (ctx.dataset == nullptr) {
    return ApiError::Conflict("no graph uploaded");
  }
  if (request.body.empty()) {
    return ApiError::InvalidArgument(
        "missing job spec: POST a JSON object or pass ?request=");
  }
  std::string kind_text;
  auto spec = ParseJobSpec(request.body, &kind_text);
  if (!spec.ok()) return spec.error();

  // Resolve the algorithm against the registry jobs execute with (the
  // built-ins; session plug-ins are session-local scratch state and do not
  // participate in background jobs).
  const Explorer& probe = BuiltinExplorer();
  const AlgorithmDescriptor* search_descriptor =
      probe.Describe(AlgorithmKind::kCommunitySearch, spec->algo);
  const AlgorithmDescriptor* detect_descriptor =
      probe.Describe(AlgorithmKind::kCommunityDetection, spec->algo);
  const AlgorithmDescriptor* descriptor = nullptr;
  if (kind_text == "search") {
    descriptor = search_descriptor;
  } else if (kind_text == "detect") {
    descriptor = detect_descriptor;
  } else if (!kind_text.empty()) {
    return ApiError::InvalidArgument("unknown job kind '" + kind_text +
                                     "' (want 'search' or 'detect')");
  } else if (search_descriptor != nullptr && detect_descriptor != nullptr) {
    return ApiError::InvalidArgument(
        "algorithm '" + spec->algo +
        "' is registered for both kinds; pass \"kind\":\"search\"|\"detect\"");
  } else {
    descriptor =
        search_descriptor != nullptr ? search_descriptor : detect_descriptor;
  }
  if (descriptor == nullptr) {
    return ApiError::NotFound(
        "no built-in algorithm named '" + spec->algo + "'",
        "jobs run the built-in registry; session-registered plug-ins serve "
        "only their session's synchronous routes");
  }
  spec.value().kind = descriptor->kind;

  // Fail fast on bad parameters and an unresolvable query — a job that
  // would die at its first instruction should be a 400 now, not a FAILED
  // state later.
  auto params = ParamBag::Build(*descriptor, spec->params);
  if (!params.ok()) return FromStatus(params.status());
  if (descriptor->kind == AlgorithmKind::kCommunitySearch &&
      spec->query.name.empty() && spec->query.vertices.empty()) {
    return ApiError::InvalidArgument(
        "search job needs a 'name' or a 'vertex'");
  }

  JobPtr job = jobs_.Submit(std::move(spec).value(), ctx.dataset, pool);
  if (job == nullptr) {
    return ApiError::Unavailable("job registry is full of live jobs");
  }
  JsonWriter w = JsonWriter::Recycled();
  w.BeginObject();
  w.Key("job");
  WriteJobObject(&w, job->Read());
  w.EndObject();
  return w.TakeString();
}

ApiResult<std::string> QueryService::ListJobs() {
  JsonWriter w = JsonWriter::Recycled();
  w.BeginObject();
  w.Key("jobs");
  w.BeginArray();
  for (const JobPtr& job : jobs_.List()) {
    WriteJobObject(&w, job->Read());
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

ApiResult<std::string> QueryService::JobStatus(const JobRequest& request) {
  JobPtr job = jobs_.Get(request.id);
  if (job == nullptr) {
    return ApiError::NotFound("no job '" + request.id + "'");
  }
  const Job::Snapshot snapshot = job->Read();
  JsonWriter w = JsonWriter::Recycled();
  w.BeginObject();
  w.Key("job");
  WriteJobObject(&w, snapshot);
  if (snapshot.state == JobState::kDone) {
    // Partial result statistics without the member payload; the full body
    // is one /result call away.
    w.Key("result");
    w.BeginObject();
    if (snapshot.kind == AlgorithmKind::kCommunitySearch) {
      w.Key("num_communities");
      w.UInt(job->output().communities.size());
    } else {
      w.Key("num_clusters");
      w.UInt(job->output().clustering.num_clusters);
    }
    w.EndObject();
  }
  w.EndObject();
  return w.TakeString();
}

ApiResult<std::string> QueryService::CancelJob(const JobRequest& request) {
  if (!jobs_.Cancel(request.id)) {
    return ApiError::NotFound("no job '" + request.id + "'");
  }
  JobPtr job = jobs_.Get(request.id);
  if (job == nullptr) {
    // Evicted between the cancel and this read; the cancel itself held.
    return ApiError::NotFound("job '" + request.id + "' already evicted");
  }
  JsonWriter w = JsonWriter::Recycled();
  w.BeginObject();
  w.Key("job");
  WriteJobObject(&w, job->Read());
  w.EndObject();
  return w.TakeString();
}

ApiResult<std::string> QueryService::JobResult(const JobResultRequest& request) {
  JobPtr job = jobs_.Get(request.id);
  if (job == nullptr) {
    return ApiError::NotFound("no job '" + request.id + "'");
  }
  const Job::Snapshot snapshot = job->Read();
  switch (snapshot.state) {
    case JobState::kQueued:
    case JobState::kRunning:
      return ApiError::Conflict("job '" + request.id + "' is " +
                                JobStateName(snapshot.state) +
                                "; poll /v1/jobs/" + request.id +
                                " until DONE");
    case JobState::kFailed:
    case JobState::kCancelled:
      // The result of a failed/cancelled job IS its error.
      return FromStatus(snapshot.error);
    case JobState::kDone:
      break;
  }

  // DONE jobs keep their snapshot pinned exactly for this rendering.
  const DatasetPtr pinned = job->dataset();
  if (pinned == nullptr) {
    return ApiError::Internal("finished job lost its dataset snapshot");
  }
  const AttributedGraph& graph = pinned->graph();
  const AlgorithmOutput& output = job->output();

  if (request.member_of < 0) {
    // Whole result, in the synchronous response shape plus the job id.
    JsonWriter w = JsonWriter::Recycled();
    w.BeginObject();
    w.Key("job");
    w.String(snapshot.id);
    if (snapshot.kind == AlgorithmKind::kCommunitySearch) {
      WriteSearchFields(&w, graph, snapshot.algo, output.communities);
    } else {
      WriteDetectionFields(&w, graph.graph(), output.clustering,
                           snapshot.algo);
    }
    w.EndObject();
    return w.TakeString();
  }

  // One member list, paged through the standard cursor machinery. The
  // cursor binds to this job's snapshot epoch and result generation, so it
  // survives dataset swaps (the job result is pinned) but can never page
  // another job's result.
  cexplorer::Community community;
  if (snapshot.kind == AlgorithmKind::kCommunitySearch) {
    if (static_cast<std::size_t>(request.member_of) >=
        output.communities.size()) {
      return ApiError::NotFound("job has no community " +
                                std::to_string(request.member_of));
    }
    community =
        output.communities[static_cast<std::size_t>(request.member_of)];
  } else {
    if (static_cast<std::uint64_t>(request.member_of) >=
        output.clustering.num_clusters) {
      return ApiError::NotFound("job has no cluster " +
                                std::to_string(request.member_of));
    }
    community.method = snapshot.algo;
    community.vertices = output.clustering.Members(
        static_cast<std::uint32_t>(request.member_of));
  }

  const std::uint64_t epoch = snapshot.graph_epoch;
  auto window = ResolvePage(request.page, epoch, PageToken::Kind::kJob,
                            static_cast<std::uint64_t>(request.member_of),
                            job->generation());
  if (!window.ok()) return window.error();

  JsonWriter w = JsonWriter::Recycled();
  w.BeginObject();
  w.Key("job");
  w.String(snapshot.id);
  if (window->paginated) {
    PageToken next{epoch, PageToken::Kind::kJob,
                   static_cast<std::uint64_t>(request.member_of),
                   job->generation(), 0};
    WriteCommunityPage(&w, graph, community, window->offset, window->limit,
                       next);
  } else {
    w.Key("community");
    WriteCommunity(&w, graph, community);
  }
  w.EndObject();
  return w.TakeString();
}

ApiResult<BatchRequest> QueryService::ParseBatch(const std::string& json) {
  auto parsed = JsonValue::Parse(json);
  if (!parsed.ok() || !parsed->is_array()) {
    return ApiError::InvalidArgument("'requests' must be a JSON array");
  }
  const std::vector<JsonValue>& items = parsed->Items();
  BatchRequest batch;
  batch.entries.resize(items.size());
  // Decode every entry up front so a malformed one is reported per-slot
  // rather than failing the whole batch.
  for (std::size_t i = 0; i < items.size(); ++i) {
    const JsonValue& item = items[i];
    BatchRequest::Entry& decoded = batch.entries[i];
    if (!item.is_object()) {
      decoded.error = "entry is not an object";
      continue;
    }
    if (item.Has("name")) decoded.search.name = item.Get("name").AsString();
    if (item.Has("vertex")) {
      const auto v = Uint32Field(item.Get("vertex"));
      if (!v) {
        decoded.error = "bad vertex";
        continue;
      }
      decoded.search.vertices.push_back(*v);
    }
    if (decoded.search.name.empty() && decoded.search.vertices.empty()) {
      decoded.error = "entry needs a name or a vertex";
      continue;
    }
    if (item.Has("k")) {
      const auto k = Uint32Field(item.Get("k"));
      if (!k) {
        decoded.error = "bad k";
        continue;
      }
      decoded.search.k = *k;
    }
    const JsonValue& kws = item.Get("keywords");
    if (kws.is_array()) {
      for (const JsonValue& kw : kws.Items()) {
        if (!kw.AsString().empty()) {
          decoded.search.keywords.push_back(kw.AsString());
        }
      }
    } else if (!kws.AsString().empty()) {
      decoded.search.keywords = SplitNonEmpty(kws.AsString(), ',');
    }
    decoded.search.algo = item.Get("algo").AsString();
    if (decoded.search.algo.empty()) decoded.search.algo = "ACQ";
  }
  return batch;
}

ApiResult<std::string> QueryService::Batch(const BatchRequest& request,
                                           ThreadPool* pool) {
  auto begun = Begin(request.session);
  if (!begun.ok()) return begun.error();
  RequestContext ctx = std::move(begun).value();
  if (ctx.dataset == nullptr) {
    return ApiError::Conflict("no graph uploaded");
  }

  // Fan the decoded queries across the worker pool. Every entry runs
  // against the one snapshot this request captured at dispatch — a
  // concurrent upload cannot split the batch across two graphs. Each
  // entry gets its own Explorer view (views are cheap and confine any
  // per-algorithm scratch state to the entry), and renders into its own
  // slot, so entries share only the immutable dataset.
  const DatasetPtr snapshot = ctx.dataset;
  const std::shared_ptr<ResultCache> cache = result_cache();
  const std::vector<BatchRequest::Entry>& entries = request.entries;
  std::vector<std::string> fragments(entries.size());
  ParallelFor(
      0, entries.size(), pool,
      [&](std::size_t i) {
        if (entries[i].error.empty()) {
          const SearchRequest& req = entries[i].search;
          Query query;
          query.name = req.name;
          query.vertices = req.vertices;
          query.k = req.k;
          query.keywords = req.keywords;
          const std::string algo = req.algo.empty() ? "ACQ" : req.algo;
          // Batch entries share the result cache with /v1/search: the
          // success fragment is the same WriteSearchFields object, so a
          // hit from either path serves both.
          const bool cacheable = cache->enabled() && CacheableSearchAlgo(algo);
          std::string cache_key;
          if (cacheable) {
            cache_key = SearchCacheKey(snapshot->graph_epoch(), algo, query);
            if (CachedSearchPtr hit = cache->Get(cache_key)) {
              fragments[i] = hit->body;
              return;
            }
          }
          Explorer view;
          view.AttachDataset(snapshot);
          // Entries run under the same synchronous deadline as /v1/search,
          // so one slow entry answers DEADLINE_EXCEEDED in its slot
          // instead of occupying a pool worker indefinitely.
          ExecControl control;
          auto communities =
              view.Search(algo, query, ArmSyncDeadline(&control));
          if (communities.ok()) {
            JsonWriter w = JsonWriter::Recycled();
            w.BeginObject();
            WriteSearchFields(&w, snapshot->graph(), algo, communities.value());
            w.EndObject();
            fragments[i] = w.TakeString();
            if (cacheable) {
              auto value = std::make_shared<CachedSearch>();
              value->communities = std::move(communities).value();
              value->body = fragments[i];
              cache->Put(cache_key, std::move(value));
            }
            return;
          }
          const ApiError error = FromStatus(communities.status());
          JsonWriter w = JsonWriter::Recycled();
          w.BeginObject();
          w.Key("error");
          WriteErrorValue(&w, error.code, error.message);
          w.EndObject();
          fragments[i] = w.TakeString();
          return;
        }
        JsonWriter w = JsonWriter::Recycled();
        w.BeginObject();
        w.Key("error");
        WriteErrorValue(&w, ApiCode::kInvalidArgument, entries[i].error);
        w.EndObject();
        fragments[i] = w.TakeString();
      },
      /*grain=*/1);

  const std::string head = "{\"dataset_id\":" + std::to_string(snapshot->id()) +
                           ",\"count\":" + std::to_string(fragments.size()) +
                           ",\"results\":[";
  // Reserve the final body exactly from the fragment lengths: joining a
  // large batch is one allocation, not a quadratic chain of regrowths.
  std::size_t total = head.size() + 2;  // "]}"
  for (const std::string& fragment : fragments) total += fragment.size();
  if (!fragments.empty()) total += fragments.size() - 1;  // commas
  std::string body;
  body.reserve(total);
  body += head;
  for (std::size_t i = 0; i < fragments.size(); ++i) {
    if (i > 0) body += ',';
    body += fragments[i];
  }
  body += "]}";
  return body;
}

}  // namespace api
}  // namespace cexplorer
