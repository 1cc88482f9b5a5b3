#include "api/routes.h"

#include <string_view>

#include "common/json.h"
#include "common/strings.h"

namespace cexplorer {
namespace api {

namespace {

constexpr ParamSpec kNoParams[] = {
    {"", ParamType::kString, false, "", ""}};  // placeholder, num_params = 0

constexpr ParamSpec kSessionDeleteParams[] = {
    {"id", ParamType::kString, true, "", "session id to delete"},
};

constexpr ParamSpec kPathParams[] = {
    {"path", ParamType::kString, true, "", "file path on the server"},
};

constexpr ParamSpec kSearchParams[] = {
    {"name", ParamType::kString, false, "",
     "query author name (this or 'vertex' is required)"},
    {"vertex", ParamType::kInt, false, "",
     "query vertex id (this or 'name' is required)"},
    {"k", ParamType::kInt, false, "4", "minimum degree constraint"},
    {"keywords", ParamType::kString, false, "",
     "comma-separated query keywords (ACQ only)"},
    {"algo", ParamType::kString, false, "ACQ",
     "community-search algorithm name"},
};

constexpr ParamSpec kCommunityParams[] = {
    {"id", ParamType::kInt, false, "0", "cached community id"},
    {"limit", ParamType::kInt, false, "",
     "page size for the member list; omit for the full shape "
     "(communities of at most 2000 members)"},
    {"cursor", ParamType::kString, false, "",
     "opaque continuation cursor from a previous page"},
};

constexpr ParamSpec kProfileParams[] = {
    {"name", ParamType::kString, false, "",
     "author name (this or 'vertex' is required)"},
    {"vertex", ParamType::kInt, false, "",
     "vertex id (this or 'name' is required)"},
};

constexpr ParamSpec kExploreParams[] = {
    {"vertex", ParamType::kInt, true, "", "community member to explore from"},
    {"k", ParamType::kInt, false, "",
     "minimum degree; defaults to the session's last query k"},
    {"algo", ParamType::kString, false, "ACQ",
     "community-search algorithm name"},
};

constexpr ParamSpec kCompareParams[] = {
    {"name", ParamType::kString, true, "", "query author name"},
    {"k", ParamType::kInt, false, "4", "minimum degree constraint"},
    {"keywords", ParamType::kString, false, "",
     "comma-separated query keywords (ACQ only)"},
    {"algos", ParamType::kString, false, "Global,Local,CODICIL,ACQ",
     "comma-separated algorithm names"},
};

constexpr ParamSpec kDetectParams[] = {
    {"algo", ParamType::kString, false, "CODICIL",
     "community-detection algorithm name"},
};

constexpr ParamSpec kClusterParams[] = {
    {"id", ParamType::kInt, false, "0", "cluster id of the cached detection"},
    {"limit", ParamType::kInt, false, "",
     "page size for the member list; omit for the full shape"},
    {"cursor", ParamType::kString, false, "",
     "opaque continuation cursor from a previous page"},
};

constexpr ParamSpec kAuthorParams[] = {
    {"name", ParamType::kString, true, "", "author name"},
};

constexpr ParamSpec kExportParams[] = {
    {"id", ParamType::kInt, false, "0", "cached community id"},
};

constexpr ParamSpec kJobIdParams[] = {
    {"id", ParamType::kString, true, "", "job id (path segment)"},
};

constexpr ParamSpec kJobResultParams[] = {
    {"id", ParamType::kString, true, "", "job id (path segment)"},
    {"member_of", ParamType::kInt, false, "",
     "community index (search jobs) / cluster id (detection jobs) whose "
     "member list to page; omit for the whole result"},
    {"limit", ParamType::kInt, false, "",
     "page size for the selected member list"},
    {"cursor", ParamType::kString, false, "",
     "opaque continuation cursor from a previous page"},
};

constexpr unsigned kGet = kMethodGet;
constexpr unsigned kPost = kMethodPost;
constexpr unsigned kGetPost = kMethodGet | kMethodPost;
constexpr unsigned kGetDelete = kMethodGet | kMethodDelete;
constexpr unsigned kPostDelete = kMethodPost | kMethodDelete;

constexpr RouteSpec kRoutes[] = {
    {"api", kGet, kNoParams, 0,
     "this document: every route and registered algorithm with its schema"},
    {"healthz", kGet, kNoParams, 0,
     "liveness probe: status, uptime, served snapshot, session/job counts"},
    {"version", kGet, kNoParams, 0,
     "API and build version information"},
    {"stats", kGet, kNoParams, 0,
     "serving counters: result-cache hits/misses/entries, session and job "
     "counts, served snapshot"},
    {"index", kGet, kNoParams, 0,
     "system summary: graph size, algorithms, session count"},
    {"session/new", kGet, kNoParams, 0,
     "create a session; 503 once the session limit is reached"},
    {"session/delete", kGet, kSessionDeleteParams, 1,
     "delete a session, freeing its slot"},
    {"sessions", kGet, kNoParams, 0,
     "list live sessions and their cache state"},
    {"upload", kGet, kPathParams, 1,
     "load an attributed graph file and swap it in for ALL sessions"},
    {"search", kGet, kSearchParams, 5,
     "run a community-search algorithm; results cached in the session"},
    {"community", kGet, kCommunityParams, 3,
     "one cached community with stats (+ layout/ASCII in the full shape)"},
    {"profile", kGet, kProfileParams, 2,
     "author profile popup"},
    {"explore", kGet, kExploreParams, 3,
     "continue exploration from a community member"},
    {"compare", kGet, kCompareParams, 4,
     "multi-algorithm comparison table (Figure 6a) with CPJ/CMF"},
    {"history", kGet, kNoParams, 0,
     "exploration chain of this session"},
    {"detect", kGet, kDetectParams, 1,
     "run a community-detection algorithm on the whole graph"},
    {"cluster", kGet, kClusterParams, 3,
     "one cluster of the cached detection result"},
    {"author", kGet, kAuthorParams, 1,
     "query-form population: degree constraints and keywords of an author"},
    {"export", kGet, kExportParams, 1,
     "cached community (at most 2000 members) as an SVG document"},
    {"snapshot/save", kPost, kPathParams, 1,
     "write the served dataset (graph + cores + CL-tree) as one zero-copy "
     "binary snapshot file"},
    {"snapshot/load", kPost, kPathParams, 1,
     "mmap a snapshot file and swap it in for ALL sessions — no parse, no "
     "index rebuild; corrupt files are rejected with UNAVAILABLE"},
    // The dynamic-graph tier: each request is one atomic mutation batch,
    // applied with incremental k-core maintenance and published as a fresh
    // copy-on-write overlay snapshot — no full index rebuild, and queries
    // in flight keep their pinned snapshot.
    {"edges", kPostDelete, kNoParams, 0,
     "body {\"edges\": [[u, v], ...]}. POST: insert the batch of edges; "
     "DELETE: remove them. Already-present (resp. absent) edges are "
     "counted, not errors, so streams replay"},
    {"vertices", kPost, kNoParams, 0,
     "body {\"vertices\": [{\"name\", \"keywords\"}, ...]}: append "
     "vertices (display name + keywords) to the graph as one atomic batch; "
     "edges to them may follow in later batches or via /v1/edges"},
    {"compact", kPost, kNoParams, 0,
     "fold the pending mutation overlay into an owned dataset now (also "
     "runs in the background past the overlay threshold); queries never "
     "pause, mutations stall for the fold"},
    {"batch", kPost, kNoParams, 0,
     "body: a JSON array of search entries ({\"name\"|\"vertex\", \"k\", "
     "\"keywords\", \"algo\"}), answered under ONE dataset snapshot and "
     "fanned across the worker pool"},
    {"jobs", kGetPost, kNoParams, 0,
     "POST: submit the job spec in the body ({\"algo\", \"kind\", "
     "\"params\", \"name\"|\"vertex\", \"k\", \"keywords\", "
     "\"deadline_ms\"}) as an asynchronous job pinned to the current "
     "snapshot; GET: list jobs"},
    {"jobs/<id>", kGetDelete, kJobIdParams, 1,
     "GET: job state, progress and runtime; DELETE: cancel (the worker "
     "unwinds at the algorithm's next checkpoint)"},
    {"jobs/<id>/result", kGet, kJobResultParams, 4,
     "finished result; member_of/limit/cursor page one member list through "
     "the standard cursor machinery"},
};

constexpr std::size_t kNumRoutes = sizeof(kRoutes) / sizeof(kRoutes[0]);

/// Matches a "<param>"-bearing route name against a path suffix,
/// capturing bracketed segments. Both are '/'-separated.
bool MatchPattern(std::string_view pattern, std::string_view path,
                  std::map<std::string, std::string>* captures) {
  while (true) {
    const auto pattern_slash = pattern.find('/');
    const auto path_slash = path.find('/');
    const std::string_view pattern_seg = pattern.substr(0, pattern_slash);
    const std::string_view path_seg = path.substr(0, path_slash);
    if (pattern_seg.size() >= 2 && pattern_seg.front() == '<' &&
        pattern_seg.back() == '>') {
      if (path_seg.empty()) return false;
      if (captures != nullptr) {
        const std::string name(pattern_seg.substr(1, pattern_seg.size() - 2));
        (*captures)[name] = std::string(path_seg);
      }
    } else if (pattern_seg != path_seg) {
      return false;
    }
    const bool pattern_done = pattern_slash == std::string_view::npos;
    const bool path_done = path_slash == std::string_view::npos;
    if (pattern_done || path_done) return pattern_done && path_done;
    pattern.remove_prefix(pattern_slash + 1);
    path.remove_prefix(path_slash + 1);
  }
}

}  // namespace

const char* ParamTypeName(ParamType type) {
  switch (type) {
    case ParamType::kString:
      return "string";
    case ParamType::kInt:
      return "int";
  }
  return "string";
}

unsigned MethodBit(const std::string& method) {
  if (method == "GET") return kMethodGet;
  if (method == "POST") return kMethodPost;
  if (method == "DELETE") return kMethodDelete;
  return 0;
}

const RouteSpec* Routes(std::size_t* count) {
  *count = kNumRoutes;
  return kRoutes;
}

const RouteSpec* FindRoute(const std::string& path,
                           std::map<std::string, std::string>* path_params) {
  // Allocation-free hot path: after the "/v1/" prefix the suffix is the
  // route name.
  const std::string_view sv(path);
  if (sv.rfind("/v1/", 0) != 0) return nullptr;
  const std::string_view name = sv.substr(4);
  for (const RouteSpec& route : kRoutes) {
    if (name == route.name) return &route;
  }
  // Pattern routes ("jobs/<id>") are rarer: second pass.
  for (const RouteSpec& route : kRoutes) {
    if (std::string_view(route.name).find('<') == std::string_view::npos) {
      continue;
    }
    if (MatchPattern(route.name, name, path_params)) return &route;
  }
  return nullptr;
}

std::optional<ApiError> ValidateParams(const RouteSpec& route,
                                       const HttpRequest& request) {
  for (std::size_t i = 0; i < route.num_params; ++i) {
    const ParamSpec& spec = route.params[i];
    const auto it = request.params.find(spec.name);
    const bool present = it != request.params.end() && !it->second.empty();
    if (!present) {
      if (spec.required) {
        return ApiError::InvalidArgument(
            std::string("missing required parameter '") + spec.name + "'");
      }
      continue;
    }
    std::int64_t value = 0;
    if (spec.type == ParamType::kInt && !ParseInt64(it->second, &value)) {
      return ApiError::InvalidArgument(std::string("parameter '") +
                                       spec.name + "' must be an integer, "
                                       "got '" + it->second + "'");
    }
  }
  // Unknown parameters are rejected: a typoed parameter must not silently
  // fall back to a default.
  for (const auto& [key, value] : request.params) {
    if (key == "session") continue;  // universal
    bool declared = false;
    for (std::size_t i = 0; i < route.num_params; ++i) {
      if (key == route.params[i].name) {
        declared = true;
        break;
      }
    }
    if (!declared) {
      return ApiError::InvalidArgument("unknown parameter '" + key + "'");
    }
  }
  return std::nullopt;
}

std::string DescribeApi(
    const std::vector<const AlgorithmDescriptor*>& algorithms) {
  JsonWriter w = JsonWriter::Recycled();
  w.BeginObject();
  w.Key("version");
  w.String("v1");
  w.Key("error_codes");
  w.BeginArray();
  for (ApiCode code :
       {ApiCode::kInvalidArgument, ApiCode::kNotFound, ApiCode::kConflict,
        ApiCode::kUnavailable, ApiCode::kInternal, ApiCode::kCancelled,
        ApiCode::kDeadlineExceeded}) {
    w.BeginObject();
    w.Key("code");
    w.String(ApiCodeName(code));
    w.Key("http_status");
    w.Int(HttpStatus(code));
    w.EndObject();
  }
  w.EndArray();
  w.Key("common_params");
  w.BeginArray();
  w.BeginObject();
  w.Key("name");
  w.String("session");
  w.Key("type");
  w.String("string");
  w.Key("required");
  w.Bool(false);
  w.Key("doc");
  w.String("session id from /v1/session/new; omit for the shared default "
           "session");
  w.EndObject();
  w.EndArray();
  w.Key("routes");
  w.BeginArray();
  for (const RouteSpec& route : kRoutes) {
    w.BeginObject();
    w.Key("name");
    w.String(route.name);
    w.Key("path");
    w.String(route.V1Path());
    w.Key("methods");
    w.BeginArray();
    if (route.methods & kMethodGet) w.String("GET");
    if (route.methods & kMethodPost) w.String("POST");
    if (route.methods & kMethodDelete) w.String("DELETE");
    w.EndArray();
    w.Key("doc");
    w.String(route.doc);
    w.Key("params");
    w.BeginArray();
    for (std::size_t i = 0; i < route.num_params; ++i) {
      const ParamSpec& spec = route.params[i];
      w.BeginObject();
      w.Key("name");
      w.String(spec.name);
      w.Key("type");
      w.String(ParamTypeName(spec.type));
      w.Key("required");
      w.Bool(spec.required);
      if (spec.default_value[0] != '\0') {
        w.Key("default");
        w.String(spec.default_value);
      }
      w.Key("doc");
      w.String(spec.doc);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  // The algorithm registry: every registered algorithm's self-description,
  // straight from its descriptor — discoverable without reading a header.
  w.Key("algorithms");
  w.BeginArray();
  for (const AlgorithmDescriptor* descriptor : algorithms) {
    w.BeginObject();
    w.Key("name");
    w.String(descriptor->name);
    w.Key("kind");
    w.String(AlgorithmKindName(descriptor->kind));
    w.Key("doc");
    w.String(descriptor->doc);
    w.Key("capabilities");
    w.BeginObject();
    w.Key("cancel");
    w.Bool(descriptor->caps.cancel);
    w.Key("progress");
    w.Bool(descriptor->caps.progress);
    w.Key("indexed");
    w.Bool(descriptor->caps.indexed);
    w.EndObject();
    w.Key("params");
    w.BeginArray();
    for (const AlgoParamSpec& param : descriptor->params) {
      w.BeginObject();
      w.Key("name");
      w.String(param.name);
      w.Key("type");
      w.String(AlgoParamTypeName(param.type));
      w.Key("default");
      w.String(param.default_value);
      if (param.has_range) {
        w.Key("min");
        w.Double(param.min_value);
        w.Key("max");
        w.Double(param.max_value);
      }
      w.Key("doc");
      w.String(param.doc);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

}  // namespace api
}  // namespace cexplorer
