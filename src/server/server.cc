#include "server/server.h"

#include <optional>
#include <utility>

#include "common/strings.h"

namespace cexplorer {

namespace {

using api::ApiResult;

/// Renders an ApiResult as an HTTP response: 200 with the body on success,
/// the {"error":{...}} envelope with the taxonomy-implied status otherwise.
HttpResponse ToResponse(ApiResult<std::string> result) {
  if (!result.ok()) {
    HttpResponse response;
    response.code = api::HttpStatus(result.error().code);
    response.body = result.error().ToJson();
    return response;
  }
  return HttpResponse::Ok(std::move(result).value());
}

/// Binds limit/cursor. A negative limit is rejected rather than silently
/// degrading to the unpaginated shape (limit=0 or absent means "full
/// response" by contract).
api::ApiResult<api::PageParams> PageParamsOf(const HttpRequest& request) {
  const std::int64_t limit = request.IntParam("limit", 0);
  if (limit < 0) {
    return api::ApiError::InvalidArgument(
        "parameter 'limit' must be non-negative");
  }
  api::PageParams page;
  page.limit = static_cast<std::uint64_t>(limit);
  page.cursor = request.Param("cursor");
  return page;
}

/// Binds an explicit `vertex` or `k` parameter through the checked
/// conversion (api::CheckedUint32): a value outside [0, 2^32 - 1] is a 400.
/// Absent reads as nullopt; the route schema has already refused a
/// non-integer.
api::ApiResult<std::optional<std::uint32_t>> Uint32Param(
    const HttpRequest& request, const std::string& key) {
  const std::string& text = request.Param(key);
  if (text.empty()) return std::optional<std::uint32_t>();
  std::int64_t value = 0;
  if (ParseInt64(text, &value)) {
    if (auto checked = api::CheckedUint32(static_cast<double>(value))) {
      return checked;
    }
  }
  return api::ApiError::InvalidArgument(
      "parameter '" + key + "' must be an integer in [0, 4294967295], got '" +
      text + "'");
}

}  // namespace

HttpResponse CExplorerServer::Handle(std::string_view request_text) {
  auto request = ParseRequest(request_text);
  if (!request.ok()) {
    return HttpResponse::Error(400, request.status().message());
  }
  return Dispatch(request.value());
}

HttpResponse CExplorerServer::Dispatch(const HttpRequest& request) {
  // The declarative table drives everything: membership, method policy,
  // path-parameter capture, and parameter validation. Binders below only
  // convert validated parameters into typed requests.
  std::map<std::string, std::string> path_params;
  const api::RouteSpec* route = api::FindRoute(request.path, &path_params);
  if (route == nullptr) {
    return HttpResponse::Error(404, "no route for " + request.path);
  }
  if ((route->methods & api::MethodBit(request.method)) == 0) {
    return HttpResponse::Error(405, request.method + " not allowed on " +
                                        request.path);
  }
  // Captured path segments become parameters ("/v1/jobs/j4" -> id=j4) and
  // override any query-string twin: the path is the authoritative spelling.
  const HttpRequest* effective = &request;
  HttpRequest with_captures;
  if (!path_params.empty()) {
    with_captures = request;
    for (auto& [key, value] : path_params) {
      with_captures.params[key] = std::move(value);
    }
    effective = &with_captures;
  }
  if (auto invalid = api::ValidateParams(*route, *effective)) {
    HttpResponse response;
    response.code = api::HttpStatus(invalid->code);
    response.body = invalid->ToJson();
    return response;
  }

  struct Binder {
    std::string_view name;
    HttpResponse (CExplorerServer::*bind)(const HttpRequest&);
  };
  static constexpr Binder kBinders[] = {
      {"api", &CExplorerServer::BindApi},
      {"healthz", &CExplorerServer::BindHealthz},
      {"version", &CExplorerServer::BindVersion},
      {"stats", &CExplorerServer::BindStats},
      {"jobs", &CExplorerServer::BindJobs},
      {"jobs/<id>", &CExplorerServer::BindJob},
      {"jobs/<id>/result", &CExplorerServer::BindJobResult},
      {"index", &CExplorerServer::BindIndex},
      {"session/new", &CExplorerServer::BindSessionNew},
      {"session/delete", &CExplorerServer::BindSessionDelete},
      {"sessions", &CExplorerServer::BindSessions},
      {"upload", &CExplorerServer::BindUpload},
      {"search", &CExplorerServer::BindSearch},
      {"community", &CExplorerServer::BindCommunity},
      {"profile", &CExplorerServer::BindProfile},
      {"explore", &CExplorerServer::BindExplore},
      {"compare", &CExplorerServer::BindCompare},
      {"history", &CExplorerServer::BindHistory},
      {"detect", &CExplorerServer::BindDetect},
      {"cluster", &CExplorerServer::BindCluster},
      {"author", &CExplorerServer::BindAuthor},
      {"export", &CExplorerServer::BindExport},
      {"snapshot/save", &CExplorerServer::BindSnapshotSave},
      {"snapshot/load", &CExplorerServer::BindSnapshotLoad},
      {"edges", &CExplorerServer::BindEdges},
      {"vertices", &CExplorerServer::BindVertices},
      {"compact", &CExplorerServer::BindCompact},
      {"batch", &CExplorerServer::BindBatch},
  };
  for (const Binder& binder : kBinders) {
    if (binder.name == route->name) return (this->*binder.bind)(*effective);
  }
  return HttpResponse::Error(500, std::string("route '") + route->name +
                                      "' has no binder");
}

HttpResponse CExplorerServer::BindApi(const HttpRequest& request) {
  return ToResponse(service_.DescribeApi(request.Param("session")));
}

HttpResponse CExplorerServer::BindHealthz(const HttpRequest&) {
  return ToResponse(service_.Healthz());
}

HttpResponse CExplorerServer::BindVersion(const HttpRequest&) {
  return ToResponse(service_.Version());
}

HttpResponse CExplorerServer::BindStats(const HttpRequest&) {
  return ToResponse(service_.Stats());
}

HttpResponse CExplorerServer::BindJobs(const HttpRequest& request) {
  if (request.method == "GET") return ToResponse(service_.ListJobs());
  api::JobSubmitRequest typed;
  typed.session = request.Param("session");
  typed.body = request.body;
  return ToResponse(service_.SubmitJob(typed, Workers()));
}

HttpResponse CExplorerServer::BindJob(const HttpRequest& request) {
  api::JobRequest typed;
  typed.session = request.Param("session");
  typed.id = request.Param("id");
  if (request.method == "DELETE") {
    return ToResponse(service_.CancelJob(typed));
  }
  return ToResponse(service_.JobStatus(typed));
}

HttpResponse CExplorerServer::BindJobResult(const HttpRequest& request) {
  auto page = PageParamsOf(request);
  if (!page.ok()) return ToResponse(page.error());
  api::JobResultRequest typed;
  typed.session = request.Param("session");
  typed.id = request.Param("id");
  typed.member_of = request.IntParam("member_of", -1);
  typed.page = std::move(page).value();
  return ToResponse(service_.JobResult(typed));
}

HttpResponse CExplorerServer::BindIndex(const HttpRequest& request) {
  return ToResponse(service_.Summary(request.Param("session")));
}

HttpResponse CExplorerServer::BindSessionNew(const HttpRequest&) {
  return ToResponse(service_.CreateSession());
}

HttpResponse CExplorerServer::BindSessionDelete(const HttpRequest& request) {
  return ToResponse(service_.DeleteSession(request.Param("id")));
}

HttpResponse CExplorerServer::BindSessions(const HttpRequest&) {
  return ToResponse(service_.ListSessions());
}

HttpResponse CExplorerServer::BindUpload(const HttpRequest& request) {
  api::DatasetRequest typed;
  typed.session = request.Param("session");
  typed.path = request.Param("path");
  return ToResponse(service_.UploadFile(typed));
}

HttpResponse CExplorerServer::BindSearch(const HttpRequest& request) {
  api::SearchRequest typed;
  typed.session = request.Param("session");
  typed.name = request.Param("name");
  auto k = Uint32Param(request, "k");
  if (!k.ok()) return ToResponse(k.error());
  typed.k = k->value_or(typed.k);
  typed.keywords = SplitNonEmpty(request.Param("keywords"), ',');
  auto vertex = Uint32Param(request, "vertex");
  if (!vertex.ok()) return ToResponse(vertex.error());
  if (vertex->has_value()) typed.vertices.push_back(**vertex);
  if (!request.Param("algo").empty()) typed.algo = request.Param("algo");
  return ToResponse(service_.Search(typed));
}

HttpResponse CExplorerServer::BindCommunity(const HttpRequest& request) {
  auto page = PageParamsOf(request);
  if (!page.ok()) return ToResponse(page.error());
  api::CommunityRequest typed;
  typed.session = request.Param("session");
  typed.id = request.IntParam("id", 0);
  typed.page = std::move(page).value();
  return ToResponse(service_.Community(typed));
}

HttpResponse CExplorerServer::BindProfile(const HttpRequest& request) {
  api::ProfileRequest typed;
  typed.session = request.Param("session");
  typed.name = request.Param("name");
  auto vertex = Uint32Param(request, "vertex");
  if (!vertex.ok()) return ToResponse(vertex.error());
  if (vertex->has_value()) typed.vertex = **vertex;
  return ToResponse(service_.Profile(typed));
}

HttpResponse CExplorerServer::BindExplore(const HttpRequest& request) {
  auto vertex = Uint32Param(request, "vertex");
  if (!vertex.ok()) return ToResponse(vertex.error());
  auto k = Uint32Param(request, "k");
  if (!k.ok()) return ToResponse(k.error());
  api::ExploreRequest typed;
  typed.session = request.Param("session");
  typed.vertex = **vertex;
  if (k->has_value()) typed.k = **k;  // absent: the last query's k
  if (!request.Param("algo").empty()) typed.algo = request.Param("algo");
  return ToResponse(service_.Explore(typed));
}

HttpResponse CExplorerServer::BindCompare(const HttpRequest& request) {
  api::CompareRequest typed;
  typed.session = request.Param("session");
  typed.name = request.Param("name");
  auto k = Uint32Param(request, "k");
  if (!k.ok()) return ToResponse(k.error());
  typed.k = k->value_or(typed.k);
  typed.keywords = SplitNonEmpty(request.Param("keywords"), ',');
  typed.algos = SplitNonEmpty(request.Param("algos"), ',');
  return ToResponse(service_.Compare(typed));
}

HttpResponse CExplorerServer::BindHistory(const HttpRequest& request) {
  return ToResponse(service_.History(request.Param("session")));
}

HttpResponse CExplorerServer::BindDetect(const HttpRequest& request) {
  api::DetectRequest typed;
  typed.session = request.Param("session");
  if (!request.Param("algo").empty()) typed.algo = request.Param("algo");
  return ToResponse(service_.Detect(typed));
}

HttpResponse CExplorerServer::BindCluster(const HttpRequest& request) {
  auto page = PageParamsOf(request);
  if (!page.ok()) return ToResponse(page.error());
  api::ClusterRequest typed;
  typed.session = request.Param("session");
  typed.id = request.IntParam("id", 0);
  typed.page = std::move(page).value();
  return ToResponse(service_.Cluster(typed));
}

HttpResponse CExplorerServer::BindAuthor(const HttpRequest& request) {
  api::AuthorRequest typed;
  typed.session = request.Param("session");
  typed.name = request.Param("name");
  return ToResponse(service_.Author(typed));
}

HttpResponse CExplorerServer::BindExport(const HttpRequest& request) {
  api::ExportRequest typed;
  typed.session = request.Param("session");
  typed.id = request.IntParam("id", 0);
  // The body is an image/svg+xml document, not JSON.
  return ToResponse(service_.ExportSvg(typed));
}

HttpResponse CExplorerServer::BindSnapshotSave(const HttpRequest& request) {
  api::DatasetRequest typed;
  typed.session = request.Param("session");
  typed.path = request.Param("path");
  return ToResponse(service_.SnapshotSave(typed));
}

HttpResponse CExplorerServer::BindSnapshotLoad(const HttpRequest& request) {
  api::DatasetRequest typed;
  typed.session = request.Param("session");
  typed.path = request.Param("path");
  return ToResponse(service_.SnapshotLoad(typed));
}

HttpResponse CExplorerServer::BindEdges(const HttpRequest& request) {
  api::MutationRequest typed;
  typed.session = request.Param("session");
  typed.body = request.body;
  if (request.method == "DELETE") {
    return ToResponse(service_.RemoveEdges(typed));
  }
  return ToResponse(service_.AddEdges(typed));
}

HttpResponse CExplorerServer::BindVertices(const HttpRequest& request) {
  api::MutationRequest typed;
  typed.session = request.Param("session");
  typed.body = request.body;
  return ToResponse(service_.AddVertices(typed));
}

HttpResponse CExplorerServer::BindCompact(const HttpRequest& request) {
  return ToResponse(service_.CompactMutations(request.Param("session")));
}

HttpResponse CExplorerServer::BindBatch(const HttpRequest& request) {
  if (request.body.empty()) {
    return HttpResponse::Error(
        400, "missing batch payload: POST a JSON array of search entries");
  }
  auto batch = api::QueryService::ParseBatch(request.body);
  if (!batch.ok()) {
    HttpResponse response;
    response.code = api::HttpStatus(batch.error().code);
    response.body = batch.error().ToJson();
    return response;
  }
  batch.value().session = request.Param("session");
  return ToResponse(service_.Batch(batch.value(), Workers()));
}

ThreadPool* CExplorerServer::Workers() {
  std::lock_guard<std::mutex> lock(workers_mu_);
  if (workers_ == nullptr) {
    workers_ = std::make_unique<ThreadPool>(DefaultThreadCount());
  }
  return workers_.get();
}

void CExplorerServer::ConfigureWorkers(std::size_t threads) {
  std::lock_guard<std::mutex> lock(workers_mu_);
  workers_ = std::make_unique<ThreadPool>(threads);
}

std::size_t CExplorerServer::num_workers() const {
  std::lock_guard<std::mutex> lock(workers_mu_);
  return workers_ == nullptr ? 0 : workers_->num_threads();
}

std::future<HttpResponse> CExplorerServer::SubmitAsync(
    std::string request_text) {
  auto task = std::make_shared<std::packaged_task<HttpResponse()>>(
      [this, text = std::move(request_text)] { return Handle(text); });
  std::future<HttpResponse> future = task->get_future();
  ThreadPool* workers = Workers();
  if (workers->num_threads() == 0) {
    (*task)();  // a zero-thread executor degenerates to synchronous serving
  } else {
    workers->Submit([task] { (*task)(); });
  }
  return future;
}

}  // namespace cexplorer
