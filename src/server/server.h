// The C-Explorer HTTP front end: a thin adapter that binds the declarative
// /v1 route table (api/routes.h) to the QueryService facade
// (api/query_service.h), which owns every request semantic — validation
// beyond per-parameter typing, session resolution, snapshot discipline,
// pagination, and the structured error taxonomy.
//
// Dispatch is table-driven: the path is looked up as "/v1/<name>" (any
// other path is a 404), the parameter schema is validated (typed params
// must parse and unknown params are rejected), and a per-route binder
// converts the validated parameters into the typed request struct for the
// service. Every payload travels in the request body. GET /v1/api
// returns the generated self-description of every route and its schema.
// Every error is the envelope {"error":{"code","message"[,"detail"]}} with
// the HTTP status implied by the code.
//
// Endpoints (all accept an optional &session=ID; GET unless noted):
//   /v1/api             self-description: routes + algorithm registry
//   /v1/healthz         liveness: uptime, snapshot id, session/job counts
//   /v1/version         API + build version info
//   /v1/stats           result-cache hit/miss counters, sessions, jobs
//   /v1/index           system summary
//   /v1/session/new     create a session
//   /v1/session/delete  delete a session
//   /v1/sessions        list live sessions
//   /v1/upload          load a graph file for ALL sessions
//   /v1/search          run a CS algorithm
//   /v1/community       one cached community; supports limit/cursor paging
//   /v1/profile         author profile popup
//   /v1/explore         continue exploration from a member
//   /v1/compare         Figure 6(a) comparison table
//   /v1/history         exploration chain (the last 1,000 steps)
//   /v1/detect          run a CD algorithm
//   /v1/cluster         one cluster; supports limit/cursor paging
//   /v1/author          query-form population
//   /v1/export          cached community as SVG
//   /v1/snapshot/save   POST: write the dataset as a zero-copy binary
//                       snapshot (graph + cores + CL-tree, one file), the
//                       saved form of the offline Indexing module
//   /v1/snapshot/load   POST: mmap a snapshot and swap it in for ALL
//                       sessions — no parse, no rebuild, sub-second
//   /v1/edges           POST {"edges": [[u, v], ...]}: insert a batch of
//                       edges; DELETE with the same body removes them.
//                       One request = one atomic mutation batch, applied
//                       with incremental k-core maintenance and published
//                       as a fresh copy-on-write overlay snapshot
//   /v1/vertices        POST {"vertices": [{"name", "keywords"}, ...]}:
//                       append vertices as one atomic batch
//   /v1/compact         POST: fold the pending mutation overlay into an
//                       owned dataset now (also runs in the background
//                       past the overlay threshold)
//   /v1/batch           POST a JSON array of search entries; all entries
//                       run under ONE snapshot on the worker pool
//   /v1/jobs            POST a job spec to run any registered algorithm
//                       asynchronously on the worker pool, pinned to the
//                       current snapshot; GET lists jobs
//   /v1/jobs/<id>        GET state/progress/runtime; DELETE cancels (the
//                       worker unwinds at the next algorithm checkpoint)
//   /v1/jobs/<id>/result GET the finished result; member_of/limit/cursor
//                       page one member list via the cursor machinery

#ifndef CEXPLORER_SERVER_SERVER_H_
#define CEXPLORER_SERVER_SERVER_H_

#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "api/query_service.h"
#include "api/routes.h"
#include "common/parallel.h"
#include "explorer/dataset.h"
#include "server/http.h"

namespace cexplorer {

/// The multi-session C-Explorer server. Thread-safe: Handle() may be called
/// concurrently from any number of threads.
class CExplorerServer {
 public:
  CExplorerServer() = default;

  /// The underlying facade, for embedders that want the typed API with the
  /// same session/dataset state the HTTP surface serves.
  api::QueryService& service() { return service_; }

  /// Builds a dataset from an in-memory graph and swaps it in for all
  /// sessions (the programmatic twin of /v1/upload).
  Status UploadGraph(AttributedGraph graph) {
    return service_.UploadGraph(std::move(graph));
  }

  /// File variant of UploadGraph.
  Status Upload(const std::string& path) { return service_.Upload(path); }

  /// Attaches an already-built dataset (shared with other servers or
  /// embedders; no index build). Serving only moves forward in snapshot-id
  /// order: returns false (and serves the existing dataset unchanged) when
  /// `dataset` is older than the currently served snapshot.
  bool AttachDataset(DatasetPtr dataset) {
    return service_.AttachDataset(std::move(dataset));
  }

  /// The current dataset snapshot (nullptr before any upload).
  DatasetPtr dataset() const { return service_.dataset(); }

  /// Live session count.
  std::size_t num_sessions() const { return service_.num_sessions(); }

  /// Parses and dispatches one request (a request line, optionally followed
  /// by a POST body). Thread-safe.
  HttpResponse Handle(std::string_view request_text);

  /// Dispatches a parsed request. Thread-safe.
  HttpResponse Dispatch(const HttpRequest& request);

  // --- Bounded worker-pool executor ---------------------------------------
  //
  // Handle() runs on the caller's thread, so request concurrency used to be
  // whatever the caller spawned. The executor makes it a server knob: at
  // most `threads` requests execute at once, later submissions queue in
  // FIFO order. /v1/batch fans its sub-queries over the same pool.

  /// Sizes the worker pool (default: DefaultThreadCount()). Must not be
  /// called while submitted requests are still pending.
  void ConfigureWorkers(std::size_t threads);

  /// Enqueues a request on the worker pool and returns a future that
  /// completes when a worker has dispatched it. Thread-safe.
  std::future<HttpResponse> SubmitAsync(std::string request_text);

  /// Worker threads currently configured (0 before first use).
  std::size_t num_workers() const;

 private:
  /// Per-route binders: convert validated parameters into the typed request
  /// struct and call the facade.
  HttpResponse BindApi(const HttpRequest& request);
  HttpResponse BindHealthz(const HttpRequest& request);
  HttpResponse BindVersion(const HttpRequest& request);
  HttpResponse BindStats(const HttpRequest& request);
  HttpResponse BindJobs(const HttpRequest& request);
  HttpResponse BindJob(const HttpRequest& request);
  HttpResponse BindJobResult(const HttpRequest& request);
  HttpResponse BindIndex(const HttpRequest& request);
  HttpResponse BindSessionNew(const HttpRequest& request);
  HttpResponse BindSessionDelete(const HttpRequest& request);
  HttpResponse BindSessions(const HttpRequest& request);
  HttpResponse BindUpload(const HttpRequest& request);
  HttpResponse BindSearch(const HttpRequest& request);
  HttpResponse BindCommunity(const HttpRequest& request);
  HttpResponse BindProfile(const HttpRequest& request);
  HttpResponse BindExplore(const HttpRequest& request);
  HttpResponse BindCompare(const HttpRequest& request);
  HttpResponse BindHistory(const HttpRequest& request);
  HttpResponse BindDetect(const HttpRequest& request);
  HttpResponse BindCluster(const HttpRequest& request);
  HttpResponse BindAuthor(const HttpRequest& request);
  HttpResponse BindExport(const HttpRequest& request);
  HttpResponse BindSnapshotSave(const HttpRequest& request);
  HttpResponse BindSnapshotLoad(const HttpRequest& request);
  HttpResponse BindEdges(const HttpRequest& request);
  HttpResponse BindVertices(const HttpRequest& request);
  HttpResponse BindCompact(const HttpRequest& request);
  HttpResponse BindBatch(const HttpRequest& request);

  /// The worker pool, creating it with DefaultThreadCount() threads on
  /// first use.
  ThreadPool* Workers();

  api::QueryService service_;

  mutable std::mutex workers_mu_;
  std::unique_ptr<ThreadPool> workers_;
};

}  // namespace cexplorer

#endif  // CEXPLORER_SERVER_SERVER_H_
