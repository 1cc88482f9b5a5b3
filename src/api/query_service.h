// QueryService — the one front door of the C-Explorer engine.
//
// Every consumer (the HTTP route table in src/server/server.cc, the
// interactive CLI, /v1/batch slots, embedders linking the library) fills a
// typed request struct (api/types.h) and calls the matching method here.
// The service owns ALL request semantics in one place:
//
//   * validation and defaults beyond per-parameter typing (cross-field
//     rules like "search needs a name or a vertex");
//   * session resolution (empty id -> the implicit "default" session) and
//     the snapshot discipline of the multi-session engine: each request
//     pins one immutable Dataset snapshot, sessions only ever move forward
//     in snapshot order, and caches are invalidated by graph epoch;
//   * pagination of community / cluster member lists via stable PageToken
//     cursors (stale cursor -> kConflict, foreign cursor ->
//     kInvalidArgument);
//   * the structured ApiError taxonomy — no consumer ever sees a raw
//     library Status.
//
// Methods return the rendered JSON body (ExportSvg: the SVG document), so
// the HTTP layer and in-process embedders (the CLI, examples) get the same
// bytes.
//
// Concurrency model (inherited from the pre-split server, unchanged): the
// served DatasetPtr is guarded by a shared_mutex — requests take a shared
// lock just long enough to copy the pointer; an upload or snapshot load
// builds the replacement outside the lock and installs it with a
// compare-and-swap publish (kConflict for the loser). One request at a
// time per session; different sessions run fully in parallel. Thread-safe
// throughout.

#ifndef CEXPLORER_API_QUERY_SERVICE_H_
#define CEXPLORER_API_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "api/error.h"
#include "api/jobs.h"
#include "api/result_cache.h"
#include "api/types.h"
#include "common/cancel.h"
#include "common/parallel.h"
#include "delta/delta.h"
#include "explorer/dataset.h"
#include "server/session.h"

namespace cexplorer {
namespace api {

class QueryService {
 public:
  QueryService();

  // --- Execution policy ----------------------------------------------------

  /// Deadline applied to every synchronous Search / Detect / Explore /
  /// Compare (the blocking twins of the job path). Algorithms overrunning
  /// it unwind at their next checkpoint and the request answers
  /// DEADLINE_EXCEEDED instead of occupying its worker indefinitely.
  /// 0 disables the bound. Default: 60000 ms.
  void set_sync_deadline_ms(std::int64_t ms) { sync_deadline_ms_ = ms; }
  std::int64_t sync_deadline_ms() const { return sync_deadline_ms_; }

  /// Replaces the shared result cache (see api/result_cache.h) with one of
  /// the given capacity, shard count and byte budget. Capacity 0 disables
  /// result caching. Safe to call at any time; in-flight requests finish
  /// against the cache they started with.
  void ConfigureResultCache(
      std::size_t capacity, std::size_t shards = ResultCache::kDefaultShards,
      std::size_t max_bytes = ResultCache::kDefaultMaxBytes);

  /// Counters of the shared result cache (tests and embedders; /v1/stats
  /// renders the same numbers).
  ResultCache::Stats ResultCacheStats() const;

  // --- Dataset lifecycle (programmatic twins of /v1/upload) ---------------

  /// Builds a dataset from an in-memory graph and swaps it in for all
  /// sessions.
  Status UploadGraph(AttributedGraph graph);

  /// File variant of UploadGraph.
  Status Upload(const std::string& path);

  /// Attaches an already-built dataset (shared with other services or
  /// embedders; no index build). Serving only moves forward in snapshot-id
  /// order: returns false (and keeps serving the existing dataset) when
  /// `dataset` is older than the currently served snapshot.
  bool AttachDataset(DatasetPtr dataset);

  /// The current dataset snapshot (nullptr before any upload).
  DatasetPtr dataset() const;

  // --- Sessions ------------------------------------------------------------

  ApiResult<std::string> CreateSession();
  ApiResult<std::string> DeleteSession(const std::string& id);
  ApiResult<std::string> ListSessions();
  std::size_t num_sessions() const { return sessions_.size(); }

  // --- Queries -------------------------------------------------------------

  /// System summary (graph size, algorithms, session count) — "/".
  ApiResult<std::string> Summary(const std::string& session);

  /// GET /v1/api: the route table plus the session's registered algorithm
  /// descriptors (built-ins + any plug-ins registered on that session).
  ApiResult<std::string> DescribeApi(const std::string& session);

  /// GET /v1/healthz: liveness, uptime, served snapshot, session/job
  /// counts.
  ApiResult<std::string> Healthz();

  /// GET /v1/version: API + build version information.
  ApiResult<std::string> Version();

  /// GET /v1/stats: serving counters — the result cache (hits, misses,
  /// entries, capacity), session and job counts, served snapshot.
  ApiResult<std::string> Stats();

  // --- Jobs (the asynchronous execution path) ------------------------------

  /// POST /v1/jobs: decodes the body, validates the algorithm and its
  /// parameters against the registry, pins the current snapshot, and
  /// enqueues on `pool`.
  ApiResult<std::string> SubmitJob(const JobSubmitRequest& request,
                                   ThreadPool* pool);

  /// GET /v1/jobs.
  ApiResult<std::string> ListJobs();

  /// GET /v1/jobs/<id>: state, progress, runtime, error.
  ApiResult<std::string> JobStatus(const JobRequest& request);

  /// DELETE /v1/jobs/<id>: fires the cancel token; the worker unwinds at
  /// the next algorithm checkpoint. Terminal jobs are left untouched.
  ApiResult<std::string> CancelJob(const JobRequest& request);

  /// GET /v1/jobs/<id>/result: the finished result, optionally paging one
  /// community / cluster member list through the cursor machinery.
  ApiResult<std::string> JobResult(const JobResultRequest& request);

  /// The job registry (tests and embedders).
  JobManager& jobs() { return jobs_; }

  ApiResult<std::string> Search(const SearchRequest& request);
  ApiResult<std::string> Explore(const ExploreRequest& request);
  ApiResult<std::string> Compare(const CompareRequest& request);
  ApiResult<std::string> Detect(const DetectRequest& request);
  ApiResult<std::string> Community(const CommunityRequest& request);
  ApiResult<std::string> Cluster(const ClusterRequest& request);
  ApiResult<std::string> Profile(const ProfileRequest& request);
  ApiResult<std::string> Author(const AuthorRequest& request);
  ApiResult<std::string> History(const std::string& session);

  /// Returns the SVG document (image/svg+xml), not JSON.
  ApiResult<std::string> ExportSvg(const ExportRequest& request);

  ApiResult<std::string> UploadFile(const DatasetRequest& request);

  // --- Mutations (the dynamic-graph tier) ---------------------------------

  /// POST /v1/edges: applies one batch of edge insertions and publishes a
  /// fresh overlay snapshot for all sessions. Existing edges are counted
  /// as ignored, not errors (streams replay).
  ApiResult<std::string> AddEdges(const MutationRequest& request);

  /// DELETE /v1/edges: edge-removal twin of AddEdges.
  ApiResult<std::string> RemoveEdges(const MutationRequest& request);

  /// POST /v1/vertices: appends vertices (name + keywords) to the graph.
  ApiResult<std::string> AddVertices(const MutationRequest& request);

  /// Synchronously folds the pending mutation overlay into an owned
  /// dataset and publishes it (tests, the CLI's `compact` command).
  /// A no-op success when nothing is pending.
  ApiResult<std::string> CompactMutations(const std::string& session);

  /// Counters of the mutation tier (the same numbers /v1/stats renders
  /// under "mutations").
  delta::MutationStats MutationStatsNow();

  /// POST /v1/snapshot/save: writes the served dataset (graph + cores +
  /// CL-tree) as one zero-copy binary snapshot file. A dataset carrying an
  /// uncompacted mutation overlay is folded (synchronous compaction) first
  /// — mutations are never silently dropped from a snapshot.
  ApiResult<std::string> SnapshotSave(const DatasetRequest& request);

  /// POST /v1/snapshot/load: maps a snapshot file and swaps it in as the
  /// served dataset — a full graph replacement with no index rebuild. A
  /// corrupt file is rejected with UNAVAILABLE and the old dataset stays.
  ApiResult<std::string> SnapshotLoad(const DatasetRequest& request);

  /// Runs every entry against ONE dataset snapshot, fanned across `pool`
  /// (nullptr: sequential). Per-entry failures land in their result slot
  /// as {"error":{...}} envelopes; the batch itself only fails on
  /// service-level problems (no dataset, unknown session).
  ApiResult<std::string> Batch(const BatchRequest& request, ThreadPool* pool);

  /// Decodes the JSON wire form of a batch ([{"name"|"vertex", "k",
  /// "keywords", "algo"}, ...]) into typed entries; malformed entries get
  /// their `error` field set (reported per-slot) instead of failing the
  /// batch.
  static ApiResult<BatchRequest> ParseBatch(const std::string& json);

 private:
  /// Everything one request needs: the resolved session and the dataset
  /// snapshot it runs against.
  struct RequestContext {
    std::shared_ptr<Session> session;
    DatasetPtr dataset;
  };

  /// Resolves the session (empty -> implicit "default") and pins the
  /// current snapshot. kNotFound for an unknown explicit session id.
  ApiResult<RequestContext> Begin(const std::string& session_id);

  /// THE one epoch-bump path: every dataset install — programmatic swap,
  /// /upload, snapshot load, mutation publish, compaction —
  /// funnels through here, so the result cache (and, via the epoch tag,
  /// every session cache) can never observe a graph change without the
  /// matching epoch change. With `expected` non-null this is a
  /// compare-and-swap (install only if `*expected` is still served);
  /// null means unconditional-but-forward-only (by snapshot id). An
  /// epoch change clears the result cache.
  bool InstallDataset(const DatasetPtr* expected, DatasetPtr fresh);

  bool SwapDataset(DatasetPtr dataset);

  /// Compare-and-swap publish for uploads and snapshot loads: installs
  /// `fresh` only if the served dataset is still the snapshot this request
  /// started from; otherwise returns false (the caller reports kConflict).
  bool PublishDataset(RequestContext& ctx, DatasetPtr fresh);

  /// The lazily created mutation engine; its publish callback is
  /// InstallDataset in CAS mode.
  delta::Mutator& mutator();

  /// Shared body of AddEdges/RemoveEdges/AddVertices: apply, publish,
  /// attach, render.
  ApiResult<std::string> ApplyMutations(const std::string& session,
                                        delta::MutationBatch batch);

  /// Attaches ctx.dataset to ctx.session (locking the session) and drops
  /// the session's dataset-derived caches when the graph changed.
  void AttachToSession(RequestContext& ctx, bool clear_history);

  /// Shared core of the attach sites. Requires ctx.session->mu held.
  static void AttachLocked(RequestContext& ctx, bool adopt_newer,
                           bool clear_history);

  /// Runs a search, caches the result in the session, renders the body.
  /// `control` bounds the execution (sync deadline); may be null.
  ApiResult<std::string> RunSearch(RequestContext& ctx,
                                   const std::string& algo, const Query& query,
                                   const ExecControl* control);

  /// Arms `control` with the synchronous deadline; returns the pointer to
  /// pass down (null when the bound is disabled).
  const ExecControl* ArmSyncDeadline(ExecControl* control) const;

  /// The current result cache (never null). Swapped wholesale by
  /// ConfigureResultCache; readers pin their own reference.
  std::shared_ptr<ResultCache> result_cache() const;

  mutable std::shared_mutex dataset_mu_;
  DatasetPtr dataset_;

  mutable std::mutex result_cache_mu_;
  std::shared_ptr<ResultCache> result_cache_;

  /// Guards lazy creation only; the Mutator has its own internal lock.
  /// Lock order: the mutator's lock is taken BEFORE dataset_mu_ (its
  /// publish callback runs InstallDataset); nothing holding dataset_mu_
  /// may call into the mutator.
  mutable std::mutex mutator_mu_;
  std::unique_ptr<delta::Mutator> mutator_;

  SessionManager sessions_;
  JobManager jobs_;

  std::atomic<std::int64_t> sync_deadline_ms_{60000};
  ExecControl::Clock::time_point start_time_;
};

}  // namespace api
}  // namespace cexplorer

#endif  // CEXPLORER_API_QUERY_SERVICE_H_
