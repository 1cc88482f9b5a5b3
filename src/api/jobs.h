// The asynchronous job subsystem behind /v1/jobs.
//
// A job is one registered algorithm executed on the server worker pool,
// pinned to the dataset snapshot that was being served at submit time — a
// concurrent /upload never splits or invalidates a running job; it only
// makes the finished result report a superseded dataset id. Each job
// carries its own ExecControl: DELETE /v1/jobs/<id> fires the cancel token
// and the worker thread unwinds at the algorithm's next cooperative
// checkpoint (one betweenness source, one peel batch, one lattice level);
// an optional deadline arms the same mechanism on a timer, and progress
// reported by the algorithm is readable while the job runs.
//
// Lifecycle:
//
//   QUEUED ──▶ RUNNING ──▶ DONE
//     │           ├──────▶ FAILED     (algorithm error, deadline exceeded)
//     └──────────▶└──────▶ CANCELLED  (DELETE before/while running)
//
// Terminal jobs stay queryable until evicted (oldest-terminal-first) once
// the registry exceeds its retention cap.
//
// Thread-safety: every method may be called from any thread. Job state is
// guarded by a per-job mutex; progress and cancellation flow through the
// lock-free ExecControl.

#ifndef CEXPLORER_API_JOBS_H_
#define CEXPLORER_API_JOBS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/parallel.h"
#include "explorer/algorithm.h"
#include "explorer/dataset.h"

namespace cexplorer {
namespace api {

enum class JobState : std::uint8_t {
  kQueued = 0,
  kRunning,
  kDone,
  kFailed,
  kCancelled,
};

/// Stable wire name ("QUEUED", "RUNNING", "DONE", "FAILED", "CANCELLED").
const char* JobStateName(JobState state);

/// True for the states a job can never leave.
bool IsTerminal(JobState state);

/// The largest accepted job deadline: 10^12 ms, about 31 years. Submit
/// adds it to steady_clock::now() in int64 nanoseconds, which overflows
/// near 9.2e12 ms.
inline constexpr std::int64_t kMaxDeadlineMs = 1'000'000'000'000;

/// What to run: the decoded POST /v1/jobs body.
struct JobSpec {
  std::string algo;
  AlgorithmKind kind = AlgorithmKind::kCommunitySearch;
  Query query;  ///< search kinds only
  std::map<std::string, std::string> params;
  /// Relative deadline armed at submit (covers queue wait); 0 = none.
  std::int64_t deadline_ms = 0;
};

/// One job. Fields under `mu`; `control` is internally thread-safe and
/// readable without the lock.
class Job {
 public:
  Job(std::string job_id, JobSpec job_spec, DatasetPtr snapshot);

  /// A consistent read of the mutable state for rendering.
  struct Snapshot {
    std::string id;
    std::string algo;
    AlgorithmKind kind = AlgorithmKind::kCommunitySearch;
    JobState state = JobState::kQueued;
    double progress = 0.0;
    std::uint64_t dataset_id = 0;
    std::uint64_t graph_epoch = 0;
    std::int64_t runtime_ms = 0;  ///< running time so far / total
    std::int64_t deadline_ms = 0;
    Status error;  ///< FAILED / CANCELLED cause
  };
  Snapshot Read() const;

  const std::string& id() const { return id_; }
  const JobSpec& spec() const { return spec_; }

  /// The pinned snapshot. Non-null while the job is live and once it is
  /// DONE (result rendering needs the graph); released when the job ends
  /// FAILED or CANCELLED so dead jobs don't pin superseded datasets.
  DatasetPtr dataset() const;

  const ExecControl& control() const { return control_; }

  /// Process-unique generation of the finished result (cursor binding).
  /// Only meaningful once the state is kDone.
  std::uint64_t generation() const { return generation_; }

  /// The finished output. Immutable once kDone; callers must have observed
  /// kDone (via Read) before touching it.
  const AlgorithmOutput& output() const { return output_; }

 private:
  friend class JobManager;

  const std::string id_;
  const JobSpec spec_;
  /// Snapshot identity, cached so Read() never needs the (releasable)
  /// dataset pointer.
  const std::uint64_t dataset_id_;
  const std::uint64_t graph_epoch_;
  ExecControl control_;

  mutable std::mutex mu_;
  DatasetPtr dataset_;
  JobState state_ = JobState::kQueued;
  Status error_;
  AlgorithmOutput output_;
  std::uint64_t generation_ = 0;
  std::uint64_t sequence_ = 0;  ///< admission order, for eviction
  ExecControl::Clock::time_point submitted_;
  ExecControl::Clock::time_point started_;
  ExecControl::Clock::time_point finished_;
};

using JobPtr = std::shared_ptr<Job>;

/// Thread-safe registry + executor of jobs.
class JobManager {
 public:
  /// Default bound on retained jobs (live + terminal).
  static constexpr std::size_t kDefaultMaxJobs = 1024;

  explicit JobManager(std::size_t max_jobs = kDefaultMaxJobs)
      : max_jobs_(max_jobs) {}

  /// Admits a job pinned to `snapshot` and enqueues it on `pool` (a
  /// zero-thread or null pool executes inline, degrading to synchronous
  /// completion). Returns nullptr when the registry is full of
  /// non-terminal jobs.
  JobPtr Submit(JobSpec spec, DatasetPtr snapshot, ThreadPool* pool);

  /// Looks a job up, or nullptr.
  JobPtr Get(const std::string& id) const;

  /// Fires the cancel token. A queued job goes terminal immediately; a
  /// running one unwinds at its next checkpoint. Terminal jobs are
  /// unaffected. Returns false for an unknown id.
  bool Cancel(const std::string& id);

  /// All retained jobs in admission order.
  std::vector<JobPtr> List() const;

  std::size_t size() const;

 private:
  /// Runs on a worker: executes the algorithm and records the outcome.
  static void Execute(const JobPtr& job);

  const std::size_t max_jobs_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 0;
  std::map<std::string, JobPtr> jobs_;
};

}  // namespace api
}  // namespace cexplorer

#endif  // CEXPLORER_API_JOBS_H_
