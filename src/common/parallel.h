// The server's worker pool: a fixed-size thread pool plus the ParallelFor
// helper the /v1/batch fan-out is written against.
//
// Parallelism comes only from the worker pool, never from work inside a
// single request: /v1/batch entries, jobs and CExplorerServer::SubmitAsync
// run on it, while a search, a core decomposition or a CL-tree build runs
// on the thread that asked for it.
//
// Design notes:
//   * The pool is deliberately work-stealing-free: tasks go through one
//     mutex-guarded queue. ParallelFor chops a flat range into chunks
//     claimed from a single atomic cursor, so queue contention is one
//     enqueue per worker per loop, not per item.
//   * The calling thread participates: ParallelFor claims chunks on the
//     caller too, so a loop makes progress even when every worker is busy
//     with someone else's loop, and a pool of 0 threads degenerates to the
//     plain sequential loop.
//   * Nested ParallelFor calls run inline on the worker that issued them
//     (detected via a thread-local flag). This cannot deadlock: a worker
//     never blocks waiting for pool capacity.
//
// Exception propagation rules:
//   * A body passed to ParallelFor may throw. The FIRST exception (in
//     completion order) is captured; the loop stops claiming new chunks,
//     drains already-running chunks, and rethrows the captured exception
//     on the calling thread. Later exceptions are swallowed.
//   * Work submitted directly through ThreadPool::Submit must not throw:
//     there is nowhere to deliver the exception, so the task wrapper
//     terminates the process (fail fast beats silent loss).
//
// Pool sizing: DefaultThreadCount() reads the CEXPLORER_THREADS environment
// variable when set (0 runs every batch entry and job inline on the
// caller), else std::thread::hardware_concurrency().

#ifndef CEXPLORER_COMMON_PARALLEL_H_
#define CEXPLORER_COMMON_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cexplorer {

/// Fixed-size thread pool. Construction spawns the workers; destruction
/// drains the queue and joins them. Thread-safe.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers. 0 is valid: Submit still works (tasks
  /// run... never — callers must check num_threads(); ParallelFor does and
  /// runs inline instead).
  explicit ThreadPool(std::size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Waits for queued tasks to finish, then joins the workers.
  ~ThreadPool();

  /// Number of worker threads.
  std::size_t num_threads() const { return threads_.size(); }

  /// Enqueues a task. The task must not throw (see the exception rules in
  /// the file header). Safe to call from any thread, including workers.
  void Submit(std::function<void()> task);

  /// True iff the calling thread is a worker of ANY ThreadPool. Used to
  /// run nested parallel loops inline instead of deadlocking on pool
  /// capacity.
  static bool InWorker();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

/// The thread count worker pools are sized with: CEXPLORER_THREADS when
/// set, else hardware_concurrency().
std::size_t DefaultThreadCount();

/// A process-wide pool of DefaultThreadCount() threads, created on first
/// use and never destroyed; nullptr when that count is <= 1. Nothing in the
/// library uses it: it stays only because the end-to-end benchmark harness
/// passes it to the pinned overloads (e2ebench/e2e.cc:596, :1019, :1023).
ThreadPool* DefaultPool();

namespace internal {

/// Runs fn(lo, hi) over [begin, end) split into chunks of at most
/// `chunk_size`, on `pool` with caller participation. Rethrows the first
/// body exception. `fn` must be safe to invoke concurrently.
void ParallelForChunked(std::size_t begin, std::size_t end,
                        std::size_t chunk_size, ThreadPool* pool,
                        const std::function<void(std::size_t, std::size_t)>& fn);

/// Chunk size for n items: at least `grain`, and coarse enough that the
/// range yields a bounded number of chunks (amortizing the atomic claim).
std::size_t PickChunkSize(std::size_t n, std::size_t grain);

}  // namespace internal

/// Parallel loop over [begin, end): body(i) for every index, any order.
/// Runs inline when `pool` is null, has no workers, the range is tiny, or
/// the caller is itself a pool worker (nested loop). Blocks until every
/// index is done; rethrows the first exception thrown by `body`.
template <typename Body>
void ParallelFor(std::size_t begin, std::size_t end, ThreadPool* pool,
                 Body&& body, std::size_t grain = 1) {
  const std::size_t n = end > begin ? end - begin : 0;
  if (n == 0) return;
  if (pool == nullptr || pool->num_threads() == 0 || n <= grain ||
      ThreadPool::InWorker()) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  const std::size_t chunk = internal::PickChunkSize(n, grain);
  internal::ParallelForChunked(begin, end, chunk, pool,
                               [&body](std::size_t lo, std::size_t hi) {
                                 for (std::size_t i = lo; i < hi; ++i) body(i);
                               });
}

}  // namespace cexplorer

#endif  // CEXPLORER_COMMON_PARALLEL_H_
