// Per-browser-session state and the registry that owns it.
//
// A Session is everything one browser tab accumulates while walking the
// exploration loop of Figures 1-2: its Explorer view (plug-in registry +
// attached dataset snapshot), the communities cached by the last /search,
// the last /detect result, and the exploration history. Sessions are cheap:
// they borrow the shared Dataset and share the search result they hold
// with the result cache, copying neither.
//
// Cached results are tagged with the graph epoch of the dataset snapshot
// they were computed against (a compaction keeps the epoch of the graph it
// folds). After /v1/upload swaps in a new graph, a stale tag makes
// /v1/community and /v1/cluster refuse to serve vertex ids from the
// previous graph instead of silently returning garbage; after /v1/compact
// the caches remain valid and are kept.
//
// Locking: SessionManager's map is guarded by its own mutex; each Session
// carries a mutex serializing the requests of that one session. Requests of
// different sessions run fully in parallel (they only share the immutable
// Dataset).

#ifndef CEXPLORER_SERVER_SESSION_H_
#define CEXPLORER_SERVER_SESSION_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "algos/clusterers.h"
#include "api/result_cache.h"
#include "explorer/community.h"
#include "explorer/explorer.h"

namespace cexplorer {

/// One browser session. Lock `mu` while reading or writing any other field.
struct Session {
  explicit Session(std::string session_id) : id(std::move(session_id)) {}

  const std::string id;

  std::mutex mu;

  /// The per-session engine view (plug-ins + dataset snapshot).
  Explorer explorer;

  // --- Browser cache of the Figures 1-2 loop ------------------------------

  /// Result of the last /search or /explore (nullptr = none): the very
  /// object the result cache holds for that query, shared with every
  /// session that ran or hit it, and its per-community analysis memo.
  api::CachedSearchPtr communities;
  /// Graph epoch the cache was computed against (0 = none).
  std::uint64_t communities_epoch = 0;
  /// Process-unique generation assigned every time `communities` is
  /// replaced; pagination cursors carry the generation they were minted
  /// against, so a cursor from a previous search — or from another
  /// session — cannot silently page into a different result set.
  std::uint64_t communities_generation = 0;
  /// Query behind `communities` (k is reused by /explore, the query vertex
  /// by /export).
  Query last_query;

  /// Result of the last /detect.
  Clustering detection;
  std::string detection_algo;
  std::uint64_t detection_epoch = 0;
  /// Process-unique generation assigned every time `detection` is
  /// replaced (see communities_generation).
  std::uint64_t detection_generation = 0;

  /// Most entries `history` keeps; AddHistory drops the oldest first.
  static constexpr std::size_t kMaxHistory = 1000;

  /// Exploration chain ("ACQ:jim gray:k=4", ...), oldest first: the last
  /// kMaxHistory searches, explores and detects.
  std::deque<std::string> history;

  /// Appends one step to `history`, keeping only the last kMaxHistory.
  void AddHistory(std::string entry) {
    history.push_back(std::move(entry));
    if (history.size() > kMaxHistory) history.pop_front();
  }

  /// Drops all graph-derived caches (on graph swap).
  void InvalidateCaches() {
    communities.reset();
    communities_epoch = 0;
    detection = Clustering{};
    detection_algo.clear();
    detection_epoch = 0;
  }
};

/// Thread-safe registry of live sessions.
class SessionManager {
 public:
  /// Default bound on live sessions (resource backstop: sessions pin
  /// dataset snapshots and hold result caches).
  static constexpr std::size_t kDefaultMaxSessions = 1024;

  explicit SessionManager(std::size_t max_sessions = kDefaultMaxSessions)
      : max_sessions_(max_sessions) {}

  /// Creates a fresh session with a generated id ("s1", "s2", ...), or
  /// nullptr when the session limit is reached.
  std::shared_ptr<Session> Create();

  /// Looks up a session, or nullptr if unknown.
  std::shared_ptr<Session> Get(const std::string& id) const;

  /// Removes a session, freeing its slot (its snapshot and caches die with
  /// the last reference). Returns false if unknown.
  bool Remove(const std::string& id);

  /// Looks up a session, creating it if absent (the implicit default
  /// session of clients that never call /session/new). The implicit
  /// session is exempt from the limit.
  std::shared_ptr<Session> GetOrCreate(const std::string& id);

  /// All sessions, ordered by id.
  std::vector<std::shared_ptr<Session>> List() const;

  std::size_t size() const;

 private:
  const std::size_t max_sessions_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 0;
  std::map<std::string, std::shared_ptr<Session>> sessions_;
};

}  // namespace cexplorer

#endif  // CEXPLORER_SERVER_SESSION_H_
