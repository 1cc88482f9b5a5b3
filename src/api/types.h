// Typed request structs of the versioned query API.
//
// Every way into the engine — the HTTP route table, the interactive CLI,
// batch entries, embedders linking the library — fills one of these structs
// and hands it to QueryService (api/query_service.h). The structs carry the
// *declared* defaults of the API (k = 4, algo = "ACQ", ...), so defaulting
// happens in exactly one place and the HTTP layer stays a dumb binder.
//
// Pagination: endpoints returning member lists (/v1/community,
// /v1/cluster) accept a PageParams{limit, cursor}. Cursors are opaque
// PageTokens that encode the graph epoch, the object id they paginate, and
// the member offset; QueryService rejects a cursor whose epoch no longer
// matches the served snapshot with kConflict (the data it pointed into was
// replaced by an /upload) and one aimed at a different object with
// kInvalidArgument. Ordering is stable by construction: community and
// cluster member lists are ascending vertex ids frozen in the session
// cache, so identical snapshots replay identical pages.

#ifndef CEXPLORER_API_TYPES_H_
#define CEXPLORER_API_TYPES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/error.h"
#include "graph/types.h"

namespace cexplorer {
namespace api {

/// Opaque pagination cursor. Wire format
/// "g<epoch>-t<kind>-i<id>-r<generation>-o<offset>" — clients must treat it
/// as a black box; the format may change.
struct PageToken {
  /// What the cursor pages, so a cursor minted by one endpoint cannot be
  /// replayed against another.
  enum class Kind : std::uint8_t { kCommunity = 0, kCluster = 1, kJob = 2 };

  std::uint64_t graph_epoch = 0;  ///< snapshot generation the cursor is for
  Kind kind = Kind::kCommunity;   ///< endpoint family that minted it
  std::uint64_t object_id = 0;    ///< community / cluster id being paged
  /// Process-unique result-set generation (a fresh value is assigned by
  /// every search / detect in any session), so a cursor cannot page into
  /// a result set other than the one it was minted against — not even an
  /// identically-shaped result set of another session.
  std::uint64_t generation = 0;
  std::uint64_t offset = 0;  ///< index of the first member of the page

  std::string Encode() const;

  /// Parses a cursor produced by Encode. kInvalidArgument on any deviation,
  /// including whitespace or trailing bytes after the offset field — every
  /// accepted token round-trips byte-identically through Encode.
  static ApiResult<PageToken> Decode(const std::string& text);
};

/// Process-unique result-set generation. A fresh value is minted whenever a
/// result set that cursors can page into is created (a session's search /
/// detect cache is replaced, a job completes), so a cursor can never page
/// into any result set other than the one it was minted against.
std::uint64_t NextResultGeneration();

/// The one conversion every explicit `vertex` and `k` goes through, from a
/// query parameter or a JSON number alike: integers in [0, 2^32 - 1] pass.
/// Negative, fractional, larger and non-finite values are nullopt, so an
/// out-of-range id is refused instead of wrapping or truncating.
std::optional<std::uint32_t> CheckedUint32(double value);

/// Page selection for member-list endpoints. limit == 0 means the full
/// shape: the whole (truncation-capped) list, byte-identical to the
/// unpaginated response.
struct PageParams {
  std::uint64_t limit = 0;
  std::string cursor;  ///< empty = first page
};

/// /v1/search — run one community-search algorithm. Exactly one of `name`
/// (resolved against the graph) or `vertices` must be set.
struct SearchRequest {
  std::string session;
  std::string algo = "ACQ";
  std::string name;
  VertexList vertices;
  std::uint32_t k = 4;
  std::vector<std::string> keywords;
};

/// /v1/explore — continue exploration from a community member.
struct ExploreRequest {
  std::string session;
  VertexId vertex = 0;
  /// < 0: reuse the k of the session's last query.
  std::int64_t k = -1;
  std::string algo = "ACQ";
};

/// /v1/compare — the Figure 6(a) multi-algorithm table.
struct CompareRequest {
  std::string session;
  std::string name;
  std::uint32_t k = 4;
  std::vector<std::string> keywords;
  /// Empty = the four built-ins.
  std::vector<std::string> algos;
};

/// /v1/detect — whole-graph community detection.
struct DetectRequest {
  std::string session;
  std::string algo = "CODICIL";
};

/// /v1/community — one community cached by the last search.
struct CommunityRequest {
  std::string session;
  std::int64_t id = 0;
  PageParams page;
};

/// /v1/cluster — one cluster of the cached detection result.
struct ClusterRequest {
  std::string session;
  std::int64_t id = 0;
  PageParams page;
};

/// /v1/profile — author profile popup, by name or vertex id.
struct ProfileRequest {
  std::string session;
  std::string name;
  std::int64_t vertex = -1;
};

/// /v1/author — query-form population for one author name.
struct AuthorRequest {
  std::string session;
  std::string name;
};

/// /v1/export — cached community as an SVG document.
struct ExportRequest {
  std::string session;
  std::int64_t id = 0;
};

/// /v1/upload, /v1/snapshot/save, /v1/snapshot/load — dataset
/// administration.
struct DatasetRequest {
  std::string session;
  std::string path;
};

/// POST/DELETE /v1/edges and POST /v1/vertices — the streaming-mutation
/// surface of the dynamic-graph tier. The JSON body carries the payload:
///   edges:    {"edges": [[0, 5], [2, 7]]}
///   vertices: {"vertices": [{"name": "Ada", "keywords": ["db", "ml"]}]}
///             (name/keywords both optional)
/// One request is one atomic batch: it is validated whole, applied whole,
/// and published as one fresh dataset snapshot (new graph epoch).
struct MutationRequest {
  std::string session;
  /// Raw JSON body (decoded by QueryService).
  std::string body;
};

/// POST /v1/jobs — submit an algorithm run as an asynchronous job. The
/// JSON body carries the algorithm selection, the query (search kinds),
/// algorithm-specific parameters, and an optional deadline:
///   {"algo": "GirvanNewman", "kind": "detect",
///    "params": {"target_communities": "4"}, "deadline_ms": 5000}
struct JobSubmitRequest {
  std::string session;
  /// Raw JSON body (decoded by QueryService).
  std::string body;
};

/// GET /v1/jobs/<id> (status) and DELETE /v1/jobs/<id> (cancel).
struct JobRequest {
  std::string session;
  std::string id;
};

/// GET /v1/jobs/<id>/result — the finished result; `member_of` selects one
/// community (search jobs) or cluster (detection jobs) whose member list is
/// paged with the standard cursor machinery.
struct JobResultRequest {
  std::string session;
  std::string id;
  /// < 0: the whole result in the search/detect response shape.
  std::int64_t member_of = -1;
  PageParams page;
};

/// /v1/batch — many searches answered under ONE dataset snapshot.
struct BatchRequest {
  std::string session;
  struct Entry {
    SearchRequest search;
    /// Set when the entry failed to decode; the slot reports it instead of
    /// executing.
    std::string error;
  };
  std::vector<Entry> entries;
};

}  // namespace api
}  // namespace cexplorer

#endif  // CEXPLORER_API_TYPES_H_
