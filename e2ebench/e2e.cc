// The end-to-end benchmark of C-Explorer: seeded request scripts go in as
// request text through CExplorerServer::Handle() and come out as response
// bytes, from one process, with closed-loop client threads (and, in
// mutate_mixed, one open-loop writer). See README.md for the workloads and
// every metric.
//
//   cexplorer_e2e --workload browse_zipf --seed 1 --seconds 10 --trace 0
//                 [--graph-seed 2017] [--work-dir DIR]
//
// With --trace 0 the last stdout line reports the end-to-end metrics; with
// --trace 1 the run also makes a traced pass and the last line reports the
// per-layer metrics. Either way the line carries `correct`, `attempted` and
// `failed`: every non-2xx response and every failed output check counts as
// a failure. Snapshot files and the trace output go under --work-dir.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "acq/acq.h"
#include "cltree/cltree.h"
#include "common/json.h"
#include "common/parallel.h"
#include "core/kcore.h"
#include "data/dblp.h"
#include "e2ebench/scripts.h"
#include "explorer/dataset.h"
#include "explorer/explorer.h"
#include "server/http.h"
#include "server/server.h"

namespace cexplorer {
namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// --- Workloads --------------------------------------------------------------

enum class Workload { kBrowseZipf, kSearchUniform, kMutateMixed };

struct WorkloadSpec {
  const char* name;
  Workload id;
  std::size_t readers;  ///< closed-loop client threads
};

// Why each workload exists is recorded next to its name in BENCHMARK.json
// and README.md.
constexpr WorkloadSpec kWorkloads[] = {
    {"browse_zipf", Workload::kBrowseZipf, 4},
    {"search_uniform", Workload::kSearchUniform, 2},
    {"mutate_mixed", Workload::kMutateMixed, 3},
};

/// Generator parameters: 100k authors, about 418k edges.
DblpOptions GraphOptions(std::uint64_t graph_seed) {
  DblpOptions options;
  options.num_authors = 100000;
  options.num_areas = 60;
  options.vocabulary_size = 6000;
  options.seed = graph_seed;
  return options;
}

/// The generator seed. --seed varies the request scripts only: a graph per
/// seed would add graph-to-graph variation in ACQ cost to every spread the
/// regression bounds must cover.
constexpr std::uint64_t kDefaultGraphSeed = 2017;

constexpr int kSetupReps = 9;   ///< set-ups per run; setup_s is the median
constexpr int kLayerReps = 3;   ///< direct calls per set-up layer timing
constexpr std::size_t kSampleEvery = 32;   ///< ACQ responses between checks
constexpr double kWriterIntervalMs = 250;  ///< 4 batches/s
constexpr std::size_t kProbeAuthors = 16;
constexpr int kMaxStaleRetries = 4;

/// Derives independent script seeds from the workload seed.
std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// --- Statistics -------------------------------------------------------------

/// Nearest-rank percentile (p in (0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// --- Graph helpers ----------------------------------------------------------

using EdgeList = std::vector<std::pair<VertexId, VertexId>>;

/// Rebuilds `g` plus appended vertices and extra edges through
/// AttributedGraphBuilder, interning the vocabulary in id order first so
/// every keyword keeps its id (and therefore every rendered body its
/// keyword order).
AttributedGraph CopyGraph(
    const AttributedGraph& g,
    const std::vector<std::pair<std::string, std::vector<std::string>>>&
        appended = {},
    const EdgeList& extra_edges = {}) {
  AttributedGraphBuilder builder;
  for (KeywordId kw = 0; kw < g.vocabulary().size(); ++kw) {
    builder.mutable_vocabulary()->Intern(g.vocabulary().Word(kw));
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    std::vector<KeywordId> keywords(g.Keywords(v).begin(),
                                    g.Keywords(v).end());
    builder.AddVertexWithIds(std::string(g.Name(v)), std::move(keywords));
  }
  for (const auto& [name, keywords] : appended) {
    builder.AddVertex(name, keywords);
  }
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.graph().Neighbors(u)) {
      if (u < v) (void)builder.AddEdge(u, v);
    }
  }
  for (const auto& [u, v] : extra_edges) (void)builder.AddEdge(u, v);
  return builder.Build();
}

// --- Response scanning ------------------------------------------------------

/// The member of the first community at index `pick` modulo the members
/// shown, or `fallback` when the body lists none. A member object starts
/// with {"id": and that text cannot occur inside a JSON string.
VertexId PickMember(const std::string& body, std::uint32_t pick,
                    VertexId fallback) {
  const std::size_t size_at = body.find("\"size\":");
  if (size_at == std::string::npos) return fallback;
  const std::uint64_t size =
      std::strtoull(body.c_str() + size_at + 7, nullptr, 10);
  const std::uint64_t shown = std::min<std::uint64_t>(size, 2000);
  if (shown == 0) return fallback;
  std::uint64_t index = pick % shown;
  std::size_t at = body.find("\"members\":[", size_at);
  while (at != std::string::npos) {
    at = body.find("{\"id\":", at + 1);
    if (at == std::string::npos) break;
    if (index-- == 0) {
      return static_cast<VertexId>(
          std::strtoul(body.c_str() + at + 6, nullptr, 10));
    }
  }
  return fallback;
}

/// The "dataset_id" field of a mutation response (0 when absent).
std::uint64_t DatasetIdOf(const std::string& body) {
  const std::size_t at = body.find("\"dataset_id\":");
  if (at == std::string::npos) return 0;
  return std::strtoull(body.c_str() + at + 13, nullptr, 10);
}

// --- Logs -------------------------------------------------------------------

/// Read request classes; the writer keeps its own latencies.
enum RequestClass { kSearch, kExplore, kLight, kBatch, kNumClasses };

/// An ACQ response kept for the output checks.
struct Sample {
  std::string request;
  std::string body;
  bool batch = false;
  std::vector<QuerySpec> queries;
  std::uint64_t dataset_id = 0;  ///< 0: the snapshot changed mid-request
};

/// A span of the traced pass: one request's parse or dispatch, or a replay
/// of a layer call recorded as a child of that request's dispatch.
struct Span {
  std::uint64_t request = 0;
  const char* name = "";
  const char* parent = "";  ///< "" for the request's top-level spans
  double start_us = 0;
  double dur_us = 0;
};

/// Everything the traced pass measures in one client thread.
struct TraceLog {
  std::vector<Span> spans;
  std::vector<double> parse_us;
  std::vector<double> dispatch_hit_us;
  std::vector<double> light_dispatch_us;
  std::vector<double> miss_overhead_us;
  std::vector<double> explorer_us;
  std::vector<double> acq_us;
  std::vector<double> explorer_overhead_us;
  std::vector<double> profile_us;
  std::vector<double> locate_us;
  std::vector<double> parse_batch_us;
  double batch_entries_us = 0;
  double batch_dispatch_us = 0;
  double dispatch_us = 0;           ///< non-batch requests
  double dispatch_children_us = 0;  ///< their replayed direct children
  AcqStats acq;
  std::size_t acq_queries = 0;
  std::size_t unclassified = 0;  ///< hit and miss both moved mid-request
  std::size_t hits[2] = {0, 0};    ///< classified hits: search, explore
  std::size_t misses[2] = {0, 0};
};

/// Per-thread record of one client.
struct ClientLog {
  std::vector<double> latency_ms[kNumClasses];
  std::uint64_t requests = 0;
  std::uint64_t failures = 0;
  std::uint64_t acq_responses = 0;
  std::uint64_t stale_retries = 0;
  std::vector<Sample> samples;
  TraceLog trace;
};

/// The open-loop writer's record.
struct WriterLog {
  // Untraced phases: latency from when each request was due, and how late
  // it was sent.
  std::vector<double> publish_ms;
  std::vector<double> lateness_ms;
  std::uint64_t requests = 0;
  std::uint64_t failures = 0;
  /// Dataset id published by each write -> the extra edge batch present in
  /// it (nullptr: none). Appended vertices never get edges, so this and
  /// the generated graph give the exact topology of every served snapshot.
  std::map<std::uint64_t, const EdgeList*> topology;
  const EdgeList* pending = nullptr;
  std::vector<std::pair<std::string, std::vector<std::string>>> appended;
  // Traced pass: deltas of the mutation and cache counters per publish.
  std::uint64_t publishes = 0;
  double core_repair_ms = 0;
  double index_repair_ms = 0;
  double arena_copy_ms = 0;
  double cas_ms = 0;
  std::uint64_t repairs = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t core_visited = 0;
  std::uint64_t nodes_touched = 0;
  std::uint64_t migrated = 0;
  std::vector<double> compact_ms;
};

void NoteFailure(const std::string& what, std::uint64_t* failures) {
  static std::atomic<int> printed{0};
  ++*failures;
  if (printed.fetch_add(1) < 8) {
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

// --- The benchmark ----------------------------------------------------------

class Bench {
 public:
  Bench(const WorkloadSpec& spec, std::uint64_t seed, std::uint64_t graph_seed,
        double seconds, bool trace, std::filesystem::path work_dir)
      : spec_(spec),
        seed_(seed),
        graph_seed_(graph_seed),
        seconds_(seconds),
        trace_(trace),
        work_dir_(std::move(work_dir)) {}

  int Run();

 private:
  // Set-up.
  double SetupOnce(int rep);
  void MakeScripts();

  // One phase of `seconds` with every client (and the writer) running.
  void RunPhase(double seconds, bool record, bool traced);
  void BrowseClient(std::size_t c, Clock::time_point end, bool record,
                    bool traced);
  void SearchClient(std::size_t c, Clock::time_point end, bool record,
                    bool traced);
  void Writer(Clock::time_point start, Clock::time_point end, bool traced);

  /// Sends one request, records its latency and status; traced requests
  /// get parse/dispatch spans and counter deltas. Returns the response.
  HttpResponse Send(ClientLog* log, const std::string& text,
                    RequestClass cls, bool record, bool traced,
                    const QuerySpec* query = nullptr,
                    const SearchItem* batch = nullptr, bool judge = true);
  void MaybeSample(ClientLog* log, const std::string& request,
                   const HttpResponse& response, bool batch,
                   std::vector<QuerySpec> queries, std::uint64_t id_before);

  // Replays of layer calls on the snapshot a traced request was served.
  double ReplaySearch(TraceLog* trace, std::uint64_t request,
                      const DatasetPtr& pinned, const QuerySpec& query,
                      const char* parent);

  // Output checks, after the timed phases.
  void CheckSamples();
  bool CheckCommunity(const QuerySpec& query, const JsonValue& community,
                      const EdgeList* extra, std::string* why) const;
  void CheckFinalState();

  // One-shot timings of the set-up layers for the traced run.
  void TimeSetupLayers();

  void Report();
  void WriteTrace(const std::map<std::string, double>& metrics);

  const WorkloadSpec spec_;
  const std::uint64_t seed_;
  const std::uint64_t graph_seed_;
  const double seconds_;
  const bool trace_;
  const std::filesystem::path work_dir_;

  DblpDataset data_;
  std::unique_ptr<CExplorerServer> server_;
  std::vector<std::filesystem::path> snapshot_files_;
  std::vector<double> setup_s_;
  double rss_setup_mb_ = 0;
  double rss_end_mb_ = 0;

  std::vector<VertexId> population_;
  std::vector<std::string> sessions_;
  std::vector<std::vector<BrowseStep>> browse_;
  std::vector<std::vector<SearchItem>> search_;
  std::vector<WriteOp> writes_;
  std::vector<std::size_t> cursor_;  ///< per-client script position
  std::size_t write_cursor_ = 0;

  std::vector<ClientLog> clients_;
  WriterLog writer_;
  std::atomic<std::uint64_t> next_request_{1};
  Clock::time_point epoch_ = Clock::now();

  // Measured-phase bookkeeping.
  double measured_s_ = 0;
  std::vector<double> untraced_latency_[kNumClasses];
  std::vector<double> traced_search_ms_;
  api::ResultCache::Stats cache_before_;
  api::ResultCache::Stats cache_after_;

  // Checks.
  std::uint64_t checks_ = 0;
  std::uint64_t check_failures_ = 0;
  std::uint64_t checks_skipped_ = 0;

  // Set-up layer timings (traced run).
  double core_ms_ = 0;
  double cltree_build_ms_ = 0;
  double dataset_build_ms_ = 0;
  double snapshot_save_ms_ = 0;
  double snapshot_load_ms_ = 0;
};

double Bench::SetupOnce(int rep) {
  AttributedGraph graph = CopyGraph(data_.graph);
  server_.reset();
  for (const auto& file : snapshot_files_) std::filesystem::remove(file);
  snapshot_files_.clear();
  const Clock::time_point start = Clock::now();
  if (spec_.id != Workload::kSearchUniform) {
    server_ = std::make_unique<CExplorerServer>();
    if (!server_->UploadGraph(std::move(graph)).ok()) {
      std::fprintf(stderr, "upload failed\n");
      std::exit(1);
    }
    return MsBetween(start, Clock::now()) / 1e3;
  }
  // Build, save a snapshot, drop the building server, serve the rest from
  // an mmap.
  const std::filesystem::path file =
      work_dir_ / ("snapshot-" + std::to_string(rep) + ".bin");
  snapshot_files_.push_back(file);
  {
    CExplorerServer origin;
    if (!origin.UploadGraph(std::move(graph)).ok()) {
      std::fprintf(stderr, "upload failed\n");
      std::exit(1);
    }
    const HttpResponse saved = origin.Handle(
        "POST /v1/snapshot/save?path=" + UrlEncode(file.string()));
    if (saved.code != 200) {
      std::fprintf(stderr, "snapshot save failed: %s\n", saved.body.c_str());
      std::exit(1);
    }
  }
  server_ = std::make_unique<CExplorerServer>();
  const HttpResponse loaded = server_->Handle(
      "POST /v1/snapshot/load?path=" + UrlEncode(file.string()));
  if (loaded.code != 200) {
    std::fprintf(stderr, "snapshot load failed: %s\n", loaded.body.c_str());
    std::exit(1);
  }
  return MsBetween(start, Clock::now()) / 1e3;
}

void Bench::MakeScripts() {
  const DatasetPtr dataset = server_->dataset();
  population_ = MakePopulation(data_.graph, dataset->core_numbers());
  const std::size_t clients = spec_.readers;
  for (std::size_t c = 0; c < clients + 1; ++c) {
    const HttpResponse made = server_->Handle("GET /v1/session/new");
    auto parsed = JsonValue::Parse(made.body);
    if (made.code != 200 || !parsed.ok()) {
      std::fprintf(stderr, "session/new failed\n");
      std::exit(1);
    }
    sessions_.push_back(parsed->Get("session").AsString());
  }
  // Scripts wrap around when a fast client exhausts them; their length
  // keeps a wrap far beyond the cache's reach.
  const auto steps = static_cast<std::size_t>(seconds_ * 600) + 4000;
  for (std::size_t c = 0; c < clients; ++c) {
    const std::uint64_t seed = StreamSeed(seed_, c);
    if (spec_.id == Workload::kSearchUniform) {
      search_.push_back(MakeSearchScript(data_.graph, population_, seed,
                                         sessions_[c], steps));
    } else {
      browse_.push_back(MakeBrowseScript(data_.graph, population_, seed,
                                         sessions_[c], steps));
    }
  }
  if (spec_.id == Workload::kMutateMixed) {
    writes_ = MakeWriteScript(
        data_.graph, StreamSeed(seed_, 99), sessions_[clients],
        static_cast<std::size_t>(seconds_ * 1000 / kWriterIntervalMs) + 8);
  }
  cursor_.assign(clients, 0);
  clients_.resize(clients);
}

HttpResponse Bench::Send(ClientLog* log, const std::string& text,
                         RequestClass cls, bool record, bool traced,
                         const QuerySpec* query, const SearchItem* batch,
                         bool judge) {
  HttpResponse response;
  double latency_ms = 0;
  if (!traced) {
    const Clock::time_point t0 = Clock::now();
    response = server_->Handle(text);
    latency_ms = MsBetween(t0, Clock::now());
  } else {
    TraceLog& trace = log->trace;
    const std::uint64_t id = next_request_.fetch_add(1);
    const Clock::time_point t0 = Clock::now();
    auto request = ParseRequest(text);
    const Clock::time_point t1 = Clock::now();
    if (!request.ok()) {
      NoteFailure("unparsable request: " + text, &log->failures);
      return HttpResponse::Error(400, "unparsable");
    }
    const DatasetPtr pinned = server_->dataset();
    const api::ResultCache::Stats before =
        server_->service().ResultCacheStats();
    const Clock::time_point t2 = Clock::now();
    response = server_->Dispatch(request.value());
    const Clock::time_point t3 = Clock::now();
    const api::ResultCache::Stats after =
        server_->service().ResultCacheStats();
    const double parse_us = UsBetween(t0, t1);
    const double dispatch_us = UsBetween(t2, t3);
    latency_ms = (parse_us + dispatch_us) / 1e3;
    trace.spans.push_back(
        {id, "server.parse", "", UsBetween(epoch_, t0), parse_us});
    trace.spans.push_back(
        {id, "server.dispatch", "", UsBetween(epoch_, t2), dispatch_us});
    trace.parse_us.push_back(parse_us);
    double children_us = 0;
    if (cls == kSearch || cls == kExplore) {
      // One cache lookup per search: whichever counter did not move from
      // another thread's lookup tells hit from miss exactly.
      const std::uint64_t hits = after.hits - before.hits;
      const std::uint64_t misses = after.misses - before.misses;
      const bool hit = hits > 0 && misses == 0;
      const bool miss = misses > 0 && hits == 0;
      trace.hits[cls == kExplore] += hit ? 1 : 0;
      trace.misses[cls == kExplore] += miss ? 1 : 0;
      if (hit) {
        trace.dispatch_hit_us.push_back(dispatch_us);
      } else if (miss && query != nullptr) {
        children_us =
            ReplaySearch(&trace, id, pinned, *query, "server.dispatch");
        trace.miss_overhead_us.push_back(dispatch_us - children_us);
      } else {
        ++trace.unclassified;
      }
    } else if (cls == kLight) {
      trace.light_dispatch_us.push_back(dispatch_us);
      if (request->path == "/v1/profile") {
        const auto v =
            static_cast<VertexId>(request->IntParam("vertex", 0));
        const Clock::time_point p0 = Clock::now();
        (void)pinned->Profile(v);
        const Clock::time_point p1 = Clock::now();
        children_us = UsBetween(p0, p1);
        trace.profile_us.push_back(children_us);
        trace.spans.push_back({id, "explorer.profile", "server.dispatch",
                               UsBetween(epoch_, p0), children_us});
      }
    } else if (cls == kBatch && batch != nullptr) {
      const Clock::time_point b0 = Clock::now();
      auto parsed = api::QueryService::ParseBatch(request->body);
      const Clock::time_point b1 = Clock::now();
      (void)parsed;
      trace.parse_batch_us.push_back(UsBetween(b0, b1));
      trace.spans.push_back({id, "api.parse_batch", "server.dispatch",
                             UsBetween(epoch_, b0), UsBetween(b0, b1)});
      double entries_us = 0;
      for (const QuerySpec& entry : batch->queries) {
        entries_us +=
            ReplaySearch(&trace, id, pinned, entry, "server.dispatch");
      }
      trace.batch_entries_us += entries_us;
      trace.batch_dispatch_us += dispatch_us;
    }
    if (cls != kBatch) {
      trace.dispatch_us += dispatch_us;
      trace.dispatch_children_us += children_us;
    }
    if (cls == kSearch) traced_search_ms_.push_back(latency_ms);
  }
  if (record) log->latency_ms[cls].push_back(latency_ms);
  ++log->requests;
  if (judge && (response.code < 200 || response.code >= 300)) {
    NoteFailure(std::to_string(response.code) + " for " + text + ": " +
                    response.body.substr(0, 200),
                &log->failures);
  }
  return response;
}

double Bench::ReplaySearch(TraceLog* trace, std::uint64_t request,
                           const DatasetPtr& pinned, const QuerySpec& query,
                           const char* parent) {
  Query q;
  q.vertices.push_back(query.q);
  q.k = kK;
  q.keywords = query.keywords;
  Explorer view;
  view.AttachDataset(pinned);
  const Clock::time_point e0 = Clock::now();
  (void)view.Search("ACQ", q);
  const Clock::time_point e1 = Clock::now();

  KeywordList ids;
  for (const std::string& word : query.keywords) {
    ids.push_back(pinned->graph().vocabulary().Find(word));
  }
  const AcqEngine engine(&pinned->graph(), &pinned->index(), DefaultPool());
  const Clock::time_point a0 = Clock::now();
  auto result = engine.SearchMulti({query.q}, kK, ids, AcqAlgorithm::kDec);
  const Clock::time_point a1 = Clock::now();
  const ClNodeId node = pinned->index().LocateKCore(query.q, kK);
  const Clock::time_point l1 = Clock::now();
  (void)node;

  const double explorer_us = UsBetween(e0, e1);
  const double acq_us = UsBetween(a0, a1);
  trace->explorer_us.push_back(explorer_us);
  trace->acq_us.push_back(acq_us);
  trace->explorer_overhead_us.push_back(explorer_us - acq_us);
  trace->locate_us.push_back(UsBetween(a1, l1));
  if (result.ok()) {
    trace->acq.Merge(result->stats);
    ++trace->acq_queries;
  }
  trace->spans.push_back({request, "explorer.search", parent,
                          UsBetween(epoch_, e0), explorer_us});
  trace->spans.push_back({request, "acq.search", "explorer.search",
                          UsBetween(epoch_, a0), acq_us});
  trace->spans.push_back({request, "cltree.locate", "acq.search",
                          UsBetween(epoch_, a1), UsBetween(a1, l1)});
  return explorer_us;
}

void Bench::MaybeSample(ClientLog* log, const std::string& request,
                        const HttpResponse& response, bool batch,
                        std::vector<QuerySpec> queries,
                        std::uint64_t id_before) {
  if (log->acq_responses++ % kSampleEvery != 0) return;
  Sample sample;
  sample.request = request;
  sample.body = response.body;
  sample.batch = batch;
  sample.queries = std::move(queries);
  // The snapshot that answered: the served one, if no publish landed while
  // the request ran (ids only grow, so equal ids mean one snapshot).
  const std::uint64_t id_after = server_->dataset()->id();
  sample.dataset_id = id_before == id_after ? id_after : 0;
  log->samples.push_back(std::move(sample));
}

void Bench::BrowseClient(std::size_t c, Clock::time_point end, bool record,
                         bool traced) {
  ClientLog* log = &clients_[c];
  const std::vector<BrowseStep>& script = browse_[c];
  const std::string& session = sessions_[c];
  while (Clock::now() < end) {
    const BrowseStep& step = script[cursor_[c]++ % script.size()];
    Send(log, step.author_request, kLight, record, traced);
    std::uint64_t id_before = server_->dataset()->id();
    HttpResponse found = Send(log, step.search_request, kSearch, record,
                              traced, &step.query);
    if (record) {
      MaybeSample(log, step.search_request, found, false, {step.query},
                  id_before);
    }
    // A publish between the search and the community click makes the
    // session's cached result stale (409/404 by contract); the browser
    // searches again and retries. Publishes come every 250 ms, so a retry
    // can go stale again, rarely.
    HttpResponse opened = Send(log, step.community_request, kLight, record,
                               traced, nullptr, nullptr, /*judge=*/false);
    for (int retry = 0; retry < kMaxStaleRetries &&
                        (opened.code == 409 || opened.code == 404) &&
                        server_->dataset()->id() != id_before;
         ++retry) {
      ++log->stale_retries;
      id_before = server_->dataset()->id();
      found = Send(log, step.search_request, kSearch, record, traced,
                   &step.query);
      opened = Send(log, step.community_request, kLight, record, traced,
                    nullptr, nullptr, /*judge=*/false);
    }
    if (opened.code != 200) {
      NoteFailure(std::to_string(opened.code) + " for " +
                      step.community_request,
                  &log->failures);
    }
    const VertexId member =
        PickMember(found.body, step.profile_pick, step.query.q);
    Send(log, ProfileRequestText(member, session), kLight, record, traced);
    const QuerySpec explore{
        PickMember(found.body, step.explore_pick, step.query.q), {}};
    const std::string text = ExploreRequestText(explore.q, session);
    id_before = server_->dataset()->id();
    const HttpResponse explored =
        Send(log, text, kExplore, record, traced, &explore);
    if (record) MaybeSample(log, text, explored, false, {explore}, id_before);
  }
}

void Bench::SearchClient(std::size_t c, Clock::time_point end, bool record,
                         bool traced) {
  ClientLog* log = &clients_[c];
  const std::vector<SearchItem>& script = search_[c];
  while (Clock::now() < end) {
    const SearchItem& item = script[cursor_[c]++ % script.size()];
    const std::uint64_t id_before = server_->dataset()->id();
    const HttpResponse response =
        Send(log, item.request, item.batch ? kBatch : kSearch, record, traced,
             item.batch ? nullptr : &item.queries[0],
             item.batch ? &item : nullptr);
    if (record) {
      MaybeSample(log, item.request, response, item.batch, item.queries,
                  id_before);
    }
  }
}

void Bench::Writer(Clock::time_point start, Clock::time_point end,
                   bool traced) {
  for (std::size_t slot = 0;; ++slot) {
    const Clock::time_point due =
        start + std::chrono::microseconds(
                    static_cast<std::int64_t>(slot * kWriterIntervalMs * 1e3));
    if (due >= end) break;
    const WriteOp& op = writes_[write_cursor_++ % writes_.size()];
    std::this_thread::sleep_until(due);
    const delta::MutationStats m0 =
        traced ? server_->service().MutationStatsNow() : delta::MutationStats{};
    const api::ResultCache::Stats c0 = traced
                                      ? server_->service().ResultCacheStats()
                                      : api::ResultCache::Stats{};
    const Clock::time_point t0 = Clock::now();
    const HttpResponse response = server_->Handle(op.request);
    const Clock::time_point t1 = Clock::now();
    if (!traced) {
      writer_.lateness_ms.push_back(MsBetween(due, t0));
      writer_.publish_ms.push_back(MsBetween(due, t1));
    }
    ++writer_.requests;
    if (response.code != 200) {
      NoteFailure(std::to_string(response.code) + " for writer op: " +
                      response.body.substr(0, 200),
                  &writer_.failures);
      continue;
    }
    switch (op.kind) {
      case WriteOp::Kind::kAddEdges:
        writer_.pending = &op.edges;
        break;
      case WriteOp::Kind::kRemoveEdges:
        writer_.pending = nullptr;
        break;
      case WriteOp::Kind::kAddVertices:
        writer_.appended.insert(writer_.appended.end(), op.vertices.begin(),
                                op.vertices.end());
        break;
      case WriteOp::Kind::kCompact:
        break;
    }
    writer_.topology[DatasetIdOf(response.body)] = writer_.pending;
    if (!traced) continue;
    const delta::MutationStats m1 = server_->service().MutationStatsNow();
    if (op.kind == WriteOp::Kind::kCompact) {
      writer_.compact_ms.push_back(m1.last_compaction_ms);
      continue;
    }
    const api::ResultCache::Stats c1 = server_->service().ResultCacheStats();
    ++writer_.publishes;
    writer_.core_repair_ms +=
        m1.publish_core_repair_ms - m0.publish_core_repair_ms;
    writer_.index_repair_ms +=
        m1.publish_index_repair_ms - m0.publish_index_repair_ms;
    writer_.arena_copy_ms +=
        m1.publish_arena_copy_ms - m0.publish_arena_copy_ms;
    writer_.cas_ms += m1.publish_cas_ms - m0.publish_cas_ms;
    writer_.repairs += m1.cltree_repairs - m0.cltree_repairs;
    writer_.fallbacks +=
        m1.cltree_rebuild_fallbacks - m0.cltree_rebuild_fallbacks;
    writer_.core_visited += m1.core_repair_visited - m0.core_repair_visited;
    writer_.nodes_touched += m1.nodes_touched - m0.nodes_touched;
    writer_.migrated +=
        c1.reused_across_mutation - c0.reused_across_mutation;
  }
}

void Bench::RunPhase(double seconds, bool record, bool traced) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start +
      std::chrono::microseconds(static_cast<std::int64_t>(seconds * 1e6));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < spec_.readers; ++c) {
    threads.emplace_back([this, c, end, record, traced] {
      if (spec_.id == Workload::kSearchUniform) {
        SearchClient(c, end, record, traced);
      } else {
        BrowseClient(c, end, record, traced);
      }
    });
  }
  if (record && spec_.id == Workload::kMutateMixed) {
    threads.emplace_back(
        [this, start, end, traced] { Writer(start, end, traced); });
  }
  for (std::thread& thread : threads) thread.join();
  if (record && !traced) measured_s_ += MsBetween(start, Clock::now()) / 1e3;
}

// --- Output checks ----------------------------------------------------------

bool Bench::CheckCommunity(const QuerySpec& query, const JsonValue& community,
                           const EdgeList* extra, std::string* why) const {
  const AttributedGraph& g = data_.graph;
  if (community.Get("members_truncated").AsBool(false)) {
    *why = "truncated";
    return false;
  }
  std::vector<VertexId> members;
  for (const JsonValue& m : community.Get("members").Items()) {
    members.push_back(static_cast<VertexId>(m.Get("id").AsInt(-1)));
  }
  std::sort(members.begin(), members.end());
  if (members.empty() || members.back() >= g.num_vertices() ||
      std::adjacent_find(members.begin(), members.end()) != members.end()) {
    *why = "member ids out of range or repeated";
    return false;
  }
  if (!std::binary_search(members.begin(), members.end(), query.q)) {
    *why = "query vertex missing";
    return false;
  }
  std::unordered_map<VertexId, std::vector<VertexId>> more;
  if (extra != nullptr) {
    for (const auto& [u, v] : *extra) {
      more[u].push_back(v);
      more[v].push_back(u);
    }
  }
  auto in = [&members](VertexId v) {
    return std::binary_search(members.begin(), members.end(), v);
  };
  auto for_neighbors = [&](VertexId v, auto&& fn) {
    for (VertexId w : g.graph().Neighbors(v)) fn(w);
    auto it = more.find(v);
    if (it != more.end()) {
      for (VertexId w : it->second) fn(w);
    }
  };
  for (VertexId v : members) {
    std::uint32_t degree = 0;
    for_neighbors(v, [&](VertexId w) { degree += in(w) ? 1 : 0; });
    if (degree < kK) {
      *why = "member " + std::to_string(v) + " has degree " +
             std::to_string(degree) + " < k";
      return false;
    }
  }
  std::unordered_set<VertexId> seen{query.q};
  std::vector<VertexId> frontier{query.q};
  while (!frontier.empty()) {
    const VertexId v = frontier.back();
    frontier.pop_back();
    for_neighbors(v, [&](VertexId w) {
      if (in(w) && seen.insert(w).second) frontier.push_back(w);
    });
  }
  if (seen.size() != members.size()) {
    *why = "community is not connected";
    return false;
  }
  KeywordList space;
  for (const std::string& word : query.keywords) {
    space.push_back(g.vocabulary().Find(word));
  }
  std::sort(space.begin(), space.end());
  std::vector<std::string> expected;
  for (KeywordId kw : SharedKeywords(g, members, space)) {
    expected.emplace_back(g.vocabulary().Word(kw));
  }
  std::vector<std::string> theme;
  for (const JsonValue& word : community.Get("theme").Items()) {
    theme.push_back(word.AsString());
  }
  if (theme != expected) {
    *why = "theme differs from SharedKeywords";
    return false;
  }
  return true;
}

void Bench::CheckSamples() {
  std::vector<const Sample*> samples;
  for (const ClientLog& log : clients_) {
    for (const Sample& sample : log.samples) samples.push_back(&sample);
  }
  auto fail = [this](const std::string& what) {
    NoteFailure(what, &check_failures_);
  };
  // Definition checks: every community of every sampled answer.
  for (const Sample* sample : samples) {
    const EdgeList* extra = nullptr;
    if (spec_.id == Workload::kMutateMixed) {
      auto it = writer_.topology.find(sample->dataset_id);
      if (it == writer_.topology.end()) {
        ++checks_skipped_;
        continue;
      }
      extra = it->second;
    }
    auto parsed = JsonValue::Parse(sample->body);
    ++checks_;
    if (!parsed.ok()) {
      fail("unparsable ACQ body for " + sample->request);
      continue;
    }
    std::vector<const JsonValue*> answers;
    if (sample->batch) {
      for (const JsonValue& result : parsed->Get("results").Items()) {
        answers.push_back(&result);
      }
    } else {
      answers.push_back(&parsed.value());
    }
    if (answers.size() != sample->queries.size()) {
      fail("batch answered " + std::to_string(answers.size()) + " entries");
      continue;
    }
    for (std::size_t i = 0; i < answers.size(); ++i) {
      const auto& communities = answers[i]->Get("communities").Items();
      if (communities.empty()) {
        fail("no community for " + sample->request);
        continue;
      }
      for (const JsonValue& community : communities) {
        std::string why;
        if (!CheckCommunity(sample->queries[i], community, extra, &why)) {
          if (why == "truncated") continue;
          fail(why + " in answer to " + sample->request);
        }
      }
    }
  }
  if (spec_.id == Workload::kMutateMixed) return;  // CheckFinalState instead
  // Every sampled body, cache hit or not, must equal what a cache-off
  // server computes on the same snapshot, byte for byte.
  CExplorerServer off;
  off.service().ConfigureResultCache(0);
  off.AttachDataset(server_->dataset());
  for (std::size_t s = 0; s < sessions_.size(); ++s) {
    (void)off.Handle("GET /v1/session/new");
  }
  for (const Sample* sample : samples) {
    ++checks_;
    if (off.Handle(sample->request).body != sample->body) {
      fail("cache-off replay differs for " + sample->request);
    }
  }
}

void Bench::CheckFinalState() {
  auto fail = [this](const std::string& what) {
    NoteFailure(what, &check_failures_);
  };
  const DatasetPtr served = server_->dataset();
  const EdgeList none;
  AttributedGraph expected =
      CopyGraph(data_.graph, writer_.appended,
                writer_.pending != nullptr ? *writer_.pending : none);
  ++checks_;
  if (served->graph().num_vertices() != expected.num_vertices() ||
      served->graph().graph().num_edges() != expected.graph().num_edges()) {
    fail("served graph differs from the writer's log");
    return;
  }
  ++checks_;
  const std::vector<std::uint32_t> cores =
      CoreDecomposition(expected.graph());
  if (!std::equal(cores.begin(), cores.end(), served->core_numbers().begin(),
                  served->core_numbers().end())) {
    fail("served core numbers differ from CoreDecomposition");
  }
  CExplorerServer rebuilt;
  if (!rebuilt.UploadGraph(std::move(expected)).ok()) {
    fail("rebuild failed");
    return;
  }
  const std::string live_session =
      JsonValue::Parse(server_->Handle("GET /v1/session/new").body)
          ->Get("session")
          .AsString();
  const std::string rebuilt_session =
      JsonValue::Parse(rebuilt.Handle("GET /v1/session/new").body)
          ->Get("session")
          .AsString();
  // Probes: the hottest authors' searches and explores, whose cache
  // entries most likely lived through publishes.
  for (std::size_t i = 0; i < std::min(kProbeAuthors, population_.size());
       ++i) {
    QuerySpec spec;
    spec.q = population_[i];
    spec.keywords = data_.graph.KeywordStrings(spec.q);
    spec.keywords.resize(std::min<std::size_t>(spec.keywords.size(), 2));
    for (int kind = 0; kind < 2; ++kind) {
      const std::string live =
          kind == 0 ? SearchRequestText(data_.graph, spec, true, live_session)
                    : ExploreRequestText(spec.q, live_session);
      const std::string fresh =
          kind == 0
              ? SearchRequestText(data_.graph, spec, true, rebuilt_session)
              : ExploreRequestText(spec.q, rebuilt_session);
      ++checks_;
      const HttpResponse a = server_->Handle(live);
      const HttpResponse b = rebuilt.Handle(fresh);
      if (a.code != 200 || a.body != b.body) {
        fail("probe differs from a rebuilt server: " + live);
      }
    }
  }
}

// --- Set-up layers (traced run) ---------------------------------------------

void Bench::TimeSetupLayers() {
  std::vector<double> core, cltree, build, save, load;
  const std::filesystem::path file = work_dir_ / "layer-snapshot.bin";
  for (int rep = 0; rep < kLayerReps; ++rep) {
    Clock::time_point t0 = Clock::now();
    const std::vector<std::uint32_t> cores =
        CoreDecomposition(data_.graph.graph(), DefaultPool());
    core.push_back(MsBetween(t0, Clock::now()));
    t0 = Clock::now();
    const ClTree tree =
        ClTree::Build(data_.graph, ClTreeBuildMethod::kAdvanced, DefaultPool(),
                      Dataset::DefaultPostingFormat());
    cltree.push_back(MsBetween(t0, Clock::now()));
    AttributedGraph copy = CopyGraph(data_.graph);
    t0 = Clock::now();
    auto dataset = Dataset::Build(std::move(copy));
    build.push_back(MsBetween(t0, Clock::now()));
    if (!dataset.ok()) continue;
    t0 = Clock::now();
    const Status saved = dataset.value()->SaveSnapshot(file.string());
    save.push_back(MsBetween(t0, Clock::now()));
    t0 = Clock::now();
    auto loaded = Dataset::FromSnapshotFile(file.string());
    load.push_back(MsBetween(t0, Clock::now()));
    if (!saved.ok() || !loaded.ok()) {
      NoteFailure("snapshot round trip failed", &check_failures_);
    }
  }
  std::filesystem::remove(file);
  core_ms_ = Median(core);
  cltree_build_ms_ = Median(cltree);
  dataset_build_ms_ = Median(build);
  snapshot_save_ms_ = Median(save);
  snapshot_load_ms_ = Median(load);
}

// --- Reporting --------------------------------------------------------------

std::string FormatNumber(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void Bench::Report() {
  TraceLog trace;
  std::uint64_t failures = writer_.failures + check_failures_;
  std::uint64_t attempted = writer_.requests + checks_;
  std::uint64_t stale_retries = 0;
  for (ClientLog& log : clients_) {
    failures += log.failures;
    attempted += log.requests;
    stale_retries += log.stale_retries;
    TraceLog& t = log.trace;
    auto append = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&trace.parse_us, t.parse_us);
    append(&trace.dispatch_hit_us, t.dispatch_hit_us);
    append(&trace.light_dispatch_us, t.light_dispatch_us);
    append(&trace.miss_overhead_us, t.miss_overhead_us);
    append(&trace.explorer_us, t.explorer_us);
    append(&trace.acq_us, t.acq_us);
    append(&trace.explorer_overhead_us, t.explorer_overhead_us);
    append(&trace.profile_us, t.profile_us);
    append(&trace.locate_us, t.locate_us);
    append(&trace.parse_batch_us, t.parse_batch_us);
    trace.batch_entries_us += t.batch_entries_us;
    trace.batch_dispatch_us += t.batch_dispatch_us;
    trace.dispatch_us += t.dispatch_us;
    trace.dispatch_children_us += t.dispatch_children_us;
    trace.acq.Merge(t.acq);
    trace.acq_queries += t.acq_queries;
    trace.unclassified += t.unclassified;
    for (int c = 0; c < 2; ++c) {
      trace.hits[c] += t.hits[c];
      trace.misses[c] += t.misses[c];
    }
  }
  // End-to-end latencies come from the untraced phase only.
  const std::vector<double>* e2e = untraced_latency_;
  std::uint64_t reads = 0;
  for (int c = 0; c < kNumClasses; ++c) reads += e2e[c].size();
  const std::vector<double>& publish = writer_.publish_ms;

  std::vector<Metric> end_to_end = {
      {"setup_s", Median(setup_s_), "s"},
      {"rss_mb", rss_end_mb_, "MiB"},
      {"throughput_rps", Ratio(static_cast<double>(reads), measured_s_),
       "1/s"},
      {"search_p50_ms", Percentile(e2e[kSearch], 0.5), "ms"},
      {"search_p99_ms", Percentile(e2e[kSearch], 0.99), "ms"},
  };

  const double untraced_p50 = Percentile(e2e[kSearch], 0.5);
  const double traced_p50 = Percentile(traced_search_ms_, 0.5);
  const double lookups =
      static_cast<double>(cache_after_.lookups - cache_before_.lookups);
  std::vector<Metric> per_layer = {
      {"explore_p50_ms", Percentile(e2e[kExplore], 0.5), "ms"},
      {"explore_p99_ms", Percentile(e2e[kExplore], 0.99), "ms"},
      {"light_p50_ms", Percentile(e2e[kLight], 0.5), "ms"},
      {"light_p99_ms", Percentile(e2e[kLight], 0.99), "ms"},
      {"batch_p50_ms", Percentile(e2e[kBatch], 0.5), "ms"},
      {"batch_p90_ms", Percentile(e2e[kBatch], 0.9), "ms"},
      {"publish_p50_ms", Percentile(publish, 0.5), "ms"},
      {"publish_p90_ms", Percentile(publish, 0.9), "ms"},
      {"bench.search_samples", static_cast<double>(e2e[kSearch].size()),
       "count"},
      {"bench.explore_samples", static_cast<double>(e2e[kExplore].size()),
       "count"},
      {"bench.light_samples", static_cast<double>(e2e[kLight].size()),
       "count"},
      {"bench.batch_samples", static_cast<double>(e2e[kBatch].size()),
       "count"},
      {"bench.publish_samples", static_cast<double>(publish.size()), "count"},
      {"bench.rss_setup_mb", rss_setup_mb_, "MiB"},
      {"bench.writer_lateness_p99_ms", Percentile(writer_.lateness_ms, 0.99),
       "ms"},
      {"bench.trace_overhead_pct",
       untraced_p50 > 0 ? 100.0 * (traced_p50 - untraced_p50) / untraced_p50
                        : 0.0,
       "%"},
      {"bench.dispatch_unaccounted_pct",
       100.0 * Ratio(trace.dispatch_us - trace.dispatch_children_us,
                     trace.dispatch_us),
       "%"},
      {"bench.checks", static_cast<double>(checks_), "count"},
      {"bench.checks_skipped", static_cast<double>(checks_skipped_), "count"},
      {"bench.stale_retries", static_cast<double>(stale_retries), "count"},
      {"bench.unclassified_searches", static_cast<double>(trace.unclassified),
       "count"},
      {"server.parse_us", Median(trace.parse_us), "us"},
      {"server.dispatch_hit_us", Median(trace.dispatch_hit_us), "us"},
      {"server.batch_speedup",
       Ratio(trace.batch_entries_us, trace.batch_dispatch_us), "x"},
      {"api.cache_hit_ratio",
       Ratio(static_cast<double>(cache_after_.hits - cache_before_.hits),
             lookups),
       "ratio"},
      {"api.search_hit_ratio",
       Ratio(static_cast<double>(trace.hits[0]),
             static_cast<double>(trace.hits[0] + trace.misses[0])),
       "ratio"},
      {"api.explore_hit_ratio",
       Ratio(static_cast<double>(trace.hits[1]),
             static_cast<double>(trace.hits[1] + trace.misses[1])),
       "ratio"},
      {"api.cache_evictions_per_lookup",
       Ratio(static_cast<double>(cache_after_.evictions -
                                 cache_before_.evictions),
             lookups),
       "ratio"},
      {"api.cache_migrated_per_publish",
       Ratio(static_cast<double>(writer_.migrated),
             static_cast<double>(writer_.publishes)),
       "count"},
      {"api.miss_overhead_us", Median(trace.miss_overhead_us), "us"},
      {"api.light_dispatch_us", Median(trace.light_dispatch_us), "us"},
      {"api.parse_batch_us", Median(trace.parse_batch_us), "us"},
      {"explorer.search_us_p50", Percentile(trace.explorer_us, 0.5), "us"},
      {"explorer.search_us_p99", Percentile(trace.explorer_us, 0.99), "us"},
      {"explorer.overhead_us", Median(trace.explorer_overhead_us), "us"},
      {"explorer.profile_us", Median(trace.profile_us), "us"},
      {"explorer.dataset_build_ms", dataset_build_ms_, "ms"},
      {"acq.search_us_p50", Percentile(trace.acq_us, 0.5), "us"},
      {"acq.search_us_p99", Percentile(trace.acq_us, 0.99), "us"},
      {"acq.candidates_generated",
       Ratio(static_cast<double>(trace.acq.candidates_generated),
             static_cast<double>(trace.acq_queries)),
       "count"},
      {"acq.candidates_verified",
       Ratio(static_cast<double>(trace.acq.candidates_verified),
             static_cast<double>(trace.acq_queries)),
       "count"},
      {"acq.support_pruned",
       Ratio(static_cast<double>(trace.acq.support_pruned),
             static_cast<double>(trace.acq_queries)),
       "count"},
      {"acq.verified_per_generated",
       Ratio(static_cast<double>(trace.acq.candidates_verified),
             static_cast<double>(trace.acq.candidates_generated)),
       "ratio"},
      {"cltree.locate_us", Median(trace.locate_us), "us"},
      {"cltree.build_ms", cltree_build_ms_, "ms"},
      {"core.decomposition_ms", core_ms_, "ms"},
      {"snapshot.save_ms", snapshot_save_ms_, "ms"},
      {"snapshot.load_ms", snapshot_load_ms_, "ms"},
      {"delta.core_repair_ms",
       Ratio(writer_.core_repair_ms, static_cast<double>(writer_.publishes)),
       "ms"},
      {"delta.index_repair_ms",
       Ratio(writer_.index_repair_ms, static_cast<double>(writer_.publishes)),
       "ms"},
      {"delta.arena_copy_ms",
       Ratio(writer_.arena_copy_ms, static_cast<double>(writer_.publishes)),
       "ms"},
      {"delta.cas_ms",
       Ratio(writer_.cas_ms, static_cast<double>(writer_.publishes)), "ms"},
      {"delta.repair_hit_rate",
       Ratio(static_cast<double>(writer_.repairs),
             static_cast<double>(writer_.repairs + writer_.fallbacks)),
       "ratio"},
      {"delta.core_visited_per_publish",
       Ratio(static_cast<double>(writer_.core_visited),
             static_cast<double>(writer_.publishes)),
       "count"},
      {"delta.nodes_touched_per_publish",
       Ratio(static_cast<double>(writer_.nodes_touched),
             static_cast<double>(writer_.publishes)),
       "count"},
      {"delta.compact_ms", Median(writer_.compact_ms), "ms"},
  };

  std::printf("workload %s  seed %llu  %.1f s measured  trace %d\n",
              spec_.name, static_cast<unsigned long long>(seed_), measured_s_,
              trace_ ? 1 : 0);
  std::printf("requests %llu  failures %llu  checks %llu (%llu skipped)\n",
              static_cast<unsigned long long>(attempted - checks_),
              static_cast<unsigned long long>(failures - check_failures_),
              static_cast<unsigned long long>(checks_),
              static_cast<unsigned long long>(checks_skipped_));
  for (const Metric& m : end_to_end) {
    std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (trace_) {
    std::printf("per layer:\n");
    for (const Metric& m : per_layer) {
      std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::map<std::string, double> values;
    for (const Metric& m : per_layer) values[m.name] = m.value;
    WriteTrace(values);
  }

  const std::vector<Metric>& shown = trace_ ? per_layer : end_to_end;
  std::string line = "{\"correct\": ";
  line += failures == 0 ? "true" : "false";
  line += ", \"attempted\": " +
          std::to_string(std::max<std::uint64_t>(attempted, 1));
  line += ", \"failed\": " + std::to_string(failures);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < shown.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + shown[i].name + "\": {\"value\": " +
            FormatNumber(shown[i].value) + ", \"unit\": \"" + shown[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void Bench::WriteTrace(const std::map<std::string, double>& metrics) {
  const std::filesystem::path dir = work_dir_ / "traces";
  std::filesystem::create_directories(dir);
  const std::filesystem::path file =
      dir / (std::string(spec_.name) + "-seed" + std::to_string(seed_) +
             ".jsonl");
  std::ofstream out(file);
  // Self time of a span name: its total duration minus the total duration
  // of the spans recorded as its children.
  std::map<std::string, double> total;
  std::map<std::string, double> children;
  for (const ClientLog& log : clients_) {
    for (const Span& span : log.trace.spans) {
      total[span.name] += span.dur_us;
      if (*span.parent != '\0') children[span.parent] += span.dur_us;
    }
  }
  out << "{\"workload\": \"" << spec_.name << "\", \"seed\": " << seed_
      << ", \"self_us\": {";
  bool first = true;
  for (const auto& [name, us] : total) {
    out << (first ? "" : ", ") << "\"" << name
        << "\": " << FormatNumber(us - children[name]);
    first = false;
  }
  out << "}, \"metrics\": {";
  first = true;
  for (const auto& [name, value] : metrics) {
    out << (first ? "" : ", ") << "\"" << name
        << "\": " << FormatNumber(value);
    first = false;
  }
  out << "}}\n";
  for (const ClientLog& log : clients_) {
    for (const Span& span : log.trace.spans) {
      out << "{\"request\": " << span.request << ", \"span\": \"" << span.name
          << "\", \"parent\": \"" << span.parent
          << "\", \"start_us\": " << FormatNumber(span.start_us)
          << ", \"dur_us\": " << FormatNumber(span.dur_us) << "}\n";
    }
  }
  std::printf("trace written to %s\n", file.string().c_str());
}

int Bench::Run() {
  std::filesystem::create_directories(work_dir_);
  data_ = GenerateDblp(GraphOptions(graph_seed_));
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup_s_.push_back(SetupOnce(rep));
  }
  MakeScripts();
  rss_setup_mb_ = PeakRssMb();
  writer_.topology[server_->dataset()->id()] = nullptr;

  // Warm-up: the result cache, profile store and scratch buffers reach
  // their steady state before anything is recorded.
  RunPhase(std::max(1.0, seconds_ / 10), false, false);
  const double untraced = trace_ ? seconds_ / 2 : seconds_;
  RunPhase(untraced, true, false);
  for (ClientLog& log : clients_) {
    for (int c = 0; c < kNumClasses; ++c) {
      untraced_latency_[c].insert(untraced_latency_[c].end(),
                                  log.latency_ms[c].begin(),
                                  log.latency_ms[c].end());
    }
  }
  if (trace_) {
    TimeSetupLayers();
    cache_before_ = server_->service().ResultCacheStats();
    RunPhase(seconds_ - untraced, true, true);
    cache_after_ = server_->service().ResultCacheStats();
  }
  rss_end_mb_ = PeakRssMb();

  CheckSamples();
  if (spec_.id == Workload::kMutateMixed) CheckFinalState();
  Report();
  server_.reset();
  for (const auto& file : snapshot_files_) std::filesystem::remove(file);
  return 0;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t graph_seed = kDefaultGraphSeed;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path work_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--graph-seed") {
      graph_seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::string_view(value) == "1";
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  for (const WorkloadSpec& spec : kWorkloads) {
    if (workload == spec.name && seconds > 0) {
      Bench bench(spec, seed, graph_seed, seconds, trace, work_dir);
      return bench.Run();
    }
  }
  std::fprintf(stderr,
               "usage: %s --workload browse_zipf|search_uniform|mutate_mixed "
               "--seed N --seconds S --trace 0|1 [--graph-seed N] "
               "[--work-dir DIR]\n",
               argv[0]);
  return 2;
}

}  // namespace
}  // namespace e2e
}  // namespace cexplorer

int main(int argc, char** argv) { return cexplorer::e2e::Main(argc, argv); }
