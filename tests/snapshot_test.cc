// Tests for the zero-copy persistence tier: snapshot round trips,
// byte-identical query results served from a mapped file, atomic
// replacement of a file that is being served, and the corruption matrix
// (every tampering mode must fail closed with a structured UNAVAILABLE —
// never UB, never a partial dataset).

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/hash64.h"
#include "common/rng.h"
#include "common/simd/simd.h"
#include "explorer/dataset.h"
#include "graph/fixtures.h"
#include "server/server.h"
#include "snapshot/format.h"
#include "snapshot/snapshot.h"

namespace cexplorer {
namespace {

using snapshot::SectionEntry;
using snapshot::SectionId;
using snapshot::SnapshotHeader;

/// Random attributed graph with names and keywords, dense enough to grow a
/// multi-level CL-tree.
AttributedGraph RandomAttributed(std::size_t n, std::size_t m,
                                 std::size_t vocab, std::uint64_t seed) {
  Rng rng(seed);
  AttributedGraphBuilder b;
  for (std::size_t v = 0; v < n; ++v) {
    std::vector<KeywordId> kws;
    const std::size_t count = 1 + rng.UniformU32(4);
    for (std::size_t i = 0; i < count; ++i) {
      std::string word = "kw";
      word += std::to_string(rng.UniformU32(static_cast<std::uint32_t>(vocab)));
      kws.push_back(b.mutable_vocabulary()->Intern(word));
    }
    // No spaces: these names travel through request lines in query strings.
    std::string name = "author";
    name += std::to_string(v);
    b.AddVertexWithIds(std::move(name), std::move(kws));
  }
  for (std::size_t i = 0; i < m; ++i) {
    (void)b.AddEdge(rng.UniformU32(static_cast<std::uint32_t>(n)),
                    rng.UniformU32(static_cast<std::uint32_t>(n)));
  }
  return b.Build();
}

DatasetPtr BuildDataset(AttributedGraph graph) {
  auto built = Dataset::Build(std::move(graph));
  EXPECT_TRUE(built.ok());
  return built.value();
}

/// Full structural comparison of two datasets through the public read API:
/// graph topology, attributes, names (including lookup), core numbers, and
/// the CL-tree (structure + postings).
void ExpectDatasetsEquivalent(const Dataset& a, const Dataset& b) {
  const AttributedGraph& ga = a.graph();
  const AttributedGraph& gb = b.graph();
  ASSERT_EQ(ga.num_vertices(), gb.num_vertices());
  ASSERT_EQ(ga.graph().num_edges(), gb.graph().num_edges());
  ASSERT_EQ(ga.vocabulary().size(), gb.vocabulary().size());
  for (KeywordId kw = 0; kw < ga.vocabulary().size(); ++kw) {
    EXPECT_EQ(ga.vocabulary().Word(kw), gb.vocabulary().Word(kw));
    EXPECT_EQ(gb.vocabulary().Find(std::string(ga.vocabulary().Word(kw))),
              kw);
  }
  for (VertexId v = 0; v < ga.num_vertices(); ++v) {
    EXPECT_EQ(ga.Name(v), gb.Name(v));
    const auto na = ga.graph().Neighbors(v);
    const auto nb = gb.graph().Neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()));
    const auto ka = ga.Keywords(v);
    const auto kb = gb.Keywords(v);
    ASSERT_TRUE(std::equal(ka.begin(), ka.end(), kb.begin(), kb.end()));
  }
  // Case-insensitive name lookup must behave identically after a reload.
  for (VertexId v = 0; v < ga.num_vertices(); v += 7) {
    std::string upper(ga.Name(v));
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    EXPECT_EQ(gb.FindByName(upper), ga.FindByName(upper)) << upper;
  }
  EXPECT_EQ(gb.FindByName("no such author"), kInvalidVertex);
  EXPECT_EQ(gb.FindByName(""), kInvalidVertex);

  const auto ca = a.core_numbers();
  const auto cb = b.core_numbers();
  ASSERT_TRUE(std::equal(ca.begin(), ca.end(), cb.begin(), cb.end()));

  const ClTree& ta = a.index();
  const ClTree& tb = b.index();
  ASSERT_EQ(ta.num_nodes(), tb.num_nodes());
  for (ClNodeId i = 0; i < ta.num_nodes(); ++i) {
    const ClTreeNode& x = ta.node(i);
    const ClTreeNode& y = tb.node(i);
    EXPECT_EQ(x.core, y.core);
    EXPECT_EQ(x.parent, y.parent);
    EXPECT_EQ(x.subtree_end, y.subtree_end);
    ASSERT_TRUE(std::equal(x.children.begin(), x.children.end(),
                           y.children.begin(), y.children.end()));
    ASSERT_TRUE(std::equal(x.vertices.begin(), x.vertices.end(),
                           y.vertices.begin(), y.vertices.end()));
    ASSERT_TRUE(std::equal(x.inv_keywords.begin(), x.inv_keywords.end(),
                           y.inv_keywords.begin(), y.inv_keywords.end()));
    // Postings agree keyword by keyword.
    for (KeywordId kw : x.inv_keywords) {
      const KeywordId kws[] = {kw};
      VertexList va, vb;
      ta.AppendNodeMatches(i, kws, simd::BloomFingerprint(kws), &va);
      tb.AppendNodeMatches(i, kws, simd::BloomFingerprint(kws), &vb);
      EXPECT_EQ(va, vb) << "node " << i << " kw " << kw;
    }
  }
  for (VertexId v = 0; v < ga.num_vertices(); ++v) {
    EXPECT_EQ(ta.NodeOf(v), tb.NodeOf(v));
    EXPECT_EQ(ta.CoreOf(v), tb.CoreOf(v));
  }
  for (ClNodeId i = 0; i < ta.num_nodes(); ++i) {
    EXPECT_EQ(ta.SubtreeSize(i), tb.SubtreeSize(i));
    EXPECT_EQ(ta.NodeKeywordBloom(i), tb.NodeKeywordBloom(i));
  }
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<std::uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in.good());
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

TEST(SnapshotTest, LoadedSnapshotIsEquivalent) {
  DatasetPtr original = BuildDataset(RandomAttributed(400, 1600, 40, 17));
  const std::string path = TempPath("roundtrip.snap");
  ASSERT_TRUE(original->SaveSnapshot(path).ok());

  auto loaded = Dataset::FromSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->storage().mode, "mmap");
  EXPECT_GT(loaded.value()->storage().file_bytes, 0u);
  ExpectDatasetsEquivalent(*original, *loaded.value());

  // A snapshot of the loaded (mapped) dataset round-trips again, and its
  // file is the first file byte for byte: a build holds every array in
  // the form the file stores.
  const std::string path2 = TempPath("roundtrip_resave.snap");
  ASSERT_TRUE(loaded.value()->SaveSnapshot(path2).ok());
  auto reloaded = Dataset::FromSnapshotFile(path2);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ExpectDatasetsEquivalent(*original, *reloaded.value());
  EXPECT_EQ(ReadFile(path), ReadFile(path2));
}

TEST(SnapshotTest, EmptyGraphRoundTrips) {
  DatasetPtr original = BuildDataset(AttributedGraph());
  const std::string path = TempPath("empty.snap");
  ASSERT_TRUE(original->SaveSnapshot(path).ok());
  auto loaded = Dataset::FromSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->graph().num_vertices(), 0u);
  EXPECT_EQ(loaded.value()->index().num_nodes(), 0u);
}

// --------------------------------------------------------------------------
// Byte-identical query bodies: owned vs mapped
// --------------------------------------------------------------------------

std::vector<std::string> QuerySuite(const AttributedGraph& g) {
  // A representative mix: name search (ACQ with keywords), vertex search
  // (Global), exploration-shaped k sweep, and an author form.
  std::vector<std::string> queries;
  const VertexId q = 3 % g.num_vertices();
  const std::string name(g.Name(q));
  std::string kw(g.vocabulary().Word(g.Keywords(q)[0]));
  queries.push_back("GET /v1/search?vertex=" + std::to_string(q) +
                    "&k=2&algo=Global");
  queries.push_back("GET /v1/search?vertex=" + std::to_string(q) +
                    "&k=2&keywords=" + kw + "&algo=ACQ");
  queries.push_back("GET /v1/search?vertex=" + std::to_string(q) +
                    "&k=3&algo=Local");
  queries.push_back("GET /v1/community?id=0");
  queries.push_back("GET /v1/author?name=" + name);
  return queries;
}

TEST(SnapshotTest, SearchBodiesByteIdenticalAcrossStorage) {
  AttributedGraph graph = RandomAttributed(300, 1500, 30, 23);
  const std::string path = TempPath("bodies.snap");
  ASSERT_TRUE(BuildDataset(graph)->SaveSnapshot(path).ok());

  CExplorerServer owned;
  ASSERT_TRUE(owned.UploadGraph(graph).ok());
  const std::vector<std::string> queries = QuerySuite(graph);
  std::vector<std::string> expected;
  for (const std::string& q : queries) {
    HttpResponse r = owned.Handle(q);
    EXPECT_EQ(r.code, 200) << q << " -> " << r.body;
    expected.push_back(r.body);
  }

  CExplorerServer server;
  HttpResponse loaded = server.Handle("POST /v1/snapshot/load?path=" + path);
  ASSERT_EQ(loaded.code, 200) << loaded.body;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    HttpResponse r = server.Handle(queries[i]);
    EXPECT_EQ(r.code, 200) << queries[i];
    EXPECT_EQ(r.body, expected[i]) << queries[i];
  }
}

// --------------------------------------------------------------------------
// API surface
// --------------------------------------------------------------------------

TEST(SnapshotTest, ApiSaveLoadAndStats) {
  CExplorerServer saver;
  ASSERT_TRUE(saver.UploadGraph(Figure5Graph()).ok());
  const std::string path = TempPath("api_surface.snap");

  // POST-only on /v1: GET is a 405, POST without a path a 400.
  EXPECT_EQ(saver.Handle("GET /v1/snapshot/save?path=" + path).code, 405);
  EXPECT_EQ(saver.Handle("POST /v1/snapshot/save").code, 400);
  HttpResponse saved = saver.Handle("POST /v1/snapshot/save?path=" + path);
  ASSERT_EQ(saved.code, 200) << saved.body;

  CExplorerServer loader;
  EXPECT_EQ(loader.Handle("GET /v1/snapshot/load?path=" + path).code, 405);
  HttpResponse loaded = loader.Handle("POST /v1/snapshot/load?path=" + path);
  ASSERT_EQ(loaded.code, 200) << loaded.body;
  EXPECT_NE(loaded.body.find("\"storage\":\"mmap\""), std::string::npos)
      << loaded.body;

  HttpResponse stats = loader.Handle("GET /v1/stats");
  ASSERT_EQ(stats.code, 200);
  EXPECT_NE(stats.body.find("\"mode\":\"mmap\""), std::string::npos)
      << stats.body;
  EXPECT_NE(stats.body.find("\"file_bytes\":"), std::string::npos);
  EXPECT_NE(stats.body.find("\"checksum\":"), std::string::npos);

  // The owned-mode server reports mode "owned" with no file identity.
  HttpResponse owned_stats = saver.Handle("GET /v1/stats");
  EXPECT_NE(owned_stats.body.find("\"mode\":\"owned\""), std::string::npos)
      << owned_stats.body;

  // A loaded snapshot serves queries immediately.
  EXPECT_EQ(loader.Handle("GET /v1/search?name=A&k=2&algo=Global").code, 200);
}

TEST(SnapshotTest, SaveUnderMutationOverlayCompactsFirst) {
  // Regression: saving while a mutation overlay is pending must never
  // silently drop the mutations — the save folds the overlay into an owned
  // dataset first, and the written snapshot round-trips the mutated graph.
  CExplorerServer server;
  ASSERT_TRUE(server.UploadGraph(Figure5Graph()).ok());
  HttpResponse mutated =
      server.Handle("POST /v1/edges\n\n{\"edges\": [[8, 9], [7, 9]]}");
  ASSERT_EQ(mutated.code, 200) << mutated.body;
  ASSERT_TRUE(server.dataset()->is_overlay());

  const std::string path = TempPath("overlay_save.snap");
  HttpResponse saved = server.Handle("POST /v1/snapshot/save?path=" + path);
  ASSERT_EQ(saved.code, 200) << saved.body;
  // The save compacted: the served dataset is owned now.
  EXPECT_FALSE(server.dataset()->is_overlay());

  CExplorerServer loader;
  HttpResponse loaded = loader.Handle("POST /v1/snapshot/load?path=" + path);
  ASSERT_EQ(loaded.code, 200) << loaded.body;
  const Graph& g = loader.dataset()->graph().graph();
  EXPECT_TRUE(g.HasEdge(8, 9));
  EXPECT_TRUE(g.HasEdge(7, 9));
}

/// Names in `path`'s directory that start with `path`'s file name plus
/// ".tmp" — leftovers of the writer's temp-then-rename protocol.
std::vector<std::string> TempSiblings(const std::string& path) {
  const std::filesystem::path target(path);
  const std::string prefix = target.filename().string() + ".tmp";
  std::vector<std::string> found;
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) found.push_back(name);
  }
  return found;
}

TEST(SnapshotTest, SaveOverTheServedMappedFileKeepsServing) {
  // Regression: the served dataset maps its snapshot file MAP_SHARED, and
  // a save that truncated that same file in place killed the process with
  // SIGBUS. The save must replace the file and leave the mapped inode be.
  CExplorerServer server;
  ASSERT_TRUE(server.UploadGraph(RandomAttributed(2000, 8000, 50, 29)).ok());
  const std::string path = TempPath("self_save.snap");
  const std::string save = "POST /v1/snapshot/save?path=" + path;
  HttpResponse first = server.Handle(save);
  ASSERT_EQ(first.code, 200) << first.body;
  HttpResponse loaded = server.Handle("POST /v1/snapshot/load?path=" + path);
  ASSERT_EQ(loaded.code, 200) << loaded.body;
  ASSERT_NE(loaded.body.find("\"storage\":\"mmap\""), std::string::npos)
      << loaded.body;
  HttpResponse second = server.Handle(save);
  EXPECT_EQ(second.code, 200) << second.body;

  EXPECT_EQ(server.Handle("GET /v1/search?vertex=3&k=2&algo=Global").code,
            200);
  auto reloaded = Dataset::FromSnapshotFile(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ExpectDatasetsEquivalent(*server.dataset(), *reloaded.value());
  EXPECT_TRUE(TempSiblings(path).empty());
}

TEST(SnapshotTest, FailedSaveRemovesItsTempFile) {
  // Renaming a file over a directory fails after the temp file is fully
  // written: the save must report it, remove the temp file and leave the
  // target as it was.
  const std::string path = TempPath("save_target_is_a_directory");
  std::filesystem::create_directories(path);
  Status st = BuildDataset(Figure5Graph())->SaveSnapshot(path);
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
  EXPECT_TRUE(std::filesystem::is_directory(path));
  EXPECT_TRUE(TempSiblings(path).empty());
}

TEST(SnapshotTest, CorruptLoadThroughApiIs503AndKeepsOldDataset) {
  CExplorerServer server;
  ASSERT_TRUE(server.UploadGraph(Figure5Graph()).ok());
  const std::string junk = TempPath("junk.snap");
  std::ofstream(junk, std::ios::trunc) << "this is not a snapshot file";
  HttpResponse r = server.Handle("POST /v1/snapshot/load?path=" + junk);
  EXPECT_EQ(r.code, 503) << r.body;
  EXPECT_NE(r.body.find("UNAVAILABLE"), std::string::npos) << r.body;
  // The previously served dataset is untouched.
  EXPECT_EQ(server.Handle("GET /v1/search?name=A&k=2&algo=Global").code, 200);
}

// --------------------------------------------------------------------------
// Corruption matrix
// --------------------------------------------------------------------------

void WriteFile(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetPtr dataset = BuildDataset(RandomAttributed(120, 500, 16, 5));
    good_path_ = TempPath("corruption_base.snap");
    ASSERT_TRUE(dataset->SaveSnapshot(good_path_).ok());
    good_ = ReadFile(good_path_);
    ASSERT_GT(good_.size(), sizeof(SnapshotHeader));
  }

  /// Writes `bytes` to a scratch file and expects a clean kUnavailable.
  void ExpectRejected(const std::vector<std::uint8_t>& bytes,
                      const std::string& what) {
    const std::string path = TempPath("corruption_case.snap");
    WriteFile(path, bytes);
    auto loaded = Dataset::FromSnapshotFile(path);
    ASSERT_FALSE(loaded.ok()) << what;
    EXPECT_EQ(loaded.status().code(), StatusCode::kUnavailable)
        << what << ": " << loaded.status().ToString();
  }

  SectionEntry TocEntry(std::size_t index) const {
    SectionEntry entry;
    std::memcpy(&entry,
                good_.data() + sizeof(SnapshotHeader) +
                    index * sizeof(SectionEntry),
                sizeof(entry));
    return entry;
  }

  /// Stores `entry` as TOC entry `index` of `bytes` and recomputes the TOC
  /// checksum, so only the loader's structural checks can object.
  static void WriteTocEntry(std::vector<std::uint8_t>* bytes,
                            std::size_t index, const SectionEntry& entry) {
    std::memcpy(bytes->data() + sizeof(SnapshotHeader) +
                    index * sizeof(SectionEntry),
                &entry, sizeof(entry));
    const std::uint64_t toc_checksum =
        Hash64(bytes->data() + sizeof(SnapshotHeader),
               snapshot::kSectionCount * sizeof(SectionEntry));
    std::memcpy(bytes->data() + offsetof(SnapshotHeader, toc_checksum),
                &toc_checksum, sizeof(toc_checksum));
  }

  /// Section `id` of `bytes` viewed as an array of T.
  template <typename T>
  std::span<T> Section(std::vector<std::uint8_t>& bytes, SectionId id) const {
    const SectionEntry entry = TocEntry(static_cast<std::size_t>(id) - 1);
    return {reinterpret_cast<T*>(bytes.data() + entry.offset),
            static_cast<std::size_t>(entry.length / sizeof(T))};
  }

  std::string good_path_;
  std::vector<std::uint8_t> good_;
};

TEST_F(CorruptionTest, MissingFile) {
  auto loaded = Dataset::FromSnapshotFile(TempPath("does_not_exist.snap"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kUnavailable);
}

TEST_F(CorruptionTest, EmptyAndTinyFiles) {
  ExpectRejected({}, "empty file");
  ExpectRejected({'C', 'E', 'X'}, "3-byte file");
  ExpectRejected(std::vector<std::uint8_t>(64, 0), "zeroed header");
}

TEST_F(CorruptionTest, WrongMagic) {
  auto bytes = good_;
  bytes[0] ^= 0xFF;
  ExpectRejected(bytes, "flipped magic");
}

TEST_F(CorruptionTest, UnsupportedVersion) {
  auto bytes = good_;
  bytes[8] = 99;  // SnapshotHeader::version
  ExpectRejected(bytes, "future format version");
}

TEST_F(CorruptionTest, TruncationAtEveryRegion) {
  for (std::size_t keep :
       {sizeof(SnapshotHeader) + 1, good_.size() / 4, good_.size() / 2,
        good_.size() - sizeof(snapshot::SnapshotFooter), good_.size() - 1}) {
    std::vector<std::uint8_t> bytes(good_.begin(),
                                    good_.begin() +
                                        static_cast<std::ptrdiff_t>(keep));
    ExpectRejected(bytes, "truncated to " + std::to_string(keep));
  }
}

TEST_F(CorruptionTest, FlippedTocByte) {
  auto bytes = good_;
  bytes[sizeof(SnapshotHeader) + 13] ^= 0x40;
  ExpectRejected(bytes, "flipped TOC byte");
}

TEST_F(CorruptionTest, FlippedFooterByte) {
  auto bytes = good_;
  bytes[bytes.size() - 3] ^= 0x01;
  ExpectRejected(bytes, "flipped footer byte");
}

TEST_F(CorruptionTest, FlippedByteInEverySection) {
  // One flipped bit anywhere in any payload must be caught by that
  // section's checksum (empty sections are skipped: no payload to flip).
  for (std::size_t i = 0; i < snapshot::kSectionCount; ++i) {
    const SectionEntry entry = TocEntry(i);
    if (entry.length == 0) continue;
    auto bytes = good_;
    bytes[entry.offset + entry.length / 2] ^= 0x10;
    ExpectRejected(bytes, "flipped byte in section id " +
                              std::to_string(entry.id));
  }
}

/// Swaps the first two entries of the first CSR row holding at least two,
/// so that row is no longer strictly ascending.
template <typename Offset>
void SwapInFirstLongRow(std::span<const Offset> offsets,
                        std::span<std::uint32_t> data) {
  for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i + 1] - offsets[i] >= 2) {
      std::swap(data[offsets[i]], data[offsets[i] + 1]);
      return;
    }
  }
  ADD_FAILURE() << "no row with two entries";
}

TEST_F(CorruptionTest, StructuralTamperingWithFixedChecksums) {
  // An attacker (or bug) that keeps every checksum consistent still cannot
  // smuggle structurally-invalid arrays past the loader. Each row tampers
  // with one section's payload, then recomputes that section's checksum
  // and the TOC checksum.
  using Bytes = std::vector<std::uint8_t>;
  const struct {
    const char* what;
    SectionId section;
    std::function<void(Bytes&)> tamper;
  } rows[] = {
      {"out-of-range vertex_node", SectionId::kTreeVertexNode,
       [this](Bytes& b) {
         Section<std::uint32_t>(b, SectionId::kTreeVertexNode)[0] =
             0x7FFFFFFF;
       }},
      {"adjacency row out of order", SectionId::kGraphAdjacency,
       [this](Bytes& b) {
         SwapInFirstLongRow(
             Section<const std::uint64_t>(b, SectionId::kGraphOffsets),
             Section<std::uint32_t>(b, SectionId::kGraphAdjacency));
       }},
      {"keyword row out of order", SectionId::kKeywordData,
       [this](Bytes& b) {
         SwapInFirstLongRow(
             Section<const std::uint64_t>(b, SectionId::kKeywordOffsets),
             Section<std::uint32_t>(b, SectionId::kKeywordData));
       }},
      {"posting slot out of order", SectionId::kTreeInvPostings,
       [this](Bytes& b) {
         SwapInFirstLongRow(
             Section<const std::uint32_t>(b, SectionId::kTreeInvOffsets),
             Section<std::uint32_t>(b, SectionId::kTreeInvPostings));
       }},
      {"vocabulary order out of order", SectionId::kVocabOrder,
       [this](Bytes& b) {
         auto order = Section<std::uint32_t>(b, SectionId::kVocabOrder);
         std::swap(order.front(), order.back());
       }},
      {"vocabulary order repeats an id", SectionId::kVocabOrder,
       [this](Bytes& b) {
         auto order = Section<std::uint32_t>(b, SectionId::kVocabOrder);
         order[1] = order[0];
       }},
  };
  for (const auto& row : rows) {
    Bytes bytes = good_;
    row.tamper(bytes);
    const std::size_t index = static_cast<std::size_t>(row.section) - 1;
    SectionEntry entry = TocEntry(index);
    ASSERT_GT(entry.length, 0u) << row.what;
    entry.checksum = Hash64(bytes.data() + entry.offset, entry.length);
    WriteTocEntry(&bytes, index, entry);
    ExpectRejected(bytes, std::string(row.what) + " with valid checksums");
  }
}

TEST_F(CorruptionTest, OverstatedSubtreeSizeKeepsTheSubtreeScanInBounds) {
  // The loader only bounds a subtree size by the vertex count. Inflating
  // the smallest subtree to every vertex (checksums fixed) must not walk
  // SubtreeVertices' dense scan past the vertex-to-node map: it stops at
  // the last vertex and returns the members the map holds.
  auto good = Dataset::FromSnapshotFile(good_path_);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  const ClTree& tree = good.value()->index();
  const std::size_t n = good.value()->graph().num_vertices();
  ClNodeId node = 0;
  for (ClNodeId i = 1; i < tree.num_nodes(); ++i) {
    if (tree.SubtreeSize(i) < tree.SubtreeSize(node)) node = i;
  }
  ASSERT_LT(tree.SubtreeSize(node), n);

  std::vector<std::uint8_t> bytes = good_;
  Section<std::uint64_t>(bytes, SectionId::kTreeSubtreeSizes)[node] = n;
  const std::size_t index =
      static_cast<std::size_t>(SectionId::kTreeSubtreeSizes) - 1;
  SectionEntry entry = TocEntry(index);
  entry.checksum = Hash64(bytes.data() + entry.offset, entry.length);
  WriteTocEntry(&bytes, index, entry);
  const std::string path = TempPath("overstated_subtree.snap");
  WriteFile(path, bytes);
  auto loaded = Dataset::FromSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->index().SubtreeVertices(node),
            tree.SubtreeVertices(node));
}

TEST_F(CorruptionTest, NonRawPostingLayoutRejected) {
  // Postings are raw u32 lists only: the header's posting_format must be 0
  // and the reserved sections 22-23 must be empty, even when every
  // checksum matches.
  auto bytes = good_;
  const std::uint32_t format = 1;
  std::memcpy(bytes.data() + offsetof(SnapshotHeader, posting_format),
              &format, sizeof(format));
  ExpectRejected(bytes, "posting_format 1");

  for (SectionId id : {SectionId::kReserved22, SectionId::kReserved23}) {
    bytes = good_;
    const std::size_t index = static_cast<std::size_t>(id) - 1;
    SectionEntry entry = TocEntry(index);
    ASSERT_EQ(entry.length, 0u);
    entry.length = 8;
    entry.checksum = Hash64(bytes.data() + entry.offset, entry.length);
    WriteTocEntry(&bytes, index, entry);
    ExpectRejected(bytes, "non-empty section " +
                              std::to_string(static_cast<int>(id)));
  }
}

}  // namespace
}  // namespace cexplorer
