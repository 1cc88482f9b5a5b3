#include "snapshot/snapshot.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <new>
#include <random>
#include <utility>
#include <vector>

#include "common/hash64.h"
#include "snapshot/format.h"

#if defined(__unix__) || defined(__APPLE__)
#define CEXPLORER_HAVE_POSIX 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace cexplorer {
namespace snapshot {

/// The one place granted friend access to Graph / AttributedGraph /
/// Vocabulary / ClTree internals: reads the private arenas on save and
/// wires up span-backed view instances on load. Keeping every privileged
/// operation in this struct keeps the storage classes' public API free of
/// serialization concerns.
struct Access {
  // --- Save side: private array readers -----------------------------------
  static std::span<const std::uint64_t> GraphOffsets(const Graph& g) {
    return g.offsets_.span();
  }
  static std::span<const VertexId> GraphAdjacency(const Graph& g) {
    return g.adjacency_.span();
  }
  static std::span<const std::uint64_t> KeywordOffsets(
      const AttributedGraph& g) {
    return g.keyword_offsets_.span();
  }
  static std::span<const KeywordId> KeywordData(const AttributedGraph& g) {
    return g.keyword_data_.span();
  }
  static std::span<const std::uint64_t> KeywordFingerprints(
      const AttributedGraph& g) {
    return g.keyword_fp_.span();
  }

  static std::span<const ClNodeId> TreeVertexNode(const ClTree& t) {
    return t.vertex_node_.span();
  }
  static std::span<const std::uint64_t> TreeSubtreeSizes(const ClTree& t) {
    return t.subtree_sizes_.span();
  }
  static std::span<const ClNodeId> TreeChildArena(const ClTree& t) {
    return t.child_arena_.span();
  }
  static std::span<const VertexId> TreeAnchorArena(const ClTree& t) {
    return t.anchor_arena_.span();
  }
  static std::span<const KeywordId> TreeInvKeywords(const ClTree& t) {
    return t.inv_keyword_arena_.span();
  }
  static std::span<const std::uint32_t> TreeInvOffsets(const ClTree& t) {
    return t.inv_offset_arena_.span();
  }
  static std::span<const VertexId> TreeInvPostings(const ClTree& t) {
    return t.inv_posting_arena_.span();
  }
  static std::span<const std::uint64_t> TreeNodeBlooms(const ClTree& t) {
    return t.node_kw_bloom_.span();
  }

  /// Converts each node's spans to (begin, count) pairs against the
  /// tree-wide arenas — the position-independent form the file stores.
  static std::vector<ClTreeNodeRecord> ExportRecords(const ClTree& t) {
    std::vector<ClTreeNodeRecord> records(t.num_nodes());
    for (std::size_t i = 0; i < t.num_nodes(); ++i) {
      const ClTreeNode& node = t.node(static_cast<ClNodeId>(i));
      ClTreeNodeRecord& r = records[i];
      r.core = node.core;
      r.parent = node.parent;
      r.subtree_end = node.subtree_end;
      r.children_count = static_cast<std::uint32_t>(node.children.size());
      r.children_begin = static_cast<std::uint64_t>(
          node.children.data() - t.child_arena_.data());
      r.anchor_begin = static_cast<std::uint64_t>(node.vertices.data() -
                                                  t.anchor_arena_.data());
      r.anchor_count = node.vertices.size();
      r.inv_slot_begin = static_cast<std::uint64_t>(
          node.inv_keywords.data() - t.inv_keyword_arena_.data());
      r.inv_count = node.inv_keywords.size();
    }
    return records;
  }

  // --- Load side: view-mode constructors ----------------------------------
  static Graph MakeGraph(std::span<const std::uint64_t> offsets,
                         std::span<const VertexId> adjacency) {
    Graph g;
    g.offsets_ = ArrayRef<std::uint64_t>::View(offsets);
    g.adjacency_ = ArrayRef<VertexId>::View(adjacency);
    return g;
  }

  static Vocabulary MakeVocabulary(std::span<const char> blob,
                                   std::span<const std::uint64_t> offsets,
                                   std::span<const KeywordId> order) {
    Vocabulary v;
    v.view_ = true;
    v.blob_ = blob;
    v.offsets_ = offsets;
    v.order_ = order;
    return v;
  }

  static AttributedGraph MakeAttributedGraph(
      Graph graph, Vocabulary vocab,
      std::span<const std::uint64_t> keyword_offsets,
      std::span<const KeywordId> keyword_data,
      std::span<const std::uint64_t> keyword_fp,
      std::span<const char> name_blob,
      std::span<const std::uint64_t> name_offsets,
      std::span<const VertexId> name_order) {
    AttributedGraph g;
    g.graph_ = std::move(graph);
    g.vocab_ = std::move(vocab);
    g.keyword_offsets_ = ArrayRef<std::uint64_t>::View(keyword_offsets);
    g.keyword_data_ = ArrayRef<KeywordId>::View(keyword_data);
    g.keyword_fp_ = ArrayRef<std::uint64_t>::View(keyword_fp);
    g.names_view_ = true;
    g.name_blob_ = name_blob;
    g.name_offsets_ = name_offsets;
    g.name_order_ = name_order;
    return g;
  }
};

namespace {

std::uint64_t AlignUp(std::uint64_t value, std::uint64_t alignment) {
  return (value + alignment - 1) & ~(alignment - 1);
}

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::Unavailable("snapshot " + path + " rejected: " + what);
}

/// Case-insensitive byte-wise three-way compare (matches ToLower()).
int CiCompare(std::string_view a, std::string_view b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned char ca = static_cast<unsigned char>(
        std::tolower(static_cast<unsigned char>(a[i])));
    const unsigned char cb = static_cast<unsigned char>(
        std::tolower(static_cast<unsigned char>(b[i])));
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

struct PendingSection {
  SectionId id;
  const void* data;
  std::uint64_t length;  // bytes
};

template <typename T>
PendingSection MakeSection(SectionId id, std::span<const T> s) {
  return {id, s.data(), s.size() * sizeof(T)};
}

/// A fresh name in `path`'s directory (so the final rename stays on one
/// filesystem). The exclusive create that uses it fails on a collision
/// instead of clobbering another writer's file.
std::string TempSiblingPath(const std::string& path) {
  static std::atomic<std::uint64_t> counter{0};
  return path + ".tmp." + std::to_string(std::random_device{}()) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

/// Flushes the directory entry of `path` to disk, making a rename into
/// that directory durable. A no-op where POSIX fsync is unavailable.
bool SyncParentDirectory(const std::string& path) {
#if CEXPLORER_HAVE_POSIX
  std::filesystem::path dir = std::filesystem::path(path).parent_path();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  return synced;
#else
  (void)path;
  return true;
#endif
}

}  // namespace

Status WriteSnapshot(const AttributedGraph& g,
                     std::span<const std::uint32_t> cores, const ClTree& tree,
                     const std::string& path) {
  const std::size_t n = g.num_vertices();
  if (cores.size() != n) {
    return Status::InvalidArgument(
        "core-number array does not match the graph");
  }

  // Flatten names into blob + offsets + the case-insensitive lookup
  // permutation (non-empty names sorted by lowered bytes, ties by id — the
  // exact lowest-id-wins order the owned-mode hash map produces).
  std::string name_blob;
  std::vector<std::uint64_t> name_offsets(n + 1, 0);
  std::vector<VertexId> name_order;
  for (VertexId v = 0; v < n; ++v) {
    const std::string_view name = g.Name(v);
    name_blob.append(name);
    name_offsets[v + 1] = name_blob.size();
    if (!name.empty()) name_order.push_back(v);
  }
  std::sort(name_order.begin(), name_order.end(),
            [&g](VertexId a, VertexId b) {
              const int c = CiCompare(g.Name(a), g.Name(b));
              return c != 0 ? c < 0 : a < b;
            });

  // Flatten the vocabulary the same way (exact-byte sort for Find()).
  const Vocabulary& vocab = g.vocabulary();
  const std::size_t num_words = vocab.size();
  std::string vocab_blob;
  std::vector<std::uint64_t> vocab_offsets(num_words + 1, 0);
  std::vector<KeywordId> vocab_order(num_words);
  for (KeywordId id = 0; id < num_words; ++id) {
    vocab_blob.append(vocab.Word(id));
    vocab_offsets[id + 1] = vocab_blob.size();
    vocab_order[id] = id;
  }
  std::sort(vocab_order.begin(), vocab_order.end(),
            [&vocab](KeywordId a, KeywordId b) {
              return vocab.Word(a) < vocab.Word(b);
            });

  // An empty graph stores no CSR arrays at all, but the file format (and the
  // loader's offsets validation) always expects n+1 offset entries — write
  // the canonical single-zero arrays in that case.
  static constexpr std::uint64_t kZeroOffset[1] = {0};
  std::span<const std::uint64_t> graph_offsets =
      Access::GraphOffsets(g.graph());
  if (graph_offsets.empty()) graph_offsets = kZeroOffset;
  std::span<const std::uint64_t> keyword_offsets = Access::KeywordOffsets(g);
  if (keyword_offsets.empty()) keyword_offsets = kZeroOffset;

  const std::vector<ClTreeNodeRecord> records = Access::ExportRecords(tree);
  const std::uint64_t meta[4] = {
      static_cast<std::uint64_t>(n),
      static_cast<std::uint64_t>(Access::GraphAdjacency(g.graph()).size()),
      static_cast<std::uint64_t>(num_words),
      static_cast<std::uint64_t>(tree.num_nodes())};

  const PendingSection sections[kSectionCount] = {
      {SectionId::kMeta, meta, sizeof(meta)},
      MakeSection(SectionId::kGraphOffsets, graph_offsets),
      MakeSection(SectionId::kGraphAdjacency,
                  Access::GraphAdjacency(g.graph())),
      MakeSection(SectionId::kKeywordOffsets, keyword_offsets),
      MakeSection(SectionId::kKeywordData, Access::KeywordData(g)),
      MakeSection(SectionId::kKeywordFingerprints,
                  Access::KeywordFingerprints(g)),
      MakeSection(SectionId::kNameBlob,
                  std::span<const char>(name_blob.data(), name_blob.size())),
      MakeSection(SectionId::kNameOffsets,
                  std::span<const std::uint64_t>(name_offsets)),
      MakeSection(SectionId::kNameOrder,
                  std::span<const VertexId>(name_order)),
      MakeSection(SectionId::kVocabBlob,
                  std::span<const char>(vocab_blob.data(), vocab_blob.size())),
      MakeSection(SectionId::kVocabOffsets,
                  std::span<const std::uint64_t>(vocab_offsets)),
      MakeSection(SectionId::kVocabOrder,
                  std::span<const KeywordId>(vocab_order)),
      MakeSection(SectionId::kCoreNumbers, cores),
      MakeSection(SectionId::kTreeRecords,
                  std::span<const ClTreeNodeRecord>(records)),
      MakeSection(SectionId::kTreeVertexNode, Access::TreeVertexNode(tree)),
      MakeSection(SectionId::kTreeSubtreeSizes,
                  Access::TreeSubtreeSizes(tree)),
      MakeSection(SectionId::kTreeChildArena, Access::TreeChildArena(tree)),
      MakeSection(SectionId::kTreeAnchorArena, Access::TreeAnchorArena(tree)),
      MakeSection(SectionId::kTreeInvKeywords, Access::TreeInvKeywords(tree)),
      MakeSection(SectionId::kTreeInvOffsets, Access::TreeInvOffsets(tree)),
      MakeSection(SectionId::kTreeInvPostings, Access::TreeInvPostings(tree)),
      {SectionId::kReserved22, nullptr, 0},
      {SectionId::kReserved23, nullptr, 0},
      MakeSection(SectionId::kTreeNodeBlooms, Access::TreeNodeBlooms(tree)),
  };

  // Lay out: header, TOC, 64-byte-aligned payloads, 8-byte-aligned footer.
  SnapshotHeader header;
  std::vector<SectionEntry> toc(kSectionCount);
  std::uint64_t cursor = sizeof(SnapshotHeader) +
                         kSectionCount * sizeof(SectionEntry);
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    cursor = AlignUp(cursor, kSectionAlignment);
    toc[i].id = static_cast<std::uint32_t>(sections[i].id);
    toc[i].alignment = kSectionAlignment;
    toc[i].offset = cursor;
    toc[i].length = sections[i].length;
    toc[i].checksum = Hash64(sections[i].data, sections[i].length);
    cursor += sections[i].length;
  }
  const std::uint64_t footer_offset = AlignUp(cursor, 8);
  header.file_size = footer_offset + sizeof(SnapshotFooter);
  header.toc_checksum =
      Hash64(toc.data(), toc.size() * sizeof(SectionEntry));

  // Never write `path` in place: a dataset may be serving mapped views of
  // it, and truncating a mapped file kills the process with SIGBUS. The
  // bytes go to a fresh sibling that is synced and then renamed over
  // `path`, so the old inode lives on under any mapping, and a crash or
  // error at any step leaves the old file untouched.
  const std::string tmp = TempSiblingPath(path);
  std::FILE* out = std::fopen(tmp.c_str(), "wbx");
  if (out == nullptr) return Status::IoError("cannot open " + tmp);
  bool ok = true;
  std::uint64_t written = 0;
  auto put = [&](const void* data, std::uint64_t len) {
    if (len != 0) ok = ok && std::fwrite(data, 1, len, out) == len;
    written += len;
  };
  auto pad_to = [&](std::uint64_t offset) {
    static const char zeros[kSectionAlignment] = {0};
    while (written < offset) {
      put(zeros, std::min<std::uint64_t>(offset - written,
                                         sizeof(zeros)));
    }
  };
  put(&header, sizeof(header));
  put(toc.data(), toc.size() * sizeof(SectionEntry));
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    pad_to(toc[i].offset);
    put(sections[i].data, sections[i].length);
  }
  pad_to(footer_offset);
  SnapshotFooter footer;
  footer.file_size = header.file_size;
  put(&footer, sizeof(footer));
  ok = std::fflush(out) == 0 && ok;
#if CEXPLORER_HAVE_POSIX
  ok = ok && ::fsync(::fileno(out)) == 0;
#endif
  ok = std::fclose(out) == 0 && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot write " + path);
  }
  // The new file is in place; only durability of its name is left.
  if (!SyncParentDirectory(path)) {
    return Status::IoError("cannot sync the directory of " + path);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Loader
// ---------------------------------------------------------------------------

namespace {

/// Owns the snapshot bytes: a MAP_SHARED read-only mapping when available,
/// else a 64-byte-aligned heap buffer filled by plain reads.
class Backing {
 public:
  Backing(const Backing&) = delete;
  Backing& operator=(const Backing&) = delete;

  ~Backing() {
#if CEXPLORER_HAVE_POSIX
    if (mapped_) {
      ::munmap(const_cast<std::uint8_t*>(data_), size_);
      return;
    }
#endif
    if (data_ != nullptr) {
      ::operator delete(const_cast<std::uint8_t*>(data_),
                        std::align_val_t{kSectionAlignment});
    }
  }

  static Result<std::shared_ptr<Backing>> Open(const std::string& path) {
    const char* env = std::getenv("CEXPLORER_SNAPSHOT_MMAP");
    const bool allow_mmap =
        env == nullptr || (std::string_view(env) != "0" &&
                           std::string_view(env) != "off");
#if CEXPLORER_HAVE_POSIX
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      return Status::Unavailable("cannot open snapshot " + path);
    }
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      return Status::Unavailable("cannot stat snapshot " + path);
    }
    const std::size_t size = static_cast<std::size_t>(st.st_size);
    if (allow_mmap && size > 0) {
      void* base = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
      if (base != MAP_FAILED) {
        ::close(fd);
        auto backing = std::shared_ptr<Backing>(new Backing());
        backing->data_ = static_cast<const std::uint8_t*>(base);
        backing->size_ = size;
        backing->mapped_ = true;
        return backing;
      }
      // Fall through to the heap path (e.g. a filesystem without mmap).
    }
    auto backing = std::shared_ptr<Backing>(new Backing());
    if (size > 0) {
      auto* buf = static_cast<std::uint8_t*>(
          ::operator new(size, std::align_val_t{kSectionAlignment}));
      backing->data_ = buf;
      backing->size_ = size;
      std::size_t done = 0;
      while (done < size) {
        const ssize_t got = ::read(fd, buf + done, size - done);
        if (got <= 0) {
          ::close(fd);
          return Status::Unavailable("cannot read snapshot " + path);
        }
        done += static_cast<std::size_t>(got);
      }
    }
    ::close(fd);
    return backing;
#else
    (void)allow_mmap;
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) return Status::Unavailable("cannot open snapshot " + path);
    const std::streamoff size = in.tellg();
    in.seekg(0);
    auto backing = std::shared_ptr<Backing>(new Backing());
    if (size > 0) {
      auto* buf = static_cast<std::uint8_t*>(::operator new(
          static_cast<std::size_t>(size), std::align_val_t{kSectionAlignment}));
      backing->data_ = buf;
      backing->size_ = static_cast<std::size_t>(size);
      if (!in.read(reinterpret_cast<char*>(buf), size)) {
        return Status::Unavailable("cannot read snapshot " + path);
      }
    }
    return backing;
#endif
  }

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool mapped() const { return mapped_; }

 private:
  Backing() = default;

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
};

/// Backing + the view-mode graph constructed over it, allocated together
/// so the aliased graph shared_ptr keeps the mapping alive transitively.
struct Holder {
  std::shared_ptr<Backing> backing;
  AttributedGraph graph;
};

template <typename T>
bool TypedSpan(const std::uint8_t* base, const SectionEntry& entry,
               std::span<const T>* out) {
  if (entry.length % sizeof(T) != 0) return false;
  *out = {reinterpret_cast<const T*>(base + entry.offset),
          static_cast<std::size_t>(entry.length / sizeof(T))};
  return true;
}

/// offsets must be [0, ...ascending..., total] with count+1 entries.
bool ValidOffsets(std::span<const std::uint64_t> offsets, std::size_t count,
                  std::uint64_t total) {
  if (offsets.size() != count + 1) return false;
  if (offsets[0] != 0 || offsets[count] != total) return false;
  for (std::size_t i = 0; i < count; ++i) {
    if (offsets[i] > offsets[i + 1]) return false;
  }
  return true;
}

}  // namespace

Result<LoadedSnapshot> LoadSnapshot(const std::string& path) {
  auto backing = Backing::Open(path);
  if (!backing.ok()) return backing.status();
  const std::uint8_t* base = backing.value()->data();
  const std::uint64_t size = backing.value()->size();

  if (size < sizeof(SnapshotHeader) + sizeof(SnapshotFooter)) {
    return Corrupt(path, "file too small");
  }
  SnapshotHeader header;
  std::memcpy(&header, base, sizeof(header));
  if (header.magic != kMagic) return Corrupt(path, "bad magic");
  if (header.version != kFormatVersion) {
    return Corrupt(path, "unsupported format version " +
                             std::to_string(header.version));
  }
  if (header.file_size != size) {
    return Corrupt(path, "file size mismatch (truncated?)");
  }
  if (header.section_count != kSectionCount) {
    return Corrupt(path, "unexpected section count");
  }
  if (header.posting_format != 0) return Corrupt(path, "bad posting format");
  const std::uint64_t toc_bytes =
      static_cast<std::uint64_t>(header.section_count) * sizeof(SectionEntry);
  if (sizeof(SnapshotHeader) + toc_bytes + sizeof(SnapshotFooter) > size) {
    return Corrupt(path, "section table overruns file");
  }
  if (Hash64(base + sizeof(SnapshotHeader), toc_bytes) !=
      header.toc_checksum) {
    return Corrupt(path, "section table checksum mismatch");
  }
  SnapshotFooter footer;
  std::memcpy(&footer, base + size - sizeof(footer), sizeof(footer));
  if (footer.magic != kFooterMagic || footer.file_size != size) {
    return Corrupt(path, "bad footer (truncated?)");
  }

  // TOC: sections must be the known ids in order, in bounds, aligned, and
  // every payload must match its checksum before anything views it.
  std::vector<SectionEntry> toc(header.section_count);
  std::memcpy(toc.data(), base + sizeof(SnapshotHeader), toc_bytes);
  for (std::size_t i = 0; i < toc.size(); ++i) {
    const SectionEntry& e = toc[i];
    if (e.id != i + 1) return Corrupt(path, "unexpected section id");
    if (e.alignment == 0 || (e.alignment & (e.alignment - 1)) != 0 ||
        e.offset % e.alignment != 0) {
      return Corrupt(path, "misaligned section");
    }
    if (e.offset > size || e.length > size - e.offset) {
      return Corrupt(path, "section out of bounds");
    }
    if (Hash64(base + e.offset, e.length) != e.checksum) {
      return Corrupt(path, "section checksum mismatch (id " +
                               std::to_string(e.id) + ")");
    }
  }
  auto entry = [&toc](SectionId id) -> const SectionEntry& {
    return toc[static_cast<std::size_t>(id) - 1];
  };
  if (entry(SectionId::kReserved22).length != 0 ||
      entry(SectionId::kReserved23).length != 0) {
    return Corrupt(path, "reserved section not empty");
  }

  // Typed views + structural cross-checks. Everything below is O(n + m)
  // scanning of mapped memory with no allocation.
  std::span<const std::uint64_t> meta;
  std::span<const std::uint64_t> graph_offsets, keyword_offsets, keyword_fp,
      name_offsets, vocab_offsets, subtree_sizes, node_blooms;
  std::span<const std::uint32_t> adjacency, keyword_data, name_order,
      vocab_order, cores, vertex_node, child_arena, anchor_arena,
      inv_keywords, inv_offsets, inv_postings;
  std::span<const char> name_blob, vocab_blob;
  std::span<const ClTreeNodeRecord> records;
  const bool typed_ok =
      TypedSpan(base, entry(SectionId::kMeta), &meta) &&
      TypedSpan(base, entry(SectionId::kGraphOffsets), &graph_offsets) &&
      TypedSpan(base, entry(SectionId::kGraphAdjacency), &adjacency) &&
      TypedSpan(base, entry(SectionId::kKeywordOffsets), &keyword_offsets) &&
      TypedSpan(base, entry(SectionId::kKeywordData), &keyword_data) &&
      TypedSpan(base, entry(SectionId::kKeywordFingerprints), &keyword_fp) &&
      TypedSpan(base, entry(SectionId::kNameBlob), &name_blob) &&
      TypedSpan(base, entry(SectionId::kNameOffsets), &name_offsets) &&
      TypedSpan(base, entry(SectionId::kNameOrder), &name_order) &&
      TypedSpan(base, entry(SectionId::kVocabBlob), &vocab_blob) &&
      TypedSpan(base, entry(SectionId::kVocabOffsets), &vocab_offsets) &&
      TypedSpan(base, entry(SectionId::kVocabOrder), &vocab_order) &&
      TypedSpan(base, entry(SectionId::kCoreNumbers), &cores) &&
      TypedSpan(base, entry(SectionId::kTreeRecords), &records) &&
      TypedSpan(base, entry(SectionId::kTreeVertexNode), &vertex_node) &&
      TypedSpan(base, entry(SectionId::kTreeSubtreeSizes), &subtree_sizes) &&
      TypedSpan(base, entry(SectionId::kTreeChildArena), &child_arena) &&
      TypedSpan(base, entry(SectionId::kTreeAnchorArena), &anchor_arena) &&
      TypedSpan(base, entry(SectionId::kTreeInvKeywords), &inv_keywords) &&
      TypedSpan(base, entry(SectionId::kTreeInvOffsets), &inv_offsets) &&
      TypedSpan(base, entry(SectionId::kTreeInvPostings), &inv_postings) &&
      TypedSpan(base, entry(SectionId::kTreeNodeBlooms), &node_blooms);
  if (!typed_ok) return Corrupt(path, "section length not element-aligned");

  if (meta.size() != 4) return Corrupt(path, "bad meta section");
  const std::uint64_t n = meta[0];
  if (n > (std::uint64_t{1} << 32)) return Corrupt(path, "vertex count");
  if (meta[1] != adjacency.size() || meta[2] + 1 != vocab_offsets.size() ||
      meta[3] != records.size()) {
    return Corrupt(path, "meta counts disagree with sections");
  }
  const std::size_t num_words = static_cast<std::size_t>(meta[2]);

  if (!ValidOffsets(graph_offsets, static_cast<std::size_t>(n),
                    adjacency.size())) {
    return Corrupt(path, "graph CSR offsets invalid");
  }
  // Adjacency rows feed the intersection kernels, whose output bound
  // assumes strictly increasing inputs (simd.h): each row must ascend
  // strictly, which also makes its last target the only one to range-check.
  for (std::size_t v = 0; v < n; ++v) {
    const auto row = adjacency.subspan(graph_offsets[v],
                                       graph_offsets[v + 1] - graph_offsets[v]);
    if (std::adjacent_find(row.begin(), row.end(), std::greater_equal<>()) !=
        row.end()) {
      return Corrupt(path, "adjacency row not strictly ascending");
    }
    if (!row.empty() && row.back() >= n) {
      return Corrupt(path, "adjacency target out of range");
    }
  }
  if (!ValidOffsets(keyword_offsets, static_cast<std::size_t>(n),
                    keyword_data.size())) {
    return Corrupt(path, "keyword offsets invalid");
  }
  // Keyword rows are binary-searched (HasKeyword) and intersected (CPJ)
  // under the same strictly-ascending contract as adjacency rows.
  for (std::size_t v = 0; v < n; ++v) {
    const auto row = keyword_data.subspan(
        keyword_offsets[v], keyword_offsets[v + 1] - keyword_offsets[v]);
    if (std::adjacent_find(row.begin(), row.end(), std::greater_equal<>()) !=
        row.end()) {
      return Corrupt(path, "keyword row not strictly ascending");
    }
    if (!row.empty() && row.back() >= num_words) {
      return Corrupt(path, "keyword id out of range");
    }
  }
  if (keyword_fp.size() != n || cores.size() != n) {
    return Corrupt(path, "per-vertex array size mismatch");
  }
  if (!ValidOffsets(name_offsets, static_cast<std::size_t>(n),
                    name_blob.size())) {
    return Corrupt(path, "name offsets invalid");
  }
  for (std::uint32_t v : name_order) {
    if (v >= n) return Corrupt(path, "name order entry out of range");
  }
  if (!ValidOffsets(vocab_offsets, num_words, vocab_blob.size())) {
    return Corrupt(path, "vocabulary offsets invalid");
  }
  if (vocab_order.size() != num_words) {
    return Corrupt(path, "vocabulary order size mismatch");
  }
  for (std::uint32_t kw : vocab_order) {
    if (kw >= num_words) return Corrupt(path, "vocabulary order entry");
  }

  ClTreeParts parts;
  parts.records = records;
  parts.vertex_node = vertex_node;
  parts.subtree_sizes = subtree_sizes;
  parts.child_arena = child_arena;
  parts.anchor_arena = anchor_arena;
  parts.inv_keyword_arena = inv_keywords;
  parts.inv_offset_arena = inv_offsets;
  parts.inv_posting_arena = inv_postings;
  parts.node_kw_bloom = node_blooms;
  auto tree = ClTree::FromParts(parts, static_cast<std::size_t>(n));
  if (!tree.ok()) return tree.status();

  auto holder = std::make_shared<Holder>();
  holder->backing = std::move(backing.value());
  holder->graph = Access::MakeAttributedGraph(
      Access::MakeGraph(graph_offsets, adjacency),
      Access::MakeVocabulary(vocab_blob, vocab_offsets, vocab_order),
      keyword_offsets, keyword_data, keyword_fp, name_blob, name_offsets,
      name_order);

  LoadedSnapshot loaded;
  loaded.graph = std::shared_ptr<const AttributedGraph>(holder,
                                                        &holder->graph);
  loaded.core_numbers = cores;
  loaded.tree = std::move(tree.value());
  loaded.backing = holder;
  loaded.info.mode = holder->backing->mapped() ? "mmap" : "heap";
  loaded.info.file_bytes = size;
  loaded.info.checksum = header.toc_checksum;
  return loaded;
}

}  // namespace snapshot
}  // namespace cexplorer
