#include "snapshot/snapshot.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <random>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/hash64.h"
#include "snapshot/format.h"

namespace cexplorer {
namespace snapshot {

/// The one place granted friend access to Graph / AttributedGraph /
/// Vocabulary / ClTree internals: lists the arrays a dataset holds on save
/// and points a graph's spans at the mapped sections on load. Keeping
/// every privileged operation in this struct keeps the storage classes'
/// public API free of serialization concerns.
struct Access {
  struct Section {
    SectionId id;
    const void* data;
    std::uint64_t length;  // bytes
  };

  template <typename T>
  static Section Of(SectionId id, std::span<const T> s) {
    return {id, s.data(), s.size() * sizeof(T)};
  }

  // --- Save side -----------------------------------------------------------

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

  /// Every section of a snapshot of (g, cores, t), in SectionId order: the
  /// arrays the dataset holds, written as it holds them. `meta` and
  /// `records` back the two sections computed for the file.
  static std::array<Section, kSectionCount> Sections(
      const AttributedGraph& g, std::span<const std::uint32_t> cores,
      const ClTree& t, std::span<const std::uint64_t> meta,
      std::span<const ClTreeNodeRecord> records) {
    // A default-constructed (empty) graph holds no arrays at all, but the
    // file format (and the loader's offsets validation) always expects
    // count+1 offset entries: write the canonical single zero instead.
    static constexpr std::uint64_t kZeroOffset[1] = {0};
    const auto offsets = [](std::span<const std::uint64_t> s) {
      return s.empty() ? std::span<const std::uint64_t>(kZeroOffset) : s;
    };
    return {
        Of(SectionId::kMeta, meta),
        Of(SectionId::kGraphOffsets, offsets(g.graph_.offsets_)),
        Of(SectionId::kGraphAdjacency, g.graph_.adjacency_),
        Of(SectionId::kKeywordOffsets, offsets(g.keyword_offsets_)),
        Of(SectionId::kKeywordData, g.keyword_data_),
        Of(SectionId::kKeywordFingerprints, g.keyword_fp_),
        Of(SectionId::kNameBlob, g.name_blob_),
        Of(SectionId::kNameOffsets, offsets(g.name_offsets_)),
        Of(SectionId::kNameOrder, g.name_order_),
        Of(SectionId::kVocabBlob, g.vocab_.blob_),
        Of(SectionId::kVocabOffsets, offsets(g.vocab_.offsets_)),
        Of(SectionId::kVocabOrder, g.vocab_.order_),
        Of(SectionId::kCoreNumbers, cores),
        Of(SectionId::kTreeRecords, records),
        Of(SectionId::kTreeVertexNode, t.vertex_node_),
        Of(SectionId::kTreeSubtreeSizes, t.subtree_sizes_),
        Of(SectionId::kTreeChildArena, t.child_arena_),
        Of(SectionId::kTreeAnchorArena, t.anchor_arena_),
        Of(SectionId::kTreeInvKeywords, t.inv_keyword_arena_),
        Of(SectionId::kTreeInvOffsets, t.inv_offset_arena_),
        Of(SectionId::kTreeInvPostings, t.inv_posting_arena_),
        Section{SectionId::kReserved22, nullptr, 0},
        Section{SectionId::kReserved23, nullptr, 0},
        Of(SectionId::kTreeNodeBlooms, t.node_kw_bloom_),
    };
  }

  // --- Load side -----------------------------------------------------------

  /// A graph viewing validated sections of a mapping; the graph and its
  /// topology both hold `mapping`.
  static AttributedGraph MakeAttributedGraph(
      const std::shared_ptr<const void>& mapping,
      std::span<const std::uint64_t> graph_offsets,
      std::span<const VertexId> adjacency,
      std::span<const std::uint64_t> keyword_offsets,
      std::span<const KeywordId> keyword_data,
      std::span<const std::uint64_t> keyword_fp,
      std::span<const char> name_blob,
      std::span<const std::uint64_t> name_offsets,
      std::span<const VertexId> name_order, std::span<const char> vocab_blob,
      std::span<const std::uint64_t> vocab_offsets,
      std::span<const KeywordId> vocab_order) {
    AttributedGraph g;
    g.graph_.owner_ = mapping;
    g.graph_.offsets_ = graph_offsets;
    g.graph_.adjacency_ = adjacency;
    g.owner_ = mapping;
    g.keyword_offsets_ = keyword_offsets;
    g.keyword_data_ = keyword_data;
    g.keyword_fp_ = keyword_fp;
    g.name_blob_ = name_blob;
    g.name_offsets_ = name_offsets;
    g.name_order_ = name_order;
    g.vocab_.blob_ = vocab_blob;
    g.vocab_.offsets_ = vocab_offsets;
    g.vocab_.order_ = vocab_order;
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

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// A fresh name in `path`'s directory (so the final rename stays on one
/// filesystem). The exclusive create that uses it fails on a collision
/// instead of clobbering another writer's file.
std::string TempSiblingPath(const std::string& path) {
  static std::atomic<std::uint64_t> counter{0};
  return path + ".tmp." + std::to_string(std::random_device{}()) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

/// Flushes the directory entry of `path` to disk, making a rename into
/// that directory durable.
bool SyncParentDirectory(const std::string& path) {
  std::filesystem::path dir = std::filesystem::path(path).parent_path();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  return synced;
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

  const std::vector<ClTreeNodeRecord> records = Access::ExportRecords(tree);
  const std::uint64_t meta[4] = {
      static_cast<std::uint64_t>(n),
      static_cast<std::uint64_t>(2 * g.graph().num_edges()),
      static_cast<std::uint64_t>(g.vocabulary().size()),
      static_cast<std::uint64_t>(tree.num_nodes())};
  const auto sections = Access::Sections(g, cores, tree, meta, records);

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
  ok = ok && ::fsync(::fileno(out)) == 0;
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

/// A read-only MAP_SHARED mapping of a whole snapshot file, unmapped when
/// the last graph, tree or dataset viewing it lets go.
class Mapping {
 public:
  Mapping(const void* data, std::size_t size)
      : data_(static_cast<const std::uint8_t*>(data)), size_(size) {}
  ~Mapping() { ::munmap(const_cast<std::uint8_t*>(data_), size_); }
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
};

/// Maps `path` read-only. A file too small for a header and a footer is
/// rejected before mmap, which cannot map an empty file.
Result<std::shared_ptr<const Mapping>> Map(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::Unavailable("cannot open snapshot " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::Unavailable("cannot stat snapshot " + path);
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size < sizeof(SnapshotHeader) + sizeof(SnapshotFooter)) {
    ::close(fd);
    return Corrupt(path, "file too small");
  }
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    return Status::Unavailable("cannot map snapshot " + path);
  }
  return std::make_shared<const Mapping>(base, size);
}

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
  auto mapped = Map(path);
  if (!mapped.ok()) return mapped.status();
  const std::uint8_t* base = mapped.value()->data();
  const std::uint64_t size = mapped.value()->size();

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
  // Vocabulary::Find binary-searches this order, so it must ascend
  // strictly by word bytes, which also rules out a repeated id or word.
  const auto word = [&](std::uint32_t kw) {
    return std::string_view(vocab_blob.data() + vocab_offsets[kw],
                            vocab_offsets[kw + 1] - vocab_offsets[kw]);
  };
  for (std::size_t i = 0; i < num_words; ++i) {
    if (vocab_order[i] >= num_words) {
      return Corrupt(path, "vocabulary order entry");
    }
    if (i > 0 && word(vocab_order[i - 1]) >= word(vocab_order[i])) {
      return Corrupt(path, "vocabulary order not strictly ascending");
    }
  }

  const std::shared_ptr<const void> mapping = std::move(mapped.value());
  ClTreeParts parts;
  parts.owner = mapping;
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

  LoadedSnapshot loaded;
  loaded.graph = Access::MakeAttributedGraph(
      mapping, graph_offsets, adjacency, keyword_offsets, keyword_data,
      keyword_fp, name_blob, name_offsets, name_order, vocab_blob,
      vocab_offsets, vocab_order);
  loaded.core_numbers = cores;
  loaded.tree = std::move(tree.value());
  loaded.mapping = mapping;
  loaded.info.file_bytes = size;
  loaded.info.checksum = header.toc_checksum;
  return loaded;
}

}  // namespace snapshot
}  // namespace cexplorer
