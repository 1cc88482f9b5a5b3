// On-disk layout of the C-Explorer dataset snapshot: a single-file,
// versioned, checksummed, section-table binary holding the graph CSR,
// per-vertex attributes, core numbers and the CL-tree arenas, with every
// section 64-byte aligned so a read-only mapping of the file serves the
// arrays in place as std::spans — zero parse, zero copy.
//
// File layout (all integers little-endian, fixed-width):
//
//   [0, 64)                 SnapshotHeader
//   [64, 64 + 32*sections)  SectionEntry table (the TOC)
//   ...                     section payloads, each aligned to its
//                           SectionEntry::alignment (>= 64), zero-padded
//                           between sections
//   [file_size-16, file_size) SnapshotFooter
//
// Integrity: every section carries an XXH64 checksum of its payload; the
// header carries an XXH64 of the TOC bytes; the footer repeats the magic
// and total file size (truncation check). Readers verify all of these and
// every structural cross-reference before publishing a single span — a
// corrupt file is a clean Unavailable error, never UB.
//
// The byte-level spec (including section contents) is documented in
// docs/snapshot_format.md; keep the two in sync.

#ifndef CEXPLORER_SNAPSHOT_FORMAT_H_
#define CEXPLORER_SNAPSHOT_FORMAT_H_

#include <bit>
#include <cstdint>

namespace cexplorer {
namespace snapshot {

// The format stores host-order integers and is read back by mmap on the
// same architecture family; refuse to compile on big-endian hosts rather
// than silently writing an incompatible file.
static_assert(std::endian::native == std::endian::little,
              "snapshot format requires a little-endian host");

/// "CEXSNAP1" as a little-endian u64.
inline constexpr std::uint64_t kMagic = 0x3150414E53584543ULL;

/// "CEXSNEND" as a little-endian u64 (footer).
inline constexpr std::uint64_t kFooterMagic = 0x444E454E53584543ULL;

/// Bumped on any layout change; readers reject other versions.
inline constexpr std::uint32_t kFormatVersion = 1;

/// Every section payload starts on a multiple of this (and of its own
/// declared alignment), so mapped arrays are cache-line aligned.
inline constexpr std::uint32_t kSectionAlignment = 64;

/// Identifies a section's payload. Values are stable wire constants.
enum class SectionId : std::uint32_t {
  kMeta = 1,              // u64[4]: {n, adjacency_len, vocab_size, num_nodes}
  kGraphOffsets = 2,      // u64[n+1]   CSR adjacency offsets
  kGraphAdjacency = 3,    // u32[2m]    CSR adjacency targets
  kKeywordOffsets = 4,    // u64[n+1]   per-vertex keyword offsets
  kKeywordData = 5,       // u32[]      keyword ids, sorted per vertex
  kKeywordFingerprints = 6,  // u64[n]  per-vertex keyword blooms
  kNameBlob = 7,          // char[]     concatenated vertex names
  kNameOffsets = 8,       // u64[n+1]   per-vertex name bounds
  kNameOrder = 9,         // u32[]      non-empty-named vertices, ci-sorted
  kVocabBlob = 10,        // char[]     concatenated keyword strings
  kVocabOffsets = 11,     // u64[V+1]   per-keyword bounds
  kVocabOrder = 12,       // u32[V]     keyword ids sorted by word bytes
  kCoreNumbers = 13,      // u32[n]     core decomposition
  kTreeRecords = 14,      // ClTreeNodeRecord[num_nodes]
  kTreeVertexNode = 15,   // u32[n]     vertex -> anchoring node
  kTreeSubtreeSizes = 16,  // u64[num_nodes]
  kTreeChildArena = 17,   // u32[]      flattened child lists
  kTreeAnchorArena = 18,  // u32[n]     flattened anchored vertices
  kTreeInvKeywords = 19,  // u32[]      inverted-list keyword arena
  kTreeInvOffsets = 20,   // u32[]      inverted-list offsets (+1 sentinel)
  kTreeInvPostings = 21,  // u32[]      posting arena
  kReserved22 = 22,       // reserved, always empty
  kReserved23 = 23,       // reserved, always empty
  kTreeNodeBlooms = 24,   // u64[num_nodes] per-node keyword blooms
};

/// Number of sections a version-1 snapshot always carries (possibly with
/// zero-length payloads; the reserved sections 22-23 always are).
inline constexpr std::uint32_t kSectionCount = 24;

/// Fixed 64-byte file header.
struct SnapshotHeader {
  std::uint64_t magic = kMagic;
  std::uint32_t version = kFormatVersion;
  std::uint32_t section_count = kSectionCount;
  std::uint64_t file_size = 0;
  std::uint32_t posting_format = 0;  // must be 0 (raw u32 postings)
  std::uint32_t flags = 0;           // reserved, zero
  std::uint64_t toc_checksum = 0;    // XXH64 of the SectionEntry table
  std::uint64_t reserved[3] = {0, 0, 0};
};
static_assert(sizeof(SnapshotHeader) == 64, "wire layout");

/// One TOC entry describing a section payload.
struct SectionEntry {
  std::uint32_t id = 0;         // SectionId
  std::uint32_t alignment = kSectionAlignment;
  std::uint64_t offset = 0;     // from file start; offset % alignment == 0
  std::uint64_t length = 0;     // payload bytes (may be 0)
  std::uint64_t checksum = 0;   // XXH64 of the payload bytes
};
static_assert(sizeof(SectionEntry) == 32, "wire layout");

/// Fixed 16-byte trailer at file_size - 16.
struct SnapshotFooter {
  std::uint64_t magic = kFooterMagic;
  std::uint64_t file_size = 0;
};
static_assert(sizeof(SnapshotFooter) == 16, "wire layout");

}  // namespace snapshot
}  // namespace cexplorer

#endif  // CEXPLORER_SNAPSHOT_FORMAT_H_
