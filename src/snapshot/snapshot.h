// Zero-copy dataset persistence: write a Dataset's immutable artifacts
// (graph CSR + attributes, core numbers, CL-tree arenas) into the sectioned
// binary format of snapshot/format.h, each array as the dataset holds it,
// and load them back by mmap-ing the file read-only and constructing span
// views over the mapping.
//
// Loading performs a fixed number of allocations regardless of graph size
// (the CL-tree node directory plus O(1) bookkeeping); every O(n)/O(m)
// array is served directly from the mapped bytes. MAP_SHARED + PROT_READ
// means N processes loading the same snapshot share one physical copy of
// the index through the page cache.
//
// Failure model: any corruption — truncation, flipped bytes, wrong
// magic/version, inconsistent cross-references — yields a clean
// Status::Unavailable; the loader verifies per-section checksums and every
// structural invariant before publishing a single span.

#ifndef CEXPLORER_SNAPSHOT_SNAPSHOT_H_
#define CEXPLORER_SNAPSHOT_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "cltree/cltree.h"
#include "common/status.h"
#include "graph/attributed_graph.h"

namespace cexplorer {
namespace snapshot {

/// A loaded snapshot's identity for /v1/stats.
struct LoadInfo {
  std::uint64_t file_bytes = 0;
  std::uint64_t checksum = 0;  ///< XXH64 of the section table (file id)
};

/// A snapshot mapped into memory. `graph` and `tree` each hold the mapping,
/// so any copy of them keeps it alive; `core_numbers` views it too, and the
/// receiving Dataset must retain `mapping` for as long as they are in use.
struct LoadedSnapshot {
  AttributedGraph graph;
  std::span<const std::uint32_t> core_numbers;
  ClTree tree;
  std::shared_ptr<const void> mapping;
  LoadInfo info;
};

/// Writes graph + cores + tree as one snapshot file, replacing `path`
/// atomically: the bytes go to a fresh temp file in the same directory,
/// which is fsynced, renamed over `path`, and the directory fsynced. On
/// failure the temp file is removed and `path` is left as it was; a
/// dataset mapped from the old file keeps reading the old inode. `cores`
/// must be the core numbers of `g`; `tree` must index `g`.
Status WriteSnapshot(const AttributedGraph& g,
                     std::span<const std::uint32_t> cores, const ClTree& tree,
                     const std::string& path);

/// Maps a snapshot file read-only and fully validates it. A file that
/// cannot be opened, mapped or validated is Unavailable.
Result<LoadedSnapshot> LoadSnapshot(const std::string& path);

}  // namespace snapshot
}  // namespace cexplorer

#endif  // CEXPLORER_SNAPSHOT_SNAPSHOT_H_
