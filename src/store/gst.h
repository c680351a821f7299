// GST1: the on-disk binary CSR graph format (DESIGN.md §15).
//
// Layout (all integers little-endian; fixed 104-byte preamble):
//
//   offset  size  field
//        0     4  magic "GST1"
//        4     4  u32 format version (1)
//        8     4  u32 num_nodes
//       12     4  u32 section_count (2)
//       16     8  u64 num_edges
//       24     8  u64 content_hash (Graph::ContentHash of the payload)
//       32     4  u32 header_crc — CRC32C over bytes [0, 104) with this
//                 field zeroed, i.e. over the prologue AND section table
//       36     4  u32 reserved (0)
//       40    64  section table: 2 entries x 32 bytes
//                   u32 id (1 = offsets, 2 = adjacency)
//                   u32 crc32c of the section payload
//                   u64 byte offset from file start
//                   u64 byte length
//                   u64 reserved (0)
//      104     -  section payloads: offsets ((n+1) x i64, 8-aligned), then
//                 adjacency (2m x i32)
//
// Every byte of the file is covered by exactly one CRC (header_crc covers
// the preamble and table, each section CRC covers its payload), so any
// single flipped bit anywhere is detectable on open. Opening additionally
// re-validates CSR structure (monotone offsets, in-range sorted neighbor
// rows, no self-loops, symmetry of counts) so even an adversarial file with
// self-consistent CRCs can never hand the aligners an out-of-bounds index.
// All verification failures come back as the typed StatusCode::kCorrupt;
// transient IO/mmap problems come back kUnavailable and must not be treated
// as corruption.
//
// Writes are crash-safe by construction: WriteGstFile publishes through
// PublishFile (common/atomic_file.h) with a per-writer temp name, so a
// crash at any point leaves either no visible file or the complete
// published file — never a visible partial.
//
// Failpoints (tools/run_chaos.sh arms them): store.write.error,
// store.fsync.error, store.rename.error (crash window between temp write
// and publish), store.mmap.error, store.verify.corrupt.
#ifndef GRAPHALIGN_STORE_GST_H_
#define GRAPHALIGN_STORE_GST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "graph/graph.h"

namespace graphalign {

inline constexpr char kGstMagic[4] = {'G', 'S', 'T', '1'};
inline constexpr uint32_t kGstVersion = 1;
inline constexpr size_t kGstPreambleBytes = 104;

// Decoded preamble fields, reported alongside the Graph on open.
struct GstInfo {
  int num_nodes = 0;
  int64_t num_edges = 0;
  uint64_t content_hash = 0;
  uint64_t file_bytes = 0;
};

// Serializes `g` into GST1 bytes. Deterministic: the same graph always
// yields the same bytes.
std::string EncodeGst(const Graph& g);

// Verifies and opens GST1 bytes already in memory (used by the fuzz suite
// and as the core of OpenGstFile). The returned Graph's CSR arrays point
// into `bytes`; `backing` must own them and is held for the Graph's
// lifetime. `bytes` must be 8-byte aligned (mmap regions and heap strings
// are). Any integrity or structure violation returns kCorrupt.
Result<Graph> OpenGstBytes(std::string_view bytes,
                           std::shared_ptr<const void> backing,
                           GstInfo* info = nullptr);

// mmaps `path` read-only and opens it via OpenGstBytes. kNotFound when the
// path does not exist, kUnavailable on IO/mmap trouble, kCorrupt when the
// bytes fail verification.
Result<Graph> OpenGstFile(const std::string& path, GstInfo* info = nullptr);

// Atomically publishes `g` at `path` (temp + fsync + rename + dir fsync).
Status WriteGstFile(const Graph& g, const std::string& path);

}  // namespace graphalign

#endif  // GRAPHALIGN_STORE_GST_H_
