// Block maps in column extents: the wire encoding of a file's block map
// and the client-side cache that holds it.
//
// nsd_for_block stripes a file round-robin, `(ino + bi) % N`, and each
// NSD allocates from a forward rotor, so a file written by one writer
// lies in device-contiguous runs down each NSD column: file blocks
// r, r + N, r + 2N, ... at device blocks d, d + 1, d + 2, ... A column
// extent {first block, count, nsd, first device block} with the stride
// N carried once per chunk names such a run in one record, however long
// it is; a 64 GiB file striped over 16 NSDs is 16 extents. Blocks with
// more than one copy or a divergent copy travel whole, in a side list,
// and holes are whatever neither names.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "gpfs/types.hpp"

namespace mgfs::gpfs {

/// A single-copy, clean run down one NSD column: file blocks
/// first + k * stride for k in [0, count), on `nsd` at device blocks
/// dev + k.
struct MapExtent {
  std::uint64_t first = 0;
  std::uint64_t count = 0;
  std::uint32_t nsd = 0;
  std::uint64_t dev = 0;
};

/// A run of a file's block map, blocks [first_block, first_block +
/// count), as column extents plus the blocks they cannot carry.
struct BlockMapChunk {
  std::uint64_t first_block = 0;
  std::uint64_t count = 0;
  std::uint64_t stride = 1;  // column stride: the file system's NSD count
  std::vector<MapExtent> extents;  // ascending by first block
  /// Blocks with more than one copy or a divergent copy, ascending.
  std::vector<std::pair<std::uint64_t, BlockPlacement>> multi;

  /// Every copy of block `bi` (0 copies = hole or outside the chunk).
  /// A linear decode, for tests and diagnostics.
  BlockPlacement placement(std::uint64_t bi) const;
};

/// Builds a BlockMapChunk from placements fed in ascending block order,
/// extending each column's open extent while the next block continues
/// it on the same NSD at the next device block.
class BlockMapEncoder {
 public:
  BlockMapEncoder(std::uint64_t first_block, std::uint64_t stride);
  /// Append block `bi`, which must follow every block added before.
  void add(std::uint64_t bi, const BlockPlacement& p);
  /// The chunk of `count` blocks from the first block.
  BlockMapChunk finish(std::uint64_t count) &&;

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  BlockMapChunk chunk_;
  std::vector<std::size_t> open_;  // per column: index of its open extent
};

/// A client's cached block map of one file. Data extents are keyed by
/// (column, first block) — one sorted array per column in use — so a
/// lookup or a trim is a binary search in one column; known holes are a
/// range set and multi-copy blocks a sorted map. A block is in at most
/// one of the three; a block in none is unknown and must be fetched.
class BlockMapCache {
 public:
  /// Every copy of `bi` (0 copies = known hole), or nullopt when the
  /// cache does not know the block.
  std::optional<BlockPlacement> get(std::uint64_t bi) const;
  /// Install a fetched chunk: every block it covers is replaced by its
  /// data, and holes are recorded only inside `keep` (sorted, disjoint:
  /// the block ranges this client holds a token over).
  void install(const BlockMapChunk& chunk,
               const std::vector<BlockRange>& keep);
  /// Drop everything known about blocks [lo, hi); `hi` may be ~0.
  void forget(std::uint64_t lo, std::uint64_t hi);
  /// Drop only the known holes in blocks [lo, hi); `hi` may be ~0.
  void forget_holes(std::uint64_t lo, std::uint64_t hi);
  /// Copy `copy` of `bi` missed a committed write; no-op unless `bi` is
  /// a cached data block.
  void mark_divergent(std::uint64_t bi, std::uint8_t copy);
  void clear();
  bool empty() const {
    return extents_ == 0 && holes_.empty() && multi_.empty();
  }
  /// Cached data extents (the compactness the encoding buys).
  std::size_t extent_count() const { return extents_; }

 private:
  struct Column {
    std::uint64_t index = 0;          // block % stride
    std::vector<MapExtent> extents;   // ascending by first block
  };

  /// The column holding blocks ≡ `index` (mod stride), or nullptr.
  Column* column(std::uint64_t index);
  const Column* column(std::uint64_t index) const;

  /// Insert `r`, merging with the column neighbours it continues. Its
  /// blocks must be unknown.
  void add_extent(MapExtent r);
  void add_hole(std::uint64_t lo, std::uint64_t hi);
  void forget_column(std::vector<MapExtent>& col, std::uint64_t lo,
                     std::uint64_t hi);
  /// Record as holes the blocks of [lo, hi) the chunk carries nothing for.
  void install_holes(const BlockMapChunk& chunk, std::uint64_t lo,
                     std::uint64_t hi);

  std::uint64_t stride_ = 1;
  std::vector<Column> columns_;  // non-empty columns, ascending by index
  std::size_t extents_ = 0;      // across all columns
  std::map<std::uint64_t, std::uint64_t> holes_;  // lo -> hi, disjoint
  std::map<std::uint64_t, BlockPlacement> multi_;
};

}  // namespace mgfs::gpfs
