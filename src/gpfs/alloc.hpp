// Block allocation maps: one two-level bitmap per NSD plus a striping
// helper.
//
// GPFS stripes successive file blocks round-robin across all NSDs of the
// file system; the allocator keeps a rotor per NSD so sequential
// allocations stay mostly sequential on each disk (which the Disk model
// rewards). Each bitmap carries a summary level — one bit per 64-bit
// bitmap word, set iff that word still has a free block — so finding the
// next free block from the rotor is a couple of word probes instead of a
// scan across an arbitrarily long run of full words (on a nearly-full
// NSD the old linear next-fit walked the whole map per block).
//
// The bitmap itself is kept in 4 KiB pages (32768 blocks each), the way
// GPFS splits its allocation map into separately handled regions. A
// page is materialized on its first write; one never written reads as
// all free. Memory per NSD of C blocks: a page table of C / 32768
// pointers (C / 4096 bytes), the dense summary (C / 512 bytes, about
// 0.8 MB over the 427M blocks of the Fig. 11 machine) and 4 KiB per
// page that has ever held an allocation — so it follows the blocks in
// use, not capacity. Allocate and free cost what they did (a few word
// probes plus the summary scan); a page's first write zero-fills it.
// Invariants (tested): a block is never handed out twice, free returns
// it exactly once, and counters always match the bitmaps.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.hpp"
#include "gpfs/types.hpp"

namespace mgfs::gpfs {

class AllocationMap {
 public:
  /// Bitmap words per 4 KiB page (64 blocks per word).
  static constexpr std::uint64_t kPageWords = 4096 / sizeof(std::uint64_t);

  /// `blocks_per_nsd[i]` = capacity of NSD i in file-system blocks.
  explicit AllocationMap(std::vector<std::uint64_t> blocks_per_nsd);

  std::size_t nsd_count() const { return nsds_.size(); }
  std::uint64_t capacity_blocks(std::uint32_t nsd) const;
  std::uint64_t free_blocks(std::uint32_t nsd) const;
  std::uint64_t total_free() const;
  std::uint64_t total_capacity() const;

  /// Allocate one block on a specific NSD (first free from the rotor).
  Result<BlockAddr> allocate_on(std::uint32_t nsd);

  /// Allocate `n` blocks striped round-robin starting at `first_nsd`,
  /// falling back to any NSD with space when the preferred one is full.
  /// All-or-nothing: on no_space nothing is leaked.
  Result<std::vector<BlockAddr>> allocate_striped(std::uint32_t first_nsd,
                                                  std::size_t n);

  Status free_block(BlockAddr addr);
  bool is_allocated(BlockAddr addr) const;

  /// Blocks in use over all NSDs, counted by popcount over the resident
  /// pages (less the pre-marked tail bits) rather than from the
  /// counters; asserts that the two agree. O(resident pages).
  std::uint64_t allocated_blocks() const;

  /// Bitmap pages materialized over all NSDs.
  std::size_t resident_pages() const;

 private:
  struct PerNsd {
    // 1 bit per block, 1 = in use, in pages of kPageWords words; a null
    // page has never been written and reads as all free.
    std::vector<std::unique_ptr<std::uint64_t[]>> pages;
    // Summary level: bit w of summary[w / 64] is set iff bitmap word w has
    // at least one free (and usable) bit. Bits past the capacity of the
    // final bitmap word are pre-marked used, so "free bit" always means
    // an allocatable block.
    std::vector<std::uint64_t> summary;
    std::uint64_t capacity = 0;
    std::uint64_t used = 0;
    std::uint64_t rotor = 0;  // next-fit scan start

    std::uint64_t words() const { return (capacity + 63) / 64; }
    std::uint64_t word(std::uint64_t w) const;
    /// Word `w` for update, materializing its page zero-filled.
    std::uint64_t& word_for_write(std::uint64_t w);
  };

  Result<std::uint64_t> take_free_bit(PerNsd& p);

  std::vector<PerNsd> nsds_;
};

}  // namespace mgfs::gpfs
