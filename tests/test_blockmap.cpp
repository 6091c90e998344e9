// Column-extent block maps: the wire encoding round trip, its size on a
// striped file, and a seeded differential test of the client cache
// against a plain per-block reference map.
#include "gpfs/blockmap.hpp"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "gpfs_test_util.hpp"

namespace mgfs::gpfs {
namespace {

using testutil::MiniCluster;

/// A synthetic file layout striped over `stride` NSDs the way the
/// allocator lays files out — column-contiguous — with holes, 2- and
/// 3-copy blocks, divergent copies and the odd rotor skip that breaks
/// an extent.
struct Layout {
  std::uint64_t stride;
  std::vector<BlockPlacement> blocks;
  std::vector<std::uint64_t> rotor;  // next device block per NSD

  Layout(std::uint64_t n, std::uint64_t nblocks, Rng& rng)
      : stride(n), rotor(n, 0) {
    for (std::uint64_t bi = 0; bi < nblocks; ++bi) {
      blocks.push_back(draw(bi, rng));
    }
  }

  BlockPlacement draw(std::uint64_t bi, Rng& rng) {
    if (rng.chance(0.1)) return {};  // hole
    const auto nsd = static_cast<std::uint32_t>(bi % stride);
    if (rng.chance(0.05)) ++rotor[nsd];  // another file took a block
    BlockPlacement p = BlockPlacement::single({nsd, rotor[nsd]++});
    if (rng.chance(0.08)) {
      const auto copies = static_cast<std::uint8_t>(rng.range(2, 3));
      for (std::uint8_t c = 1; c < copies; ++c) {
        const auto other = static_cast<std::uint32_t>((nsd + c) % stride);
        p.add({other, 1000000 + rotor[other]++});
      }
    }
    if (rng.chance(0.04)) {
      p.divergent = static_cast<std::uint8_t>(1u << rng.below(p.copies));
    }
    return p;
  }

  BlockMapChunk encode(std::uint64_t first, std::uint64_t count) const {
    BlockMapEncoder enc(first, stride);
    for (std::uint64_t bi = first; bi < first + count; ++bi) {
      enc.add(bi, bi < blocks.size() ? blocks[bi] : BlockPlacement{});
    }
    return std::move(enc).finish(count);
  }
};

TEST(BlockMap, EncodeDecodeRoundTrip) {
  for (std::uint64_t stride : {1u, 4u, 16u}) {
    Rng rng(stride);
    const Layout file(stride, 500, rng);
    for (std::uint64_t first : {0u, 3u, 77u}) {
      const std::uint64_t count = 430;
      const BlockMapChunk chunk = file.encode(first, count);
      EXPECT_EQ(chunk.first_block, first);
      EXPECT_EQ(chunk.count, count);
      EXPECT_EQ(chunk.stride, stride);
      std::uint64_t carried = chunk.multi.size();
      for (const MapExtent& e : chunk.extents) carried += e.count;
      std::uint64_t data = 0;
      for (std::uint64_t bi = 0; bi < 520; ++bi) {
        const bool inside = bi >= first && bi < first + count;
        const BlockPlacement want =
            inside && bi < file.blocks.size() ? file.blocks[bi]
                                              : BlockPlacement{};
        EXPECT_EQ(chunk.placement(bi), want)
            << "stride " << stride << " first " << first << " block " << bi;
        if (want.copies > 0) ++data;
      }
      EXPECT_EQ(carried, data);
      // Column runs collapse: far fewer extents than data blocks.
      EXPECT_LT(chunk.extents.size(), data / 2);
    }
  }
}

TEST(BlockMap, StripedFileIsOneExtentPerNsd) {
  // A 64 GiB file of 1 MiB blocks on 16 NSDs, placed as the bench seeder
  // places it: each block on its striping-rule NSD, from that NSD's
  // allocation rotor.
  MiniCluster mc(6, 16);
  FileSystem& fs = *mc.fs;
  const Principal admin{"/CN=seed", 0, 0, true};
  auto ino = fs.ns().create("/sky", admin, Mode{066}, 0.0);
  ASSERT_TRUE(ino.ok());
  constexpr std::uint64_t kBlocks = 65536;
  for (std::uint64_t bi = 0; bi < kBlocks; ++bi) {
    auto addr = fs.alloc().allocate_on(fs.nsd_for_block(*ino, bi));
    ASSERT_TRUE(addr.ok());
    ASSERT_TRUE(fs.ns().set_block(*ino, bi, *addr).ok());
  }
  auto chunk = fs.op_block_map(*ino, 0, kBlocks, 1);
  ASSERT_TRUE(chunk.ok());
  EXPECT_EQ(chunk->extents.size(), 16u);
  EXPECT_TRUE(chunk->multi.empty());
  for (std::uint64_t bi :
       std::vector<std::uint64_t>{0, 1, 15, 16, 40000, kBlocks - 1}) {
    EXPECT_EQ(chunk->placement(bi), fs.ns().placement(*ino, bi)) << bi;
  }
  BlockMapCache cache;
  cache.install(*chunk, {BlockRange{0, ~0ULL}});
  EXPECT_EQ(cache.extent_count(), 16u);
  EXPECT_EQ(cache.get(kBlocks - 1), fs.ns().placement(*ino, kBlocks - 1));
  EXPECT_FALSE(cache.get(kBlocks).has_value());
}

/// The reference: a plain per-block map of what the cache should know.
using Reference = std::map<std::uint64_t, BlockPlacement>;

void ref_forget(Reference& ref, std::uint64_t lo, std::uint64_t hi) {
  ref.erase(ref.lower_bound(lo), hi == ~0ULL ? ref.end() : ref.lower_bound(hi));
}

void ref_install(Reference& ref, const Layout& file, std::uint64_t first,
                 std::uint64_t count, const std::vector<BlockRange>& keep) {
  auto truth = [&](std::uint64_t bi) {
    return bi < file.blocks.size() ? file.blocks[bi] : BlockPlacement{};
  };
  const std::uint64_t end = first + count;
  ref_forget(ref, first, end);
  for (std::uint64_t bi = first; bi < end; ++bi) {
    if (truth(bi).copies > 0) ref[bi] = truth(bi);
  }
  for (const BlockRange& k : keep) {
    for (std::uint64_t bi = std::max(k.lo, first); bi < std::min(k.hi, end);
         ++bi) {
      ref[bi] = truth(bi);  // data, or a hole kept under the token
    }
  }
}

/// Random sorted, disjoint block ranges over [0, limit), sometimes
/// running to ~0 like a whole-file token.
std::vector<BlockRange> random_keep(Rng& rng, std::uint64_t limit) {
  std::vector<BlockRange> keep;
  std::uint64_t at = rng.below(limit / 4);
  const std::uint64_t n = rng.below(4);
  for (std::uint64_t i = 0; i < n && at < limit; ++i) {
    const std::uint64_t hi = at + 1 + rng.below(limit / 3);
    keep.push_back(BlockRange{at, hi});
    at = hi + 1 + rng.below(limit / 4);
  }
  if (rng.chance(0.2)) keep.push_back(BlockRange{at, ~0ULL});
  return keep;
}

TEST(BlockMap, CacheMatchesPerBlockReference) {
  constexpr std::uint64_t kBlocks = 400;
  for (std::uint64_t stride : {1u, 4u, 16u}) {
    Rng rng(1000 + stride);
    Layout file(stride, kBlocks, rng);
    BlockMapCache cache;
    Reference ref;
    for (int step = 0; step < 3000; ++step) {
      const std::uint64_t op = rng.below(10);
      if (op < 4) {
        const std::uint64_t first = rng.below(kBlocks);
        const std::uint64_t count = 1 + rng.below(rng.chance(0.2) ? 420 : 64);
        const std::vector<BlockRange> keep = random_keep(rng, kBlocks + 30);
        cache.install(file.encode(first, count), keep);
        ref_install(ref, file, first, count, keep);
      } else if (op < 7) {
        const std::uint64_t lo = rng.below(kBlocks);
        const std::uint64_t span = 1 + rng.below(rng.chance(0.5) ? 8 : 120);
        const std::uint64_t hi = rng.chance(0.15) ? ~0ULL : lo + span;
        if (rng.chance(0.3)) {
          cache.forget_holes(lo, hi);
          std::erase_if(ref, [lo, hi](const auto& entry) {
            return entry.first >= lo && entry.first < hi &&
                   entry.second.copies == 0;
          });
        } else {
          cache.forget(lo, hi);
          ref_forget(ref, lo, hi);
        }
      } else if (op < 9) {
        const std::uint64_t bi = rng.below(kBlocks);
        const auto copy = static_cast<std::uint8_t>(rng.below(kMaxReplicas));
        cache.mark_divergent(bi, copy);
        if (auto it = ref.find(bi); it != ref.end() && it->second.copies > 0) {
          it->second.divergent |= static_cast<std::uint8_t>(1u << copy);
        }
      } else {
        // The file changes under the cache: a block is (re)allocated or
        // a hole filled, so later installs must overwrite what is cached.
        const std::uint64_t bi = rng.below(kBlocks);
        file.blocks[bi] = file.draw(bi, rng);
      }
      if (step % 50 == 0 || step == 2999) {
        for (std::uint64_t bi = 0; bi < kBlocks + 40; ++bi) {
          auto it = ref.find(bi);
          const std::optional<BlockPlacement> want =
              it == ref.end() ? std::nullopt
                              : std::optional<BlockPlacement>(it->second);
          ASSERT_EQ(cache.get(bi), want)
              << "stride " << stride << " step " << step << " block " << bi;
        }
        ASSERT_EQ(cache.empty(), ref.empty());
      }
    }
    cache.clear();
    EXPECT_TRUE(cache.empty());
    EXPECT_FALSE(cache.get(0).has_value());
  }
}

TEST(BlockMap, AdjacentChunksMergeIntoColumnExtents) {
  // A sequential reader installs a striped file chunk by chunk; the
  // cache keeps one extent per column however many chunks arrive.
  Rng rng(7);
  Layout file(4, 0, rng);
  for (std::uint64_t bi = 0; bi < 256; ++bi) {
    const auto nsd = static_cast<std::uint32_t>(bi % 4);
    file.blocks.push_back(BlockPlacement::single({nsd, file.rotor[nsd]++}));
  }
  BlockMapCache cache;
  for (std::uint64_t first = 0; first < 256; first += 64) {
    cache.install(file.encode(first, 64), {});
  }
  EXPECT_EQ(cache.extent_count(), 4u);
  // A revoke in the middle splits each column once.
  cache.forget(100, 110);
  EXPECT_EQ(cache.extent_count(), 8u);
  EXPECT_FALSE(cache.get(105).has_value());
  EXPECT_EQ(cache.get(99), file.blocks[99]);
  EXPECT_EQ(cache.get(110), file.blocks[110]);
}

}  // namespace
}  // namespace mgfs::gpfs
