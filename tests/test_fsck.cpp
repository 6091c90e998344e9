// FileSystem::fsck against deliberately damaged metadata: each test
// writes a small file system (two plain files and one 2-copy file,
// fsynced), corrupts one thing through Namespace::set_placement or the
// allocation map, and pins the exact counts every FsckReport field
// reports for it.
#include <gtest/gtest.h>

#include "gpfs/cluster.hpp"
#include "gpfs_test_util.hpp"

namespace mgfs::gpfs {
namespace {

using testutil::kAlice;
using testutil::MiniCluster;

class Fsck : public ::testing::Test {
 protected:
  void SetUp() override {
    c_ = mc_.mount_on(2);
    ASSERT_NE(c_, nullptr);
    a_ = write_file("/a", 4, OpenFlags::create_rw());
    b_ = write_file("/b", 2, OpenFlags::create_rw());
    r_ = write_file("/r", 3, OpenFlags::create_replicated(2));
  }

  InodeNum write_file(const std::string& path, Bytes mib, OpenFlags flags) {
    auto fh = mc_.open(c_, path, kAlice, flags);
    EXPECT_TRUE(fh.ok());
    EXPECT_TRUE(mc_.write(c_, *fh, 0, mib * MiB).ok());
    EXPECT_TRUE(mc_.fsync(c_, *fh).ok());
    EXPECT_TRUE(mc_.close(c_, *fh).ok());
    auto st = mc_.stat(c_, path);
    EXPECT_TRUE(st.ok());
    return st.ok() ? st->ino : 0;
  }

  Namespace& ns() { return mc_.fs->ns(); }
  AllocationMap& alloc() { return mc_.fs->alloc(); }

  /// Point block `bi` of `ino` at `p` and free the copies it held, so
  /// the only damage is the new placement itself.
  void replace(InodeNum ino, std::uint64_t bi, const BlockPlacement& p) {
    const BlockPlacement old = ns().placement(ino, bi);
    for (std::uint8_t c = 0; c < old.copies; ++c) {
      ASSERT_TRUE(alloc().free_block(old.addr[c]).ok());
    }
    ASSERT_TRUE(ns().set_placement(ino, bi, p).ok());
  }

  /// A block no copy uses: the last block of NSD 0.
  BlockAddr free_addr() {
    const BlockAddr a{0, alloc().capacity_blocks(0) - 1};
    EXPECT_FALSE(alloc().is_allocated(a));
    return a;
  }

  MiniCluster mc_;
  Client* c_ = nullptr;
  InodeNum a_ = 0, b_ = 0, r_ = 0;
};

TEST_F(Fsck, CleanStateCountsEveryCopy) {
  const FsckReport rep = mc_.fs->fsck();
  EXPECT_EQ(rep.referenced_blocks, 9u);  // 4 + 2 + 3 primaries
  EXPECT_EQ(rep.replica_refs, 3u);       // the 2-copy file's second copies
  EXPECT_EQ(rep.allocated_blocks, 12u);
  EXPECT_EQ(rep.allocated_blocks,
            alloc().total_capacity() - alloc().total_free());
  EXPECT_EQ(rep.orphaned_blocks, 0u);
  EXPECT_EQ(rep.duplicate_refs, 0u);
  EXPECT_EQ(rep.dangling_refs, 0u);
  EXPECT_EQ(rep.divergent_replicas, 0u);
  EXPECT_EQ(rep.uncommitted_records, 0u);
  EXPECT_TRUE(rep.clean());
}

TEST_F(Fsck, PlacementCopiedOntoSecondInodeIsADuplicate) {
  replace(b_, 0, ns().placement(a_, 0));
  const FsckReport rep = mc_.fs->fsck();
  EXPECT_EQ(rep.duplicate_refs, 1u);
  EXPECT_EQ(rep.referenced_blocks, 9u);
  EXPECT_EQ(rep.allocated_blocks, 11u);
  EXPECT_EQ(rep.orphaned_blocks, 0u);
  EXPECT_EQ(rep.dangling_refs, 0u);
  EXPECT_FALSE(rep.clean());
}

TEST_F(Fsck, ThreeHoldersOfOneBlockAreTwoDuplicates) {
  // Copy 1 of a 2-copy block aimed at its own primary, and a third
  // holder in another file: one block, three references.
  BlockPlacement p = ns().placement(r_, 0);
  ASSERT_EQ(p.copies, 2);
  ASSERT_TRUE(alloc().free_block(p.addr[1]).ok());
  p.addr[1] = p.addr[0];
  ASSERT_TRUE(ns().set_placement(r_, 0, p).ok());
  replace(b_, 0, BlockPlacement::single(p.addr[0]));
  const FsckReport rep = mc_.fs->fsck();
  EXPECT_EQ(rep.duplicate_refs, 2u);
  EXPECT_EQ(rep.referenced_blocks, 9u);
  EXPECT_EQ(rep.replica_refs, 3u);
  EXPECT_EQ(rep.allocated_blocks, 10u);
  EXPECT_EQ(rep.orphaned_blocks, 0u);
  EXPECT_EQ(rep.dangling_refs, 0u);
}

TEST_F(Fsck, PlacementNamingAFreeBlockIsDangling) {
  replace(b_, 1, BlockPlacement::single(free_addr()));
  const FsckReport rep = mc_.fs->fsck();
  EXPECT_EQ(rep.dangling_refs, 1u);
  EXPECT_EQ(rep.duplicate_refs, 0u);
  EXPECT_EQ(rep.allocated_blocks, 11u);
  EXPECT_EQ(rep.orphaned_blocks, 0u);
  EXPECT_FALSE(rep.clean());
}

TEST_F(Fsck, TwoCopiesOfAFreeBlockAreEachDanglingAndOneDuplicate) {
  const BlockAddr dead = free_addr();
  replace(a_, 2, BlockPlacement::single(dead));
  replace(b_, 1, BlockPlacement::single(dead));
  const FsckReport rep = mc_.fs->fsck();
  EXPECT_EQ(rep.dangling_refs, 2u);
  EXPECT_EQ(rep.duplicate_refs, 1u);
  EXPECT_EQ(rep.allocated_blocks, 10u);
  EXPECT_EQ(rep.orphaned_blocks, 0u);
}

TEST_F(Fsck, PlacementPastCapacityIsDangling) {
  const std::uint64_t cap = alloc().capacity_blocks(1);
  replace(a_, 0, BlockPlacement::single({1, cap}));
  replace(a_, 1, BlockPlacement::single({1, cap + 1000}));
  replace(b_, 0, BlockPlacement::single(
                     {static_cast<std::uint32_t>(alloc().nsd_count()), 0}));
  const FsckReport rep = mc_.fs->fsck();
  EXPECT_EQ(rep.dangling_refs, 3u);
  EXPECT_EQ(rep.duplicate_refs, 0u);
  EXPECT_EQ(rep.referenced_blocks, 9u);
  EXPECT_EQ(rep.allocated_blocks, 9u);
  EXPECT_EQ(rep.orphaned_blocks, 0u);
  EXPECT_FALSE(rep.clean());
}

TEST_F(Fsck, BlockPunchedWithoutFreeIsOrphaned) {
  ASSERT_TRUE(ns().set_placement(a_, 3, BlockPlacement{}).ok());
  // A punched 2-copy block leaves both copies behind.
  ASSERT_TRUE(ns().set_placement(r_, 2, BlockPlacement{}).ok());
  const FsckReport rep = mc_.fs->fsck();
  EXPECT_EQ(rep.orphaned_blocks, 3u);
  EXPECT_EQ(rep.referenced_blocks, 7u);
  EXPECT_EQ(rep.replica_refs, 2u);
  EXPECT_EQ(rep.allocated_blocks, 12u);
  EXPECT_EQ(rep.duplicate_refs, 0u);
  EXPECT_EQ(rep.dangling_refs, 0u);
  EXPECT_FALSE(rep.clean());
}

TEST_F(Fsck, DivergentCopyIsReported) {
  BlockPlacement p = ns().placement(r_, 1);
  ASSERT_EQ(p.copies, 2);
  p.divergent = 0b10;
  ASSERT_TRUE(ns().set_placement(r_, 1, p).ok());
  const FsckReport rep = mc_.fs->fsck();
  EXPECT_EQ(rep.divergent_replicas, 1u);
  EXPECT_EQ(rep.replica_refs, 3u);
  EXPECT_EQ(rep.allocated_blocks, 12u);
  EXPECT_EQ(rep.orphaned_blocks, 0u);
  EXPECT_EQ(rep.duplicate_refs, 0u);
  EXPECT_EQ(rep.dangling_refs, 0u);
  EXPECT_FALSE(rep.clean());
}

}  // namespace
}  // namespace mgfs::gpfs
