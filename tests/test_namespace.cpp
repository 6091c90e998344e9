#include "gpfs/namespace.hpp"

#include <gtest/gtest.h>

namespace mgfs::gpfs {
namespace {

const Principal kAlice{"/CN=alice", 501, 100, false};
const Principal kBob{"/CN=bob", 502, 100, false};
const Principal kRoot{"/CN=admin", 0, 0, true};

struct NsFixture : ::testing::Test {
  Namespace ns{1 * MiB};
};

TEST_F(NsFixture, RootExists) {
  auto st = ns.stat("/");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->type, FileType::directory);
  EXPECT_EQ(st->ino, kRootIno);
}

TEST_F(NsFixture, SplitPathValidation) {
  EXPECT_TRUE(split_path("/a/b").ok());
  EXPECT_FALSE(split_path("").ok());
  EXPECT_FALSE(split_path("relative").ok());
  EXPECT_FALSE(split_path("/a//b").ok());
  EXPECT_FALSE(split_path("/a/./b").ok());
  EXPECT_FALSE(split_path("/a/../b").ok());
  auto root = split_path("/");
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE(root->empty());
}

TEST_F(NsFixture, CreateAndStatFile) {
  auto ino = ns.create("/data.bin", kAlice, Mode{064}, 12.5);
  ASSERT_TRUE(ino.ok());
  auto st = ns.stat("/data.bin");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->owner_dn, "/CN=alice");
  EXPECT_EQ(st->size, 0u);
  EXPECT_DOUBLE_EQ(st->mtime, 12.5);
  EXPECT_EQ(st->type, FileType::regular);
}

TEST_F(NsFixture, CreateInMissingDirectoryFails) {
  EXPECT_EQ(ns.create("/no/such/file", kAlice, Mode{}, 0).code(),
            Errc::not_found);
}

TEST_F(NsFixture, CreateDuplicateFails) {
  ASSERT_TRUE(ns.create("/f", kAlice, Mode{}, 0).ok());
  EXPECT_EQ(ns.create("/f", kAlice, Mode{}, 0).code(), Errc::exists);
}

TEST_F(NsFixture, MkdirAndNesting) {
  ASSERT_TRUE(ns.mkdir("/a", kAlice, Mode{077}, 0).ok());
  ASSERT_TRUE(ns.mkdir("/a/b", kAlice, Mode{077}, 0).ok());
  ASSERT_TRUE(ns.create("/a/b/f", kAlice, Mode{}, 0).ok());
  EXPECT_TRUE(ns.exists("/a/b/f"));
  auto st = ns.stat("/a/b");
  EXPECT_EQ(st->type, FileType::directory);
}

TEST_F(NsFixture, ReaddirListsSorted) {
  ASSERT_TRUE(ns.mkdir("/d", kAlice, Mode{077}, 0).ok());
  ASSERT_TRUE(ns.create("/d/z", kAlice, Mode{}, 0).ok());
  ASSERT_TRUE(ns.create("/d/a", kAlice, Mode{}, 0).ok());
  auto names = ns.readdir("/d", kAlice);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"a", "z"}));
}

TEST_F(NsFixture, ReaddirOnFileFails) {
  ASSERT_TRUE(ns.create("/f", kAlice, Mode{}, 0).ok());
  EXPECT_EQ(ns.readdir("/f", kAlice).code(), Errc::not_a_directory);
}

TEST_F(NsFixture, PermissionOwnerVsOther) {
  // Mode 060: owner rw, other nothing.
  ASSERT_TRUE(ns.mkdir("/priv", kAlice, Mode{060}, 0).ok());
  EXPECT_EQ(ns.readdir("/priv", kBob).code(), Errc::permission_denied);
  EXPECT_TRUE(ns.readdir("/priv", kAlice).ok());
  // Creating inside a dir Bob cannot write fails.
  EXPECT_EQ(ns.create("/priv/f", kBob, Mode{}, 0).code(),
            Errc::permission_denied);
}

TEST_F(NsFixture, AdminBypassesPermissions) {
  ASSERT_TRUE(ns.mkdir("/priv", kAlice, Mode{060}, 0).ok());
  EXPECT_TRUE(ns.readdir("/priv", kRoot).ok());
  EXPECT_TRUE(ns.create("/priv/f", kRoot, Mode{}, 0).ok());
}

TEST_F(NsFixture, GridIdentityCrossSite) {
  // The same person with different site UIDs is the same DN: ownership
  // follows the DN, not the numeric uid (paper §6).
  const Principal alice_at_sdsc{"/CN=alice", 501, 100, false};
  const Principal alice_at_ncsa{"/CN=alice", 8812, 250, false};
  ASSERT_TRUE(ns.create("/mine", alice_at_sdsc, Mode{060}, 0).ok());
  auto ino = ns.resolve("/mine");
  EXPECT_TRUE(ns.check_write(*ino, alice_at_ncsa).ok());
  EXPECT_EQ(ns.check_write(*ino, kBob).code(), Errc::permission_denied);
}

TEST_F(NsFixture, UnlinkReturnsBlocks) {
  auto ino = ns.create("/f", kAlice, Mode{}, 0);
  ASSERT_TRUE(ns.set_block(*ino, 0, BlockAddr{1, 10}).ok());
  BlockPlacement two = BlockPlacement::single(BlockAddr{2, 20});
  two.add(BlockAddr{3, 30});
  ASSERT_TRUE(ns.set_placement(*ino, 2, two).ok());
  auto freed = ns.unlink("/f", kAlice);
  ASSERT_TRUE(freed.ok());
  // Every copy comes back; the hole at block 1 yields nothing.
  EXPECT_EQ(*freed, (std::vector<BlockAddr>{
                        BlockAddr{1, 10}, BlockAddr{2, 20}, BlockAddr{3, 30}}));
  EXPECT_TRUE(ns.replicated_blocks().empty());
  EXPECT_FALSE(ns.exists("/f"));
}

TEST_F(NsFixture, UnlinkDirectoryFails) {
  ASSERT_TRUE(ns.mkdir("/d", kAlice, Mode{077}, 0).ok());
  EXPECT_EQ(ns.unlink("/d", kAlice).code(), Errc::is_a_directory);
}

TEST_F(NsFixture, RmdirOnlyWhenEmpty) {
  ASSERT_TRUE(ns.mkdir("/d", kAlice, Mode{077}, 0).ok());
  ASSERT_TRUE(ns.create("/d/f", kAlice, Mode{}, 0).ok());
  EXPECT_EQ(ns.rmdir("/d", kAlice).code(), Errc::not_empty);
  ASSERT_TRUE(ns.unlink("/d/f", kAlice).ok());
  EXPECT_TRUE(ns.rmdir("/d", kAlice).ok());
  EXPECT_FALSE(ns.exists("/d"));
}

TEST_F(NsFixture, RenameMovesAcrossDirectories) {
  ASSERT_TRUE(ns.mkdir("/a", kAlice, Mode{077}, 0).ok());
  ASSERT_TRUE(ns.mkdir("/b", kAlice, Mode{077}, 0).ok());
  ASSERT_TRUE(ns.create("/a/f", kAlice, Mode{}, 0).ok());
  const InodeNum before = *ns.resolve("/a/f");
  ASSERT_TRUE(ns.rename("/a/f", "/b/g", kAlice).ok());
  EXPECT_FALSE(ns.exists("/a/f"));
  EXPECT_EQ(*ns.resolve("/b/g"), before);  // same inode
}

TEST_F(NsFixture, RenameOntoExistingFails) {
  ASSERT_TRUE(ns.create("/x", kAlice, Mode{}, 0).ok());
  ASSERT_TRUE(ns.create("/y", kAlice, Mode{}, 0).ok());
  EXPECT_EQ(ns.rename("/x", "/y", kAlice).code(), Errc::exists);
}

TEST_F(NsFixture, ChmodOwnerOnly) {
  ASSERT_TRUE(ns.create("/f", kAlice, Mode{064}, 0).ok());
  EXPECT_EQ(ns.chmod("/f", kBob, Mode{077}).code(), Errc::permission_denied);
  ASSERT_TRUE(ns.chmod("/f", kAlice, Mode{077}).ok());
  EXPECT_EQ(ns.stat("/f")->mode.bits, 077);
}

TEST_F(NsFixture, ChownAdminOnly) {
  ASSERT_TRUE(ns.create("/f", kAlice, Mode{}, 0).ok());
  EXPECT_EQ(ns.chown("/f", kAlice, "/CN=bob").code(),
            Errc::permission_denied);
  ASSERT_TRUE(ns.chown("/f", kRoot, "/CN=bob").ok());
  EXPECT_EQ(ns.stat("/f")->owner_dn, "/CN=bob");
}

TEST_F(NsFixture, TruncateFreesTailBlocks) {
  auto ino = ns.create("/f", kAlice, Mode{064}, 0);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(ns.set_block(*ino, i, BlockAddr{0, i}).ok());
  }
  ASSERT_TRUE(ns.extend_size(*ino, 4 * MiB, 1.0).ok());
  auto freed = ns.truncate("/f", kAlice, 1 * MiB + 5);
  ASSERT_TRUE(freed.ok());
  EXPECT_EQ(freed->size(), 2u);  // blocks 2 and 3 go; block 1 stays (tail)
  EXPECT_EQ(ns.stat("/f")->size, 1 * MiB + 5);
}

TEST_F(NsFixture, BlockAtAndHoles) {
  auto ino = ns.create("/f", kAlice, Mode{064}, 0);
  ASSERT_TRUE(ns.set_block(*ino, 1, BlockAddr{3, 7}).ok());
  // Holes: a never-written slot inside the map, a slot past its end, and
  // any slot of a stale inode all read as zero copies.
  EXPECT_EQ(ns.placement(*ino, 0).copies, 0);
  EXPECT_EQ(ns.placement(*ino, 5).copies, 0);
  EXPECT_EQ(ns.placement(*ino + 100, 1).copies, 0);
  // An unreplicated block reads as a one-copy placement.
  const BlockPlacement one = ns.placement(*ino, 1);
  ASSERT_EQ(one.copies, 1);
  EXPECT_EQ(one.addr[0], (BlockAddr{3, 7}));
  EXPECT_EQ(one.divergent, 0);
  EXPECT_TRUE(ns.replicated_blocks().empty());

  // Add a copy: the primary stays in the dense map, the copy and the
  // divergence mask are read back with it.
  BlockPlacement two = one;
  two.add(BlockAddr{1, 9});
  two.divergent = 0b10;
  ASSERT_TRUE(ns.set_placement(*ino, 1, two).ok());
  EXPECT_EQ(ns.placement(*ino, 1), two);
  EXPECT_EQ(*ns.inode(*ino)->blocks[1], (BlockAddr{3, 7}));
  EXPECT_EQ(ns.replicated_blocks(),
            (std::vector<std::pair<InodeNum, std::uint64_t>>{{*ino, 1}}));
  auto map = ns.placements(*ino, 0, 3);
  ASSERT_TRUE(map.ok());
  ASSERT_EQ(map->size(), 3u);
  EXPECT_EQ((*map)[0].copies, 0);
  EXPECT_EQ((*map)[1], two);
  EXPECT_EQ((*map)[2].copies, 0);

  // Drop it again: back to the one-copy placement, divergence bit gone.
  two.remove(1);
  ASSERT_TRUE(ns.set_placement(*ino, 1, two).ok());
  EXPECT_EQ(ns.placement(*ino, 1), one);
  EXPECT_TRUE(ns.replicated_blocks().empty());

  // Zero copies punches a hole.
  ASSERT_TRUE(ns.set_placement(*ino, 1, BlockPlacement{}).ok());
  EXPECT_EQ(ns.placement(*ino, 1).copies, 0);
}

TEST_F(NsFixture, SetBlockTwiceRejected) {
  auto ino = ns.create("/f", kAlice, Mode{064}, 0);
  ASSERT_TRUE(ns.set_block(*ino, 0, BlockAddr{0, 1}).ok());
  EXPECT_EQ(ns.set_block(*ino, 0, BlockAddr{0, 2}).code(), Errc::exists);
}

TEST_F(NsFixture, ExtendSizeNeverShrinks) {
  auto ino = ns.create("/f", kAlice, Mode{064}, 0);
  ASSERT_TRUE(ns.extend_size(*ino, 100, 1.0).ok());
  ASSERT_TRUE(ns.extend_size(*ino, 50, 2.0).ok());
  EXPECT_EQ(ns.stat(*ino)->size, 100u);
}

}  // namespace
}  // namespace mgfs::gpfs
