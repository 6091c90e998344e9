// The write grant (DESIGN.md §5.1): a write whose rw token and block
// placements are not both cached sends one manager op that grants the
// token and allocates the write's batch together; a confirmed stream
// asks for its whole kWriteBatchBlocks batch at once. A refused grant
// allocates nothing.
#include <gtest/gtest.h>

#include <optional>

#include "gpfs_test_util.hpp"

namespace mgfs::gpfs {
namespace {

using testutil::kAlice;
using testutil::manager_rpcs;
using testutil::MiniCluster;

constexpr Bytes kBs = 1 * MiB;

/// op_write_grant driven directly, for `client` on bytes [0, kBs) of
/// `ino` with a 16-block batch window.
Result<WriteGrant> grant(MiniCluster& mc, ClientId client, InodeNum ino) {
  std::optional<Result<WriteGrant>> out;
  mc.fs->op_write_grant(client, ino, TokenRange{0, kBs},
                        TokenRange{0, 16 * kBs}, kBs, false,
                        [&](Result<WriteGrant> r) { out = std::move(r); });
  mc.sim.run();
  EXPECT_TRUE(out.has_value()) << "grant never answered";
  return out.has_value() ? std::move(*out)
                         : Result<WriteGrant>(Errc::timed_out, "none");
}

TEST(WriteGrant, SixtyFourMiBStreamCostsThreeManagerRpcs) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  const std::uint64_t before = manager_rpcs(mc);
  auto fh = mc.open(c, "/dump", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  for (Bytes off = 0; off < 64 * kBs; off += kBs) {
    ASSERT_TRUE(mc.write(c, *fh, off, kBs).ok()) << off;
  }
  ASSERT_TRUE(mc.fsync(c, *fh).ok());
  // The create (block 0 under its grant), one write grant when the
  // second write confirms the stream (its batch covers the other 63
  // blocks), and the commit.
  EXPECT_EQ(manager_rpcs(mc) - before, 3u);
  EXPECT_EQ(mc.fs->tokens_granted(), 2u);
  auto st = mc.stat(c, "/dump");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 64 * kBs);
  EXPECT_TRUE(mc.fs->fsck().clean());
}

TEST(WriteGrant, RefusedGrantAllocatesNothing) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  const InodeNum ino = *mc.fs->ns().resolve("/f");
  const Bytes free0 = mc.fs->free_bytes();

  // Mid-takeover: the rebuild has begun and not finished.
  ASSERT_TRUE(mc.cluster->takeover_manager(*mc.fs, 0));
  ASSERT_TRUE(mc.fs->shard_recovering(0));
  std::optional<Result<WriteGrant>> mid;
  mc.fs->op_write_grant(c->id(), ino, TokenRange{0, kBs},
                        TokenRange{0, 16 * kBs}, kBs, false,
                        [&](Result<WriteGrant> r) { mid = std::move(r); });
  ASSERT_TRUE(mid.has_value());
  EXPECT_EQ(mid->code(), Errc::unavailable);
  EXPECT_EQ(mc.fs->free_bytes(), free0);
  mc.sim.run();
  ASSERT_FALSE(mc.fs->shard_recovering(0));

  // After an expel.
  mc.fs->expel_client(c->id(), "test");
  const Bytes free1 = mc.fs->free_bytes();  // the expel freed block 0
  EXPECT_EQ(grant(mc, c->id(), ino).code(), Errc::stale);
  EXPECT_EQ(mc.fs->free_bytes(), free1);
  EXPECT_TRUE(mc.fs->fsck().clean());
}

TEST(WriteGrant, HeldTokenOverAHoleStillCostsOneRpcThatAllocates) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/sparse", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(mc.write(c, *fh, 0, kBs).ok());
  // A seek: a one-shot write, granted the whole file (sole holder).
  ASSERT_TRUE(mc.write(c, *fh, 10 * kBs, kBs).ok());
  const InodeNum ino = *mc.fs->ns().resolve("/sparse");
  ASSERT_TRUE(mc.fs->shard_tokens(0).holds(c->id(), ino,
                                           TokenRange{0, 11 * kBs},
                                           LockMode::rw));
  // Block 5 reads as a hole, which the client now caches.
  auto r = mc.read(c, *fh, 5 * kBs, kBs);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(mc.fs->ns().placement(ino, 5).copies, 0);

  const std::uint64_t before = manager_rpcs(mc);
  const Bytes free0 = mc.fs->free_bytes();
  ASSERT_TRUE(mc.write(c, *fh, 5 * kBs, kBs).ok());
  EXPECT_EQ(manager_rpcs(mc) - before, 1u);
  EXPECT_EQ(mc.fs->ns().placement(ino, 5).copies, 1);
  EXPECT_EQ(mc.fs->free_bytes(), free0 - kBs);
}

}  // namespace
}  // namespace mgfs::gpfs
