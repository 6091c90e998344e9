// One block-free rule (DESIGN.md §6): a commit frees what its committer
// allocated and has not written since its last commit, while its rw
// token over the block is unbroken since the grant that made it and no
// newer grant than the one the commit names referenced it; a truncating
// open takes the file's whole-file rw token before it frees anything.
// Each test checks, through testutil::expect_durable, that every byte a
// test wrote and fsync'd still lies in an allocated block.
#include <gtest/gtest.h>

#include <optional>

#include "fault/injector.hpp"
#include "gpfs_test_util.hpp"

namespace mgfs::gpfs {
namespace {

using testutil::expect_durable;
using testutil::kAlice;
using testutil::manager_rpcs;
using testutil::MiniCluster;

constexpr Bytes kBs = 1 * MiB;

OpenFlags rw_truncate() {
  OpenFlags f = OpenFlags::rw();
  f.truncate = true;
  return f;
}

/// op_write_grant driven directly over block `bi` of `ino` for `client`.
Result<WriteGrant> grant_block(MiniCluster& mc, ClientId client, InodeNum ino,
                               std::uint64_t bi) {
  std::optional<Result<WriteGrant>> out;
  const TokenRange r{bi * kBs, (bi + 1) * kBs};
  mc.fs->op_write_grant(client, ino, r, r, 0,
                        [&](Result<WriteGrant> g) { out = std::move(g); });
  mc.sim.run();
  EXPECT_TRUE(out.has_value()) << "grant never answered";
  return out.has_value() ? std::move(*out)
                         : Result<WriteGrant>(Errc::timed_out, "none");
}

TEST(BlockFree, TruncatingOpenOnTheWriterKeepsItsNextWrite) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto h1 = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(mc.write(c, *h1, 0, 16 * KiB).ok());
  ASSERT_TRUE(mc.fsync(c, *h1).ok());
  auto h2 = mc.open(c, "/f", kAlice, rw_truncate());
  ASSERT_TRUE(h2.ok());
  const InodeNum ino = *mc.fs->ns().resolve("/f");
  EXPECT_EQ(mc.fs->ns().stat(ino)->size, 0u);
  EXPECT_EQ(mc.fs->ns().placement(ino, 0).copies, 0u);
  // The truncator's run and cached map went with its token: the write
  // is granted afresh instead of landing in the freed block.
  ASSERT_TRUE(mc.write(c, *h2, 0, 16 * KiB).ok());
  ASSERT_TRUE(mc.fsync(c, *h2).ok());
  expect_durable(mc, "/f", 16 * KiB);
  EXPECT_TRUE(mc.fs->fsck().clean());
}

TEST(BlockFree, TruncatingOpenOnAnotherClientRevokesTheWriter) {
  MiniCluster mc;
  Client* a = mc.mount_on(2);
  Client* b = mc.mount_on(3);
  auto fa = mc.open(a, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fa.ok());
  ASSERT_TRUE(mc.write(a, *fa, 0, 16 * KiB).ok());
  ASSERT_TRUE(mc.fsync(a, *fa).ok());
  const std::uint64_t revocations = mc.fs->revocations();
  auto fb = mc.open(b, "/f", kAlice, rw_truncate());
  ASSERT_TRUE(fb.ok());
  EXPECT_GT(mc.fs->revocations(), revocations);
  const InodeNum ino = *mc.fs->ns().resolve("/f");
  EXPECT_TRUE(mc.fs->shard_tokens(0).holdings(ino).empty());
  // The writer lost its token, run and map to the truncate: its next
  // write is granted afresh.
  ASSERT_TRUE(mc.write(a, *fa, 0, 16 * KiB).ok());
  ASSERT_TRUE(mc.fsync(a, *fa).ok());
  expect_durable(mc, "/f", 16 * KiB);
  EXPECT_TRUE(mc.fs->fsck().clean());
}

/// A mute holder keeps the creator's first grant past block 0 waiting
/// until the creator's deadline gives up on it. The creator then writes
/// block 0; the holder's expel lets the late grant run before the
/// creator's fsync. Nothing that grant does may free block 0.
TEST(BlockFree, LateGrantFreesNothingWrittenAfterItsDeadline) {
  ClusterConfig cfg;
  cfg.lease_duration = 0.5;
  cfg.lease_recovery_wait = 0.25;
  cfg.client.rpc_deadline = 0.2;
  cfg.client.retry.max_attempts = 1;
  MiniCluster mc(6, 4, kBs, cfg);
  Client* c = mc.mount_on(2);
  Client* h = mc.mount_on(3);
  auto fc = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fc.ok());
  auto fh = mc.open(h, "/f", kAlice, OpenFlags::rw());
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(mc.write(h, *fh, 1 * kBs, 16 * KiB).ok());
  ASSERT_TRUE(mc.fsync(h, *fh).ok());

  fault::FaultInjector inject(mc.net, Rng(7));
  inject.watch_pool(mc.cluster->connection_pool());
  inject.watch_cluster(*mc.cluster);
  inject.schedule_blackhole(mc.sim.now(), mc.site.hosts[3], 30.0);
  std::optional<Result<Bytes>> first, head;
  c->write(*fc, 1 * kBs, 16 * KiB, [&](Result<Bytes> r) {
    first = r;
    c->write(*fc, 0, 16 * KiB, [&](Result<Bytes> w) { head = w; });
  });
  mc.sim.run();
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(first->ok());  // the deadline gave up on the grant
  ASSERT_TRUE(head.has_value() && head->ok());
  EXPECT_GE(mc.fs->expels(), 1u);  // and the grant ran after all
  ASSERT_TRUE(mc.fsync(c, *fc).ok());
  expect_durable(mc, "/f", 16 * KiB);
  EXPECT_TRUE(mc.fs->fsck().clean());
}

/// A commit that names an older grant than the newest to reference a
/// block — a retransmission, or one that arrives late — frees nothing
/// of that block: the client may have written it under the newer grant.
TEST(BlockFree, CommitNamingAnOlderGrantThanTheBlocksNewestFreesNothing) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  const InodeNum ino = *mc.fs->ns().resolve("/f");
  auto g1 = grant_block(mc, c->id(), ino, 3);
  ASSERT_TRUE(g1.ok());
  auto g2 = grant_block(mc, c->id(), ino, 3);  // references it again
  ASSERT_TRUE(g2.ok());
  ASSERT_GT(g2->id, g1->id);
  EXPECT_TRUE(mc.fs->op_extend_size(ino, 0, c->id(), {}, g1->id).ok());
  EXPECT_EQ(mc.fs->ns().placement(ino, 3).copies, 1u);
  // Named at the newest grant, the same commit frees the unwritten
  // blocks, block 0 of the create grant included.
  EXPECT_TRUE(mc.fs->op_extend_size(ino, 0, c->id(), {}, g2->id).ok());
  EXPECT_EQ(mc.fs->ns().placement(ino, 3).copies, 0u);
  EXPECT_EQ(mc.fs->ns().placement(ino, 0).copies, 0u);
  EXPECT_EQ(mc.fs->fsck().allocated_blocks, 0u);
  EXPECT_TRUE(mc.fs->fsck().clean());
}

/// A revoke of the allocator's token pins its records: the reader that
/// revoked it mapped the block, so the allocator's commit, which covers
/// no write to it, still frees nothing of it.
TEST(BlockFree, CommitFreesNothingUnderARevokedToken) {
  MiniCluster mc;
  Client* a = mc.mount_on(2);
  Client* r = mc.mount_on(3);
  auto fa = mc.open(a, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fa.ok());
  const InodeNum ino = *mc.fs->ns().resolve("/f");
  ASSERT_TRUE(mc.write(a, *fa, 1 * kBs, 16 * KiB).ok());
  auto fr = mc.open(r, "/f", kAlice, OpenFlags::ro());
  ASSERT_TRUE(fr.ok());
  const Bytes fetched = r->bytes_read_remote();
  ASSERT_TRUE(mc.read(r, *fr, 0, 16 * KiB).ok());  // revokes block 0
  EXPECT_GT(r->bytes_read_remote(), fetched);  // mapped and read
  ASSERT_TRUE(mc.fsync(a, *fa).ok());
  EXPECT_EQ(mc.fs->ns().placement(ino, 0).copies, 1u);
  EXPECT_TRUE(mc.fs->fsck().clean());
  expect_durable(mc, "/f", 16 * KiB, 1 * kBs);
}

/// A streamed dump whose size is not a multiple of the 64-block write
/// batch leaves no allocated block past its end once fsync'd, and the
/// trim rides the commit the fsync already sends.
TEST(BlockFree, StreamLeavesNoBlockPastItsEnd) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  const std::uint64_t before = manager_rpcs(mc);
  auto fh = mc.open(c, "/dump", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  constexpr Bytes kSize = 45 * kBs;
  for (Bytes off = 0; off < kSize; off += kBs) {
    ASSERT_TRUE(mc.write(c, *fh, off, kBs).ok()) << off;
  }
  ASSERT_TRUE(mc.fsync(c, *fh).ok());
  ASSERT_TRUE(mc.close(c, *fh).ok());
  // The create, the one write grant of the stream, and the commit.
  EXPECT_EQ(manager_rpcs(mc) - before, 3u);
  EXPECT_EQ(mc.fs->fsck().allocated_blocks, ceil_div(kSize, kBs));
  EXPECT_TRUE(mc.fs->fsck().clean());
  expect_durable(mc, "/dump", kSize);
}

}  // namespace
}  // namespace mgfs::gpfs
