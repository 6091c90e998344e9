// The create grant (DESIGN.md §5.1): a create for write is answered
// with the creator's rw token on exactly block 0 and block 0's
// placement, and the inode is numbered into its path's metadata shard,
// so a small-file create cycle costs two manager round trips (the
// create and the commit). Block 0 is journaled like any allocation: an
// expel undoes it, a commit retires it, and a first write elsewhere
// hands it back. An unlink drops every holding on the dead inode at the
// manager and the unlinker's cached state of it.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>

#include "fault/injector.hpp"
#include "gpfs_test_util.hpp"

namespace mgfs::gpfs {
namespace {

using testutil::kAlice;
using testutil::manager_rpcs;
using testutil::MiniCluster;

ClusterConfig fast_cfg(std::uint32_t shards = 1) {
  ClusterConfig cfg;
  cfg.meta_shards = shards;
  cfg.lease_duration = 0.5;
  cfg.lease_recovery_wait = 0.25;
  cfg.client.rpc_deadline = 0.2;
  return cfg;
}

bool holds_block0(MiniCluster& mc, Client* c, InodeNum ino) {
  return mc.fs->shard_tokens(mc.fs->shard_of(ino))
      .holds(c->id(), ino, TokenRange{0, mc.fs->block_size()}, LockMode::rw);
}

TEST(CreateGrant, SmallFileCycleCostsTwoManagerRpcs) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  const std::uint64_t before = manager_rpcs(mc);
  auto fh = mc.open(c, "/small", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(mc.write(c, *fh, 0, 16 * KiB).ok());
  ASSERT_TRUE(mc.fsync(c, *fh).ok());
  ASSERT_TRUE(mc.close(c, *fh).ok());
  // The create (carrying token and placement) and the commit.
  EXPECT_EQ(manager_rpcs(mc), before + 2);
  EXPECT_EQ(mc.fs->tokens_granted(), 1u);
  EXPECT_TRUE(mc.fs->fsck().clean());
  auto st = mc.stat(c, "/small");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 16 * KiB);
  EXPECT_EQ(mc.fs->fsck().referenced_blocks, 1u);
}

TEST(CreateGrant, GrantIsExactlyBlockZero) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  const InodeNum ino = *mc.fs->ns().resolve("/f");
  const std::vector<Holding>& hs = mc.fs->shard_tokens(0).holdings(ino);
  ASSERT_EQ(hs.size(), 1u);
  EXPECT_EQ(hs[0].client, c->id());
  EXPECT_EQ(hs[0].mode, LockMode::rw);
  EXPECT_EQ(hs[0].range, (TokenRange{0, mc.fs->block_size()}));
  EXPECT_EQ(mc.fs->ns().placement(ino, 0).copies, 1u);

  // Opening an existing file, or a create for read only, grants nothing.
  const std::uint64_t granted = mc.fs->tokens_granted();
  auto again = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(mc.fs->tokens_granted(), granted);
}

TEST(CreateGrant, InodeIsBornInItsNamesShard) {
  MiniCluster mc(6, 4, 1 * MiB, fast_cfg(4));
  Client* c = mc.mount_on(2);
  for (int i = 0; i < 32; ++i) {
    const std::string p = "/f" + std::to_string(i);
    ASSERT_TRUE(mc.open(c, p, kAlice, OpenFlags::create_rw()).ok());
    const InodeNum ino = *mc.fs->ns().resolve(p);
    EXPECT_EQ(mc.fs->shard_of(ino), mc.fs->shard_of_path(p)) << p;
    EXPECT_TRUE(holds_block0(mc, c, ino)) << p;
  }
}

TEST(CreateGrant, OneShardNumbersConsecutively) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  ASSERT_TRUE(mc.open(c, "/a", kAlice, OpenFlags::create_rw()).ok());
  ASSERT_TRUE(mc.open(c, "/b", kAlice, OpenFlags::create_rw()).ok());
  EXPECT_EQ(*mc.fs->ns().resolve("/b"), *mc.fs->ns().resolve("/a") + 1);
}

TEST(CreateGrant, ExpelBeforeCommitFreesBlockZero) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  const std::uint64_t free0 = mc.fs->alloc().total_free();
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  EXPECT_EQ(mc.fs->alloc().total_free(), free0 - 1);
  ASSERT_TRUE(mc.write(c, *fh, 0, 16 * KiB).ok());

  mc.fs->expel_client(c->id(), "test: lease lapsed");
  mc.sim.run();
  EXPECT_GE(mc.fs->journal_records_replayed(), 1u);
  EXPECT_EQ(mc.fs->alloc().total_free(), free0);
  const InodeNum ino = *mc.fs->ns().resolve("/f");
  EXPECT_EQ(mc.fs->ns().placement(ino, 0).copies, 0u);
  EXPECT_TRUE(mc.fs->fsck().clean());
}

TEST(CreateGrant, FirstWriteElsewhereGivesBlockZeroBack) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  const std::uint64_t free0 = mc.fs->alloc().total_free();
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  EXPECT_EQ(mc.fs->alloc().total_free(), free0 - 1);  // the grant's block
  // Block 1: the read below then finds every block it maps cached.
  ASSERT_TRUE(mc.write(c, *fh, 1 * MiB, 16 * KiB).ok());
  ASSERT_TRUE(mc.close(c, *fh).ok());
  const InodeNum ino = *mc.fs->ns().resolve("/f");
  EXPECT_EQ(mc.fs->ns().placement(ino, 0).copies, 0u);
  EXPECT_EQ(mc.fs->alloc().total_free(), free0 - 1);
  EXPECT_TRUE(mc.fs->fsck().clean());
  // The creator forgot block 0's old placement too: reading it is a
  // hole, not a fetch of the freed block.
  auto rfh = mc.open(c, "/f", kAlice, OpenFlags::ro());
  ASSERT_TRUE(rfh.ok());
  const Bytes before = c->bytes_read_remote();
  ASSERT_TRUE(mc.read(c, *rfh, 0, 16 * KiB).ok());
  EXPECT_EQ(c->bytes_read_remote(), before);
}

TEST(CreateGrant, SecondWriterRevokesTheGrant) {
  MiniCluster mc;
  Client* a = mc.mount_on(2);
  Client* b = mc.mount_on(3);
  auto fa = mc.open(a, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fa.ok());
  const InodeNum ino = *mc.fs->ns().resolve("/f");
  ASSERT_TRUE(holds_block0(mc, a, ino));

  auto fb = mc.open(b, "/f", kAlice, OpenFlags::rw());
  ASSERT_TRUE(fb.ok());
  const std::uint64_t revocations = mc.fs->revocations();
  ASSERT_TRUE(mc.write(b, *fb, 0, 16 * KiB).ok());
  ASSERT_TRUE(mc.fsync(b, *fb).ok());
  EXPECT_GT(mc.fs->revocations(), revocations);
  EXPECT_FALSE(holds_block0(mc, a, ino));

  // The creator's first write misses block 0, but the block is b's now:
  // nothing is given back.
  ASSERT_TRUE(mc.write(a, *fa, 2 * MiB, 16 * KiB).ok());
  ASSERT_TRUE(mc.close(a, *fa).ok());
  ASSERT_TRUE(mc.close(b, *fb).ok());
  EXPECT_EQ(mc.fs->ns().placement(ino, 0).copies, 1u);
  EXPECT_TRUE(mc.fs->fsck().clean());
}

/// A reader revoked the creator's block-0 token and mapped the
/// (allocated, unwritten) block: the creator's first write elsewhere
/// must not free a block another client's cache refers to.
TEST(CreateGrant, BlockZeroAnotherClientMappedIsKept) {
  MiniCluster mc;
  Client* a = mc.mount_on(2);
  Client* b = mc.mount_on(3);
  auto fa = mc.open(a, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fa.ok());
  const InodeNum ino = *mc.fs->ns().resolve("/f");
  auto fb = mc.open(b, "/f", kAlice, OpenFlags::rw());
  ASSERT_TRUE(fb.ok());
  ASSERT_TRUE(mc.write(b, *fb, 5 * MiB, 16 * KiB).ok());
  ASSERT_TRUE(mc.fsync(b, *fb).ok());
  ASSERT_TRUE(mc.read(b, *fb, 0, 16 * KiB).ok());
  EXPECT_FALSE(holds_block0(mc, a, ino));

  ASSERT_TRUE(mc.write(a, *fa, 2 * MiB, 16 * KiB).ok());
  ASSERT_TRUE(mc.close(a, *fa).ok());
  EXPECT_EQ(mc.fs->ns().placement(ino, 0).copies, 1u);
  EXPECT_TRUE(mc.fs->fsck().clean());
}

/// Another client mapped the file around block 0 while the creator
/// still held its grant: it was shown a hole there, so when the
/// creator's first write elsewhere hands the block back, no cache
/// anywhere still points at the freed block.
TEST(CreateGrant, BlockZeroIsHiddenWhileItMayBeGivenBack) {
  MiniCluster mc;
  Client* a = mc.mount_on(2);
  Client* b = mc.mount_on(3);
  auto fa = mc.open(a, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fa.ok());
  const InodeNum ino = *mc.fs->ns().resolve("/f");
  auto fb = mc.open(b, "/f", kAlice, OpenFlags::rw());
  ASSERT_TRUE(fb.ok());
  ASSERT_TRUE(mc.write(b, *fb, 5 * MiB, 16 * KiB).ok());
  ASSERT_TRUE(mc.fsync(b, *fb).ok());
  // Block 3 is a hole; mapping it fetches the chunk holding block 0.
  ASSERT_TRUE(mc.read(b, *fb, 3 * MiB, 16 * KiB).ok());
  ASSERT_TRUE(holds_block0(mc, a, ino));

  ASSERT_TRUE(mc.write(a, *fa, 2 * MiB, 16 * KiB).ok());
  EXPECT_EQ(mc.fs->ns().placement(ino, 0).copies, 0u);

  const Bytes before = b->bytes_read_remote();
  ASSERT_TRUE(mc.read(b, *fb, 0, 16 * KiB).ok());
  EXPECT_EQ(b->bytes_read_remote(), before);  // a hole: zeros, no fetch
  ASSERT_TRUE(mc.close(a, *fa).ok());
  ASSERT_TRUE(mc.close(b, *fb).ok());
  EXPECT_TRUE(mc.fs->fsck().clean());
}

/// Once the creator's block-0 token is revoked, another client may map
/// and write the block without an allocation RPC, so nothing retires
/// the creator's record. A later whole-file token must not make the
/// creator's first write hand that block back.
TEST(CreateGrant, ARevokedGrantIsNeverGivenBack) {
  MiniCluster mc;
  Client* a = mc.mount_on(2);
  Client* b = mc.mount_on(3);
  Client* g = mc.mount_on(4);
  auto fa = mc.open(a, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fa.ok());
  const InodeNum ino = *mc.fs->ns().resolve("/f");
  auto fb = mc.open(b, "/f", kAlice, OpenFlags::rw());
  ASSERT_TRUE(fb.ok());
  ASSERT_TRUE(mc.write(b, *fb, 5 * MiB, 16 * KiB).ok());
  ASSERT_TRUE(mc.fsync(b, *fb).ok());
  // g reads block 0 (revoking the grant, caching its placement), then
  // writes it through that cached placement.
  auto fg = mc.open(g, "/f", kAlice, OpenFlags::rw());
  ASSERT_TRUE(fg.ok());
  ASSERT_TRUE(mc.read(g, *fg, 0, 16 * KiB).ok());
  ASSERT_TRUE(mc.write(g, *fg, 0, 16 * KiB).ok());
  ASSERT_TRUE(mc.close(g, *fg).ok());
  ASSERT_TRUE(mc.close(b, *fb).ok());
  mc.cluster->unmount(g);
  mc.cluster->unmount(b);

  // Nobody else holds a token now: the creator's next token is the
  // whole file, block 0 included.
  ASSERT_TRUE(mc.write(a, *fa, 2 * MiB, 16 * KiB).ok());
  ASSERT_TRUE(holds_block0(mc, a, ino));
  ASSERT_TRUE(mc.close(a, *fa).ok());
  EXPECT_EQ(mc.fs->ns().placement(ino, 0).copies, 1u);  // g's data
  EXPECT_TRUE(mc.fs->fsck().clean());
}

/// A write to block 0 issued while the creator's give-back is in flight
/// waits for its answer and allocates block 0 afresh, instead of
/// writing into the block being freed.
TEST(CreateGrant, BlockZeroWriteWaitsForAGiveBackInFlight) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  const InodeNum ino = *mc.fs->ns().resolve("/f");
  std::optional<Result<Bytes>> far, head;
  c->write(*fh, 2 * MiB, 16 * KiB, [&](Result<Bytes> r) { far = r; });
  // Issue the block-0 write once the manager has freed the block, while
  // the give-back's answer is still on its way back.
  const double t0 = mc.sim.now();
  std::function<void()> poll = [&] {
    if (mc.fs->ns().placement(ino, 0).copies == 0) {
      ASSERT_FALSE(far.has_value());
      c->write(*fh, 0, 16 * KiB, [&](Result<Bytes> r) { head = r; });
      return;
    }
    if (mc.sim.now() < t0 + 0.1) mc.sim.after(1e-6, poll);
  };
  mc.sim.after(0.0, poll);
  mc.sim.run();
  ASSERT_TRUE(far.has_value() && far->ok());
  ASSERT_TRUE(head.has_value() && head->ok());
  ASSERT_TRUE(mc.close(c, *fh).ok());
  EXPECT_EQ(mc.fs->ns().placement(ino, 0).copies, 1u);
  EXPECT_EQ(mc.fs->fsck().referenced_blocks, 2u);
  EXPECT_TRUE(mc.fs->fsck().clean());
}

/// A close's give-back and a block-0 write through another handle, in
/// one tick: the give-back is in flight when the write arrives, so the
/// write waits for its answer and allocates block 0 afresh instead of
/// landing in the block the close frees.
TEST(CreateGrant, CloseGiveBackHoldsABlockZeroWriteOnAnotherHandle) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto h1 = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(h1.ok());
  auto h2 = mc.open(c, "/f", kAlice, OpenFlags::rw());
  ASSERT_TRUE(h2.ok());
  const InodeNum ino = *mc.fs->ns().resolve("/f");
  std::optional<Status> closed;
  std::optional<Result<Bytes>> wrote;
  c->close(*h1, [&](Status st) { closed = st; });
  c->write(*h2, 0, 16 * KiB, [&](Result<Bytes> r) { wrote = r; });
  mc.sim.run();
  ASSERT_TRUE(closed.has_value() && closed->ok());
  ASSERT_TRUE(wrote.has_value() && wrote->ok());
  ASSERT_TRUE(mc.fsync(c, *h2).ok());
  EXPECT_EQ(mc.fs->ns().placement(ino, 0).copies, 1u);
  EXPECT_EQ(mc.fs->ns().stat(ino)->size, 16 * KiB);
  EXPECT_EQ(mc.fs->fsck().referenced_blocks, 1u);
  EXPECT_TRUE(mc.fs->fsck().clean());
}

/// The close decides at send time, after its flush: a block-0 write
/// that lands while the close waits out another block's write-behind
/// keeps block 0, so the close's commit gives nothing back.
TEST(CreateGrant, CloseSendsNoGiveBackAfterABlockZeroWriteLandsInItsFlush) {
  ClusterConfig cfg;
  cfg.client.retry.max_attempts = 1;
  MiniCluster mc(6, 4, 1 * MiB, cfg);
  Client* c = mc.mount_on(2);
  auto h1 = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(h1.ok());
  auto h2 = mc.open(c, "/f", kAlice, OpenFlags::rw());
  ASSERT_TRUE(h2.ok());
  const InodeNum ino = *mc.fs->ns().resolve("/f");
  const BlockAddr granted = mc.fs->ns().placement(ino, 0).addr[0];

  // The first write past block 0 carries the give-back and finds the
  // manager down, so the create grant stays live. A second write, sent
  // while that give-back is still in flight, carries none: its 16 MiB
  // are in write-behind when it completes.
  const net::NodeId mgr = mc.site.hosts[1];
  std::optional<Status> closed;
  std::optional<Result<Bytes>> first, head;
  mc.net.set_node_up(mgr, false);
  c->write(*h2, 1 * MiB, 16 * KiB, [&](Result<Bytes> r) { first = r; });
  mc.net.set_node_up(mgr, true);
  c->write(*h2, 4 * MiB, 16 * MiB, [&](Result<Bytes> r) {
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(first.has_value() && !first->ok());
    ASSERT_GT(c->pool().dirty_bytes(), 0u);
    // Close the creating handle; in the same tick, write block 0.
    c->close(*h1, [&](Status st) { closed = st; });
    c->write(*h2, 0, 16 * KiB, [&](Result<Bytes> w) { head = w; });
  });
  mc.sim.run();
  ASSERT_TRUE(closed.has_value() && closed->ok());
  ASSERT_TRUE(head.has_value() && head->ok());
  ASSERT_TRUE(mc.fsync(c, *h2).ok());
  const BlockPlacement p = mc.fs->ns().placement(ino, 0);
  EXPECT_EQ(p.copies, 1u);
  EXPECT_EQ(p.addr[0], granted);  // the create grant's block, kept
  EXPECT_TRUE(mc.fs->fsck().clean());
}

/// A file created for write and closed unwritten keeps no block.
TEST(CreateGrant, CloseOfAnUnwrittenCreateGivesBlockZeroBack) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  const std::uint64_t free0 = mc.fs->alloc().total_free();
  auto fh = mc.open(c, "/empty", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  const InodeNum ino = *mc.fs->ns().resolve("/empty");
  const std::uint64_t before = manager_rpcs(mc);
  ASSERT_TRUE(mc.close(c, *fh).ok());
  EXPECT_EQ(manager_rpcs(mc), before + 1);  // the commit carries it
  mc.cluster->unmount(c);
  EXPECT_EQ(mc.fs->alloc().total_free(), free0);
  EXPECT_EQ(mc.fs->ns().placement(ino, 0).copies, 0u);
  EXPECT_EQ(mc.fs->ns().stat(ino)->size, 0u);
  EXPECT_TRUE(mc.fs->fsck().clean());
}

/// The creator's first write misses block 0 and fails before its
/// allocation RPC: the give-back is not lost, the close carries it.
TEST(CreateGrant, FailedFirstWriteLeavesTheGiveBackToClose) {
  ClusterConfig cfg;
  cfg.client.retry.max_attempts = 1;
  MiniCluster mc(6, 4, 1 * MiB, cfg);
  Client* c = mc.mount_on(2);
  const std::uint64_t free0 = mc.fs->alloc().total_free();
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  const InodeNum ino = *mc.fs->ns().resolve("/f");
  mc.net.set_node_up(mc.site.hosts[1], false);
  ASSERT_FALSE(mc.write(c, *fh, 1 * MiB, 16 * KiB).ok());
  mc.net.set_node_up(mc.site.hosts[1], true);
  EXPECT_EQ(mc.fs->ns().placement(ino, 0).copies, 1u);

  ASSERT_TRUE(mc.close(c, *fh).ok());
  EXPECT_EQ(mc.fs->ns().placement(ino, 0).copies, 0u);
  EXPECT_EQ(mc.fs->alloc().total_free(), free0);
  EXPECT_TRUE(mc.fs->fsck().clean());
}

/// A takeover's rebuild query arrives while the grant write is still in
/// write-behind: the writer reasserts its block-0 token, and its fsync
/// against the successor commits the grant's allocation.
TEST(CreateGrant, TakeoverReassertsTheGrant) {
  MiniCluster mc(6, 4, 1 * MiB, fast_cfg());
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  ASSERT_EQ(mc.fs->tokens_granted(), 1u);  // the grant covers the write
  const InodeNum ino = *mc.fs->ns().resolve("/f");
  std::optional<Result<Bytes>> wr;
  c->write(*fh, 0, 16 * KiB, [&](Result<Bytes> r) { wr = std::move(r); });
  ASSERT_TRUE(mc.cluster->takeover_manager(*mc.fs, 0));
  mc.sim.run();
  ASSERT_TRUE(wr.has_value() && wr->ok());
  EXPECT_EQ(mc.fs->manager_takeovers(), 1u);
  EXPECT_GE(mc.fs->assertions_rebuilt(), 1u);
  EXPECT_TRUE(holds_block0(mc, c, ino));

  const std::uint64_t before = manager_rpcs(mc);
  ASSERT_TRUE(mc.fsync(c, *fh).ok());
  EXPECT_EQ(manager_rpcs(mc), before + 1);
  EXPECT_EQ(mc.fs->ns().stat(ino)->size, 16 * KiB);
  mc.fs->expel_client(c->id(), "test: the commit must have retired block 0");
  mc.sim.run();
  EXPECT_EQ(mc.fs->ns().placement(ino, 0).copies, 1u);
  EXPECT_TRUE(mc.fs->fsck().clean());
}

/// The grant write landed before the manager died; its commit is served
/// in the takeover's overlap window (DESIGN.md §6), which accepts a
/// reasserted client's commit of its own pre-crash allocations while a
/// mute straggler still holds the rebuild open.
TEST(CreateGrant, OverlapWindowCommitsALandedGrantWrite) {
  MiniCluster mc(6, 4, 1 * MiB, fast_cfg());
  Client* writer = mc.mount_on(2);
  Client* straggler = mc.mount_on(3);
  auto fh = mc.open(writer, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  ASSERT_EQ(mc.fs->tokens_granted(), 1u);  // the create grant
  ASSERT_TRUE(mc.write(writer, *fh, 0, 16 * KiB).ok());  // flushed
  ASSERT_EQ(mc.fs->tokens_granted(), 1u);  // under the grant alone
  const InodeNum ino = *mc.fs->ns().resolve("/f");

  fault::FaultInjector inject(mc.net, Rng(11));
  inject.watch_pool(mc.cluster->connection_pool());
  inject.watch_cluster(*mc.cluster);
  const double t0 = mc.sim.now();
  inject.schedule_blackhole(t0, mc.site.hosts[3], 5.0);
  inject.schedule_crash_manager(t0 + 0.02, *mc.fs, 1.0);
  // A metadata op must find the dead manager to drive the election.
  mc.sim.after(0.04, [&] { straggler->stat("/f", [](Result<StatInfo>) {}); });

  std::optional<Status> synced;
  bool synced_mid_rebuild = false;
  bool issued = false;
  std::function<void()> poll = [&] {
    if (!issued && mc.fs->recovering() && mc.fs->assertions_rebuilt() >= 1) {
      issued = true;
      writer->fsync(*fh, [&](Status st) {
        synced = st;
        synced_mid_rebuild = mc.fs->recovering();
      });
      return;
    }
    if (mc.sim.now() < t0 + 3.0) mc.sim.after(0.0005, poll);
  };
  mc.sim.after(0.0, poll);
  mc.sim.run();

  ASSERT_TRUE(issued) << "never saw the writer reasserted mid-rebuild";
  ASSERT_TRUE(synced.has_value());
  EXPECT_TRUE(synced->ok()) << synced->to_string();
  EXPECT_TRUE(synced_mid_rebuild);
  EXPECT_EQ(mc.fs->manager_takeovers(), 1u);
  EXPECT_EQ(mc.fs->ns().stat(ino)->size, 16 * KiB);
  EXPECT_EQ(mc.fs->ns().placement(ino, 0).copies, 1u);
  EXPECT_EQ(mc.fs->shard_journal(0).uncommitted_count(writer->id()), 0u);
}

TEST(CreateGrant, UnlinkDropsTheDeadInodesState) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(mc.write(c, *fh, 0, 3 * MiB).ok());
  ASSERT_TRUE(mc.close(c, *fh).ok());
  const InodeNum ino = *mc.fs->ns().resolve("/f");
  ASSERT_TRUE(c->pool().contains(PageKey{ino, 0}));
  ASSERT_FALSE(mc.fs->shard_tokens(0).holdings(ino).empty());

  std::optional<Status> st;
  c->unlink("/f", kAlice, [&](Status s) { st = s; });
  mc.sim.run();
  ASSERT_TRUE(st.has_value() && st->ok());
  EXPECT_TRUE(mc.fs->shard_tokens(0).holdings(ino).empty());
  for (std::uint64_t bi = 0; bi < 3; ++bi) {
    EXPECT_FALSE(c->pool().contains(PageKey{ino, bi})) << bi;
  }
  EXPECT_TRUE(mc.fs->fsck().clean());
}

}  // namespace
}  // namespace mgfs::gpfs
