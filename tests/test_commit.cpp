// The fsync commit rule: fsync/close sends the manager its commit
// (op_extend_size) only for an inode written since its last successful
// commit. A clean fsync or close completes locally; a write that began
// after an fsync started, or an fsync whose commit failed, leaves the
// inode marked so the next fsync/close still commits. Manager RPCs are
// Cluster::rpc().calls() less the NSD requests the servers served
// (testutil::manager_rpcs): NSD reads and writes are RPCs too.
#include <gtest/gtest.h>

#include "gpfs_test_util.hpp"

namespace mgfs::gpfs {
namespace {

using testutil::kAlice;
using testutil::manager_rpcs;
using testutil::MiniCluster;

TEST(Commit, CloseAfterFsyncSendsNoManagerRpc) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(mc.write(c, *fh, 0, 2 * MiB).ok());
  std::uint64_t before = manager_rpcs(mc);
  ASSERT_TRUE(mc.fsync(c, *fh).ok());
  EXPECT_EQ(manager_rpcs(mc), before + 1);  // the commit

  // A second fsync and the close have nothing left to commit. Both
  // still complete through the event loop, never inside the call.
  before = manager_rpcs(mc);
  ASSERT_TRUE(mc.fsync(c, *fh).ok());
  std::optional<Status> closed;
  c->close(*fh, [&](Status st) { closed = std::move(st); });
  EXPECT_FALSE(closed.has_value());
  mc.sim.run();
  ASSERT_TRUE(closed.has_value());
  EXPECT_TRUE(closed->ok());
  EXPECT_EQ(manager_rpcs(mc), before);

  auto st = mc.stat(c, "/f");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 2 * MiB);
}

TEST(Commit, ReadOnlyCloseSendsNoManagerRpc) {
  MiniCluster mc;
  Client* w = mc.mount_on(2);
  Client* r = mc.mount_on(3);
  auto wfh = mc.open(w, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(wfh.ok());
  ASSERT_TRUE(mc.write(w, *wfh, 0, 3 * MiB).ok());
  ASSERT_TRUE(mc.close(w, *wfh).ok());

  auto rfh = mc.open(r, "/f", kAlice, OpenFlags::ro());
  ASSERT_TRUE(rfh.ok());
  auto n = mc.read(r, *rfh, 0, 3 * MiB);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3 * MiB);
  const std::uint64_t before = manager_rpcs(mc);
  EXPECT_TRUE(mc.close(r, *rfh).ok());
  EXPECT_EQ(manager_rpcs(mc), before);
}

TEST(Commit, WriteAfterFsyncCommitsOnceAndSurvivesExpel) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(mc.write(c, *fh, 0, 2 * MiB).ok());
  ASSERT_TRUE(mc.fsync(c, *fh).ok());
  ASSERT_TRUE(mc.write(c, *fh, 2 * MiB, 2 * MiB).ok());
  EXPECT_GT(mc.fs->shard_journal(0).uncommitted_count(c->id()), 0u);

  const std::uint64_t before = manager_rpcs(mc);
  ASSERT_TRUE(mc.close(c, *fh).ok());
  EXPECT_EQ(manager_rpcs(mc), before + 1);

  // Expel the writer: replay may only undo allocate-ahead blocks past
  // EOF, so every block under the size the close committed stays.
  const InodeNum ino = mc.stat(c, "/f")->ino;
  mc.fs->expel_client(c->id(), "test: expel after close");
  mc.sim.run();
  EXPECT_EQ(mc.fs->expels(), 1u);
  for (std::uint64_t bi = 0; bi < 4; ++bi) {
    EXPECT_EQ(mc.fs->ns().placement(ino, bi).copies, 1u) << "block " << bi;
  }
  EXPECT_TRUE(mc.fs->fsck().clean());

  Client* other = mc.mount_on(3);
  auto st = mc.stat(other, "/f");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 4 * MiB);
}

TEST(Commit, WriteDuringCommitRpcKeepsInodeMarked) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(mc.write(c, *fh, 0, 2 * MiB).ok());

  // Start the fsync and stop the moment its commit RPC is on the wire.
  std::optional<Status> synced;
  const std::uint64_t before = manager_rpcs(mc);
  c->fsync(*fh, [&](Status st) { synced = std::move(st); });
  while (manager_rpcs(mc) == before) ASSERT_TRUE(mc.sim.step());
  ASSERT_FALSE(synced.has_value());

  // An overwrite begins while the commit is in flight. It stays inside
  // the size that commit carries, so only its write stamp tells the
  // fsync's completion that the inode has changed since.
  std::optional<Result<Bytes>> wrote;
  c->write(*fh, 0, 1 * MiB, [&](Result<Bytes> r) { wrote = std::move(r); });
  mc.sim.run();
  ASSERT_TRUE(synced.has_value());
  EXPECT_TRUE(synced->ok());
  ASSERT_TRUE(wrote.has_value());
  ASSERT_TRUE(wrote->ok());

  // The successful commit did not clear the newer write's mark.
  const std::uint64_t at_close = manager_rpcs(mc);
  ASSERT_TRUE(mc.close(c, *fh).ok());
  EXPECT_EQ(manager_rpcs(mc), at_close + 1);
}

TEST(Commit, CommitThroughShorterHandleKeepsInodeMarked) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto a = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  auto b = mc.open(c, "/f", kAlice, OpenFlags::rw());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(mc.write(c, *a, 0, 2 * MiB).ok());

  // `b` still sees size 0, so its commit cannot cover `a`'s bytes; the
  // inode stays marked and `a`'s close commits them.
  ASSERT_TRUE(mc.close(c, *b).ok());
  const std::uint64_t before = manager_rpcs(mc);
  ASSERT_TRUE(mc.close(c, *a).ok());
  EXPECT_EQ(manager_rpcs(mc), before + 1);
  auto st = mc.stat(c, "/f");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 2 * MiB);
}

TEST(Commit, RetryableCommitFailureKeepsInodeMarked) {
  ClusterConfig cfg;
  cfg.client.retry.max_attempts = 1;  // surface the first failure
  MiniCluster mc(6, 4, 1 * MiB, cfg);
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(mc.write(c, *fh, 0, 2 * MiB).ok());  // write-behind drained

  // The manager (hosts[1]) is unreachable for the commit.
  mc.net.set_node_up(mc.site.hosts[1], false);
  const Status failed = mc.fsync(c, *fh);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(retryable(failed.code())) << failed.to_string();
  EXPECT_EQ(mc.fs->manager_takeovers(), 0u);
  mc.net.set_node_up(mc.site.hosts[1], true);

  const std::uint64_t before = manager_rpcs(mc);
  ASSERT_TRUE(mc.close(c, *fh).ok());
  EXPECT_EQ(manager_rpcs(mc), before + 1);
  auto st = mc.stat(c, "/f");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 2 * MiB);
}

TEST(Commit, FailedWriteStillMarksInode) {
  ClusterConfig cfg;
  cfg.client.retry.max_attempts = 1;
  MiniCluster mc(6, 4, 1 * MiB, cfg);
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());

  // The write's token request cannot reach the manager (past block 0,
  // which the create grant already covers). Nothing may have changed,
  // but the close commits anyway: marking is conservative.
  mc.net.set_node_up(mc.site.hosts[1], false);
  ASSERT_FALSE(mc.write(c, *fh, 1 * MiB, 1 * MiB).ok());
  mc.net.set_node_up(mc.site.hosts[1], true);
  const std::uint64_t before = manager_rpcs(mc);
  EXPECT_TRUE(mc.close(c, *fh).ok());
  EXPECT_EQ(manager_rpcs(mc), before + 1);
}

TEST(Commit, ExpelledWriterWithUncommittedWritesGetsStaleOnClose) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(mc.write(c, *fh, 0, 2 * MiB).ok());

  // The manager expels the client (its lease lapsed) before it commits:
  // replay undoes the allocations, and the close must say so.
  mc.fs->expel_client(c->id(), "test: lease lapsed");
  mc.sim.run();
  EXPECT_GE(mc.fs->journal_records_replayed(), 1u);
  const Status st = mc.close(c, *fh);
  EXPECT_EQ(st.code(), Errc::stale) << st.to_string();
  EXPECT_TRUE(mc.fs->fsck().clean());
}

TEST(Commit, MarksSurviveLeaseLapseAndCrashReset) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(mc.write(c, *fh, 0, 2 * MiB).ok());

  // The fsync learns of the expel: the client drops its cached state
  // and rejoins, but the inode stays marked, so the close still goes
  // to the manager.
  mc.fs->expel_client(c->id(), "test: lease lapsed");
  mc.sim.run();
  EXPECT_EQ(mc.fsync(c, *fh).code(), Errc::stale);
  EXPECT_EQ(c->lease_lapses(), 1u);
  std::uint64_t before = manager_rpcs(mc);
  EXPECT_TRUE(mc.close(c, *fh).ok());
  EXPECT_EQ(manager_rpcs(mc), before + 1);

  // Same across a reboot of the client's node.
  fh = mc.open(c, "/g", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(mc.write(c, *fh, 0, 1 * MiB).ok());
  c->crash_reset();
  before = manager_rpcs(mc);
  EXPECT_TRUE(mc.close(c, *fh).ok());
  EXPECT_EQ(manager_rpcs(mc), before + 1);
}

TEST(Commit, ExpelledClientCleanCloseIsLocal) {
  MiniCluster mc;
  Client* w = mc.mount_on(2);
  Client* r = mc.mount_on(3);
  auto wfh = mc.open(w, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(wfh.ok());
  ASSERT_TRUE(mc.write(w, *wfh, 0, 1 * MiB).ok());
  ASSERT_TRUE(mc.close(w, *wfh).ok());
  auto rfh = mc.open(r, "/f", kAlice, OpenFlags::ro());
  ASSERT_TRUE(rfh.ok());
  ASSERT_TRUE(mc.read(r, *rfh, 0, 1 * MiB).ok());

  // A reader with nothing to commit loses nothing to an expel, so its
  // close neither reaches the manager nor reports stale.
  mc.fs->expel_client(r->id(), "test: lease lapsed");
  mc.sim.run();
  const std::uint64_t before = manager_rpcs(mc);
  EXPECT_TRUE(mc.close(r, *rfh).ok());
  EXPECT_EQ(manager_rpcs(mc), before);
}

}  // namespace
}  // namespace mgfs::gpfs
