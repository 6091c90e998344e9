// Cross-cluster block replication (DESIGN.md §6, replication model):
// placement rules for multi-copy files, the replica-aware block map
// against the single-copy oracle, divergence marking + reconciliation,
// journal undo of a crashed writer's partially-propagated copies,
// freeing every copy on unlink and truncate, and the
// stale-replica-never-serves guarantee.
#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "common/rng.hpp"
#include "gpfs/cluster.hpp"
#include "gpfs_test_util.hpp"

namespace mgfs::gpfs {
namespace {

using testutil::kAlice;
using testutil::MiniCluster;

Bytes file_blocks(MiniCluster& mc, Client* c, const std::string& path,
                  InodeNum* ino_out) {
  auto st = mc.stat(c, path);
  EXPECT_TRUE(st.ok());
  if (ino_out != nullptr) *ino_out = st->ino;
  return ceil_div(st->size, mc.fs->block_size());
}

// --- placement rules ---------------------------------------------------

TEST(Replication, PlacementSpreadsCopiesAcrossSites) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/rep", kAlice, OpenFlags::create_replicated(2));
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(mc.write(c, *fh, 0, 8 * MiB).ok());
  ASSERT_TRUE(mc.fsync(c, *fh).ok());

  InodeNum ino = 0;
  const std::uint64_t blocks = file_blocks(mc, c, "/rep", &ino);
  ASSERT_EQ(blocks, 8u);
  const Inode* n = mc.fs->ns().inode(ino);
  ASSERT_NE(n, nullptr);
  for (std::uint64_t bi = 0; bi < blocks; ++bi) {
    const BlockPlacement p = mc.fs->ns().placement(ino, bi);
    ASSERT_EQ(p.copies, 2) << "block " << bi;
    EXPECT_EQ(p.divergent, 0);
    // Copy 0 is the inode map's primary, stored there and only there.
    ASSERT_TRUE(n->blocks[bi].has_value());
    EXPECT_EQ(p.addr[0], *n->blocks[bi]);
    // Copies live on distinct NSDs in distinct failure domains.
    EXPECT_NE(p.addr[0].nsd, p.addr[1].nsd);
    EXPECT_NE(mc.fs->nsd(p.addr[0].nsd).site,
              mc.fs->nsd(p.addr[1].nsd).site);
  }
  EXPECT_GE(mc.fs->replicas_allocated(), blocks);
  EXPECT_TRUE(mc.fs->fsck().clean());
}

TEST(Replication, UnreplicatedFilesHaveNoPlacementTableEntries) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/solo", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(mc.write(c, *fh, 0, 4 * MiB).ok());
  ASSERT_TRUE(mc.fsync(c, *fh).ok());

  InodeNum ino = 0;
  const std::uint64_t blocks = file_blocks(mc, c, "/solo", &ino);
  ASSERT_EQ(blocks, 4u);
  // Every block is a one-copy placement on its striping-rule NSD, and
  // the block map hands clients exactly that, plus a hole past EOF.
  auto chunk = mc.fs->op_block_map(ino, 0, blocks + 1, c->id());
  ASSERT_TRUE(chunk.ok());
  ASSERT_EQ(chunk->count, blocks + 1);
  for (std::uint64_t bi = 0; bi < blocks; ++bi) {
    const BlockPlacement p = mc.fs->ns().placement(ino, bi);
    EXPECT_EQ(p.copies, 1) << "block " << bi;
    EXPECT_EQ(p.divergent, 0);
    EXPECT_EQ(p.addr[0].nsd, mc.fs->nsd_for_block(ino, bi));
    EXPECT_EQ(chunk->placement(bi), p);
  }
  EXPECT_EQ(chunk->placement(blocks).copies, 0);
  EXPECT_EQ(mc.fs->fsck().replica_refs, 0u);
}

// --- every copy is freed ------------------------------------------------

// Write and commit 4 MiB into a fresh three-copy file; returns its inode.
InodeNum write_three_copies(MiniCluster& mc, Client* c,
                            const std::string& path) {
  auto fh = mc.open(c, path, kAlice, OpenFlags::create_replicated(3));
  EXPECT_TRUE(fh.ok());
  EXPECT_TRUE(mc.write(c, *fh, 0, 4 * MiB).ok());
  EXPECT_TRUE(mc.fsync(c, *fh).ok());
  EXPECT_TRUE(mc.close(c, *fh).ok());
  InodeNum ino = 0;
  EXPECT_EQ(file_blocks(mc, c, path, &ino), 4u);
  for (std::uint64_t bi = 0; bi < 4; ++bi) {
    EXPECT_EQ(mc.fs->ns().placement(ino, bi).copies, 3) << "block " << bi;
  }
  return ino;
}

TEST(Replication, UnlinkFreesEveryCopy) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  const Bytes free_before = mc.fs->free_bytes();
  write_three_copies(mc, c, "/rep3");
  EXPECT_LT(mc.fs->free_bytes(), free_before);

  std::optional<Status> st;
  c->unlink("/rep3", kAlice, [&](Status s) { st = std::move(s); });
  mc.sim.run();
  ASSERT_TRUE(st.has_value() && st->ok());
  EXPECT_EQ(mc.fs->free_bytes(), free_before);
  EXPECT_TRUE(mc.fs->ns().replicated_blocks().empty());
  EXPECT_TRUE(mc.fs->fsck().clean());
}

TEST(Replication, TruncateFreesEveryCopy) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  const Bytes free_before = mc.fs->free_bytes();
  const InodeNum ino = write_three_copies(mc, c, "/rep3");
  EXPECT_LT(mc.fs->free_bytes(), free_before);

  OpenFlags trunc = OpenFlags::rw();
  trunc.truncate = true;
  auto fh = mc.open(c, "/rep3", kAlice, trunc);
  ASSERT_TRUE(fh.ok());
  EXPECT_EQ(mc.fs->free_bytes(), free_before);
  EXPECT_EQ(mc.fs->ns().placement(ino, 0).copies, 0);
  EXPECT_TRUE(mc.fs->ns().replicated_blocks().empty());
  EXPECT_TRUE(mc.fs->fsck().clean());
}

// --- replica-aware block map vs the single-copy oracle -----------------

// Property: for any write pattern, the replicated file's block map
// restricted to copy 0 is exactly the map an unreplicated file driven
// through the same operations produces — replication only *adds*
// copies, it never changes what the single-copy protocol would have
// done. (Placements are compared structurally, not address-for-address:
// the two files legitimately land on different blocks of the shared
// allocation maps.)
TEST(Replication, BlockMapMatchesSingleCopyOracleProperty) {
  for (std::uint32_t seed = 1; seed <= 5; ++seed) {
    MiniCluster mc;
    Client* c = mc.mount_on(2);
    auto rep = mc.open(c, "/rep", kAlice, OpenFlags::create_replicated(2));
    auto solo = mc.open(c, "/solo", kAlice, OpenFlags::create_rw());
    ASSERT_TRUE(rep.ok() && solo.ok());

    Rng rng(seed);
    const Bytes bs = mc.fs->block_size();
    for (int op = 0; op < 12; ++op) {
      const Bytes off = rng.range(0, 24) * (bs / 2);
      const Bytes len = (1 + rng.range(0, 5)) * (bs / 2);
      ASSERT_TRUE(mc.write(c, *rep, off, len).ok());
      ASSERT_TRUE(mc.write(c, *solo, off, len).ok());
      if (rng.range(0, 3) == 0) {
        ASSERT_TRUE(mc.fsync(c, *rep).ok());
        ASSERT_TRUE(mc.fsync(c, *solo).ok());
      }
    }
    ASSERT_TRUE(mc.fsync(c, *rep).ok());
    ASSERT_TRUE(mc.fsync(c, *solo).ok());

    InodeNum rino = 0, sino = 0;
    const std::uint64_t rblocks = file_blocks(mc, c, "/rep", &rino);
    const std::uint64_t sblocks = file_blocks(mc, c, "/solo", &sino);
    ASSERT_EQ(rblocks, sblocks) << "seed " << seed;
    for (std::uint64_t bi = 0; bi < rblocks; ++bi) {
      const BlockPlacement p = mc.fs->ns().placement(rino, bi);
      const BlockPlacement solo_p = mc.fs->ns().placement(sino, bi);
      // Identical hole pattern: a block exists in the replicated map
      // iff the oracle allocated it too, and the oracle's blocks are
      // one-copy placements.
      ASSERT_EQ(p.copies > 0, solo_p.copies > 0)
          << "seed " << seed << " block " << bi;
      if (solo_p.copies == 0) continue;
      EXPECT_EQ(solo_p.copies, 1);
      // Every allocated block of the replicated file carries exactly
      // the configured copy count, and the copies never collide on one
      // NSD.
      EXPECT_EQ(p.copies, 2) << "seed " << seed << " block " << bi;
      EXPECT_NE(p.addr[0].nsd, p.addr[1].nsd);
      EXPECT_EQ(p.divergent, 0);
    }
    // Reads are oracle-equivalent: both files return every byte.
    auto rr = mc.read(c, *rep, 0, rblocks * bs);
    auto sr = mc.read(c, *solo, 0, sblocks * bs);
    ASSERT_TRUE(rr.ok() && sr.ok());
    EXPECT_EQ(*rr, *sr);
    EXPECT_TRUE(mc.fs->fsck().clean()) << "seed " << seed;
  }
}

// --- divergence + reconciliation ---------------------------------------

TEST(Replication, DivergenceMarksAndReconciles) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/rep", kAlice, OpenFlags::create_replicated(2));
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(mc.write(c, *fh, 0, 4 * MiB).ok());
  ASSERT_TRUE(mc.fsync(c, *fh).ok());

  InodeNum ino = 0;
  file_blocks(mc, c, "/rep", &ino);
  ASSERT_TRUE(mc.fs->op_replica_divergence(c->id(), ino, 1, 1).ok());
  EXPECT_EQ(mc.fs->replica_divergences(), 1u);
  const BlockPlacement p = mc.fs->ns().placement(ino, 1);
  ASSERT_EQ(p.copies, 2);
  EXPECT_TRUE(p.is_divergent(1));
  EXPECT_FALSE(p.is_divergent(0));
  // A divergent copy is an fsck finding until reconciled.
  EXPECT_FALSE(mc.fs->fsck().clean());
  EXPECT_EQ(mc.fs->fsck().divergent_replicas, 1u);

  EXPECT_EQ(mc.fs->reconcile_replicas(), 1u);
  EXPECT_EQ(mc.fs->replicas_reconciled(), 1u);
  EXPECT_EQ(mc.fs->ns().placement(ino, 1).divergent, 0);
  EXPECT_TRUE(mc.fs->fsck().clean());
  // Idempotent: nothing left to reconcile.
  EXPECT_EQ(mc.fs->reconcile_replicas(), 0u);
}

TEST(Replication, LastCleanCopyCannotBeMarkedDivergent) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/rep", kAlice, OpenFlags::create_replicated(2));
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(mc.write(c, *fh, 0, 1 * MiB).ok());
  ASSERT_TRUE(mc.fsync(c, *fh).ok());

  InodeNum ino = 0;
  file_blocks(mc, c, "/rep", &ino);
  ASSERT_TRUE(mc.fs->op_replica_divergence(c->id(), ino, 0, 1).ok());
  // Refusing to mark the last clean copy is the data-loss firewall:
  // with every copy divergent there would be nothing to reconcile from.
  auto st = mc.fs->op_replica_divergence(c->id(), ino, 0, 0);
  EXPECT_EQ(st.code(), Errc::invalid_argument);
  EXPECT_EQ(mc.fs->ns().placement(ino, 0).clean_copies(), 1);
}

// A final refusal is one answer. Copy 0 of block 0 diverges behind the
// writer's back, then copy 1's media dies: the writer's overwrite lands
// on copy 0, fails on copy 1, and the manager refuses to mark copy 1,
// the last clean copy. The writer sends that mark once, and the manager
// that answered is never struck (with one client on the file system,
// three strikes would depose it).
TEST(Replication, LastCleanCopyRefusalIsSentOnce) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/rep", kAlice, OpenFlags::create_replicated(2));
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(mc.write(c, *fh, 0, 1 * MiB).ok());
  ASSERT_TRUE(mc.fsync(c, *fh).ok());
  InodeNum ino = 0;
  file_blocks(mc, c, "/rep", &ino);
  const BlockPlacement p = mc.fs->ns().placement(ino, 0);
  ASSERT_EQ(p.copies, 2);
  ASSERT_TRUE(mc.fs->op_replica_divergence(c->id(), ino, 0, 0).ok());
  mc.fs->nsd(p.addr[1].nsd).device->set_failed(true);

  const std::uint64_t before = testutil::manager_rpcs(mc);
  std::optional<Result<Bytes>> w;
  c->write(*fh, 0, 1 * MiB, [&](Result<Bytes> r) { w = std::move(r); });
  mc.sim.run_until(mc.sim.now() + 5.0);
  ASSERT_TRUE(w.has_value() && w->ok());
  // One for the overwrite's write grant, one for the mark.
  EXPECT_EQ(testutil::manager_rpcs(mc) - before, 2u);
  EXPECT_EQ(mc.fs->manager_takeovers(), 0u);
  EXPECT_EQ(mc.fs->manager_epoch(0), 1u);
  EXPECT_EQ(mc.fs->ns().placement(ino, 0).clean_copies(), 1);
  EXPECT_EQ(c->rpc_retries(), 0u);
}

// --- crashed writer: journal undo of partially-propagated copies -------

// A writer stages a replicated write and dies before fsync commits it.
// The WAL logged each replica placement ahead of the table insert, so
// expel-replay must remove the uncommitted copies (and the allocations)
// rather than leave silent stale replicas behind.
TEST(Replication, WriterCrashBeforeCommitUndoesReplicaRecords) {
  MiniCluster mc;
  Client* w = mc.mount_on(2);
  auto fh = mc.open(w, "/rep", kAlice, OpenFlags::create_replicated(2));
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(mc.write(w, *fh, 0, 4 * MiB).ok());
  // No fsync: every alloc + replica record is still uncommitted.

  InodeNum ino = 0;
  file_blocks(mc, w, "/rep", &ino);
  ASSERT_EQ(mc.fs->ns().placement(ino, 0).copies, 2);
  const Bytes free_before = mc.fs->free_bytes();

  mc.fs->expel_client(w->id(), "test: writer crashed mid-propagation");
  mc.sim.run();

  EXPECT_GE(mc.fs->journal_records_replayed(), 8u);  // 4 allocs + 4 replicas
  for (std::uint64_t bi = 0; bi < 4; ++bi) {
    // Every copy is gone: the slot is a hole again.
    EXPECT_EQ(mc.fs->ns().placement(ino, bi).copies, 0) << "block " << bi;
  }
  // Both the primaries and the replica copies went back to the free
  // pool — nothing leaked.
  EXPECT_GT(mc.fs->free_bytes(), free_before);
  EXPECT_TRUE(mc.fs->fsck().clean());
}

// fsync is the commit point: once committed, an expel must NOT undo the
// replica set — the copies are durable and survive their writer.
TEST(Replication, CommittedReplicasSurviveWriterExpel) {
  MiniCluster mc;
  Client* w = mc.mount_on(2);
  auto fh = mc.open(w, "/rep", kAlice, OpenFlags::create_replicated(2));
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(mc.write(w, *fh, 0, 4 * MiB).ok());
  ASSERT_TRUE(mc.fsync(w, *fh).ok());

  InodeNum ino = 0;
  file_blocks(mc, w, "/rep", &ino);
  mc.fs->expel_client(w->id(), "test: writer crashed after commit");
  mc.sim.run();

  for (std::uint64_t bi = 0; bi < 4; ++bi) {
    EXPECT_EQ(mc.fs->ns().placement(ino, bi).copies, 2) << "block " << bi;
  }
  EXPECT_TRUE(mc.fs->fsck().clean());

  // A fresh reader still gets every byte.
  Client* r = mc.mount_on(3);
  auto rfh = mc.open(r, "/rep", kAlice, OpenFlags::ro());
  ASSERT_TRUE(rfh.ok());
  auto rr = mc.read(r, *rfh, 0, 4 * MiB);
  ASSERT_TRUE(rr.ok());
  EXPECT_EQ(*rr, 4 * MiB);
}

// --- stale replicas never serve ----------------------------------------

// With the primary copy's device dead and the only other copy marked
// divergent, a read must FAIL rather than silently serve the stale
// copy.
TEST(Replication, DivergentCopyNeverServesReads) {
  MiniCluster mc;
  Client* w = mc.mount_on(2);
  auto fh = mc.open(w, "/rep", kAlice, OpenFlags::create_replicated(2));
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(mc.write(w, *fh, 0, 2 * MiB).ok());
  ASSERT_TRUE(mc.fsync(w, *fh).ok());

  InodeNum ino = 0;
  file_blocks(mc, w, "/rep", &ino);
  const BlockPlacement p = mc.fs->ns().placement(ino, 0);
  ASSERT_EQ(p.copies, 2);
  // Copy 1 diverges (e.g. a propagation failure), then copy 0's media
  // dies: block 0 now has no servable copy.
  ASSERT_TRUE(mc.fs->op_replica_divergence(w->id(), ino, 0, 1).ok());
  mc.fs->nsd(p.addr[0].nsd).device->set_failed(true);

  Client* r = mc.mount_on(3);
  auto rfh = mc.open(r, "/rep", kAlice, OpenFlags::ro());
  ASSERT_TRUE(rfh.ok());
  auto rr = mc.read(r, *rfh, 0, 1 * MiB);
  EXPECT_FALSE(rr.ok()) << "read served a divergent replica";
  EXPECT_EQ(r->replica_reads(), 0u);

  // Reconciliation cannot help (the clean copy's media is gone), but
  // healing the device restores service without ever having served the
  // stale copy.
  mc.fs->nsd(p.addr[0].nsd).device->set_failed(false);
  auto rr2 = mc.read(r, *rfh, 0, 1 * MiB);
  ASSERT_TRUE(rr2.ok());
  EXPECT_EQ(*rr2, 1 * MiB);
}

// The healthy-path mirror of the above: with the primary dead and the
// replica clean, reads redirect and every byte arrives.
TEST(Replication, ReadsFailOverToCleanReplica) {
  MiniCluster mc;
  Client* w = mc.mount_on(2);
  auto fh = mc.open(w, "/rep", kAlice, OpenFlags::create_replicated(2));
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(mc.write(w, *fh, 0, 8 * MiB).ok());
  ASSERT_TRUE(mc.fsync(w, *fh).ok());

  InodeNum ino = 0;
  file_blocks(mc, w, "/rep", &ino);
  // Kill one whole device: every block with a copy there must be
  // served through its other copy.
  mc.fs->nsd(0).device->set_failed(true);

  Client* r = mc.mount_on(3);
  auto rfh = mc.open(r, "/rep", kAlice, OpenFlags::ro());
  ASSERT_TRUE(rfh.ok());
  auto rr = mc.read(r, *rfh, 0, 8 * MiB);
  ASSERT_TRUE(rr.ok());
  EXPECT_EQ(*rr, 8 * MiB);
  EXPECT_GE(r->replica_reads() + r->replica_failovers(), 1u);
  EXPECT_TRUE(mc.fs->fsck().clean());
}

}  // namespace
}  // namespace mgfs::gpfs
