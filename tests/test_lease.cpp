// Disk leases, node expel and crash recovery (DESIGN.md §6): the
// LeaseManager and MetaJournal bookkeeping, then the full protocol end
// to end — a crashed writer is expelled, its metadata journal replayed
// and its tokens re-granted to survivors; a partitioned-but-alive
// writer's late flush is fenced by lease epoch at the NSD servers.
#include "gpfs/lease.hpp"

#include <gtest/gtest.h>

#include "fault/injector.hpp"
#include "gpfs/journal.hpp"
#include "gpfs_test_util.hpp"

namespace mgfs::gpfs {
namespace {

using testutil::kAlice;
using testutil::MiniCluster;

// ---------------------------------------------------------------------
// LeaseManager unit tests
// ---------------------------------------------------------------------

TEST(Lease, EpochsAreGloballyMonotonic) {
  LeaseManager lm(LeaseConfig{1.0, 0.5});
  const std::uint64_t e1 = lm.register_client(1, 0.0);
  const std::uint64_t e2 = lm.register_client(2, 0.0);
  EXPECT_LT(e1, e2);
  // Re-registration is a new incarnation: strictly newer epoch.
  const std::uint64_t e3 = lm.register_client(1, 0.0);
  EXPECT_LT(e2, e3);
  EXPECT_EQ(lm.epoch_of(1), e3);
  EXPECT_TRUE(lm.epoch_valid(1, e3));
  EXPECT_FALSE(lm.epoch_valid(1, e1));
  EXPECT_EQ(lm.epoch_of(99), 0u);
}

TEST(Lease, RenewExtendsAndUnknownOrExpelledCannotRenew) {
  LeaseManager lm(LeaseConfig{1.0, 0.5});
  lm.register_client(1, 0.0);
  EXPECT_TRUE(lm.lease_current(1, 0.9));
  EXPECT_FALSE(lm.lease_current(1, 1.1));
  EXPECT_TRUE(lm.renew(1, 0.9));
  EXPECT_TRUE(lm.lease_current(1, 1.8));
  EXPECT_EQ(lm.renewals(), 1u);

  EXPECT_FALSE(lm.renew(42, 0.0));  // never registered
  EXPECT_TRUE(lm.expel(1));
  EXPECT_FALSE(lm.renew(1, 1.0));  // expelled: must re-register
}

TEST(Lease, ExpelIsIdempotentAndReregistrationReadmits) {
  LeaseManager lm(LeaseConfig{1.0, 0.5});
  const std::uint64_t e1 = lm.register_client(7, 0.0);
  EXPECT_TRUE(lm.expel(7));
  EXPECT_FALSE(lm.expel(7));  // double expel: caller skips recovery
  EXPECT_EQ(lm.expels(), 1u);
  EXPECT_TRUE(lm.expelled(7));
  EXPECT_FALSE(lm.epoch_valid(7, e1));
  ASSERT_EQ(lm.expelled_clients().size(), 1u);

  const std::uint64_t e2 = lm.register_client(7, 2.0);
  EXPECT_GT(e2, e1);
  EXPECT_FALSE(lm.expelled(7));
  EXPECT_TRUE(lm.epoch_valid(7, e2));
  EXPECT_TRUE(lm.expelled_clients().empty());
}

TEST(Lease, SuspectCountedOncePerEpisodeAndClearedByRenewal) {
  LeaseManager lm(LeaseConfig{1.0, 0.5});
  lm.register_client(3, 0.0);
  lm.note_suspect(3, 1.1);
  lm.note_suspect(3, 1.2);  // same episode: counted once
  EXPECT_EQ(lm.suspects_noted(), 1u);
  EXPECT_TRUE(lm.renew(3, 1.3));
  lm.note_suspect(3, 2.5);  // new episode after renewal
  EXPECT_EQ(lm.suspects_noted(), 2u);
}

TEST(Lease, ExpelDueAndSweep) {
  LeaseManager lm(LeaseConfig{1.0, 0.5});
  lm.register_client(1, 0.0);
  lm.register_client(2, 0.0);
  EXPECT_FALSE(lm.expel_due(1, 1.2));  // lapsed but inside recovery wait
  EXPECT_TRUE(lm.expel_due(1, 1.6));
  EXPECT_TRUE(lm.expel_due(99, 0.0));  // no lease, no standing
  EXPECT_NEAR(lm.time_until_expel(1, 1.0), 0.5, 1e-9);
  EXPECT_EQ(lm.time_until_expel(1, 2.0), 0.0);

  EXPECT_TRUE(lm.sweep(1.2).empty());
  EXPECT_TRUE(lm.renew(2, 1.2));
  const std::vector<ClientId> due = lm.sweep(1.6);  // only 1 is due
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 1u);
  EXPECT_GE(lm.suspects_noted(), 1u);  // sweep noted the lapse
}

TEST(Lease, TakeoverResetPreservesEpochsOnReassert) {
  LeaseManager lm(LeaseConfig{1.0, 0.5});
  const std::uint64_t e1 = lm.register_client(1, 0.0);
  const std::uint64_t e2 = lm.register_client(2, 0.0);
  lm.reset_for_takeover();
  EXPECT_FALSE(lm.known(1));
  EXPECT_FALSE(lm.known(2));
  // Reasserting client 1 keeps its epoch (in-flight writes stamped with
  // it must keep landing) but gets a fresh lease window.
  lm.install(1, e1, 5.0);
  EXPECT_TRUE(lm.epoch_valid(1, e1));
  EXPECT_TRUE(lm.lease_current(1, 5.9));
  EXPECT_FALSE(lm.lease_current(1, 6.1));
  // next_epoch_ survives the wipe: monotonicity across incarnations.
  const std::uint64_t e3 = lm.register_client(3, 5.0);
  EXPECT_GT(e3, e2);
}

TEST(Lease, LapsedSuspectInstallExpiresIntoExpel) {
  LeaseManager lm(LeaseConfig{1.0, 0.5});
  const std::uint64_t e1 = lm.register_client(1, 0.0);
  lm.reset_for_takeover();
  // The mute non-responder: entry under an epoch it does not know, a
  // lease that lapsed on arrival.
  lm.install_lapsed_suspect(1, 5.0);
  EXPECT_TRUE(lm.known(1));
  EXPECT_FALSE(lm.epoch_valid(1, e1));
  EXPECT_FALSE(lm.lease_current(1, 5.01));
  EXPECT_FALSE(lm.expel_due(1, 5.2));  // still inside recovery wait
  EXPECT_TRUE(lm.expel_due(1, 5.6));
  EXPECT_GE(lm.suspects_noted(), 1u);
}

TEST(Lease, LapsedSuspectCannotRenewMustRejoin) {
  LeaseManager lm(LeaseConfig{1.0, 0.5});
  lm.register_client(1, 0.0);
  lm.reset_for_takeover();
  lm.install_lapsed_suspect(1, 5.0);
  // Partition heals inside recovery_wait: the renewal must NOT revive
  // the entry — its tokens were wiped in the rebuild and never
  // reasserted, so a renewing read-mostly client would serve stale
  // cache forever. Renew answers false (-> stale at the RPC layer)
  // until the client re-registers, discarding its caches on the way.
  EXPECT_FALSE(lm.renew(1, 5.1));
  EXPECT_FALSE(lm.renew(1, 5.2));  // refused every time, not just once
  EXPECT_FALSE(lm.expelled(1));    // refused != expelled: no replay due
  const std::uint64_t e = lm.register_client(1, 5.2);
  EXPECT_TRUE(lm.renew(1, 5.3));
  EXPECT_TRUE(lm.epoch_valid(1, e));
}

TEST(Lease, TakeoverResetPreservesExpelledTombstones) {
  LeaseManager lm(LeaseConfig{1.0, 0.5});
  lm.register_client(1, 0.0);
  lm.register_client(2, 0.0);
  EXPECT_TRUE(lm.expel(1));
  lm.reset_for_takeover();
  // Live entries are volatile manager memory and die with the node...
  EXPECT_FALSE(lm.known(2));
  // ...but an expel is a completed cluster decision (journal replayed,
  // tokens reclaimed): the tombstone survives, so the expellee still
  // reads as expelled (-> stale, rejoin) instead of merely unknown
  // (-> final not_authorized on the op_open path).
  EXPECT_TRUE(lm.known(1));
  EXPECT_TRUE(lm.expelled(1));
  EXPECT_FALSE(lm.renew(1, 1.0));
  ASSERT_EQ(lm.expelled_clients().size(), 1u);
  // Re-registration readmits as a fresh incarnation, as before.
  const std::uint64_t e = lm.register_client(1, 1.0);
  EXPECT_TRUE(lm.epoch_valid(1, e));
  EXPECT_FALSE(lm.expelled(1));
}

TEST(Token, TakeoverClearAndInstallRebuildTables) {
  TokenManager tm;
  tm.install(1, 10, LockMode::rw, TokenRange{0, 100});
  tm.install(2, 11, LockMode::ro, TokenRange{0, 50});
  EXPECT_EQ(tm.total_holdings(), 2u);
  EXPECT_TRUE(tm.holds(1, 10, TokenRange{0, 100}, LockMode::rw));
  tm.clear();
  EXPECT_EQ(tm.total_holdings(), 0u);
  EXPECT_FALSE(tm.holds(1, 10, TokenRange{0, 100}, LockMode::rw));
  // Rebuild from assertions: blind insert, no conflict check.
  tm.install(2, 10, LockMode::rw, TokenRange{0, 100});
  EXPECT_TRUE(tm.holds(2, 10, TokenRange{0, 100}, LockMode::rw));
}

// ---------------------------------------------------------------------
// MetaJournal unit tests
// ---------------------------------------------------------------------

TEST(Journal, FsyncCommitRetiresRecordsBelowCommittedSize) {
  MetaJournal j;
  j.log_alloc(1, 10, 0, BlockAddr{0, 5});
  j.log_alloc(1, 10, 1, BlockAddr{1, 5});
  j.log_alloc(1, 10, 2, BlockAddr{2, 5});
  EXPECT_EQ(j.uncommitted_count(1), 3u);
  j.commit_allocs(1, 10, 2);  // fsync committed blocks 0 and 1
  EXPECT_EQ(j.uncommitted_count(1), 1u);
  const auto tail = j.take_uncommitted(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].block, 2u);
  EXPECT_EQ(j.uncommitted_count(1), 0u);
  EXPECT_EQ(j.records_logged(), 3u);
}

TEST(Journal, CommitBlockRetiresOtherClientsRecords) {
  MetaJournal j;
  j.log_alloc(1, 10, 0, BlockAddr{0, 5});
  j.log_alloc(2, 10, 0, BlockAddr{0, 9});
  // Client 2 re-allocated (ino 10, block 0): client 1's pending undo
  // must not fire or it would free a block a survivor references.
  j.commit_block(10, 0, /*except=*/2);
  EXPECT_EQ(j.uncommitted_count(1), 0u);
  EXPECT_EQ(j.uncommitted_count(2), 1u);
}

TEST(Journal, ForgetInodeDropsPendingUndos) {
  MetaJournal j;
  j.log_alloc(1, 10, 0, BlockAddr{0, 5});
  j.log_alloc(1, 11, 0, BlockAddr{1, 5});
  j.forget_inode(10);  // unlink freed the blocks at namespace level
  EXPECT_EQ(j.uncommitted_count(1), 1u);
  EXPECT_EQ(j.take_uncommitted(1).front().ino, 11u);
}

TEST(Journal, TakeUncommittedReturnsNewestFirst) {
  MetaJournal j;
  j.log_alloc(1, 10, 0, BlockAddr{0, 1});
  j.log_alloc(1, 10, 1, BlockAddr{1, 2});
  j.log_alloc(1, 10, 2, BlockAddr{2, 3});
  const auto undo = j.take_uncommitted(1);
  ASSERT_EQ(undo.size(), 3u);
  EXPECT_GT(undo[0].lsn, undo[1].lsn);
  EXPECT_GT(undo[1].lsn, undo[2].lsn);
  EXPECT_EQ(undo[0].block, 2u);
  EXPECT_EQ(undo[2].block, 0u);
}

TEST(Journal, ClientsWithUncommittedListsEachClientOnce) {
  MetaJournal j;
  j.log_alloc(3, 10, 0, BlockAddr{0, 1});
  j.log_alloc(1, 10, 1, BlockAddr{1, 1});
  j.log_alloc(3, 11, 0, BlockAddr{2, 1});
  const std::vector<ClientId> clients = j.clients_with_uncommitted();
  ASSERT_EQ(clients.size(), 2u);
  EXPECT_EQ(clients[0], 1u);
  EXPECT_EQ(clients[1], 3u);
  j.take_uncommitted(3);
  ASSERT_EQ(j.clients_with_uncommitted().size(), 1u);
  EXPECT_EQ(j.clients_with_uncommitted()[0], 1u);
}

// ---------------------------------------------------------------------
// Integration: expel, replay, fencing, rejoin
// ---------------------------------------------------------------------

ClusterConfig short_lease_cfg() {
  ClusterConfig cfg;
  cfg.lease_duration = 0.5;
  cfg.lease_recovery_wait = 0.25;
  cfg.client.rpc_deadline = 0.2;
  return cfg;
}

/// The headline recovery scenario: a writer crashes holding rw tokens
/// over dirty, never-fsynced data. The manager expels it after the
/// lease recovery wait, replays its metadata journal (undoing the
/// allocate-ahead installs) and re-grants the ranges; survivors finish
/// within a few lease periods and fsck comes back clean.
TEST(LeaseIntegration, CrashedWriterExpelAndRecovery) {
  MiniCluster mc(6, 4, 1 * MiB, short_lease_cfg());
  Client* victim = mc.cluster ? mc.mount_on(2) : nullptr;
  Client* survivor = mc.mount_on(3);
  ASSERT_NE(victim, nullptr);
  ASSERT_NE(survivor, nullptr);

  auto vfh = mc.open(victim, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(vfh.ok());
  auto sfh = mc.open(survivor, "/f", kAlice, OpenFlags::rw());
  ASSERT_TRUE(sfh.ok());

  // Write-behind without fsync: the allocate-ahead journal records stay
  // uncommitted, and the victim holds rw tokens over the range.
  ASSERT_TRUE(mc.write(victim, *vfh, 0, 4 * MiB).ok());
  EXPECT_GT(mc.fs->shard_journal(0).uncommitted_count(victim->id()), 0u);
  const std::uint64_t old_epoch = victim->lease_epoch();
  EXPECT_GT(old_epoch, 0u);

  fault::FaultInjector inject(mc.net, Rng(11));
  inject.watch_pool(mc.cluster->connection_pool());
  inject.watch_cluster(*mc.cluster);
  const double crash_at = mc.sim.now();
  inject.schedule_node_crash(crash_at, mc.site.hosts[2], 2.0);

  // A survivor writes an overlapping range shortly after the crash: the
  // revoke goes unanswered, the manager waits out the lease, expels the
  // victim, replays its journal and grants the range.
  std::optional<Result<Bytes>> sw;
  double s_done_at = 0;
  mc.sim.after(0.01, [&] {
    survivor->write(*sfh, 0, 2 * MiB, [&](Result<Bytes> r) {
      sw = std::move(r);
      s_done_at = mc.sim.now();
    });
  });
  mc.sim.run();

  ASSERT_TRUE(sw.has_value());
  EXPECT_TRUE(sw->ok()) << (sw->ok() ? "" : sw->error().to_string());
  const ClusterConfig cfg = short_lease_cfg();
  EXPECT_LE(s_done_at - crash_at,
            3.0 * (cfg.lease_duration + cfg.lease_recovery_wait));
  EXPECT_GE(mc.fs->expels(), 1u);
  EXPECT_GE(mc.fs->suspects(), 1u);
  EXPECT_GE(mc.fs->journal_records_replayed(), 1u);
  EXPECT_TRUE(mc.fs->fsck().clean());

  // The restarted node lost its memory (crash_reset); its next I/O
  // discovers the lapse, rejoins under a fresh epoch and proceeds.
  auto r = mc.write(victim, *vfh, 4 * MiB, 1 * MiB);
  if (!r.ok()) {
    EXPECT_EQ(r.code(), Errc::stale);  // first op after expel
    r = mc.write(victim, *vfh, 4 * MiB, 1 * MiB);
  }
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().to_string());
  EXPECT_TRUE(mc.fsync(victim, *vfh).ok());
  EXPECT_GT(victim->lease_epoch(), old_epoch);
  EXPECT_GE(victim->lease_lapses(), 1u);
  EXPECT_TRUE(mc.fs->fsck().clean());

  // Satellite: counters surface through mmpmon / manager stats.
  const std::string vm = victim->mmpmon();
  EXPECT_NE(vm.find("_lse_"), std::string::npos);
  EXPECT_NE(vm.find("_lps_"), std::string::npos);
  const std::string ms = mc.fs->stats();
  EXPECT_NE(ms.find("_lse_"), std::string::npos);
  EXPECT_NE(ms.find("_sus_"), std::string::npos);
  EXPECT_NE(ms.find("_xpl_"), std::string::npos);
  EXPECT_NE(ms.find("_rpl_"), std::string::npos);
  EXPECT_NE(ms.find("_fnc_"), std::string::npos);
}

/// Epoch fencing: a blackholed (alive but mute) writer is expelled; when
/// the partition heals its late write-behind flush carries the dead
/// incarnation's epoch and must be rejected at the NSD server — no write
/// lands with an epoch older than the current grant.
TEST(LeaseIntegration, FencedLateWriteAfterPartitionHeals) {
  MiniCluster mc(6, 4, 1 * MiB, short_lease_cfg());
  Client* victim = mc.mount_on(2);
  Client* survivor = mc.mount_on(3);
  ASSERT_NE(victim, nullptr);
  ASSERT_NE(survivor, nullptr);

  auto vfh = mc.open(victim, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(vfh.ok());
  auto sfh = mc.open(survivor, "/f", kAlice, OpenFlags::rw());
  ASSERT_TRUE(sfh.ok());
  const std::uint64_t old_epoch = victim->lease_epoch();

  // Start a write but blackhole the victim before write-behind drains:
  // the dirty pages are stuck behind a mute network.
  std::optional<Result<Bytes>> vw;
  victim->write(*vfh, 0, 2 * MiB, [&](Result<Bytes> r) { vw = std::move(r); });
  mc.sim.run_until(mc.sim.now() + 0.015);
  fault::FaultInjector inject(mc.net, Rng(5));
  inject.schedule_blackhole(mc.sim.now(), mc.site.hosts[2], 1.5);

  // Survivor forces a revoke that the mute victim cannot ack; the
  // manager expels it after the lease runs out.
  std::optional<Result<Bytes>> sw;
  mc.sim.after(0.02, [&] {
    survivor->write(*sfh, 0, 1 * MiB, [&](Result<Bytes> r) {
      sw = std::move(r);
    });
  });
  mc.sim.run();

  ASSERT_TRUE(sw.has_value());
  EXPECT_TRUE(sw->ok()) << (sw->ok() ? "" : sw->error().to_string());
  EXPECT_GE(mc.fs->expels(), 1u);

  // After the heal the victim's late flush was fenced (stale epoch) and
  // it rejoined under a fresh epoch.
  EXPECT_GE(mc.fs->fenced_writes(), 1u);
  std::uint64_t nsd_fenced = 0;
  for (net::NodeId n : {mc.site.hosts[0], mc.site.hosts[1]}) {
    if (NsdServer* s = mc.cluster->server_on(n)) nsd_fenced += s->fenced_writes();
  }
  EXPECT_GE(nsd_fenced, 1u);
  EXPECT_GE(victim->fenced_writes(), 1u);
  EXPECT_GE(victim->lease_lapses(), 1u);
  EXPECT_GT(victim->lease_epoch(), old_epoch);
  EXPECT_TRUE(mc.fs->fsck().clean());

  // The rejoined victim is a full citizen again.
  ASSERT_TRUE(mc.write(victim, *vfh, 4 * MiB, 1 * MiB).ok());
  EXPECT_TRUE(mc.fsync(victim, *vfh).ok());
  EXPECT_TRUE(mc.fs->fsck().clean());
}

/// churn_node restart used to leak the dead incarnation's state; now the
/// restart expels the old incarnation (journal replay, token reclaim)
/// and re-admits the client under a fresh epoch with cleared caches.
TEST(LeaseIntegration, ChurnedNodeReregistersAsNewIncarnation) {
  MiniCluster mc;  // default generous leases: restart, not lapse
  Client* c = mc.mount_on(2);
  ASSERT_NE(c, nullptr);
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(mc.write(c, *fh, 0, 3 * MiB).ok());
  EXPECT_GT(mc.fs->shard_journal(0).uncommitted_count(c->id()), 0u);
  const std::uint64_t old_epoch = c->lease_epoch();

  fault::FaultInjector inject(mc.net, Rng(9));
  inject.watch_pool(mc.cluster->connection_pool());
  inject.watch_cluster(*mc.cluster);
  inject.schedule_node_crash(mc.sim.now(), mc.site.hosts[2], 0.3);
  mc.sim.run();

  // Restart expelled the dead incarnation and re-registered the client.
  EXPECT_GE(mc.fs->expels(), 1u);
  EXPECT_GE(mc.fs->journal_records_replayed(), 1u);
  EXPECT_GT(c->lease_epoch(), old_epoch);
  EXPECT_EQ(mc.fs->shard_journal(0).uncommitted_count(c->id()), 0u);
  EXPECT_EQ(mc.cluster->mounted_clients(), 1u);
  EXPECT_TRUE(mc.fs->fsck().clean());

  // The fresh incarnation works without manual remount.
  ASSERT_TRUE(mc.write(c, *fh, 0, 2 * MiB).ok());
  EXPECT_TRUE(mc.fsync(c, *fh).ok());
  EXPECT_TRUE(mc.fs->fsck().clean());
}

/// An fsync never reports durable what a lapse dropped. The client is
/// expelled while its write-behind is on the wire: the gate fences the
/// flush, the client drops the dirty pages and lapses its lease, and the
/// fsync waiting on them answers stale, not OK.
TEST(LeaseIntegration, FsyncFencedAfterExpelAnswersStale) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  std::optional<Result<Bytes>> w;
  c->write(*fh, 0, 4 * MiB, [&](Result<Bytes> r) { w = std::move(r); });
  while (!w.has_value() && mc.sim.step()) {
  }
  ASSERT_TRUE(w.has_value() && w->ok());
  mc.fs->expel_client(c->id(), "test: lease lapsed");

  std::optional<Status> synced;
  c->fsync(*fh, [&](Status st) { synced = st; });
  mc.sim.run();
  ASSERT_TRUE(synced.has_value());
  EXPECT_EQ(synced->code(), Errc::stale) << synced->to_string();
  EXPECT_GE(c->fenced_writes(), 1u);
  EXPECT_GE(c->lease_lapses(), 1u);
}

/// An expel racing a voluntary (revoke-driven) release must not wedge
/// the waiter or corrupt token state, and double expels are idempotent.
/// The victim is mid-flush acking a revoke when the expel fires, so the
/// late release lands on holdings release_all already reclaimed.
/// An expelled client's namespace writes answer stale, like its opens:
/// the expel dropped its mount record too, but that is a lease problem,
/// not an authorization one, and stale is what makes it rejoin.
TEST(LeaseIntegration, ExpelledNamespaceWritesAnswerStale) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(mc.close(c, *fh).ok());
  mc.fs->expel_client(c->id(), "test: lease lapsed");

  EXPECT_EQ(mc.fs->op_unlink("/f", kAlice, c->id(), 1).code(), Errc::stale);
  EXPECT_EQ(mc.fs->op_mkdir("/d", kAlice, Mode{077}, c->id()).code(),
            Errc::stale);
  EXPECT_EQ(mc.fs->op_rename("/f", "/g", kAlice, c->id()).code(),
            Errc::stale);
  EXPECT_TRUE(mc.fs->ns().resolve("/f").ok());
  EXPECT_FALSE(mc.fs->ns().resolve("/d").ok());
  EXPECT_FALSE(mc.fs->ns().resolve("/g").ok());
}

/// The client side of the same answer: an expelled client's unlink fails
/// stale, which lapses its lease and rejoins it, so a retried unlink
/// runs.
TEST(LeaseIntegration, ExpelledUnlinkLapsesAndRetriedUnlinkRuns) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(mc.close(c, *fh).ok());
  mc.fs->expel_client(c->id(), "test: lease lapsed");

  std::optional<Status> first;
  c->unlink("/f", kAlice, [&](Status st) { first = st; });
  mc.sim.run();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->code(), Errc::stale) << first->to_string();
  EXPECT_EQ(c->lease_lapses(), 1u);

  std::optional<Status> again;
  c->unlink("/f", kAlice, [&](Status st) { again = st; });
  mc.sim.run();
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(again->ok()) << again->to_string();
  EXPECT_FALSE(mc.fs->ns().resolve("/f").ok());
}

TEST(LeaseIntegration, ExpelRacingVoluntaryReleaseIsSafe) {
  MiniCluster mc;
  Client* victim = mc.mount_on(2);
  Client* survivor = mc.mount_on(3);
  auto vfh = mc.open(victim, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(vfh.ok());
  auto sfh = mc.open(survivor, "/f", kAlice, OpenFlags::rw());
  ASSERT_TRUE(sfh.ok());

  // Stage a large dirty window so the revoke ack takes a long flush.
  std::optional<Result<Bytes>> vw;
  victim->write(*vfh, 0, 8 * MiB, [&](Result<Bytes> r) { vw = std::move(r); });
  mc.sim.run_until(mc.sim.now() + 0.01);

  std::optional<Result<Bytes>> sw;
  survivor->write(*sfh, 0, 1 * MiB, [&](Result<Bytes> r) { sw = std::move(r); });
  mc.sim.after(0.02, [&] {
    mc.fs->expel_client(victim->id(), "test race");
    // Double expel before the victim can rejoin: idempotent, counted once.
    mc.fs->expel_client(victim->id(), "test: double expel");
    EXPECT_EQ(mc.fs->expels(), 1u);
  });
  mc.sim.run();

  ASSERT_TRUE(sw.has_value());
  EXPECT_TRUE(sw->ok()) << (sw->ok() ? "" : sw->error().to_string());
  EXPECT_GE(mc.fs->expels(), 1u);
  EXPECT_TRUE(mc.fs->fsck().clean());
}

/// Tokens of an expelled client are reclaimed even when no revoke is in
/// flight: a later acquire that overlaps its stale holdings proceeds
/// because expel ran release_all.
TEST(LeaseIntegration, ExpelReleasesAllHoldings) {
  MiniCluster mc;
  Client* victim = mc.mount_on(2);
  Client* survivor = mc.mount_on(3);
  auto vfh = mc.open(victim, "/a", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(vfh.ok());
  auto vfh2 = mc.open(victim, "/b", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(vfh2.ok());
  ASSERT_TRUE(mc.write(victim, *vfh, 0, 1 * MiB).ok());
  ASSERT_TRUE(mc.write(victim, *vfh2, 0, 1 * MiB).ok());
  ASSERT_TRUE(mc.fsync(victim, *vfh).ok());
  ASSERT_TRUE(mc.fsync(victim, *vfh2).ok());
  EXPECT_GT(mc.fs->shard_tokens(0).total_holdings(), 0u);

  mc.fs->expel_client(victim->id(), "test");
  mc.sim.run();

  // Both files' ranges re-grant to the survivor without any revoke
  // round (the expel already ran release_all).
  const std::uint64_t revokes_before = mc.fs->revocations();
  auto sfh = mc.open(survivor, "/a", kAlice, OpenFlags::rw());
  ASSERT_TRUE(sfh.ok());
  auto sfh2 = mc.open(survivor, "/b", kAlice, OpenFlags::rw());
  ASSERT_TRUE(sfh2.ok());
  EXPECT_TRUE(mc.write(survivor, *sfh, 0, 1 * MiB).ok());
  EXPECT_TRUE(mc.write(survivor, *sfh2, 0, 1 * MiB).ok());
  EXPECT_EQ(mc.fs->revocations(), revokes_before);
  EXPECT_TRUE(mc.fs->fsck().clean());
}

// ---------------------------------------------------------------------
// Integration: manager takeover (DESIGN.md §6 state machine)
// ---------------------------------------------------------------------

/// The headline takeover scenario: the manager node crashes while two
/// clients hold tokens; the lowest-id live node takes the role, rebuilds
/// the token tables from client assertions, and in-flight I/O reroutes
/// and completes — the manager is no longer a single point of failure.
TEST(LeaseIntegration, ManagerCrashElectsSuccessorAndRebuildsTokens) {
  MiniCluster mc(6, 4, 1 * MiB, short_lease_cfg());
  Client* a = mc.mount_on(2);
  Client* b = mc.mount_on(3);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  auto afh = mc.open(a, "/a", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(afh.ok());
  auto bfh = mc.open(b, "/b", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(bfh.ok());
  ASSERT_TRUE(mc.write(a, *afh, 0, 2 * MiB).ok());
  ASSERT_TRUE(mc.fsync(a, *afh).ok());
  ASSERT_TRUE(mc.write(b, *bfh, 0, 2 * MiB).ok());
  ASSERT_TRUE(mc.fsync(b, *bfh).ok());

  fault::FaultInjector inject(mc.net, Rng(17));
  inject.watch_pool(mc.cluster->connection_pool());
  inject.watch_cluster(*mc.cluster);
  const double crash_at = mc.sim.now();
  inject.schedule_crash_manager(crash_at, *mc.fs, 0.4);

  // A write needing fresh allocation right after the crash: its
  // metadata RPC reports the dead manager, triggers the election, then
  // reroutes to the successor and completes.
  std::optional<Result<Bytes>> aw;
  double a_done_at = 0;
  mc.sim.after(0.01, [&] {
    a->write(*afh, 2 * MiB, 2 * MiB, [&](Result<Bytes> r) {
      aw = std::move(r);
      a_done_at = mc.sim.now();
    });
  });
  mc.sim.run();

  ASSERT_TRUE(aw.has_value());
  EXPECT_TRUE(aw->ok()) << (aw->ok() ? "" : aw->error().to_string());
  EXPECT_EQ(inject.manager_crashes(), 1u);
  EXPECT_EQ(mc.fs->manager_takeovers(), 1u);
  EXPECT_EQ(mc.fs->manager_node(0), mc.site.hosts[0]);  // lowest live id
  EXPECT_EQ(mc.fs->manager_epoch(0), 2u);
  EXPECT_GE(mc.fs->assertions_rebuilt(), 2u);  // both clients reasserted
  EXPECT_EQ(mc.fs->expels(), 0u);  // every member answered the rebuild
  const ClusterConfig cfg = short_lease_cfg();
  ASSERT_GE(mc.fs->last_takeover_at(), crash_at);
  EXPECT_LE(mc.fs->last_takeover_at() - crash_at,
            3.0 * (cfg.lease_duration + cfg.lease_recovery_wait));
  EXPECT_LE(a_done_at - crash_at,
            3.0 * (cfg.lease_duration + cfg.lease_recovery_wait));
  EXPECT_GE(a->mgr_takeovers(), 1u);
  EXPECT_GE(b->mgr_takeovers(), 1u);  // adopted the view when reasserting
  EXPECT_GE(a->mgr_reroutes(), 1u);
  EXPECT_TRUE(mc.fsync(a, *afh).ok());
  EXPECT_TRUE(mc.fs->fsck().clean());

  // Satellite: takeover counters surface in mmpmon / manager stats.
  const std::string am = a->mmpmon();
  EXPECT_NE(am.find("_mto_"), std::string::npos);
  EXPECT_NE(am.find("_mrr_"), std::string::npos);
  const std::string ms = mc.fs->stats();
  EXPECT_NE(ms.find("_mto_"), std::string::npos);
  EXPECT_NE(ms.find("_rba_"), std::string::npos);
  EXPECT_NE(ms.find("_smf_"), std::string::npos);
}

/// Takeover races an expel already in flight: a blackholed writer with
/// dirty data is mid-revoke (survivor waiting) when the manager node
/// crashes. The successor marks the mute writer a lapsed suspect, the
/// survivor's blocked acquire reroutes and completes, the writer is
/// expelled by the normal sweep and its journal replayed — and its late
/// flush, still stamped with the deposed manager's epoch, is fenced at
/// the NSD servers.
TEST(LeaseIntegration, ManagerCrashDuringExpelStillExpelsAndFences) {
  MiniCluster mc(6, 4, 1 * MiB, short_lease_cfg());
  Client* victim = mc.mount_on(2);
  Client* survivor = mc.mount_on(3);
  ASSERT_NE(victim, nullptr);
  ASSERT_NE(survivor, nullptr);
  auto vfh = mc.open(victim, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(vfh.ok());
  auto sfh = mc.open(survivor, "/f", kAlice, OpenFlags::rw());
  ASSERT_TRUE(sfh.ok());

  // Victim stages dirty, never-fsynced data (uncommitted journal
  // records, rw tokens), then goes mute before write-behind drains.
  std::optional<Result<Bytes>> vw;
  victim->write(*vfh, 0, 4 * MiB, [&](Result<Bytes> r) { vw = std::move(r); });
  mc.sim.run_until(mc.sim.now() + 0.015);
  EXPECT_GT(mc.fs->shard_journal(0).uncommitted_count(victim->id()), 0u);
  fault::FaultInjector inject(mc.net, Rng(23));
  inject.watch_pool(mc.cluster->connection_pool());
  inject.watch_cluster(*mc.cluster);
  inject.schedule_blackhole(mc.sim.now(), mc.site.hosts[2], 2.0);

  // Survivor forces a revoke the mute victim cannot ack; while the
  // manager waits out the lease, its own node crashes.
  std::optional<Result<Bytes>> sw;
  mc.sim.after(0.02, [&] {
    survivor->write(*sfh, 0, 2 * MiB,
                    [&](Result<Bytes> r) { sw = std::move(r); });
  });
  inject.schedule_crash_manager(0.3, *mc.fs, 0.5);
  // A late survivor fsync: commits its records and, as a manager op,
  // drives the lease sweep that expels the still-mute victim.
  std::optional<Status> sfs;
  mc.sim.after(1.2, [&] {
    survivor->fsync(*sfh, [&](Status s) { sfs = s; });
  });
  mc.sim.run();

  ASSERT_TRUE(sw.has_value());
  EXPECT_TRUE(sw->ok()) << (sw->ok() ? "" : sw->error().to_string());
  ASSERT_TRUE(sfs.has_value());
  EXPECT_TRUE(sfs->ok()) << sfs->to_string();
  EXPECT_EQ(mc.fs->manager_takeovers(), 1u);
  EXPECT_GE(mc.fs->expels(), 1u);  // the mute victim, via the sweep
  EXPECT_GE(mc.fs->journal_records_replayed(), 1u);
  EXPECT_EQ(mc.fs->shard_journal(0).uncommitted_count(victim->id()), 0u);
  // The healed victim's flush carried manager epoch 1 against a
  // filesystem now at epoch 2: fenced as stale-manager traffic.
  EXPECT_GE(mc.fs->stale_manager_fenced(), 1u);
  EXPECT_GE(victim->fenced_writes(), 1u);
  EXPECT_GE(victim->mgr_takeovers(), 1u);  // adopted epoch 2 on rejoin
  EXPECT_TRUE(mc.fs->fsck().clean());

  // The rejoined victim is a full citizen under the new incarnation.
  auto r = mc.write(victim, *vfh, 4 * MiB, 1 * MiB);
  if (!r.ok()) {
    EXPECT_EQ(r.code(), Errc::stale);
    r = mc.write(victim, *vfh, 4 * MiB, 1 * MiB);
  }
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().to_string());
  EXPECT_TRUE(mc.fsync(victim, *vfh).ok());
  EXPECT_TRUE(mc.fs->fsck().clean());
}

/// Takeover with a dead token holder: the rebuild's assertion query to
/// the crashed writer fast-fails node-down, so the successor expels it
/// *during* the takeover itself — journal replayed, tokens reclaimed —
/// and the survivor's blocked write completes without waiting out the
/// full lease.
TEST(LeaseIntegration, TakeoverExpelsDeadHolderDuringRebuild) {
  MiniCluster mc(6, 4, 1 * MiB, short_lease_cfg());
  Client* victim = mc.mount_on(2);
  Client* survivor = mc.mount_on(3);
  ASSERT_NE(victim, nullptr);
  ASSERT_NE(survivor, nullptr);
  auto vfh = mc.open(victim, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(vfh.ok());
  auto sfh = mc.open(survivor, "/f", kAlice, OpenFlags::rw());
  ASSERT_TRUE(sfh.ok());
  ASSERT_TRUE(mc.write(victim, *vfh, 0, 4 * MiB).ok());
  EXPECT_GT(mc.fs->shard_journal(0).uncommitted_count(victim->id()), 0u);

  fault::FaultInjector inject(mc.net, Rng(29));
  inject.watch_pool(mc.cluster->connection_pool());
  inject.watch_cluster(*mc.cluster);
  // Victim node and manager node die together (a rack loss).
  inject.schedule_node_crash(mc.sim.now(), mc.site.hosts[2], 3.0);
  inject.schedule_crash_manager(mc.sim.now() + 0.05, *mc.fs, 0.5);

  std::optional<Result<Bytes>> sw;
  mc.sim.after(0.1, [&] {
    survivor->write(*sfh, 0, 2 * MiB,
                    [&](Result<Bytes> r) { sw = std::move(r); });
  });
  mc.sim.run();

  ASSERT_TRUE(sw.has_value());
  EXPECT_TRUE(sw->ok()) << (sw->ok() ? "" : sw->error().to_string());
  EXPECT_EQ(mc.fs->manager_takeovers(), 1u);
  EXPECT_GE(mc.fs->expels(), 1u);
  EXPECT_GE(mc.fs->journal_records_replayed(), 1u);
  EXPECT_EQ(mc.fs->shard_journal(0).uncommitted_count(victim->id()), 0u);
  EXPECT_TRUE(mc.fs->fsck().clean());
}

/// A mute-but-alive client whose partition heals *inside* the recovery
/// wait must not renew its way back in after a takeover: its tokens were
/// wiped in the rebuild and never reasserted, so the successor answers
/// its renewal with stale, and the client rejoins — caches discarded,
/// fresh lease epoch — instead of serving stale cache under a happily
/// renewing lease (the read-mostly client would otherwise never
/// recover, unlike writers which hit the write fence).
TEST(LeaseIntegration, HealedRebuildNonResponderMustRejoinNotRenew) {
  MiniCluster mc(6, 4, 1 * MiB, short_lease_cfg());
  Client* victim = mc.mount_on(2);
  Client* survivor = mc.mount_on(3);
  ASSERT_NE(victim, nullptr);
  ASSERT_NE(survivor, nullptr);
  auto vfh = mc.open(victim, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(vfh.ok());
  auto sfh = mc.open(survivor, "/f", kAlice, OpenFlags::rw());
  ASSERT_TRUE(sfh.ok());
  // The victim is a clean, read-mostly token holder: everything fsynced,
  // nothing dirty, so no write fence will ever push it into recovery.
  ASSERT_TRUE(mc.write(victim, *vfh, 0, 1 * MiB).ok());
  ASSERT_TRUE(mc.fsync(victim, *vfh).ok());
  const std::uint64_t old_epoch = victim->lease_epoch();

  fault::FaultInjector inject(mc.net, Rng(31));
  inject.watch_pool(mc.cluster->connection_pool());
  inject.watch_cluster(*mc.cluster);
  const double t0 = mc.sim.now();
  // Victim goes mute just before the manager dies, and heals shortly
  // after the rebuild gave up on it (assert deadline = recovery_wait)
  // but well before its lapsed-suspect entry becomes expel-due.
  inject.schedule_blackhole(t0, mc.site.hosts[2], 0.35);
  inject.schedule_crash_manager(t0 + 0.01, *mc.fs, 0.5);

  // Survivor op drives election + rebuild; the mute victim's assertion
  // query times out and it is installed as a must-rejoin lapsed suspect.
  std::optional<Result<StatInfo>> ss;
  mc.sim.after(0.05, [&] {
    survivor->stat("/f", [&](Result<StatInfo> r) { ss = std::move(r); });
  });
  // After the heal the victim reads from cache; the piggybacked renewal
  // is answered stale, driving discard-caches + rejoin.
  std::optional<Result<Bytes>> vr;
  mc.sim.after(0.45, [&] {
    victim->read(*vfh, 0, 1 * MiB,
                 [&](Result<Bytes> r) { vr = std::move(r); });
  });
  mc.sim.run();

  ASSERT_TRUE(ss.has_value());
  EXPECT_TRUE(ss->ok()) << (ss->ok() ? "" : ss->error().to_string());
  ASSERT_TRUE(vr.has_value());
  EXPECT_TRUE(vr->ok()) << (vr->ok() ? "" : vr->error().to_string());
  EXPECT_EQ(mc.fs->manager_takeovers(), 1u);
  // The renewal was refused and the victim rejoined as a fresh
  // incarnation — no expel was ever needed, and no lease is left
  // renewing over wiped token state.
  EXPECT_GE(victim->lease_lapses(), 1u);
  EXPECT_GT(victim->lease_epoch(), old_epoch);
  EXPECT_GE(victim->mgr_takeovers(), 1u);
  EXPECT_TRUE(mc.fs->fsck().clean());

  // Full citizen again: tokens re-acquired under the new incarnation.
  ASSERT_TRUE(mc.write(victim, *vfh, 1 * MiB, 1 * MiB).ok());
  EXPECT_TRUE(mc.fsync(victim, *vfh).ok());
  EXPECT_TRUE(mc.fs->fsck().clean());
}

/// Fencing the deposed incarnation directly: after a takeover, grants
/// and revokes still stamped with the old manager epoch are rejected by
/// clients as stale (the revoke's completion must not fire), while
/// current-epoch traffic is honoured.
TEST(LeaseIntegration, DeposedManagerGrantsAndRevokesAreFenced) {
  MiniCluster mc(6, 4, 1 * MiB, short_lease_cfg());
  Client* a = mc.mount_on(2);
  ASSERT_NE(a, nullptr);
  auto afh = mc.open(a, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(afh.ok());
  ASSERT_TRUE(mc.write(a, *afh, 0, 1 * MiB).ok());
  ASSERT_TRUE(mc.fsync(a, *afh).ok());
  const InodeNum ino = mc.fs->ns().stat("/f")->ino;
  const std::uint64_t old_epoch = mc.fs->manager_epoch(0);
  ASSERT_EQ(old_epoch, 1u);

  // Depose the manager, then resurrect the node after the takeover.
  mc.net.set_node_up(mc.site.hosts[1], false);
  ASSERT_TRUE(mc.stat(a, "/f").ok());  // drives election + rebuild
  ASSERT_EQ(mc.fs->manager_epoch(0), old_epoch + 1);
  mc.net.set_node_up(mc.site.hosts[1], true);

  // The resurrected incarnation's grant is rejected...
  EXPECT_FALSE(a->deliver_manager_grant(ino, TokenRange{0, 1 * MiB},
                                        LockMode::rw, old_epoch));
  // ...and so is its revoke: rejected without running the completion
  // (a deposed manager must not be able to shrink current holdings).
  bool done_fired = false;
  EXPECT_FALSE(a->handle_revoke(ino, TokenRange{0, 1 * MiB}, old_epoch,
                                [&] { done_fired = true; }));
  EXPECT_FALSE(done_fired);
  EXPECT_GE(a->stale_mgr_rejects(), 2u);
  // Current-epoch traffic is honoured.
  EXPECT_TRUE(a->deliver_manager_grant(ino, TokenRange{0, 1 * MiB},
                                       LockMode::rw, mc.fs->manager_epoch(0)));
  const std::string am = a->mmpmon();
  EXPECT_NE(am.find("_smg_"), std::string::npos);
}

}  // namespace
}  // namespace mgfs::gpfs
