// Metadata sharding: multi-manager token domains, per-shard failover,
// cross-shard namespace ops, batched lease heartbeats and metanode
// delegation (DESIGN.md, "sharded metadata plane").
//
// The integration tests run a 4-shard MiniCluster with the short lease
// config so a shard-manager crash → report → election → rebuild cycle
// fits in a couple of simulated seconds, and crash only the *data*
// shards' managers (hosts 4/5) so the lease home (shard 0) keeps
// serving heartbeats throughout.

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "gpfs/lease.hpp"
#include "gpfs_test_util.hpp"

namespace mgfs::gpfs {
namespace {

using testutil::kAlice;
using testutil::MiniCluster;

ClusterConfig shard_cfg(std::uint32_t shards = 4) {
  ClusterConfig cfg;
  cfg.meta_shards = shards;
  cfg.lease_duration = 0.5;
  cfg.lease_recovery_wait = 0.25;
  cfg.client.rpc_deadline = 0.2;
  return cfg;
}

/// Seat shard managers: shard 0 (the lease home) on the default manager
/// host 1, shard 1 on NSD server host 0, shards 2/3 on the otherwise
/// idle hosts 4/5 — the ones the crash tests kill without taking down
/// an NSD service or the lease home.
void seat_managers(MiniCluster& mc) {
  ASSERT_EQ(mc.fs->shard_count(), 4u);
  mc.cluster->set_shard_managers(
      *mc.fs, {mc.site.hosts[1], mc.site.hosts[0], mc.site.hosts[4],
               mc.site.hosts[5]});
}

/// First path of the form /f<i> whose namespace ops route to `shard`.
std::string path_in_shard(FileSystem* fs, std::uint32_t shard,
                          std::uint32_t salt = 0) {
  for (std::uint32_t i = salt; i < salt + 1000; ++i) {
    const std::string p = "/f" + std::to_string(i);
    if (fs->shard_of_path(p) == shard) return p;
  }
  ADD_FAILURE() << "no path found for shard " << shard;
  return "/f0";
}

// ---------------------------------------------------------------------
// Routing and the single-shard collapse
// ---------------------------------------------------------------------

TEST(ShardRouting, InodesAndPathsSpreadAcrossDomains) {
  MiniCluster mc(6, 4, 1 * MiB, shard_cfg());
  seat_managers(mc);

  // Undelegated inodes hash by modulo; paths by a string hash. Both
  // must be deterministic and in range.
  for (InodeNum ino = 1; ino <= 16; ++ino) {
    EXPECT_EQ(mc.fs->shard_of(ino), ino % 4);
  }
  std::vector<bool> hit(4, false);
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s = mc.fs->shard_of_path("/d" + std::to_string(i));
    ASSERT_LT(s, 4u);
    hit[s] = true;
  }
  for (int s = 0; s < 4; ++s) {
    EXPECT_TRUE(hit[s]) << "no path hashed to shard " << s;
  }

  // Distinct manager seats took effect.
  EXPECT_EQ(mc.fs->manager_node(0), mc.site.hosts[1]);
  EXPECT_EQ(mc.fs->manager_node(2), mc.site.hosts[4]);

  // Traffic across all domains works end to end.
  Client* c = mc.mount_on(2);
  ASSERT_NE(c, nullptr);
  for (std::uint32_t s = 0; s < 4; ++s) {
    const std::string p = path_in_shard(mc.fs, s);
    auto fh = mc.open(c, p, kAlice, OpenFlags::create_rw());
    ASSERT_TRUE(fh.ok()) << p;
    ASSERT_TRUE(mc.write(c, *fh, 0, 1 * MiB).ok());
    ASSERT_TRUE(mc.fsync(c, *fh).ok());
    ASSERT_TRUE(mc.close(c, *fh).ok());
  }
  EXPECT_TRUE(mc.fs->fsck().clean());

  // mmpmon-style stats grow per-shard lines only in sharded mode.
  const std::string ms = mc.fs->stats();
  EXPECT_NE(ms.find("shard 0:"), std::string::npos);
  EXPECT_NE(ms.find("shard 3:"), std::string::npos);
  EXPECT_NE(ms.find("_dlg_"), std::string::npos);
}

// ---------------------------------------------------------------------
// Shard crash during a cross-shard rename
// ---------------------------------------------------------------------

/// Rename's source routes to one domain, its destination to another.
/// Crash the destination domain's manager: the rename must stall behind
/// that shard's rebuild (retryable, not failed), complete once the
/// takeover finishes, and leave the namespace + journal slices clean.
TEST(ShardFailover, CrossShardRenameStallsOnCrashedDestinationShard) {
  MiniCluster mc(6, 4, 1 * MiB, shard_cfg());
  seat_managers(mc);
  Client* a = mc.mount_on(2);
  Client* b = mc.mount_on(3);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  // Source in a live domain (shard 1), destination in the domain whose
  // manager (host 4, shard 2) is about to die.
  const std::string from = path_in_shard(mc.fs, 1);
  const std::string to = path_in_shard(mc.fs, 2, 2000);
  auto fh = mc.open(a, from, kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(mc.write(a, *fh, 0, 1 * MiB).ok());
  ASSERT_TRUE(mc.fsync(a, *fh).ok());
  ASSERT_TRUE(mc.close(a, *fh).ok());

  fault::FaultInjector inject(mc.net, Rng(7));
  inject.watch_pool(mc.cluster->connection_pool());
  inject.watch_cluster(*mc.cluster);
  const double t0 = mc.sim.now();
  inject.schedule_node_crash(t0 + 0.01, mc.site.hosts[4], 10.0);

  // An op routed at shard 2 finds the dead manager and drives the
  // election (lease checks are lazy; somebody has to knock).
  std::optional<Result<StatInfo>> probe;
  mc.sim.after(0.03, [&] {
    b->stat(to, [&](Result<StatInfo> r) { probe = std::move(r); });
  });

  // Fire the rename mid-rebuild: op_rename gates on BOTH path domains,
  // so it must answer retryable gated and redrive, not fail.
  std::optional<Status> rn;
  bool fired = false;
  std::function<void()> poll = [&] {
    if (!fired && mc.fs->shard_recovering(2)) {
      fired = true;
      a->rename(from, to, kAlice, [&](Status st) { rn = std::move(st); });
      return;
    }
    if (mc.sim.now() < t0 + 5.0) mc.sim.after(0.0005, poll);
  };
  mc.sim.after(0.0, poll);
  mc.sim.run();

  ASSERT_TRUE(fired) << "shard 2 takeover never started";
  ASSERT_TRUE(rn.has_value());
  EXPECT_TRUE(rn->ok()) << rn->to_string();

  // Only the crashed domain failed over; its epoch is fenced forward.
  EXPECT_EQ(mc.fs->shard_takeovers(2), 1u);
  EXPECT_EQ(mc.fs->manager_epoch(2), 2u);
  EXPECT_EQ(mc.fs->shard_takeovers(0), 0u);
  EXPECT_EQ(mc.fs->shard_takeovers(1), 0u);
  EXPECT_EQ(mc.fs->manager_epoch(0), 1u);
  EXPECT_FALSE(mc.fs->manager_node(2) == mc.site.hosts[4]);

  // The rename really happened, across both journal slices, cleanly.
  EXPECT_TRUE(mc.stat(a, to).ok());
  EXPECT_FALSE(mc.stat(a, from).ok());
  EXPECT_TRUE(mc.fs->fsck().clean());
}

/// A takeover drops a reader's clean tokens, so nothing will revoke
/// what it cached under them: the block map there must go too. Here a
/// random reader has the hole at blocks [150, 160) cached when shard 2
/// fails over; a writer then fills block 155 with no revoke reaching the
/// reader, whose next read of it must fetch the data, not serve a hole.
TEST(ShardFailover, TakeoverForgetsReaderBlockMap) {
  constexpr Bytes kBs = 64 * KiB;
  // Leases outlast the drill: the idle reader and writer stay members.
  ClusterConfig cfg = shard_cfg();
  cfg.lease_duration = 60.0;
  MiniCluster mc(6, 4, kBs, cfg);
  seat_managers(mc);
  Client* a = mc.mount_on(2);
  ASSERT_NE(a, nullptr);
  std::string path;
  std::optional<Result<Fh>> fa;
  for (int i = 0; path.empty() && i < 64; ++i) {
    const std::string p = "/sparse" + std::to_string(i);
    auto fh = mc.open(a, p, kAlice, OpenFlags::create_rw());
    ASSERT_TRUE(fh.ok());
    if (mc.fs->shard_of(*mc.fs->ns().resolve(p)) == 2) {
      path = p;
      fa = fh;
    } else {
      ASSERT_TRUE(mc.close(a, *fh).ok());
    }
  }
  ASSERT_FALSE(path.empty());
  ASSERT_TRUE(mc.write(a, **fa, 0, 150 * kBs).ok());
  ASSERT_TRUE(mc.write(a, **fa, 160 * kBs, 140 * kBs).ok());
  ASSERT_TRUE(mc.close(a, **fa).ok());
  mc.cluster->unmount(a);

  Client* r = mc.mount_on(3);
  ASSERT_NE(r, nullptr);
  auto fr = mc.open(r, path, kAlice, OpenFlags::ro());
  ASSERT_TRUE(fr.ok());
  ASSERT_TRUE(mc.read(r, *fr, 10 * kBs, kBs).ok());   // cold
  ASSERT_TRUE(mc.read(r, *fr, 250 * kBs, kBs).ok());  // random
  ASSERT_TRUE(mc.read(r, *fr, 120 * kBs, kBs).ok());  // random
  Client* w = mc.mount_on(2);
  ASSERT_NE(w, nullptr);
  auto fw = mc.open(w, path, kAlice, OpenFlags::rw());
  ASSERT_TRUE(fw.ok());

  fault::FaultInjector inject(mc.net, Rng(29));
  inject.watch_pool(mc.cluster->connection_pool());
  inject.watch_cluster(*mc.cluster);
  inject.schedule_node_crash(mc.sim.now() + 0.01, mc.site.hosts[4], 10.0);
  std::optional<Result<StatInfo>> probe;
  mc.sim.after(0.03, [&] {
    r->stat(path_in_shard(mc.fs, 2),
            [&](Result<StatInfo> res) { probe = std::move(res); });
  });
  mc.sim.run();
  ASSERT_EQ(mc.fs->shard_takeovers(2), 1u);
  ASSERT_FALSE(mc.fs->recovering());
  ASSERT_EQ(r->lease_lapses(), 0u);
  const InodeNum ino = *mc.fs->ns().resolve(path);
  for (const Holding& h : mc.fs->shard_tokens(0).holdings(ino)) {
    EXPECT_NE(h.client, r->id()) << "the takeover kept a clean token";
  }

  const std::uint64_t revocations = mc.fs->revocations();
  auto wr = mc.write(w, *fw, 155 * kBs, kBs);
  ASSERT_TRUE(wr.ok()) << wr.error().to_string();
  ASSERT_TRUE(mc.fsync(w, *fw).ok());
  EXPECT_EQ(mc.fs->revocations(), revocations);  // the reader held nothing

  const Bytes fetched = r->bytes_read_remote();
  ASSERT_TRUE(mc.read(r, *fr, 155 * kBs, kBs).ok());
  EXPECT_EQ(r->bytes_read_remote() - fetched, kBs);
}

// ---------------------------------------------------------------------
// Concurrent takeover of two shards
// ---------------------------------------------------------------------

/// Two domain managers die at once. Each shard elects and rebuilds
/// independently; the lease home and shard 1 never stop serving, and
/// both rebuilds converge without deadlocking on each other.
TEST(ShardFailover, TwoShardsFailOverConcurrently) {
  MiniCluster mc(6, 4, 1 * MiB, shard_cfg());
  seat_managers(mc);
  Client* a = mc.mount_on(2);
  Client* b = mc.mount_on(3);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  const std::string p2 = path_in_shard(mc.fs, 2);
  const std::string p3 = path_in_shard(mc.fs, 3);

  fault::FaultInjector inject(mc.net, Rng(13));
  inject.watch_pool(mc.cluster->connection_pool());
  inject.watch_cluster(*mc.cluster);
  const double t0 = mc.sim.now();
  inject.schedule_node_crash(t0 + 0.01, mc.site.hosts[4], 10.0);
  inject.schedule_node_crash(t0 + 0.01, mc.site.hosts[5], 10.0);

  // One client knocks on each dead domain; both ops must eventually
  // complete against the successors.
  std::optional<Result<Fh>> f2, f3;
  mc.sim.after(0.03, [&] {
    a->open(p2, kAlice, OpenFlags::create_rw(),
            [&](Result<Fh> r) { f2 = std::move(r); });
    b->open(p3, kAlice, OpenFlags::create_rw(),
            [&](Result<Fh> r) { f3 = std::move(r); });
  });

  // Witness both rebuilds overlapping in time at least once is too
  // schedule-dependent to assert; what must hold is that each shard
  // failed over exactly once and the untouched domains did not.
  mc.sim.run();

  ASSERT_TRUE(f2.has_value() && f3.has_value());
  EXPECT_TRUE(f2->ok()) << (f2->ok() ? "" : f2->error().to_string());
  EXPECT_TRUE(f3->ok()) << (f3->ok() ? "" : f3->error().to_string());

  EXPECT_EQ(mc.fs->shard_takeovers(2), 1u);
  EXPECT_EQ(mc.fs->shard_takeovers(3), 1u);
  EXPECT_EQ(mc.fs->manager_takeovers(), 2u);
  EXPECT_EQ(mc.fs->manager_epoch(2), 2u);
  EXPECT_EQ(mc.fs->manager_epoch(3), 2u);
  EXPECT_EQ(mc.fs->shard_takeovers(0), 0u);
  EXPECT_EQ(mc.fs->shard_takeovers(1), 0u);
  EXPECT_FALSE(mc.fs->manager_node(2) == mc.site.hosts[4]);
  EXPECT_FALSE(mc.fs->manager_node(3) == mc.site.hosts[5]);
  EXPECT_TRUE(mc.fs->fsck().clean());
}

// ---------------------------------------------------------------------
// Deposed shard manager is fenced per domain
// ---------------------------------------------------------------------

/// After one shard's takeover, writes riding the deposed incarnation's
/// epoch are fenced — but only for inodes in that domain. Other shards'
/// epochs are untouched and keep admitting.
TEST(ShardFailover, DeposedShardManagerEpochFencesOnlyItsDomain) {
  MiniCluster mc(6, 4, 1 * MiB, shard_cfg());
  seat_managers(mc);
  Client* a = mc.mount_on(2);
  Client* b = mc.mount_on(3);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  mc.sim.run();

  const std::uint64_t old_epoch2 = mc.fs->manager_epoch(2);

  fault::FaultInjector inject(mc.net, Rng(23));
  inject.watch_pool(mc.cluster->connection_pool());
  inject.watch_cluster(*mc.cluster);
  inject.schedule_node_crash(mc.sim.now() + 0.01, mc.site.hosts[4], 10.0);
  const std::string p2 = path_in_shard(mc.fs, 2);
  std::optional<Result<StatInfo>> probe;
  mc.sim.after(0.03, [&] {
    a->stat(p2, [&](Result<StatInfo> r) { probe = std::move(r); });
  });
  mc.sim.run();
  ASSERT_EQ(mc.fs->shard_takeovers(2), 1u);
  ASSERT_FALSE(mc.fs->recovering());

  const std::uint64_t fenced0 = mc.fs->stale_manager_fenced();
  // Inode 6 hashes to shard 2 (6 % 4): the deposed epoch is fenced...
  EXPECT_EQ(mc.fs->write_gate(a->id(), 6, a->lease_epoch(), old_epoch2),
            NsdServer::GateDecision::fence);
  EXPECT_EQ(mc.fs->stale_manager_fenced(), fenced0 + 1);
  // ...the successor's epoch admits...
  EXPECT_EQ(
      mc.fs->write_gate(a->id(), 6, a->lease_epoch(), mc.fs->manager_epoch(2)),
      NsdServer::GateDecision::admit);
  // ...and shard 1 (inode 5) never failed over: its original epoch still
  // admits, while shard 2's bumped epoch is stale *there*.
  EXPECT_EQ(
      mc.fs->write_gate(b->id(), 5, b->lease_epoch(), mc.fs->manager_epoch(1)),
      NsdServer::GateDecision::admit);
  EXPECT_EQ(
      mc.fs->write_gate(b->id(), 5, b->lease_epoch(), mc.fs->manager_epoch(2)),
      NsdServer::GateDecision::fence);
}

// ---------------------------------------------------------------------
// fsck spans every journal slice
// ---------------------------------------------------------------------

/// A writer dirties files whose inodes hash into different domains,
/// then is expelled: the replay must undo its uncommitted tail in EVERY
/// journal slice, and fsck (which sums the slices) must come back clean
/// with no leaked allocations.
TEST(ShardJournal, ExpelReplaysAllSlicesAndFsckSumsThem) {
  MiniCluster mc(6, 4, 1 * MiB, shard_cfg());
  seat_managers(mc);
  Client* w = mc.mount_on(2);
  ASSERT_NE(w, nullptr);

  // One committed + one dirty region per domain: fsync /f then extend
  // it with allocate-ahead records that never commit.
  std::vector<Fh> fhs;
  for (std::uint32_t s = 0; s < 4; ++s) {
    const std::string p = path_in_shard(mc.fs, s, 100 * s);
    auto fh = mc.open(w, p, kAlice, OpenFlags::create_rw());
    ASSERT_TRUE(fh.ok());
    ASSERT_TRUE(mc.write(w, *fh, 0, 1 * MiB).ok());
    ASSERT_TRUE(mc.fsync(w, *fh).ok());
    ASSERT_TRUE(mc.write(w, *fh, 1 * MiB, 2 * MiB).ok());
    fhs.push_back(*fh);
  }

  // The dirty tails live in more than one slice (inode hash spread).
  std::uint32_t slices_dirty = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    if (mc.fs->shard_journal(s).uncommitted_total() > 0) ++slices_dirty;
  }
  EXPECT_GE(slices_dirty, 2u) << "expected dirty tails in several slices";

  // fsck only flags tails of *expelled* clients: a live writer's
  // allocate-ahead is legitimate, so the scan is still clean here.
  EXPECT_TRUE(mc.fs->fsck().clean());

  // Expel the writer: every slice's tail is replayed, allocations of
  // the uncommitted region are rolled back everywhere.
  mc.fs->expel_client(w->id(), "test: multi-slice replay");
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(mc.fs->shard_journal(s).uncommitted_total(), 0u)
        << "slice " << s << " not replayed";
  }
  const FsckReport rep = mc.fs->fsck();
  EXPECT_TRUE(rep.clean())
      << "orphans " << rep.orphaned_blocks << " dangling "
      << rep.dangling_refs << " uncommitted " << rep.uncommitted_records;
  EXPECT_GE(mc.fs->journal_records_replayed(), 4u);
}

// ---------------------------------------------------------------------
// Batched lease heartbeat
// ---------------------------------------------------------------------

/// One renewal per period covers every domain: a client working all
/// four shards across several lease periods stays admitted everywhere,
/// and the renewal count tracks periods, not periods x shards.
TEST(ShardLease, OneHeartbeatCoversAllDomains) {
  MiniCluster mc(6, 4, 1 * MiB, shard_cfg());
  seat_managers(mc);
  Client* c = mc.mount_on(2);
  ASSERT_NE(c, nullptr);
  mc.sim.run();

  std::vector<Fh> fhs;
  for (std::uint32_t s = 0; s < 4; ++s) {
    auto fh = mc.open(c, path_in_shard(mc.fs, s), kAlice,
                      OpenFlags::create_rw());
    ASSERT_TRUE(fh.ok());
    fhs.push_back(*fh);
  }

  // Keep touching every domain for ~6 lease periods.
  const double t0 = mc.sim.now();
  const double horizon = t0 + 6.0 * shard_cfg().lease_duration;
  std::uint64_t writes_done = 0;
  std::function<void()> tick = [&] {
    if (mc.sim.now() >= horizon) return;
    for (std::uint32_t s = 0; s < 4; ++s) {
      c->write(fhs[s], 0, 256 * KiB, [&](Result<Bytes> r) {
        if (r.ok()) ++writes_done;
      });
    }
    mc.sim.after(0.1, tick);
  };
  mc.sim.after(0.0, tick);
  mc.sim.run();

  EXPECT_GE(writes_done, 4u * 25u);
  // Never expelled, never suspect: the shard-0 heartbeat kept the one
  // global lease alive for all four domains.
  EXPECT_EQ(mc.fs->expels(), 0u);
  EXPECT_TRUE(mc.fs->lease().epoch_valid(c->id(), c->lease_epoch()));
  // Renewal traffic is O(periods), not O(periods x shards): the client
  // heartbeats every half lease period (~12 over 3 s) plus a few
  // piggybacked renewals at metadata-op entry. A per-shard heartbeat
  // would put this at 48+.
  EXPECT_LE(mc.fs->lease_renewals(), 30u);
  EXPECT_GE(mc.fs->lease_renewals(), 4u);
  // Every domain admits under the single lease epoch.
  for (InodeNum ino = 4; ino < 8; ++ino) {
    EXPECT_EQ(mc.fs->write_gate(c->id(), ino, c->lease_epoch(),
                                mc.fs->manager_epoch(ino % 4)),
              NsdServer::GateDecision::admit);
  }
}

/// A refusal is an answer. The lease home's rebuild is held open, so a
/// token request on a healthy data shard is refused (gated) at probe
/// cadence for 2 s. Those refusals prove the data shard's manager alive:
/// three readers refused by it never depose it, and their reads finish
/// once the rebuild does.
TEST(ShardLease, RefusalsNeverDeposeAHealthyShard) {
  // Leases outlast the held rebuild: the waiting readers stay members.
  ClusterConfig cfg = shard_cfg(3);
  cfg.lease_duration = 60.0;
  MiniCluster mc(8, 4, 1 * MiB, cfg);
  mc.cluster->set_shard_managers(
      *mc.fs, {mc.site.hosts[1], mc.site.hosts[5], mc.site.hosts[6]});
  const std::string path = path_in_shard(mc.fs, 1);
  Client* w = mc.mount_on(7);
  ASSERT_NE(w, nullptr);
  auto fw = mc.open(w, path, kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fw.ok());
  ASSERT_TRUE(mc.write(w, *fw, 0, 1 * MiB).ok());
  ASSERT_TRUE(mc.close(w, *fw).ok());
  mc.cluster->unmount(w);
  ASSERT_EQ(mc.fs->shard_of(*mc.fs->ns().resolve(path)), 1u);

  std::vector<Client*> readers;
  std::vector<Fh> fhs;
  for (std::size_t h : {2, 3, 4}) {
    Client* r = mc.mount_on(h);
    ASSERT_NE(r, nullptr);
    auto fh = mc.open(r, path, kAlice, OpenFlags::ro());
    ASSERT_TRUE(fh.ok());
    readers.push_back(r);
    fhs.push_back(*fh);
  }

  // The lease home's rebuild begins, every reader reasserts, and the
  // rebuild is held open.
  mc.fs->begin_takeover(mc.site.hosts[1], 0);
  for (Client* r : readers) {
    mc.fs->install_assertion(r->id(), r->lease_epoch(), {}, 0);
  }
  std::vector<std::optional<Result<Bytes>>> got(readers.size());
  for (std::size_t i = 0; i < readers.size(); ++i) {
    readers[i]->read(fhs[i], 0, 1 * MiB,
                     [&got, i](Result<Bytes> r) { got[i] = std::move(r); });
  }
  mc.sim.run_until(mc.sim.now() + 2.0);
  for (const auto& g : got) EXPECT_FALSE(g.has_value()) << "not refused";
  EXPECT_EQ(mc.fs->manager_epoch(1), 1u);
  EXPECT_EQ(mc.fs->manager_epoch(2), 1u);
  EXPECT_EQ(mc.fs->shard_takeovers(1), 0u);

  mc.fs->finish_takeover(0);
  mc.sim.run();
  for (const auto& g : got) {
    ASSERT_TRUE(g.has_value());
    EXPECT_TRUE(g->ok()) << g->error().to_string();
  }
  EXPECT_EQ(mc.fs->manager_epoch(1), 1u);
  EXPECT_EQ(mc.fs->shard_takeovers(1), 0u);
}

/// The successor of a crashed shard manager sits on a manager seat, off
/// the data path. Four shards on dedicated seats (hosts 4-7); shard 0's
/// seat crashes, and the lowest live seat (host 5) takes shard 0 too,
/// not hosts[0] — the lowest-id live member, and an NSD server.
TEST(ShardLease, TakeoverSeatsTheSuccessorOnAManagerSeat) {
  MiniCluster mc(8, 4, 1 * MiB, shard_cfg());
  const auto& h = mc.site.hosts;
  mc.cluster->set_shard_managers(*mc.fs, {h[4], h[5], h[6], h[7]});
  Client* c = mc.mount_on(2);
  ASSERT_NE(c, nullptr);

  fault::FaultInjector inject(mc.net, Rng(7));
  inject.watch_pool(mc.cluster->connection_pool());
  inject.watch_cluster(*mc.cluster);
  inject.schedule_node_crash(mc.sim.now() + 0.01, h[4], 0.1);
  // An op routed at shard 0 finds the dead seat and drives the election.
  const std::string path = path_in_shard(mc.fs, 0);
  std::optional<Result<StatInfo>> probe;
  mc.sim.after(0.03, [&] {
    c->stat(path, [&](Result<StatInfo> r) { probe = std::move(r); });
  });
  mc.sim.run_until(mc.sim.now() + 0.2);

  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->code(), Errc::not_found);
  EXPECT_EQ(mc.fs->shard_takeovers(0), 1u);
  EXPECT_EQ(mc.fs->manager_node(0), h[5]);
  EXPECT_FALSE(mc.fs->manager_node(0) == h[0]);
  // The other shards stay where they were seated.
  EXPECT_EQ(mc.fs->manager_node(1), h[5]);
  EXPECT_EQ(mc.fs->manager_node(2), h[6]);
  EXPECT_EQ(mc.fs->manager_node(3), h[7]);

  // Shard 0 serves from its new seat.
  auto fh = mc.open(c, path, kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok()) << fh.error().to_string();
  ASSERT_TRUE(mc.write(c, *fh, 0, 16 * KiB).ok());
  EXPECT_TRUE(mc.fsync(c, *fh).ok());
  testutil::expect_durable(mc, path, 16 * KiB);
}

/// A write stamped before its client reasserted lands. The writer's
/// 8 MiB flush is on the wire, stamped with shard 1's manager epoch 1,
/// when shard 1 fails over; the rebuild finishes first, so the gate
/// fences the runs still in transit. The writer has adopted epoch 2 by
/// reasserting, so it re-sends them under it: they land, and nothing
/// lapses or drops the writer's caches.
TEST(ShardLease, AWriteStampedBeforeReassertLands) {
  MiniCluster mc(8, 4, 1 * MiB, shard_cfg());
  const auto& h = mc.site.hosts;
  mc.cluster->set_shard_managers(*mc.fs, {h[4], h[5], h[6], h[7]});
  Client* c = mc.mount_on(2);
  ASSERT_NE(c, nullptr);
  const std::string path = path_in_shard(mc.fs, 1);
  auto fh = mc.open(c, path, kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  ASSERT_EQ(mc.fs->shard_of(*mc.fs->ns().resolve(path)), 1u);
  const std::uint64_t incarnation = c->session().incarnation();

  std::optional<Result<Bytes>> w;
  c->write(*fh, 0, 8 * MiB, [&](Result<Bytes> r) { w = std::move(r); });
  // The whole takeover runs while the flush is on the wire: the writer
  // reasserts (adopting epoch 2) and the rebuild finishes at once.
  mc.sim.after(0.01, [&] {
    mc.fs->begin_takeover(h[4], 1);
    auto r = c->assert_tokens(h[4], mc.fs->manager_epoch(1), 1);
    ASSERT_TRUE(r.ok());
    mc.fs->install_assertion(c->id(), r->lease_epoch, r->tokens, 1);
    mc.fs->finish_takeover(1);
  });
  mc.sim.run();

  ASSERT_TRUE(w.has_value());
  EXPECT_TRUE(w->ok()) << w->error().to_string();
  EXPECT_EQ(mc.fs->shard_takeovers(1), 1u);
  EXPECT_FALSE(mc.fs->shard_recovering(1));
  EXPECT_EQ(c->session().manager_epoch(1), 2u);
  EXPECT_GE(mc.fs->fenced_writes(), 1u) << "no write crossed the takeover";
  EXPECT_EQ(c->fenced_writes(), 0u);
  EXPECT_EQ(c->lease_lapses(), 0u);
  EXPECT_EQ(c->session().incarnation(), incarnation);
  EXPECT_TRUE(mc.fsync(c, *fh).ok());
  testutil::expect_durable(mc, path, 8 * MiB);
  EXPECT_TRUE(mc.fs->fsck().clean());
}

/// ...but a write stamped before a takeover that its incarnation did not
/// survive never lands. The writer's 8 MiB flush is on the wire when
/// shard 1 fails over and the writer is expelled instead of reasserting
/// (the replay frees the blocks the flush targets). The first fenced run
/// lapses the client, which rejoins and so adopts epoch 2 with a valid
/// lease before the other runs' fences arrive: those come from a dead
/// incarnation and are not re-sent, so no byte reaches a device.
TEST(ShardLease, AWriteOfALapsedIncarnationIsNotReSent) {
  MiniCluster mc(8, 4, 1 * MiB, shard_cfg());
  const auto& h = mc.site.hosts;
  mc.cluster->set_shard_managers(*mc.fs, {h[4], h[5], h[6], h[7]});
  Client* c = mc.mount_on(2);
  ASSERT_NE(c, nullptr);
  const std::string path = path_in_shard(mc.fs, 1);
  auto fh = mc.open(c, path, kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  auto served = [&] {
    return mc.cluster->server_on(h[0])->bytes_served() +
           mc.cluster->server_on(h[1])->bytes_served();
  };
  const Bytes before = served();

  std::optional<Result<Bytes>> w;
  c->write(*fh, 0, 8 * MiB, [&](Result<Bytes> r) { w = std::move(r); });
  mc.sim.after(0.001, [&] {
    mc.fs->begin_takeover(h[4], 1);
    mc.fs->expel_client(c->id(), "test: no reassertion");
    mc.fs->finish_takeover(1);
  });
  mc.sim.run();

  ASSERT_TRUE(w.has_value());
  EXPECT_GE(c->lease_lapses(), 1u);
  EXPECT_EQ(c->session().manager_epoch(1), 2u);
  EXPECT_GE(mc.fs->fenced_writes(), 2u) << "no fence after the rejoin";
  // Every fence was final: none was answered by a re-send.
  EXPECT_EQ(c->fenced_writes(), mc.fs->fenced_writes());
  EXPECT_EQ(served(), before) << "a dead incarnation's write landed";
  EXPECT_TRUE(mc.fs->fsck().clean());
}

// ---------------------------------------------------------------------
// Metanode delegation
// ---------------------------------------------------------------------

/// Explicit delegation moves an inode's token + journal authority to
/// another domain; routing follows at once.
TEST(ShardDelegation, TryDelegateMovesAuthority) {
  MiniCluster mc(6, 4, 1 * MiB, shard_cfg());
  seat_managers(mc);
  Client* c = mc.mount_on(2);
  ASSERT_NE(c, nullptr);

  const std::string p = path_in_shard(mc.fs, 1);
  auto fh = mc.open(c, p, kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(mc.write(c, *fh, 0, 1 * MiB).ok());
  ASSERT_TRUE(mc.fsync(c, *fh).ok());

  const auto st = mc.stat(c, p);
  ASSERT_TRUE(st.ok());
  const InodeNum ino = st->ino;
  const std::uint32_t home = mc.fs->shard_of(ino);
  const std::uint32_t dst = (home + 1) % 4;

  ASSERT_TRUE(mc.fs->try_delegate(ino, dst));
  EXPECT_EQ(mc.fs->shard_of(ino), dst);
  EXPECT_EQ(mc.fs->delegations(), 1u);

  // I/O keeps flowing under the new authority, and the write gate now
  // consults the destination domain's epoch.
  ASSERT_TRUE(mc.write(c, *fh, 0, 1 * MiB).ok());
  ASSERT_TRUE(mc.fsync(c, *fh).ok());
  EXPECT_EQ(mc.fs->write_gate(c->id(), ino, c->lease_epoch(),
                              mc.fs->manager_epoch(dst)),
            NsdServer::GateDecision::admit);
  EXPECT_TRUE(mc.fs->fsck().clean());

  // Delegating back is refused while any takeover is in flight — but
  // here nothing recovers, so it moves home again.
  EXPECT_TRUE(mc.fs->try_delegate(ino, home));
  EXPECT_EQ(mc.fs->shard_of(ino), home);
}

/// Auto-delegation: a streak of single-client grants on one inode makes
/// that inode's metanode follow the client (the picker installed by
/// set_shard_managers), without any explicit call.
TEST(ShardDelegation, GrantStreakAutoDelegatesToPickedShard) {
  ClusterConfig cfg = shard_cfg();
  cfg.auto_delegate_ops = 3;
  MiniCluster mc(6, 4, 1 * MiB, cfg);
  seat_managers(mc);

  // Drive the token plane directly so the grant streak is exact: three
  // consecutive single-client acquires with disjoint ranges.
  const ClientId cid = 4242;
  mc.fs->lease().register_client(cid, mc.sim.now());
  // Pin the picker to a known answer for this raw client id.
  mc.fs->set_metanode_picker([](ClientId) { return 3u; });

  const InodeNum ino = 5;  // hashes to shard 1
  ASSERT_EQ(mc.fs->shard_of(ino), 1u);
  int granted = 0;
  for (std::uint64_t i = 0; i < 3; ++i) {
    mc.fs->op_token_acquire(cid, ino, TokenRange{i * MiB, (i + 1) * MiB},
                            TokenRange{i * MiB, (i + 1) * MiB}, LockMode::rw,
                            [&](Result<TokenRange> r) {
                              if (r.ok()) ++granted;
                            });
    mc.sim.run();
  }
  EXPECT_EQ(granted, 3);
  EXPECT_EQ(mc.fs->delegations(), 1u);
  EXPECT_EQ(mc.fs->shard_of(ino), 3u);

  // The holdings moved with the authority: the new domain can revoke
  // them (a second client's conflicting acquire succeeds after revoke).
  EXPECT_GT(mc.fs->shard_tokens(3).total_holdings(), 0u);
}

// ---------------------------------------------------------------------
// LeaseManager expiry-heap unit tests (scheduled sweep visits)
// ---------------------------------------------------------------------

TEST(LeaseHeap, SweepVisitsOnlyDueClients) {
  LeaseManager lm(LeaseConfig{1.0, 0.5});
  for (ClientId c = 1; c <= 3; ++c) lm.register_client(c, 0.0);

  // Renew 2 late in the window; 1 and 3 will lapse first.
  EXPECT_TRUE(lm.renew(2, 0.9));

  // Past expiry, before expel: suspects noted, nobody due yet.
  EXPECT_TRUE(lm.sweep(1.2).empty());
  EXPECT_TRUE(lm.suspect(1));
  EXPECT_TRUE(lm.suspect(3));
  EXPECT_FALSE(lm.suspect(2));

  // Past expiry + recovery_wait for 1 and 3 only, sorted output.
  const std::vector<ClientId> due = lm.sweep(1.6);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0], 1u);
  EXPECT_EQ(due[1], 3u);

  // 2 lapses later on its own clock.
  for (ClientId c : due) lm.expel(c);
  const std::vector<ClientId> due2 = lm.sweep(2.5);
  ASSERT_EQ(due2.size(), 1u);
  EXPECT_EQ(due2[0], 2u);
}

TEST(LeaseHeap, RenewalRearmsAndStaleHeapNodesAreHarmless) {
  LeaseManager lm(LeaseConfig{1.0, 0.5});
  lm.register_client(7, 0.0);

  // Renew repeatedly: each renewal pushes the deadline out; the stale
  // earlier heap nodes must not cause premature suspicion or expel.
  for (int i = 1; i <= 20; ++i) {
    EXPECT_TRUE(lm.renew(7, 0.1 * i));
    EXPECT_TRUE(lm.sweep(0.1 * i).empty());
    EXPECT_FALSE(lm.suspect(7));
  }
  // Now go quiet: the (single live) deadline fires normally.
  EXPECT_TRUE(lm.sweep(2.9).empty());   // 2.0 + 1.0 not yet lapsed enough
  EXPECT_TRUE(lm.suspect(7) || lm.sweep(3.0).empty());
  const std::vector<ClientId> due = lm.sweep(3.6);  // 2.0 + 1.0 + 0.5 < 3.6
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 7u);
}

TEST(LeaseHeap, DeregisterAndExpelDropPendingVisits) {
  LeaseManager lm(LeaseConfig{1.0, 0.5});
  lm.register_client(1, 0.0);
  lm.register_client(2, 0.0);
  lm.deregister(1);
  EXPECT_TRUE(lm.expel(2));

  // Neither may surface from the heap again.
  EXPECT_TRUE(lm.sweep(5.0).empty());
  EXPECT_FALSE(lm.known(1));
  EXPECT_TRUE(lm.expelled(2));

  // Re-registration after expel starts a fresh incarnation with a
  // fresh visit.
  const std::uint64_t e = lm.register_client(2, 5.0);
  EXPECT_GT(e, 0u);
  EXPECT_TRUE(lm.sweep(5.5).empty());
  const std::vector<ClientId> due = lm.sweep(6.6);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 2u);
}

}  // namespace
}  // namespace mgfs::gpfs
