// Failure injection across the stack: manager loss, link flaps, RAID
// degradation under file-system load, spare swap during traffic, and
// write-path failover. These are the events a production GFS (paper §5)
// must absorb; the paper's NSD primary/backup design and RAID-5 sets
// exist exactly for them.
#include <gtest/gtest.h>

#include "fault/injector.hpp"
#include "gpfs_test_util.hpp"
#include "storage/array.hpp"

namespace mgfs::gpfs {
namespace {

using testutil::kAlice;
using testutil::MiniCluster;

TEST(Failures, ManagerDownTriggersTakeoverMetadataContinues) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(mc.write(c, *fh, 0, 4 * MiB).ok());
  ASSERT_TRUE(mc.fsync(c, *fh).ok());
  // Kill the manager (hosts[1]). The metadata op's retry path reports
  // the dead manager, a successor (lowest live node id: hosts[0]) takes
  // over, and the op reroutes and completes — no longer a SPOF.
  mc.net.set_node_up(mc.site.hosts[1], false);
  auto st = mc.stat(c, "/f");
  ASSERT_TRUE(st.ok()) << st.error().to_string();
  EXPECT_EQ(mc.fs->manager_takeovers(), 1u);
  EXPECT_EQ(mc.fs->manager_node(0), mc.site.hosts[0]);
  EXPECT_GE(mc.fs->assertions_rebuilt(), 1u);  // c reasserted its tokens
  EXPECT_GE(c->mgr_takeovers(), 1u);
  // Cached reads work throughout: token + pages + block map are
  // client-side and survive the takeover (lease epoch preserved).
  auto r = mc.read(c, *fh, 0, 4 * MiB);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(*r, 4 * MiB);
}

// The manager removes the name but dies before its reply lands. The
// client's retry reaches the successor, which must recognise the
// retransmission and report success, not not_found for a name the
// client itself removed.
TEST(Failures, UnlinkRetriedAcrossTakeoverReportsSuccess) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(mc.write(c, *fh, 0, 1 * MiB).ok());
  ASSERT_TRUE(mc.close(c, *fh).ok());

  std::optional<Status> unlinked;
  c->unlink("/f", kAlice, [&](Status st) { unlinked = std::move(st); });
  while (mc.fs->ns().resolve("/f").ok()) ASSERT_TRUE(mc.sim.step());
  // The reply is already on the wire: drop it at the client's end.
  mc.net.set_node_up(mc.site.hosts[1], false);
  mc.net.set_node_up(mc.site.hosts[2], false);
  mc.sim.after(0.001, [&] { mc.net.set_node_up(mc.site.hosts[2], true); });
  mc.sim.run();
  ASSERT_TRUE(unlinked.has_value());
  EXPECT_TRUE(unlinked->ok()) << unlinked->to_string();
  EXPECT_EQ(mc.fs->manager_takeovers(), 1u);
  EXPECT_EQ(mc.stat(c, "/f").code(), Errc::not_found);

  // A new unlink of the missing name is not a retransmission.
  std::optional<Status> again;
  c->unlink("/f", kAlice, [&](Status st) { again = std::move(st); });
  mc.sim.run();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->code(), Errc::not_found);
}

TEST(Failures, DeposedManagerStaysDeposedAfterRestart) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  mc.net.set_node_up(mc.site.hosts[1], false);
  // Service continues through the takeover...
  ASSERT_TRUE(mc.stat(c, "/").ok());
  EXPECT_EQ(mc.fs->manager_node(0), mc.site.hosts[0]);
  const std::uint64_t epoch = mc.fs->manager_epoch(0);
  EXPECT_EQ(epoch, 2u);
  // ...and the old manager coming back does NOT reclaim the role: the
  // successor keeps it and the epoch does not move again.
  mc.net.set_node_up(mc.site.hosts[1], true);
  EXPECT_TRUE(mc.stat(c, "/").ok());
  EXPECT_EQ(mc.fs->manager_node(0), mc.site.hosts[0]);
  EXPECT_EQ(mc.fs->manager_epoch(0), epoch);
  EXPECT_EQ(mc.fs->manager_takeovers(), 1u);
}

TEST(Failures, WritePathFailsOverToBackupServer) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  // Primary server for NSDs 0 and 2 dies before any data lands.
  mc.net.set_node_up(mc.site.hosts[0], false);
  ASSERT_TRUE(mc.write(c, *fh, 0, 8 * MiB).ok());
  ASSERT_TRUE(mc.fsync(c, *fh).ok());
  EXPECT_GT(c->nsd_failovers(), 0u);
  EXPECT_EQ(c->pool().dirty_bytes(), 0u);
}

TEST(Failures, LinkFlapHealsTransparently) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  std::optional<Result<Bytes>> w;
  c->write(*fh, 0, 32 * MiB, [&](Result<Bytes> r) { w = std::move(r); });
  // Flap the client's own link mid-transfer: writes retry until it heals
  // (the backup server is on the same broken path, so only healing
  // makes progress).
  mc.sim.after(0.05, [&] {
    mc.net.set_link_up(mc.site.hosts[2], mc.site.sw, false);
  });
  mc.sim.after(0.60, [&] {
    mc.net.set_link_up(mc.site.hosts[2], mc.site.sw, true);
  });
  mc.sim.run();
  ASSERT_TRUE(w.has_value());
  ASSERT_TRUE(w->ok()) << w->error().to_string();
  ASSERT_TRUE(mc.fsync(c, *fh).ok());
  EXPECT_EQ(mc.fs->ns().stat("/f")->size, 32 * MiB);
}

TEST(Failures, RaidDegradedModeInvisibleToFs) {
  // Back the FS with a real DS4100; fail one spindle mid-run.
  sim::Simulator sim;
  net::Network net(sim);
  net::Site site = net::add_site(net, "s", 4, gbps(1.0));
  ClusterConfig cfg;
  cfg.name = "s";
  Cluster cluster(sim, net, cfg, Rng(1));
  for (net::NodeId h : site.hosts) cluster.add_node(h);
  cluster.add_nsd_server(site.hosts[0]);
  storage::StorageArray arr(sim, storage::ArraySpec::ds4100(), Rng(2));
  auto nsd = cluster.create_nsd("n0", &arr.lun(0), site.hosts[0]);
  FileSystem& fs =
      cluster.create_filesystem("fs", {nsd}, 1 * MiB, site.hosts[1]);
  (void)fs;
  auto c = cluster.mount("fs", site.hosts[2]);
  ASSERT_TRUE(c.ok());

  std::optional<Result<Fh>> fh;
  (*c)->open("/f", kAlice, OpenFlags::create_rw(),
             [&](Result<Fh> r) { fh = std::move(r); });
  sim.run();
  ASSERT_TRUE(fh.has_value() && fh->ok());
  std::optional<Result<Bytes>> w;
  (*c)->write(**fh, 0, 16 * MiB, [&](Result<Bytes> r) { w = std::move(r); });
  sim.after(1e-3, [&] { arr.fail_disk(0, 3); });
  sim.run();
  ASSERT_TRUE(w.has_value() && w->ok()) << "degraded write failed";
  EXPECT_TRUE(arr.raid_set(0).degraded());

  // Reads reconstruct transparently.
  std::optional<Result<Bytes>> r;
  (*c)->read(**fh, 0, 16 * MiB, [&](Result<Bytes> res) { r = std::move(res); });
  sim.run();
  ASSERT_TRUE(r.has_value() && r->ok());

  // Spare swap + rebuild while the client keeps reading.
  bool rebuilt = false;
  ASSERT_TRUE(arr.spare_swap(0, 3, [&] { rebuilt = true; }));
  std::optional<Result<Bytes>> r2;
  (*c)->read(**fh, 0, 16 * MiB, [&](Result<Bytes> res) { r2 = std::move(res); });
  sim.run();
  EXPECT_TRUE(rebuilt);
  EXPECT_FALSE(arr.raid_set(0).degraded());
  ASSERT_TRUE(r2.has_value() && r2->ok());
}

TEST(Failures, DoubleDiskFailureSurfacesIoError) {
  sim::Simulator sim;
  net::Network net(sim);
  net::Site site = net::add_site(net, "s", 4, gbps(1.0));
  ClusterConfig cfg;
  cfg.name = "s";
  Cluster cluster(sim, net, cfg, Rng(1));
  for (net::NodeId h : site.hosts) cluster.add_node(h);
  cluster.add_nsd_server(site.hosts[0]);
  storage::StorageArray arr(sim, storage::ArraySpec::ds4100(), Rng(2));
  auto nsd = cluster.create_nsd("n0", &arr.lun(0), site.hosts[0]);
  cluster.create_filesystem("fs", {nsd}, 1 * MiB, site.hosts[1]);
  auto c = cluster.mount("fs", site.hosts[2]);
  ASSERT_TRUE(c.ok());
  std::optional<Result<Fh>> fh;
  (*c)->open("/f", kAlice, OpenFlags::create_rw(),
             [&](Result<Fh> r) { fh = std::move(r); });
  sim.run();
  std::optional<Result<Bytes>> w;
  (*c)->write(**fh, 0, 4 * MiB, [&](Result<Bytes> r) { w = std::move(r); });
  sim.run();
  ASSERT_TRUE(w.has_value() && w->ok());
  std::optional<Status> fsynced;
  (*c)->fsync(**fh, [&](Status st) { fsynced = st; });
  sim.run();
  ASSERT_TRUE(fsynced.has_value() && fsynced->ok());

  arr.fail_disk(0, 1);
  arr.fail_disk(0, 5);
  ASSERT_TRUE(arr.raid_set(0).failed());
  // Cold client (no cache) must see the loss.
  auto c2 = cluster.mount("fs", site.hosts[3]);
  ASSERT_TRUE(c2.ok());
  std::optional<Result<Fh>> fh2;
  (*c2)->open("/f", kAlice, OpenFlags::ro(),
              [&](Result<Fh> r) { fh2 = std::move(r); });
  sim.run();
  ASSERT_TRUE(fh2.has_value() && fh2->ok());
  std::optional<Result<Bytes>> r;
  (*c2)->read(**fh2, 0, 4 * MiB, [&](Result<Bytes> res) { r = std::move(res); });
  sim.run();
  ASSERT_TRUE(r.has_value());
  ASSERT_FALSE(r->ok());
  EXPECT_EQ(r->code(), Errc::io_error);
}

TEST(Failures, RemoteMountSurvivesBackboneFlapOnRetry) {
  // A remote mount attempt during a backbone outage fails cleanly; the
  // retry after healing succeeds.
  sim::Simulator sim;
  net::Network net(sim);
  net::TeraGrid tg = net::make_teragrid_2004(net);
  ClusterConfig scfg;
  scfg.name = "sdsc";
  Cluster sdsc(sim, net, scfg, Rng(1));
  for (net::NodeId h : tg.sdsc.hosts) sdsc.add_node(h);
  sdsc.add_nsd_server(tg.sdsc.hosts[0]);
  storage::RateDevice dev(sim, 1 * TiB, 300e6);
  auto nsd = sdsc.create_nsd("n0", &dev, tg.sdsc.hosts[0]);
  sdsc.create_filesystem("fs", {nsd}, 1 * MiB, tg.sdsc.hosts[1]);

  ClusterConfig ncfg;
  ncfg.name = "ncsa";
  Cluster ncsa(sim, net, ncfg, Rng(2));
  for (net::NodeId h : tg.ncsa.hosts) ncsa.add_node(h);
  sdsc.mmauth_add("ncsa", ncsa.public_key());
  ASSERT_TRUE(
      sdsc.mmauth_grant("ncsa", "fs", auth::AccessMode::read_only).ok());
  ASSERT_TRUE(ncsa.mmremotecluster_add("sdsc", sdsc.public_key(), &sdsc,
                                       tg.sdsc.hosts[1])
                  .ok());
  ASSERT_TRUE(ncsa.mmremotefs_add("/fs", "sdsc", "fs").ok());

  net.set_link_up(tg.la, tg.chi, false);
  std::optional<Result<Client*>> m1;
  ncsa.mount_remote("/fs", tg.ncsa.hosts[0],
                    [&](Result<Client*> r) { m1 = std::move(r); });
  sim.run();
  ASSERT_TRUE(m1.has_value());
  ASSERT_FALSE(m1->ok());
  EXPECT_EQ(m1->code(), Errc::unavailable);

  net.set_link_up(tg.la, tg.chi, true);
  std::optional<Result<Client*>> m2;
  ncsa.mount_remote("/fs", tg.ncsa.hosts[0],
                    [&](Result<Client*> r) { m2 = std::move(r); });
  sim.run();
  ASSERT_TRUE(m2.has_value());
  ASSERT_TRUE(m2->ok()) << m2->error().to_string();
}

TEST(Failures, BlackholedManagerTimesOutInsteadOfHanging) {
  // Gray failure: the manager accepts RPCs and never answers. Without
  // deadlines this wedged the client forever; with them, metadata ops
  // fail with timed_out in bounded simulated time.
  ClusterConfig cfg;
  cfg.client.rpc_deadline = 0.5;
  cfg.client.retry.max_attempts = 2;
  MiniCluster mc(6, 4, 1 * MiB, cfg);
  Client* c = mc.mount_on(2);
  mc.net.set_node_blackholed(mc.site.hosts[1], true);
  const sim::Time t0 = mc.sim.now();
  auto st = mc.stat(c, "/");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Errc::timed_out);
  // Two attempts, each bounded by the deadline, plus <= ~1.5x backoff.
  EXPECT_LT(mc.sim.now() - t0, 2.0);
  EXPECT_GT(c->rpc_timeouts(), 0u);
  EXPECT_GT(c->rpc_retries(), 0u);

  // Un-blackhole: service resumes without remounting.
  mc.net.set_node_blackholed(mc.site.hosts[1], false);
  EXPECT_TRUE(mc.stat(c, "/").ok());
}

/// A metadata RPC to a dead manager fails after its client was
/// unmounted: the retry path must neither accuse the manager through a
/// file system the client no longer has nor re-send, and the caller
/// hears a failure.
TEST(Failures, ManagerRpcFailingAfterUnmountIsHarmless) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  mc.net.set_node_up(mc.site.hosts[1], false);
  std::optional<Result<StatInfo>> st;
  c->stat("/", [&](Result<StatInfo> r) { st = std::move(r); });
  mc.cluster->unmount(c);
  mc.sim.run();
  ASSERT_TRUE(st.has_value());
  EXPECT_FALSE(st->ok());
  EXPECT_EQ(mc.fs->manager_takeovers(), 0u);
}

TEST(Failures, ExpelOfAllocatorKeepsABlockAnotherClientWrote) {
  // Block 0 of /f is allocated by its creator's create grant and never
  // committed by it. Another client that maps the block for a read and
  // then writes it must reference it through its write grant: an expel
  // of the allocator then undoes nothing that client wrote.
  MiniCluster mc;
  Client* a = mc.mount_on(2);
  Client* b = mc.mount_on(3);
  Client* g = mc.mount_on(4);
  auto fa = mc.open(a, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fa.ok());
  auto fb = mc.open(b, "/f", kAlice, OpenFlags::rw());
  ASSERT_TRUE(fb.ok());
  ASSERT_TRUE(mc.write(b, *fb, 1 * MiB, 1 * MiB).ok());
  ASSERT_TRUE(mc.fsync(b, *fb).ok());
  auto fg = mc.open(g, "/f", kAlice, OpenFlags::rw());
  ASSERT_TRUE(fg.ok());
  ASSERT_TRUE(mc.read(g, *fg, 0, 1 * MiB).ok());
  ASSERT_TRUE(mc.write(g, *fg, 0, 1 * MiB).ok());
  ASSERT_TRUE(mc.close(g, *fg).ok());

  mc.fs->expel_client(a->id(), "test");
  const InodeNum ino = *mc.fs->ns().resolve("/f");
  EXPECT_EQ(mc.fs->ns().placement(ino, 0).copies, 1);
  EXPECT_TRUE(mc.fs->fsck().clean());
  testutil::expect_durable(mc, "/f", 2 * MiB);
}

TEST(Failures, ExpelOfAllocatorKeepsABlockWrittenUnderAWholeFileToken) {
  // As above, but the extender has unmounted, so the writer's grant
  // elsewhere in the file is widened to the whole file and its token
  // covers block 0 without that grant having referenced it. The write
  // to block 0 must still go through a grant of its own.
  MiniCluster mc;
  Client* a = mc.mount_on(2);
  Client* b = mc.mount_on(3);
  Client* g = mc.mount_on(4);
  auto fa = mc.open(a, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fa.ok());
  auto fb = mc.open(b, "/f", kAlice, OpenFlags::rw());
  ASSERT_TRUE(fb.ok());
  ASSERT_TRUE(mc.write(b, *fb, 1 * MiB, 1 * MiB).ok());
  ASSERT_TRUE(mc.close(b, *fb).ok());
  mc.cluster->unmount(b);
  auto fg = mc.open(g, "/f", kAlice, OpenFlags::rw());
  ASSERT_TRUE(fg.ok());
  ASSERT_TRUE(mc.read(g, *fg, 0, 1 * MiB).ok());
  ASSERT_TRUE(mc.write(g, *fg, 5 * MiB, 1 * MiB).ok());
  const InodeNum ino = *mc.fs->ns().resolve("/f");
  ASSERT_TRUE(mc.fs->shard_tokens(0).holds(g->id(), ino,
                                           TokenRange{0, kWholeFile},
                                           LockMode::rw));
  const std::uint64_t before = testutil::manager_rpcs(mc);
  ASSERT_TRUE(mc.write(g, *fg, 0, 1 * MiB).ok());
  EXPECT_EQ(testutil::manager_rpcs(mc) - before, 1u);  // its grant
  ASSERT_TRUE(mc.close(g, *fg).ok());

  mc.fs->expel_client(a->id(), "test");
  EXPECT_EQ(mc.fs->ns().placement(ino, 0).copies, 1);
  EXPECT_TRUE(mc.fs->fsck().clean());
  testutil::expect_durable(mc, "/f", 2 * MiB);
  testutil::expect_durable(mc, "/f", 1 * MiB, 5 * MiB);
}

TEST(Failures, FailSlowPrimaryTripsBreakerAndFailsOver) {
  // The primary NSD server turns fail-slow (gray: accepts work, serves
  // it absurdly late). Deadlines convert that into timeouts, the
  // breaker opens, and I/O completes via the backup.
  ClusterConfig cfg;
  cfg.client.rpc_deadline = 0.2;
  MiniCluster mc(6, 4, 1 * MiB, cfg);
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());

  // hosts[0] is primary for half the NSDs; make every request on it
  // cost ~30 s of CPU — far past any deadline.
  mc.cluster->server_on(mc.site.hosts[0])->set_slow_factor(1e6);

  // 48 MiB so that even with flush coalescing (up to 8 blocks per wire
  // request) each NSD on the slow server still sees enough separate
  // requests to cross the breaker threshold.
  ASSERT_TRUE(mc.write(c, *fh, 0, 48 * MiB).ok());
  ASSERT_TRUE(mc.fsync(c, *fh).ok());
  EXPECT_EQ(c->pool().dirty_bytes(), 0u);       // everything landed
  EXPECT_GT(c->rpc_timeouts(), 0u);             // via deadline expiries
  EXPECT_GT(c->nsd_failovers(), 0u);            // onto the backup
  EXPECT_GT(c->breaker_opens(), 0u);            // primary circuit-broken
  EXPECT_TRUE(c->breaker_open(mc.site.hosts[0]));
  EXPECT_FALSE(c->breaker_open(mc.site.hosts[1]));

  // Heal the server; the next I/O burst probes it half-open and closes
  // the breaker again.
  mc.cluster->server_on(mc.site.hosts[0])->set_slow_factor(1.0);
  ASSERT_TRUE(mc.write(c, *fh, 48 * MiB, 16 * MiB).ok());
  ASSERT_TRUE(mc.fsync(c, *fh).ok());
  EXPECT_GT(c->breaker_probes(), 0u);
  EXPECT_FALSE(c->breaker_open(mc.site.hosts[0]));
}

TEST(Failures, MidRunFaultSplitsCoalescedRequestWithoutLoss) {
  // Both serving nodes of every NSD turn fail-slow while a coalesced
  // write-behind stream is in flight: multi-block requests time out on
  // the primary, fail over, time out again on the backup, and must then
  // be split back into single-block retries. After the servers heal,
  // every block lands exactly once — no loss, no double completion.
  ClusterConfig cfg;
  cfg.client.rpc_deadline = 0.2;
  cfg.client.retry.max_attempts = 6;
  MiniCluster mc(6, 4, 1 * MiB, cfg);
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/split", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());

  mc.cluster->server_on(mc.site.hosts[0])->set_slow_factor(1e6);
  mc.cluster->server_on(mc.site.hosts[1])->set_slow_factor(1e6);
  mc.sim.after(1.5, [&] {
    mc.cluster->server_on(mc.site.hosts[0])->set_slow_factor(1.0);
    mc.cluster->server_on(mc.site.hosts[1])->set_slow_factor(1.0);
  });

  ASSERT_TRUE(mc.write(c, *fh, 0, 16 * MiB).ok());
  ASSERT_TRUE(mc.fsync(c, *fh).ok());

  EXPECT_GT(c->coalesced_splits(), 0u);  // a run was split mid-fault
  EXPECT_GT(c->rpc_timeouts(), 0u);
  EXPECT_EQ(c->pool().dirty_bytes(), 0u);
  // Exactly-once accounting: every dirty block flushed exactly once
  // (a double completion would double-count remote write bytes).
  EXPECT_EQ(c->bytes_written_remote(), 16 * MiB);
  EXPECT_EQ(mc.fs->ns().stat("/split")->size, 16 * MiB);

  // The healed cluster serves reads of everything that was written.
  Client* r = mc.mount_on(3);
  auto fr = mc.open(r, "/split", kAlice, OpenFlags::ro());
  ASSERT_TRUE(fr.ok());
  auto rd = mc.read(r, *fr, 0, 16 * MiB);
  ASSERT_TRUE(rd.ok()) << rd.error().to_string();
  EXPECT_EQ(*rd, 16 * MiB);
}

TEST(Failures, FaultScheduleIsSeedDeterministic) {
  // Same seeds, same fault schedule, same workload => byte-identical
  // mmpmon and identical final time. The whole chaos pipeline is
  // reproducible.
  auto run = [] {
    ClusterConfig cfg;
    cfg.client.rpc_deadline = 0.5;
    MiniCluster mc(6, 4, 1 * MiB, cfg);
    Client* c = mc.mount_on(2);
    auto fh = mc.open(c, "/f", kAlice, OpenFlags::create_rw());
    EXPECT_TRUE(fh.ok());

    fault::FaultInjector inject(mc.net, Rng(77));
    inject.watch_pool(mc.cluster->connection_pool());
    inject.flap_link(mc.site.hosts[0], mc.site.sw, /*mttf=*/0.1,
                     /*mttr=*/0.05, /*start=*/0.0, /*until=*/2.0);
    inject.schedule_blackhole(0.05, mc.site.hosts[1], 0.4);

    std::optional<Result<Bytes>> w;
    c->write(*fh, 0, 16 * MiB, [&](Result<Bytes> r) { w = std::move(r); });
    mc.sim.run();
    EXPECT_TRUE(w.has_value() && w->ok());
    std::optional<Status> fs;
    c->fsync(*fh, [&](Status st) { fs = st; });
    mc.sim.run();
    EXPECT_TRUE(fs.has_value() && fs->ok());
    return std::make_pair(c->mmpmon(), mc.sim.now());
  };
  auto r1 = run();
  auto r2 = run();
  EXPECT_EQ(r1.first, r2.first);  // byte-identical counters
  EXPECT_DOUBLE_EQ(r1.second, r2.second);
}

}  // namespace
}  // namespace mgfs::gpfs
