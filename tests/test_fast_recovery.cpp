// Fast recovery: overlapped takeover rebuild, batched reassertion,
// early expel quorum, and the recovery-latency instrumentation
// (DESIGN.md §6, "recovery latency budget").
//
// The integration tests run against a MiniCluster with the short lease
// config so a whole suspicion → probe → expel or crash → election →
// rebuild cycle fits in a couple of simulated seconds.

#include <gtest/gtest.h>

#include <functional>
#include <optional>

#include "fault/injector.hpp"
#include "gpfs/lease.hpp"
#include "gpfs_test_util.hpp"

namespace mgfs::gpfs {
namespace {

using testutil::kAlice;
using testutil::MiniCluster;

ClusterConfig fast_cfg() {
  ClusterConfig cfg;
  cfg.lease_duration = 0.5;
  cfg.lease_recovery_wait = 0.25;
  cfg.client.rpc_deadline = 0.2;
  return cfg;
}

// ---------------------------------------------------------------------
// LeaseManager unit: probe slot and early-confirm lifecycle
// ---------------------------------------------------------------------

TEST(LeaseFastRecovery, ProbeSlotAndEarlyConfirmLifecycle) {
  LeaseManager lm(LeaseConfig{1.0, 0.5});
  lm.register_client(7, 0.0);

  // No open suspicion episode: no probe slot, and a confirmation is
  // corroboration of an existing suspicion, never a first accusation.
  EXPECT_FALSE(lm.claim_probe(7));
  lm.confirm_suspect(7);
  EXPECT_FALSE(lm.suspect_confirmed(7));

  // Open an episode: exactly one probe slot.
  lm.note_suspect(7, 0.2);
  EXPECT_TRUE(lm.claim_probe(7));
  EXPECT_FALSE(lm.claim_probe(7));

  // Probe quorum confirms: expel is due at once, not at
  // expiry + recovery_wait (1.5s away).
  lm.confirm_suspect(7);
  EXPECT_TRUE(lm.suspect_confirmed(7));
  EXPECT_TRUE(lm.expel_due(7, 0.3));
  EXPECT_DOUBLE_EQ(lm.time_until_expel(7, 0.3), 0.0);
  EXPECT_EQ(lm.confirms(), 1u);

  // A renewal racing in (the probe verdict was wrong) clears the whole
  // episode: confirmation, expel clock, and the probe slot.
  EXPECT_TRUE(lm.renew(7, 0.4));
  EXPECT_FALSE(lm.suspect_confirmed(7));
  EXPECT_FALSE(lm.expel_due(7, 0.5));
  EXPECT_FALSE(lm.claim_probe(7));

  // The next episode gets a fresh slot.
  lm.note_suspect(7, 0.6);
  EXPECT_TRUE(lm.claim_probe(7));
  EXPECT_FALSE(lm.claim_probe(7));
}

// ---------------------------------------------------------------------
// Integration: overlapped takeover rebuild
// ---------------------------------------------------------------------

/// Manager crash with one mute straggler stretching the rebuild to the
/// full query deadline. Mid-rebuild, the gate must admit the client
/// whose own assertion already installed (preserved lease epoch + new
/// manager epoch) and keep queueing everyone else — and the reasserted
/// client's redriven flush must land while the straggler is still being
/// queried. The rebuild itself is one RPC per client, not per grant.
TEST(FastRecoveryIntegration, OverlapWindowAdmitsReassertedQueuesStraggler) {
  MiniCluster mc(6, 4, 1 * MiB, fast_cfg());
  Client* survivor = mc.mount_on(2);
  Client* straggler = mc.mount_on(3);
  ASSERT_NE(survivor, nullptr);
  ASSERT_NE(straggler, nullptr);

  auto sfh = mc.open(survivor, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(sfh.ok());
  auto gfh = mc.open(straggler, "/g", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(gfh.ok());

  // Committed region for the survivor: rw tokens held, blocks
  // allocated, so re-dirtying it later needs no metadata RPC and the
  // write-behind flush drives straight at the NSD write gate.
  ASSERT_TRUE(mc.write(survivor, *sfh, 0, 4 * MiB).ok());
  ASSERT_TRUE(mc.fsync(survivor, *sfh).ok());
  ASSERT_TRUE(mc.write(straggler, *gfh, 0, 2 * MiB).ok());
  const std::uint64_t straggler_epoch = straggler->lease_epoch();

  fault::FaultInjector inject(mc.net, Rng(11));
  inject.watch_pool(mc.cluster->connection_pool());
  inject.watch_cluster(*mc.cluster);
  const double t0 = mc.sim.now();
  inject.schedule_blackhole(t0, mc.site.hosts[3], 5.0);
  inject.schedule_crash_manager(t0 + 0.02, *mc.fs, 1.0);

  // Lease checks are lazy, so a metadata op must find the dead manager
  // to drive the election: a stat whose RPC times out, reports, and
  // redrives against the successor.
  std::optional<Result<StatInfo>> st;
  mc.sim.after(t0 + 0.04 - mc.sim.now(), [&] {
    survivor->stat("/f", [&](Result<StatInfo> r) { st = std::move(r); });
  });

  // Two checkpoints inside the rebuild window. First, at the very first
  // tick after begin_takeover — the poll cadence (50us) is finer than a
  // network hop, so the survivor's assert query is still on the wire —
  // re-dirty the committed region: the reply the survivor computes
  // moments later keeps its rw token clipped to exactly these unflushed
  // pages, and the redriven flush drives at the recovering gate.
  // Second, once that assertion has installed but while the straggler
  // is still being queried, probe the gate for all three verdicts.
  std::optional<NsdServer::GateDecision> g_reasserted, g_straggler, g_stale;
  std::uint64_t overlap_before_flush = 0;
  bool redirtied = false;
  std::optional<Result<Bytes>> sw;
  std::optional<Status> ss;
  std::function<void()> poll = [&] {
    if (!redirtied && mc.fs->recovering()) {
      redirtied = true;
      overlap_before_flush = mc.fs->overlap_writes_admitted();
      survivor->write(*sfh, 0, 4 * MiB, [&](Result<Bytes> r) {
        sw = std::move(r);
        survivor->fsync(*sfh, [&](Status st) { ss = st; });
      });
    }
    if (redirtied && mc.fs->recovering() &&
        mc.fs->assertions_rebuilt() >= 1) {
      g_reasserted = mc.fs->write_gate(survivor->id(), 0,
                                       survivor->lease_epoch(),
                                       mc.fs->manager_epoch(0));
      g_straggler = mc.fs->write_gate(straggler->id(), 0, straggler_epoch,
                                      mc.fs->manager_epoch(0));
      g_stale = mc.fs->write_gate(survivor->id(), 0, survivor->lease_epoch(),
                                  mc.fs->manager_epoch(0) - 1);
      return;
    }
    if (mc.sim.now() < t0 + 3.0) {
      mc.sim.after(redirtied ? 0.005 : 0.00005, poll);
    }
  };
  mc.sim.after(0.0, poll);
  mc.sim.run();

  ASSERT_TRUE(g_reasserted.has_value()) << "never saw a rebuild window";
  ASSERT_TRUE(st.has_value() && st->ok());
  EXPECT_EQ(*g_reasserted, NsdServer::GateDecision::admit);
  EXPECT_EQ(*g_straggler, NsdServer::GateDecision::retry);
  EXPECT_EQ(*g_stale, NsdServer::GateDecision::retry);

  // The real redriven flush landed through the overlap window too, and
  // the whole write+fsync completed.
  ASSERT_TRUE(sw.has_value() && sw->ok());
  ASSERT_TRUE(ss.has_value() && ss->ok());
  EXPECT_GT(mc.fs->overlap_writes_admitted(), overlap_before_flush);

  // Batched reassertion: one reassert_all RPC per mounted client.
  EXPECT_EQ(mc.fs->manager_takeovers(), 1u);
  EXPECT_EQ(mc.fs->rebuild_rpcs(), 2u);
  EXPECT_GE(mc.fs->assertions_rebuilt(), 1u);

  // SLO metric: the first post-takeover grant landed well inside the
  // old full-recovery-window pause.
  EXPECT_GE(mc.fs->takeover_to_first_grant_s(), 0.0);
  EXPECT_LE(mc.fs->takeover_to_first_grant_s(),
            2.0 * fast_cfg().lease_duration);
}

// ---------------------------------------------------------------------
// Integration: early expel quorum
// ---------------------------------------------------------------------

/// A blackholed token holder is probed (manager path + witness client)
/// the moment its revoke goes unanswered; both probes fail, the
/// suspicion is confirmed, and the conflicting write proceeds well
/// before the renewal-miss clock (expiry + recovery_wait >= 0.75s here)
/// would have expired it.
TEST(FastRecoveryIntegration, EarlyExpelQuorumShortensConflictWait) {
  MiniCluster mc(6, 4, 1 * MiB, fast_cfg());
  Client* victim = mc.mount_on(2);
  Client* survivor = mc.mount_on(3);
  ASSERT_NE(victim, nullptr);
  ASSERT_NE(survivor, nullptr);

  auto vfh = mc.open(victim, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(vfh.ok());
  auto sfh = mc.open(survivor, "/f", kAlice, OpenFlags::rw());
  ASSERT_TRUE(sfh.ok());

  // Dirty, never-fsynced data behind rw tokens, then silence.
  ASSERT_TRUE(mc.write(victim, *vfh, 0, 4 * MiB).ok());
  fault::FaultInjector inject(mc.net, Rng(5));
  inject.watch_pool(mc.cluster->connection_pool());
  inject.watch_cluster(*mc.cluster);
  const double t0 = mc.sim.now();
  inject.schedule_blackhole(t0, mc.site.hosts[2], 3.0);

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
  // Budget: revoke deadline (<= recovery_wait) + probe deadline
  // (half a recovery_wait) + slack — strictly under the 0.75s the
  // renewal-miss path needs before it may even consider the expel.
  const ClusterConfig cfg = fast_cfg();
  EXPECT_LE(s_done_at - t0, cfg.lease_duration + cfg.lease_recovery_wait);
  EXPECT_LE(s_done_at - t0, 0.65);
  EXPECT_GE(mc.fs->early_expels(), 1u);
  EXPECT_GE(mc.fs->expels(), 1u);
  EXPECT_TRUE(mc.fs->fsck().clean());
}

// ---------------------------------------------------------------------
// Integration: manager-suspicion strike dedupe
// ---------------------------------------------------------------------

/// Strikes are deduplicated per (reporter, manager epoch): one
/// partitioned client can re-report forever and never reach the
/// distinct-accuser quorum, the episode is forgiven after a quiet
/// lease period, and a successful deposal resets the slate for the
/// successor incarnation.
TEST(FastRecoveryIntegration, ManagerStrikesDedupedPerReporterAndEpoch) {
  MiniCluster mc(6, 4, 1 * MiB, fast_cfg());
  Client* a = mc.mount_on(2);
  Client* b = mc.mount_on(3);
  Client* c = mc.mount_on(4);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  mc.sim.run();
  const std::uint64_t epoch0 = mc.fs->manager_epoch(0);

  // One flapping accuser: five reports, still one distinct reporter.
  for (int i = 0; i < 5; ++i) {
    mc.cluster->note_manager_unreachable(mc.fs, a->id());
  }
  EXPECT_EQ(mc.fs->manager_takeovers(), 0u);

  // Quiet lease period: the episode is forgiven, accusers start over.
  mc.cluster->note_manager_unreachable(mc.fs, b->id());
  mc.sim.run_until(mc.sim.now() + 2.0 * fast_cfg().lease_duration);
  mc.cluster->note_manager_unreachable(mc.fs, a->id());
  mc.cluster->note_manager_unreachable(mc.fs, b->id());
  EXPECT_FALSE(mc.fs->recovering());
  EXPECT_EQ(mc.fs->manager_takeovers(), 0u);

  // Third distinct accuser inside one episode: the takeover fires.
  mc.cluster->note_manager_unreachable(mc.fs, c->id());
  EXPECT_GT(mc.fs->manager_epoch(0), epoch0);
  mc.sim.run();  // drain the rebuild
  EXPECT_EQ(mc.fs->manager_takeovers(), 1u);

  // The strike ledger accused the deposed incarnation, not the office:
  // the successor starts clean, so the same three reports must
  // re-accumulate from scratch (two distinct are not enough).
  mc.cluster->note_manager_unreachable(mc.fs, a->id());
  mc.cluster->note_manager_unreachable(mc.fs, a->id());
  mc.cluster->note_manager_unreachable(mc.fs, b->id());
  EXPECT_EQ(mc.fs->manager_takeovers(), 1u);
}

// ---------------------------------------------------------------------
// Integration: fast recovery probing and the latency instrumentation
// ---------------------------------------------------------------------

/// While a rebuild is in flight, a client retries metadata ops on the
/// short fixed probe cadence instead of the seeded backoff schedule,
/// records the op in its recovery-latency histogram, and surfaces all
/// of it through mmpmon / manager stats.
TEST(FastRecoveryIntegration, RecoveryProbesAndLatencyStats) {
  MiniCluster mc(6, 4, 1 * MiB, fast_cfg());
  Client* survivor = mc.mount_on(2);
  Client* straggler = mc.mount_on(3);
  ASSERT_NE(survivor, nullptr);
  ASSERT_NE(straggler, nullptr);

  auto sfh = mc.open(survivor, "/f", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(sfh.ok());
  ASSERT_TRUE(mc.write(survivor, *sfh, 0, 1 * MiB).ok());
  ASSERT_TRUE(mc.fsync(survivor, *sfh).ok());

  fault::FaultInjector inject(mc.net, Rng(3));
  inject.watch_pool(mc.cluster->connection_pool());
  inject.watch_cluster(*mc.cluster);
  const double t0 = mc.sim.now();
  // The mute straggler stretches the rebuild window to the full client
  // query deadline, so the survivor's op is guaranteed to see it.
  inject.schedule_blackhole(t0, mc.site.hosts[3], 5.0);
  inject.schedule_crash_manager(t0 + 0.02, *mc.fs, 1.0);

  std::optional<Result<StatInfo>> st;
  mc.sim.after(t0 + 0.1 - mc.sim.now(), [&] {
    survivor->stat("/f", [&](Result<StatInfo> r) { st = std::move(r); });
  });
  // A post-takeover write forces a token grant, which stamps the
  // takeover_to_first_grant SLO metric. It has to land while demand
  // still attributes to the takeover — inside the old full-recovery
  // window — so fire it the moment the rebuild completes rather than
  // after the post-run drain.
  bool saw_rebuild = false;
  std::optional<Result<Bytes>> w;
  std::function<void()> after_rebuild = [&] {
    if (mc.fs->recovering()) saw_rebuild = true;
    if (saw_rebuild && !mc.fs->recovering()) {
      survivor->write(*sfh, 1 * MiB, 1 * MiB,
                      [&](Result<Bytes> r) { w = std::move(r); });
      return;
    }
    if (mc.sim.now() < t0 + 3.0) mc.sim.after(0.0005, after_rebuild);
  };
  mc.sim.after(0.0, after_rebuild);
  mc.sim.run();

  ASSERT_TRUE(st.has_value());
  EXPECT_TRUE(st->ok()) << (st->ok() ? "" : st->error().to_string());
  EXPECT_GE(survivor->recovery_probes(), 1u);
  EXPECT_GE(survivor->recovery_op_latency().count(), 1u);
  EXPECT_GT(survivor->recovery_op_latency().quantile(0.99), 0.0);

  const std::string mm = survivor->mmpmon();
  EXPECT_NE(mm.find("_rpb_"), std::string::npos);
  EXPECT_NE(mm.find("_rp50_"), std::string::npos);
  EXPECT_NE(mm.find("_rp99_"), std::string::npos);

  ASSERT_TRUE(w.has_value());
  ASSERT_TRUE(w->ok()) << (w->ok() ? "" : w->error().to_string());
  EXPECT_GE(mc.fs->takeover_to_first_grant_s(), 0.0);
  EXPECT_LE(mc.fs->takeover_to_first_grant_s(),
            fast_cfg().lease_duration + fast_cfg().lease_recovery_wait);

  const std::string ms = mc.fs->stats();
  EXPECT_NE(ms.find("_rrpc_"), std::string::npos);
  EXPECT_NE(ms.find("_ovl_"), std::string::npos);
  EXPECT_NE(ms.find("_exq_"), std::string::npos);
  EXPECT_NE(ms.find("_t1g_"), std::string::npos);
}

}  // namespace
}  // namespace mgfs::gpfs
