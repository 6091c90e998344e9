// Chaos soak: the fault-injection acceptance runs, one row each in
// kScenarios at the bottom of this file. `chaos_soak` alone runs the
// default soak, `--scenario NAME` one of the drills, and `--json PATH`
// dumps the soak's (or site_outage's) metrics machine-readably. Each
// run prints what it measured and an "Acceptance:" block of
// [PASS]/[FAIL] lines, and exits nonzero on any FAIL (2 on a malformed
// command line). Each run function documents its fault script and pass
// criteria; every row also runs under ctest (bench/CMakeLists.txt).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>

#include "bench_util.hpp"
#include "common/histogram.hpp"
#include "fault/injector.hpp"
#include "workload/mpiio.hpp"

using namespace mgfs;

namespace {

/// Simulator, network and fault injector, plus op helpers. The
/// synchronous ones (open, write, read, fsync, stat, commit) make one
/// client call, drain the event queue and return the call's result (an
/// error if the callback never fired); open_after and retry script
/// asynchronous ops and leave the draining to the caller.
struct Harness {
  explicit Harness(std::uint64_t injector_seed)
      : inject(net, Rng(injector_seed)) {}

  /// Let the injector reset `cluster`'s pooled connections and lapsed
  /// incarnations when a crashed node restarts.
  void watch(gpfs::Cluster& cluster) {
    inject.watch_pool(cluster.connection_pool());
    inject.watch_cluster(cluster);
  }
  /// Create NSD `tag`nsd`i` over a fresh 200 MB/s device `tag`dev`i`.
  std::uint32_t add_nsd(gpfs::Cluster& cluster, const std::string& tag,
                        std::size_t i, Bytes capacity, net::NodeId primary,
                        net::NodeId backup, std::uint32_t site) {
    devices.push_back(std::make_unique<storage::RateDevice>(
        sim, capacity, BytesPerSec(200e6), 0.5e-3,
        tag + "dev" + std::to_string(i)));
    return cluster.create_nsd(tag + "nsd" + std::to_string(i),
                              devices.back().get(), primary, backup, site);
  }

  template <class R, class Op>
  R await(Op op) {
    std::optional<R> out;
    op([&](R r) {
      out = std::move(r);
      done_at = sim.now();
    });
    sim.run();
    if (!out.has_value()) return err(Errc::timed_out, "never completed");
    return std::move(*out);
  }
  gpfs::Fh open(gpfs::Client* c, const std::string& path, gpfs::OpenFlags f) {
    auto r = await<Result<gpfs::Fh>>(
        [&](auto done) { c->open(path, bench::kUser, f, done); });
    MGFS_ASSERT(r.ok(), "open failed");
    return *r;
  }
  Result<Bytes> write(gpfs::Client* c, gpfs::Fh fh, Bytes off, Bytes len) {
    return await<Result<Bytes>>(
        [&](auto done) { c->write(fh, off, len, done); });
  }
  Result<Bytes> read(gpfs::Client* c, gpfs::Fh fh, Bytes off, Bytes len) {
    return await<Result<Bytes>>(
        [&](auto done) { c->read(fh, off, len, done); });
  }
  Status fsync(gpfs::Client* c, gpfs::Fh fh) {
    return await<Status>([&](auto done) { c->fsync(fh, done); });
  }
  Result<gpfs::StatInfo> stat(gpfs::Client* c, const std::string& path) {
    return await<Result<gpfs::StatInfo>>(
        [&](auto done) { c->stat(path, done); });
  }
  /// Open `path` `delay` s from now without draining the simulator;
  /// once open (it must succeed), store the handle in `fh` and run `then`.
  void open_after(double delay, gpfs::Client* c, const std::string& path,
                  gpfs::OpenFlags f, std::optional<gpfs::Fh>& fh,
                  std::function<void()> then) {
    sim.after(delay, [=, this, &fh] {
      c->open(path, bench::kUser, f, [&fh, then](Result<gpfs::Fh> r) {
        MGFS_ASSERT(r.ok(), "open failed");
        fh = *r;
        then();
      });
    });
  }
  /// Write [off, off+len) and fsync it; both must succeed (drill setup).
  void commit(gpfs::Client* c, gpfs::Fh fh, Bytes off, Bytes len) {
    MGFS_ASSERT(write(c, fh, off, len).ok(), "setup write failed");
    MGFS_ASSERT(fsync(c, fh).ok(), "setup fsync failed");
  }

  /// Run `op(done)`; while it fails and attempts remain, run it again
  /// `delay` s later (at once when `delay` is 0). Does not drain the
  /// simulator; `done` gets the last attempt's result.
  template <class R>
  void retry(int attempts, double delay,
             std::function<void(std::function<void(R)>)> op,
             std::function<void(R)> done) {
    op([this, attempts, delay, op, done](R r) {
      if (!r.ok() && attempts > 0) {
        auto again = [=, this] { retry<R>(attempts - 1, delay, op, done); };
        if (delay > 0) {
          sim.after(delay, again);
        } else {
          again();
        }
        return;
      }
      done(std::move(r));
    });
  }

  sim::Simulator sim;
  net::Network net{sim};
  fault::FaultInjector inject;
  std::vector<std::unique_ptr<storage::BlockDevice>> devices;
  double done_at = 0;  // sim time the last awaited op completed
};

/// Admit `node` to `cluster` and mount `fs` there.
gpfs::Client* mount_on(gpfs::Cluster& cluster, net::NodeId node,
                       const std::string& fs) {
  cluster.add_node(node);
  auto c = cluster.mount(fs, node);
  MGFS_ASSERT(c.ok(), "mount failed");
  return *c;
}

/// The "Acceptance:" block: one [PASS]/[FAIL] line per check.
struct Checks {
  Checks() { std::cout << "\nAcceptance:\n"; }
  void operator()(bool cond, const char* what) {
    std::printf("  [%s] %s\n", cond ? "PASS" : "FAIL", what);
    ok = ok && cond;
  }
  bool ok = true;
};

/// A single-site drill cluster: `hosts` hosts on one GbE switch; hosts
/// [0, servers) serve `nsds` 200 MB/s NSDs of file system "chaos",
/// host `servers` is its manager, the rest are free for clients.
struct Shape {
  std::size_t hosts;
  double rpc_deadline;
  double lease_duration;
  double lease_recovery_wait;
  std::uint32_t meta_shards;
  std::size_t servers;
  std::size_t nsds;
  std::uint64_t injector_seed;
};

/// The soak's deadline is tight so faults are survived by retry,
/// failover and breakers, not outlasted, and its lease short enough
/// that its dirty-writer episode runs the full expel -> journal replay
/// -> fence cycle inside the soak. The lease drills' 0.8 s lease expels
/// a mute client within a second; nsd_loss keeps the default lease,
/// since nothing there waits on an expel.
//                          hosts deadline lease wait shards srv nsds seed
constexpr Shape kSoak{         20,     0.5,  3.0,  1.5,    1,  4,   8, 1337};
constexpr Shape kLeaseDrill{    6,     0.3,  0.8,  0.4,    1,  2,   4,    7};
constexpr Shape kShardDrill{   18,     0.3,  0.8,  0.4,    4,  2,   4,    7};
constexpr Shape kNsdLoss{       7,     0.5, 60.0, 30.0,    1,  4,   8,    7};

gpfs::ClusterConfig chaos_config(const Shape& s) {
  gpfs::ClusterConfig ccfg;
  ccfg.name = "chaos";
  ccfg.client.rpc_deadline = s.rpc_deadline;
  ccfg.lease_duration = s.lease_duration;
  ccfg.lease_recovery_wait = s.lease_recovery_wait;
  ccfg.meta_shards = s.meta_shards;
  return ccfg;
}

/// A Harness around the Shape's cluster. Node ids, client ids and the
/// seeded RNG draws all follow construction order, so drills mount
/// their clients in a fixed order.
struct LanHarness : Harness {
  explicit LanHarness(const Shape& s)
      : Harness(s.injector_seed),
        shape(s),
        site(net::add_site(net, "s", s.hosts, gbps(1.0))),
        cluster(sim, net, chaos_config(s), Rng(42)),
        farm(bench::make_rate_farm(cluster, sim, site, /*first_host=*/0,
                                   s.servers, s.nsds, BytesPerSec(200e6),
                                   /*device_capacity=*/4 * GiB, "chaos")) {
    watch(cluster);
  }

  gpfs::Client* mount(std::size_t host, const std::string& fs = "chaos") {
    return mount_on(cluster, site.hosts.at(host), fs);
  }
  /// Writes the farm's NSD servers refused for a stale lease or manager
  /// epoch.
  std::uint64_t nsd_fenced() {
    std::uint64_t n = 0;
    for (net::NodeId node : farm.server_nodes) {
      if (gpfs::NsdServer* s = cluster.server_on(node)) n += s->fenced_writes();
    }
    return n;
  }

  const Shape shape;
  net::Site site;
  gpfs::Cluster cluster;
  bench::ServerFarm farm;
};

struct RunResult {
  double write_MBps = 0;
  double read_MBps = 0;
  Bytes bytes_written = 0;
  Bytes bytes_read = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t failovers = 0;
  std::uint64_t lease_renewals = 0;
  std::uint64_t expels = 0;
  std::uint64_t journal_replays = 0;
  std::uint64_t fenced_writes = 0;
  std::uint64_t manager_takeovers = 0;
  std::uint64_t manager_reroutes = 0;
  std::uint64_t stale_mgr_fenced = 0;
  // recovery-latency SLO metrics (DESIGN.md §6, latency budget)
  double takeover_to_first_grant_s = -1.0;
  std::uint64_t rebuild_rpcs = 0;
  std::uint64_t early_expels = 0;
  std::uint64_t overlap_admits = 0;
  std::uint64_t recovery_probes = 0;
  std::uint64_t recovery_ops = 0;   // metadata ops that saw the rebuild gate
  double recovery_p50_s = 0;
  double recovery_p99_s = 0;
  // replication episode (2-copy file under a dual-server blackhole)
  std::uint64_t replica_reads = 0;       // reads served by a non-primary copy
  std::uint64_t replica_failovers = 0;   // fills/flushes re-aimed at a replica
  std::uint64_t replica_divergences = 0; // copies marked stale by writers
  std::uint64_t replicas_reconciled = 0; // copies re-cleaned after the heal
  std::string mmpmon;
};

constexpr std::size_t kServers = kSoak.servers;
constexpr std::size_t kClients = 4;
constexpr Bytes kPerTask = 64 * MiB;

RunResult run_workload(bool inject_faults) {
  // Hosts: servers, manager, writer clients, a second bank of reader
  // clients (cold caches — the read-back must hit the devices,
  // otherwise "zero data loss" only checks the writers' pagepools), a
  // dirty-writer pair for the expel/fencing episode the fault phase
  // folds in, a replication-episode pair (writer + cold reader of a
  // 2-copy file), and three serving nodes for the episode's own
  // replicated file system at the end.
  static_assert(kSoak.hosts == kServers + 1 + 2 * kClients + 2 + 2 + 3);
  LanHarness h(kSoak);
  sim::Simulator& sim = h.sim;
  gpfs::Cluster& cluster = h.cluster;
  fault::FaultInjector& inject = h.inject;
  const bench::ServerFarm& farm = h.farm;

  std::vector<gpfs::Client*> clients;
  std::vector<gpfs::Client*> readers;
  for (std::size_t i = 0; i < 2 * kClients; ++i) {
    (i < kClients ? clients : readers).push_back(h.mount(kServers + 1 + i));
  }

  // The dirty-writer episode pair is mounted in both phases so the
  // cluster shape (node ids, client ids, seeded RNG draws) is identical;
  // only the fault phase actually drives it.
  gpfs::Client* victim = h.mount(kServers + 1 + 2 * kClients);
  gpfs::Client* dsurv = h.mount(kServers + 1 + 2 * kClients + 1);

  // Replication episode: its own small file system over three serving
  // nodes so its fault window (BOTH serving nodes of one NSD dark, far
  // longer than the 4-attempt retry horizon) never clogs the measured
  // workload's flush slots or stalls its token revocations. NSD layout
  // (fs-local): nsd0 r0/r1, nsd1 r1/r2, nsd2 r2/r0; site = serving
  // node, so a 2-copy file lands each block's copies behind different
  // primaries. Blackholing r0+r1 kills nsd0 outright (both serving
  // nodes dark) while nsd1 fails over to its live backup r2 and nsd2
  // stays up — exactly one copy of some blocks survives.
  std::vector<net::NodeId> rep_srv;
  std::vector<std::uint32_t> rep_nsd_ids;
  for (std::size_t i = 0; i < 3; ++i) {
    net::NodeId n = h.site.hosts.at(kServers + 1 + 2 * kClients + 4 + i);
    cluster.add_node(n);
    cluster.add_nsd_server(n);
    rep_srv.push_back(n);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    rep_nsd_ids.push_back(h.add_nsd(cluster, "rep", i, 2 * GiB, rep_srv[i],
                                    rep_srv[(i + 1) % 3],
                                    static_cast<std::uint32_t>(i)));
  }
  gpfs::FileSystem& repfs =
      cluster.create_filesystem("rep", rep_nsd_ids, 1 * MiB, farm.manager);

  // Episode pair: mounted in both phases (identical cluster shape); the
  // script below also runs in both so the baseline and the chaos run
  // measure the same workload.
  gpfs::Client* repw = h.mount(kServers + 1 + 2 * kClients + 2, "rep");
  gpfs::Client* repr = h.mount(kServers + 1 + 2 * kClients + 3, "rep");

  // Episode state; must outlive the callbacks that fill it in.
  std::optional<gpfs::Fh> vfh, dfh, pfh, rwfh, rrfh;
  std::optional<Result<Bytes>> rread;
  std::optional<Status> rsync2;
  constexpr Bytes kRepBytes = 8 * MiB;

  // Replication episode, both phases: a 2-copy file is written and
  // committed while everything is healthy, then read back cold and
  // overwritten during the window where (chaos phase only) BOTH serving
  // nodes of one copy are dark — reads must fail over to the surviving
  // replica and the write path must re-anchor + mark the dark copy
  // divergent instead of stalling. The run-end fsck (after
  // reconcile_replicas) checks nothing stayed stale.
  h.open_after(0.15, repw, "/rep", gpfs::OpenFlags::create_replicated(2),
               rwfh, [&] {
    repw->write(*rwfh, 0, kRepBytes, [&](Result<Bytes> w) {
      MGFS_ASSERT(w.ok(), "replicated write failed");
      repw->fsync(*rwfh, [](Status s) {
        MGFS_ASSERT(s.ok(), "replicated fsync failed");
      });
    });
  });
  h.open_after(0.7, repr, "/rep", gpfs::OpenFlags::ro(), rrfh, [&] {
    h.retry<Result<Bytes>>(
        10, 0.3, [&](auto done) { repr->read(*rrfh, 0, kRepBytes, done); },
        [&](Result<Bytes> r) { rread = std::move(r); });
  });
  sim.after(0.9, [&] {
    repw->write(*rwfh, 0, kRepBytes, [&](Result<Bytes> w) {
      MGFS_ASSERT(w.ok(), "replicated overwrite failed");
      h.retry<Status>(
          30, 0.3, [&](auto done) { repw->fsync(*rwfh, done); },
          [&](Status s) { rsync2 = s; });
    });
  });

  if (inject_faults) {
    // Server 0: LAN link flaps between host and switch.
    inject.flap_link(farm.server_nodes[0], h.site.sw, /*mttf=*/1.5,
                     /*mttr=*/0.2, /*start=*/0.1, /*until=*/8.0);
    // Server 1: fail-slow, 50x request CPU for 1.5 s.
    inject.schedule_fail_slow(0.2, *cluster.server_on(farm.server_nodes[1]),
                              50.0, 1.5);
    // Server 2: blackholed for 1.5 s.
    inject.schedule_blackhole(0.5, farm.server_nodes[2], 1.5);
    // Replication episode: both serving nodes of repfs nsd0 go dark for
    // a window that outlasts the full 4-attempt retry horizon (~2.1 s
    // at the 0.5 s deadline) of the episode's 0.7 s read and 0.9 s
    // overwrite — primary->backup failover is not enough, so reads must
    // redirect to the surviving replica and write propagation to the
    // dark copies terminally fails (marking them divergent).
    inject.schedule_blackhole(0.55, rep_srv[0], 2.65);
    inject.schedule_blackhole(0.55, rep_srv[1], 2.65);
    // Server 3: crash/restart churn — each outage fails I/O over to the
    // backup server and the restart notification resets its pooled
    // connections and (via watch_cluster) any lapsed incarnations.
    inject.churn_node(farm.server_nodes[3], /*mttf=*/2.0, /*mttr=*/0.25,
                      /*start=*/0.3, /*until=*/8.0);
    // Manager node crashes mid-soak: successor election, token-state
    // rebuild and manager-epoch fencing run under full fault load while
    // the dirty-writer episode is still unresolved.  The crash lands
    // after the measured write job drains so goodput reflects data-path
    // chaos, not the metadata takeover stall; two probe stats from
    // distinct clients supply the two-reporter suspicion quorum.
    inject.schedule_crash_manager(4.5, *farm.fs, 1.0);
    sim.after(4.55, [&] {
      clients[0]->stat("/soak", [](Result<gpfs::StatInfo>) {});
      clients[1]->stat("/soak", [](Result<gpfs::StatInfo>) {});
    });
    // An in-flight commit rides across the takeover: the write-behind
    // flush spans the crash, bounces off the recovering write gate
    // (opening the client's NSD circuit breaker), and completes once
    // the rebuilt manager resumes.
    h.open_after(4.3, clients[1], "/tko", gpfs::OpenFlags::create_rw(),
                 pfh, [&] {
      clients[1]->write(*pfh, 0, 64 * MiB, [&](Result<Bytes> w) {
        MGFS_ASSERT(w.ok(), "takeover stage failed");
        h.retry<Status>(
            30, 0.2, [&](auto done) { clients[1]->fsync(*pfh, done); },
            [](Status s) {
              MGFS_ASSERT(s.ok(), "in-flight commit across takeover failed");
            });
      });
    });
    // Dirty-writer episode: the victim stages dirty, never-fsynced
    // write-behind and goes mute; the takeover marks it a lapsed
    // suspect, dsurv's overlapping write completes once the rebuilt
    // tables drop the mute holder, the sweep expels it (journal
    // replay), and its healed late flush — still stamped with the
    // deposed manager epoch — is fenced at the NSD servers.
    h.open_after(0.05, victim, "/dirty", gpfs::OpenFlags::create_rw(), vfh,
                 [&] {
      victim->write(*vfh, 0, 8 * MiB, [](Result<Bytes>) {});
    });
    inject.schedule_blackhole(0.12, victim->node(), 6.0);
    h.open_after(0.3, dsurv, "/dirty", gpfs::OpenFlags::rw(), dfh, [&] {
      h.retry<Result<Bytes>>(
          2, 0.0, [&](auto done) { dsurv->write(*dfh, 0, 4 * MiB, done); },
          [&](Result<Bytes> w) {
            MGFS_ASSERT(w.ok(), "episode takeover write failed");
            dsurv->fsync(*dfh, [](Status) {});
          });
    });
  }

  workload::MpiIoConfig wcfg;
  wcfg.block = 16 * MiB;
  wcfg.transfer = 1 * MiB;
  wcfg.per_task = kPerTask;
  // One MPI-IO phase of `tasks` over /soak, run to completion.
  auto mpiio = [&](const std::vector<gpfs::Client*>& tasks, bool write,
                   const char* what) {
    wcfg.write = write;
    workload::MpiIoJob job(tasks, "/soak", bench::kUser, wcfg);
    auto r = h.await<Result<workload::MpiIoResult>>(
        [&](auto done) { job.run(done); });
    if (!r.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", what,
                   r.error().to_string().c_str());
    }
    MGFS_ASSERT(r.ok(), "MPI-IO phase failed");
    return *r;
  };
  const workload::MpiIoResult wres = mpiio(clients, true, "write phase");

  // Orderly writer unmount before the measured read-back, in BOTH
  // phases. Without this the two phases measure different things: the
  // baseline's readers paid a token-revocation round against every
  // writer's surviving rw token, while the chaos run's manager takeover
  // had already wiped the token tables — handing its readers
  // revocation-free grants and making the chaos read rate *beat* the
  // fault-free one. Unmounting the writers releases their tokens the
  // same way in both phases, so the read windows are comparable.
  std::size_t writers_down = 0;
  for (gpfs::Client* c : clients) {
    cluster.unmount_flush(c, [&] { ++writers_down; });
  }
  sim.run();
  MGFS_ASSERT(writers_down == kClients, "writer unmount did not complete");

  // Start the measured read-back at the same absolute sim time in both
  // phases: lease-renewal timers are clocked off mount time, so a
  // window that opens at t=2 s in the baseline but t=10 s after the
  // chaos drain would catch a different number of renewal rounds —
  // a percent-level skew between two otherwise identical phases.
  constexpr sim::Time kMeasureAt = 15.0;
  MGFS_ASSERT(sim.now() < kMeasureAt, "fault drain ran past the read phase");
  sim.run_until(kMeasureAt);

  // The fault drain can outlast an idle lease; a sacrificial open per
  // reader surfaces the lapse (stale -> rejoin) before the measured
  // read-back, so the timed phase starts from valid leases.
  for (gpfs::Client* c : readers) {
    c->open("/soak", bench::kUser, gpfs::OpenFlags::ro(),
            [c](Result<gpfs::Fh> r) {
              if (r.ok()) c->close(*r, [](Status) {});
            });
  }
  sim.run();

  const workload::MpiIoResult rres = mpiio(readers, false, "read-back");

  RunResult out;
  out.write_MBps = wres.aggregate_MBps();
  out.read_MBps = rres.aggregate_MBps();
  out.bytes_written = wres.bytes;
  out.bytes_read = rres.bytes;
  for (gpfs::Client* c : clients) {
    out.retries += c->rpc_retries();
    out.timeouts += c->rpc_timeouts();
    out.breaker_opens += c->breaker_opens();
    out.failovers += c->nsd_failovers();
  }
  for (gpfs::Client* c : readers) out.manager_reroutes += c->mgr_reroutes();
  for (gpfs::Client* c : clients) out.manager_reroutes += c->mgr_reroutes();
  out.manager_reroutes += victim->mgr_reroutes() + dsurv->mgr_reroutes();
  auto rep_fold = [&](gpfs::Client* c) {
    out.replica_reads += c->replica_reads();
    out.replica_failovers += c->replica_failovers();
  };
  for (gpfs::Client* c : clients) rep_fold(c);
  for (gpfs::Client* c : readers) rep_fold(c);
  rep_fold(repw);
  rep_fold(repr);
  out.lease_renewals = farm.fs->lease_renewals();
  out.expels = farm.fs->expels();
  out.journal_replays = farm.fs->journal_records_replayed();
  out.fenced_writes = farm.fs->fenced_writes();
  out.manager_takeovers = farm.fs->manager_takeovers();
  out.stale_mgr_fenced = farm.fs->stale_manager_fenced();
  out.takeover_to_first_grant_s = farm.fs->takeover_to_first_grant_s();
  out.rebuild_rpcs = farm.fs->rebuild_rpcs();
  out.early_expels = farm.fs->early_expels();
  out.overlap_admits = farm.fs->overlap_writes_admitted();
  // Cluster-wide op latency during recovery: fold every mounted
  // client's histogram (same bin geometry) into one distribution.
  Histogram rec(0.01, 2000, "recovery_ops");
  auto fold = [&](gpfs::Client* c) {
    rec.merge(c->recovery_op_latency());
    out.recovery_probes += c->recovery_probes();
  };
  for (gpfs::Client* c : clients) fold(c);
  for (gpfs::Client* c : readers) fold(c);
  fold(victim);
  fold(dsurv);
  out.recovery_ops = rec.count();
  out.recovery_p50_s = rec.quantile(0.5);
  out.recovery_p99_s = rec.quantile(0.99);
  // Replication episode wrap-up: every byte of the 2-copy file was read
  // back despite the dual blackhole, the overwrite committed, and after
  // reconciliation (the heal re-copies divergent replicas) nothing in
  // the replica tables is stale.
  MGFS_ASSERT(rread.has_value() && rread->ok() && **rread == kRepBytes,
              "replicated read-back incomplete");
  MGFS_ASSERT(rsync2.has_value() && rsync2->ok(),
              "replicated overwrite never committed");
  out.replica_divergences = repfs.replica_divergences();
  out.replicas_reconciled = repfs.reconcile_replicas();
  MGFS_ASSERT(farm.fs->fsck().clean(), "chaos soak left metadata dirty");
  MGFS_ASSERT(repfs.fsck().clean(), "replication episode left metadata dirty");
  out.mmpmon = clients[0]->mmpmon();
  if (inject_faults) {
    std::cout << "\n" << inject.report();
  }
  return out;
}

/// Default soak. Phase A runs an MPI-IO write + read-back workload on a
/// healthy 4-server / 4-client cluster and records the fault-free
/// goodput. Phase B rebuilds the identical cluster (same seeds) and
/// replays the identical workload under a seeded fault schedule:
///   * the first NSD server's LAN link flaps (Exp MTTF/MTTR),
///   * the second NSD server turns fail-slow (50x request CPU),
///   * the third NSD server is blackholed — accepts traffic, answers
///     nothing — for a stretch,
///   * the fourth NSD server churns through crash/restart cycles,
///   * the file-system manager node crashes mid-soak (successor
///     election, token-state rebuild, manager-epoch fencing),
///   * a dirty writer goes mute behind a blackhole (expel, journal
///     replay, and its healed late flush fenced),
///   * both serving nodes of one NSD of a replicated side file system
///     go dark (replica reads, divergence, reconciliation),
/// all while clients run with a tight RPC deadline so recovery comes
/// from the retry/breaker machinery, not from waiting out the faults.
/// Passes when the job completes with every byte read back, chaos
/// goodput stays >= 50% of the fault-free run, and every recovery
/// counter is nonzero — the run actually exercised the machinery.
bool run_soak(const std::string& json_path) {
  std::cout << "\nPhase A: fault-free baseline\n";
  RunResult base = run_workload(/*inject_faults=*/false);
  std::printf("  write %.1f MB/s, read %.1f MB/s\n", base.write_MBps,
              base.read_MBps);

  std::cout << "\nPhase B: chaos (link flaps + fail-slow + blackhole)\n";
  RunResult chaos = run_workload(/*inject_faults=*/true);
  std::printf("  write %.1f MB/s, read %.1f MB/s\n", chaos.write_MBps,
              chaos.read_MBps);
  std::printf("  retries %llu, timeouts %llu, breaker opens %llu, "
              "failovers %llu\n",
              static_cast<unsigned long long>(chaos.retries),
              static_cast<unsigned long long>(chaos.timeouts),
              static_cast<unsigned long long>(chaos.breaker_opens),
              static_cast<unsigned long long>(chaos.failovers));
  std::printf("  expels %llu, journal replays %llu, fenced writes %llu\n",
              static_cast<unsigned long long>(chaos.expels),
              static_cast<unsigned long long>(chaos.journal_replays),
              static_cast<unsigned long long>(chaos.fenced_writes));
  std::printf("  manager takeovers %llu, reroutes %llu, stale-mgr fenced "
              "%llu\n",
              static_cast<unsigned long long>(chaos.manager_takeovers),
              static_cast<unsigned long long>(chaos.manager_reroutes),
              static_cast<unsigned long long>(chaos.stale_mgr_fenced));
  std::printf("  recovery: first grant +%.3f s after takeover, rebuild rpcs "
              "%llu, early expels %llu, overlap writes %llu\n",
              chaos.takeover_to_first_grant_s,
              static_cast<unsigned long long>(chaos.rebuild_rpcs),
              static_cast<unsigned long long>(chaos.early_expels),
              static_cast<unsigned long long>(chaos.overlap_admits));
  std::printf("  recovery ops %llu (p50 %.3f s, p99 %.3f s), probes %llu\n",
              static_cast<unsigned long long>(chaos.recovery_ops),
              chaos.recovery_p50_s, chaos.recovery_p99_s,
              static_cast<unsigned long long>(chaos.recovery_probes));
  std::printf("  replicas: reads %llu, failovers %llu, divergences %llu, "
              "reconciled %llu\n",
              static_cast<unsigned long long>(chaos.replica_reads),
              static_cast<unsigned long long>(chaos.replica_failovers),
              static_cast<unsigned long long>(chaos.replica_divergences),
              static_cast<unsigned long long>(chaos.replicas_reconciled));
  std::cout << "\nclient 0 mmpmon (chaos run):\n" << chaos.mmpmon;

  const Bytes expected = kClients * kPerTask;
  Checks check;
  check(chaos.bytes_written == expected && chaos.bytes_read == expected,
        "all bytes written and read back (zero data loss)");
  check(chaos.write_MBps >= 0.5 * base.write_MBps,
        "chaos write goodput >= 50% of fault-free");
  check(chaos.read_MBps >= 0.5 * base.read_MBps,
        "chaos read goodput >= 50% of fault-free");
  // Guards the measurement itself: both phases unmount the writers
  // before the timed read-back, so the chaos read can no longer beat
  // the fault-free one by skipping the token-revocation rounds the
  // baseline's readers used to pay (the old inverted report).
  check(chaos.read_MBps <= 1.05 * base.read_MBps,
        "read windows comparable: chaos read within 5% of baseline");
  check(chaos.timeouts > 0, "RPC deadlines actually expired");
  check(chaos.retries > 0, "retry policy actually engaged");
  check(chaos.breaker_opens > 0, "circuit breaker actually opened");
  check(chaos.expels >= 1, "mute dirty writer expelled");
  check(chaos.journal_replays >= 1, "metadata journal replayed");
  check(chaos.fenced_writes >= 1, "late dirty flush fenced");
  check(chaos.manager_takeovers >= 1, "manager takeover completed");
  check(chaos.stale_mgr_fenced >= 1, "deposed-manager write fenced");
  check(chaos.takeover_to_first_grant_s >= 0.0 &&
            chaos.takeover_to_first_grant_s <= 2.0 * kSoak.lease_duration,
        "first post-takeover grant within 2 lease periods");
  check(chaos.rebuild_rpcs >= 1 &&
            chaos.rebuild_rpcs <= 10 * chaos.manager_takeovers,
        "rebuild queried each client at most once (O(clients) RPCs)");
  check(chaos.early_expels >= 1,
        "suspect confirmed dead by probe quorum (early expel)");
  check(chaos.recovery_ops >= 1,
        "op latency during recovery window recorded");
  check(chaos.replica_reads >= 1,
        "reads served from a replica while both serving nodes were dark");
  check(chaos.replica_failovers >= 1, "replica failover actually engaged");
  check(chaos.replica_divergences >= 1,
        "writer marked the unreachable copy divergent");
  check(chaos.replicas_reconciled >= 1 &&
            chaos.replicas_reconciled >= chaos.replica_divergences,
        "every divergent copy reconciled after the heal");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << std::fixed;
    out.precision(1);
    out << "{\n  \"bench\": \"chaos_soak\",\n"
        << "  \"write_MBps_base\": " << base.write_MBps << ",\n"
        << "  \"read_MBps_base\": " << base.read_MBps << ",\n"
        << "  \"write_MBps_chaos\": " << chaos.write_MBps << ",\n"
        << "  \"read_MBps_chaos\": " << chaos.read_MBps << ",\n"
        << "  \"retries\": " << chaos.retries << ",\n"
        << "  \"timeouts\": " << chaos.timeouts << ",\n"
        << "  \"breaker_opens\": " << chaos.breaker_opens << ",\n"
        << "  \"failovers\": " << chaos.failovers << ",\n"
        << "  \"lease_renewals\": " << chaos.lease_renewals << ",\n"
        << "  \"expels\": " << chaos.expels << ",\n"
        << "  \"journal_replays\": " << chaos.journal_replays << ",\n"
        << "  \"fenced_writes\": " << chaos.fenced_writes << ",\n"
        << "  \"manager_takeovers\": " << chaos.manager_takeovers << ",\n"
        << "  \"manager_reroutes\": " << chaos.manager_reroutes << ",\n"
        << "  \"stale_mgr_fenced\": " << chaos.stale_mgr_fenced << ",\n"
        << "  \"rebuild_rpcs\": " << chaos.rebuild_rpcs << ",\n"
        << "  \"early_expels\": " << chaos.early_expels << ",\n"
        << "  \"overlap_writes_admitted\": " << chaos.overlap_admits << ",\n"
        << "  \"recovery_probes\": " << chaos.recovery_probes << ",\n"
        << "  \"recovery_ops\": " << chaos.recovery_ops << ",\n"
        << "  \"replica_reads\": " << chaos.replica_reads << ",\n"
        << "  \"replica_failovers\": " << chaos.replica_failovers << ",\n"
        << "  \"replica_divergences\": " << chaos.replica_divergences << ",\n"
        << "  \"replicas_reconciled\": " << chaos.replicas_reconciled << ",\n";
    out.precision(4);  // sub-second latencies need more than one decimal
    out << "  \"takeover_to_first_grant_s\": "
        << chaos.takeover_to_first_grant_s << ",\n"
        << "  \"recovery_op_p50_s\": " << chaos.recovery_p50_s << ",\n"
        << "  \"recovery_op_p99_s\": " << chaos.recovery_p99_s << ",\n"
        << "  \"pass\": " << (check.ok ? "true" : "false") << "\n}\n";
    std::cout << "\n  JSON written to " << json_path << "\n";
  }
  return check.ok;
}

/// Disk-lease recovery drill (DESIGN.md §6). A writer stages dirty,
/// never-fsynced data over a shared region, then goes mute behind a
/// blackhole. The manager expels it after the lease recovery wait,
/// replays its metadata journal and re-grants the range; a survivor's
/// overlapping write completes within a few lease periods. When the
/// partition heals, the victim's late write-behind flush arrives with
/// the dead incarnation's epoch and is fenced at the NSD servers; the
/// victim rejoins under a fresh epoch and finishes cleanly.
bool run_crash_dirty_writer(const std::string&) {
  LanHarness h(kLeaseDrill);
  sim::Simulator& sim = h.sim;
  gpfs::FileSystem& fs = *h.farm.fs;
  gpfs::Client* victim = h.mount(4);
  gpfs::Client* survivor = h.mount(5);

  gpfs::Fh vfh = h.open(victim, "/shared", gpfs::OpenFlags::create_rw());
  gpfs::Fh vpriv = h.open(victim, "/private", gpfs::OpenFlags::create_rw());
  gpfs::Fh sfh = h.open(survivor, "/shared", gpfs::OpenFlags::rw());

  // Victim stages dirty write-behind over the shared and a private
  // region, then goes mute before the flush drains or fsync commits.
  victim->write(vfh, 0, 8 * MiB, [](Result<Bytes>) {});
  victim->write(vpriv, 0, 4 * MiB, [](Result<Bytes>) {});
  sim.run_until(sim.now() + 0.02);
  const double crash_at = sim.now();
  const std::uint64_t epoch_before = victim->lease_epoch();
  h.inject.schedule_blackhole(crash_at, victim->node(), 2.5);

  // Survivor writes over the shared range: unanswered revoke -> suspect
  // -> lease runs out -> expel -> journal replay -> grant.
  const Result<Bytes> sw = h.await<Result<Bytes>>([&](auto done) {
    sim.after(0.05, [&, done] { survivor->write(sfh, 0, 4 * MiB, done); });
  });
  const double survivor_done_at = h.done_at;

  // After the heal: the victim's late flush was fenced, it rejoined
  // under a fresh epoch, and can finish its job cleanly. Its first op
  // may surface the lapse, so that op gets one retry.
  const Result<Bytes> vw3 = h.await<Result<Bytes>>([&](auto done) {
    h.retry<Result<Bytes>>(
        1, 0.0, [&](auto d) { victim->write(vfh, 8 * MiB, 1 * MiB, d); }, done);
  });
  const Status vsync = h.fsync(victim, vfh);

  const gpfs::FsckReport fsck = fs.fsck();
  const double recovery_s = survivor_done_at - crash_at;
  const double budget_s =
      3.0 * (h.shape.lease_duration + h.shape.lease_recovery_wait);
  const std::uint64_t nsd_fenced = h.nsd_fenced();

  std::printf("  survivor takeover:   %.2f s after crash (budget %.2f s)\n",
              recovery_s, budget_s);
  std::printf("  manager: %s\n", fs.stats().c_str());
  std::printf("  NSD fenced writes:   %llu\n",
              static_cast<unsigned long long>(nsd_fenced));
  std::printf("  fsck: referenced %llu allocated %llu orphaned %llu "
              "duplicate %llu dangling %llu uncommitted %llu\n",
              static_cast<unsigned long long>(fsck.referenced_blocks),
              static_cast<unsigned long long>(fsck.allocated_blocks),
              static_cast<unsigned long long>(fsck.orphaned_blocks),
              static_cast<unsigned long long>(fsck.duplicate_refs),
              static_cast<unsigned long long>(fsck.dangling_refs),
              static_cast<unsigned long long>(fsck.uncommitted_records));

  Checks check;
  check(sw.ok(), "survivor write completed");
  check(recovery_s <= budget_s,
        "survivor takeover within 3 lease periods");
  check(fs.expels() >= 1, "dead incarnation expelled");
  check(fs.journal_records_replayed() >= 1, "metadata journal replayed");
  check(fs.fenced_writes() >= 1 && nsd_fenced >= 1,
        "late write fenced by lease epoch");
  check(victim->lease_epoch() > epoch_before && vw3.ok() && vsync.ok(),
        "victim rejoined under a fresh epoch and finished");
  check(fsck.clean(), "fsck clean after replay");
  return check.ok;
}

/// Manager-takeover drill (DESIGN.md §6). The manager node crashes
/// while a writer has I/O in flight, a second client is dead with dirty
/// data, and a third is partitioned with dirty data. The lowest-id live
/// node takes the role within the takeover budget and rebuilds token
/// state from client assertions — expelling the dead holder (journal
/// replay) on the spot. The in-flight write reroutes to the successor
/// and completes; the healed partitioned client's late flush, still
/// stamped with the deposed incarnation's manager epoch, is fenced at
/// the NSD servers and the client rejoins under the new epoch.
bool run_manager_crash(const std::string&) {
  LanHarness h(kLeaseDrill);
  sim::Simulator& sim = h.sim;
  gpfs::FileSystem& fs = *h.farm.fs;
  // hosts[2] is the manager (dedicated non-NSD member); clients on 3..5.
  gpfs::Client* writer = h.mount(3);
  gpfs::Client* dead = h.mount(4);
  gpfs::Client* mute = h.mount(5);

  gpfs::Fh wfh = h.open(writer, "/job", gpfs::OpenFlags::create_rw());
  gpfs::Fh dfh = h.open(dead, "/dead", gpfs::OpenFlags::create_rw());
  gpfs::Fh mfh = h.open(mute, "/mute", gpfs::OpenFlags::create_rw());

  // Committed baseline for the writer; dirty, never-fsynced data on
  // both casualties (uncommitted journal records, rw tokens).
  h.commit(writer, wfh, 0, 4 * MiB);
  // A second committed region whose blocks stay allocated and whose rw
  // token stays held: re-dirtying it later needs no metadata RPC, so
  // its write-behind flush drives straight at the NSD write gate across
  // the takeover — the overlap-window probe.
  h.commit(writer, wfh, 16 * MiB, 48 * MiB);
  dead->write(dfh, 0, 4 * MiB, [](Result<Bytes>) {});
  mute->write(mfh, 0, 4 * MiB, [](Result<Bytes>) {});
  sim.run_until(sim.now() + 0.02);  // stage dirty pages + journal records

  const double t0 = sim.now();
  const net::NodeId old_mgr = fs.manager_node(0);
  h.inject.schedule_node_crash(t0, dead->node(), 5.0);
  h.inject.schedule_blackhole(t0, mute->node(), 2.5);
  h.inject.schedule_crash_manager(t0 + 0.05, fs, 0.8);

  // In-flight I/O across the takeover: the write needs fresh
  // allocations, so its metadata RPC finds the dead manager, drives the
  // election, then reroutes to the successor and completes.
  std::optional<Result<Bytes>> ww;
  double w_done_at = 0;
  sim.after(t0 + 0.1 - sim.now(), [&] {
    writer->write(wfh, 4 * MiB, 8 * MiB, [&](Result<Bytes> r) {
      ww = std::move(r);
      w_done_at = sim.now();
    });
  });
  // Re-dirty the committed region the instant the successor starts the
  // rebuild (the poll cadence is finer than a network hop, so the
  // writer's assert query is still on the wire): the write completes
  // from the page pool (token held, blocks already allocated — no
  // metadata RPC), the assertion the writer sends back keeps its rw
  // token clipped to exactly these unflushed pages, and the redriven
  // blocks bounce off the recovering write gate until that assertion
  // installs — then land while the mute straggler is still being
  // queried: a reasserted client's write completing before the global
  // rebuild finishes.
  std::optional<Result<Bytes>> wredirty;
  std::function<void()> redirty_poll = [&] {
    if (fs.recovering()) {
      writer->write(wfh, 16 * MiB, 8 * MiB,
                    [&](Result<Bytes> r) { wredirty = r; });
      return;
    }
    if (sim.now() < t0 + 3.0) sim.after(0.00005, redirty_poll);
  };
  sim.after(t0 - sim.now(), redirty_poll);
  // A later fsync commits the writer and, as a manager op, drives the
  // lease sweep that expels the still-mute partitioned client.
  std::optional<Status> wsync;
  sim.after(t0 + 1.2 - sim.now(), [&] {
    writer->fsync(wfh, [&](Status s) { wsync = s; });
  });
  sim.run();

  const gpfs::FsckReport fsck = fs.fsck();
  const double lease = h.shape.lease_duration;
  const double budget_s = 3.0 * (lease + h.shape.lease_recovery_wait);
  const double takeover_s = fs.last_takeover_at() - t0;
  const std::uint64_t nsd_fenced = h.nsd_fenced();

  std::printf("  takeover: node %u -> node %u, epoch %llu, %.2f s after "
              "crash (budget %.2f s)\n",
              old_mgr.v, fs.manager_node(0).v,
              static_cast<unsigned long long>(fs.manager_epoch(0)),
              takeover_s, budget_s);
  std::printf("  manager: %s\n", fs.stats().c_str());
  std::printf("  first grant: +%.3f s after takeover; rebuild rpcs %llu, "
              "overlap writes %llu\n",
              fs.takeover_to_first_grant_s(),
              static_cast<unsigned long long>(fs.rebuild_rpcs()),
              static_cast<unsigned long long>(fs.overlap_writes_admitted()));
  std::printf("  NSD fenced writes:   %llu\n",
              static_cast<unsigned long long>(nsd_fenced));

  Checks check;
  check(fs.manager_takeovers() == 1, "exactly one takeover");
  check(!(fs.manager_node(0) == old_mgr), "successor elected");
  check(fs.last_takeover_at() >= t0 && takeover_s <= budget_s,
        "takeover within 3 lease periods");
  check(ww.has_value() && ww->ok() && w_done_at - t0 <= budget_s,
        "in-flight write rerouted and completed");
  check(wsync.has_value() && wsync->ok(), "writer committed after takeover");
  check(fs.assertions_rebuilt() >= 1,
        "token state rebuilt from client assertions");
  check(fs.expels() >= 2, "dead and mute dirty writers expelled");
  check(fs.journal_records_replayed() >= 1, "metadata journal replayed");
  check(fs.stale_manager_fenced() >= 1 && nsd_fenced >= 1,
        "deposed-epoch flush fenced at the NSD servers");
  check(writer->mgr_takeovers() >= 1 && writer->mgr_reroutes() >= 1,
        "client adopted the successor's view");
  check(fs.rebuild_rpcs() == 3,
        "rebuild queried each client exactly once (O(clients) RPCs)");
  check(fs.overlap_writes_admitted() >= 1 && wredirty.has_value() &&
            wredirty->ok(),
        "reasserted writer's flush landed mid-rebuild (overlap window)");
  check(fs.takeover_to_first_grant_s() >= 0.0 &&
            fs.takeover_to_first_grant_s() <= 2.0 * lease,
        "first grant within 2 lease periods of takeover");
  check(fsck.clean(), "fsck clean after takeover");
  return check.ok;
}

/// Shard-crash drill (DESIGN.md §8): blast-radius containment of the
/// sharded metadata plane. A 4-shard file system seats each token
/// domain's manager on its own node; one steady writer is pinned to
/// each domain (write + fsync loop, every cycle an allocation and a
/// commit on that shard alone). Shard 2's manager node crashes
/// mid-stream. Only that domain may stall: the other three writers
/// must keep committing right through the outage, the victim domain's
/// successor must be elected and grant again within 2 lease periods
/// (_t1g_), the victim's writer must resume, no shard but the victim's
/// may change epoch, and no client may be expelled — the batched lease
/// heartbeat rides to shard 0, which never went down.
bool run_shard_crash(const std::string&) {
  // hosts: 0-1 NSD servers, 2 = shard-0 manager (the farm's lease
  // home), 3-5 = shard 1-3 manager seats, 6-17 = three writers per
  // shard (three, because deposing a dark-but-up manager takes a
  // quorum of three distinct accusers — one stuck client can't).
  LanHarness h(kShardDrill);
  sim::Simulator& sim = h.sim;
  gpfs::FileSystem& fs = *h.farm.fs;

  std::vector<net::NodeId> seats{h.farm.manager};
  for (std::size_t host = 3; host <= 5; ++host) {
    h.cluster.add_node(h.site.hosts.at(host));
    seats.push_back(h.site.hosts.at(host));
  }
  h.cluster.set_shard_managers(fs, seats);

  struct Writer {
    gpfs::Client* c = nullptr;
    gpfs::Fh fh{};
    std::uint32_t shard = 0;
    std::uint64_t cycles = 0;         // committed write+fsync cycles
    std::uint64_t during_outage = 0;  // ...landed before the takeover
  };
  std::vector<Writer> writers(12);
  for (std::uint32_t k = 0; k < writers.size(); ++k) {
    writers[k].c = h.mount(6 + k);
    writers[k].shard = k % 4;
  }

  // Pin each writer to its token domain: create files until one's
  // inode hashes there (inos are sequential, so a few tries suffice).
  for (std::uint32_t k = 0; k < writers.size(); ++k) {
    for (int j = 0;; ++j) {
      MGFS_ASSERT(j < 16, "no inode landed in shard");
      const std::string p =
          "/w" + std::to_string(k) + "_" + std::to_string(j);
      gpfs::Fh fh = h.open(writers[k].c, p, gpfs::OpenFlags::create_rw());
      const Result<gpfs::StatInfo> st = h.stat(writers[k].c, p);
      MGFS_ASSERT(st.ok(), "setup stat failed");
      if (fs.shard_of(st->ino) == writers[k].shard) {
        writers[k].fh = fh;
        break;
      }
      writers[k].c->close(fh, [](Status) {});
      sim.run();
    }
  }

  const std::uint32_t victim = 2;
  const net::NodeId old_mgr = fs.manager_node(victim);
  const double t0 = sim.now();
  const double t_end = t0 + 4.0;
  // Blackhole, not crash: the dead manager keeps accepting traffic and
  // answers nothing, so detection must come from RPC deadlines — the
  // slow path, and the real outage window the live shards must ride
  // through. (A crash gives everyone connection resets and the
  // takeover is near-instant.)
  h.inject.schedule_blackhole(t0, old_mgr, 2.5);

  // Each writer appends 64 KiB per cycle past block 0 (which its
  // create grant covered) — token acquires, allocations and journal
  // commits against its own shard, nothing cross-domain — until the
  // drill window closes. Ops that fail while the victim's manager is
  // dark are redriven after a beat, the way a VFS layer retries
  // EAGAIN: the acceptance question is whether the *domain* comes
  // back, not whether one RPC got lucky.
  std::function<void(std::uint32_t)> cycle = [&](std::uint32_t k) {
    Writer& w = writers[k];
    if (sim.now() >= t_end) return;
    auto redrive = [&, k] { sim.after(0.05, [&, k] { cycle(k); }); };
    w.c->write(w.fh, fs.block_size() + w.cycles * 64 * KiB, 64 * KiB,
               [&, k, redrive](Result<Bytes> r) {
                 if (!r.ok()) return redrive();
                 writers[k].c->fsync(writers[k].fh, [&, k, redrive](Status s) {
                   if (!s.ok()) return redrive();
                   Writer& w2 = writers[k];
                   ++w2.cycles;
                   if (sim.now() >= t0 &&
                       (fs.shard_takeovers(victim) == 0 ||
                        fs.shard_recovering(victim))) {
                     ++w2.during_outage;
                   }
                   cycle(k);
                 });
               });
  };
  for (std::uint32_t k = 0; k < writers.size(); ++k) cycle(k);
  sim.run();

  // Per-domain totals: committed cycles, and cycles that landed while
  // the victim's manager was dark or its takeover still rebuilding.
  std::uint64_t shard_cycles[4] = {0, 0, 0, 0};
  std::uint64_t shard_outage[4] = {0, 0, 0, 0};
  for (const Writer& w : writers) {
    shard_cycles[w.shard] += w.cycles;
    shard_outage[w.shard] += w.during_outage;
  }

  const gpfs::FsckReport fsck = fs.fsck();
  const double t1g = fs.takeover_to_first_grant_s();
  const double t1g_budget = 2.0 * h.shape.lease_duration;
  std::printf("  victim shard %u: node %u -> node %u, epoch %llu\n", victim,
              old_mgr.v, fs.manager_node(victim).v,
              static_cast<unsigned long long>(fs.manager_epoch(victim)));
  std::printf("  first grant: +%.3f s after takeover (budget %.2f s)\n",
              t1g, t1g_budget);
  for (std::uint32_t s = 0; s < 4; ++s) {
    std::printf("  shard %u: %llu cycles committed, %llu during outage\n", s,
                static_cast<unsigned long long>(shard_cycles[s]),
                static_cast<unsigned long long>(shard_outage[s]));
  }
  std::printf("  manager: %s\n", fs.stats().c_str());

  Checks check;
  check(fs.manager_takeovers() == 1 && fs.shard_takeovers(victim) == 1,
        "exactly one takeover, on the victim shard");
  check(!(fs.manager_node(victim) == old_mgr),
        "victim shard's successor elected");
  check(fs.manager_epoch(victim) == 2 && fs.manager_epoch(0) == 1 &&
            fs.manager_epoch(1) == 1 && fs.manager_epoch(3) == 1,
        "only the victim shard changed epoch");
  check(t1g >= 0.0 && t1g <= t1g_budget,
        "victim shard granting again within 2 lease periods");
  check(shard_outage[0] >= 1 && shard_outage[1] >= 1 && shard_outage[3] >= 1,
        "live shards kept committing through the outage");
  check(shard_outage[victim] == 0,
        "victim domain stalled until its takeover (no torn admits)");
  check(shard_cycles[victim] >= 1, "victim writers resumed after takeover");
  check(fs.expels() == 0,
        "no expels: batched heartbeat to shard 0 kept every lease alive");
  check(fsck.clean(), "fsck clean across all journal slices");
  return check.ok;
}

/// Whole-site outage drill. One GPFS cluster spans two network sites
/// joined by a narrow high-latency WAN circuit: the "home" machine room
/// holds 4 NSDs of an unreplicated file system (what a cold remote site
/// reads at WAN-window rates), and a second replicated file system
/// stripes 4 home NSDs + 4 edge NSDs with 2-copy files spread across
/// the two sites. The file-system manager runs at the edge. The drill
/// measures the cold-site read rate with and without replicas, then
/// blacks out every home serving node: reads of the replicated file
/// must continue from the edge copies with zero data loss, the writer's
/// overwrite must re-anchor and mark the dark copies divergent rather
/// than stall, and after the heal reconciliation must leave fsck clean.
bool run_site_outage(const std::string& json_path) {
  Harness h(/*injector_seed=*/7);
  sim::Simulator& sim = h.sim;
  // Narrow transcontinental circuit: 0.3 Gb/s shared, 25 ms one way —
  // a 1 MiB TCP window caps each stream at ~20 MB/s, so WAN-window
  // rates sit far below what the edge LAN can carry.
  net::Site home = net::add_site(h.net, "home", 4, gbps(1.0));
  net::Site edge = net::add_site(h.net, "edge", 9, gbps(1.0));
  h.net.connect(home.sw, edge.sw, gbps(0.3), 25e-3, net::kEtherEfficiency,
                "wan");

  gpfs::ClusterConfig ccfg;
  ccfg.name = "deisa";
  // Deadline sized for the WAN: a multi-block read run over the narrow
  // circuit legitimately takes ~1 s, and a deadline below that would
  // open breakers against healthy home servers during the baseline.
  ccfg.client.rpc_deadline = 2.0;
  gpfs::Cluster cluster(sim, h.net, ccfg, Rng(42));

  std::vector<net::NodeId> home_srv, edge_srv;
  for (std::size_t i = 0; i < 4; ++i) {
    cluster.add_node(home.hosts[i]);
    cluster.add_nsd_server(home.hosts[i]);
    home_srv.push_back(home.hosts[i]);
    cluster.add_node(edge.hosts[i]);
    cluster.add_nsd_server(edge.hosts[i]);
    edge_srv.push_back(edge.hosts[i]);
  }
  net::NodeId manager = edge.hosts[4];  // survives the home blackout
  cluster.add_node(manager);

  // homefs: 4 home NSDs, single-copy files — the WAN baseline. repfs:
  // 4 more home NSDs (site 0) + 4 edge NSDs (site 1); 2-copy files get
  // one copy per site.
  std::vector<std::uint32_t> homefs_nsds, rep_nsds;
  auto add_nsds = [&](const char* tag, const std::vector<net::NodeId>& srv,
                      std::uint32_t site, std::vector<std::uint32_t>& ids) {
    for (std::size_t i = 0; i < 4; ++i) {
      ids.push_back(h.add_nsd(cluster, tag, i, 4 * GiB, srv[i],
                              srv[(i + 1) % 4], site));
    }
  };
  add_nsds("h", home_srv, 0, homefs_nsds);
  add_nsds("rh", home_srv, 0, rep_nsds);
  add_nsds("re", edge_srv, 1, rep_nsds);
  gpfs::FileSystem& homefs =
      cluster.create_filesystem("homefs", homefs_nsds, 1 * MiB, manager);
  gpfs::FileSystem& repfs =
      cluster.create_filesystem("repfs", rep_nsds, 1 * MiB, manager);

  // Edge clients: a WAN-baseline reader, the replicated writer, a cold
  // reader for the healthy-phase rate, and a second cold reader that
  // only reads during the blackout.
  gpfs::Client* wanreader = mount_on(cluster, edge.hosts[5], "homefs");
  gpfs::Client* repwriter = mount_on(cluster, edge.hosts[6], "repfs");
  gpfs::Client* cold1 = mount_on(cluster, edge.hosts[7], "repfs");
  gpfs::Client* cold2 = mount_on(cluster, edge.hosts[8], "repfs");
  h.watch(cluster);

  constexpr Bytes kFile = 32 * MiB;
  bench::seed_file(homefs, "/far", kFile);

  // Cold open and timed sequential read of the whole file; returns MB/s.
  auto timed_read = [&](gpfs::Client* c, const std::string& path) {
    gpfs::Fh fh = h.open(c, path, gpfs::OpenFlags::ro());
    const double t0 = sim.now();
    const Result<Bytes> r = h.read(c, fh, 0, kFile);
    if (!r.ok()) {
      std::fprintf(stderr, "timed read error: %s\n",
                   r.error().to_string().c_str());
    } else if (*r != kFile) {
      std::fprintf(stderr, "timed read short: %llu of %llu\n",
                   static_cast<unsigned long long>(*r),
                   static_cast<unsigned long long>(kFile));
    }
    MGFS_ASSERT(r.ok() && *r == kFile, "timed read incomplete");
    return (kFile / 1e6) / std::max(1e-9, h.done_at - t0);
  };

  // WAN baseline: cold edge read of the unreplicated home file.
  const double wan_MBps = timed_read(wanreader, "/far");

  // Replicated file: written once, committed; copies land on both sites.
  gpfs::Fh wfh =
      h.open(repwriter, "/data", gpfs::OpenFlags::create_replicated(2));
  h.commit(repwriter, wfh, 0, kFile);

  // Healthy-phase cold-site rate: nearest-replica reads serve from the
  // edge copies at local rates — the with-replicas column.
  const double local_MBps = timed_read(cold1, "/data");

  // Open the blackout-phase reader while the cluster is still healthy
  // (a synchronous open would sim.run() straight through the outage
  // events).
  gpfs::Fh c2fh = h.open(cold2, "/data", gpfs::OpenFlags::ro());

  // Blackout: every home serving node goes dark; the allocator also
  // marks the home NSDs down so writes placed during the outage route
  // to the surviving site.
  const double outage_at = sim.now();
  // Long enough that the writer's replica-propagation attempts to the
  // dark home copies exhaust their retries (4 attempts at the WAN
  // deadline) and mark divergence while the site is still down.
  const sim::Time kOutage = 12.0;
  std::vector<net::NodeId> dark(home_srv.begin(), home_srv.end());
  h.inject.schedule_site_outage(outage_at, dark, kOutage);
  // NSD ids inside a file system are fs-local (0..n-1), not the
  // cluster-global registration ids.
  sim.after(0.0, [&] {
    for (std::uint32_t id = 0; id < rep_nsds.size(); ++id) {
      if (repfs.nsd(id).site == 0) repfs.set_nsd_down(id, true);
    }
  });

  // During the blackout: a fresh cold reader gets every byte from the
  // local replicas, and the writer's overwrite keeps committing
  // against the surviving copies, marking the unreachable home copies
  // divergent instead of stalling. Issued via sim.after so they start
  // inside the blackout window rather than before it.
  std::optional<Result<Bytes>> outage_read;
  double outage_read_done = 0;
  std::optional<Result<Bytes>> ow;
  std::optional<Status> osync;
  sim.after(0.1, [&] {
    cold2->read(c2fh, 0, kFile, [&](Result<Bytes> r) {
      outage_read = std::move(r);
      outage_read_done = sim.now();
    });
    repwriter->write(wfh, 0, kFile, [&](Result<Bytes> r) {
      ow = std::move(r);
      MGFS_ASSERT(ow->ok(), "overwrite during outage failed");
      h.retry<Status>(
          40, 0.3, [&](auto done) { repwriter->fsync(wfh, done); },
          [&](Status s) { osync = s; });
    });
  });
  sim.run();

  // Heal + re-protect: home NSDs come back (blackhole self-heals at
  // outage_at + kOutage inside the run above), the allocator readmits
  // them, and reconciliation re-copies every divergent replica.
  for (std::uint32_t id = 0; id < rep_nsds.size(); ++id) {
    repfs.set_nsd_down(id, false);
  }
  const std::uint64_t reconciled = repfs.reconcile_replicas();
  const gpfs::FsckReport rep_fsck = repfs.fsck();
  const gpfs::FsckReport home_fsck = homefs.fsck();
  const std::uint64_t rep_reads = cold1->replica_reads() +
                                  cold2->replica_reads() +
                                  repwriter->replica_reads();

  std::printf("  WAN cold read:        %.1f MB/s (unreplicated, over the "
              "circuit)\n", wan_MBps);
  std::printf("  local replica read:   %.1f MB/s (%.1fx)\n", local_MBps,
              local_MBps / std::max(1e-9, wan_MBps));
  std::printf("  outage read:          %s, finished %+.2f s into the "
              "blackout\n",
              outage_read.has_value() && outage_read->ok() ? "complete"
                                                           : "FAILED",
              outage_read_done - outage_at);
  std::printf("  divergences %llu, reconciled %llu, replica reads %llu\n",
              static_cast<unsigned long long>(repfs.replica_divergences()),
              static_cast<unsigned long long>(reconciled),
              static_cast<unsigned long long>(rep_reads));
  std::printf("  manager: %s\n", repfs.stats().c_str());

  Checks check;
  check(wan_MBps > 0 && local_MBps >= 3.0 * wan_MBps,
        "replica-local cold read >= 3x the WAN-window rate");
  check(outage_read.has_value() && outage_read->ok() &&
            **outage_read == kFile,
        "every byte read from the surviving replica during the blackout "
        "(zero data loss)");
  check(rep_reads >= 1, "reads actually served by replica copies");
  check(ow.has_value() && ow->ok() && osync.has_value() && osync->ok(),
        "writes kept committing through the blackout (re-anchored)");
  check(repfs.replica_divergences() >= 1,
        "unreachable copies marked divergent, not silently served");
  check(reconciled >= 1, "divergent copies reconciled after the heal");
  check(rep_fsck.clean() && home_fsck.clean(), "fsck clean after reconcile");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << std::fixed;
    out.precision(1);
    out << "{\n  \"bench\": \"chaos_soak_site_outage\",\n"
        << "  \"read_MBps_wan\": " << wan_MBps << ",\n"
        << "  \"read_MBps_replica_local\": " << local_MBps << ",\n"
        << "  \"replica_reads\": " << rep_reads << ",\n"
        << "  \"replica_divergences\": " << repfs.replica_divergences()
        << ",\n"
        << "  \"replicas_reconciled\": " << reconciled << ",\n"
        << "  \"pass\": " << (check.ok ? "true" : "false") << "\n}\n";
    std::cout << "\n  JSON written to " << json_path << "\n";
  }
  return check.ok;
}

/// Permanent-NSD-loss drill. A 2-copy file is committed, then one NSD's
/// backing device fails for good (every I/O returns media errors) and
/// the allocator marks it down. Cold reads succeed through the
/// surviving copies (io_error is non-retryable, so the client redirects
/// instead of retrying into the dead disk), new files allocate around
/// the loss, and evacuate_nsd() restores 2-copy protection by re-homing
/// every surviving copy's lost twin — after which fsck is clean.
bool run_nsd_loss(const std::string&) {
  LanHarness h(kNsdLoss);
  gpfs::FileSystem& fs = *h.farm.fs;
  gpfs::Client* writer = h.mount(5);
  gpfs::Client* reader = h.mount(6);

  constexpr Bytes kFile = 16 * MiB;
  gpfs::Fh wfh = h.open(writer, "/data", gpfs::OpenFlags::create_replicated(2));
  h.commit(writer, wfh, 0, kFile);

  // The loss: NSD 2's media dies permanently (fs-local index — the
  // farm's only file system maps its NSDs 1:1).
  const std::uint32_t lost = 2;
  h.inject.schedule_nsd_loss(h.sim.now(), fs, lost);

  // Cold read through the loss: blocks with a copy on the dead NSD get
  // io_error (final, not retried) and redirect to the surviving copy.
  gpfs::Fh rfh = h.open(reader, "/data", gpfs::OpenFlags::ro());
  const Result<Bytes> rr = h.read(reader, rfh, 0, kFile);

  // New files still allocate (around the dead NSD).
  gpfs::Fh w2fh =
      h.open(writer, "/after", gpfs::OpenFlags::create_replicated(2));
  const Result<Bytes> w2 = h.write(writer, w2fh, 0, 8 * MiB);
  const Status w2sync = h.fsync(writer, w2fh);

  // Re-protection: re-home every copy that lived on the dead NSD.
  const std::uint64_t moved = fs.evacuate_nsd(lost);
  fs.reconcile_replicas();
  const gpfs::FsckReport fsck = fs.fsck();

  std::printf("  lost NSD %u; evacuated %llu copies\n", lost,
              static_cast<unsigned long long>(moved));
  std::printf("  replica reads %llu, failovers %llu\n",
              static_cast<unsigned long long>(reader->replica_reads()),
              static_cast<unsigned long long>(reader->replica_failovers()));
  std::printf("  manager: %s\n", fs.stats().c_str());

  Checks check;
  check(rr.ok() && *rr == kFile,
        "every byte read back through the loss (zero data loss)");
  check(reader->replica_reads() >= 1,
        "reads of lost-copy blocks served by the surviving replica");
  check(w2.ok() && w2sync.ok(),
        "new file committed with allocation routed around the dead NSD");
  check(moved >= 1, "evacuation re-homed the lost copies");
  check(fsck.clean(), "fsck clean after evacuation");
  return check.ok;
}

struct Scenario {
  const char* name;      // --scenario NAME; "" is the default soak
  const char* subtitle;  // banner subtitle
  bool (*run)(const std::string& json_path);
};

const Scenario kScenarios[] = {
    {"", "seeded fault schedule vs. fault-free baseline", run_soak},
    {"crash_dirty_writer",
     "disk-lease expel, journal replay and epoch fencing",
     run_crash_dirty_writer},
    {"manager_crash",
     "manager takeover: election, token rebuild, epoch fencing",
     run_manager_crash},
    {"shard_crash",
     "sharded metadata plane: one domain's manager dies, the rest keep "
     "serving",
     run_shard_crash},
    {"site_outage",
     "cross-site replicas: nearest-replica reads, whole-site blackout, "
     "reconciliation",
     run_site_outage},
    {"nsd_loss",
     "permanent NSD loss: replica reads, allocation rerouting, evacuation",
     run_nsd_loss},
};

}  // namespace

int main(int argc, char** argv) {
  std::string scenario;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--scenario") == 0 && has_value) {
      scenario = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && has_value) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: chaos_soak [--scenario NAME] [--json PATH]\n";
      return 2;
    }
  }

  for (const Scenario& s : kScenarios) {
    if (scenario != s.name) continue;
    bench::banner(scenario.empty() ? "chaos_soak"
                                   : "chaos_soak --scenario " + scenario,
                  s.subtitle);
    return s.run(json_path) ? 0 : 1;
  }
  std::cerr << "unknown scenario: " << scenario << "\n";
  return 2;
}
