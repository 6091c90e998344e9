// mgfsbench — the MGFS benchmark: four closed-loop workloads measured on
// two clocks.
//
//   mgfsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--small] [--spans <file>]
//
// Workloads (see METRICS.md for the full metric map):
//   mpiio_stream   Fig. 11 machine: 64 GbE NSD servers, 32 DS4100 arrays,
//                  64 clients stream one shared file (write+fsync, then a
//                  cold read). Primary call: the 1 MiB transfer.
//   smallfile_meta 1024 clients run create cycles against 4 metadata
//                  shards with 30 us of manager CPU per op. Primary call:
//                  the create cycle (open-create, write, fsync, close).
//   wan_mixed      SDSC exports to a 32-node ANL cluster over the 2004
//                  TeraGrid: 16 clients run Zipf-skewed NVO queries on a
//                  64 GiB file while 16 write Enzo dumps. Primary call:
//                  the NVO query.
//   meta_failover  smallfile shape at 256 clients plus 8 streaming
//                  writers, with a manager crash, an NSD-server
//                  blackhole and a client link cut drawn from the seed.
//
// Every simulated client issues its next call only when the previous
// one completes. A run repeats the workload from a fresh cluster until
// --seconds of wall time have passed; sim-clock metrics must repeat
// exactly across the repetitions, host-clock metrics are reported as
// medians. --trace 1 alternates untraced and traced repetitions and
// reports the per-layer metrics instead of the end-to-end ones.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A broken correctness invariant prints correct=false and exits 1.
#include <malloc.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fault/injector.hpp"
#include "probe.hpp"

using namespace mgfs;
using namespace mgfs::perfbench;

namespace {

// --- results -------------------------------------------------------------

/// One repetition of one workload. `sim` holds every sim-clock number
/// (exactly reproducible for a seed); the host fields are CPU seconds.
struct Outcome {
  std::map<std::string, double> sim;
  /// Sim-clock numbers only a traced run can take (device timings).
  std::map<std::string, double> traced_only;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t events = 0;
  double setup_s = 0;
  double host_s = 0;
  double mount_host_s = 0;
  double call_host_s = 0;
  std::vector<std::string> violations;
  std::vector<std::string> report;  // utilization-vs-ceiling lines
  std::vector<Span> spans;
};

struct Params {
  std::uint64_t seed = 1;
  bool small = false;
  bool trace = false;
  /// Run the full-volume fsck. Repetitions after the first replay the
  /// same event sequence (their sim-clock metrics are checked identical),
  /// so only the first of each kind pays for the scan.
  bool fsck = true;
  /// Stop after set-up (extra set-up samples for the setup_s median).
  bool setup_only = false;
};

void check(Outcome& o, bool ok, const std::string& what) {
  if (!ok) o.violations.push_back(what);
}

std::string fmt(const char* f, double a, double b = 0, double c = 0,
                double d = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), f, a, b, c, d);
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Busy seconds of a utilization-tracking resource between a snapshot
/// and now (utilization() is a fraction of [0, now]).
struct BusyMark {
  double busy0 = 0;
  double t0 = 0;
  template <typename R>
  void mark(const R& r, double now) {
    busy0 = r.utilization() * now;
    t0 = now;
  }
  template <typename R>
  double util(const R& r, double now) const {
    return now > t0 ? (r.utilization() * now - busy0) / (now - t0) : 0.0;
  }
};

struct MeanMax {
  double sum = 0;
  double max = 0;
  std::size_t n = 0;
  void add(double v) {
    sum += v;
    max = std::max(max, v);
    ++n;
  }
  double mean() const { return n ? sum / static_cast<double>(n) : 0.0; }
};

/// Host CPU and simulator events of one measured phase.
class Phase {
 public:
  explicit Phase(const sim::Simulator& sim)
      : sim_(sim), cpu0_(cpu_seconds()), events0_(sim.events_processed()) {}
  void end(Outcome& o) const {
    o.host_s = cpu_seconds() - cpu0_;
    o.events = sim_.events_processed() - events0_;
  }

 private:
  const sim::Simulator& sim_;
  double cpu0_;
  std::uint64_t events0_;
};

// --- counters read from public accessors ---------------------------------

/// Client-side counters, summed over every client a workload mounted.
/// Clients are absorbed before unmount so a phase's clients still count.
struct ClientTotals {
  std::uint64_t hits = 0, misses = 0, ra_issued = 0, retries = 0,
                timeouts = 0, breaker_opens = 0;
  Bytes remote_read = 0, remote_written = 0;
  void absorb(gpfs::Client* c) {
    hits += c->pool().hits();
    misses += c->pool().misses();
    ra_issued += c->readahead_issued();
    retries += c->rpc_retries();
    timeouts += c->rpc_timeouts();
    breaker_opens += c->breaker_opens();
    remote_read += c->bytes_read_remote();
    remote_written += c->bytes_written_remote();
  }
};

/// Everything a workload hands to the shared metric assembly.
struct Collected {
  Calls* calls = nullptr;
  std::vector<double> primary_ms;
  ClientTotals clients;
  std::vector<gpfs::FileSystem*> fs;
  std::vector<gpfs::Cluster*> clusters;
  std::vector<gpfs::NsdServer*> servers;
  double window_s = 0;  // measured simulated span (for CPU busy fractions)
  MeanMax nic_util;
  Bytes nic_bytes = 0;  // server NIC bytes, both directions
  std::vector<double> dev_ms;
};

void assemble(Outcome& o, Collected& c) {
  Calls& calls = *c.calls;
  auto& s = o.sim;
  s["write_MBps"] = calls.write_MBps();
  s["read_MBps"] = calls.read_MBps();
  s["meta_ops_per_s"] = calls.meta_ops_per_s();
  const double q = tail_quantile(c.primary_ms.size());
  s["op_p50_ms"] = percentile(c.primary_ms, 0.5);
  s["op_p99_ms"] = percentile(c.primary_ms, q);
  s["op_samples"] = static_cast<double>(c.primary_ms.size());
  s["op_p99_quantile"] = q;

  o.attempted = calls.attempted();
  o.failed = calls.failed();
  s["fail_frac"] = o.attempted
                       ? static_cast<double>(o.failed) /
                             static_cast<double>(o.attempted)
                       : 0.0;
  for (std::size_t i = 0; i < kOps; ++i) {
    const Op op = static_cast<Op>(i);
    const auto& lat = calls.latencies(op);
    const std::string p = std::string("gpfs.client.") + kOpNames[i];
    s[p + ".count"] = static_cast<double>(lat.size());
    s[p + ".p50_ms"] = percentile(lat, 0.5);
    s[p + ".p99_ms"] = percentile(lat, tail_quantile(lat.size()));
    s[p + ".failed"] = static_cast<double>(calls.failed(op));
  }

  const double app_calls =
      static_cast<double>(std::max<std::uint64_t>(1, o.attempted));
  const ClientTotals& ct = c.clients;
  const double lookups = static_cast<double>(ct.hits + ct.misses);
  s["gpfs.client.cache_hit_frac"] =
      lookups > 0 ? static_cast<double>(ct.hits) / lookups : 0.0;
  s["gpfs.client.remote_bytes_per_app_byte"] =
      calls.reads.bytes ? static_cast<double>(ct.remote_read) /
                              static_cast<double>(calls.reads.bytes)
                        : 0.0;
  s["gpfs.client.readahead_issued"] = static_cast<double>(ct.ra_issued);
  s["gpfs.client.rpc_retries"] = static_cast<double>(ct.retries);
  s["gpfs.client.rpc_timeouts"] = static_cast<double>(ct.timeouts);
  s["gpfs.client.breaker_opens"] = static_cast<double>(ct.breaker_opens);

  std::uint64_t tokens = 0, revocations = 0, journal = 0, renewals = 0,
                delegations = 0, takeovers = 0, expels = 0;
  double t1g = 0;
  for (gpfs::FileSystem* fs : c.fs) {
    tokens += fs->tokens_granted();
    revocations += fs->revocations();
    renewals += fs->lease_renewals();
    delegations += fs->delegations();
    takeovers += fs->manager_takeovers();
    expels += fs->expels();
    for (std::uint32_t sh = 0; sh < fs->shard_count(); ++sh) {
      journal += fs->shard_journal(sh).records_logged();
    }
    t1g = std::max(t1g, fs->takeover_to_first_grant_s());
  }
  s["gpfs.mgr.tokens_per_op"] = static_cast<double>(tokens) / app_calls;
  s["gpfs.mgr.revocations"] = static_cast<double>(revocations);
  s["gpfs.mgr.journal_records_per_op"] =
      static_cast<double>(journal) / app_calls;
  s["gpfs.mgr.lease_renewals"] = static_cast<double>(renewals);
  s["gpfs.mgr.delegations"] = static_cast<double>(delegations);
  s["gpfs.mgr.takeovers"] = static_cast<double>(takeovers);
  s["gpfs.mgr.t1g_s"] = t1g;
  s["gpfs.mgr.expels"] = static_cast<double>(expels);
  s["recovery_s"] = t1g;

  std::uint64_t requests = 0, fenced = 0;
  Bytes served = 0;
  MeanMax cpu;
  for (gpfs::NsdServer* srv : c.servers) {
    requests += srv->requests_served();
    served += srv->bytes_served();
    fenced += srv->fenced_writes();
    cpu.add(c.window_s > 0 ? srv->cpu().busy_seconds() / c.window_s : 0.0);
  }
  s["gpfs.nsd.requests"] = static_cast<double>(requests);
  // Manager-plane RPCs: every RPC the clusters carried minus the NSD
  // data requests (served ones; a data RPC that failed counts here).
  std::uint64_t rpc_calls = 0;
  for (gpfs::Cluster* cl : c.clusters) rpc_calls += cl->rpc().calls();
  s["gpfs.rpc.calls_per_op"] =
      static_cast<double>(rpc_calls - std::min(rpc_calls, requests)) /
      app_calls;
  s["gpfs.nsd.bytes_per_request"] =
      requests ? static_cast<double>(served) / static_cast<double>(requests)
               : 0.0;
  s["gpfs.nsd.cpu_busy_frac.mean"] = cpu.mean();
  s["gpfs.nsd.cpu_busy_frac.max"] = cpu.max;
  s["gpfs.nsd.fenced_writes"] = static_cast<double>(fenced);
  const Bytes bs = c.fs.front()->block_size();
  s["gpfs.client.blocks_per_nsd_request"] =
      requests ? static_cast<double>(served) / static_cast<double>(bs) /
                     static_cast<double>(requests)
               : 0.0;

  s["net.server_nic_util.mean"] = c.nic_util.mean();
  s["net.server_nic_util.max"] = c.nic_util.max;
  const Bytes app_bytes = calls.reads.bytes + calls.writes.bytes;
  s["net.wire_bytes_per_app_byte"] =
      app_bytes ? static_cast<double>(c.nic_bytes) /
                      static_cast<double>(app_bytes)
                : 0.0;
  o.report.push_back(fmt("  measured phase   %.3f simulated s, %.0f app calls",
                         c.window_s, static_cast<double>(o.attempted)));
  o.report.push_back(fmt("  net.server_nic   util mean %.3f max %.3f  -> "
                         "%.1f MB/s of a %.1f MB/s GbE payload ceiling",
                         c.nic_util.mean(), c.nic_util.max,
                         c.nic_util.max * 125.0 * net::kEtherEfficiency,
                         125.0 * net::kEtherEfficiency));
  o.report.push_back(fmt("  gpfs.nsd.cpu     busy mean %.3f max %.3f of one "
                         "request CPU per server",
                         cpu.mean(), cpu.max));

  auto& t = o.traced_only;
  t["storage.io.count"] = static_cast<double>(c.dev_ms.size());
  t["storage.io.p50_ms"] = percentile(c.dev_ms, 0.5);
  t["storage.io.p99_ms"] = percentile(c.dev_ms, tail_quantile(c.dev_ms.size()));
  for (const char* k : {"storage.disk_bytes_per_write_byte",
                        "storage.disk_util.mean", "storage.disk_util.max",
                        "storage.ctrl_util.max", "net.wan_util"}) {
    s.emplace(k, 0.0);  // layers a workload does not have stay at zero
  }

  s["sim.events"] = static_cast<double>(o.events);
  o.call_host_s = calls.call_host_s();
  if (!calls.spans().empty()) o.spans = std::move(calls.spans());
}

/// Invariants every workload shares.
void common_checks(const Params& p, Outcome& o, Collected& c, bool faults) {
  for (gpfs::FileSystem* fs : c.fs) {
    if (p.fsck) check(o, fs->fsck().clean(), "fsck clean on " + fs->name());
    if (!faults) {
      check(o, fs->manager_takeovers() == 0, "no manager takeover");
    }
  }
  if (!faults) {
    check(o, c.clients.retries == 0, "no RPC retries");
    check(o, o.failed == 0, "no failed calls");
  }
}

/// NIC utilization of each NSD server's host link over the measured
/// window (both directions; the busier one counts).
struct NicMeter {
  struct Link {
    sim::Pipe* out;
    sim::Pipe* in;
    BusyMark m_out, m_in;
    Bytes b0;
  };
  std::vector<Link> links;
  void mark(net::Network& net, const std::vector<net::NodeId>& servers,
            net::NodeId sw, double now) {
    for (net::NodeId s : servers) {
      Link l{net.pipe(s, sw), net.pipe(sw, s), {}, {}, 0};
      l.m_out.mark(*l.out, now);
      l.m_in.mark(*l.in, now);
      l.b0 = l.out->bytes_moved() + l.in->bytes_moved();
      links.push_back(l);
    }
  }
  void finish(Collected& c, double now) const {
    for (const Link& l : links) {
      c.nic_util.add(
          std::max(l.m_out.util(*l.out, now), l.m_in.util(*l.in, now)));
      c.nic_bytes += l.out->bytes_moved() + l.in->bytes_moved() - l.b0;
    }
  }
};

std::vector<gpfs::NsdServer*> servers_of(
    gpfs::Cluster& cl, const std::vector<net::NodeId>& nodes) {
  std::vector<gpfs::NsdServer*> out;
  for (net::NodeId n : nodes) out.push_back(cl.server_on(n));
  return out;
}

// --- mpiio_stream ----------------------------------------------------------

/// One MPI-IO phase (the workload/mpiio.hpp access pattern, driven
/// through Calls so each transfer is timed): task t owns application
/// blocks t, t+N, ... and keeps `qd` transfers in flight; writers fsync
/// before close.
struct MpiPhase {
  struct Task {
    gpfs::Client* c = nullptr;
    gpfs::Fh fh = -1;
    Bytes issued = 0, moved = 0;
    std::size_t inflight = 0;
  };
  Calls& calls;
  std::vector<Task> tasks;
  std::string path;
  bool write;
  Bytes per_task, block, transfer;
  std::size_t qd;
  std::size_t closed = 0;

  Bytes offset(std::size_t t, Bytes linear) const {
    const Bytes k = linear / block;
    return (static_cast<Bytes>(t) + k * tasks.size()) * block + linear % block;
  }
  void start() {
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      calls.open(tasks[t].c, path, bench::kUser,
                 write ? gpfs::OpenFlags::create_rw() : gpfs::OpenFlags::ro(),
                 [this, t](Result<gpfs::Fh> r) {
                   if (!r.ok()) return;
                   tasks[t].fh = *r;
                   pump(t);
                 });
    }
  }
  void pump(std::size_t t) {
    Task& k = tasks[t];
    while (k.inflight < qd && k.issued < per_task) {
      const Bytes off = offset(t, k.issued);
      k.issued += transfer;
      ++k.inflight;
      auto cont = [this, t](Result<Bytes> r) {
        Task& tk = tasks[t];
        --tk.inflight;
        if (r.ok()) tk.moved += *r;
        if (tk.issued == per_task && tk.inflight == 0) {
          finish(t);
        } else if (r.ok()) {
          pump(t);
        }
      };
      if (write) {
        calls.write(k.c, k.fh, off, transfer, cont);
      } else {
        calls.read(k.c, k.fh, off, transfer, cont);
      }
    }
  }
  void finish(std::size_t t) {
    auto do_close = [this, t] {
      calls.close(tasks[t].c, tasks[t].fh, [this](Status st) {
        if (st.ok()) ++closed;
      });
    };
    if (write) {
      calls.fsync(tasks[t].c, tasks[t].fh, [do_close](Status) { do_close(); });
    } else {
      do_close();
    }
  }
  Bytes moved() const {
    Bytes b = 0;
    for (const Task& t : tasks) b += t.moved;
    return b;
  }
};

Outcome run_mpiio(const Params& p) {
  Outcome o;
  const double h_setup = cpu_seconds();
  constexpr std::size_t kServers = 64, kArrays = 32;
  const std::size_t clients = p.small ? 16 : 64;
  const Bytes per_task = p.small ? 128 * MiB : 512 * MiB;

  sim::Simulator sim;
  net::Network net(sim);
  Rng root(p.seed);
  net::Site room =
      net::add_site(net, "sdsc", kServers + clients + 1, gbps(1.0));
  gpfs::ClusterConfig cfg;
  cfg.name = "sdsc";
  cfg.tcp.window = 2 * MiB;
  cfg.tcp.chunk = 1 * MiB;
  gpfs::Cluster cluster(sim, net, cfg, root.split());
  for (net::NodeId h : room.hosts) cluster.add_node(h);
  const std::vector<net::NodeId> servers(room.hosts.begin(),
                                         room.hosts.begin() + kServers);
  for (net::NodeId s : servers) cluster.add_nsd_server(s);
  const net::NodeId manager = room.hosts[kServers];
  const std::vector<net::NodeId> client_nodes(room.hosts.begin() + kServers + 1,
                                              room.hosts.end());

  // The fig11 DS4100 build-out: every LUN of 32 trays becomes one NSD,
  // primaries and backups spread over the 64 servers.
  std::vector<double> dev_ms;
  std::vector<Span> dev_spans;
  std::vector<std::unique_ptr<storage::StorageArray>> arrays;
  std::vector<std::unique_ptr<TimedDevice>> timed;
  std::vector<std::uint32_t> nsd_ids;
  Rng array_rng = root.split();
  for (std::size_t a = 0; a < kArrays; ++a) {
    arrays.push_back(std::make_unique<storage::StorageArray>(
        sim, storage::ArraySpec::ds4100(), array_rng.split()));
    for (std::size_t l = 0; l < arrays.back()->lun_count(); ++l) {
      storage::BlockDevice* dev = &arrays.back()->lun(l);
      if (p.trace) {
        timed.push_back(
            std::make_unique<TimedDevice>(sim, *dev, dev_ms, dev_spans));
        dev = timed.back().get();
      }
      const std::size_t idx = nsd_ids.size();
      nsd_ids.push_back(cluster.create_nsd(
          "ds4100-" + std::to_string(a) + "-l" + std::to_string(l), dev,
          servers[idx % kServers], servers[(idx + kServers / 2) % kServers]));
    }
  }
  gpfs::FileSystem& fs =
      cluster.create_filesystem("gpfs-prod", nsd_ids, 1 * MiB, manager);
  auto mount_all = [&] {
    std::vector<gpfs::Client*> out;
    for (net::NodeId n : client_nodes) {
      auto c = cluster.mount("gpfs-prod", n);
      MGFS_ASSERT(c.ok(), "mount failed");
      out.push_back(*c);
    }
    return out;
  };
  std::vector<gpfs::Client*> writers = mount_all();
  o.setup_s = cpu_seconds() - h_setup;
  if (p.setup_only) return o;

  const Phase phase(sim);
  Calls calls(sim, p.trace);
  Collected col;
  col.calls = &calls;
  NicMeter nic;
  nic.mark(net, servers, room.sw, sim.now());
  const double t0 = sim.now();

  const std::string path = "/mpi_shared";
  const Bytes total = per_task * clients;
  MpiPhase wphase{calls, {}, path, true, per_task, 128 * MiB, 1 * MiB, 6};
  for (gpfs::Client* c : writers) wphase.tasks.push_back({c});
  wphase.start();
  sim.run();
  check(o, wphase.closed == clients, "every writer closed");
  check(o, wphase.moved() == total, "write bytes acknowledged == issued");
  // RAID-5 amplification: member-disk bytes per application write byte.
  Bytes disk_bytes_write = 0;
  for (auto& arr : arrays) {
    for (std::size_t r = 0; r < arr->spec().raid_sets; ++r) {
      storage::RaidSet& set = arr->raid_set(r);
      for (std::size_t m = 0; m < set.member_count(); ++m) {
        disk_bytes_write += set.member(m).bytes_transferred();
      }
    }
  }
  for (gpfs::Client* c : writers) {
    col.clients.absorb(c);
    cluster.unmount(c);
  }
  check(o, col.clients.remote_written == total,
        "bytes written to NSDs == bytes acknowledged");

  // Cold read by fresh clients on the same nodes.
  std::vector<gpfs::Client*> readers = mount_all();
  MpiPhase rphase{calls, {}, path, false, per_task, 128 * MiB, 1 * MiB, 6};
  for (gpfs::Client* c : readers) rphase.tasks.push_back({c});
  rphase.start();
  sim.run();
  check(o, rphase.closed == clients, "every reader closed");
  check(o, rphase.moved() == total, "bytes read back == bytes written");
  std::optional<Result<gpfs::StatInfo>> st;
  readers.front()->stat(path, [&](Result<gpfs::StatInfo> r) { st = r; });
  sim.run();
  check(o, st && st->ok() && (*st)->size == total,
        "file size == bytes written");
  for (gpfs::Client* c : readers) col.clients.absorb(c);
  phase.end(o);

  const double now = sim.now();
  col.window_s = now - t0;
  nic.finish(col, now);
  // Local mounts take no simulated time, so the measured window starts
  // at 0 and the devices' own [0, now] utilization is the window's.
  MeanMax disk_util, ctrl_util;
  for (auto& arr : arrays) {
    for (std::size_t r = 0; r < arr->spec().raid_sets; ++r) {
      storage::RaidSet& set = arr->raid_set(r);
      for (std::size_t m = 0; m < set.member_count(); ++m) {
        disk_util.add(set.member(m).utilization());
      }
    }
    for (std::size_t k = 0; k < arr->spec().controllers; ++k) {
      ctrl_util.add(arr->controller(k).utilization());
    }
  }
  col.primary_ms = calls.latencies(Op::write);
  const auto& rl = calls.latencies(Op::read);
  col.primary_ms.insert(col.primary_ms.end(), rl.begin(), rl.end());
  col.fs = {&fs};
  col.clusters = {&cluster};
  col.servers = servers_of(cluster, servers);
  col.dev_ms = std::move(dev_ms);
  assemble(o, col);
  o.spans.insert(o.spans.end(), dev_spans.begin(), dev_spans.end());
  common_checks(p, o, col, false);

  auto& s = o.sim;
  s["storage.disk_bytes_per_write_byte"] =
      static_cast<double>(disk_bytes_write) / static_cast<double>(total);
  s["storage.disk_util.mean"] = disk_util.mean();
  s["storage.disk_util.max"] = disk_util.max;
  s["storage.ctrl_util.max"] = ctrl_util.max;
  const storage::DiskSpec sata = storage::DiskSpec::sata_250();
  const double ctrl_MBps = storage::ArraySpec::ds4100().controller_rate / 1e6;
  o.report.push_back(fmt("  storage.ctrl     util mean %.3f max %.3f  -> "
                         "%.1f MB/s of a %.0f MB/s FC controller ceiling",
                         ctrl_util.mean(), ctrl_util.max,
                         ctrl_util.max * ctrl_MBps, ctrl_MBps));
  o.report.push_back(fmt("  storage.disk     util mean %.3f max %.3f  (busy "
                         "fraction; sata_250 media rate %.0f MB/s)",
                         disk_util.mean(), disk_util.max,
                         sata.stream_rate / 1e6));
  o.report.push_back(fmt("  storage.raid     %.3f member-disk bytes per "
                         "application write byte (8+P full stripe = 1.125)",
                         s["storage.disk_bytes_per_write_byte"]));
  const double w = s["write_MBps"], r = s["read_MBps"];
  o.report.push_back(fmt("  paper Fig. 11 @64 nodes (informational, not "
                         "gated): write %.0f MB/s vs 3500 (%+.1f%%), read "
                         "%.0f MB/s vs 5900 (%+.1f%%)",
                         w, (w / 3500.0 - 1) * 100, r, (r / 5900.0 - 1) * 100));
  return o;
}

// --- small-file metadata load (smallfile_meta, meta_failover) -------------

/// A failed call is redriven after this pause, the way a VFS layer
/// retries EAGAIN, at most kMaxRedrives times per client.
constexpr double kRedrivePause = 0.05;
constexpr std::size_t kMaxRedrives = 200;

/// Per-client create cycles in a private directory: open-create, 16 KiB
/// write, fsync, close (the primary call), then one seeded extra — stat
/// of the new file, readdir of the directory, or retiring the oldest
/// file (open, read back, close, unlink). A failed call is redriven.
class SmallFiles {
 public:
  static constexpr Bytes kFile = 16 * KiB;

  /// Each client runs `cycles` cycles, or stops starting new ones at
  /// simulated time `until`, whichever comes first.
  SmallFiles(sim::Simulator& sim, Calls& calls, Outcome& o,
             std::vector<gpfs::Client*> clients, std::size_t cycles,
             double until, bool cleanup, Rng rng)
      : sim_(sim), calls_(calls), o_(o), cycles_(cycles), until_(until),
        cleanup_(cleanup) {
    for (std::size_t i = 0; i < clients.size(); ++i) {
      tenants_.push_back({clients[i], rng.split(), 0, {}, 0});
    }
  }

  static std::string dir(std::size_t i) { return "/u" + std::to_string(i); }
  void start() {
    for (std::size_t i = 0; i < tenants_.size(); ++i) next(i);
  }
  std::size_t finished() const { return finished_; }
  std::size_t started() const {
    std::size_t n = 0;
    for (const Tenant& t : tenants_) n += t.cycle;
    return n;
  }
  std::vector<double>& cycle_ms() { return cycle_ms_; }
  /// Files whose create cycle committed (fsync succeeded) and that were
  /// not retired since.
  std::vector<std::string> live_files() const {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      for (std::size_t k : tenants_[i].live) out.push_back(path(i, k));
    }
    return out;
  }

 private:
  struct Tenant {
    gpfs::Client* c;
    Rng rng;
    std::size_t cycle = 0;
    std::deque<std::size_t> live;
    std::size_t redrives = 0;
  };

  static std::string path(std::size_t i, std::size_t k) {
    return dir(i) + "/f" + std::to_string(k);
  }
  /// Redrive a failed step after a short pause. A final error, or a
  /// step that keeps failing, ends the client's loop and is reported, so
  /// the run always terminates.
  void redrive(std::size_t i, const Error& e, std::function<void()> step) {
    if (!retryable(e.code) || ++tenants_[i].redrives > kMaxRedrives) {
      o_.violations.push_back("client gave up: " + e.to_string());
      ++finished_;
      return;
    }
    sim_.after(kRedrivePause, [step = std::move(step)] { step(); });
  }

  void next(std::size_t i) {
    Tenant& t = tenants_[i];
    if (t.cycle == cycles_ || sim_.now() >= until_) {
      retire_all(i);
      return;
    }
    create(i, t.cycle++, sim_.now());
  }

  void create(std::size_t i, std::size_t k, double t0) {
    Tenant& t = tenants_[i];
    calls_.open(t.c, path(i, k), bench::kUser, gpfs::OpenFlags::create_rw(),
                [this, i, k, t0](Result<gpfs::Fh> fh) {
                  if (!fh.ok()) {
                    return redrive(i, fh.error(),
                                   [=, this] { create(i, k, t0); });
                  }
                  write(i, k, *fh, t0);
                });
  }
  void write(std::size_t i, std::size_t k, gpfs::Fh fh, double t0) {
    calls_.write(tenants_[i].c, fh, 0, kFile,
                 [this, i, k, fh, t0](Result<Bytes> w) {
                   if (!w.ok()) {
                     return redrive(i, w.error(),
                                    [=, this] { write(i, k, fh, t0); });
                   }
                   if (*w != kFile) o_.violations.push_back("short write");
                   sync(i, k, fh, t0);
                 });
  }
  void sync(std::size_t i, std::size_t k, gpfs::Fh fh, double t0) {
    calls_.fsync(tenants_[i].c, fh, [this, i, k, fh, t0](Status st) {
      if (!st.ok()) {
        return redrive(i, st.error(),
                       [=, this] { sync(i, k, fh, t0); });
      }
      tenants_[i].live.push_back(k);
      close(i, fh, t0);
    });
  }
  void close(std::size_t i, gpfs::Fh fh, double t0) {
    calls_.close(tenants_[i].c, fh, [this, i, fh, t0](Status st) {
      if (!st.ok()) {
        return redrive(i, st.error(),
                       [=, this] { close(i, fh, t0); });
      }
      cycle_ms_.push_back((sim_.now() - t0) * 1e3);
      extra(i);
    });
  }

  void extra(std::size_t i) {
    Tenant& t = tenants_[i];
    const std::uint64_t pick = t.rng.below(3);
    if (pick == 0) {
      stat_newest(i);
    } else if (pick == 1) {
      list(i);
    } else if (t.live.size() >= 2) {
      retire(i, [this, i] { next(i); });
    } else {
      next(i);
    }
  }
  void stat_newest(std::size_t i) {
    Tenant& t = tenants_[i];
    calls_.stat(t.c, path(i, t.live.back()),
                [this, i](Result<gpfs::StatInfo> r) {
                  if (!r.ok()) {
                    return redrive(i, r.error(),
                                   [=, this] { stat_newest(i); });
                  }
                  if (r->size != kFile) o_.violations.push_back("stat size");
                  next(i);
                });
  }
  void list(std::size_t i) {
    calls_.readdir(tenants_[i].c, dir(i), bench::kUser,
                   [this, i](Result<std::vector<std::string>> r) {
                     if (!r.ok()) {
                       return redrive(i, r.error(),
                                      [=, this] { list(i); });
                     }
                     if (r->size() != tenants_[i].live.size()) {
                       o_.violations.push_back("readdir entry count");
                     }
                     next(i);
                   });
  }
  /// Retire the oldest live file: open, read it back whole, close,
  /// unlink.
  void retire(std::size_t i, std::function<void()> then) {
    Tenant& t = tenants_[i];
    const std::string p = path(i, t.live.front());
    calls_.open(t.c, p, bench::kUser, gpfs::OpenFlags::ro(),
                [this, i, p, then](Result<gpfs::Fh> fh) {
                  if (!fh.ok()) {
                    return redrive(i, fh.error(),
                                   [=, this] { retire(i, then); });
                  }
                  readback(i, p, *fh, then);
                });
  }
  void readback(std::size_t i, std::string p, gpfs::Fh fh,
                std::function<void()> then) {
    calls_.read(tenants_[i].c, fh, 0, kFile,
                [this, i, p, fh, then](Result<Bytes> r) {
                  if (!r.ok()) {
                    return redrive(i, r.error(),
                                   [=, this] { readback(i, p, fh, then); });
                  }
                  if (*r != kFile) o_.violations.push_back("read-back size");
                  calls_.close(tenants_[i].c, fh, [this, i, p, then](Status) {
                    remove(i, p, then);
                  });
                });
  }
  void remove(std::size_t i, std::string p, std::function<void()> then) {
    calls_.unlink(tenants_[i].c, p, bench::kUser,
                  [this, i, p, then](Status st) {
                    if (!st.ok()) {
                      return redrive(i, st.error(),
                                     [=, this] { remove(i, p, then); });
                    }
                    tenants_[i].live.pop_front();
                    then();
                  });
  }
  void retire_all(std::size_t i) {
    if (!cleanup_ || tenants_[i].live.empty()) {
      ++finished_;
      return;
    }
    const std::string p = path(i, tenants_[i].live.front());
    remove(i, p, [this, i] { retire_all(i); });
  }

  sim::Simulator& sim_;
  Calls& calls_;
  Outcome& o_;
  std::size_t cycles_;
  double until_;
  bool cleanup_;
  std::vector<Tenant> tenants_;
  std::vector<double> cycle_ms_;
  std::size_t finished_ = 0;
};

/// Closed-loop sequential writer: `transfer`-sized writes, fsync every
/// `sync_every` bytes, into its own file, until `total` bytes are written
/// or simulated time `until` has passed; a final fsync covers the tail.
class Streamer {
 public:
  Streamer(sim::Simulator& sim, Calls& calls, gpfs::Client* c, std::string path,
           Bytes total, Bytes transfer, Bytes sync_every,
           double until = kNoHorizon,
           std::function<void()> on_done = [] {})
      : sim_(sim), calls_(calls), c_(c), path_(std::move(path)), total_(total),
        transfer_(transfer), sync_every_(sync_every), until_(until),
        on_done_(std::move(on_done)) {}

  void start() {
    calls_.open(c_, path_, bench::kUser, gpfs::OpenFlags::create_rw(),
                [this](Result<gpfs::Fh> fh) {
                  if (!fh.ok()) return later(fh.error(), [this] { start(); });
                  fh_ = *fh;
                  step();
                });
  }
  bool done() const { return done_; }
  Bytes synced() const { return synced_; }
  const std::string& path() const { return path_; }
  gpfs::Client* client() const { return c_; }

 private:
  /// Redrive a failed step after a short pause; a final error, or a step
  /// that keeps failing, stops the stream short of done().
  void later(const Error& e, std::function<void()> f) {
    if (!retryable(e.code) || ++redrives_ > kMaxRedrives) return;
    sim_.after(kRedrivePause, [f = std::move(f)] { f(); });
  }
  void step() {
    const bool stop = written_ == total_ || sim_.now() >= until_;
    if (written_ > synced_ && (written_ % sync_every_ == 0 || stop)) {
      calls_.fsync(c_, fh_, [this](Status st) {
        if (!st.ok()) return later(st.error(), [this] { step(); });
        synced_ = written_;
        step();
      });
      return;
    }
    if (stop) {
      calls_.close(c_, fh_, [this](Status) {
        done_ = true;
        on_done_();
      });
      return;
    }
    calls_.write(c_, fh_, written_, transfer_, [this](Result<Bytes> r) {
      if (!r.ok()) return later(r.error(), [this] { step(); });
      written_ += *r;
      step();
    });
  }

  sim::Simulator& sim_;
  Calls& calls_;
  gpfs::Client* c_;
  std::string path_;
  Bytes total_, transfer_, sync_every_;
  double until_;
  std::function<void()> on_done_;
  gpfs::Fh fh_ = -1;
  Bytes written_ = 0, synced_ = 0;
  std::size_t redrives_ = 0;
  bool done_ = false;
};

/// The shard_sweep farm: 8 NSD servers over 32 rate devices with 16 KiB
/// blocks, one manager seat per metadata shard, 30 us of manager CPU per
/// op, then `clients` mounted clients, each owning a directory.
struct MetaWorld {
  static constexpr std::size_t kServers = 8, kNsds = 32;
  static constexpr std::uint32_t kShards = 4;
  sim::Simulator sim;
  net::Network net{sim};
  net::Site site;
  std::unique_ptr<gpfs::Cluster> cluster;
  bench::ServerFarm farm;
  std::vector<gpfs::Client*> clients;

  MetaWorld(std::size_t n, Rng& root, const gpfs::ClusterConfig& base) {
    site = net::add_site(net, "meta", kServers + kShards + n, gbps(1.0));
    gpfs::ClusterConfig cfg = base;
    cfg.name = "meta";
    cfg.tcp.window = 2 * MiB;
    cfg.tcp.chunk = 1 * MiB;
    cfg.meta_shards = kShards;
    cfg.meta_cpu_per_op = 30e-6;
    cfg.auto_delegate_ops = 4;
    cluster = std::make_unique<gpfs::Cluster>(sim, net, cfg, root.split());
    farm = bench::make_rate_farm(*cluster, sim, site, 0, kServers, kNsds,
                                 BytesPerSec(200e6), 4 * GiB, "meta", 16 * KiB);
    std::vector<net::NodeId> seats{farm.manager};
    for (std::uint32_t s = 1; s < kShards; ++s) {
      const net::NodeId seat = site.hosts.at(kServers + s);
      cluster->add_node(seat);
      seats.push_back(seat);
    }
    cluster->set_shard_managers(*farm.fs, seats);
    for (std::size_t i = 0; i < n; ++i) {
      const net::NodeId node = site.hosts.at(kServers + kShards + i);
      cluster->add_node(node);
      auto c = cluster->mount("meta", node);
      MGFS_ASSERT(c.ok(), "mount failed");
      clients.push_back(*c);
      auto d = farm.fs->ns().mkdir(SmallFiles::dir(i), bench::kUser,
                                   gpfs::Mode{077}, 0.0);
      MGFS_ASSERT(d.ok(), "mkdir failed");
    }
  }

  void finish(Outcome& o, Collected& col, Calls& calls, double t0,
              NicMeter& nic) {
    for (gpfs::Client* c : clients) col.clients.absorb(c);
    col.calls = &calls;
    col.window_s = sim.now() - t0;
    nic.finish(col, sim.now());
    col.fs = {farm.fs};
    col.clusters = {cluster.get()};
    col.servers = servers_of(*cluster, farm.server_nodes);
    assemble(o, col);
  }
};

Outcome run_smallfile(const Params& p) {
  Outcome o;
  const double h_setup = cpu_seconds();
  Rng root(p.seed);
  const std::size_t n = p.small ? 128 : 1024;
  const std::size_t cycles = p.small ? 4 : 8;
  MetaWorld w(n, root, gpfs::ClusterConfig{});
  const Bytes free0 = w.farm.fs->free_bytes();
  o.setup_s = cpu_seconds() - h_setup;
  if (p.setup_only) return o;

  const Phase phase(w.sim);
  Calls calls(w.sim, p.trace);
  NicMeter nic;
  nic.mark(w.net, w.farm.server_nodes, w.site.sw, w.sim.now());
  const double t0 = w.sim.now();
  SmallFiles load(w.sim, calls, o, w.clients, cycles,
                  kNoHorizon, /*cleanup=*/true,
                  root.split());
  load.start();
  w.sim.run();
  phase.end(o);

  check(o, load.finished() == n, "every client finished its cycles");
  check(o, load.cycle_ms().size() == n * cycles,
        "every create cycle completed");
  check(o, calls.writes.bytes == n * cycles * SmallFiles::kFile,
        "write bytes acknowledged == cycles x 16 KiB");
  check(o, w.farm.fs->free_bytes() == free0,
        "free space back to its pre-run value after the final unlinks");
  Collected col;
  col.primary_ms = std::move(load.cycle_ms());
  w.finish(o, col, calls, t0, nic);
  check(o, col.clients.remote_written == calls.writes.bytes,
        "bytes written to NSDs == bytes acknowledged");
  common_checks(p, o, col, false);
  return o;
}

Outcome run_failover(const Params& p) {
  Outcome o;
  const double h_setup = cpu_seconds();
  Rng root(p.seed);
  const std::size_t n = p.small ? 64 : 256;
  constexpr std::size_t kStreamers = 8;
  // Clients loop until this simulated horizon, so a stalled client
  // shortens the run's goodput instead of stretching its window; every
  // fault below heals before it.
  const double horizon = 1.5;
  // Tight RPC deadlines (the chaos drills' 0.3 s) so detection and
  // takeover happen inside the run; the default soak's 3 s lease and a
  // deeper retry budget so the faults are ridden out instead of
  // surfacing as failed calls (a client expelled mid-run would see its
  // open handles go stale).
  gpfs::ClusterConfig base;
  base.client.rpc_deadline = 0.3;
  base.client.retry.max_attempts = 12;
  base.lease_duration = 3.0;
  base.lease_recovery_wait = 1.5;
  MetaWorld w(n + kStreamers, root, base);
  fault::FaultInjector inject(w.net, root.split());
  inject.watch_pool(w.cluster->connection_pool());
  inject.watch_cluster(*w.cluster);
  o.setup_s = cpu_seconds() - h_setup;
  if (p.setup_only) return o;

  const Phase phase(w.sim);
  const double t0 = w.sim.now();
  const double until = t0 + horizon;
  Calls calls(w.sim, p.trace, until);
  NicMeter nic;
  nic.mark(w.net, w.farm.server_nodes, w.site.sw, t0);
  std::vector<gpfs::Client*> meta(w.clients.begin(), w.clients.begin() + n);
  SmallFiles load(w.sim, calls, o, meta,
                  std::numeric_limits<std::size_t>::max(), until,
                  /*cleanup=*/false, root.split());
  std::vector<std::unique_ptr<Streamer>> streams;
  for (std::size_t k = 0; k < kStreamers; ++k) {
    streams.push_back(std::make_unique<Streamer>(
        w.sim, calls, w.clients[n + k], "/stream" + std::to_string(k),
        1 * TiB, 256 * KiB, 4 * MiB, until));
  }
  // The seed jitters the fault times and picks the cut client; the
  // shape (shard-0 manager crash, blackhole of the last NSD server,
  // client link cut, all healed by 1.35 s) is the same for every seed.
  Rng frng = root.split();
  const net::NodeId bh = w.farm.server_nodes.back();
  const net::NodeId cut = meta[frng.below(n)]->node();
  inject.schedule_crash_manager(t0 + 0.20 + frng.uniform(0, 0.02),
                                *w.farm.fs, 0.5);
  inject.schedule_blackhole(t0 + 0.30 + frng.uniform(0, 0.02), bh, 1.0);
  inject.schedule_link_cut(t0 + 0.40 + frng.uniform(0, 0.02), cut,
                           w.site.sw, 0.5);

  load.start();
  for (auto& s : streams) s->start();
  w.sim.run();
  phase.end(o);

  check(o, load.finished() == n, "every client finished its cycles");
  check(o, load.cycle_ms().size() == load.started(),
        "every create cycle completed");
  for (auto& s : streams) check(o, s->done(), "every streamer finished");
  Collected col;
  col.primary_ms = std::move(load.cycle_ms());
  w.finish(o, col, calls, t0, nic);
  common_checks(p, o, col, true);
  check(o, w.farm.fs->manager_takeovers() > 0,
        "the manager crash was taken over");

  // After the heal: every file whose fsync succeeded stats at full size.
  std::vector<std::pair<std::string, Bytes>> expect;
  for (const std::string& f : load.live_files()) {
    expect.emplace_back(f, SmallFiles::kFile);
  }
  for (auto& s : streams) expect.emplace_back(s->path(), s->synced());
  std::size_t good = 0;
  gpfs::Client* probe = w.clients[n];
  for (const auto& [path, size] : expect) {
    probe->stat(path, [&, size = size](Result<gpfs::StatInfo> r) {
      if (r.ok() && r->size == size) ++good;
    });
  }
  w.sim.run();
  check(o, good == expect.size(),
        "every fsynced file stats at full size after the heal");
  return o;
}

// --- wan_mixed -----------------------------------------------------------

/// Zipf(s) over `n` ranks, sampled by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double acc = 0;
    for (std::size_t r = 0; r < n; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  std::size_t sample(Rng& rng) const {
    const double u = rng.uniform();
    return static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

Outcome run_wan(const Params& p) {
  Outcome o;
  const double h_setup = cpu_seconds();
  Rng root(p.seed);
  constexpr std::size_t kReaders = 16, kWriters = 16;
  const std::size_t queries = p.small ? 8 : 128;
  const Bytes dump = p.small ? 32 * MiB : 64 * MiB;
  constexpr Bytes kRegion = 4 * MiB;
  constexpr Bytes kCut = 128 * KiB;
  constexpr Bytes kSky = 64 * GiB;

  sim::Simulator sim;
  net::Network net(sim);
  net::TeraGridSpec spec;
  spec.sdsc_hosts = 18;  // 16 NSD servers + manager + spare
  spec.anl_hosts = kReaders + kWriters;
  net::TeraGrid tg = net::make_teragrid_2004(net, spec);
  gpfs::ClusterConfig scfg;
  scfg.name = "sdsc";
  scfg.tcp.window = 2 * MiB;
  scfg.tcp.chunk = 1 * MiB;
  gpfs::Cluster sdsc(sim, net, scfg, root.split());
  bench::ServerFarm farm = bench::make_rate_farm(sdsc, sim, tg.sdsc, 0, 16, 32,
                                                 300e6, 256 * GiB, "gpfs-wan");
  gpfs::ClusterConfig acfg;
  acfg.name = "anl";
  acfg.tcp.window = 2 * MiB;
  acfg.tcp.chunk = 256 * KiB;
  gpfs::Cluster anl(sim, net, acfg, root.split());
  for (net::NodeId h : tg.anl.hosts) anl.add_node(h);
  bench::seed_file(*farm.fs, "/nvo_sky", kSky);
  const double h_mount = cpu_seconds();
  std::vector<gpfs::Client*> clients =
      bench::remote_mount_all(sim, sdsc, anl, "gpfs-wan", farm.manager,
                              tg.anl.hosts, gpfs::AccessMode::read_write);
  o.mount_host_s = cpu_seconds() - h_mount;
  o.setup_s = cpu_seconds() - h_setup;
  if (p.setup_only) return o;

  const Phase phase(sim);
  Calls calls(sim, p.trace);
  NicMeter nic;
  nic.mark(net, farm.server_nodes, tg.sdsc.sw, sim.now());
  const double t0 = sim.now();
  const std::vector<std::pair<net::NodeId, net::NodeId>> wan = {
      {tg.sdsc.sw, tg.la}, {tg.la, tg.chi}, {tg.chi, tg.anl.sw}};
  std::vector<std::pair<sim::Pipe*, BusyMark>> wan_pipes;
  for (auto [a, b] : wan) {
    for (sim::Pipe* pp : {net.pipe(a, b), net.pipe(b, a)}) {
      wan_pipes.push_back({pp, {}});
      wan_pipes.back().second.mark(*pp, t0);
    }
  }

  // NVO readers: a query is a cutout of 128 KiB - 2 MiB at a 128 KiB
  // aligned offset inside one 4 MiB region, read in calls of at most
  // 1 MiB back to back. Regions are Zipf-ranked and scattered over the
  // file by a seeded affine permutation.
  const std::size_t regions = kSky / kRegion;
  Zipf zipf(regions, 1.1);
  Rng qrng = root.split();
  // An odd multiplier makes the map a bijection on the 2^k regions.
  const std::uint64_t mul = qrng.below(regions / 2) * 2 + 1;
  const std::uint64_t add = qrng.below(regions);
  std::vector<double> query_ms;
  Bytes query_bytes = 0;
  std::size_t readers_done = 0;
  struct Reader {
    gpfs::Client* c;
    Rng rng;
    gpfs::Fh fh = -1;
    std::size_t left;
  };
  std::vector<Reader> readers;
  for (std::size_t i = 0; i < kReaders; ++i) {
    readers.push_back({clients[i], qrng.split(), -1, queries});
  }
  std::function<void(std::size_t)> query;
  std::function<void(std::size_t, Bytes, Bytes, double)> cutout =
      [&](std::size_t i, Bytes off, Bytes left, double q0) {
        if (left == 0) {
          query_ms.push_back((sim.now() - q0) * 1e3);
          query(i);
          return;
        }
        const Bytes len = std::min<Bytes>(left, 1 * MiB);
        calls.read(readers[i].c, readers[i].fh, off, len,
                   [&, i, off, left, len, q0](Result<Bytes> r) {
                     if (!r.ok() || *r != len) {
                       o.violations.push_back("NVO read size");
                     }
                     cutout(i, off + len, left - len, q0);
                   });
      };
  query = [&](std::size_t i) {
    Reader& r = readers[i];
    if (r.left == 0) {
      calls.close(r.c, r.fh, [&](Status) { ++readers_done; });
      return;
    }
    --r.left;
    const std::uint64_t region = (zipf.sample(r.rng) * mul + add) % regions;
    const Bytes off = region * kRegion + r.rng.below(16) * kCut;
    const Bytes len = (1 + r.rng.below(16)) * kCut;
    query_bytes += len;
    cutout(i, off, len, sim.now());
  };
  for (std::size_t i = 0; i < kReaders; ++i) {
    calls.open(readers[i].c, "/nvo_sky", bench::kUser, gpfs::OpenFlags::ro(),
               [&, i](Result<gpfs::Fh> fh) {
                 if (!fh.ok()) return;
                 readers[i].fh = *fh;
                 query(i);
               });
  }
  // Enzo writers: back-to-back dumps, each fsynced and closed before
  // the next starts, for as long as the query campaign runs.
  std::vector<std::unique_ptr<Streamer>> streams;
  std::function<void(std::size_t, std::size_t)> dump_from =
      [&](std::size_t k, std::size_t d) {
        if (readers_done == kReaders) return;
        streams.push_back(std::make_unique<Streamer>(
            sim, calls, clients[kReaders + k],
            "/enzo" + std::to_string(k) + "_" + std::to_string(d), dump,
            1 * MiB, dump, kNoHorizon, [&, k, d] { dump_from(k, d + 1); }));
        streams.back()->start();
      };
  for (std::size_t k = 0; k < kWriters; ++k) dump_from(k, 0);
  sim.run();
  phase.end(o);

  check(o, readers_done == kReaders, "every reader finished its queries");
  check(o, query_ms.size() == kReaders * queries, "every NVO query completed");
  check(o, calls.reads.bytes == query_bytes, "bytes read == bytes queried");
  for (auto& s : streams) check(o, s->done(), "every dump closed");
  check(o, calls.writes.bytes == streams.size() * dump,
        "write bytes acknowledged == dumps x dump size");
  std::size_t good = 0;
  for (auto& s : streams) {
    s->client()->stat(s->path(),
                      [&, size = s->synced()](Result<gpfs::StatInfo> r) {
                        if (r.ok() && r->size == size && size == dump) ++good;
                      });
  }
  sim.run();
  check(o, good == streams.size(), "every dump stats at its full size");

  Collected col;
  for (gpfs::Client* c : clients) col.clients.absorb(c);
  check(o, col.clients.remote_written == calls.writes.bytes,
        "bytes written to NSDs == bytes acknowledged");
  col.calls = &calls;
  col.primary_ms = std::move(query_ms);
  col.window_s = sim.now() - t0;
  nic.finish(col, sim.now());
  col.fs = {farm.fs};
  col.clusters = {&sdsc, &anl};
  col.servers = servers_of(sdsc, farm.server_nodes);
  assemble(o, col);
  common_checks(p, o, col, false);
  double wan_util = 0;
  for (auto& [pp, m] : wan_pipes) {
    wan_util = std::max(wan_util, m.util(*pp, sim.now()));
  }
  o.sim["net.wan_util"] = wan_util;
  o.report.push_back(fmt("  net.wan          util max %.4f of the 30 Gb/s site "
                         "uplink / 40 Gb/s backbone ceiling",
                         wan_util));
  return o;
}

// --- main ----------------------------------------------------------------

struct Workload {
  const char* name;
  Outcome (*run)(const Params&);
  bool paper_reference;  // prints a paper comparison line
};
const Workload kWorkloads[] = {{"mpiio_stream", run_mpiio, true},
                               {"smallfile_meta", run_smallfile, false},
                               {"wan_mixed", run_wan, false},
                               {"meta_failover", run_failover, false}};

struct Metric {
  const char* name;
  const char* unit;
};
const Metric kEndToEnd[] = {
    {"write_MBps", "MB/s"}, {"read_MBps", "MB/s"}, {"meta_ops_per_s", "1/s"},
    {"op_p50_ms", "ms"},    {"op_p99_ms", "ms"},   {"setup_s", "s"},
    {"peak_rss_MB", "MB"},
};

/// Host-clock layer metrics are computed in main(), the rest come from
/// Outcome::sim under their own names.
const Metric kPerLayer[] = {
    {"host_s", "s"},
    {"sim_events_per_s", "1/s"},
    {"sim.events", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"gpfs.client.call_host_s", "s"},
    {"gpfs.client.cache_hit_frac", "frac"},
    {"gpfs.client.remote_bytes_per_app_byte", "ratio"},
    {"gpfs.client.blocks_per_nsd_request", "ratio"},
    {"gpfs.client.readahead_issued", "count"},
    {"gpfs.client.rpc_retries", "count"},
    {"gpfs.client.rpc_timeouts", "count"},
    {"gpfs.client.breaker_opens", "count"},
    {"gpfs.rpc.calls_per_op", "ratio"},
    {"gpfs.mgr.tokens_per_op", "ratio"},
    {"gpfs.mgr.revocations", "count"},
    {"gpfs.mgr.journal_records_per_op", "ratio"},
    {"gpfs.mgr.lease_renewals", "count"},
    {"gpfs.mgr.delegations", "count"},
    {"gpfs.mgr.takeovers", "count"},
    {"gpfs.mgr.t1g_s", "s"},
    {"gpfs.mgr.expels", "count"},
    {"gpfs.nsd.requests", "count"},
    {"gpfs.nsd.bytes_per_request", "B"},
    {"gpfs.nsd.cpu_busy_frac.mean", "frac"},
    {"gpfs.nsd.cpu_busy_frac.max", "frac"},
    {"gpfs.nsd.fenced_writes", "count"},
    {"net.server_nic_util.mean", "frac"},
    {"net.server_nic_util.max", "frac"},
    {"net.wire_bytes_per_app_byte", "ratio"},
    {"net.wan_util", "frac"},
    {"storage.io.count", "count"},
    {"storage.io.p50_ms", "ms"},
    {"storage.io.p99_ms", "ms"},
    {"storage.disk_bytes_per_write_byte", "ratio"},
    {"storage.disk_util.mean", "frac"},
    {"storage.disk_util.max", "frac"},
    {"storage.ctrl_util.max", "frac"},
    {"auth.mount_host_s", "s"},
    {"trace.overhead_frac", "frac"},
    {"fail_frac", "frac"},
    {"recovery_s", "s"},
    {"op_samples", "count"},
    {"op_p99_quantile", "frac"},
};

/// The per-layer metric list: kPerLayer plus count/p50/p99/failed of
/// every wrapped Client call.
std::vector<std::pair<std::string, std::string>> per_layer_metrics() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const char* op : kOpNames) {
    const std::string p = std::string("gpfs.client.") + op;
    out.emplace_back(p + ".count", "count");
    out.emplace_back(p + ".p50_ms", "ms");
    out.emplace_back(p + ".p99_ms", "ms");
    out.emplace_back(p + ".failed", "count");
  }
  for (const Metric& m : kPerLayer) out.emplace_back(m.name, m.unit);
  return out;
}

void print_metric(std::ostringstream& js, bool& first, const char* name,
                  double v, const char* unit) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  js << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
     << ", \"unit\": \"" << unit << "\"}";
  first = false;
}

void write_spans(const std::string& file, const std::vector<Span>& spans) {
  std::ofstream out(file);
  out << "name\tsim_start_s\tsim_end_s\tcall\n";
  char buf[128];
  for (const Span& s : spans) {
    std::snprintf(buf, sizeof(buf), "%s\t%.9f\t%.9f\t%llu\n", s.name, s.t0,
                  s.t1, static_cast<unsigned long long>(s.call));
    out << buf;
  }
}

constexpr std::size_t kSetupsPerRepetition = 4;

int usage() {
  std::fprintf(stderr,
               "usage: mgfsbench --workload <mpiio_stream|smallfile_meta|"
               "wan_mixed|meta_failover> --seed <n> --seconds <s> --trace "
               "<0|1> [--small] [--spans <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold turns off glibc's adaptive one, which rises
  // after large blocks are freed. Otherwise whether a repetition's big
  // zeroed tables come from fresh pages or from recycled heap that
  // calloc must clear depends on what earlier repetitions freed, and
  // setup_s flips between two levels from run to run.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  std::string name, spans_file;
  Params p;
  double seconds = 10;
  constexpr std::size_t kMinRepetitions = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has = i + 1 < argc;
    if (a == "--workload" && has) {
      name = argv[++i];
    } else if (a == "--seed" && has) {
      p.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has) {
      seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has) {
      p.trace = std::atoi(argv[++i]) != 0;
    } else if (a == "--spans" && has) {
      spans_file = argv[++i];
    } else if (a == "--small") {
      p.small = true;
    } else {
      return usage();
    }
  }
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) wl = &w;
  }
  if (wl == nullptr) return usage();
  const bool trace = p.trace;

  // Repeat from a fresh cluster until the wall-clock budget is spent;
  // a traced run interleaves one traced repetition after each untraced
  // one so both see the same host conditions.
  std::vector<Outcome> plain, traced;
  std::vector<double> setups;
  const auto wall0 = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    const auto dt = std::chrono::steady_clock::now() - wall0;
    return std::chrono::duration<double>(dt).count();
  };
  do {
    p.trace = false;
    p.fsck = plain.empty();
    plain.push_back(wl->run(p));
    plain.back().spans.clear();
    // Set-up is cheap next to the measured phase: sample it several
    // times in fresh worlds after every repetition, so its median spans
    // the whole run rather than one moment of the host's load.
    p.setup_only = true;
    for (std::size_t k = 0; k < kSetupsPerRepetition; ++k) {
      setups.push_back(wl->run(p).setup_s);
    }
    p.setup_only = false;
    if (trace) {
      p.trace = true;
      p.fsck = traced.empty();
      traced.push_back(wl->run(p));
      if (traced.size() > 1) traced.back().spans.clear();
    }
  } while (elapsed() < seconds || plain.size() < kMinRepetitions);

  const Outcome& ref = plain.front();
  std::vector<std::string> violations = ref.violations;
  for (const Outcome& o : plain) {
    if (o.sim != ref.sim) {
      violations.push_back("sim-clock metrics differ between repetitions");
    }
  }
  for (const Outcome& o : traced) {
    if (o.sim != ref.sim) {
      violations.push_back("tracing changed sim-clock metrics");
    }
    if (o.traced_only != traced.front().traced_only) {
      violations.push_back("device timings differ between traced repetitions");
    }
    for (const std::string& v : o.violations) {
      violations.push_back("traced: " + v);
    }
  }

  auto med = [](const std::vector<Outcome>& v, double Outcome::*f) {
    std::vector<double> xs;
    for (const Outcome& o : v) xs.push_back(o.*f);
    return median(xs);
  };
  const double host_s = med(plain, &Outcome::host_s);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  std::map<std::string, double> out = ref.sim;
  out["host_s"] = host_s;
  out["setup_s"] = median(setups);
  out["sim_events_per_s"] = static_cast<double>(ref.events) / host_s;
  out["peak_rss_MB"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
  out["sim.host_ns_per_event"] = host_s / static_cast<double>(ref.events) * 1e9;
  out["auth.mount_host_s"] = med(plain, &Outcome::mount_host_s);
  if (trace) {
    for (const auto& [k, v] : traced.front().traced_only) out[k] = v;
    out["gpfs.client.call_host_s"] = med(traced, &Outcome::call_host_s);
    out["trace.overhead_frac"] = med(traced, &Outcome::host_s) / host_s - 1.0;
    if (!spans_file.empty()) write_spans(spans_file, traced.front().spans);
  }

  std::printf("mgfsbench %s seed=%llu repetitions=%zu%s\n", wl->name,
              static_cast<unsigned long long>(p.seed), plain.size(),
              trace ? " (+ traced)" : "");
  std::printf("  primary call: %.0f samples, p50 %.3f ms, p%.1f %.3f ms\n",
              out["op_samples"], out["op_p50_ms"], out["op_p99_quantile"] * 100,
              out["op_p99_ms"]);
  std::printf("  host_s per repetition:");
  for (const Outcome& o : plain) std::printf(" %.4f", o.host_s);
  std::printf("\n  setup_s per set-up:");
  for (double v : setups) std::printf(" %.4f", v);
  std::printf("\n");
  for (const std::string& line : ref.report) std::printf("%s\n", line.c_str());
  if (!wl->paper_reference) {
    std::printf("  (no paper reference for this workload)\n");
  }
  for (const std::string& v : violations) {
    std::printf("  VIOLATION: %s\n", v.c_str());
  }

  std::ostringstream js;
  bool first = true;
  if (trace) {
    for (const auto& [m, unit] : per_layer_metrics()) {
      print_metric(js, first, m.c_str(), out.at(m), unit.c_str());
    }
  } else {
    for (const Metric& m : kEndToEnd) {
      print_metric(js, first, m.name, out.at(m.name), m.unit);
    }
  }
  const bool correct = violations.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ref.attempted),
              static_cast<unsigned long long>(ref.failed), js.str().c_str());
  return correct ? 0 : 1;
}
