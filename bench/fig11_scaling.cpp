// Fig. 11 reproduction — 2005 production GFS: MPI-IO scaling with node
// count ("MPI IO, 128 MB Block Size, 1 MB Transfer Size").
//
// Configuration (paper §5): 0.5 PB of SATA across IBM DS4100 trays
// (67x 250 GB drives each, seven 8+P RAID-5 sets, two 2 Gb/s FC
// controllers), 64 dual-IA64 NSD servers each with a single GbE — a
// theoretical network envelope of 8 GB/s. The scaling study ran inside
// the SDSC machine room.
//
// Paper result: reads scale to just under 6 GB/s at 64 nodes, writes to
// roughly 3.5 GB/s, reads consistently above writes. Here neither the
// RAID-5 read-modify-write (2.5 disk bytes per write byte) nor write
// token ping-pong on the shared file (the benchmark's 64-task
// mpiio_stream sees 6 revokes) sets the write rate: from 2 writers on,
// each gets about half the 1 GbE rate one writer reaches, and the
// mechanism that halves it is still open.
//
// Scale note: 32 DS4100 trays (2016 spindles, 12.8 GB/s of controller
// bandwidth) match the full production build-out;
// the spindle and network ceilings shape the saturation knee.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <string>

#include "bench_util.hpp"
#include "workload/mpiio.hpp"

using namespace mgfs;

namespace {

struct World {
  sim::Simulator sim;
  net::Network net{sim};
  net::Site room;
  std::vector<std::unique_ptr<storage::StorageArray>> arrays;
  std::unique_ptr<gpfs::Cluster> cluster;
  gpfs::FileSystem* fs = nullptr;
  std::vector<net::NodeId> client_nodes;

  static constexpr std::size_t kServers = 64;
  static constexpr std::size_t kArrays = 32;
  static constexpr std::size_t kClients = 64;

  World() {
    room = net::add_site(net, "sdsc", kServers + kClients + 1, gbps(1.0));
    gpfs::ClusterConfig cfg;
    cfg.name = "sdsc";
    cfg.tcp.window = 2 * MiB;
    cfg.tcp.chunk = 1 * MiB;
    // Readahead is adaptive (Client::kReadaheadMin ramping to
    // the readahead_blocks cap, clamped by the strided-run detector);
    // no fixed depth override.
    cluster = std::make_unique<gpfs::Cluster>(sim, net, cfg, Rng(42));
    for (net::NodeId h : room.hosts) cluster->add_node(h);

    std::vector<net::NodeId> servers(room.hosts.begin(),
                                     room.hosts.begin() + kServers);
    for (net::NodeId s : servers) cluster->add_nsd_server(s);
    const net::NodeId manager = room.hosts[kServers];
    client_nodes.assign(room.hosts.begin() + kServers + 1,
                        room.hosts.end());

    // Real DS4100 trays: every LUN becomes one NSD.
    std::vector<std::uint32_t> nsd_ids;
    Rng rng(7);
    for (std::size_t a = 0; a < kArrays; ++a) {
      arrays.push_back(std::make_unique<storage::StorageArray>(
          sim, storage::ArraySpec::ds4100(), rng.split()));
      for (std::size_t l = 0; l < arrays.back()->lun_count(); ++l) {
        const std::size_t idx = nsd_ids.size();
        nsd_ids.push_back(cluster->create_nsd(
            "ds4100-" + std::to_string(a) + "-l" + std::to_string(l),
            &arrays.back()->lun(l), servers[idx % kServers],
            servers[(idx + kServers / 2) % kServers]));
      }
    }
    fs = &cluster->create_filesystem("gpfs-prod", nsd_ids, 1 * MiB, manager);
  }
};

}  // namespace

int main(int argc, char** argv) {
  // --smoke: reduced node-count sweep and per-task volume for CI.
  // --json <path>: dump the sweep as a machine-readable JSON file.
  // The full run exits 1 if reads fall below writes at any node count or
  // a 64-node rate leaves [0.9, 1.1] of the paper.
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  bench::banner("FIG-11",
                "MPI-IO scaling with remote node count (128 MB block, "
                "1 MB transfer)");
  World w;
  std::cout << "  " << World::kArrays << " DS4100 trays, "
            << w.fs->nsd_count() << " NSDs, " << World::kServers
            << " GbE NSD servers; usable capacity "
            << static_cast<double>(w.fs->capacity()) / 1e12 << " TB\n";
  std::cout << std::fixed << std::setprecision(0);
  std::cout << "\n  nodes   write MB/s    read MB/s\n";

  TimeSeries writes("write"), reads("read");
  const std::vector<std::size_t> counts =
      smoke ? std::vector<std::size_t>{1, 4, 16}
            : std::vector<std::size_t>{1, 2, 4, 8, 16, 32, 48, 64};
  for (std::size_t n : counts) {
    // --- write phase: n fresh clients share one file -------------------
    std::vector<gpfs::Client*> wtasks;
    for (std::size_t i = 0; i < n; ++i) {
      auto c = w.cluster->mount("gpfs-prod", w.client_nodes[i]);
      MGFS_ASSERT(c.ok(), "mount failed");
      wtasks.push_back(*c);
    }
    workload::MpiIoConfig mcfg;
    mcfg.block = 128 * MiB;
    mcfg.transfer = 1 * MiB;
    mcfg.queue_depth = 6;
    mcfg.per_task = smoke ? 128 * MiB : 512 * MiB;
    const std::string path = "/mpi_" + std::to_string(n);

    mcfg.write = true;
    std::optional<Result<workload::MpiIoResult>> wres;
    workload::MpiIoJob wjob(wtasks, path, bench::kUser, mcfg);
    wjob.run([&](Result<workload::MpiIoResult> r) { wres = std::move(r); });
    w.sim.run();
    MGFS_ASSERT(wres.has_value() && wres->ok(), "mpi-io write failed");
    const double wr = (*wres)->aggregate_MBps();
    if (std::getenv("MGFS_FIG11_DBG")) {
      std::cerr << wtasks[0]->mmpmon() << "\n";
    }
    for (gpfs::Client* c : wtasks) w.cluster->unmount(c);

    // --- read phase: fresh (cold-cache) clients ------------------------
    std::vector<gpfs::Client*> rtasks;
    for (std::size_t i = 0; i < n; ++i) {
      auto c = w.cluster->mount("gpfs-prod", w.client_nodes[i]);
      MGFS_ASSERT(c.ok(), "mount failed");
      rtasks.push_back(*c);
    }
    mcfg.write = false;
    std::optional<Result<workload::MpiIoResult>> rres;
    workload::MpiIoJob rjob(rtasks, path, bench::kUser, mcfg);
    rjob.run([&](Result<workload::MpiIoResult> r) { rres = std::move(r); });
    w.sim.run();
    MGFS_ASSERT(rres.has_value() && rres->ok(), "mpi-io read failed");
    const double rr = (*rres)->aggregate_MBps();
    if (std::getenv("MGFS_FIG11_DBG")) {
      std::cerr << rtasks[0]->mmpmon() << "\n";
    }
    for (gpfs::Client* c : rtasks) w.cluster->unmount(c);

    writes.add(static_cast<double>(n), wr);
    reads.add(static_cast<double>(n), rr);
    std::cout << "  " << std::setw(5) << n << "  " << std::setw(11) << wr
              << "  " << std::setw(11) << rr << "\n";
  }

  std::cout << "\n  read  [" << sparkline(reads) << "]\n";
  std::cout << "  write [" << sparkline(writes) << "]\n";
  std::cout << std::defaultfloat;

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << std::fixed << std::setprecision(1);
    out << "{\n  \"bench\": \"fig11_scaling\",\n  \"smoke\": "
        << (smoke ? "true" : "false") << ",\n  \"nodes\": [";
    for (std::size_t i = 0; i < counts.size(); ++i) {
      out << (i ? ", " : "") << counts[i];
    }
    out << "],\n  \"write_MBps\": [";
    for (std::size_t i = 0; i < writes.size(); ++i) {
      out << (i ? ", " : "") << writes.points()[i].y;
    }
    out << "],\n  \"read_MBps\": [";
    for (std::size_t i = 0; i < reads.size(); ++i) {
      out << (i ? ", " : "") << reads.points()[i].y;
    }
    out << "]\n}\n";
    std::cout << "\n  JSON written to " << json_path << "\n";
  }

  if (smoke) {
    // CI smoke: no paper-scale comparison at reduced node counts; the
    // sweep completing with sane throughput is the signal.
    std::cout << std::fixed << std::setprecision(0) << "\nSmoke run complete ("
              << counts.back() << " nodes max: write "
              << writes.points().back().y << " MB/s, read "
              << reads.points().back().y << " MB/s)\n"
              << std::defaultfloat;
    return 0;
  }

  std::cout << "\nSummary (paper §5 / Fig. 11):\n";
  const double read64 = reads.points().back().y;
  const double write64 = writes.points().back().y;
  bench::report("read at 64 nodes", read64, 5900.0, "MB/s");
  bench::report("write at 64 nodes", write64, 3500.0, "MB/s");
  bool reads_above = true;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    if (reads.points()[i].y < writes.points()[i].y) reads_above = false;
  }
  std::cout << std::fixed << std::setprecision(0)
            << "  reads >= writes at every node count: "
            << (reads_above ? "yes" : "NO")
            << " (paper: reads above writes throughout; cause here is not "
               "RAID-5 read-modify-write nor token revokes: "
            << counts[1] << " writers total " << writes.points()[1].y
            << " MB/s against " << reads.points()[1].y
            << " MB/s of reads, cause open)\n"
            << std::defaultfloat;
  // Gate: the paper's shape (reads above writes) and both 64-node rates
  // within 10% of the paper.
  auto near_paper = [](double measured, double paper) {
    return measured >= 0.9 * paper && measured <= 1.1 * paper;
  };
  const bool near = near_paper(read64, 5900.0) && near_paper(write64, 3500.0);
  std::cout << "  64-node read and write within [0.9, 1.1] of the paper: "
            << (near ? "yes" : "NO") << "\n";
  return reads_above && near ? 0 : 1;
}
