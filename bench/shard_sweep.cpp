// Shard sweep — metadata-plane scaling across manager token domains.
//
// ROADMAP item: "shard the metadata/token plane". The paper's SDSC/NCSA
// deployments kept every token and lease on ONE file-system manager
// node; this sweep measures what partitioning that authority buys. A
// farm of clients runs small-file create cycles (open-create, 16 KiB
// write, fsync, close — the metadata-heavy workload that saturates a
// manager long before the data path), against the same cluster
// configured with 1, 2, 4 and 8 metadata shards, each shard's manager
// seated on its own node with a modeled per-op CPU cost
// (meta_cpu_per_op = 30 us, the serialization point under test).
//
// Aggregate ops/s here is simulated-time-derived, so the series is
// byte-stable across runs and machines: BENCH_shard.json is committed
// and diffed by CI. The headline gate is ratio_8x = ops/s at 8 shards
// over ops/s at 1 shard; ci/bench_smoke.sh fails below 3.0x.
//
// `--smoke` shrinks the client count and runs only the 1- and 8-shard
// endpoints (the ratio gate needs exactly those two). `--json PATH`
// dumps the series.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"

using namespace mgfs;

namespace {

struct ShardPoint {
  std::uint32_t shards = 0;
  std::uint64_t files = 0;
  double elapsed_s = 0;     // simulated seconds, first launch -> last close
  double ops_per_s = 0;     // small-file create cycles per simulated second
  std::uint64_t delegations = 0;
  std::uint64_t tokens_granted = 0;
};

/// One sweep point: `n` clients, `cycles` create cycles each, `shards`
/// token domains. Everything about the cluster is identical across
/// points except meta_shards — same seed, same hosts, same devices.
ShardPoint run_point(std::uint32_t shards, std::size_t n,
                     std::size_t cycles) {
  constexpr std::size_t kServers = 8;
  constexpr std::size_t kNsds = 32;
  constexpr std::uint32_t kMaxShards = 8;

  sim::Simulator sim;
  net::Network net(sim);
  // Hosts: NSD servers, then kMaxShards manager seats (the same host
  // set at every point, so the topology never varies), then clients.
  net::Site site = net::add_site(net, "shard",
                                 kServers + kMaxShards + n, gbps(1.0));

  gpfs::ClusterConfig cfg;
  cfg.name = "shard";
  cfg.tcp.window = 2 * MiB;
  cfg.tcp.chunk = 1 * MiB;
  cfg.meta_shards = shards;
  cfg.meta_cpu_per_op = 30e-6;
  cfg.auto_delegate_ops = 4;
  gpfs::Cluster cluster(sim, net, cfg, Rng(42));

  // 16 KiB blocks: one full-block write per file keeps the data path a
  // sub-millisecond flush, so up to 2 shards the manager CPU is the
  // contended resource (this is a *metadata* bench). A create cycle is
  // 2 manager ops, so from 4 shards on the 8 servers' GbE links bind
  // instead (with 16 servers 8 shards reach 98k ops/s, not 55k).
  bench::ServerFarm farm = bench::make_rate_farm(
      cluster, sim, site, /*first_host=*/0, kServers, kNsds,
      BytesPerSec(200e6), /*device_capacity=*/64 * GiB, "shard",
      /*block_size=*/16 * KiB);

  // Seat one manager per shard: shard 0 keeps the farm's manager host
  // (the lease home), the rest take the dedicated seats after it.
  std::vector<net::NodeId> seats{farm.manager};
  for (std::uint32_t s = 1; s < shards; ++s) {
    net::NodeId seat = site.hosts.at(kServers + s);
    cluster.add_node(seat);
    seats.push_back(seat);
  }
  cluster.set_shard_managers(*farm.fs, seats);

  std::vector<gpfs::Client*> clients;
  clients.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    net::NodeId node = site.hosts.at(kServers + kMaxShards + i);
    cluster.add_node(node);
    auto c = cluster.mount("shard", node);
    MGFS_ASSERT(c.ok(), "mount failed");
    clients.push_back(*c);
  }

  // Every client chains `cycles` create cycles; paths hash across the
  // domains, inode numbers stripe the token/allocate/commit ops.
  const double t0 = sim.now();
  double last_done = t0;
  std::size_t done_clients = 0;
  struct Driver {
    gpfs::Client* c = nullptr;
    std::size_t idx = 0;
    std::size_t cycle = 0;
  };
  std::vector<Driver> drivers(n);
  std::function<void(std::size_t)> next_cycle = [&](std::size_t i) {
    Driver& d = drivers[i];
    if (d.cycle == cycles) {
      last_done = sim.now();
      ++done_clients;
      return;
    }
    const std::string path =
        "/c" + std::to_string(i) + "_f" + std::to_string(d.cycle);
    ++d.cycle;
    d.c->open(path, bench::kUser, gpfs::OpenFlags::create_rw(),
              [&, i](Result<gpfs::Fh> fh) {
                MGFS_ASSERT(fh.ok(), "bench open failed");
                const gpfs::Fh h = *fh;
                drivers[i].c->write(h, 0, 16 * KiB, [&, i, h](Result<Bytes> w) {
                  MGFS_ASSERT(w.ok(), "bench write failed");
                  drivers[i].c->fsync(h, [&, i, h](Status st) {
                    MGFS_ASSERT(st.ok(), "bench fsync failed");
                    drivers[i].c->close(h, [&, i](Status cs) {
                      MGFS_ASSERT(cs.ok(), "bench close failed");
                      next_cycle(i);
                    });
                  });
                });
              });
  };
  for (std::size_t i = 0; i < n; ++i) {
    drivers[i].c = clients[i];
    drivers[i].idx = i;
    next_cycle(i);
  }
  sim.run();
  MGFS_ASSERT(done_clients == n, "bench clients did not finish");
  MGFS_ASSERT(farm.fs->manager_takeovers() == 0, "unexpected takeover");
  MGFS_ASSERT(farm.fs->fsck().clean(), "fsck dirty after sweep point");

  ShardPoint p;
  p.shards = shards;
  p.files = static_cast<std::uint64_t>(n) * cycles;
  p.elapsed_s = last_done - t0;
  p.ops_per_s = static_cast<double>(p.files) / p.elapsed_s;
  p.delegations = farm.fs->delegations();
  p.tokens_granted = farm.fs->tokens_granted();
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  std::size_t clients_override = 0, cycles_override = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      clients_override = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--cycles") == 0 && i + 1 < argc) {
      cycles_override = static_cast<std::size_t>(std::atol(argv[++i]));
    }
  }

  bench::banner("SHARD",
                "metadata-plane scaling: small-file ops/s vs token-domain "
                "count (meta_cpu_per_op = 30 us)");

  const std::vector<std::uint32_t> shard_counts =
      smoke ? std::vector<std::uint32_t>{1, 8}
            : std::vector<std::uint32_t>{1, 2, 4, 8};
  const std::size_t clients =
      clients_override ? clients_override : (smoke ? 96 : 256);
  const std::size_t cycles = cycles_override ? cycles_override : (smoke ? 6 : 20);

  std::cout << "\n  shards   files   sim elapsed s   ops/s   delegations\n";
  std::vector<ShardPoint> points;
  for (std::uint32_t s : shard_counts) {
    points.push_back(run_point(s, clients, cycles));
    const ShardPoint& p = points.back();
    std::printf("  %6u  %6llu  %14.3f  %6.0f  %11llu\n", p.shards,
                static_cast<unsigned long long>(p.files), p.elapsed_s,
                p.ops_per_s,
                static_cast<unsigned long long>(p.delegations));
  }

  const double ratio_8x = points.back().ops_per_s / points.front().ops_per_s;
  std::printf("\n  ratio_8x (8 shards vs 1): %.2fx   (gate: >= 3.0x)\n",
              ratio_8x);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"shard_sweep\",\n  \"smoke\": "
        << (smoke ? "true" : "false") << ",\n  \"clients\": " << clients
        << ",\n  \"cycles_per_client\": " << cycles << ",\n  \"shards\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
      out << (i ? ", " : "") << points[i].shards;
    }
    out << "],\n  \"files\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
      out << (i ? ", " : "") << points[i].files;
    }
    out << std::fixed << "],\n  \"elapsed_s\": [" << std::setprecision(4);
    for (std::size_t i = 0; i < points.size(); ++i) {
      out << (i ? ", " : "") << points[i].elapsed_s;
    }
    out << "],\n  \"ops_per_s\": [" << std::setprecision(1);
    for (std::size_t i = 0; i < points.size(); ++i) {
      out << (i ? ", " : "") << points[i].ops_per_s;
    }
    out << "],\n  \"delegations\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
      out << (i ? ", " : "") << points[i].delegations;
    }
    out << "],\n  \"ratio_8x\": " << std::setprecision(2) << ratio_8x
        << "\n}\n";
    std::cout << "  JSON written to " << json_path << "\n";
  }
  return ratio_8x >= 3.0 ? 0 : 1;
}
