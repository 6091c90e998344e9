// Shared fixture pieces for GPFS integration tests: a one-site cluster
// with RateDevice-backed NSDs and synchronous wrappers that drive the
// simulator until an async operation completes.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "gpfs/cluster.hpp"
#include "net/presets.hpp"
#include "storage/block_device.hpp"

namespace mgfs::gpfs::testutil {

inline const Principal kAlice{"/CN=alice", 501, 100, false};
inline const Principal kBob{"/CN=bob", 502, 100, false};

struct MiniCluster {
  sim::Simulator sim;
  net::Network net{sim};
  net::Site site;
  std::vector<std::unique_ptr<storage::RateDevice>> devices;
  std::unique_ptr<Cluster> cluster;
  FileSystem* fs = nullptr;

  /// hosts[0] = NSD server, hosts[1] = NSD server + FS manager,
  /// hosts[2..] = client nodes.
  explicit MiniCluster(std::size_t hosts = 6, std::size_t nsds = 4,
                       Bytes block_size = 1 * MiB,
                       ClusterConfig cfg = ClusterConfig{}) {
    site = net::add_site(net, "sdsc", hosts, gbps(1.0));
    cfg.name = cfg.name == "cluster0" ? "sdsc" : cfg.name;
    cluster = std::make_unique<Cluster>(sim, net, cfg, Rng(1));
    for (net::NodeId h : site.hosts) cluster->add_node(h);
    cluster->add_nsd_server(site.hosts[0]);
    cluster->add_nsd_server(site.hosts[1]);
    std::vector<std::uint32_t> ids;
    for (std::size_t i = 0; i < nsds; ++i) {
      devices.push_back(std::make_unique<storage::RateDevice>(
          sim, 64 * GiB, 200e6, 0.5e-3, "dev" + std::to_string(i)));
      // Failure-domain tag = primary serving node, so replicated files
      // land each block's copies behind different servers.
      ids.push_back(cluster->create_nsd(
          "nsd" + std::to_string(i), devices.back().get(),
          site.hosts[i % 2], site.hosts[(i + 1) % 2],
          static_cast<std::uint32_t>(i % 2)));
    }
    // Manager on hosts[1] so failure tests can kill hosts[0] (an NSD
    // server) without taking the token/metadata service with it.
    fs = &cluster->create_filesystem("gpfs0", ids, block_size,
                                     site.hosts[1]);
  }

  Client* mount_on(std::size_t host) {
    auto r = cluster->mount("gpfs0", site.hosts[host]);
    EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().to_string());
    return r.ok() ? *r : nullptr;
  }

  // ---- synchronous wrappers (drive the simulator to completion) ------
  Result<Fh> open(Client* c, const std::string& path, const Principal& who,
                  OpenFlags flags) {
    std::optional<Result<Fh>> out;
    c->open(path, who, flags, [&](Result<Fh> r) { out = std::move(r); });
    sim.run();
    EXPECT_TRUE(out.has_value()) << "open never completed";
    return out.has_value() ? std::move(*out)
                           : Result<Fh>(Errc::timed_out, "no completion");
  }

  Result<Bytes> read(Client* c, Fh fh, Bytes off, Bytes len) {
    std::optional<Result<Bytes>> out;
    c->read(fh, off, len, [&](Result<Bytes> r) { out = std::move(r); });
    sim.run();
    EXPECT_TRUE(out.has_value()) << "read never completed";
    return out.has_value() ? std::move(*out)
                           : Result<Bytes>(Errc::timed_out, "no completion");
  }

  Result<Bytes> write(Client* c, Fh fh, Bytes off, Bytes len) {
    std::optional<Result<Bytes>> out;
    c->write(fh, off, len, [&](Result<Bytes> r) { out = std::move(r); });
    sim.run();
    EXPECT_TRUE(out.has_value()) << "write never completed";
    return out.has_value() ? std::move(*out)
                           : Result<Bytes>(Errc::timed_out, "no completion");
  }

  Status fsync(Client* c, Fh fh) {
    std::optional<Status> out;
    c->fsync(fh, [&](Status st) { out = std::move(st); });
    sim.run();
    EXPECT_TRUE(out.has_value()) << "fsync never completed";
    return out.value_or(Status(Errc::timed_out, "no completion"));
  }

  Status close(Client* c, Fh fh) {
    std::optional<Status> out;
    c->close(fh, [&](Status st) { out = std::move(st); });
    sim.run();
    return out.value_or(Status(Errc::timed_out, "no completion"));
  }

  Result<StatInfo> stat(Client* c, const std::string& path) {
    std::optional<Result<StatInfo>> out;
    c->stat(path, [&](Result<StatInfo> r) { out = std::move(r); });
    sim.run();
    return out.has_value()
               ? std::move(*out)
               : Result<StatInfo>(Errc::timed_out, "no completion");
  }
};

/// Manager RPCs so far: every cluster RPC that is not an NSD request
/// the two servers (hosts[0], hosts[1]) served.
inline std::uint64_t manager_rpcs(MiniCluster& mc) {
  std::uint64_t nsd = 0;
  for (std::size_t h : {0, 1}) {
    nsd += mc.cluster->server_on(mc.site.hosts[h])->requests_served();
  }
  return mc.cluster->rpc().calls() - nsd;
}

/// Bytes [offset, offset + bytes) of `path`, written and fsync'd by the
/// test, are durable: the file's size covers them, and every block
/// holding them has at least one copy, each allocated.
inline void expect_durable(MiniCluster& mc, const std::string& path,
                           Bytes bytes, Bytes offset = 0) {
  auto ino = mc.fs->ns().resolve(path);
  ASSERT_TRUE(ino.ok()) << path;
  EXPECT_GE(mc.fs->ns().stat(*ino)->size, offset + bytes) << path;
  const Bytes bs = mc.fs->block_size();
  for (std::uint64_t bi = offset / bs; bi < ceil_div(offset + bytes, bs);
       ++bi) {
    const BlockPlacement p = mc.fs->ns().placement(*ino, bi);
    EXPECT_GE(p.copies, 1u) << path << " block " << bi;
    for (std::uint8_t c = 0; c < p.copies; ++c) {
      EXPECT_TRUE(mc.fs->alloc().is_allocated(p.addr[c]))
          << path << " block " << bi << " copy " << int{c};
    }
  }
}

}  // namespace mgfs::gpfs::testutil
