// Split demand fills (DESIGN.md, read path): a demand miss on a strict
// sub-range of a cold block sends two NSD reads to one copy, the
// demanded extent first and the rest of the block behind it. The read
// completes when its extent lands; the whole block is cached when the
// rest lands, unless a revoke hit it meanwhile. Whole-block misses and
// readahead keep whole-block requests.
#include <gtest/gtest.h>

#include <optional>

#include "gpfs_test_util.hpp"

namespace mgfs::gpfs {
namespace {

using testutil::kAlice;
using testutil::kBob;
using testutil::MiniCluster;

constexpr Bytes kBs = 1 * MiB;

/// The wan_mixed transport: a 2 MiB window sent in 1 MiB chunks.
ClusterConfig wan_cfg() {
  ClusterConfig cfg;
  cfg.tcp.window = 2 * MiB;
  cfg.tcp.chunk = 1 * MiB;
  return cfg;
}

std::uint64_t nsd_requests(MiniCluster& mc) {
  return mc.cluster->server_on(mc.site.hosts[0])->requests_served() +
         mc.cluster->server_on(mc.site.hosts[1])->requests_served();
}

Bytes nsd_bytes(MiniCluster& mc) {
  return mc.cluster->server_on(mc.site.hosts[0])->bytes_served() +
         mc.cluster->server_on(mc.site.hosts[1])->bytes_served();
}

/// Write `bytes` of `path` from hosts[2], then unmount the writer so a
/// reader is granted whole-file tokens.
InodeNum seed(MiniCluster& mc, const std::string& path, Bytes bytes,
              OpenFlags flags = OpenFlags::create_rw()) {
  Client* w = mc.mount_on(2);
  auto fh = mc.open(w, path, kAlice, flags);
  EXPECT_TRUE(fh.ok());
  EXPECT_TRUE(mc.write(w, *fh, 0, bytes).ok());
  EXPECT_TRUE(mc.close(w, *fh).ok());
  mc.cluster->unmount(w);
  return *mc.fs->ns().resolve(path);
}

/// A client of a second cluster that remote-mounts gpfs0 across a 58 ms
/// RTT link, as the TeraGrid sites mount SDSC's file system.
struct FarClient {
  net::Site site;
  std::unique_ptr<Cluster> cluster;
  Client* client = nullptr;

  explicit FarClient(MiniCluster& mc) {
    site = net::add_site(mc.net, "anl", 1, gbps(1.0));
    mc.net.connect(mc.site.sw, site.sw, gbps(10.0), 0.029);
    ClusterConfig cfg = wan_cfg();
    cfg.name = "anl";
    cluster = std::make_unique<Cluster>(mc.sim, mc.net, cfg, Rng(2));
    cluster->add_node(site.hosts[0]);
    mc.cluster->mmauth_add("anl", cluster->public_key());
    EXPECT_TRUE(
        mc.cluster->mmauth_grant("anl", "gpfs0", auth::AccessMode::read_only)
            .ok());
    EXPECT_TRUE(cluster
                    ->mmremotecluster_add("sdsc", mc.cluster->public_key(),
                                          mc.cluster.get(), mc.site.hosts[1])
                    .ok());
    EXPECT_TRUE(cluster->mmremotefs_add("/gpfs0", "sdsc", "gpfs0").ok());
    cluster->mount_remote("/gpfs0", site.hosts[0], [&](Result<Client*> r) {
      EXPECT_TRUE(r.ok());
      if (r.ok()) client = *r;
    });
    mc.sim.run();
  }
};

/// Open `path` on `c` and take its whole-file token and block map: a
/// cold read of block 0, then a seek to block 20. Blocks 5 and up are
/// still cold afterwards (the cold read's readahead stops at block 4).
Fh warm_reader(MiniCluster& mc, Client* c, const std::string& path) {
  auto fh = mc.open(c, path, kBob, OpenFlags::ro());
  EXPECT_TRUE(fh.ok());
  EXPECT_TRUE(mc.read(c, *fh, 0, kBs).ok());
  EXPECT_TRUE(mc.read(c, *fh, 20 * kBs, kBs).ok());
  return *fh;
}

/// Simulated seconds a read of [off, off + len) takes.
double timed_read(MiniCluster& mc, Client* c, Fh fh, Bytes off, Bytes len) {
  const double t0 = mc.sim.now();
  std::optional<double> took;
  c->read(fh, off, len, [&](Result<Bytes> r) {
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_EQ(*r, len);
    }
    took = mc.sim.now() - t0;
  });
  mc.sim.run();
  EXPECT_TRUE(took.has_value()) << "read never completed";
  return took.value_or(0.0);
}

TEST(PartialFill, ColdCutoutWaitsOnlyForItsBytes) {
  MiniCluster mc(6, 4, kBs, wan_cfg());
  const InodeNum ino = seed(mc, "/sky", 32 * kBs);
  FarClient far(mc);
  Client* r = far.client;
  ASSERT_NE(r, nullptr);
  const Fh fh = warm_reader(mc, r, "/sky");

  const Bytes fetched = r->bytes_read_remote();
  const double cutout = timed_read(mc, r, fh, 10 * kBs + 896 * KiB, 128 * KiB);
  // The cutout's block arrived whole behind it.
  EXPECT_TRUE(r->pool().contains(PageKey{ino, 10}));
  EXPECT_EQ(r->bytes_read_remote() - fetched, kBs);

  const double whole = timed_read(mc, r, fh, 12 * kBs, kBs);
  // The whole block pays a 1 MiB chunk's serialization at each end of
  // the WAN link (~8.9 ms at 1 Gb/s); the cutout pays 128 KiB's.
  EXPECT_LT(cutout + 0.010, whole)
      << "cutout " << cutout * 1e3 << " ms, whole block " << whole * 1e3
      << " ms";
}

TEST(PartialFill, SecondCutoutJoinsTheRemainder) {
  MiniCluster mc(6, 4, kBs, wan_cfg());
  const InodeNum ino = seed(mc, "/sky", 32 * kBs);
  FarClient far(mc);
  Client* r = far.client;
  ASSERT_NE(r, nullptr);
  const Fh fh = warm_reader(mc, r, "/sky");

  const std::uint64_t requests = nsd_requests(mc);
  const Bytes fetched = r->bytes_read_remote();
  std::optional<Result<Bytes>> second;
  bool cached_at_first = true;
  r->read(fh, 10 * kBs + 896 * KiB, 128 * KiB, [&](Result<Bytes> first) {
    ASSERT_TRUE(first.ok());
    // The head landed; the rest of the block is still on its way.
    cached_at_first = r->pool().contains(PageKey{ino, 10});
    r->read(fh, 10 * kBs, 128 * KiB,
            [&](Result<Bytes> res) { second = std::move(res); });
  });
  mc.sim.run();
  EXPECT_FALSE(cached_at_first);
  ASSERT_TRUE(second.has_value());
  ASSERT_TRUE(second->ok());
  EXPECT_EQ(**second, 128 * KiB);
  // The head and the rest: the second cutout joined the rest.
  EXPECT_EQ(nsd_requests(mc) - requests, 2u);
  EXPECT_EQ(r->bytes_read_remote() - fetched, kBs);
  EXPECT_TRUE(r->pool().contains(PageKey{ino, 10}));
}

TEST(PartialFill, AlignedAndReadaheadFillsAreNotSplit) {
  MiniCluster mc;
  seed(mc, "/stream", 64 * kBs);
  Client* r = mc.mount_on(3);
  auto fh = mc.open(r, "/stream", kBob, OpenFlags::ro());
  ASSERT_TRUE(fh.ok());
  const std::uint64_t requests = nsd_requests(mc);
  const Bytes served = nsd_bytes(mc);
  for (Bytes off = 0; off < 64 * kBs; off += kBs) {
    auto got = mc.read(r, *fh, off, kBs);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(*got, kBs);
  }
  // The requests whole-block fills send (readahead coalesces the 64
  // blocks into 44), as before demand misses were split.
  EXPECT_EQ(nsd_requests(mc) - requests, 44u);
  EXPECT_EQ(r->bytes_read_remote(), 64 * kBs);
  EXPECT_EQ(nsd_bytes(mc) - served, 64 * kBs);
}

TEST(PartialFill, HeadFailureRedirectsToAnotherCopy) {
  MiniCluster mc;
  const InodeNum ino =
      seed(mc, "/rep", 4 * kBs, OpenFlags::create_replicated(2));
  const BlockPlacement p = mc.fs->ns().placement(ino, 2);
  ASSERT_EQ(p.copies, 2u);
  // The first copy's NSD is gone: both pieces fail there and are
  // redirected to the second copy.
  mc.fs->nsd(p.addr[0].nsd).device->set_failed(true);

  Client* r = mc.mount_on(3);
  auto fh = mc.open(r, "/rep", kBob, OpenFlags::ro());
  ASSERT_TRUE(fh.ok());
  auto got = mc.read(r, *fh, 2 * kBs + 896 * KiB, 128 * KiB);
  ASSERT_TRUE(got.ok()) << got.error().to_string();
  EXPECT_EQ(*got, 128 * KiB);
  EXPECT_GE(r->replica_failovers(), 1u);
  // One block, counted once.
  EXPECT_EQ(r->bytes_read_remote(), kBs);
  EXPECT_EQ(r->replica_reads(), 1u);
  EXPECT_TRUE(r->pool().contains(PageKey{ino, 2}));
}

TEST(PartialFill, RevokeBetweenHeadAndRemainderCachesNothing) {
  MiniCluster mc;
  const InodeNum ino = seed(mc, "/f", 8 * kBs);
  Client* r = mc.mount_on(3);
  Client* w = mc.mount_on(4);
  auto fr = mc.open(r, "/f", kBob, OpenFlags::ro());
  auto fw = mc.open(w, "/f", kAlice, OpenFlags::rw());
  ASSERT_TRUE(fr.ok());
  ASSERT_TRUE(fw.ok());

  const TokenRange block2{2 * kBs, 3 * kBs};
  TokenManager& tokens = mc.fs->shard_tokens(mc.fs->shard_of(ino));
  std::optional<Result<Bytes>> got;
  r->read(*fr, 2 * kBs + 896 * KiB, 128 * KiB,
          [&](Result<Bytes> res) { got = std::move(res); });
  while (!got.has_value() && mc.sim.step()) {
  }
  ASSERT_TRUE(got.has_value() && got->ok());
  // The head is in. A writer takes the block now; its grant revokes the
  // reader's token while the rest is still out.
  std::optional<Result<Bytes>> wrote;
  w->write(*fw, 2 * kBs, 16 * KiB, [&](Result<Bytes> res) { wrote = res; });
  while (tokens.holds(r->id(), ino, block2, LockMode::ro) && mc.sim.step()) {
  }
  EXPECT_EQ(r->bytes_read_remote(), 128 * KiB);  // the rest is not in
  mc.sim.run();
  ASSERT_TRUE(wrote.has_value() && wrote->ok());
  EXPECT_EQ(r->bytes_read_remote(), kBs);
  EXPECT_FALSE(r->pool().contains(PageKey{ino, 2}));

  // The next read fetches the block again.
  const std::uint64_t requests = nsd_requests(mc);
  auto again = mc.read(r, *fr, 2 * kBs + 896 * KiB, 128 * KiB);
  ASSERT_TRUE(again.ok());
  EXPECT_GT(nsd_requests(mc), requests);
  EXPECT_EQ(r->bytes_read_remote(), 2 * kBs);
}

/// The token comes back before the rest lands: the head was still read
/// under the token the revoke took, so the block is not cached either.
TEST(PartialFill, TokenBackBeforeRemainderCachesNothing) {
  MiniCluster mc;
  const InodeNum ino = seed(mc, "/f", 8 * kBs);
  Client* r = mc.mount_on(3);
  auto fr = mc.open(r, "/f", kBob, OpenFlags::ro());
  ASSERT_TRUE(fr.ok());
  std::optional<Result<Bytes>> got;
  r->read(*fr, 2 * kBs + 896 * KiB, 128 * KiB,
          [&](Result<Bytes> res) { got = std::move(res); });
  while (!got.has_value() && mc.sim.step()) {
  }
  ASSERT_TRUE(got.has_value() && got->ok());

  const TokenRange block2{2 * kBs, 3 * kBs};
  const std::uint64_t epoch = mc.fs->manager_epoch(mc.fs->shard_of(ino));
  bool revoked = false;
  ASSERT_TRUE(r->handle_revoke(ino, block2, epoch, [&] { revoked = true; }));
  while (!revoked && mc.sim.step()) {
  }
  ASSERT_TRUE(revoked);
  ASSERT_TRUE(r->deliver_manager_grant(ino, block2, LockMode::ro, epoch));
  EXPECT_EQ(r->bytes_read_remote(), 128 * KiB);  // the rest is not in
  mc.sim.run();
  EXPECT_EQ(r->bytes_read_remote(), kBs);
  EXPECT_FALSE(r->pool().contains(PageKey{ino, 2}));
}

}  // namespace
}  // namespace mgfs::gpfs
