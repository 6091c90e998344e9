// Concurrency and coherence: multiple writers, reader/writer
// interleavings, revocation during active I/O, and cross-cluster
// visibility — the semantics that make a *file system* out of a pile of
// network pipes.
#include <gtest/gtest.h>

#include "gpfs_test_util.hpp"

namespace mgfs::gpfs {
namespace {

using testutil::kAlice;
using testutil::kBob;
using testutil::MiniCluster;

TEST(Concurrency, DisjointWritersShareOneFile) {
  MiniCluster mc;
  Client* a = mc.mount_on(2);
  Client* b = mc.mount_on(3);
  // Both open create_rw; the second open finds the file existing.
  auto fa = mc.open(a, "/shared", kAlice, OpenFlags::create_rw());
  auto fb = mc.open(b, "/shared", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fa.ok() && fb.ok());
  // Concurrent disjoint writes: A takes [0,8MiB), B takes [8,16MiB).
  std::optional<Result<Bytes>> wa, wb;
  a->write(*fa, 0, 8 * MiB, [&](Result<Bytes> r) { wa = std::move(r); });
  b->write(*fb, 8 * MiB, 8 * MiB,
           [&](Result<Bytes> r) { wb = std::move(r); });
  mc.sim.run();
  ASSERT_TRUE(wa.has_value() && wa->ok()) << wa->error().to_string();
  ASSERT_TRUE(wb.has_value() && wb->ok()) << wb->error().to_string();
  ASSERT_TRUE(mc.fsync(a, *fa).ok());
  ASSERT_TRUE(mc.fsync(b, *fb).ok());
  EXPECT_EQ(mc.fs->ns().stat("/shared")->size, 16 * MiB);
  // Token manager ended with each client holding its own region.
  const InodeNum ino = *mc.fs->ns().resolve("/shared");
  EXPECT_TRUE(mc.fs->shard_tokens(0).holds(a->id(), ino, {0, 8 * MiB},
                                    LockMode::rw));
  EXPECT_TRUE(mc.fs->shard_tokens(0).holds(b->id(), ino, {8 * MiB, 16 * MiB},
                                    LockMode::rw));
  // Every block allocated exactly once despite racing write grants.
  const Inode* n = mc.fs->ns().inode(ino);
  std::set<std::pair<std::uint32_t, std::uint64_t>> seen;
  for (const auto& blk : n->blocks) {
    ASSERT_TRUE(blk.has_value());
    EXPECT_TRUE(seen.insert({blk->nsd, blk->block}).second);
  }
}

TEST(Concurrency, ManyReadersOneWriterConverge) {
  MiniCluster mc;
  Client* w = mc.mount_on(2);
  auto fw = mc.open(w, "/log", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(mc.write(w, *fw, 0, 8 * MiB).ok());
  ASSERT_TRUE(mc.fsync(w, *fw).ok());

  std::vector<Client*> readers = {mc.mount_on(3), mc.mount_on(4),
                                  mc.mount_on(5)};
  std::vector<std::optional<Result<Bytes>>> results(readers.size());
  for (std::size_t i = 0; i < readers.size(); ++i) {
    Client* r = readers[i];
    r->open("/log", kBob, OpenFlags::ro(), [&, i, r](Result<Fh> fh) {
      ASSERT_TRUE(fh.ok());
      r->read(*fh, 0, 8 * MiB,
              [&, i](Result<Bytes> res) { results[i] = std::move(res); });
    });
  }
  mc.sim.run();
  for (std::size_t i = 0; i < readers.size(); ++i) {
    ASSERT_TRUE(results[i].has_value()) << "reader " << i;
    ASSERT_TRUE(results[i]->ok()) << results[i]->error().to_string();
    EXPECT_EQ(**results[i], 8 * MiB);
  }
  // Readers coexist under ro tokens; only the writer was revoked.
  const InodeNum ino = *mc.fs->ns().resolve("/log");
  std::size_t ro_holders = 0;
  for (const Holding& h : mc.fs->shard_tokens(0).holdings(ino)) {
    if (h.mode == LockMode::ro) ++ro_holders;
  }
  EXPECT_GE(ro_holders, readers.size());
}

TEST(Concurrency, PingPongWritesStayCoherent) {
  // A and B alternately extend the same file; each turn revokes the
  // other's token and flushes its dirty data.
  MiniCluster mc;
  Client* a = mc.mount_on(2);
  Client* b = mc.mount_on(3);
  auto fa = mc.open(a, "/pp", kAlice, OpenFlags::create_rw());
  auto fb = mc.open(b, "/pp", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(fa.ok() && fb.ok());
  for (int round = 0; round < 4; ++round) {
    Client* who = (round % 2 == 0) ? a : b;
    Fh fh = (round % 2 == 0) ? *fa : *fb;
    const Bytes off = static_cast<Bytes>(round) * 2 * MiB;
    ASSERT_TRUE(mc.write(who, fh, off, 2 * MiB).ok()) << "round " << round;
    ASSERT_TRUE(mc.fsync(who, fh).ok());
  }
  EXPECT_EQ(mc.fs->ns().stat("/pp")->size, 8 * MiB);
  EXPECT_GT(mc.fs->revocations(), 0u);
  // Fresh reader sees the full file.
  Client* r = mc.mount_on(4);
  auto fr = mc.open(r, "/pp", kBob, OpenFlags::ro());
  auto res = mc.read(r, *fr, 0, 8 * MiB);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(*res, 8 * MiB);
}

TEST(Concurrency, RevokeDuringActiveReadIsSafe) {
  MiniCluster mc;
  Client* r = mc.mount_on(2);
  Client* w = mc.mount_on(3);
  auto seed = mc.open(w, "/hot", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(mc.write(w, *seed, 0, 16 * MiB).ok());
  ASSERT_TRUE(mc.close(w, *seed).ok());

  auto fr = mc.open(r, "/hot", kBob, OpenFlags::ro());
  ASSERT_TRUE(fr.ok());
  std::optional<Result<Bytes>> read_res;
  r->read(*fr, 0, 16 * MiB,
          [&](Result<Bytes> res) { read_res = std::move(res); });
  // While the read's fills are in flight, a writer grabs an rw token,
  // revoking the reader.
  std::optional<Result<Bytes>> write_res;
  mc.sim.after(2e-3, [&] {
    auto fw = *mc.open(w, "/hot", kAlice, OpenFlags::rw());
    w->write(fw, 4 * MiB, 1 * MiB,
             [&](Result<Bytes> res) { write_res = std::move(res); });
  });
  mc.sim.run();
  ASSERT_TRUE(read_res.has_value());
  ASSERT_TRUE(read_res->ok()) << read_res->error().to_string();
  ASSERT_TRUE(write_res.has_value() && write_res->ok());
  // The revoked range is gone from the reader's cache (no stale data).
  const InodeNum ino = *mc.fs->ns().resolve("/hot");
  EXPECT_FALSE(r->pool().contains({ino, 4}));
}

TEST(Concurrency, CrossClusterWriteThenReadCoherent) {
  // Write at SDSC, read at NCSA through a remote mount: the §4 Enzo
  // pattern's correctness half.
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

  auto writer = sdsc.mount("fs", tg.sdsc.hosts[2]);
  ASSERT_TRUE(writer.ok());
  std::optional<Result<Fh>> fw;
  (*writer)->open("/data", kAlice, OpenFlags::create_rw(),
                  [&](Result<Fh> r) { fw = std::move(r); });
  sim.run();
  std::optional<Result<Bytes>> w1;
  (*writer)->write(**fw, 0, 4 * MiB,
                   [&](Result<Bytes> r) { w1 = std::move(r); });
  sim.run();
  std::optional<Status> s1;
  (*writer)->fsync(**fw, [&](Status st) { s1 = st; });
  sim.run();
  ASSERT_TRUE(s1.has_value() && s1->ok());

  std::optional<Result<Client*>> remote;
  ncsa.mount_remote("/fs", tg.ncsa.hosts[0],
                    [&](Result<Client*> r) { remote = std::move(r); });
  sim.run();
  ASSERT_TRUE(remote.has_value() && remote->ok());
  Client* rc = **remote;
  std::optional<Result<Fh>> fr;
  rc->open("/data", kBob, OpenFlags::ro(),
           [&](Result<Fh> r) { fr = std::move(r); });
  sim.run();
  ASSERT_TRUE(fr.has_value() && fr->ok());
  std::optional<Result<Bytes>> r1;
  rc->read(**fr, 0, 4 * MiB, [&](Result<Bytes> r) { r1 = std::move(r); });
  sim.run();
  ASSERT_TRUE(r1.has_value() && r1->ok());
  EXPECT_EQ(**r1, 4 * MiB);
  // The writer's dirty pages were revoked+flushed before the remote
  // reader's token was granted.
  EXPECT_EQ((*writer)->pool().dirty_bytes(), 0u);

  // Writer appends; remote reader refreshes and sees the new size.
  std::optional<Result<Bytes>> w2;
  (*writer)->write(**fw, 4 * MiB, 4 * MiB,
                   [&](Result<Bytes> r) { w2 = std::move(r); });
  sim.run();
  std::optional<Status> s2;
  (*writer)->fsync(**fw, [&](Status st) { s2 = st; });
  sim.run();
  std::optional<Result<Bytes>> sz;
  rc->refresh_size(**fr, [&](Result<Bytes> r) { sz = std::move(r); });
  sim.run();
  ASSERT_TRUE(sz.has_value() && sz->ok());
  EXPECT_EQ(**sz, 8 * MiB);
}

TEST(Concurrency, ParallelMetadataChurn) {
  // Many clients create/list/unlink in one directory concurrently.
  MiniCluster mc;
  std::vector<Client*> cs = {mc.mount_on(2), mc.mount_on(3),
                             mc.mount_on(4), mc.mount_on(5)};
  std::optional<Status> mk;
  cs[0]->mkdir("/dir", kAlice, Mode{077}, [&](Status st) { mk = st; });
  mc.sim.run();
  ASSERT_TRUE(mk.has_value() && mk->ok());
  int done = 0;
  for (std::size_t i = 0; i < cs.size(); ++i) {
    for (int j = 0; j < 8; ++j) {
      const std::string path =
          "/dir/f" + std::to_string(i) + "_" + std::to_string(j);
      cs[i]->open(path, kAlice, OpenFlags::create_rw(),
                  [&, i, path](Result<Fh> fh) {
                    ASSERT_TRUE(fh.ok()) << path;
                    cs[i]->close(*fh, [&](Status) { ++done; });
                  });
    }
  }
  mc.sim.run();
  EXPECT_EQ(done, 32);
  auto names = mc.fs->ns().readdir("/dir", kAlice);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 32u);
}

}  // namespace
}  // namespace mgfs::gpfs
