// Odds and ends: the logger, file-system-full behaviour, reader stop,
// and writer error propagation.
#include <gtest/gtest.h>

#include "common/log.hpp"
#include "gpfs_test_util.hpp"
#include "workload/stream.hpp"

namespace mgfs {
namespace {

TEST(Logger, CapturesAndFilters) {
  Logger& log = Logger::instance();
  log.capture(true);
  log.set_level(LogLevel::info);
  MGFS_DEBUG("nsd", "invisible " << 1);
  MGFS_INFO("nsd", "visible " << 2);
  MGFS_WARN("token", "also visible");
  EXPECT_EQ(Logger::instance().captured().find("invisible"),
            std::string::npos);
  EXPECT_NE(Logger::instance().captured().find("[INFO] nsd: visible 2"),
            std::string::npos);
  EXPECT_NE(Logger::instance().captured().find("[WARN] token"),
            std::string::npos);
  log.clear_captured();
  EXPECT_TRUE(Logger::instance().captured().empty());
  log.set_level(LogLevel::off);
  log.capture(false);
}

TEST(Logger, OffByDefaultCostsNothing) {
  Logger& log = Logger::instance();
  log.set_level(LogLevel::off);
  int evaluations = 0;
  auto expensive = [&] {
    ++evaluations;
    return 42;
  };
  MGFS_INFO("x", expensive());
  EXPECT_EQ(evaluations, 0);  // the stream expression is never built
}

using gpfs::testutil::kAlice;
using gpfs::testutil::MiniCluster;

TEST(EdgeCases, FileSystemFullSurfacesNoSpace) {
  // Four tiny NSDs: 64 MiB total.
  sim::Simulator sim;
  net::Network net(sim);
  net::Site site = net::add_site(net, "s", 4, gbps(1.0));
  gpfs::ClusterConfig cfg;
  cfg.name = "s";
  gpfs::Cluster cluster(sim, net, cfg, Rng(1));
  for (net::NodeId h : site.hosts) cluster.add_node(h);
  cluster.add_nsd_server(site.hosts[0]);
  std::vector<std::unique_ptr<storage::RateDevice>> devs;
  std::vector<std::uint32_t> nsds;
  for (int i = 0; i < 4; ++i) {
    devs.push_back(std::make_unique<storage::RateDevice>(sim, 16 * MiB,
                                                         200e6));
    nsds.push_back(cluster.create_nsd("n" + std::to_string(i),
                                      devs.back().get(), site.hosts[0]));
  }
  gpfs::FileSystem& fs =
      cluster.create_filesystem("tiny", nsds, 1 * MiB, site.hosts[1]);
  auto c = cluster.mount("tiny", site.hosts[2]);
  ASSERT_TRUE(c.ok());

  std::optional<Result<gpfs::Fh>> fh;
  (*c)->open("/big", kAlice, gpfs::OpenFlags::create_rw(),
             [&](Result<gpfs::Fh> r) { fh = std::move(r); });
  sim.run();
  ASSERT_TRUE(fh.has_value() && fh->ok());
  // 64 MiB fits exactly; the 65th MiB must fail.
  std::optional<Result<Bytes>> w1;
  (*c)->write(**fh, 0, 64 * MiB, [&](Result<Bytes> r) { w1 = std::move(r); });
  sim.run();
  ASSERT_TRUE(w1.has_value() && w1->ok());
  std::optional<Result<Bytes>> w2;
  (*c)->write(**fh, 64 * MiB, 1 * MiB,
              [&](Result<Bytes> r) { w2 = std::move(r); });
  sim.run();
  ASSERT_TRUE(w2.has_value());
  ASSERT_FALSE(w2->ok());
  EXPECT_EQ(w2->code(), Errc::no_space);
  EXPECT_EQ(fs.free_bytes(), 0u);

  // Deleting makes room again.
  std::optional<Status> st;
  (*c)->unlink("/big", kAlice, [&](Status s) { st = s; });
  sim.run();
  ASSERT_TRUE(st.has_value());
  // The unlink revokes nothing (same client), frees 64 blocks.
  EXPECT_TRUE(st->ok());
  EXPECT_EQ(fs.free_bytes(), 64 * MiB);
}

TEST(EdgeCases, ReaderStopEndsFollowMode) {
  MiniCluster mc;
  gpfs::Client* w = mc.mount_on(2);
  auto fh = mc.open(w, "/f", kAlice, gpfs::OpenFlags::create_rw());
  ASSERT_TRUE(mc.write(w, *fh, 0, 2 * MiB).ok());
  ASSERT_TRUE(mc.fsync(w, *fh).ok());
  gpfs::Client* r = mc.mount_on(3);
  workload::SequentialReader::Options opt;
  opt.follow = true;
  opt.follow_poll_interval = 0.5;
  workload::SequentialReader reader(r, "/f", kAlice, opt);
  std::optional<Status> done;
  reader.start([&](const Status& s) { done = s; });
  mc.sim.after(3.0, [&] { reader.stop(); });
  mc.sim.run();
  ASSERT_TRUE(done.has_value() && done->ok());
  EXPECT_EQ(reader.bytes_read(), 2 * MiB);
  // The simulator drained: no leaked periodic events.
  EXPECT_TRUE(mc.sim.empty());
}

TEST(EdgeCases, WriterErrorPropagatesThroughWorkload) {
  // Writing into a read-only-mounted remote FS fails at open already;
  // here: unmounted client fails cleanly.
  MiniCluster mc;
  gpfs::Client* c = mc.mount_on(2);
  mc.cluster->unmount(c);
  workload::StreamConfig sc;
  sc.total = 1 * MiB;
  workload::SequentialWriter wtr(c, "/x", kAlice, sc);
  std::optional<Status> done;
  wtr.start([&](const Status& s) { done = s; });
  mc.sim.run();
  ASSERT_TRUE(done.has_value());
  EXPECT_FALSE(done->ok());
}

TEST(EdgeCases, ZeroByteFileLifecycle) {
  MiniCluster mc;
  gpfs::Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/empty", kAlice, gpfs::OpenFlags::create_rw());
  ASSERT_TRUE(fh.ok());
  auto r = mc.read(c, *fh, 0, 1 * MiB);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 0u);
  ASSERT_TRUE(mc.close(c, *fh).ok());
  auto st = mc.stat(c, "/empty");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 0u);
}

TEST(EdgeCases, HugeSparseFileStatsWithoutAllocation) {
  MiniCluster mc;
  gpfs::Client* c = mc.mount_on(2);
  // One byte at 32 GiB: only one block allocated, counting the block 0
  // the create grant placed and the write handed back.
  const std::uint64_t free0 = mc.fs->alloc().total_free();
  auto fh = mc.open(c, "/sparse", kAlice, gpfs::OpenFlags::create_rw());
  ASSERT_TRUE(mc.write(c, *fh, 32 * GiB, 1).ok());
  ASSERT_TRUE(mc.close(c, *fh).ok());
  EXPECT_EQ(mc.fs->alloc().total_free(), free0 - 1);
  auto st = mc.stat(c, "/sparse");
  EXPECT_EQ(st->size, 32 * GiB + 1);
}

}  // namespace
}  // namespace mgfs
