#include "gridftp/gridftp.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "net/presets.hpp"

namespace mgfs::gridftp {
namespace {

TEST(FileStore, AddLookupRemove) {
  sim::Simulator sim;
  storage::RateDevice dev(sim, 1 * GiB, 1e9);
  FileStore fs(dev);
  auto a = fs.add("a", 100 * MiB);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->size, 100 * MiB);
  EXPECT_TRUE(fs.contains("a"));
  EXPECT_EQ(fs.used(), 100 * MiB);
  ASSERT_TRUE(fs.remove("a").ok());
  EXPECT_FALSE(fs.contains("a"));
  EXPECT_EQ(fs.used(), 0u);
}

TEST(FileStore, DuplicateAndMissing) {
  sim::Simulator sim;
  storage::RateDevice dev(sim, 1 * GiB, 1e9);
  FileStore fs(dev);
  ASSERT_TRUE(fs.add("a", 1 * MiB).ok());
  EXPECT_EQ(fs.add("a", 1 * MiB).code(), Errc::exists);
  EXPECT_EQ(fs.lookup("b").code(), Errc::not_found);
  EXPECT_EQ(fs.remove("b").code(), Errc::not_found);
  EXPECT_EQ(fs.add("z", 0).code(), Errc::invalid_argument);
}

TEST(FileStore, NoSpaceWhenFull) {
  sim::Simulator sim;
  storage::RateDevice dev(sim, 10 * MiB, 1e9);
  FileStore fs(dev);
  ASSERT_TRUE(fs.add("a", 8 * MiB).ok());
  EXPECT_EQ(fs.add("b", 4 * MiB).code(), Errc::no_space);
  ASSERT_TRUE(fs.add("c", 2 * MiB).ok());
}

TEST(FileStore, FreeSpaceCoalesces) {
  sim::Simulator sim;
  storage::RateDevice dev(sim, 12 * MiB, 1e9);
  FileStore fs(dev);
  ASSERT_TRUE(fs.add("a", 4 * MiB).ok());
  ASSERT_TRUE(fs.add("b", 4 * MiB).ok());
  ASSERT_TRUE(fs.add("c", 4 * MiB).ok());
  ASSERT_TRUE(fs.remove("a").ok());
  ASSERT_TRUE(fs.remove("b").ok());
  // a+b holes coalesce into 8 MiB.
  EXPECT_TRUE(fs.add("d", 8 * MiB).ok());
}

struct FtpFixture : ::testing::Test {
  sim::Simulator sim;
  net::Network net{sim};
  net::TeraGrid tg = net::make_teragrid_2004(net);
  storage::RateDevice sdsc_dev{sim, 4 * TiB, 2e9};
  storage::RateDevice ncsa_dev{sim, 4 * TiB, 2e9};
  FileStore sdsc_store{sdsc_dev};
  FileStore ncsa_store{ncsa_dev};
  GridFtpServer server{net, tg.sdsc.hosts[0], sdsc_store};

  Result<TransferStats> get(GridFtpClient& c, const std::string& path,
                            FileStore* local) {
    std::optional<Result<TransferStats>> out;
    c.get(server, path, local, [&](Result<TransferStats> r) {
      out = std::move(r);
    });
    sim.run();
    EXPECT_TRUE(out.has_value());
    return out.has_value()
               ? std::move(*out)
               : Result<TransferStats>(Errc::timed_out, "hang");
  }
};

TEST_F(FtpFixture, WholeFileGet) {
  ASSERT_TRUE(sdsc_store.add("/data", 256 * MiB).ok());
  GridFtpClient client(net, tg.ncsa.hosts[0]);
  auto r = get(client, "/data", &ncsa_store);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r->bytes, 256 * MiB);
  EXPECT_TRUE(ncsa_store.contains("/data"));
  EXPECT_EQ(ncsa_store.lookup("/data")->size, 256 * MiB);
}

TEST_F(FtpFixture, MissingFileFails) {
  GridFtpClient client(net, tg.ncsa.hosts[0]);
  auto r = get(client, "/nope", &ncsa_store);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::not_found);
}

TEST_F(FtpFixture, ParallelStreamsBeatSingleStreamOverWan) {
  ASSERT_TRUE(sdsc_store.add("/big", 512 * MiB).ok());
  auto run = [&](std::size_t streams) {
    GridFtpConfig cfg;
    cfg.parallel_streams = streams;
    GridFtpClient client(net, tg.ncsa.hosts[1], cfg);
    auto r = get(client, "/big", nullptr);
    EXPECT_TRUE(r.ok());
    return r.ok() ? r->rate_MBps() : 0.0;
  };
  const double one = run(1);
  const double eight = run(8);
  // 1 MiB window over ~60 ms RTT: ~17 MB/s; 8 streams ~8x.
  EXPECT_LT(one, 25.0);
  EXPECT_GT(eight, 4 * one);
}

TEST_F(FtpFixture, PartialGetMovesOnlyTheRange) {
  ASSERT_TRUE(sdsc_store.add("/huge", 1 * GiB).ok());
  GridFtpClient client(net, tg.ncsa.hosts[0]);
  std::optional<Result<TransferStats>> out;
  client.get_range(server, "/huge", 128 * MiB, 64 * MiB, &ncsa_store,
                   [&](Result<TransferStats> r) { out = std::move(r); });
  sim.run();
  ASSERT_TRUE(out.has_value() && out->ok());
  EXPECT_EQ((*out)->bytes, 64 * MiB);
  EXPECT_EQ(ncsa_store.lookup("/huge")->size, 64 * MiB);
}

TEST_F(FtpFixture, BadRangeRejected) {
  ASSERT_TRUE(sdsc_store.add("/f", 10 * MiB).ok());
  GridFtpClient client(net, tg.ncsa.hosts[0]);
  std::optional<Result<TransferStats>> out;
  client.get_range(server, "/f", 8 * MiB, 4 * MiB, nullptr,
                   [&](Result<TransferStats> r) { out = std::move(r); });
  sim.run();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->code(), Errc::invalid_argument);
}

TEST_F(FtpFixture, LinkFailureSurfaces) {
  ASSERT_TRUE(sdsc_store.add("/f", 256 * MiB).ok());
  GridFtpClient client(net, tg.ncsa.hosts[0]);
  std::optional<Result<TransferStats>> out;
  client.get(server, "/f", nullptr,
             [&](Result<TransferStats> r) { out = std::move(r); });
  sim.after(0.5, [&] { net.set_link_up(tg.la, tg.chi, false); });
  sim.run();
  ASSERT_TRUE(out.has_value());
  ASSERT_FALSE(out->ok());
  EXPECT_EQ(out->code(), Errc::unavailable);
}

}  // namespace
}  // namespace mgfs::gridftp
