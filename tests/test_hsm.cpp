#include "hsm/hsm.hpp"

#include <gtest/gtest.h>

#include <optional>

namespace mgfs::hsm {
namespace {

TEST(TapeLibrary, AppendAndRead) {
  sim::Simulator sim;
  TapeLibrary lib(sim, 2);
  std::optional<TapeAddr> addr;
  lib.append(10 * GB, [&](Result<TapeAddr> a) {
    ASSERT_TRUE(a.ok());
    addr = *a;
  });
  sim.run();
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->volume, 0u);
  EXPECT_EQ(addr->offset, 0u);
  // 60 s mount + 20 s position + 10e9/30e6 s streaming ≈ 413 s.
  EXPECT_NEAR(sim.now(), 60 + 20 + 10e9 / 30e6, 1.0);

  bool read_ok = false;
  lib.read(*addr, 10 * GB, [&](const Status& st) { read_ok = st.ok(); });
  sim.run();
  EXPECT_TRUE(read_ok);
  // Volume already loaded in a drive: no second mount needed.
  EXPECT_EQ(lib.mounts(), 1u);
}

TEST(TapeLibrary, VolumesRollOver) {
  sim::Simulator sim;
  TapeSpec spec;
  spec.volume_capacity = 10 * GB;
  TapeLibrary lib(sim, 1, spec);
  std::vector<TapeAddr> addrs;
  for (int i = 0; i < 3; ++i) {
    lib.append(6 * GB, [&](Result<TapeAddr> a) {
      ASSERT_TRUE(a.ok());
      addrs.push_back(*a);
    });
  }
  sim.run();
  ASSERT_EQ(addrs.size(), 3u);
  EXPECT_EQ(addrs[0].volume, 0u);
  EXPECT_EQ(addrs[1].volume, 1u);  // 6+6 > 10: rolls to a new volume
  EXPECT_EQ(addrs[2].volume, 2u);
  EXPECT_EQ(lib.volumes_used(), 3u);
}

TEST(TapeLibrary, OversizedObjectRejected) {
  sim::Simulator sim;
  TapeSpec spec;
  spec.volume_capacity = 1 * GB;
  TapeLibrary lib(sim, 1, spec);
  Errc code = Errc::ok;
  lib.append(2 * GB, [&](Result<TapeAddr> a) { code = a.code(); });
  sim.run();
  EXPECT_EQ(code, Errc::invalid_argument);
}

TEST(TapeLibrary, LostVolumeFailsReads) {
  sim::Simulator sim;
  TapeLibrary lib(sim, 1);
  std::optional<TapeAddr> addr;
  lib.append(1 * GB, [&](Result<TapeAddr> a) { addr = *a; });
  sim.run();
  lib.lose_volume(addr->volume);
  Errc code = Errc::ok;
  lib.read(*addr, 1 * GB, [&](const Status& st) { code = st.code(); });
  sim.run();
  EXPECT_EQ(code, Errc::io_error);
}

TEST(TapeLibrary, TwoDrivesOverlap) {
  sim::Simulator sim;
  TapeSpec spec;
  spec.volume_capacity = 100 * GB;
  auto run_with = [&](std::size_t drives) {
    sim::Simulator s;
    TapeLibrary lib(s, drives, spec);
    int done = 0;
    // Two appends land on the same volume; with one drive they
    // serialize on it, with two they... still serialize (same volume).
    // Use reads of two different volumes instead.
    lib.append(90 * GB, [&](Result<TapeAddr>) { ++done; });
    lib.append(90 * GB, [&](Result<TapeAddr>) { ++done; });
    s.run();
    double t_write = s.now();
    (void)t_write;
    bool r1 = false, r2 = false;
    lib.read({0, 0}, 90 * GB, [&](const Status&) { r1 = true; });
    lib.read({1, 0}, 90 * GB, [&](const Status&) { r2 = true; });
    const double before = s.now();
    s.run();
    EXPECT_TRUE(r1 && r2);
    return s.now() - before;
  };
  const double one = run_with(1);
  const double two = run_with(2);
  EXPECT_LT(two, 0.7 * one);
}

struct HsmFixture : ::testing::Test {
  sim::Simulator sim;
  storage::RateDevice disk{sim, 100 * GB, 1e9};
  gridftp::FileStore cache{disk};
  TapeSpec spec = [] {
    TapeSpec s;
    s.volume_capacity = 500 * GB;
    return s;
  }();
  TapeLibrary tape{sim, 2, spec};
  HsmConfig cfg = [] {
    HsmConfig c;
    c.archive_piece = 100 * GB;  // single-piece files in these tests
    return c;
  }();
  HsmManager hsm{sim, cache, tape, cfg};

  Status run_policy() {
    std::optional<Status> out;
    hsm.run_policy([&](const Status& st) { out = st; });
    sim.run();
    return out.value_or(Status(Errc::timed_out, "hang"));
  }

  Status ensure_online(const std::string& name) {
    std::optional<Status> out;
    hsm.ensure_online(name, [&](const Status& st) { out = st; });
    sim.run();
    return out.value_or(Status(Errc::timed_out, "hang"));
  }
};

TEST_F(HsmFixture, IngestMakesResident) {
  ASSERT_TRUE(hsm.ingest("/a", 10 * GB).ok());
  EXPECT_TRUE(hsm.resident("/a"));
  EXPECT_FALSE(hsm.archived("/a"));
  EXPECT_NEAR(hsm.fill_fraction(), 0.1, 1e-9);
  EXPECT_EQ(hsm.ingest("/a", 1 * GB).code(), Errc::exists);
}

TEST_F(HsmFixture, PolicyMigratesLruToLowWatermark) {
  // Fill to 95%: policy must bring it to <= 70%.
  for (int i = 0; i < 19; ++i) {
    ASSERT_TRUE(hsm.ingest("/f" + std::to_string(i), 5 * GB).ok());
    sim.run_until(sim.now() + 1);  // distinct access times
  }
  EXPECT_NEAR(hsm.fill_fraction(), 0.95, 1e-9);
  ASSERT_TRUE(run_policy().ok());
  EXPECT_LE(hsm.fill_fraction(), 0.70 + 1e-9);
  EXPECT_GE(hsm.migrations(), 5u);
  // The oldest files went first.
  EXPECT_FALSE(hsm.resident("/f0"));
  EXPECT_TRUE(hsm.resident("/f18"));
  EXPECT_TRUE(hsm.archived("/f0"));
}

TEST_F(HsmFixture, TouchProtectsFromMigration) {
  for (int i = 0; i < 19; ++i) {
    ASSERT_TRUE(hsm.ingest("/f" + std::to_string(i), 5 * GB).ok());
    sim.run_until(sim.now() + 1);
  }
  // An access: the oldest file becomes the newest.
  ASSERT_TRUE(ensure_online("/f0").ok());
  ASSERT_TRUE(run_policy().ok());
  EXPECT_TRUE(hsm.resident("/f0"));
  EXPECT_FALSE(hsm.resident("/f1"));
}

TEST_F(HsmFixture, RecallBringsFileBack) {
  ASSERT_TRUE(hsm.ingest("/cold", 20 * GB).ok());
  for (int i = 0; i < 15; ++i) {
    sim.run_until(sim.now() + 1);
    ASSERT_TRUE(hsm.ingest("/hot" + std::to_string(i), 5 * GB).ok());
  }
  ASSERT_TRUE(run_policy().ok());
  ASSERT_FALSE(hsm.resident("/cold"));
  const double t0 = sim.now();
  ASSERT_TRUE(ensure_online("/cold").ok());
  EXPECT_TRUE(hsm.resident("/cold"));
  EXPECT_EQ(hsm.recalls(), 1u);
  // Recall cost: mount-ish latency + 20 GB at 30 MB/s.
  EXPECT_GT(sim.now() - t0, 20e9 / 30e6 * 0.9);
  EXPECT_EQ(hsm.recall_latency().count(), 1u);
}

TEST_F(HsmFixture, EnsureOnlineIsFastWhenResident) {
  ASSERT_TRUE(hsm.ingest("/warm", 1 * GB).ok());
  const double t0 = sim.now();
  ASSERT_TRUE(ensure_online("/warm").ok());
  EXPECT_LT(sim.now() - t0, 1e-6);
  EXPECT_EQ(hsm.recalls(), 0u);
}

TEST_F(HsmFixture, MirrorServesWhenPrimaryVolumeLost) {
  TapeLibrary mirror(sim, 2, spec);
  hsm.set_mirror(&mirror);
  ASSERT_TRUE(hsm.ingest("/precious", 10 * GB).ok());
  std::optional<Status> arch;
  hsm.archive("/precious", [&](const Status& st) { arch = st; });
  sim.run();
  ASSERT_TRUE(arch.has_value() && arch->ok());
  EXPECT_EQ(mirror.bytes_on_tape(), 10 * GB);

  // Purge it, then lose the primary copy.
  for (int i = 0; i < 17; ++i) {
    ASSERT_TRUE(hsm.ingest("/fill" + std::to_string(i), 5 * GB).ok());
    sim.run_until(sim.now() + 1);
  }
  ASSERT_TRUE(run_policy().ok());
  ASSERT_FALSE(hsm.resident("/precious"));
  tape.lose_volume(0);

  ASSERT_TRUE(ensure_online("/precious").ok());
  EXPECT_TRUE(hsm.resident("/precious"));
  EXPECT_GE(hsm.mirror_recalls(), 1u);
}

TEST_F(HsmFixture, RecallWithoutArchiveFails) {
  // A purged-but-never-archived file is unrecoverable (cannot happen via
  // run_policy, which archives before purging; simulate catalog damage).
  EXPECT_EQ(ensure_online("/ghost").code(), Errc::not_found);
}

TEST_F(HsmFixture, ArchiveIsIdempotent) {
  ASSERT_TRUE(hsm.ingest("/once", 10 * GB).ok());
  std::optional<Status> a1, a2;
  hsm.archive("/once", [&](const Status& st) { a1 = st; });
  sim.run();
  const Bytes on_tape = tape.bytes_on_tape();
  hsm.archive("/once", [&](const Status& st) { a2 = st; });
  sim.run();
  ASSERT_TRUE(a1->ok() && a2->ok());
  EXPECT_EQ(tape.bytes_on_tape(), on_tape);
}

TEST_F(HsmFixture, MultiPieceFileArchivesAndRecalls) {
  HsmConfig small = cfg;
  small.archive_piece = 4 * GB;
  HsmManager h2(sim, cache, tape, small);
  ASSERT_TRUE(h2.ingest("/big", 10 * GB).ok());  // 3 pieces
  std::optional<Status> arch;
  h2.archive("/big", [&](const Status& st) { arch = st; });
  sim.run();
  ASSERT_TRUE(arch.has_value() && arch->ok());
  EXPECT_EQ(tape.bytes_on_tape(), 10 * GB);
}

}  // namespace
}  // namespace mgfs::hsm
