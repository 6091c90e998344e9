#include "storage/raid.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>

namespace mgfs::storage {
namespace {

struct RaidFixture : ::testing::Test {
  sim::Simulator sim;
  std::vector<std::unique_ptr<Disk>> disks;
  std::unique_ptr<RaidSet> raid;

  void make(std::size_t data_disks = 8, Bytes unit = 256 * KiB) {
    RaidConfig cfg;
    cfg.data_disks = data_disks;
    cfg.stripe_unit = unit;
    std::vector<Disk*> members;
    for (std::size_t i = 0; i < data_disks + 1; ++i) {
      disks.push_back(
          std::make_unique<Disk>(sim, DiskSpec::sata_250(), Rng(100 + i)));
      members.push_back(disks.back().get());
    }
    raid = std::make_unique<RaidSet>(sim, std::move(members), cfg);
  }
};

TEST_F(RaidFixture, CapacityIsDataDisksTimesMember) {
  make();
  const Bytes member = 250 * GB - (250 * GB % (256 * KiB));
  EXPECT_EQ(raid->capacity(), member * 8);
}

TEST_F(RaidFixture, ParityRotatesLeftSymmetric) {
  make(4);
  // 5 members: parity walks 4,3,2,1,0,4,3,...
  EXPECT_EQ(raid->parity_member(0), 4u);
  EXPECT_EQ(raid->parity_member(1), 3u);
  EXPECT_EQ(raid->parity_member(4), 0u);
  EXPECT_EQ(raid->parity_member(5), 4u);
}

TEST_F(RaidFixture, DataMembersSkipParity) {
  make(4);
  for (std::uint64_t stripe = 0; stripe < 10; ++stripe) {
    std::set<std::size_t> used;
    const std::size_t p = raid->parity_member(stripe);
    for (std::size_t col = 0; col < 4; ++col) {
      const std::size_t m = raid->data_member(stripe, col);
      EXPECT_NE(m, p) << "stripe " << stripe << " col " << col;
      used.insert(m);
    }
    EXPECT_EQ(used.size(), 4u) << "columns must land on distinct members";
  }
}

TEST_F(RaidFixture, ReadPlanTouchesOnlyCoveredColumns) {
  make(8, 256 * KiB);
  // Read exactly one stripe unit: one disk op.
  auto ops = raid->plan(0, 256 * KiB, false);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_FALSE(ops[0].write);
  EXPECT_EQ(ops[0].len, 256 * KiB);
}

TEST_F(RaidFixture, FullStripeReadTouchesAllDataDisks) {
  make(8, 256 * KiB);
  auto ops = raid->plan(0, 8 * 256 * KiB, false);
  EXPECT_EQ(ops.size(), 8u);
  std::set<std::size_t> members;
  for (const auto& op : ops) members.insert(op.member);
  EXPECT_EQ(members.size(), 8u);
}

TEST_F(RaidFixture, FullStripeWriteIsNPlusOneOps) {
  make(8, 256 * KiB);
  auto ops = raid->plan(0, 8 * 256 * KiB, true);
  // 8 data writes + 1 parity write, no RMW reads.
  EXPECT_EQ(ops.size(), 9u);
  for (const auto& op : ops) EXPECT_TRUE(op.write);
}

TEST_F(RaidFixture, SmallWritePaysReadModifyWrite)
{
  make(8, 256 * KiB);
  auto ops = raid->plan(0, 4 * KiB, true);
  // read old data + read old parity + write data + write parity.
  int reads = 0, writes = 0;
  for (const auto& op : ops) (op.write ? writes : reads)++;
  EXPECT_EQ(reads, 2);
  EXPECT_EQ(writes, 2);
}

TEST_F(RaidFixture, PartialStripeWriteReadsParityOnce) {
  make(8, 256 * KiB);
  // 1 MiB spans four data columns of one stripe: read the old data and
  // the old parity once, then write both.
  const std::size_t pmem = raid->parity_member(0);
  auto ops = raid->plan(0, 1 * MiB, true);
  Bytes total = 0;
  int parity_reads = 0;
  for (const auto& op : ops) {
    total += op.len;
    if (op.member == pmem && !op.write) ++parity_reads;
  }
  EXPECT_EQ(parity_reads, 1);
  EXPECT_EQ(total, 2 * MiB + 512 * KiB);
}

TEST_F(RaidFixture, DegradedReadReconstructsFromSurvivors) {
  make(4, 256 * KiB);
  // Fail the member holding stripe 0, column 0.
  const std::size_t victim = raid->data_member(0, 0);
  raid->member(victim).fail();
  auto ops = raid->plan(0, 256 * KiB, false);
  // All four survivors are read.
  EXPECT_EQ(ops.size(), 4u);
  for (const auto& op : ops) {
    EXPECT_NE(op.member, victim);
    EXPECT_FALSE(op.write);
  }
}

TEST_F(RaidFixture, DegradedIoStillSucceeds) {
  make(4);
  raid->member(0).fail();
  Status got(Errc::io_error, "unset");
  raid->io(0, 1 * MiB, false, [&](const Status& st) { got = st; });
  sim.run();
  EXPECT_TRUE(got.ok()) << got.to_string();
  EXPECT_TRUE(raid->degraded());
}

TEST_F(RaidFixture, TwoFailuresLoseTheSet) {
  make(4);
  raid->member(0).fail();
  raid->member(1).fail();
  EXPECT_TRUE(raid->failed());
  Status got;
  raid->io(0, 1 * MiB, false, [&](const Status& st) { got = st; });
  sim.run();
  EXPECT_EQ(got.code(), Errc::io_error);
  EXPECT_TRUE(raid->plan(0, 1 * MiB, false).empty());
}

TEST_F(RaidFixture, OutOfRangeRejected) {
  make(4);
  Status got;
  raid->io(raid->capacity() - 10, 100, false,
           [&](const Status& st) { got = st; });
  sim.run();
  EXPECT_EQ(got.code(), Errc::invalid_argument);
}

TEST_F(RaidFixture, RebuildCompletesAndClearsFlag) {
  make(2, 64 * KiB);  // small set so the rebuild finishes quickly
  raid->member(1).fail();
  EXPECT_TRUE(raid->degraded());
  raid->member(1).replace();
  bool done = false;
  raid->rebuild(1, [&] { done = true; }, 256 * MiB);
  EXPECT_TRUE(raid->rebuilding());
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(raid->rebuilding());
  EXPECT_FALSE(raid->degraded());
}

struct PlanParam {
  Bytes offset;
  Bytes len;
};

class RaidPlanProperty : public ::testing::TestWithParam<PlanParam> {};

TEST_P(RaidPlanProperty, ReadPlansCoverRequestExactly) {
  sim::Simulator sim;
  std::vector<std::unique_ptr<Disk>> disks;
  std::vector<Disk*> members;
  RaidConfig cfg;
  cfg.data_disks = 8;
  cfg.stripe_unit = 256 * KiB;
  for (std::size_t i = 0; i < 9; ++i) {
    disks.push_back(
        std::make_unique<Disk>(sim, DiskSpec::sata_250(), Rng(i)));
    members.push_back(disks.back().get());
  }
  RaidSet raid(sim, std::move(members), cfg);

  const auto [offset, len] = GetParam();
  auto ops = raid.plan(offset, len, false);
  Bytes covered = 0;
  for (const auto& op : ops) {
    EXPECT_FALSE(op.write);
    EXPECT_LE(op.offset + op.len,
              disks[op.member]->spec().capacity);
    covered += op.len;
  }
  EXPECT_EQ(covered, len);  // healthy read: every byte exactly once

  // Write plans stay within member bounds too.
  for (const auto& op : raid.plan(offset, len, true)) {
    EXPECT_LE(op.offset + op.len, disks[op.member]->spec().capacity);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Extents, RaidPlanProperty,
    ::testing::Values(PlanParam{0, 4 * KiB},                  // tiny
                      PlanParam{0, 256 * KiB},                // one unit
                      PlanParam{100, 256 * KiB},              // unaligned
                      PlanParam{0, 8 * 256 * KiB},            // full stripe
                      PlanParam{256 * KiB - 1, 2},            // unit boundary
                      PlanParam{8 * 256 * KiB - 7, 14},       // stripe boundary
                      PlanParam{3 * 256 * KiB, 13 * 256 * KiB},  // 1.6 stripes
                      PlanParam{0, 64 * 256 * KiB},           // 8 stripes
                      PlanParam{5 * KiB, 40 * 256 * KiB + 11}));

}  // namespace
}  // namespace mgfs::storage
