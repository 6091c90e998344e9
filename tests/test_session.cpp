// Session: a client's disk lease and per-shard manager views, driven
// directly; the file system only supplies the cluster configuration.
#include "gpfs/session.hpp"

#include <gtest/gtest.h>

#include "gpfs_test_util.hpp"

namespace mgfs::gpfs {
namespace {

using testutil::MiniCluster;

TEST(Session, AdmitsRefusesAnOlderEpochAndCountsIt) {
  MiniCluster mc;
  Session s;
  s.seed(*mc.fs);
  const net::NodeId mgr = s.manager(0);
  s.adopt(0, mgr, 3);
  EXPECT_FALSE(s.admits(0, 2));  // a deposed manager
  EXPECT_EQ(s.stale_rejects(), 1u);
  EXPECT_TRUE(s.admits(0, 3));
  EXPECT_TRUE(s.admits(0, 4));
  EXPECT_EQ(s.stale_rejects(), 1u);
  EXPECT_EQ(s.manager_epoch(0), 3u);  // admitting adopts nothing
}

TEST(Session, OnlyAManagerSilentSinceTheSendIsAccused) {
  MiniCluster mc;
  Session s;
  s.seed(*mc.fs);
  const net::NodeId mgr = s.manager(0);
  EXPECT_TRUE(s.silent_since(0, 0.0));  // never heard from
  s.heard(0, mgr, 2.0);
  EXPECT_FALSE(s.silent_since(0, 1.0));  // answered after that send
  EXPECT_TRUE(s.silent_since(0, 3.0));
  s.heard(0, mc.site.hosts[3], 4.0);  // not the believed manager
  EXPECT_TRUE(s.silent_since(0, 3.0));
  s.adopt(0, mc.site.hosts[3], s.manager_epoch(0) + 1);
  EXPECT_TRUE(s.silent_since(0, 1.0));  // a new node starts unheard
}

TEST(Session, AdoptCountsATakeoverOnlyWhenTheEpochAdvances) {
  MiniCluster mc;
  Session s;
  s.seed(*mc.fs);
  EXPECT_EQ(s.takeovers(), 0u);  // seeding is not a takeover
  const std::uint64_t e = s.manager_epoch(0);
  const net::NodeId a = mc.site.hosts[2];
  const net::NodeId b = mc.site.hosts[3];
  s.adopt(0, a, e);
  EXPECT_EQ(s.takeovers(), 0u);
  EXPECT_EQ(s.manager(0), a);  // same epoch, new node
  s.adopt(0, b, e + 1);
  EXPECT_EQ(s.takeovers(), 1u);
  s.adopt(0, a, e);  // older: moves the node, keeps the epoch
  EXPECT_EQ(s.takeovers(), 1u);
  EXPECT_EQ(s.manager(0), a);
  EXPECT_EQ(s.manager_epoch(0), e + 1);
}

TEST(Session, RejoinCountsTheTakeoversMissedAndRebootDoesNot) {
  MiniCluster mc;
  Session s;
  s.seed(*mc.fs);
  ASSERT_TRUE(s.lapse());
  ASSERT_TRUE(mc.cluster->takeover_manager(*mc.fs, 0));
  s.rejoined(9, 1.0, *mc.fs);
  EXPECT_EQ(s.takeovers(), 1u);
  EXPECT_EQ(s.manager_epoch(0), mc.fs->manager_epoch(0));
  EXPECT_EQ(s.manager(0), mc.fs->manager_node(0));
  EXPECT_EQ(s.lease_epoch(), 9u);
  ASSERT_TRUE(mc.cluster->takeover_manager(*mc.fs, 0));
  s.reboot(mc.fs);
  EXPECT_EQ(s.takeovers(), 1u);
  EXPECT_EQ(s.manager_epoch(0), mc.fs->manager_epoch(0));
  EXPECT_EQ(s.lease_epoch(), 0u);
}

TEST(Session, CompletionOfAnOldIncarnationIsDropped) {
  Session s;
  s.set_lease(5, 10.0, 0.0);
  EXPECT_FALSE(s.begin_renewal(4.0));  // not yet half the lease
  ASSERT_TRUE(s.begin_renewal(5.0));
  EXPECT_FALSE(s.begin_renewal(5.0));  // one renewal in flight
  const std::uint64_t inc = s.incarnation();
  ASSERT_TRUE(s.lapse());
  EXPECT_FALSE(s.lapse());  // already handling one
  EXPECT_NE(s.incarnation(), inc);
  s.end_renewal(inc, true, 6.0);
  EXPECT_EQ(s.renewals(), 0u);
  EXPECT_FALSE(s.begin_renewal(20.0));  // rejoin still in progress
  s.abandon_rejoin();
  ASSERT_TRUE(s.begin_renewal(20.0));
  s.end_renewal(s.incarnation(), true, 20.0);
  EXPECT_EQ(s.renewals(), 1u);
  EXPECT_EQ(s.lapses(), 1u);
}

}  // namespace
}  // namespace mgfs::gpfs
