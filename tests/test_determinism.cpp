// Determinism and network edge cases.
//
// DESIGN.md §5 decision 6: identical seeds must give bit-identical runs
// — no wall clock, FIFO tie-breaking, per-component PRNGs. This suite
// runs a non-trivial mixed workload twice and compares the full
// observable state, plus a handful of network topology edge cases.
#include <gtest/gtest.h>

#include <sstream>

#include "gpfs_test_util.hpp"
#include "workload/apps.hpp"

namespace mgfs::gpfs {
namespace {

using testutil::kAlice;
using testutil::kBob;
using testutil::MiniCluster;

struct RunTrace {
  double end_time = 0;
  std::uint64_t events = 0;
  Bytes reads = 0;
  Bytes writes = 0;
  std::uint64_t tokens = 0;
  std::uint64_t revocations = 0;
  std::uint64_t free_blocks = 0;

  friend bool operator==(const RunTrace&, const RunTrace&) = default;
};

RunTrace run_workload() {
  MiniCluster mc;
  Client* w = mc.mount_on(2);
  Client* r = mc.mount_on(3);
  Client* s = mc.mount_on(4);

  workload::EnzoConfig ecfg;
  ecfg.dump_bytes = 8 * MiB;
  ecfg.dumps = 2;
  ecfg.app_rate = mB_per_s(200.0);
  workload::EnzoWriter enzo(w, "/enzo", kAlice, ecfg);
  enzo.run([](const Status& st) { MGFS_ASSERT(st.ok(), "enzo"); });
  mc.sim.run();

  workload::SequentialReader::Options opt;
  opt.stream.queue_depth = 4;
  workload::SequentialReader viz(r, "/enzo/dump_0000", kBob, opt);
  viz.start([](const Status& st) { MGFS_ASSERT(st.ok(), "viz"); });

  workload::SortConfig scfg;
  scfg.total = 8 * MiB;
  scfg.phase = 2 * MiB;
  workload::SortApp sort(s, "/enzo/dump_0001", "/sorted", kBob, scfg);
  sort.run([](const Status& st) { MGFS_ASSERT(st.ok(), "sort"); });
  mc.sim.run();

  RunTrace t;
  t.end_time = mc.sim.now();
  t.events = mc.sim.events_processed();
  t.reads = r->bytes_read_remote() + s->bytes_read_remote();
  t.writes = w->bytes_written_remote() + s->bytes_written_remote();
  t.tokens = mc.fs->tokens_granted();
  t.revocations = mc.fs->revocations();
  t.free_blocks = mc.fs->alloc().total_free();
  return t;
}

TEST(Determinism, IdenticalRunsBitForBit) {
  const RunTrace a = run_workload();
  const RunTrace b = run_workload();
  EXPECT_EQ(a, b);
  EXPECT_DOUBLE_EQ(a.end_time, b.end_time);
  EXPECT_GT(a.events, 1000u);  // the run was non-trivial
}

TEST(Determinism, AdminOutputStable) {
  MiniCluster a, b;
  EXPECT_EQ(a.cluster->mmlscluster(), b.cluster->mmlscluster());
  EXPECT_EQ(a.cluster->mmdf("gpfs0"), b.cluster->mmdf("gpfs0"));
}

TEST(NetworkEdge, SendToSelfDeliversImmediately) {
  sim::Simulator sim;
  net::Network net(sim);
  net::NodeId a = net.add_node("a");
  bool delivered = false;
  net.send(a, a, 1 * MiB, [&] { delivered = true; });
  sim.run();
  EXPECT_TRUE(delivered);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);  // no wire crossed
}

TEST(NetworkEdge, RouteCacheInvalidatedByNewLinks) {
  sim::Simulator sim;
  net::Network net(sim);
  net::NodeId a = net.add_node("a");
  net::NodeId b = net.add_node("b");
  net::NodeId c = net.add_node("c");
  net.connect(a, b, 1e9, 0.010);
  net.connect(b, c, 1e9, 0.010);
  // Warm the route cache: a->c via b.
  EXPECT_EQ(net.path(a, c).size(), 3u);
  // A new direct link must take effect despite the cache.
  net.connect(a, c, 1e9, 0.001);
  EXPECT_EQ(net.path(a, c).size(), 2u);
}

TEST(NetworkEdge, UnmountFlushPersistsDirtyData) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  auto fh = mc.open(c, "/d", kAlice, OpenFlags::create_rw());
  ASSERT_TRUE(mc.write(c, *fh, 0, 8 * MiB).ok());
  // No fsync. Orderly unmount must flush.
  bool done = false;
  mc.cluster->unmount_flush(c, [&] { done = true; });
  mc.sim.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(c->bytes_written_remote(), 8 * MiB);
  EXPECT_FALSE(c->mounted());
  EXPECT_EQ(mc.fs->shard_tokens(0).total_holdings(), 0u);
}

TEST(NetworkEdge, FlushAllOnCleanClientIsImmediate) {
  MiniCluster mc;
  Client* c = mc.mount_on(2);
  bool done = false;
  c->flush_all([&] { done = true; });
  mc.sim.run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace mgfs::gpfs
