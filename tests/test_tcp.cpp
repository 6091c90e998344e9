#include "net/tcp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

namespace mgfs::net {
namespace {

struct TcpFixture : ::testing::Test {
  sim::Simulator sim;
  Network net{sim};
  NodeId a, b;

  void wire(BytesPerSec rate, sim::Time one_way) {
    a = net.add_node("a");
    b = net.add_node("b");
    net.connect(a, b, rate, one_way);
  }
};

TEST_F(TcpFixture, DeliversMessage) {
  wire(gbps(1.0), 0.001);
  TcpConnection c(net, a, b);
  bool done = false;
  c.send(10 * MiB, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(c.bytes_delivered(), 10 * MiB);
  EXPECT_EQ(c.messages_completed(), 1u);
  EXPECT_EQ(c.inflight(), 0u);
}

TEST_F(TcpFixture, FifoCompletionOrder) {
  wire(gbps(1.0), 0.001);
  TcpConnection c(net, a, b);
  std::vector<int> order;
  c.send(1 * MiB, [&] { order.push_back(1); });
  c.send(512 * KiB, [&] { order.push_back(2); });
  c.send(64 * KiB, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(TcpFixture, ZeroByteMessageCompletes) {
  wire(gbps(1.0), 0.001);
  TcpConnection c(net, a, b);
  bool done = false;
  c.send(0, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
}

TEST_F(TcpFixture, SingleStreamIsWindowLimitedOverWan) {
  // The paper's core latency observation, quantified: 1 MiB window over
  // 80 ms RTT caps a single stream near window/RTT = 13.1 MB/s, far
  // below the Gb/s line rate.
  wire(gbps(10.0), 0.040);  // 80 ms RTT
  TcpConfig cfg;
  cfg.window = 1 * MiB;
  TcpConnection c(net, a, b, cfg);
  double done_at = -1;
  const Bytes n = 64 * MiB;
  c.send(n, [&] { done_at = sim.now(); });
  sim.run();
  const double rate = static_cast<double>(n) / done_at;
  EXPECT_LT(rate, 14e6);
  EXPECT_GT(rate, 9e6);
}

TEST_F(TcpFixture, BigWindowFillsWanPipe) {
  // Window >= bandwidth-delay product (1.25 GB/s * 80 ms = 100 MB):
  // a single stream saturates the line.
  wire(gbps(10.0), 0.040);
  TcpConfig cfg;
  cfg.window = 128 * MiB;
  cfg.slow_start = false;
  TcpConnection c(net, a, b, cfg);
  double done_at = -1;
  const Bytes n = 512 * MiB;
  c.send(n, [&] { done_at = sim.now(); });
  sim.run();
  const double rate = static_cast<double>(n) / done_at;
  EXPECT_GT(rate, 1.0e9);  // most of the 1.25 GB/s line rate
}

TEST_F(TcpFixture, ManyStreamsFillWanPipeDespiteSmallWindows) {
  // 64 window-limited connections aggregate to wire speed — the GPFS
  // client<->NSD-server fan-out effect.
  wire(gbps(10.0), 0.040);
  std::vector<std::unique_ptr<TcpConnection>> conns;
  TcpConfig cfg;
  cfg.window = 1 * MiB;
  int done = 0;
  double last = 0;
  const Bytes per = 16 * MiB;
  constexpr int kStreams = 100;  // 100 MiB of aggregate window ≈ the BDP
  for (int i = 0; i < kStreams; ++i) {
    conns.push_back(std::make_unique<TcpConnection>(net, a, b, cfg));
    conns.back()->send(per, [&] {
      ++done;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_EQ(done, kStreams);
  const double rate = static_cast<double>(per) * kStreams / last;
  EXPECT_GT(rate, 0.9e9);
}

TEST_F(TcpFixture, SlowStartRampsCwnd) {
  wire(gbps(1.0), 0.010);
  TcpConfig cfg;
  cfg.window = 4 * MiB;
  cfg.slow_start = true;
  TcpConnection c(net, a, b, cfg);
  EXPECT_EQ(c.cwnd(), cfg.chunk);
  c.send(32 * MiB, [] {});
  sim.run();
  EXPECT_EQ(c.cwnd(), cfg.window);
}

TEST_F(TcpFixture, NoSlowStartOpensFullWindow) {
  wire(gbps(1.0), 0.010);
  TcpConfig cfg;
  cfg.slow_start = false;
  TcpConnection c(net, a, b, cfg);
  EXPECT_EQ(c.cwnd(), cfg.window);
}

TEST_F(TcpFixture, PathFailureBreaksConnectionAndFailsQueue) {
  wire(gbps(1.0), 0.001);
  TcpConnection c(net, a, b);
  int errors = 0;
  c.send(16 * MiB, [] { FAIL() << "completed across failed path"; },
         [&] { ++errors; });
  c.send(1 * MiB, [] { FAIL() << "completed across failed path"; },
         [&] { ++errors; });
  // Fail the link after the transfer starts.
  sim.after(0.001, [&] { net.set_link_up(a, b, false); });
  sim.run();
  EXPECT_EQ(errors, 2);
  EXPECT_TRUE(c.broken());
}

TEST_F(TcpFixture, BrokenConnectionFailsNewSendsUntilReset) {
  wire(gbps(1.0), 0.001);
  TcpConnection c(net, a, b);
  sim.after(0.0, [&] { net.set_link_up(a, b, false); });
  int errors = 0;
  c.send(1 * MiB, nullptr, [&] { ++errors; });
  sim.run();
  ASSERT_TRUE(c.broken());
  c.send(1 * MiB, nullptr, [&] { ++errors; });
  sim.run();
  EXPECT_EQ(errors, 2);

  net.set_link_up(a, b, true);
  c.reset();
  bool ok = false;
  c.send(1 * MiB, [&] { ok = true; });
  sim.run();
  EXPECT_TRUE(ok);
}

// A long queue retires its head in place and compacts: more than 100
// small messages, a reset while half of them wait, then as many again,
// one of them queued from inside a completion. Completions stay FIFO
// and every message resolves exactly once.
TEST_F(TcpFixture, LongQueueStaysFifoAcrossAReset) {
  wire(gbps(1.0), 0.001);
  TcpConnection c(net, a, b);
  constexpr int kBatch = 120;
  std::vector<int> completed;
  std::vector<int> resolved(2 * kBatch + 1, 0);
  std::function<void(int)> send = [&](int i) {
    c.send(
        16 * KiB,
        [&, i] {
          completed.push_back(i);
          ++resolved[i];
          if (i == kBatch + 10) send(2 * kBatch);
        },
        [&, i] { ++resolved[i]; });
  };
  for (int i = 0; i < kBatch; ++i) send(i);
  // About 1 MiB has arrived by then: the first half of the batch.
  sim.after(0.010, [&] {
    ASSERT_GT(c.messages_completed(), 32u);
    ASSERT_LT(c.messages_completed(), static_cast<std::uint64_t>(kBatch));
    c.reset();
    for (int i = kBatch; i < 2 * kBatch; ++i) send(i);
  });
  sim.run();

  for (std::size_t i = 0; i < resolved.size(); ++i) {
    EXPECT_EQ(resolved[i], 1) << "message " << i;
  }
  EXPECT_TRUE(std::is_sorted(completed.begin(), completed.end()));
  EXPECT_EQ(std::adjacent_find(completed.begin(), completed.end()),
            completed.end());
  // Every message queued after the reset completed.
  const auto after = std::count_if(completed.begin(), completed.end(),
                                   [](int i) { return i >= kBatch; });
  EXPECT_EQ(after, kBatch + 1);
  EXPECT_EQ(c.inflight(), 0u);
}

class TcpWindowSweep : public ::testing::TestWithParam<Bytes> {};

TEST_P(TcpWindowSweep, ThroughputTracksWindowOverRtt) {
  // Ablation A-2's invariant as a property: throughput ~ window/RTT when
  // window-limited, clipped at line rate.
  sim::Simulator sim;
  Network net(sim);
  NodeId a = net.add_node("a");
  NodeId b = net.add_node("b");
  const double one_way = 0.040;
  net.connect(a, b, gbps(10.0), one_way);
  TcpConfig cfg;
  cfg.window = GetParam();
  cfg.slow_start = false;
  TcpConnection c(net, a, b, cfg);
  double done_at = -1;
  const Bytes n = 128 * MiB;
  c.send(n, [&] { done_at = sim.now(); });
  sim.run();
  const double rate = static_cast<double>(n) / done_at;
  const double cap = std::min(static_cast<double>(cfg.window) / (2 * one_way),
                              gbps(10.0));
  EXPECT_LT(rate, cap * 1.10);
  EXPECT_GT(rate, cap * 0.65);
}

INSTANTIATE_TEST_SUITE_P(Windows, TcpWindowSweep,
                         ::testing::Values(256 * KiB, 1 * MiB, 4 * MiB,
                                           16 * MiB, 64 * MiB));

}  // namespace
}  // namespace mgfs::net
