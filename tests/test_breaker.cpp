// NsdBreaker: the client's per-NSD-server circuit breaker.
#include "gpfs/breaker.hpp"

#include <gtest/gtest.h>

namespace mgfs::gpfs {
namespace {

constexpr net::NodeId kServer{7};
constexpr net::NodeId kOther{8};
constexpr sim::Time kProbe = NsdBreaker::kProbe;

/// Fail `n` kThreshold times in a row at `t`: the breaker opens.
void trip(NsdBreaker& b, net::NodeId n, sim::Time t) {
  for (int i = 0; i < NsdBreaker::kThreshold; ++i) b.fail(n, t);
}

TEST(NsdBreaker, OpensAfterThresholdConsecutiveFailures) {
  NsdBreaker b;
  for (int i = 1; i < NsdBreaker::kThreshold; ++i) {
    b.fail(kServer, 0.0);
    EXPECT_FALSE(b.is_open(kServer));
    EXPECT_TRUE(b.admit(kServer, 0.0));
  }
  // A success in between resets the count: failures must be consecutive.
  b.ok(kServer);
  for (int i = 1; i < NsdBreaker::kThreshold; ++i) b.fail(kServer, 0.0);
  EXPECT_FALSE(b.is_open(kServer));
  b.fail(kServer, 2.0);
  EXPECT_TRUE(b.is_open(kServer));
  EXPECT_EQ(b.opens(), 1u);
  EXPECT_FALSE(b.admit(kServer, 2.0));
  EXPECT_FALSE(b.admit(kServer, 2.0 + 0.5 * kProbe));
  EXPECT_TRUE(b.admit(kServer, 2.0 + kProbe));  // half-open probe due
  EXPECT_TRUE(b.admit(kOther, 2.0));            // per-server state
  EXPECT_FALSE(b.is_open(kOther));
}

TEST(NsdBreaker, FailedProbePushesTheNextOneOut) {
  NsdBreaker b;
  trip(b, kServer, 0.0);
  ASSERT_TRUE(b.admit(kServer, kProbe));
  b.consume_probe(kServer, kProbe);
  const sim::Time fail_at = kProbe + 0.25;
  b.fail(kServer, fail_at);
  EXPECT_TRUE(b.is_open(kServer));
  EXPECT_EQ(b.opens(), 1u);  // still the same opening
  EXPECT_FALSE(b.admit(kServer, 2 * kProbe));
  EXPECT_FALSE(b.admit(kServer, fail_at + 0.5 * kProbe));
  EXPECT_TRUE(b.admit(kServer, fail_at + kProbe));
}

TEST(NsdBreaker, SuccessClosesIt) {
  NsdBreaker b;
  trip(b, kServer, 0.0);
  ASSERT_TRUE(b.is_open(kServer));
  b.consume_probe(kServer, kProbe);
  b.ok(kServer);
  EXPECT_FALSE(b.is_open(kServer));
  EXPECT_TRUE(b.admit(kServer, kProbe));
  // Closed again: it takes a full threshold of new failures to reopen.
  for (int i = 1; i < NsdBreaker::kThreshold; ++i) b.fail(kServer, kProbe);
  EXPECT_FALSE(b.is_open(kServer));
}

TEST(NsdBreaker, ProbeIsUsedUpOnlyWhenARequestIsSent) {
  NsdBreaker b;
  b.consume_probe(kServer, 0.0);  // closed (and unknown): not a probe
  trip(b, kServer, 0.0);
  // Asking whether the server may be tried does not spend the probe.
  EXPECT_TRUE(b.admit(kServer, kProbe));
  EXPECT_TRUE(b.admit(kServer, kProbe));
  EXPECT_EQ(b.probes(), 0u);
  b.consume_probe(kServer, kProbe);
  EXPECT_EQ(b.probes(), 1u);
  EXPECT_FALSE(b.admit(kServer, kProbe));
  EXPECT_TRUE(b.admit(kServer, 2 * kProbe));
  // A closed server's requests are never probes.
  b.ok(kServer);
  b.consume_probe(kServer, 3 * kProbe);
  EXPECT_EQ(b.probes(), 1u);
}

TEST(NsdBreaker, ClearForgetsEveryServer) {
  NsdBreaker b;
  trip(b, kServer, 0.0);
  b.clear();
  EXPECT_FALSE(b.is_open(kServer));
  EXPECT_TRUE(b.admit(kServer, 0.0));
  EXPECT_EQ(b.opens(), 1u);  // counters are history, not state
}

}  // namespace
}  // namespace mgfs::gpfs
