// Adversarial property fuzzing of the invariant-bearing components:
//   * TokenManager — no incompatible overlapping holdings, ever
//   * RaidSet.plan — geometric invariants under random extents/failures
//   * TcpConnection — byte conservation under random link flaps
#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "gpfs/token.hpp"
#include "net/tcp.hpp"
#include "storage/raid.hpp"

namespace mgfs {
namespace {

// ---------------------------------------------------------------------------
// Token manager fuzz
// ---------------------------------------------------------------------------

bool tokens_compatible(const gpfs::Holding& a, const gpfs::Holding& b) {
  if (a.client == b.client) return true;  // same client may overlap itself
  if (!a.range.overlaps(b.range)) return true;
  return a.mode == gpfs::LockMode::ro && b.mode == gpfs::LockMode::ro;
}

class TokenFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TokenFuzz, NoIncompatibleOverlapEver) {
  gpfs::TokenManager tm;
  Rng rng(GetParam());
  constexpr gpfs::InodeNum kInos = 4;
  constexpr gpfs::ClientId kClients = 5;

  for (int step = 0; step < 3000; ++step) {
    const gpfs::InodeNum ino = rng.below(kInos);
    const auto client = static_cast<gpfs::ClientId>(rng.below(kClients));
    const Bytes lo = rng.below(1000) * 1000;
    const Bytes hi = lo + (1 + rng.below(500)) * 1000;
    const auto mode =
        rng.chance(0.5) ? gpfs::LockMode::ro : gpfs::LockMode::rw;

    const int op = static_cast<int>(rng.below(10));
    if (op < 6) {
      auto d = tm.request(client, ino, {lo, hi}, {lo, hi}, mode);
      if (!d.granted) {
        // The manager told us what blocks; resolve exactly like the
        // FileSystem does, then retry once.
        for (const gpfs::Holding& h : d.conflicts) {
          tm.release(h.client, ino,
                     {std::max(h.range.lo, lo), std::min(h.range.hi, hi)});
        }
        auto d2 = tm.request(client, ino, {lo, hi}, {lo, hi}, mode);
        EXPECT_TRUE(d2.granted) << "retry after revocation must succeed";
      }
    } else if (op < 9) {
      tm.release(client, ino, {lo, hi});
    } else {
      tm.release_all(client);
    }

    // Invariant sweep.
    for (gpfs::InodeNum i = 0; i < kInos; ++i) {
      const auto& hs = tm.holdings(i);
      for (std::size_t a = 0; a < hs.size(); ++a) {
        ASSERT_LT(hs[a].range.lo, hs[a].range.hi) << "empty holding";
        for (std::size_t b = a + 1; b < hs.size(); ++b) {
          ASSERT_TRUE(tokens_compatible(hs[a], hs[b]))
              << "step " << step << " ino " << i << ": client "
              << hs[a].client << " vs " << hs[b].client;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TokenFuzz,
                         ::testing::Values(11, 23, 47, 89, 173));

// ---------------------------------------------------------------------------
// RAID plan fuzz
// ---------------------------------------------------------------------------

class RaidFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RaidFuzz, PlansHoldGeometricInvariants) {
  sim::Simulator sim;
  Rng rng(GetParam());
  const std::size_t data_disks = 2 + rng.below(8);  // 2..9 data
  storage::RaidConfig cfg;
  cfg.data_disks = data_disks;
  cfg.stripe_unit = (1ull << (16 + rng.below(3)));  // 64K..256K
  std::vector<std::unique_ptr<storage::Disk>> disks;
  std::vector<storage::Disk*> members;
  for (std::size_t i = 0; i <= data_disks; ++i) {
    disks.push_back(std::make_unique<storage::Disk>(
        sim, storage::DiskSpec::sata_250(), Rng(i)));
    members.push_back(disks.back().get());
  }
  storage::RaidSet raid(sim, std::move(members), cfg);
  const Bytes stripe_data = cfg.stripe_unit * data_disks;

  for (int step = 0; step < 400; ++step) {
    // Occasionally degrade/restore one member.
    if (step == 150) raid.member(rng.below(data_disks + 1)).fail();
    const Bytes max_off = std::min<Bytes>(raid.capacity(), 64 * GiB);
    const Bytes off = rng.below(max_off - 1);
    const Bytes len = 1 + rng.below(std::min<Bytes>(max_off - off,
                                                    8 * stripe_data));
    const bool write = rng.chance(0.5);
    auto plan = raid.plan(off, len, write);
    ASSERT_FALSE(plan.empty());

    Bytes data_read = 0;
    std::map<std::pair<std::size_t, Bytes>, int> touch_count;
    for (const auto& op : plan) {
      ASSERT_LT(op.member, data_disks + 1);
      ASSERT_GT(op.len, 0u);
      ASSERT_LE(op.offset + op.len,
                raid.member(op.member).spec().capacity);
      ASSERT_FALSE(raid.member(op.member).failed())
          << "plan touched a failed member";
      // Ops never span a stripe-unit boundary on a member.
      ASSERT_EQ(op.offset / cfg.stripe_unit,
                (op.offset + op.len - 1) / cfg.stripe_unit);
      if (!write && !op.write) data_read += op.len;
    }
    if (!write && raid.failed_members() == 0) {
      EXPECT_EQ(data_read, len) << "healthy read must cover exactly";
    }
    if (write && raid.failed_members() == 0) {
      // Parity written once per touched stripe.
      const std::uint64_t first_stripe = off / stripe_data;
      const std::uint64_t last_stripe = (off + len - 1) / stripe_data;
      std::size_t parity_writes = 0;
      for (const auto& op : plan) {
        const std::uint64_t stripe = op.offset / cfg.stripe_unit;
        if (op.write && op.member == raid.parity_member(stripe)) {
          ++parity_writes;
        }
      }
      EXPECT_EQ(parity_writes, last_stripe - first_stripe + 1);
    }
    (void)touch_count;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RaidFuzz, ::testing::Values(3, 31, 314));

// ---------------------------------------------------------------------------
// TCP conservation under link flaps
// ---------------------------------------------------------------------------

class TcpFlapFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TcpFlapFuzz, EveryMessageResolvesExactlyOnce) {
  sim::Simulator sim;
  net::Network net(sim);
  net::NodeId a = net.add_node("a");
  net::NodeId r = net.add_node("r");
  net::NodeId b = net.add_node("b");
  net.connect(a, r, gbps(1.0), 1e-3);
  net.connect(r, b, gbps(1.0), 1e-3);
  net::TcpConnection conn(net, a, b);
  Rng rng(GetParam());

  int completed = 0, failed = 0, sent = 0;
  // Random flapping of the second hop.
  for (int i = 0; i < 40; ++i) {
    const double t = 0.01 * (i + 1);
    const bool up = i % 2 == 1;
    sim.at(t, [&net, r, b, up] { net.set_link_up(r, b, up); });
  }
  // Messages trickle in while the link flaps; broken connections are
  // reset before retrying.
  for (int i = 0; i < 60; ++i) {
    sim.at(0.008 * i + rng.uniform() * 0.004, [&] {
      if (conn.broken()) conn.reset();
      ++sent;
      conn.send((1 + rng.below(8)) * 64 * KiB, [&] { ++completed; },
                [&] { ++failed; });
    });
  }
  sim.at(0.6, [&net, r, b] { net.set_link_up(r, b, true); });
  sim.run();
  // Exactly-once resolution: every send completed or failed, never both,
  // never neither.
  EXPECT_EQ(completed + failed, sent);
  EXPECT_GT(completed, 0);
  EXPECT_GT(failed, 0);  // the flaps really bit
  EXPECT_EQ(conn.inflight(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcpFlapFuzz, ::testing::Values(5, 55, 555));

}  // namespace
}  // namespace mgfs
