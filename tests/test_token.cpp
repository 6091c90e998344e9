#include "gpfs/token.hpp"

#include <gtest/gtest.h>

#include <ostream>

namespace mgfs::gpfs {
namespace {

constexpr InodeNum kIno = 42;

TEST(TokenManager, FirstRequesterGetsWholeFile) {
  TokenManager tm;
  auto d = tm.request(1, kIno, {0, 100}, LockMode::rw);
  EXPECT_TRUE(d.granted);
  EXPECT_EQ(d.granted_range, (TokenRange{0, kWholeFile}));
  EXPECT_TRUE(tm.holds(1, kIno, {0, 1 << 30}, LockMode::rw));
}

TEST(TokenManager, SharedReadersCoexist) {
  TokenManager tm;
  ASSERT_TRUE(tm.request(1, kIno, {0, 100}, LockMode::ro).granted);
  auto d = tm.request(2, kIno, {50, 150}, LockMode::ro);
  EXPECT_TRUE(d.granted);
  // Second reader overlaps the first: no widening to whole file.
  EXPECT_EQ(d.granted_range, (TokenRange{50, 150}));
  EXPECT_TRUE(tm.holds(1, kIno, {0, 100}, LockMode::ro));
  EXPECT_TRUE(tm.holds(2, kIno, {50, 150}, LockMode::ro));
}

TEST(TokenManager, WriterConflictsWithReader) {
  TokenManager tm;
  ASSERT_TRUE(tm.request(1, kIno, {0, 100}, LockMode::ro).granted);
  auto d = tm.request(2, kIno, {50, 60}, LockMode::rw);
  EXPECT_FALSE(d.granted);
  ASSERT_EQ(d.conflicts.size(), 1u);
  EXPECT_EQ(d.conflicts[0].client, 1u);
}

TEST(TokenManager, ReaderConflictsWithWriter) {
  TokenManager tm;
  ASSERT_TRUE(tm.request(1, kIno, {0, 100}, LockMode::rw).granted);
  auto d = tm.request(2, kIno, {0, 10}, LockMode::ro);
  EXPECT_FALSE(d.granted);
  ASSERT_EQ(d.conflicts.size(), 1u);
}

TEST(TokenManager, DisjointWritersCoexistAfterRevoke) {
  TokenManager tm;
  // Writer 1 got the whole file; writer 2 wants a disjoint piece: the
  // manager must revoke the overlap (the whole-file widening), then the
  // retry succeeds.
  ASSERT_TRUE(tm.request(1, kIno, {0, 100}, LockMode::rw).granted);
  auto d = tm.request(2, kIno, {1000, 2000}, LockMode::rw);
  ASSERT_FALSE(d.granted);
  // Revoke exactly the conflicting overlap.
  tm.release(1, kIno, {1000, 2000});
  auto d2 = tm.request(2, kIno, {1000, 2000}, LockMode::rw);
  EXPECT_TRUE(d2.granted);
  // Writer 1 keeps the rest.
  EXPECT_TRUE(tm.holds(1, kIno, {0, 100}, LockMode::rw));
  EXPECT_FALSE(tm.holds(1, kIno, {1000, 1001}, LockMode::rw));
}

TEST(TokenManager, ReleaseSplitsHolding) {
  TokenManager tm;
  ASSERT_TRUE(tm.request(1, kIno, {0, 100}, LockMode::rw).granted);
  tm.release(1, kIno, {40, 60});
  EXPECT_TRUE(tm.holds(1, kIno, {0, 40}, LockMode::rw));
  EXPECT_TRUE(tm.holds(1, kIno, {60, 100}, LockMode::rw));
  EXPECT_FALSE(tm.holds(1, kIno, {40, 60}, LockMode::rw));
  EXPECT_FALSE(tm.holds(1, kIno, {0, 100}, LockMode::rw));
}

TEST(TokenManager, RoHoldingDoesNotSatisfyRwCheck) {
  TokenManager tm;
  ASSERT_TRUE(tm.request(1, kIno, {0, 100}, LockMode::ro).granted);
  EXPECT_TRUE(tm.holds(1, kIno, {0, 100}, LockMode::ro));
  EXPECT_FALSE(tm.holds(1, kIno, {0, 100}, LockMode::rw));
}

TEST(TokenManager, RwHoldingSatisfiesRoCheck) {
  TokenManager tm;
  ASSERT_TRUE(tm.request(1, kIno, {0, 100}, LockMode::rw).granted);
  EXPECT_TRUE(tm.holds(1, kIno, {0, 100}, LockMode::ro));
}

TEST(TokenManager, OwnUpgradeAbsorbsRoHolding) {
  TokenManager tm;
  ASSERT_TRUE(tm.request(1, kIno, {0, 100}, LockMode::ro).granted);
  auto d = tm.request(1, kIno, {0, 100}, LockMode::rw);
  EXPECT_TRUE(d.granted);
  EXPECT_TRUE(tm.holds(1, kIno, {0, 100}, LockMode::rw));
  // One merged holding, not two.
  EXPECT_EQ(tm.holdings(kIno).size(), 1u);
}

TEST(TokenManager, ReleaseAllCleansClient) {
  TokenManager tm;
  ASSERT_TRUE(tm.request(1, kIno, {0, 100}, LockMode::rw).granted);
  ASSERT_TRUE(tm.request(1, kIno + 1, {0, 100}, LockMode::ro).granted);
  tm.release_all(1);
  EXPECT_EQ(tm.total_holdings(), 0u);
  // Next requester is alone again -> whole file.
  auto d = tm.request(2, kIno, {5, 6}, LockMode::ro);
  EXPECT_TRUE(d.granted);
  EXPECT_EQ(d.granted_range, (TokenRange{0, kWholeFile}));
}

TEST(TokenManager, ReleaseAllSparesSurvivorsAndIsIdempotent) {
  TokenManager tm;
  // Node-expel reclaim: drop every holding of the dead client without
  // disturbing survivors' holdings on the same or other inodes.
  ASSERT_TRUE(tm.request(1, kIno, {0, 100}, LockMode::rw).granted);
  tm.release(1, kIno, {100, kWholeFile});  // trim the whole-file widening
  ASSERT_TRUE(tm.request(2, kIno, {100, 200}, LockMode::rw).granted);
  ASSERT_TRUE(tm.request(2, kIno + 1, {0, 50}, LockMode::ro).granted);

  tm.release_all(1);
  EXPECT_FALSE(tm.holds(1, kIno, {0, 1}, LockMode::ro));
  EXPECT_TRUE(tm.holds(2, kIno, {100, 200}, LockMode::rw));
  EXPECT_TRUE(tm.holds(2, kIno + 1, {0, 50}, LockMode::ro));

  const std::size_t after = tm.total_holdings();
  tm.release_all(1);  // double reclaim (expel raced a release): no-op
  tm.release_all(99);  // never held anything: no-op
  EXPECT_EQ(tm.total_holdings(), after);

  // The dead client's former range is immediately grantable.
  EXPECT_TRUE(tm.request(2, kIno, {0, 100}, LockMode::rw).granted);
}

TEST(TokenManager, DifferentInodesIndependent) {
  TokenManager tm;
  ASSERT_TRUE(tm.request(1, 1, {0, 100}, LockMode::rw).granted);
  EXPECT_TRUE(tm.request(2, 2, {0, 100}, LockMode::rw).granted);
}

TEST(TokenRange, OverlapAndContain) {
  TokenRange a{0, 10};
  TokenRange b{10, 20};
  TokenRange c{5, 15};
  EXPECT_FALSE(a.overlaps(b));  // half-open: touching is disjoint
  EXPECT_TRUE(a.overlaps(c));
  EXPECT_TRUE(c.overlaps(b));
  EXPECT_TRUE((TokenRange{0, 20}).contains(c));
  EXPECT_FALSE(c.contains(TokenRange{0, 20}));
}

struct ConflictCase {
  LockMode held;
  LockMode asked;
  bool conflict;
};

// Printed from the modes: left to itself gtest prints the case as raw bytes,
// struct padding included, and the test names changed from build to build.
void PrintTo(const ConflictCase& c, std::ostream* os) {
  auto mode = [](LockMode m) { return m == LockMode::ro ? "ro" : "rw"; };
  *os << mode(c.held) << " held, " << mode(c.asked) << " asked";
}

class TokenConflictMatrix : public ::testing::TestWithParam<ConflictCase> {};

TEST_P(TokenConflictMatrix, MatchesLockCompatibility) {
  const auto [held, asked, conflict] = GetParam();
  TokenManager tm;
  ASSERT_TRUE(tm.request(1, kIno, {0, 100}, held).granted);
  auto d = tm.request(2, kIno, {0, 100}, asked);
  EXPECT_EQ(!d.granted, conflict);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, TokenConflictMatrix,
    ::testing::Values(ConflictCase{LockMode::ro, LockMode::ro, false},
                      ConflictCase{LockMode::ro, LockMode::rw, true},
                      ConflictCase{LockMode::rw, LockMode::ro, true},
                      ConflictCase{LockMode::rw, LockMode::rw, true}));

}  // namespace
}  // namespace mgfs::gpfs
