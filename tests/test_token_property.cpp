// Property test: the interval-table TokenManager against a brute-force
// byte-set oracle.
//
// The oracle tracks, per (inode, client), the exact byte sets held in
// each mode with naive O(n) interval arithmetic — no clipping, no
// coalescing, no prefix arrays. After every randomized operation the
// manager must agree with the oracle on the things that define token
// semantics: which requests conflict (and with whom), that granted
// ranges never hand out bytes an incompatible holder covers, and that
// holds() never claims rights the byte sets don't back. Representation
// differences (coalescing, absorption of own holdings) are allowed;
// rights differences are not.
#include "gpfs/token.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"

namespace mgfs::gpfs {
namespace {

// Sorted disjoint half-open byte intervals.
class ByteSet {
 public:
  void add(Bytes lo, Bytes hi) {
    if (lo >= hi) return;
    auto it = iv_.lower_bound(lo);
    if (it != iv_.begin() && std::prev(it)->second >= lo) --it;
    while (it != iv_.end() && it->first <= hi) {
      lo = std::min(lo, it->first);
      hi = std::max(hi, it->second);
      it = iv_.erase(it);
    }
    iv_.emplace(lo, hi);
  }
  void sub(Bytes lo, Bytes hi) {
    if (lo >= hi) return;
    auto it = iv_.lower_bound(lo);
    if (it != iv_.begin() && std::prev(it)->second > lo) --it;
    while (it != iv_.end() && it->first < hi) {
      const Bytes a = it->first;
      const Bytes b = it->second;
      it = iv_.erase(it);
      if (a < lo) iv_.emplace(a, lo);
      if (b > hi) it = iv_.emplace(hi, b).first;
    }
  }
  bool overlaps(Bytes lo, Bytes hi) const {
    if (lo >= hi) return false;
    auto it = iv_.upper_bound(lo);
    if (it != iv_.begin() && std::prev(it)->second > lo) return true;
    return it != iv_.end() && it->first < hi;
  }
  bool covers(Bytes lo, Bytes hi) const {
    if (lo >= hi) return true;
    auto it = iv_.upper_bound(lo);
    if (it == iv_.begin()) return false;
    --it;
    return it->first <= lo && it->second >= hi;
  }
  void add_all(const ByteSet& o) {
    for (const auto& [a, b] : o.iv_) add(a, b);
  }
  void clear() { iv_.clear(); }
  bool empty() const { return iv_.empty(); }
  friend bool operator==(const ByteSet&, const ByteSet&) = default;

 private:
  std::map<Bytes, Bytes> iv_;
};

struct OracleClient {
  ByteSet ro;
  ByteSet rw;
};

// any = ro ∪ rw decides conflicts for incoming rw; rw alone decides
// conflicts for incoming ro.
class Oracle {
 public:
  OracleClient& at(InodeNum ino, ClientId c) { return state_[ino][c]; }

  std::set<ClientId> conflicting(ClientId me, InodeNum ino, TokenRange r,
                                 LockMode mode) const {
    std::set<ClientId> out;
    auto it = state_.find(ino);
    if (it == state_.end()) return out;
    for (const auto& [c, s] : it->second) {
      if (c == me) continue;
      const bool hit = mode == LockMode::rw
                           ? (s.ro.overlaps(r.lo, r.hi) ||
                              s.rw.overlaps(r.lo, r.hi))
                           : s.rw.overlaps(r.lo, r.hi);
      if (hit) out.insert(c);
    }
    return out;
  }

  bool others_hold_anything(ClientId me, InodeNum ino) const {
    auto it = state_.find(ino);
    if (it == state_.end()) return false;
    for (const auto& [c, s] : it->second) {
      if (c != me && (!s.ro.empty() || !s.rw.empty())) return true;
    }
    return false;
  }

  void on_grant(ClientId c, InodeNum ino, TokenRange g, LockMode mode) {
    OracleClient& s = at(ino, c);
    (mode == LockMode::rw ? s.rw : s.ro).add(g.lo, g.hi);
  }
  void on_release(ClientId c, InodeNum ino, TokenRange r) {
    OracleClient& s = at(ino, c);
    s.ro.sub(r.lo, r.hi);
    s.rw.sub(r.lo, r.hi);
  }
  void on_release_all(ClientId c) {
    for (auto& [ino, clients] : state_) {
      auto it = clients.find(c);
      if (it != clients.end()) {
        it->second.ro.clear();
        it->second.rw.clear();
      }
    }
  }

  const std::map<InodeNum, std::map<ClientId, OracleClient>>& state() const {
    return state_;
  }

 private:
  std::map<InodeNum, std::map<ClientId, OracleClient>> state_;
};

void check_table_invariants(const TokenManager& tm,
                            const std::vector<InodeNum>& inos) {
  std::size_t total = 0;
  for (InodeNum ino : inos) {
    const std::vector<Holding>& hs = tm.holdings(ino);
    total += hs.size();
    for (std::size_t i = 0; i < hs.size(); ++i) {
      ASSERT_LT(hs[i].range.lo, hs[i].range.hi) << "empty holding";
      if (i > 0) {
        ASSERT_LE(hs[i - 1].range.lo, hs[i].range.lo) << "not lo-sorted";
      }
      for (std::size_t j = i + 1; j < hs.size(); ++j) {
        if (hs[i].client == hs[j].client) continue;
        if (hs[i].mode == LockMode::ro && hs[j].mode == LockMode::ro) {
          continue;
        }
        ASSERT_FALSE(hs[i].range.overlaps(hs[j].range))
            << "incompatible inter-client overlap on ino " << ino;
      }
    }
  }
  ASSERT_EQ(tm.total_holdings(), total);
}

TEST(TokenProperty, RandomOpsAgreeWithByteSetOracle) {
  for (std::uint64_t seed : {1u, 42u, 1337u}) {
    TokenManager tm;
    Oracle oracle;
    Rng rng(seed);
    const std::vector<InodeNum> inos = {7, 9};
    constexpr Bytes kSpan = 1 << 14;  // small universe forces collisions

    auto rand_range = [&] {
      const Bytes a = rng.below(kSpan);
      const Bytes b = rng.below(kSpan);
      return TokenRange{std::min(a, b), std::max(a, b) + 1};
    };

    for (int op = 0; op < 2500; ++op) {
      const auto c = static_cast<ClientId>(rng.range(1, 4));
      const InodeNum ino = inos[rng.below(2)];
      const LockMode mode = rng.chance(0.5) ? LockMode::rw : LockMode::ro;
      const auto kind = static_cast<int>(rng.below(10));

      if (kind < 6) {  // request (sometimes with a wider desired range)
        const TokenRange range = rand_range();
        TokenRange desired = range;
        if (rng.chance(0.5)) {
          desired.lo = desired.lo > 512 ? desired.lo - 512 : 0;
          desired.hi = desired.hi + 512;
        }
        const std::set<ClientId> expect =
            oracle.conflicting(c, ino, range, mode);
        const bool others = oracle.others_hold_anything(c, ino);
        const OracleClient before = oracle.at(ino, c);  // pre-grant rights
        const TokenDecision d = tm.request(c, ino, range, desired, mode);

        ASSERT_EQ(d.granted, expect.empty()) << "seed " << seed << " op "
                                             << op;
        std::set<ClientId> got;
        for (const Holding& h : d.conflicts) got.insert(h.client);
        ASSERT_EQ(got, expect) << "conflict clients, seed " << seed
                               << " op " << op;
        for (const Holding& h : d.conflicts) {
          ASSERT_TRUE(h.range.overlaps(range)) << "phantom conflict";
          ASSERT_FALSE(h.mode == LockMode::ro && mode == LockMode::ro)
              << "ro/ro listed as a conflict";
        }
        if (d.granted) {
          ASSERT_TRUE(d.granted_range.contains(range));
          if (others) {
            // The grant may reach beyond `desired` only by absorbing
            // the requester's own pre-existing holdings.
            ByteSet own = before.ro;
            own.add_all(before.rw);
            if (d.granted_range.lo < desired.lo) {
              ASSERT_TRUE(own.covers(d.granted_range.lo, desired.lo))
                  << "grant extended below desired over foreign bytes";
            }
            if (desired.hi < d.granted_range.hi) {
              ASSERT_TRUE(own.covers(desired.hi, d.granted_range.hi))
                  << "grant extended above desired over foreign bytes";
            }
            // No granted byte may fall inside an incompatible holder.
            ASSERT_TRUE(oracle
                            .conflicting(c, ino, d.granted_range, mode)
                            .empty())
                << "granted bytes overlap an incompatible holding";
          } else {
            ASSERT_EQ(d.granted_range, (TokenRange{0, kWholeFile}));
          }
          oracle.on_grant(c, ino, d.granted_range, mode);
        }
      } else if (kind < 8) {  // release
        const TokenRange r = rand_range();
        tm.release(c, ino, r);
        oracle.on_release(c, ino, r);
      } else if (kind == 8) {  // install (blind, as in takeover rebuild)
        // Only install ranges the byte sets say are safe, mirroring the
        // trust model: clients reassert what they legitimately held.
        const TokenRange r = rand_range();
        if (oracle.conflicting(c, ino, r, mode).empty()) {
          tm.install(c, ino, mode, r);
          oracle.on_grant(c, ino, r, mode);
        }
      } else {  // release_all
        tm.release_all(c);
        oracle.on_release_all(c);
      }

      check_table_invariants(tm, inos);
      if (HasFatalFailure()) {
        FAIL() << "invariants broke at seed " << seed << " op " << op;
      }

      // holds() soundness (never claims rights the bytes don't back)
      // and rw completeness (contiguous rw coverage is one holding).
      const TokenRange probe = rand_range();
      const auto it = oracle.state().find(ino);
      if (it != oracle.state().end()) {
        for (const auto& [pc, s] : it->second) {
          if (tm.holds(pc, ino, probe, LockMode::rw)) {
            ASSERT_TRUE(s.rw.covers(probe.lo, probe.hi))
                << "holds(rw) unsound, seed " << seed << " op " << op;
          }
          if (tm.holds(pc, ino, probe, LockMode::ro)) {
            // A single covering holding is either ro (oracle's ro set is
            // a superset of the table's ro bytes) or rw.
            ASSERT_TRUE(s.ro.covers(probe.lo, probe.hi) ||
                        s.rw.covers(probe.lo, probe.hi))
                << "holds(ro) unsound, seed " << seed << " op " << op;
          }
          if (s.rw.covers(probe.lo, probe.hi)) {
            ASSERT_TRUE(tm.holds(pc, ino, probe, LockMode::rw))
                << "holds(rw) incomplete, seed " << seed << " op " << op;
          }
        }
      }
    }
  }
}

// HeldTokens, one client's token cache, against the same byte-set
// oracle: its rights are what it recorded minus what it trimmed, rw
// holdings stay maximal (an rw probe hits iff the rw bytes cover it),
// blocks() lists exactly the blocks the holdings cover whole, and the
// takeover clamp keeps exactly the rw bytes inside each dirty span and
// reports the rest as dropped.
TEST(TokenProperty, HeldTokensAgreeWithByteSetOracle) {
  constexpr Bytes kBs = 8;
  constexpr std::uint64_t kBlocks = 24;
  const std::vector<InodeNum> inos = {1, 2, 3, 4};
  for (std::uint64_t seed : {1u, 7u, 42u, 1337u}) {
    HeldTokens held;
    std::map<InodeNum, OracleClient> oracle;
    Rng rng(seed);
    auto rand_range = [&] {
      const Bytes lo = rng.below(kBlocks * kBs);
      const Bytes hi =
          rng.chance(0.05) ? kWholeFile : lo + 1 + rng.below(6 * kBs);
      return TokenRange{lo, hi};
    };
    auto any = [&](InodeNum ino) {
      ByteSet s = oracle[ino].ro;
      s.add_all(oracle[ino].rw);
      return s;
    };

    for (int op = 0; op < 1500; ++op) {
      const InodeNum ino = inos[rng.below(inos.size())];
      const auto kind = static_cast<int>(rng.below(20));
      if (kind < 10) {
        const LockMode mode = rng.chance(0.5) ? LockMode::rw : LockMode::ro;
        const TokenRange r = rand_range();
        held.record(ino, r, mode, rng.chance(0.5));
        (mode == LockMode::rw ? oracle[ino].rw : oracle[ino].ro)
            .add(r.lo, r.hi);
      } else if (kind < 17) {
        const TokenRange r = rand_range();
        held.trim(ino, r);
        oracle[ino].ro.sub(r.lo, r.hi);
        oracle[ino].rw.sub(r.lo, r.hi);
      } else if (kind < 19) {
        // Takeover of the odd or the even inodes; some have no dirty span.
        const InodeNum parity = rng.below(2);
        std::unordered_map<InodeNum, TokenRange> spans;
        for (InodeNum i : inos) {
          if (i % 2 == parity && rng.chance(0.7)) spans[i] = rand_range();
        }
        std::map<InodeNum, ByteSet> before;
        for (InodeNum i : inos) before[i] = any(i);
        const HeldTokens::Clamp c = held.clamp(
            [parity](InodeNum i) { return i % 2 == parity; }, spans);
        std::map<InodeNum, ByteSet> kept;
        std::map<InodeNum, ByteSet> dropped;
        for (const TokenAssertion& a : c.kept) {
          ASSERT_EQ(a.mode, LockMode::rw);
          ASSERT_FALSE(kept[a.ino].overlaps(a.range.lo, a.range.hi));
          kept[a.ino].add(a.range.lo, a.range.hi);
        }
        for (const auto& [i, r] : c.dropped) {
          ASSERT_FALSE(kept[i].overlaps(r.lo, r.hi)) << "dropped kept bytes";
          dropped[i].add(r.lo, r.hi);
        }
        for (InodeNum i : inos) {
          if (i % 2 != parity) {
            ASSERT_TRUE(kept[i].empty() && dropped[i].empty());
            continue;
          }
          ByteSet want;
          if (auto sp = spans.find(i); sp != spans.end()) {
            want = oracle[i].rw;
            want.sub(0, sp->second.lo);
            want.sub(sp->second.hi, kWholeFile);
          }
          ASSERT_EQ(kept[i], want) << "seed " << seed << " op " << op;
          ByteSet all = kept[i];
          all.add_all(dropped[i]);
          ASSERT_EQ(all, before[i]) << "clamp lost bytes, seed " << seed;
          oracle[i].ro.clear();
          oracle[i].rw = want;
        }
      } else {
        held.clear();
        oracle.clear();
      }

      for (InodeNum i : inos) {
        const ByteSet all = any(i);
        for (int k = 0; k < 6; ++k) {
          const TokenRange q = rand_range();
          const HeldTokens::Held* rw = held.covers(i, q, LockMode::rw);
          ASSERT_EQ(rw != nullptr, oracle[i].rw.covers(q.lo, q.hi))
              << "covers(rw), seed " << seed << " op " << op;
          if (rw != nullptr) {
            ASSERT_EQ(rw->mode, LockMode::rw);
            ASSERT_TRUE(rw->range.contains(q));
          }
          const HeldTokens::Held* ro = held.covers(i, q, LockMode::ro);
          if (ro != nullptr) {
            ASSERT_TRUE(ro->range.contains(q));
            ASSERT_TRUE(all.covers(q.lo, q.hi)) << "covers(ro) unsound";
          }
          if (rw != nullptr) {
            ASSERT_NE(ro, nullptr) << "ro probe refused an rw holding";
          }
        }
        const std::vector<BlockRange> bl = held.blocks(i, kBs);
        for (std::size_t k = 1; k < bl.size(); ++k) {
          ASSERT_LT(bl[k - 1].hi, bl[k].lo) << "blocks not sorted, disjoint";
        }
        for (std::uint64_t b = 0; b < kBlocks + 8; ++b) {
          const bool listed =
              std::any_of(bl.begin(), bl.end(), [b](const BlockRange& r) {
                return r.lo <= b && b < r.hi;
              });
          ASSERT_EQ(listed, all.covers(b * kBs, (b + 1) * kBs))
              << "blocks(), seed " << seed << " op " << op << " block " << b;
        }
      }
    }
  }
}

// The first holding that covers a probe is the one covers() reports:
// Client counts a batched-grant hit by its `widened` flag.
TEST(TokenProperty, HeldTokensFirstCoveringHoldingDecides) {
  HeldTokens held;
  held.record(5, {0, 100}, LockMode::rw, /*widened=*/false);
  held.record(5, {50, 150}, LockMode::ro, /*widened=*/true);
  const HeldTokens::Held* h = held.covers(5, {60, 70}, LockMode::ro);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->mode, LockMode::rw);
  EXPECT_FALSE(h->widened);
  h = held.covers(5, {120, 130}, LockMode::ro);
  ASSERT_NE(h, nullptr);
  EXPECT_TRUE(h->widened);
  EXPECT_EQ(held.covers(5, {120, 130}, LockMode::rw), nullptr);
}

}  // namespace
}  // namespace mgfs::gpfs
