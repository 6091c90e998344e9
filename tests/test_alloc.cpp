#include "gpfs/alloc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>

#include "common/rng.hpp"

namespace mgfs::gpfs {
namespace {

TEST(AllocationMap, CountsStartFull) {
  AllocationMap m({100, 200, 300});
  EXPECT_EQ(m.nsd_count(), 3u);
  EXPECT_EQ(m.total_capacity(), 600u);
  EXPECT_EQ(m.total_free(), 600u);
  EXPECT_EQ(m.free_blocks(2), 300u);
}

TEST(AllocationMap, AllocateOnTracksUsage) {
  AllocationMap m({10});
  auto a = m.allocate_on(0);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->nsd, 0u);
  EXPECT_TRUE(m.is_allocated(*a));
  EXPECT_EQ(m.free_blocks(0), 9u);
}

TEST(AllocationMap, NoDoubleAllocation) {
  AllocationMap m({64});
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 64; ++i) {
    auto a = m.allocate_on(0);
    ASSERT_TRUE(a.ok());
    EXPECT_TRUE(seen.insert(a->block).second) << "block " << a->block;
  }
  EXPECT_EQ(m.allocate_on(0).code(), Errc::no_space);
}

TEST(AllocationMap, NonMultipleOf64Capacity) {
  AllocationMap m({70});
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 70; ++i) {
    auto a = m.allocate_on(0);
    ASSERT_TRUE(a.ok()) << "i=" << i;
    EXPECT_LT(a->block, 70u);
    EXPECT_TRUE(seen.insert(a->block).second);
  }
  EXPECT_EQ(m.allocate_on(0).code(), Errc::no_space);
}

TEST(AllocationMap, FreeMakesBlockReusable) {
  AllocationMap m({1});
  auto a = m.allocate_on(0);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(m.allocate_on(0).code(), Errc::no_space);
  ASSERT_TRUE(m.free_block(*a).ok());
  EXPECT_FALSE(m.is_allocated(*a));
  EXPECT_TRUE(m.allocate_on(0).ok());
}

TEST(AllocationMap, DoubleFreeRejected) {
  AllocationMap m({4});
  auto a = m.allocate_on(0);
  ASSERT_TRUE(m.free_block(*a).ok());
  EXPECT_EQ(m.free_block(*a).code(), Errc::invalid_argument);
}

TEST(AllocationMap, FreeBogusAddressRejected) {
  AllocationMap m({4});
  EXPECT_EQ(m.free_block({5, 0}).code(), Errc::invalid_argument);
  EXPECT_EQ(m.free_block({0, 99}).code(), Errc::invalid_argument);
}

TEST(AllocationMap, StripedRoundRobin) {
  AllocationMap m({10, 10, 10, 10});
  auto blocks = m.allocate_striped(1, 8);
  ASSERT_TRUE(blocks.ok());
  ASSERT_EQ(blocks->size(), 8u);
  // Starting at NSD 1, wrapping: 1,2,3,0,1,2,3,0.
  const std::uint32_t expect[] = {1, 2, 3, 0, 1, 2, 3, 0};
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ((*blocks)[i].nsd, expect[i]) << "i=" << i;
  }
}

TEST(AllocationMap, StripedFallsBackWhenPreferredFull) {
  AllocationMap m({2, 100});
  // Fill NSD 0.
  ASSERT_TRUE(m.allocate_on(0).ok());
  ASSERT_TRUE(m.allocate_on(0).ok());
  auto blocks = m.allocate_striped(0, 4);
  ASSERT_TRUE(blocks.ok());
  for (const auto& b : *blocks) EXPECT_EQ(b.nsd, 1u);
}

TEST(AllocationMap, StripedAllOrNothing) {
  AllocationMap m({2, 2});
  auto blocks = m.allocate_striped(0, 5);  // only 4 available
  ASSERT_FALSE(blocks.ok());
  EXPECT_EQ(blocks.code(), Errc::no_space);
  EXPECT_EQ(m.total_free(), 4u);  // nothing leaked
}

TEST(AllocationMap, RotorKeepsAllocationsMostlySequential) {
  AllocationMap m({1000});
  auto a = m.allocate_on(0);
  auto b = m.allocate_on(0);
  auto c = m.allocate_on(0);
  EXPECT_EQ(b->block, a->block + 1);
  EXPECT_EQ(c->block, b->block + 1);
}

class AllocStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllocStress, AllocFreeChurnPreservesInvariants) {
  const std::uint64_t cap = GetParam();
  AllocationMap m({cap, cap});
  std::vector<BlockAddr> live;
  Rng rng(cap);
  for (int round = 0; round < 2000; ++round) {
    if (live.empty() || (rng.chance(0.6) && m.total_free() > 0)) {
      auto a = m.allocate_on(static_cast<std::uint32_t>(rng.below(2)));
      if (a.ok()) live.push_back(*a);
    } else {
      const std::size_t i = rng.below(live.size());
      ASSERT_TRUE(m.free_block(live[i]).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    }
    ASSERT_EQ(m.total_free(), 2 * cap - live.size());
  }
  for (const auto& b : live) EXPECT_TRUE(m.is_allocated(b));
}

INSTANTIATE_TEST_SUITE_P(Capacities, AllocStress,
                         ::testing::Values(17, 64, 65, 130, 1024));

// --- two-level bitmap (summary word per 64 bitmap words) --------------

TEST(AllocationMap, SummarySkipsLongFullRuns) {
  // > 64 bitmap words so the summary level spans multiple groups.
  constexpr std::uint64_t kCap = 70 * 64;  // 4480 blocks, 70 words
  AllocationMap m(std::vector<std::uint64_t>{kCap});
  for (std::uint64_t i = 0; i < kCap; ++i) {
    ASSERT_TRUE(m.allocate_on(0).ok());
  }
  EXPECT_EQ(m.allocate_on(0).code(), Errc::no_space);
  // Free one block in the middle of the full map: the next allocation
  // must find it from a wrapped rotor, across the full-word run.
  ASSERT_TRUE(m.free_block({0, 2048}).ok());
  auto a = m.allocate_on(0);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->block, 2048u);
  EXPECT_EQ(m.allocate_on(0).code(), Errc::no_space);
}

TEST(AllocationMap, TailBitsNeverAllocatedEvenAfterFreeChurn) {
  // Capacity straddling a word boundary by one bit: the 63 tail bits of
  // the final word must stay unusable through full drain/refill cycles.
  constexpr std::uint64_t kCap = 65;
  AllocationMap m(std::vector<std::uint64_t>{kCap});
  for (int cycle = 0; cycle < 3; ++cycle) {
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < kCap; ++i) {
      auto a = m.allocate_on(0);
      ASSERT_TRUE(a.ok()) << "cycle " << cycle << " i " << i;
      EXPECT_LT(a->block, kCap);
      EXPECT_TRUE(seen.insert(a->block).second);
    }
    EXPECT_EQ(m.allocate_on(0).code(), Errc::no_space);
    for (std::uint64_t b : seen) ASSERT_TRUE(m.free_block({0, b}).ok());
    EXPECT_EQ(m.free_blocks(0), kCap);
  }
}

TEST(AllocationMap, SummaryReopensFreedWordAtRotor) {
  AllocationMap m(std::vector<std::uint64_t>{256});
  // Fill everything, then free a scattered set; allocations must hand
  // back exactly the freed set (in rotor order) and then run dry.
  for (int i = 0; i < 256; ++i) ASSERT_TRUE(m.allocate_on(0).ok());
  const std::uint64_t freed[] = {0, 63, 64, 127, 128, 200, 255};
  for (std::uint64_t b : freed) ASSERT_TRUE(m.free_block({0, b}).ok());
  std::set<std::uint64_t> got;
  for (std::size_t i = 0; i < std::size(freed); ++i) {
    auto a = m.allocate_on(0);
    ASSERT_TRUE(a.ok());
    got.insert(a->block);
  }
  EXPECT_EQ(got, std::set<std::uint64_t>(std::begin(freed), std::end(freed)));
  EXPECT_EQ(m.allocate_on(0).code(), Errc::no_space);
}

// --- paged bitmap ------------------------------------------------------

constexpr std::uint64_t kPageBlocks = AllocationMap::kPageWords * 64;

/// Dense reference allocator: the same next-fit rule (the first bitmap
/// word at or after the rotor's word that has a free block, cyclically,
/// then that word's lowest free block) over one std::vector<bool> per
/// NSD, plus which bitmap pages have ever held a block in use.
class DenseAlloc {
 public:
  explicit DenseAlloc(const std::vector<std::uint64_t>& caps) {
    for (std::uint64_t cap : caps) {
      Nsd n;
      n.used.assign(cap, false);
      n.touched.assign((cap + kPageBlocks - 1) / kPageBlocks, false);
      // The pre-marked tail word puts the last page in use at once.
      if (cap % 64 != 0) n.touched.back() = true;
      nsds_.push_back(std::move(n));
    }
  }

  std::uint64_t total_free() const {
    std::uint64_t t = 0;
    for (const Nsd& n : nsds_) t += n.used.size() - n.in_use;
    return t;
  }

  std::optional<BlockAddr> allocate_on(std::uint32_t nsd) {
    Nsd& n = nsds_[nsd];
    const std::uint64_t cap = n.used.size();
    if (n.in_use == cap) return std::nullopt;
    const std::uint64_t words = (cap + 63) / 64;
    for (std::uint64_t k = 0; k < words; ++k) {
      const std::uint64_t w = (n.rotor / 64 + k) % words;
      for (std::uint64_t b = w * 64; b < std::min(cap, w * 64 + 64); ++b) {
        if (n.used[b]) continue;
        n.used[b] = true;
        n.touched[b / kPageBlocks] = true;
        ++n.in_use;
        n.rotor = b + 1 < cap ? b + 1 : 0;
        return BlockAddr{nsd, b};
      }
    }
    ADD_FAILURE() << "reference lost a free block";
    return std::nullopt;
  }

  std::optional<std::vector<BlockAddr>> allocate_striped(std::uint32_t first,
                                                         std::size_t count) {
    if (total_free() < count) return std::nullopt;
    const auto n = static_cast<std::uint32_t>(nsds_.size());
    std::vector<BlockAddr> out;
    for (std::size_t i = 0; i < count; ++i) {
      std::optional<BlockAddr> b;
      for (std::uint32_t k = 0; k < n && !b; ++k) {
        b = allocate_on(static_cast<std::uint32_t>((first + i + k) % n));
      }
      if (!b) return std::nullopt;
      out.push_back(*b);
    }
    return out;
  }

  void free_block(BlockAddr a) {
    Nsd& n = nsds_[a.nsd];
    ASSERT_TRUE(n.used[a.block]);
    n.used[a.block] = false;
    --n.in_use;
  }

  bool is_allocated(BlockAddr a) const { return nsds_[a.nsd].used[a.block]; }

  std::size_t touched_pages() const {
    std::size_t t = 0;
    for (const Nsd& n : nsds_) {
      t += static_cast<std::size_t>(
          std::count(n.touched.begin(), n.touched.end(), true));
    }
    return t;
  }

 private:
  struct Nsd {
    std::vector<bool> used;
    std::vector<bool> touched;
    std::uint64_t in_use = 0;
    std::uint64_t rotor = 0;
  };
  std::vector<Nsd> nsds_;
};

void expect_same_state(const AllocationMap& m, const DenseAlloc& ref,
                       const std::vector<std::uint64_t>& caps) {
  ASSERT_EQ(m.total_free(), ref.total_free());
  EXPECT_EQ(m.allocated_blocks(), m.total_capacity() - m.total_free());
  EXPECT_EQ(m.resident_pages(), ref.touched_pages());
  for (std::uint32_t d = 0; d < caps.size(); ++d) {
    for (std::uint64_t b = 0; b < caps[d]; ++b) {
      ASSERT_EQ(m.is_allocated({d, b}), ref.is_allocated({d, b}))
          << "nsd " << d << " block " << b;
    }
  }
}

class PagedAllocDiff : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PagedAllocDiff, SameAddressSequenceAsDenseBitmap) {
  const std::vector<std::uint64_t> caps(3, GetParam());
  AllocationMap m(caps);
  DenseAlloc ref(caps);
  Rng rng(GetParam() * 7 + 1);
  std::vector<BlockAddr> live;
  // Churn that fills the map to ~90% and then hovers there, so the rotor
  // wraps a nearly full map many times and walks every page.
  const std::uint64_t total = 3 * GetParam();
  const std::uint64_t ops = 3 * total + 2000;
  const std::uint64_t checkpoint = ops / 8 + 1;
  for (std::uint64_t op = 0; op < ops; ++op) {
    const double p_alloc =
        static_cast<double>(live.size()) < 0.9 * total ? 0.8 : 0.3;
    const double dice = rng.uniform();
    if (dice < 0.6 * p_alloc) {
      const auto nsd = static_cast<std::uint32_t>(rng.below(caps.size()));
      auto got = m.allocate_on(nsd);
      auto want = ref.allocate_on(nsd);
      ASSERT_EQ(got.ok(), want.has_value()) << "op " << op;
      if (want) {
        ASSERT_EQ(*got, *want) << "op " << op;
        live.push_back(*want);
      }
    } else if (dice < p_alloc) {
      const auto first = static_cast<std::uint32_t>(rng.below(caps.size()));
      const std::size_t n = 1 + rng.below(8);
      auto got = m.allocate_striped(first, n);
      auto want = ref.allocate_striped(first, n);
      ASSERT_EQ(got.ok(), want.has_value()) << "op " << op;
      if (want) {
        ASSERT_EQ(*got, *want) << "op " << op;
        live.insert(live.end(), want->begin(), want->end());
      }
    } else if (!live.empty()) {
      const std::size_t i = rng.below(live.size());
      ASSERT_TRUE(m.free_block(live[i]).ok()) << "op " << op;
      ref.free_block(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
    if (op % checkpoint == 0) {
      expect_same_state(m, ref, caps);
      if (HasFatalFailure()) return;
    }
  }
  expect_same_state(m, ref, caps);
}

INSTANTIATE_TEST_SUITE_P(
    Capacities, PagedAllocDiff,
    ::testing::Values(1, 63, 64, 65, kPageBlocks - 64, kPageBlocks + 64,
                      3 * kPageBlocks + 17));

TEST(AllocationMapPaging, PagesFollowTheBlocksInUse) {
  // Four 2^32-block NSDs: a dense bitmap would be 2 GiB. A thousand
  // striped blocks land in the first page of each.
  constexpr std::uint64_t kCap = 1ULL << 32;
  AllocationMap m(std::vector<std::uint64_t>(4, kCap));
  EXPECT_EQ(m.resident_pages(), 0u);
  std::vector<BlockAddr> got;
  for (std::uint32_t i = 0; i < 250; ++i) {
    auto blocks = m.allocate_striped(i % 4, 4);
    ASSERT_TRUE(blocks.ok());
    got.insert(got.end(), blocks->begin(), blocks->end());
  }
  EXPECT_EQ(m.total_free(), 4 * kCap - 1000);
  EXPECT_EQ(m.allocated_blocks(), 1000u);
  EXPECT_EQ(m.resident_pages(), 4u);
  // Reads and no-op frees of never-written pages materialize nothing.
  EXPECT_FALSE(m.is_allocated({3, kCap - 1}));
  EXPECT_FALSE(m.is_allocated({0, kCap / 2}));
  EXPECT_EQ(m.free_block({1, kCap / 3}).code(), Errc::invalid_argument);
  EXPECT_EQ(m.resident_pages(), 4u);
  for (const BlockAddr& a : got) ASSERT_TRUE(m.free_block(a).ok());
  EXPECT_EQ(m.total_free(), 4 * kCap);
  EXPECT_EQ(m.allocated_blocks(), 0u);
}

TEST(AllocationMapPaging, TailWordIsWrittenAtConstruction) {
  // The final word's pre-marked bits are the only write a fresh map
  // makes: one page for a ragged capacity, none for a multiple of 64.
  EXPECT_EQ(AllocationMap({64, 128}).resident_pages(), 0u);
  AllocationMap ragged({65, 3 * kPageBlocks + 1});
  EXPECT_EQ(ragged.resident_pages(), 2u);
  EXPECT_EQ(ragged.allocated_blocks(), 0u);
  EXPECT_FALSE(ragged.is_allocated({1, 3 * kPageBlocks}));
}

TEST(AllocationMapPaging, FreshPagesReadAsFreeAfterEarlierMapsDie) {
  // Fill and drop maps repeatedly so a new map's pages are likely to
  // reuse memory that held all-ones words: every fresh page must still
  // read as free.
  for (int round = 0; round < 4; ++round) {
    {
      AllocationMap full({4 * kPageBlocks});
      for (std::uint64_t i = 0; i < 4 * kPageBlocks; ++i) {
        ASSERT_TRUE(full.allocate_on(0).ok());
      }
    }
    AllocationMap fresh({4 * kPageBlocks});
    auto a = fresh.allocate_on(0);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a->block, 0u);
    EXPECT_EQ(fresh.allocated_blocks(), 1u);
    EXPECT_FALSE(fresh.is_allocated({0, 1}));
    EXPECT_FALSE(fresh.is_allocated({0, kPageBlocks - 1}));
  }
}

}  // namespace
}  // namespace mgfs::gpfs
