#include "gpfs/pagepool.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace mgfs::gpfs {
namespace {

TEST(PagePool, InsertAndLookup) {
  PagePool p(4 * MiB, 1 * MiB);
  EXPECT_FALSE(p.contains({1, 0}));
  EXPECT_TRUE(p.insert_clean({1, 0}));
  EXPECT_TRUE(p.contains({1, 0}));
  EXPECT_FALSE(p.is_dirty({1, 0}));
  EXPECT_EQ(p.used(), 1 * MiB);
}

TEST(PagePool, LruEvictionOrder) {
  PagePool p(2 * MiB, 1 * MiB);  // two pages
  EXPECT_TRUE(p.insert_clean({1, 0}));
  EXPECT_TRUE(p.insert_clean({1, 1}));
  p.touch({1, 0});  // 1 is now LRU
  EXPECT_TRUE(p.insert_clean({1, 2}));
  EXPECT_TRUE(p.contains({1, 0}));
  EXPECT_FALSE(p.contains({1, 1}));
  EXPECT_EQ(p.evictions(), 1u);
}

TEST(PagePool, DirtyPagesArePinned) {
  PagePool p(2 * MiB, 1 * MiB);
  EXPECT_TRUE(p.insert_dirty({1, 0}));
  EXPECT_TRUE(p.insert_dirty({1, 1}));
  // Both pinned: nothing can come in.
  EXPECT_FALSE(p.insert_clean({1, 2}));
  p.mark_clean({1, 0});
  EXPECT_TRUE(p.insert_clean({1, 2}));
  EXPECT_FALSE(p.contains({1, 0}));  // the cleaned one got evicted
}

TEST(PagePool, DirtyAccounting) {
  PagePool p(8 * MiB, 1 * MiB);
  EXPECT_TRUE(p.insert_dirty({1, 0}));
  EXPECT_TRUE(p.insert_dirty({1, 1}));
  EXPECT_EQ(p.dirty_bytes(), 2 * MiB);
  // Re-dirtying is idempotent.
  EXPECT_TRUE(p.insert_dirty({1, 0}));
  EXPECT_EQ(p.dirty_bytes(), 2 * MiB);
  p.mark_clean({1, 0});
  EXPECT_EQ(p.dirty_bytes(), 1 * MiB);
  // Cleaning a clean page is a no-op.
  p.mark_clean({1, 0});
  EXPECT_EQ(p.dirty_bytes(), 1 * MiB);
}

TEST(PagePool, CleanUpgradesToDirty) {
  PagePool p(4 * MiB, 1 * MiB);
  EXPECT_TRUE(p.insert_clean({1, 0}));
  EXPECT_TRUE(p.insert_dirty({1, 0}));
  EXPECT_TRUE(p.is_dirty({1, 0}));
  EXPECT_EQ(p.dirty_bytes(), 1 * MiB);
  EXPECT_EQ(p.page_count(), 1u);
}

TEST(PagePool, DirtyListsPerInode) {
  PagePool p(8 * MiB, 1 * MiB);
  p.insert_dirty({1, 0});
  p.insert_dirty({2, 5});
  p.insert_dirty({1, 3});
  auto d1 = p.dirty_pages(1);
  EXPECT_EQ(d1.size(), 2u);
  EXPECT_EQ(p.all_dirty().size(), 3u);
}

TEST(PagePool, InvalidateDropsRange) {
  PagePool p(16 * MiB, 1 * MiB);
  for (std::uint64_t b = 0; b < 8; ++b) p.insert_clean({1, b});
  p.insert_clean({2, 3});
  const std::size_t dropped = p.invalidate(1, 2, 5);
  EXPECT_EQ(dropped, 3u);
  EXPECT_TRUE(p.contains({1, 1}));
  EXPECT_FALSE(p.contains({1, 2}));
  EXPECT_FALSE(p.contains({1, 4}));
  EXPECT_TRUE(p.contains({1, 5}));
  EXPECT_TRUE(p.contains({2, 3}));  // other inode untouched
}

TEST(PagePool, InvalidateFixesDirtyCount) {
  PagePool p(8 * MiB, 1 * MiB);
  p.insert_dirty({1, 0});
  p.insert_dirty({1, 1});
  p.invalidate(1, 0, 2);
  EXPECT_EQ(p.dirty_bytes(), 0u);
  EXPECT_EQ(p.page_count(), 0u);
}

TEST(PagePool, HitMissCounters) {
  PagePool p(2 * MiB, 1 * MiB);
  EXPECT_FALSE(p.lookup({1, 0}));
  p.insert_clean({1, 0});
  p.insert_clean({1, 1});
  EXPECT_TRUE(p.lookup({1, 0}));
  EXPECT_TRUE(p.lookup({1, 0}));
  EXPECT_EQ(p.misses(), 1u);
  EXPECT_EQ(p.hits(), 2u);
  // A hit is touched: the next insert evicts the other page.
  p.insert_clean({1, 2});
  EXPECT_TRUE(p.contains({1, 0}));
  EXPECT_FALSE(p.contains({1, 1}));
}

TEST(PagePool, InsertExistingTouches) {
  PagePool p(2 * MiB, 1 * MiB);
  p.insert_clean({1, 0});
  p.insert_clean({1, 1});
  p.insert_clean({1, 0});  // touch, not duplicate
  EXPECT_EQ(p.page_count(), 2u);
  p.insert_clean({1, 2});  // evicts {1,1} which is LRU now
  EXPECT_TRUE(p.contains({1, 0}));
  EXPECT_FALSE(p.contains({1, 1}));
}

class PagePoolChurn : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PagePoolChurn, NeverExceedsCapacity) {
  const std::size_t pages = GetParam();
  PagePool p(pages * MiB, 1 * MiB);
  Rng rng(pages);
  for (int i = 0; i < 5000; ++i) {
    const PageKey k{rng.below(3) + 1, rng.below(64)};
    if (rng.chance(0.7)) {
      p.insert_clean(k);
    } else if (rng.chance(0.5)) {
      if (!p.insert_dirty(k)) {
        // pinned solid: clean something
        auto d = p.all_dirty();
        for (const auto& key : d) p.mark_clean(key);
      }
    } else if (p.is_dirty(k)) {
      p.mark_clean(k);
    }
    ASSERT_LE(p.used(), p.capacity());
    ASSERT_LE(p.dirty_bytes(), p.used());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PagePoolChurn, ::testing::Values(2, 3, 8, 32));

}  // namespace
}  // namespace mgfs::gpfs
