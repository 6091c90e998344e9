// WriteBehind (the client's dirty-page queue) and CommitMarks, driven
// directly over a PagePool: no simulator, no RPC.
#include "gpfs/writebehind.hpp"

#include <gtest/gtest.h>

namespace mgfs::gpfs {
namespace {

/// One-copy placement at device block `block` of `nsd`.
BlockPlacement on(std::uint32_t nsd, std::uint64_t block) {
  BlockPlacement p;
  p.add(BlockAddr{nsd, block});
  return p;
}

std::vector<std::uint64_t> blocks_of(const NsdRun& run) {
  std::vector<std::uint64_t> out;
  for (const BlockFetch& f : run.items) out.push_back(f.key.block);
  return out;
}

TEST(WriteBehind, CoalescesSameNsdWithinScanDepth) {
  PagePool pool(64 * MiB, 4 * KiB);
  WriteBehind wb(pool);
  // Head on NSD 0, then kFlushScan - 1 pages on NSD 1: the next NSD 0
  // page is the last one the scan looks at, the one after it is not.
  std::uint64_t b = 0;
  ASSERT_TRUE(wb.enqueue({1, b}, on(0, b)));
  for (++b; b < WriteBehind::kFlushScan; ++b) {
    ASSERT_TRUE(wb.enqueue({1, b}, on(1, b)));
  }
  const std::uint64_t inside = b++;
  const std::uint64_t beyond = b;
  ASSERT_TRUE(wb.enqueue({1, inside}, on(0, inside)));
  ASSERT_TRUE(wb.enqueue({1, beyond}, on(0, beyond)));
  std::optional<NsdRun> run = wb.next_run();
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->nsd, 0u);
  EXPECT_EQ(blocks_of(*run), (std::vector<std::uint64_t>{0, inside}));
}

TEST(WriteBehind, CoalescesAtMostTheCapPerRun) {
  PagePool pool(64 * MiB, 4 * KiB);
  WriteBehind wb(pool);
  for (std::uint64_t b = 0; b < 2 * kCoalesceBlocks + 1; ++b) {
    ASSERT_TRUE(wb.enqueue({1, b}, on(2, 100 + b)));
  }
  for (std::size_t want : {kCoalesceBlocks, kCoalesceBlocks, std::size_t{1}}) {
    std::optional<NsdRun> run = wb.next_run();
    ASSERT_TRUE(run.has_value());
    EXPECT_EQ(run->items.size(), want);
    EXPECT_EQ(run->extents.size(), 1u);  // device-adjacent: one extent
  }
  EXPECT_FALSE(wb.next_run().has_value());
}

TEST(WriteBehind, AnchorSkipsDivergentPrimary) {
  PagePool pool(64 * MiB, 4 * KiB);
  WriteBehind wb(pool);
  BlockPlacement two = on(0, 10);
  two.add(BlockAddr{1, 20});
  two.divergent = 1;  // the primary missed a write
  ASSERT_TRUE(wb.enqueue({1, 0}, two));
  ASSERT_TRUE(wb.enqueue({1, 1}, on(1, 21)));  // coalesces on NSD 1
  std::optional<NsdRun> run = wb.next_run();
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->nsd, 1u);
  ASSERT_EQ(run->items.size(), 2u);
  EXPECT_EQ(run->items[0].copy, 1);
  EXPECT_EQ(run->items[0].addr.block, 20u);
  EXPECT_EQ(run->extents.size(), 1u);
}

TEST(WriteBehind, BusyUntilNoDirtyPageAndNothingInFlight) {
  PagePool pool(64 * MiB, 4 * KiB);
  WriteBehind wb(pool);
  const PageKey key{7, 0};
  bool flushed = false;
  ASSERT_TRUE(wb.enqueue(key, on(0, 0)));
  EXPECT_TRUE(wb.busy(7));  // dirty, not yet in flight
  wb.wait(7, [&] { flushed = true; });
  ASSERT_TRUE(wb.next_run().has_value());
  // In flight but no longer dirty (the page was dropped under it).
  pool.invalidate(7, 0, 1);
  EXPECT_TRUE(wb.busy(7));
  wb.settle();
  EXPECT_FALSE(flushed);
  EXPECT_FALSE(wb.landed(key));  // releases the flight, then settles
  EXPECT_FALSE(wb.busy(7));
  EXPECT_TRUE(flushed);
  EXPECT_FALSE(wb.busy(8));
}

TEST(WriteBehind, SettleUnstallsWritersOnlyUnderMaxDirty) {
  const Bytes page = 1 * MiB;
  PagePool pool(2 * WriteBehind::kMaxDirty, page);
  WriteBehind wb(pool);
  const std::uint64_t pages = WriteBehind::kMaxDirty / page + 1;
  for (std::uint64_t b = 0; b < pages; ++b) {
    ASSERT_TRUE(wb.enqueue({1, b}, on(0, b)));
  }
  int resumed = 0;
  wb.stall([&] { ++resumed; });
  wb.settle();
  EXPECT_EQ(resumed, 0);  // one page over the cap
  std::optional<NsdRun> run = wb.next_run();
  ASSERT_TRUE(run.has_value());
  EXPECT_FALSE(wb.landed(run->items.front().key));
  EXPECT_EQ(pool.dirty_bytes(), WriteBehind::kMaxDirty);
  EXPECT_EQ(resumed, 1);  // at the cap: no longer over it
  wb.settle();
  EXPECT_EQ(resumed, 1);
}

TEST(WriteBehind, PageRedirtiedInFlightIsRequeued) {
  PagePool pool(64 * MiB, 4 * KiB);
  WriteBehind wb(pool);
  const PageKey key{3, 5};
  ASSERT_TRUE(wb.enqueue(key, on(0, 5)));
  ASSERT_TRUE(wb.next_run().has_value());
  ASSERT_TRUE(wb.enqueue(key, on(0, 5)));  // written again mid-flight
  EXPECT_FALSE(wb.next_run().has_value());  // one flight per page
  EXPECT_TRUE(wb.landed(key));
  EXPECT_TRUE(pool.is_dirty(key));
  std::optional<NsdRun> again = wb.next_run();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(blocks_of(*again), (std::vector<std::uint64_t>{5}));
  EXPECT_FALSE(wb.landed(key));
  EXPECT_FALSE(pool.is_dirty(key));
  EXPECT_FALSE(wb.busy(3));
}

TEST(WriteBehind, RepeatedAnchorFailureDivorcesOnlyWithAnotherCleanCopy) {
  PagePool pool(64 * MiB, 4 * KiB);
  WriteBehind wb(pool);
  BlockPlacement two = on(0, 10);
  two.add(BlockAddr{1, 20});
  const PageKey solo{1, 0};
  const PageKey pair{1, 1};
  ASSERT_TRUE(wb.enqueue(solo, on(2, 0)));  // never coalesces with `pair`
  ASSERT_TRUE(wb.enqueue(pair, two));
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(wb.next_run().has_value());
    ASSERT_TRUE(wb.next_run().has_value());
    EXPECT_FALSE(wb.anchor_failed(solo, 0));
    EXPECT_EQ(wb.anchor_failed(pair, 0), i == 3);
    EXPECT_TRUE(wb.requeue(solo));
    EXPECT_TRUE(wb.requeue(pair));
  }
  pool.invalidate(1, 0, 1);
  EXPECT_FALSE(wb.requeue(solo));  // no longer dirty: forgotten
  EXPECT_EQ(wb.placement(solo), nullptr);
}

TEST(CommitMarks, LaterWriteOrWritePastSizeKeepsTheMark) {
  CommitMarks marks;
  EXPECT_EQ(marks.pending(1), 0u);
  marks.mark(1, 0, 4 * KiB);
  const std::uint64_t seq = marks.pending(1);
  EXPECT_GT(seq, 0u);
  marks.mark(1, 0, 4 * KiB);  // begins after the fsync took `seq`
  marks.settle(1, seq, 4 * KiB);
  EXPECT_NE(marks.pending(1), 0u);
  marks.settle(1, marks.pending(1), 4 * KiB);
  EXPECT_EQ(marks.pending(1), 0u);

  marks.mark(2, 0, 8 * KiB);  // past the size the commit carries
  marks.settle(2, marks.pending(2), 4 * KiB);
  EXPECT_NE(marks.pending(2), 0u);
  marks.settle(2, marks.pending(2), 8 * KiB);
  EXPECT_EQ(marks.pending(2), 0u);
}

TEST(CommitMarks, WrittenSpansTheLowestToTheHighestByteSinceTheCommit) {
  CommitMarks marks;
  EXPECT_EQ(marks.written(1, 4 * KiB).hi, 0u);  // nothing written
  marks.mark(1, 9 * KiB, 10 * KiB);
  marks.mark(1, 20 * KiB, 21 * KiB);
  const BlockRange w = marks.written(1, 4 * KiB);
  EXPECT_EQ(w.lo, 2u);
  EXPECT_EQ(w.hi, 6u);
  marks.settle(1, marks.pending(1), 21 * KiB);
  EXPECT_EQ(marks.written(1, 4 * KiB).hi, 0u);
}

}  // namespace
}  // namespace mgfs::gpfs
