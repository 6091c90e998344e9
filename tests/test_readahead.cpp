#include "gpfs/readahead.hpp"

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

namespace mgfs::gpfs {
namespace {

// ---------------------------------------------------------------------------
// ReadaheadRamp: the sequential detector / window state machine
// ---------------------------------------------------------------------------

TEST(ReadaheadRamp, StartsAtMinAndDoublesToCap) {
  ReadaheadRamp r(4, 32);
  // First access from offset zero counts as the start of a stream.
  EXPECT_EQ(r.on_access(0, 1), 4u);
  EXPECT_EQ(r.on_access(2, 3), 8u);
  EXPECT_EQ(r.on_access(4, 5), 16u);
  EXPECT_EQ(r.on_access(6, 7), 32u);
  // Capped: further confirmations hold the window at max.
  EXPECT_EQ(r.on_access(8, 9), 32u);
  EXPECT_EQ(r.window(), 32u);
  EXPECT_EQ(r.hits(), 5u);
}

TEST(ReadaheadRamp, SeekCollapsesWindowAndReArms) {
  ReadaheadRamp r(4, 32);
  EXPECT_EQ(r.on_access(0, 0), 4u);
  EXPECT_EQ(r.on_access(1, 1), 8u);
  // Jump far away: the window collapses and hits reset.
  EXPECT_EQ(r.on_access(100, 100), 0u);
  EXPECT_EQ(r.window(), 0u);
  EXPECT_EQ(r.hits(), 0u);
  // Continuing from the seek point re-ramps, but the completed run
  // before the seek (2 blocks) predicts this run's length: the window
  // stays clamped at the predicted boundary (block 102)...
  EXPECT_EQ(r.on_access(101, 101), 0u);
  // ...until the run outgrows the prediction, which clears it.
  EXPECT_EQ(r.on_access(102, 102), 8u);
  EXPECT_EQ(r.on_access(103, 103), 16u);
}

TEST(ReadaheadRamp, StridedPatternClampsAtRegionBoundary) {
  ReadaheadRamp r(4, 32);
  // MPI-IO shape: 8-block runs, run starts 64 blocks apart.
  for (std::uint64_t b = 0; b < 8; ++b) r.on_access(b, b);  // run 1 @ 0
  EXPECT_EQ(r.on_access(64, 64), 0u);  // seek: stride not yet confirmed
  // The completed 8-block run predicts this run ends at block 72: the
  // returned window never reaches past the boundary.
  EXPECT_EQ(r.on_access(65, 65), 4u);  // window 4 < 6 blocks to boundary
  EXPECT_EQ(r.on_access(66, 66), 5u);  // window 8 clamped to 72 - 67
  EXPECT_EQ(r.on_access(67, 67), 4u);
  EXPECT_EQ(r.on_access(68, 68), 3u);
  EXPECT_EQ(r.on_access(69, 69), 2u);
  EXPECT_EQ(r.on_access(70, 70), 1u);
  EXPECT_EQ(r.on_access(71, 71), 0u);  // at the boundary: zero overshoot
}

TEST(ReadaheadRamp, StridedSeekRecognizedAsContinuation) {
  ReadaheadRamp r(4, 32);
  for (std::uint64_t b = 0; b < 8; ++b) r.on_access(b, b);      // run 1 @ 0
  for (std::uint64_t b = 64; b < 72; ++b) r.on_access(b, b);    // run 2 @ 64
  for (std::uint64_t b = 128; b < 136; ++b) r.on_access(b, b);  // run 3 @ 128
  // Two equal gaps confirm the stride; the detector now names the next
  // run's start so the client can prefetch across the boundary.
  EXPECT_EQ(r.predicted_next_run(), 192u);
  EXPECT_EQ(r.expected_run_len(), 8u);
  // The seek to the predicted start is a continuation, not a collapse:
  // the fully-ramped window survives, clamped to the 8-block run (7
  // blocks remain past this access).
  EXPECT_EQ(r.on_access(192, 192), 7u);
  EXPECT_EQ(r.hits(), 8u);
  EXPECT_EQ(r.window(), 32u);
}

TEST(ReadaheadRamp, NonZeroColdStartIsNotSequential) {
  ReadaheadRamp r(4, 32);
  // First access landing mid-file gives no window...
  EXPECT_EQ(r.on_access(10, 11), 0u);
  // ...but a continuation confirms the stream.
  EXPECT_EQ(r.on_access(12, 13), 4u);
}

TEST(ReadaheadRamp, BackwardSeekAlsoCollapses) {
  ReadaheadRamp r(4, 64);
  EXPECT_EQ(r.on_access(0, 7), 4u);
  EXPECT_EQ(r.on_access(8, 15), 8u);
  EXPECT_EQ(r.on_access(0, 7), 0u);  // re-read from the start: a seek
  EXPECT_EQ(r.hits(), 0u);
}

TEST(ReadaheadRamp, MinClampedToMax) {
  ReadaheadRamp r(16, 8);  // misconfigured: min above max
  EXPECT_EQ(r.on_access(0, 0), 8u);
  EXPECT_EQ(r.on_access(1, 1), 8u);
}

TEST(ReadaheadRamp, DefaultConstructedStaysClosed) {
  ReadaheadRamp r;
  EXPECT_EQ(r.on_access(0, 0), 0u);
  EXPECT_EQ(r.on_access(1, 1), 0u);
}

TEST(ReadaheadRamp, SeekFlagOnlyOnRealSeeks) {
  ReadaheadRamp cold(4, 32);
  cold.on_access(10, 11);  // cold first access, even mid-file
  EXPECT_FALSE(cold.seeked());

  ReadaheadRamp r(4, 32);
  r.on_access(0, 0);
  EXPECT_FALSE(r.seeked());
  r.on_access(1, 1);  // sequential hit
  EXPECT_FALSE(r.seeked());
  r.on_access(100, 100);  // real seek
  EXPECT_TRUE(r.seeked());
  r.on_access(101, 101);  // sequential again, clears the flag
  EXPECT_FALSE(r.seeked());
  r.on_access(0, 0);  // backward seek
  EXPECT_TRUE(r.seeked());
}

TEST(ReadaheadRamp, SeekFlagClearOnStridedContinuationAndBoundaryClamp) {
  ReadaheadRamp r(4, 32);
  for (std::uint64_t b = 0; b < 8; ++b) r.on_access(b, b);      // run 1 @ 0
  for (std::uint64_t b = 64; b < 72; ++b) r.on_access(b, b);    // run 2 @ 64
  for (std::uint64_t b = 128; b < 135; ++b) r.on_access(b, b);  // run 3 @ 128
  // The last block of the run: the clamp leaves no window, but the
  // access is sequential, not a seek.
  EXPECT_EQ(r.on_access(135, 135), 0u);
  EXPECT_FALSE(r.seeked());
  // The jump to the predicted next run is a strided continuation.
  EXPECT_EQ(r.predicted_next_run(), 192u);
  EXPECT_GT(r.on_access(192, 192), 0u);
  EXPECT_FALSE(r.seeked());
}

TEST(ReadaheadRamp, RandomOnlyOnASeekThatEndsNoSequentialRun) {
  ReadaheadRamp r(4, 32);
  r.on_access(10, 10);  // cold first access mid-file: not a seek
  EXPECT_FALSE(r.random());
  r.on_access(50, 50);  // a seek right after it
  EXPECT_TRUE(r.random());
  r.on_access(7, 7);  // and another
  EXPECT_TRUE(r.random());
  r.on_access(8, 8);  // sequential
  EXPECT_FALSE(r.random());
  r.on_access(90, 90);  // a seek that ends a sequential run
  EXPECT_TRUE(r.seeked());
  EXPECT_FALSE(r.random());

  // A strided stream whose runs span several accesses seeks after every
  // run, before and after the detector confirms, but never looks random.
  ReadaheadRamp s(4, 32);
  for (std::uint64_t run = 0; run < 4; ++run) {
    for (std::uint64_t b = run * 64; b < run * 64 + 4; ++b) {
      s.on_access(b, b);
      EXPECT_FALSE(s.random()) << b;
    }
  }
}

// ---------------------------------------------------------------------------
// build_nsd_runs: coalescing planner
// ---------------------------------------------------------------------------

BlockFetch bf(InodeNum ino, std::uint64_t fb, std::uint32_t nsd,
              std::uint64_t dev_block) {
  return BlockFetch{PageKey{ino, fb}, BlockAddr{nsd, dev_block}};
}

TEST(BuildNsdRuns, GroupsByNsdPreservingFirstSeenOrder) {
  auto runs = build_nsd_runs(
      {bf(1, 0, 2, 10), bf(1, 1, 0, 20), bf(1, 2, 2, 11), bf(1, 3, 0, 21)},
      8);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].nsd, 2u);
  EXPECT_EQ(runs[1].nsd, 0u);
  EXPECT_EQ(runs[0].items.size(), 2u);
  EXPECT_EQ(runs[1].items.size(), 2u);
}

TEST(BuildNsdRuns, MergesDeviceAdjacentBlocksIntoOneExtent) {
  // Out-of-order arrival of device blocks 5,3,4 on one NSD: sorted and
  // merged into a single 3-block extent.
  auto runs =
      build_nsd_runs({bf(1, 7, 1, 5), bf(1, 5, 1, 3), bf(1, 6, 1, 4)}, 8);
  ASSERT_EQ(runs.size(), 1u);
  ASSERT_EQ(runs[0].extents.size(), 1u);
  EXPECT_EQ(runs[0].extents[0].block, 3u);
  EXPECT_EQ(runs[0].extents[0].count, 3u);
}

TEST(BuildNsdRuns, NonAdjacentBlocksKeepSeparateExtents) {
  auto runs = build_nsd_runs({bf(1, 0, 1, 3), bf(1, 1, 1, 7)}, 8);
  ASSERT_EQ(runs.size(), 1u);
  ASSERT_EQ(runs[0].extents.size(), 2u);
  EXPECT_EQ(runs[0].extents[0].block, 3u);
  EXPECT_EQ(runs[0].extents[1].block, 7u);
}

TEST(BuildNsdRuns, SplitsRunsAtMaxPerRun) {
  std::vector<BlockFetch> fetches;
  for (std::uint64_t i = 0; i < 10; ++i) fetches.push_back(bf(1, i, 0, i));
  auto runs = build_nsd_runs(fetches, 4);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].items.size(), 4u);
  EXPECT_EQ(runs[1].items.size(), 4u);
  EXPECT_EQ(runs[2].items.size(), 2u);
}

TEST(BuildNsdRuns, EveryFetchLandsInExactlyOneRun) {
  std::vector<BlockFetch> fetches;
  for (std::uint64_t i = 0; i < 37; ++i) {
    fetches.push_back(bf(2, i, static_cast<std::uint32_t>(i % 5), i * 3));
  }
  auto runs = build_nsd_runs(fetches, 6);
  std::set<std::uint64_t> seen;
  std::size_t extent_blocks = 0;
  for (const NsdRun& run : runs) {
    EXPECT_LE(run.items.size(), 6u);
    for (const BlockFetch& f : run.items) {
      EXPECT_EQ(f.addr.nsd, run.nsd);
      EXPECT_TRUE(seen.insert(f.key.block).second) << "duplicate block";
    }
    for (const NsdExtent& e : run.extents) extent_blocks += e.count;
  }
  EXPECT_EQ(seen.size(), 37u);
  EXPECT_EQ(extent_blocks, 37u);  // extents cover items exactly
}

TEST(BuildNsdRuns, ZeroMaxPerRunBehavesAsOne) {
  auto runs = build_nsd_runs({bf(1, 0, 0, 0), bf(1, 1, 0, 1)}, 0);
  EXPECT_EQ(runs.size(), 2u);
}

// ---------------------------------------------------------------------------
// PageKeyHash: regression for the weak ino^block hash
// ---------------------------------------------------------------------------

TEST(PageKeyHash, MixesInodeAndBlockWords) {
  PageKeyHash h;
  // The old hash (ino ^ block) collapsed every {k+d, b+d} diagonal onto
  // one bucket chain; the mixed hash must keep such keys distinct.
  std::unordered_set<std::size_t> values;
  for (std::uint64_t d = 0; d < 4096; ++d) {
    values.insert(h(PageKey{10 + d, 20 + d}));
  }
  // All 4096 diagonal keys would hash to `10 ^ 20` under the old
  // function; demand near-perfect distinctness from the new one.
  EXPECT_GE(values.size(), 4090u);
  // Swapped fields must not collide either (ino^block is symmetric).
  EXPECT_NE(h(PageKey{3, 9}), h(PageKey{9, 3}));
}

}  // namespace
}  // namespace mgfs::gpfs
