// Adaptive readahead and NSD I/O run planning.
//
// ReadaheadRamp is the Linux-style sequential detector: the prefetch
// window starts small on the first confirmed sequential access, doubles
// on each further confirmation up to a cap, and collapses to nothing on
// a seek. Client::read consults it per call to size the prefetch
// pipeline and, on a seek, to ask for a whole-file read token (a reader
// that jumps around will likely jump again); on a random access (a seek
// after an access that was not sequential either) it also fetches the
// block map of the whole token range at once; Client::write reuses it to
// size token and allocation batches on streaming writes (gated on a
// confirmed streak so one-shot writes keep exact block accounting).
//
// build_nsd_runs turns a list of (page, device address) fetches into
// per-NSD runs — each run becomes one wire request served by one NSD
// server pair, with device-adjacent blocks merged into extents so the
// disk sees one large transfer instead of per-block commands.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gpfs/pagepool.hpp"
#include "gpfs/types.hpp"

namespace mgfs::gpfs {

class ReadaheadRamp {
 public:
  ReadaheadRamp() = default;
  ReadaheadRamp(std::uint64_t min_blocks, std::uint64_t max_blocks)
      : min_(std::min(min_blocks, max_blocks)), max_(max_blocks) {}

  /// Record an access covering blocks [first, last] and return the
  /// window (blocks past `last`) the caller may keep in flight. The
  /// window is clamped at the predicted end of the current sequential
  /// run once the strided detector has seen a completed run (MPI-IO
  /// region reads: prefetching past the region boundary fetches blocks
  /// this task will never touch — measured at 25% of all read traffic
  /// on the Fig. 11 pattern before the clamp).
  std::uint64_t on_access(std::uint64_t first, std::uint64_t last) {
    const bool cold = next_ == kUnknown;
    const std::uint64_t hits_before = hits_;
    bool sequential = (first == next_) || (first == 0 && hits_ == 0 && cold);
    if (!sequential && !cold) {
      // A seek. Before collapsing, feed the strided detector: the run
      // that just ended had a known start and length, and the jump to
      // `first` gives the stride. A seek landing exactly where the
      // stride predicts is a recognized strided stream — keep the
      // window instead of re-ramping from cold.
      const std::uint64_t run_len = next_ - run_start_;
      // One completed run is enough to clamp the next one: a wrong
      // prediction costs a single zero-window access before the clamp
      // clears, while an unclamped boundary costs a full window of
      // wasted fetches.
      expect_len_ = run_len;
      const std::uint64_t gap = first > run_start_ ? first - run_start_ : 0;
      const bool predicted = stride_ != 0 && first == run_start_ + stride_;
      stride_ = (gap != 0 && gap == last_gap_) ? gap : 0;
      last_gap_ = gap;
      run_start_ = first;
      if (predicted && expect_len_ != 0) {
        sequential = true;  // strided continuation, not a real seek
      }
    } else if (cold) {
      run_start_ = first;
    }
    seek_ = !sequential && !cold;
    random_ = seek_ && hits_before == 0;
    next_ = last + 1;
    if (!sequential) {
      // Seek: collapse the window and re-arm the detector.
      hits_ = 0;
      window_ = 0;
      return 0;
    }
    ++hits_;
    window_ = window_ == 0 ? min_ : std::min(window_ * 2, max_);
    // A run outgrowing its predicted length breaks the prediction.
    if (expect_len_ != 0 && next_ > run_start_ + expect_len_) {
      expect_len_ = 0;
    }
    if (expect_len_ != 0) {
      const std::uint64_t end = run_start_ + expect_len_;
      const std::uint64_t avail = end > next_ ? end - next_ : 0;
      return std::min(window_, avail);
    }
    return window_;
  }

  std::uint64_t window() const { return window_; }
  /// Whether the last access was a seek: neither the cold first access,
  /// nor sequential, nor a predicted strided continuation.
  bool seeked() const { return seek_; }
  /// Whether the last access was a seek and the access before it was
  /// not sequential either (hits() was 0 before the seek). A strided
  /// stream whose runs span several accesses seeks after every run but
  /// never looks random.
  bool random() const { return random_; }
  /// Consecutive sequential accesses since the last seek.
  std::uint64_t hits() const { return hits_; }
  /// Predicted first block of the next sequential run, once the strided
  /// detector has confirmed both a stable run length and a stable
  /// stride. kUnknown when the pattern is not (yet) strided.
  std::uint64_t predicted_next_run() const {
    if (expect_len_ == 0 || stride_ == 0) return kUnknown;
    return run_start_ + stride_;
  }
  /// Predicted run length (0 = unknown).
  std::uint64_t expected_run_len() const { return expect_len_; }

  static constexpr std::uint64_t kUnknown = ~0ULL;

 private:
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  std::uint64_t next_ = kUnknown;  // expected first block of the next access
  std::uint64_t window_ = 0;
  std::uint64_t hits_ = 0;
  bool seek_ = false;
  bool random_ = false;
  // Strided-stream detector (GPFS recognizes strided access patterns;
  // MPI-IO file views produce exactly this shape).
  std::uint64_t run_start_ = 0;   // first block of the current run
  std::uint64_t expect_len_ = 0;  // predicted current-run length (0 = none)
  std::uint64_t last_gap_ = 0;    // previous run-start-to-run-start gap
  std::uint64_t stride_ = 0;      // confirmed gap (0 = none)
};

/// One block to move: the pagepool slot and its on-disk address.
struct BlockFetch {
  PageKey key;
  BlockAddr addr;
  // Readahead (vs demand) fill: only speculative bytes count against
  // the client's speculative fill budget — a deep demand queue must not
  // starve the prefetch pipeline that keeps it fed.
  bool speculative = false;
  // Replica copy this fetch targets (index into the block's
  // BlockPlacement; 0 = primary) and the bitmask of copies already
  // tried, so a failed run redirects to the next untried copy instead
  // of erroring.
  std::uint8_t copy = 0;
  std::uint8_t tried = 0;
};

/// Device-contiguous piece of a run, in device-block units.
struct NsdExtent {
  std::uint64_t block = 0;  // starting device block
  std::uint64_t count = 0;
};

/// One wire request: a set of blocks on a single NSD, merged into
/// device extents. `items` keeps the per-block identity so a failed run
/// can be split back into single-block retries.
struct NsdRun {
  std::uint32_t nsd = 0;
  std::vector<BlockFetch> items;
  std::vector<NsdExtent> extents;
};

/// Most blocks one coalesced NSD request carries.
inline constexpr std::size_t kCoalesceBlocks = 8;

/// Group fetches into per-NSD runs of at most `max_per_run` blocks,
/// preserving first-seen NSD order (determinism), then merge
/// device-adjacent blocks within each run into extents.
inline std::vector<NsdRun> build_nsd_runs(std::vector<BlockFetch> fetches,
                                          std::size_t max_per_run) {
  if (max_per_run == 0) max_per_run = 1;
  std::vector<NsdRun> runs;
  for (const BlockFetch& f : fetches) {
    NsdRun* run = nullptr;
    for (auto rit = runs.rbegin(); rit != runs.rend(); ++rit) {
      if (rit->nsd == f.addr.nsd && rit->items.size() < max_per_run) {
        run = &*rit;
        break;
      }
    }
    if (run == nullptr) {
      runs.push_back(NsdRun{f.addr.nsd, {}, {}});
      run = &runs.back();
    }
    run->items.push_back(f);
  }
  for (NsdRun& run : runs) {
    std::sort(run.items.begin(), run.items.end(),
              [](const BlockFetch& a, const BlockFetch& b) {
                return a.addr.block < b.addr.block;
              });
    for (const BlockFetch& f : run.items) {
      if (!run.extents.empty() &&
          run.extents.back().block + run.extents.back().count ==
              f.addr.block) {
        ++run.extents.back().count;
      } else {
        run.extents.push_back(NsdExtent{f.addr.block, 1});
      }
    }
  }
  return runs;
}

}  // namespace mgfs::gpfs
