// WriteBehind: a client's dirty pages between a buffered write and the
// NSD write that makes it durable.
//
// Pages queue in write order. A flush takes the queue head, anchors it
// on its primary copy (the first clean replica when the primary is
// divergent) and pulls up to kCoalesceBlocks blocks bound for the same
// NSD from the next kFlushScan queued pages into one run. Each dirty
// page carries a generation: a write to a page whose flight already
// left bumps it, and the flight's completion then queues the page again
// instead of marking it clean. Writers stall above kMaxDirty; fsync and
// revoke wait until an inode has no dirty page and nothing in flight.
// Plain bookkeeping over the pagepool: the NSD I/O, replica
// propagation and divergence RPCs are the client's.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gpfs/pagepool.hpp"
#include "gpfs/readahead.hpp"
#include "gpfs/token.hpp"

namespace mgfs::gpfs {

class WriteBehind {
 public:
  /// Write-behind ceiling: past it, writers stall until flushes drain.
  static constexpr Bytes kMaxDirty = 64 * MiB;
  /// How deep into the queue a flush looks for same-NSD blocks.
  static constexpr std::size_t kFlushScan = 256;

  explicit WriteBehind(PagePool& pool) : pool_(pool) {}

  /// A write dirtied `key`, which lives at `placement`. False (nothing
  /// recorded) when the pool is pinned solid with dirty pages.
  bool enqueue(const PageKey& key, const BlockPlacement& placement);
  /// Take the next flush run off the queue, or nullopt when the queue
  /// is empty or the most runs allowed are in flight.
  std::optional<NsdRun> next_run();
  /// Every item of a run next_run() returned has completed.
  void end_flight() { --flights_; }

  /// The page's placement while it is dirty (its divergence marks too).
  BlockPlacement* placement(const PageKey& key);
  /// `key` reached every clean copy: mark it clean, or queue it again
  /// when a write re-dirtied it after its flight took it (returns true),
  /// then settle().
  bool landed(const PageKey& key);
  /// A flush of `key` anchored on `copy` failed transiently and will be
  /// retried (requeue). True when the anchor has failed often enough,
  /// and another clean copy exists, that it should be marked divergent.
  bool anchor_failed(const PageKey& key, std::uint8_t copy);
  /// Queue a page whose flush failed again. False, forgetting it, when
  /// the page is no longer dirty.
  bool requeue(const PageKey& key);
  /// A flight of `key` was fenced: the page can never land. Drop it.
  void drop(const PageKey& key);
  /// Forget every queued and dirty page (lease lapse, reboot, unmount).
  /// Runs in flight still complete and release their slots.
  void clear();

  /// Does `ino` have a dirty page or a page in flight?
  bool busy(InodeNum ino) const;
  /// Every inode busy() holds.
  std::set<InodeNum> busy_inodes() const;
  /// Per inode that `want` accepts, the byte span covering its dirty
  /// pages.
  std::unordered_map<InodeNum, TokenRange> dirty_spans(
      Bytes block_size, const std::function<bool(InodeNum)>& want) const;

  /// Park a writer until dirty bytes fall back under kMaxDirty.
  void stall(std::function<void()> writer) {
    stalled_.push_back(std::move(writer));
  }
  /// Run `done` once `ino` is no longer busy (the next settle()).
  void wait(InodeNum ino, std::function<void()> done) {
    waiters_.emplace_back(ino, std::move(done));
  }
  /// Resume stalled writers when under kMaxDirty, then run the waiters
  /// whose inode is no longer busy.
  void settle();

 private:
  struct Page {
    BlockPlacement placement;
    std::uint64_t gen = 0;       // writes that dirtied the page
    std::uint64_t flushing = 0;  // gen the last flight took
    int anchor_fails = 0;        // consecutive transient failures
    bool queued = false;
  };
  void push(const PageKey& key, Page& page);
  void release(InodeNum ino);

  PagePool& pool_;
  std::deque<PageKey> fifo_;
  std::unordered_map<PageKey, Page, PageKeyHash> pages_;
  std::size_t flights_ = 0;
  std::unordered_map<InodeNum, std::size_t> inflight_;  // pages per inode
  std::vector<std::function<void()>> stalled_;
  std::vector<std::pair<InodeNum, std::function<void()>>> waiters_;
};

/// Which inodes were written since their last successful commit
/// (op_extend_size): an fsync or close of an unmarked inode sends no
/// manager RPC. Marks outlive lease lapse and reboot, like open files.
class CommitMarks {
 public:
  /// A write to `ino` ending at byte `end` begins.
  void mark(InodeNum ino, Bytes end) {
    Mark& m = marks_[ino];
    m.seq = ++seq_;
    m.end = std::max(m.end, end);
  }
  /// Stamp of the newest write an fsync started now covers; 0 when
  /// there is nothing to commit.
  std::uint64_t pending(InodeNum ino) const {
    auto it = marks_.find(ino);
    return it == marks_.end() ? 0 : it->second.seq;
  }
  /// A commit of `size` bytes, covering writes up to stamp `seq`,
  /// succeeded. The mark clears unless a write began after the fsync
  /// did (another handle may also have written past `size`).
  void settle(InodeNum ino, std::uint64_t seq, Bytes size) {
    auto it = marks_.find(ino);
    if (it != marks_.end() && it->second.seq == seq &&
        it->second.end <= size) {
      marks_.erase(it);
    }
  }
  void clear() { marks_.clear(); }

 private:
  struct Mark {
    std::uint64_t seq = 0;  // stamp of the newest write
    Bytes end = 0;          // highest byte written since the last commit
  };
  std::unordered_map<InodeNum, Mark> marks_;
  std::uint64_t seq_ = 0;
};

}  // namespace mgfs::gpfs
