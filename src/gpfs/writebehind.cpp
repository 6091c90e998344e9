#include "gpfs/writebehind.hpp"

#include "common/result.hpp"

namespace mgfs::gpfs {
namespace {

/// Concurrent flush runs.
constexpr std::size_t kFlushParallel = 32;
/// Consecutive transient anchor failures before a flush with another
/// clean copy gives up on the anchor (writes survive a dark primary).
constexpr int kAnchorFails = 3;

/// Anchor copy for flushing `p`: the primary if clean, else the first
/// clean replica; the primary when no clean copy is recorded locally.
std::uint8_t flush_anchor(const BlockPlacement& p) {
  if (!p.is_divergent(0)) return 0;
  for (std::uint8_t c = 1; c < p.copies; ++c) {
    if (!p.is_divergent(c)) return c;
  }
  return 0;
}

}  // namespace

void WriteBehind::push(const PageKey& key, Page& page) {
  fifo_.push_back(key);
  page.queued = true;
}

bool WriteBehind::enqueue(const PageKey& key,
                          const BlockPlacement& placement) {
  const bool was_dirty = pool_.is_dirty(key);
  if (!pool_.insert_dirty(key)) return false;
  if (!was_dirty) {
    Page& page = pages_[key] = Page{placement};
    push(key, page);
  }
  auto it = pages_.find(key);
  MGFS_ASSERT(it != pages_.end(), "dirty page without placement");
  ++it->second.gen;
  return true;
}

std::optional<NsdRun> WriteBehind::next_run() {
  // Take a queued page for this flight: a later write to it bumps gen
  // past `flushing`, which landed() then sees.
  auto take = [this](const PageKey& key) -> Page* {
    auto it = pages_.find(key);
    if (it != pages_.end()) it->second.queued = false;
    if (!pool_.is_dirty(key)) return nullptr;  // cleaned or invalidated
    MGFS_ASSERT(it != pages_.end(), "dirty page without address");
    it->second.flushing = it->second.gen;
    return &it->second;
  };
  while (flights_ < kFlushParallel && !fifo_.empty()) {
    const PageKey key = fifo_.front();
    fifo_.pop_front();
    const Page* head = take(key);
    if (head == nullptr) continue;
    const std::uint8_t ac = flush_anchor(head->placement);
    const std::uint32_t nsd = head->placement.addr[ac].nsd;
    // Coalesce: pull other dirty blocks bound for the same NSD out of
    // the queue so the whole run goes out as one wire request.
    // Replicated blocks coalesce on their *anchor* copy; propagation to
    // the other copies fans out per block after the anchor run lands.
    std::vector<BlockFetch> items{
        BlockFetch{key, head->placement.addr[ac], false, ac, 0}};
    std::size_t scanned = 0;
    for (auto it = fifo_.begin(); it != fifo_.end() && scanned < kFlushScan &&
                                  items.size() < kCoalesceBlocks;) {
      ++scanned;
      auto pit = pages_.find(*it);
      if (!pool_.is_dirty(*it)) {
        if (pit != pages_.end()) pit->second.queued = false;
        it = fifo_.erase(it);
        continue;
      }
      MGFS_ASSERT(pit != pages_.end(), "dirty page without address");
      const std::uint8_t ac2 = flush_anchor(pit->second.placement);
      if (pit->second.placement.addr[ac2].nsd != nsd) {
        ++it;
        continue;
      }
      take(*it);
      items.push_back(
          BlockFetch{*it, pit->second.placement.addr[ac2], false, ac2, 0});
      it = fifo_.erase(it);
    }
    auto runs = build_nsd_runs(std::move(items), kCoalesceBlocks);
    MGFS_ASSERT(runs.size() == 1, "flush coalescing spans one NSD");
    ++flights_;
    for (const BlockFetch& f : runs.front().items) ++inflight_[f.key.ino];
    return std::move(runs.front());
  }
  return std::nullopt;
}

BlockPlacement* WriteBehind::placement(const PageKey& key) {
  auto it = pages_.find(key);
  return it == pages_.end() ? nullptr : &it->second.placement;
}

bool WriteBehind::landed(const PageKey& key) {
  release(key.ino);
  auto it = pages_.find(key);  // end(): dropped while in flight
  const bool requeued =
      it != pages_.end() && it->second.gen != it->second.flushing;
  if (requeued && !it->second.queued) {
    push(key, it->second);
  } else if (!requeued && it != pages_.end()) {
    pool_.mark_clean(key);
    pages_.erase(it);
  }
  settle();
  return requeued;
}

bool WriteBehind::anchor_failed(const PageKey& key, std::uint8_t copy) {
  release(key.ino);
  auto it = pages_.find(key);
  if (it == pages_.end()) return false;
  Page& page = it->second;
  if (++page.anchor_fails < kAnchorFails ||
      page.placement.clean_copies() <= 1 ||
      page.placement.is_divergent(copy)) {
    return false;
  }
  page.anchor_fails = 0;
  return true;
}

bool WriteBehind::requeue(const PageKey& key) {
  auto it = pages_.find(key);
  if (it == pages_.end()) return false;
  if (!pool_.is_dirty(key)) {
    pages_.erase(it);
    return false;
  }
  if (!it->second.queued) push(key, it->second);
  return true;
}

void WriteBehind::drop(const PageKey& key) {
  release(key.ino);
  pool_.invalidate(key.ino, key.block, key.block + 1);
  pages_.erase(key);
}

void WriteBehind::clear() {
  fifo_.clear();
  pages_.clear();
}

void WriteBehind::release(InodeNum ino) {
  auto it = inflight_.find(ino);
  if (it != inflight_.end() && --it->second == 0) inflight_.erase(it);
}

bool WriteBehind::busy(InodeNum ino) const {
  return inflight_.count(ino) > 0 || !pool_.dirty_pages(ino).empty();
}

std::set<InodeNum> WriteBehind::busy_inodes() const {
  std::set<InodeNum> inodes;
  for (const PageKey& k : pool_.all_dirty()) inodes.insert(k.ino);
  for (const auto& [ino, n] : inflight_) inodes.insert(ino);
  return inodes;
}

std::unordered_map<InodeNum, TokenRange> WriteBehind::dirty_spans(
    Bytes block_size, const std::function<bool(InodeNum)>& want) const {
  std::unordered_map<InodeNum, TokenRange> spans;
  for (const auto& [key, page] : pages_) {
    if (!want(key.ino)) continue;
    const TokenRange pg{key.block * block_size, (key.block + 1) * block_size};
    auto [it, fresh] = spans.try_emplace(key.ino, pg);
    if (!fresh) {
      it->second.lo = std::min(it->second.lo, pg.lo);
      it->second.hi = std::max(it->second.hi, pg.hi);
    }
  }
  return spans;
}

void WriteBehind::settle() {
  if (pool_.dirty_bytes() <= kMaxDirty) {
    auto stalled = std::move(stalled_);
    stalled_.clear();
    for (auto& writer : stalled) writer();
  }
  // Indexed: a waiter may add waiters.
  for (std::size_t i = 0; i < waiters_.size();) {
    if (busy(waiters_[i].first)) {
      ++i;
      continue;
    }
    auto done = std::move(waiters_[i].second);
    waiters_.erase(waiters_.begin() + static_cast<std::ptrdiff_t>(i));
    done();
  }
}

}  // namespace mgfs::gpfs
