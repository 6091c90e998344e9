// Client page pool: the per-node block cache of a mounted file system.
//
// Pages are whole file-system blocks keyed by (inode, block index).
// Clean pages are evicted LRU; dirty pages are pinned until write-behind
// flushes them (the client caps dirty bytes and stalls writers above the
// cap, like GPFS's pagepool/write-behind machinery). Token revocation
// invalidates cached ranges — the coherence half of the design.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "gpfs/types.hpp"

namespace mgfs::gpfs {

struct PageKey {
  InodeNum ino = 0;
  std::uint64_t block = 0;
  friend bool operator==(const PageKey&, const PageKey&) = default;
};

struct PageKeyHash {
  // splitmix64 finalizer applied per word: `ino * C ^ block` folded
  // low-entropy block indices straight into the low bits, colliding
  // whole bucket chains for small blocks across inodes.
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }
  std::size_t operator()(const PageKey& k) const {
    return static_cast<std::size_t>(mix(mix(k.ino) ^ k.block));
  }
};

class PagePool {
 public:
  PagePool(Bytes capacity, Bytes page_size);
  // The LRU links point into the map's nodes, which a move keeps and a
  // copy would not.
  PagePool(const PagePool&) = delete;
  PagePool& operator=(const PagePool&) = delete;
  PagePool(PagePool&&) = default;
  PagePool& operator=(PagePool&&) = default;

  Bytes capacity() const { return capacity_; }
  Bytes page_size() const { return page_size_; }
  Bytes used() const { return pages_.size() * page_size_; }
  Bytes dirty_bytes() const { return dirty_count_ * page_size_; }
  std::size_t page_count() const { return pages_.size(); }

  /// Is this block cached (clean or dirty)?
  bool contains(PageKey k) const { return pages_.count(k) > 0; }
  bool is_dirty(PageKey k) const;

  /// Touch for LRU (a cache hit).
  void touch(PageKey k);

  /// Insert a clean page (read miss fill / prefetch). Evicts LRU clean
  /// pages to make room. Returns false if the pool is pinned solid with
  /// dirty pages (caller must flush first). Inserting an existing page
  /// just touches it.
  bool insert_clean(PageKey k);

  /// Insert (or update) a page as dirty — a buffered write.
  /// Same eviction rules.
  bool insert_dirty(PageKey k);

  /// Write-behind completed: page stays cached, now clean.
  void mark_clean(PageKey k);

  /// Dirty pages of one inode (what a flush-on-revoke must push out).
  std::vector<PageKey> dirty_pages(InodeNum ino) const;
  /// All dirty pages (fsync / unmount).
  std::vector<PageKey> all_dirty() const;

  /// Drop cached pages of `ino` whose block index lies in [lo_blk,
  /// hi_blk) — token revocation. Dirty pages in range are dropped too;
  /// callers flush *before* invalidating. Returns dropped page count.
  std::size_t invalidate(InodeNum ino, std::uint64_t lo_blk,
                         std::uint64_t hi_blk);

  /// Drop everything, clean and dirty — a lapsed lease means no cached
  /// state can be trusted. Returns dropped page count.
  std::size_t invalidate_all();

  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  /// A read's cache probe: counts a hit or a miss and touches a hit.
  bool lookup(PageKey k) {
    const bool hit = contains(k);
    (hit ? hits_ : misses_)++;
    if (hit) touch(k);
    return hit;
  }

 private:
  // One node per page: the map's own nodes are threaded into the LRU
  // list (front = most recent), half the allocations of a std::list
  // beside a map of iterators.
  struct Page;
  using Slot = std::pair<const PageKey, Page>;
  struct Page {
    Slot* newer = nullptr;
    Slot* older = nullptr;
    bool dirty = false;
  };

  bool make_room();
  /// Insert a new page at the LRU front.
  void insert_front(PageKey k, bool dirty);
  void link_front(Slot* s);
  void unlink(Slot* s);
  /// Unlink and drop `s`, returning the next older page.
  Slot* erase(Slot* s);

  Bytes capacity_;
  Bytes page_size_;
  std::size_t max_pages_;
  std::unordered_map<PageKey, Page, PageKeyHash> pages_;
  Slot* front_ = nullptr;
  Slot* back_ = nullptr;
  std::size_t dirty_count_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace mgfs::gpfs
