#include "gpfs/pagepool.hpp"

#include "common/result.hpp"

namespace mgfs::gpfs {

PagePool::PagePool(Bytes capacity, Bytes page_size)
    : capacity_(capacity), page_size_(page_size) {
  MGFS_ASSERT(page_size > 0, "zero page size");
  MGFS_ASSERT(capacity >= page_size, "pool smaller than one page");
  max_pages_ = static_cast<std::size_t>(capacity / page_size);
}

bool PagePool::is_dirty(PageKey k) const {
  auto it = pages_.find(k);
  return it != pages_.end() && it->second.dirty;
}

void PagePool::link_front(Slot* s) {
  s->second.newer = nullptr;
  s->second.older = front_;
  if (front_ != nullptr) {
    front_->second.newer = s;
  } else {
    back_ = s;
  }
  front_ = s;
}

void PagePool::unlink(Slot* s) {
  Page& p = s->second;
  (p.newer != nullptr ? p.newer->second.older : front_) = p.older;
  (p.older != nullptr ? p.older->second.newer : back_) = p.newer;
}

PagePool::Slot* PagePool::erase(Slot* s) {
  Slot* older = s->second.older;
  if (s->second.dirty) --dirty_count_;
  unlink(s);
  const PageKey key = s->first;
  pages_.erase(key);
  return older;
}

void PagePool::touch(PageKey k) {
  auto it = pages_.find(k);
  if (it == pages_.end()) return;
  unlink(&*it);
  link_front(&*it);
}

bool PagePool::make_room() {
  if (pages_.size() < max_pages_) return true;
  // Evict the least-recently-used clean page.
  for (Slot* s = back_; s != nullptr; s = s->second.newer) {
    if (!s->second.dirty) {
      erase(s);
      ++evictions_;
      return true;
    }
  }
  return false;  // pinned solid with dirty pages
}

void PagePool::insert_front(PageKey k, bool dirty) {
  auto [it, fresh] = pages_.try_emplace(k);
  it->second.dirty = dirty;
  if (dirty) ++dirty_count_;
  link_front(&*it);
}

bool PagePool::insert_clean(PageKey k) {
  if (pages_.count(k) > 0) {
    touch(k);
    return true;
  }
  if (!make_room()) return false;
  insert_front(k, false);
  return true;
}

bool PagePool::insert_dirty(PageKey k) {
  auto it = pages_.find(k);
  if (it != pages_.end()) {
    if (!it->second.dirty) {
      it->second.dirty = true;
      ++dirty_count_;
    }
    touch(k);
    return true;
  }
  if (!make_room()) return false;
  insert_front(k, true);
  return true;
}

void PagePool::mark_clean(PageKey k) {
  auto it = pages_.find(k);
  if (it == pages_.end() || !it->second.dirty) return;
  it->second.dirty = false;
  --dirty_count_;
}

std::vector<PageKey> PagePool::dirty_pages(InodeNum ino) const {
  std::vector<PageKey> out;
  for (const Slot* s = front_; s != nullptr; s = s->second.older) {
    if (s->second.dirty && s->first.ino == ino) out.push_back(s->first);
  }
  return out;
}

std::vector<PageKey> PagePool::all_dirty() const {
  std::vector<PageKey> out;
  out.reserve(dirty_count_);
  for (const Slot* s = front_; s != nullptr; s = s->second.older) {
    if (s->second.dirty) out.push_back(s->first);
  }
  return out;
}

std::size_t PagePool::invalidate(InodeNum ino, std::uint64_t lo_blk,
                                 std::uint64_t hi_blk) {
  std::size_t dropped = 0;
  for (Slot* s = front_; s != nullptr;) {
    if (s->first.ino == ino && s->first.block >= lo_blk &&
        s->first.block < hi_blk) {
      s = erase(s);
      ++dropped;
    } else {
      s = s->second.older;
    }
  }
  return dropped;
}

std::size_t PagePool::invalidate_all() {
  std::size_t dropped = pages_.size();
  pages_.clear();
  front_ = back_ = nullptr;
  dirty_count_ = 0;
  return dropped;
}

}  // namespace mgfs::gpfs
