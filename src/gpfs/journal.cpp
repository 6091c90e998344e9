#include "gpfs/journal.hpp"

#include <algorithm>

namespace mgfs::gpfs {

namespace {

// Collisions only cost a wasted field check in the walk below — every
// consumer re-verifies (ino, block) against the record itself.
std::uint64_t block_key(InodeNum ino, std::uint64_t bi) {
  return ino * 0x9E3779B97F4A7C15ULL ^ bi;
}

}  // namespace

std::uint64_t MetaJournal::log_alloc(ClientId c, InodeNum ino,
                                     std::uint64_t bi, BlockAddr addr,
                                     std::uint64_t grant) {
  return log_record(c, JournalOp::alloc, ino, bi, addr, grant);
}

std::uint64_t MetaJournal::log_replica(ClientId c, InodeNum ino,
                                       std::uint64_t bi, BlockAddr addr,
                                       std::uint64_t grant) {
  return log_record(c, JournalOp::replica, ino, bi, addr, grant);
}

std::uint64_t MetaJournal::log_record(ClientId c, JournalOp op, InodeNum ino,
                                      std::uint64_t bi, BlockAddr addr,
                                      std::uint64_t grant) {
  JournalRecord r;
  r.lsn = next_lsn_++;
  r.client = c;
  r.op = op;
  r.ino = ino;
  r.block = bi;
  r.addr = addr;
  r.grant = grant;
  const auto idx = static_cast<std::uint32_t>(slab_.size());
  slab_.push_back(Slot{r, true});
  ++live_;
  ++logged_;
  by_block_[block_key(ino, bi)].push_back(idx);
  by_client_[c].push_back(idx);
  by_inode_[ino].push_back(idx);
  return r.lsn;
}

void MetaJournal::note_sync_op(ClientId, JournalOp, InodeNum) {
  ++next_lsn_;
  ++logged_;
}

void MetaJournal::kill(std::uint32_t idx) {
  slab_[idx].live = false;
  --live_;
}

void MetaJournal::maybe_compact() {
  if (slab_.size() >= 1024 && live_ * 2 < slab_.size()) compact();
}

void MetaJournal::compact() {
  std::vector<Slot> keep;
  keep.reserve(live_);
  for (Slot& s : slab_) {
    if (s.live) keep.push_back(std::move(s));
  }
  slab_ = std::move(keep);
  by_block_.clear();
  by_client_.clear();
  by_inode_.clear();
  for (std::uint32_t i = 0; i < slab_.size(); ++i) {
    const JournalRecord& r = slab_[i].rec;
    by_block_[block_key(r.ino, r.block)].push_back(i);
    by_client_[r.client].push_back(i);
    by_inode_[r.ino].push_back(i);
  }
}

template <typename Index, typename Pred>
void MetaJournal::kill_where(Index& index,
                             const typename Index::key_type& key, Pred pred) {
  auto it = index.find(key);
  if (it == index.end()) return;
  std::vector<std::uint32_t>& list = it->second;
  std::size_t w = 0;
  for (const std::uint32_t idx : list) {
    Slot& s = slab_[idx];
    if (!s.live) continue;  // retired via another index
    if (pred(s.rec)) {
      kill(idx);
    } else {
      list[w++] = idx;
    }
  }
  list.resize(w);
  if (list.empty()) index.erase(it);
  maybe_compact();
}

std::vector<JournalRecord> MetaJournal::commit_allocs(ClientId c,
                                                      InodeNum ino,
                                                      std::uint64_t blocks,
                                                      BlockRange written,
                                                      std::uint64_t grant) {
  std::vector<JournalRecord> freed;
  kill_where(by_client_, c, [&](const JournalRecord& r) {
    if (r.ino != ino) return false;
    if (r.grant != 0 && r.grant <= grant &&
        (r.block < written.lo || r.block >= written.hi)) {
      freed.push_back(r);
      return true;
    }
    return r.block < blocks;
  });
  std::reverse(freed.begin(), freed.end());
  return freed;
}

void MetaJournal::commit_block(InodeNum ino, std::uint64_t bi,
                               ClientId except, std::uint64_t grant) {
  kill_where(by_block_, block_key(ino, bi), [&](JournalRecord& r) {
    if (r.ino != ino || r.block != bi) return false;
    if (r.client != except) return true;
    if (r.grant != 0) r.grant = grant;
    return false;
  });
}

void MetaJournal::pin(ClientId c, InodeNum ino, BlockRange blocks) {
  kill_where(by_client_, c, [&](JournalRecord& r) {
    if (r.ino == ino && blocks.lo <= r.block && r.block < blocks.hi) {
      r.grant = 0;
    }
    return false;
  });
}

void MetaJournal::pin_all() {
  for (Slot& s : slab_) s.rec.grant = 0;
}

bool MetaJournal::freeable_by_other(InodeNum ino, std::uint64_t bi,
                                    ClientId c) const {
  auto it = by_block_.find(block_key(ino, bi));
  if (it == by_block_.end()) return false;
  for (const std::uint32_t idx : it->second) {
    const Slot& s = slab_[idx];
    if (s.live && s.rec.ino == ino && s.rec.block == bi && s.rec.client != c &&
        s.rec.grant != 0) {
      return true;
    }
  }
  return false;
}

void MetaJournal::forget_inode(InodeNum ino) {
  auto it = by_inode_.find(ino);
  if (it == by_inode_.end()) return;
  for (const std::uint32_t idx : it->second) {
    if (slab_[idx].live) kill(idx);
  }
  by_inode_.erase(it);
  maybe_compact();
}

std::vector<JournalRecord> MetaJournal::take_uncommitted(ClientId c) {
  std::vector<JournalRecord> out;
  kill_where(by_client_, c, [&out](const JournalRecord& r) {
    out.push_back(r);
    return true;
  });
  // Undo newest-first, the reverse of the order the installs happened.
  std::reverse(out.begin(), out.end());
  return out;
}

std::vector<ClientId> MetaJournal::clients_with_uncommitted() const {
  std::vector<ClientId> out;
  for (const auto& [c, list] : by_client_) {
    for (const std::uint32_t idx : list) {
      if (slab_[idx].live) {
        out.push_back(c);
        break;
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool MetaJournal::has_uncommitted(InodeNum ino) const {
  auto it = by_inode_.find(ino);
  if (it == by_inode_.end()) return false;
  for (const std::uint32_t idx : it->second) {
    // Lazily-pruned list: a slot may have died via another index.
    if (slab_[idx].live && slab_[idx].rec.ino == ino) return true;
  }
  return false;
}

std::size_t MetaJournal::uncommitted_count(ClientId c) const {
  auto it = by_client_.find(c);
  if (it == by_client_.end()) return 0;
  std::size_t n = 0;
  for (const std::uint32_t idx : it->second) {
    if (slab_[idx].live) ++n;
  }
  return n;
}

}  // namespace mgfs::gpfs
