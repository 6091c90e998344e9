#include "gpfs/blockmap.hpp"

#include <algorithm>
#include <iterator>

#include "common/result.hpp"

namespace mgfs::gpfs {

namespace {

/// Column steps from a block `d` blocks past an extent's first block to
/// the first extent block at or past it: ceil(d / stride).
std::uint64_t steps(std::uint64_t d, std::uint64_t stride) {
  return d / stride + (d % stride != 0 ? 1 : 0);
}

/// The steps [k_lo, k_hi) of an extent that fall in blocks [lo, hi).
std::pair<std::uint64_t, std::uint64_t> steps_in(std::uint64_t first,
                                                 std::uint64_t count,
                                                 std::uint64_t stride,
                                                 std::uint64_t lo,
                                                 std::uint64_t hi) {
  if (first >= hi) return {0, 0};
  const std::uint64_t k_lo = first >= lo ? 0 : steps(lo - first, stride);
  const std::uint64_t k_hi = std::min(count, steps(hi - first, stride));
  return {k_lo, std::max(k_lo, k_hi)};
}

}  // namespace

// --------------------------------------------------------------------------
// wire encoding
// --------------------------------------------------------------------------

BlockPlacement BlockMapChunk::placement(std::uint64_t bi) const {
  if (bi < first_block || bi - first_block >= count) return {};
  auto m = std::lower_bound(
      multi.begin(), multi.end(), bi,
      [](const auto& entry, std::uint64_t b) { return entry.first < b; });
  if (m != multi.end() && m->first == bi) return m->second;
  for (const MapExtent& e : extents) {
    if (e.first > bi) break;
    const std::uint64_t d = bi - e.first;
    if (d % stride == 0 && d / stride < e.count) {
      return BlockPlacement::single(BlockAddr{e.nsd, e.dev + d / stride});
    }
  }
  return {};
}

BlockMapEncoder::BlockMapEncoder(std::uint64_t first_block,
                                 std::uint64_t stride) {
  chunk_.first_block = first_block;
  chunk_.stride = std::max<std::uint64_t>(stride, 1);
  open_.assign(chunk_.stride, kNone);
}

void BlockMapEncoder::add(std::uint64_t bi, const BlockPlacement& p) {
  if (p.copies == 0) return;  // holes are implicit
  if (p.copies > 1 || p.divergent != 0) {
    chunk_.multi.emplace_back(bi, p);
    return;
  }
  const BlockAddr a = p.addr[0];
  std::size_t& open = open_[bi % chunk_.stride];
  if (open != kNone) {
    MapExtent& e = chunk_.extents[open];
    if (e.first + e.count * chunk_.stride == bi && e.nsd == a.nsd &&
        e.dev + e.count == a.block) {
      ++e.count;
      return;
    }
  }
  open = chunk_.extents.size();
  chunk_.extents.push_back(MapExtent{bi, 1, a.nsd, a.block});
}

BlockMapChunk BlockMapEncoder::finish(std::uint64_t count) && {
  chunk_.count = count;
  return std::move(chunk_);
}

// --------------------------------------------------------------------------
// client cache
// --------------------------------------------------------------------------

namespace {

/// First extent of `col` whose first block is at or past `bi`.
auto column_lower_bound(std::vector<MapExtent>& col, std::uint64_t bi) {
  return std::lower_bound(
      col.begin(), col.end(), bi,
      [](const MapExtent& e, std::uint64_t b) { return e.first < b; });
}

template <typename Columns>
auto find_column(Columns& columns, std::uint64_t stride, std::uint64_t index) {
  // Every column in use (any file read or written at length): the
  // array is indexed by column.
  if (columns.size() == stride) return &columns[index];
  auto it = std::lower_bound(
      columns.begin(), columns.end(), index,
      [](const auto& c, std::uint64_t i) { return c.index < i; });
  return it != columns.end() && it->index == index ? &*it : nullptr;
}

}  // namespace

BlockMapCache::Column* BlockMapCache::column(std::uint64_t index) {
  return find_column(columns_, stride_, index);
}

const BlockMapCache::Column* BlockMapCache::column(std::uint64_t index) const {
  return find_column(columns_, stride_, index);
}

std::optional<BlockPlacement> BlockMapCache::get(std::uint64_t bi) const {
  if (auto m = multi_.find(bi); m != multi_.end()) return m->second;
  if (const Column* c = column(bi % stride_); c != nullptr) {
    const std::vector<MapExtent>& col = c->extents;
    auto it = std::upper_bound(
        col.begin(), col.end(), bi,
        [](std::uint64_t b, const MapExtent& e) { return b < e.first; });
    if (it != col.begin()) {
      --it;
      const std::uint64_t k = (bi - it->first) / stride_;
      if (k < it->count) {
        return BlockPlacement::single(BlockAddr{it->nsd, it->dev + k});
      }
    }
  }
  auto h = holes_.upper_bound(bi);
  if (h != holes_.begin() && bi < std::prev(h)->second) {
    return BlockPlacement{};
  }
  return std::nullopt;
}

void BlockMapCache::install(const BlockMapChunk& chunk,
                            const std::vector<BlockRange>& keep) {
  if (empty()) stride_ = chunk.stride;
  MGFS_ASSERT(chunk.stride == stride_, "block map stride changed");
  const std::uint64_t lo = chunk.first_block;
  const std::uint64_t hi = lo + chunk.count;
  forget(lo, hi);
  for (const MapExtent& e : chunk.extents) add_extent(e);
  for (const auto& [bi, p] : chunk.multi) multi_[bi] = p;
  for (const BlockRange& k : keep) {
    const std::uint64_t a = std::max(k.lo, lo);
    const std::uint64_t b = std::min(k.hi, hi);
    if (a < b) install_holes(chunk, a, b);
  }
}

void BlockMapCache::install_holes(const BlockMapChunk& chunk, std::uint64_t lo,
                                  std::uint64_t hi) {
  std::uint64_t carried = chunk.multi.size();
  for (const MapExtent& e : chunk.extents) carried += e.count;
  if (carried == chunk.count) return;  // dense: no holes anywhere
  std::vector<bool> data(hi - lo, false);
  for (const MapExtent& e : chunk.extents) {
    if (e.first >= hi) break;
    const auto [k_lo, k_hi] = steps_in(e.first, e.count, stride_, lo, hi);
    for (std::uint64_t k = k_lo; k < k_hi; ++k) {
      data[e.first + k * stride_ - lo] = true;
    }
  }
  for (const auto& entry : chunk.multi) {
    if (entry.first >= lo && entry.first < hi) data[entry.first - lo] = true;
  }
  for (std::uint64_t i = 0; i < data.size();) {
    if (data[i]) {
      ++i;
      continue;
    }
    std::uint64_t j = i;
    while (j < data.size() && !data[j]) ++j;
    add_hole(lo + i, lo + j);
    i = j;
  }
}

void BlockMapCache::add_extent(MapExtent r) {
  const std::uint64_t index = r.first % stride_;
  Column* c = column(index);
  if (c == nullptr) {
    auto at = std::lower_bound(
        columns_.begin(), columns_.end(), index,
        [](const Column& k, std::uint64_t i) { return k.index < i; });
    c = &*columns_.insert(at, Column{index, {}});
  }
  std::vector<MapExtent>& col = c->extents;
  auto continues = [this](const MapExtent& a, const MapExtent& b) {
    return a.first + a.count * stride_ == b.first && a.nsd == b.nsd &&
           a.dev + a.count == b.dev;
  };
  auto it = column_lower_bound(col, r.first);
  if (it != col.end() && continues(r, *it)) {
    r.count += it->count;
    it = col.erase(it);
    --extents_;
  }
  if (it != col.begin() && continues(*std::prev(it), r)) {
    std::prev(it)->count += r.count;
    return;
  }
  col.insert(it, r);
  ++extents_;
}

void BlockMapCache::add_hole(std::uint64_t lo, std::uint64_t hi) {
  auto it = holes_.upper_bound(lo);
  if (it != holes_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= lo) {
      lo = prev->first;
      hi = std::max(hi, prev->second);
      holes_.erase(prev);
    }
  }
  while (it != holes_.end() && it->first <= hi) {
    hi = std::max(hi, it->second);
    it = holes_.erase(it);
  }
  holes_.emplace_hint(it, lo, hi);
}

void BlockMapCache::forget(std::uint64_t lo, std::uint64_t hi) {
  if (lo >= hi) return;
  forget_holes(lo, hi);
  multi_.erase(multi_.lower_bound(lo), multi_.lower_bound(hi));
  if (extents_ == 0) return;
  // Data extents: only the columns the range touches.
  if (hi - lo >= stride_) {
    for (Column& c : columns_) forget_column(c.extents, lo, hi);
  } else {
    for (std::uint64_t bi = lo; bi < hi; ++bi) {
      if (Column* c = column(bi % stride_)) forget_column(c->extents, lo, hi);
    }
  }
  std::erase_if(columns_, [](const Column& c) { return c.extents.empty(); });
}

void BlockMapCache::forget_holes(std::uint64_t lo, std::uint64_t hi) {
  auto h = holes_.lower_bound(lo);
  if (h != holes_.begin()) {
    auto prev = std::prev(h);
    if (prev->second > lo) {
      const std::uint64_t end = prev->second;
      prev->second = lo;
      if (end > hi) holes_.emplace_hint(h, hi, end);
    }
  }
  while (h != holes_.end() && h->first < hi) {
    const std::uint64_t end = h->second;
    h = holes_.erase(h);
    if (end > hi) {
      holes_.emplace_hint(h, hi, end);
      break;
    }
  }
}

void BlockMapCache::forget_column(std::vector<MapExtent>& col,
                                  std::uint64_t lo, std::uint64_t hi) {
  // Extents [b, e) hold blocks in [lo, hi): every one starting inside
  // the range, plus the one before it if that reaches a block in range.
  auto b = column_lower_bound(col, lo);
  if (b != col.begin()) {
    const MapExtent& prev = *std::prev(b);
    const auto [k_lo, k_hi] =
        steps_in(prev.first, prev.count, stride_, lo, hi);
    if (k_lo < k_hi) --b;
  }
  auto e = b;
  while (e != col.end() && e->first < hi) ++e;
  if (b == e) return;
  // What survives: the head of the first extent below `lo` and the tail
  // of the last one from `hi` on.
  MapExtent keep[2];
  std::size_t n = 0;
  const MapExtent first = *b;
  const MapExtent last = *std::prev(e);
  const std::uint64_t head =
      steps_in(first.first, first.count, stride_, lo, hi).first;
  if (head > 0) keep[n++] = MapExtent{first.first, head, first.nsd, first.dev};
  const std::uint64_t tail =
      steps_in(last.first, last.count, stride_, lo, hi).second;
  if (tail < last.count) {
    keep[n++] = MapExtent{last.first + tail * stride_, last.count - tail,
                          last.nsd, last.dev + tail};
  }
  const auto removed = static_cast<std::size_t>(e - b);
  auto at = col.erase(b, e);
  col.insert(at, keep, keep + n);
  extents_ = extents_ - removed + n;
}

void BlockMapCache::mark_divergent(std::uint64_t bi, std::uint8_t copy) {
  const auto bit = static_cast<std::uint8_t>(1u << copy);
  if (auto m = multi_.find(bi); m != multi_.end()) {
    m->second.divergent |= bit;
    return;
  }
  std::optional<BlockPlacement> p = get(bi);
  if (!p.has_value() || p->copies == 0) return;
  forget(bi, bi + 1);
  p->divergent |= bit;
  multi_.emplace(bi, *p);
}

void BlockMapCache::clear() {
  columns_.clear();
  extents_ = 0;
  holes_.clear();
  multi_.clear();
}

}  // namespace mgfs::gpfs
