#include "gpfs/token.hpp"

#include <algorithm>
#include <functional>

#include "common/result.hpp"

namespace mgfs::gpfs {

const std::vector<Holding> TokenManager::kEmpty{};

namespace {

// Comparators for binary searches on the lo-sorted holdings vector.
bool lo_below(const Holding& h, Bytes v) { return h.range.lo < v; }
bool below_lo(Bytes v, const Holding& h) { return v < h.range.lo; }

// Own-holding absorptions batched per request before spilling to
// immediate erases; requests absorbing more than a couple of holdings
// are already rare.
constexpr std::size_t kMaxAbsorb = 32;

}  // namespace

// --- interval-table primitives ---------------------------------------

void TokenManager::refresh_prefix(Table& t, std::size_t from) {
  const std::size_t n = t.hs.size();
  // When the side arrays are already in lockstep with `hs` (every
  // caller that inserts/erases shifts them too), the recompute can stop
  // at the first index where both stored prefixes match the running
  // maxima: the recurrence is deterministic, so everything to the right
  // is already consistent. This turns the common edit — shrink or grow
  // one holding — into an O(1) amortized touch-up instead of an O(n)
  // rebuild per request.
  const bool in_step = t.any_hi.size() == n;
  if (!in_step) {
    MGFS_ASSERT(from == 0, "bulk refresh must start at 0");
    t.any_hi.resize(n);
    t.rw_hi.resize(n);
  }
  Bytes any = from > 0 ? t.any_hi[from - 1] : 0;
  Bytes rw = from > 0 ? t.rw_hi[from - 1] : 0;
  for (std::size_t i = from; i < n; ++i) {
    any = std::max(any, t.hs[i].range.hi);
    if (t.hs[i].mode == LockMode::rw) rw = std::max(rw, t.hs[i].range.hi);
    if (in_step && t.any_hi[i] == any && t.rw_hi[i] == rw) break;
    t.any_hi[i] = any;
    t.rw_hi[i] = rw;
  }
}

std::pair<std::size_t, std::size_t> TokenManager::overlap_window(
    const Table& t, Bytes lo, Bytes hi) {
  const auto last = static_cast<std::size_t>(
      std::lower_bound(t.hs.begin(), t.hs.end(), hi, lo_below) -
      t.hs.begin());
  // any_hi is non-decreasing: everything left of `first` tops out at or
  // below `lo` and cannot overlap.
  const auto first = static_cast<std::size_t>(
      std::upper_bound(t.any_hi.begin(), t.any_hi.begin() + last, lo) -
      t.any_hi.begin());
  return {first, last};
}

void TokenManager::insert_sorted(Table& t, const Holding& h) {
  const auto pos = static_cast<std::size_t>(
      std::upper_bound(t.hs.begin(), t.hs.end(), h.range.lo, below_lo) -
      t.hs.begin());
  t.hs.insert(t.hs.begin() + pos, h);
  // Shift the side arrays in lockstep so refresh_prefix can early-stop;
  // the placeholder is always wrong at `pos` (a real hi is >= 1) so the
  // recompute never stops before covering the new entry.
  t.any_hi.insert(t.any_hi.begin() + pos, 0);
  t.rw_hi.insert(t.rw_hi.begin() + pos, 0);
  refresh_prefix(t, pos);
  if (auto it = client_slot(t, h.client);
      it != t.clients.end() && it->first == h.client) {
    ++it->second;
  } else {
    t.clients.emplace(it, h.client, 1);
  }
  ++total_;
}

void TokenManager::erase_at(Table& t, std::size_t idx) {
  const ClientId c = t.hs[idx].client;
  t.hs.erase(t.hs.begin() + idx);
  t.any_hi.erase(t.any_hi.begin() + idx);
  t.rw_hi.erase(t.rw_hi.begin() + idx);
  refresh_prefix(t, idx);
  auto it = find_client(t, c);
  if (--it->second == 0) t.clients.erase(it);
  --total_;
}

void TokenManager::shrink_at(Table& t, std::size_t idx, TokenRange r) {
  MGFS_ASSERT(r.lo == t.hs[idx].range.lo, "shrink must keep range.lo");
  t.hs[idx].range = r;
  refresh_prefix(t, idx);
}

void TokenManager::drop_if_empty(InodeNum ino) {
  auto it = by_inode_.find(ino);
  if (it != by_inode_.end() && it->second.hs.empty()) by_inode_.erase(it);
}

void TokenManager::coalesce_around(Table& t, std::size_t idx) {
  // Merge hs[idx] with same-client/same-mode holdings it touches or
  // overlaps (blind installs may duplicate or abut what's already
  // there). Loops because a merge can bridge to a further neighbor.
  for (bool merged = true; merged;) {
    merged = false;
    const Holding h = t.hs[idx];
    const Bytes qlo = h.range.lo > 0 ? h.range.lo - 1 : 0;
    const Bytes qhi = h.range.hi < kWholeFile ? h.range.hi + 1 : kWholeFile;
    const auto [first, last] = overlap_window(t, qlo, qhi);
    for (std::size_t i = first; i < last; ++i) {
      if (i == idx) continue;
      const Holding& o = t.hs[i];
      if (o.client != h.client || o.mode != h.mode) continue;
      if (o.range.hi < h.range.lo || h.range.hi < o.range.lo) continue;
      const TokenRange merged_r{std::min(h.range.lo, o.range.lo),
                                std::max(h.range.hi, o.range.hi)};
      erase_at(t, i);
      if (i < idx) --idx;
      erase_at(t, idx);
      insert_sorted(t, Holding{h.client, h.mode, merged_r});
      idx = static_cast<std::size_t>(
                std::upper_bound(t.hs.begin(), t.hs.end(), merged_r.lo,
                                 below_lo) -
                t.hs.begin()) -
            1;
      merged = true;
      break;
    }
  }
}

// --- public API -------------------------------------------------------

TokenDecision TokenManager::request(ClientId client, InodeNum ino,
                                    TokenRange range, LockMode mode) {
  return request(client, ino, range, range, mode);
}

TokenDecision TokenManager::request(ClientId client, InodeNum ino,
                                    TokenRange range, TokenRange desired,
                                    LockMode mode) {
  MGFS_ASSERT(range.lo < range.hi, "empty token range");
  MGFS_ASSERT(desired.contains(range), "desired must cover the request");
  TokenDecision d;
  Table& t = by_inode_[ino];

  // Conflicts are probed against the *required* bytes only. A holding
  // that overlaps just the speculative tail of `desired` clips the
  // grant instead of triggering a revoke — two streaming writers whose
  // batch windows brush at a region boundary must not evict each
  // other's active window (probing `desired` here caused exactly that
  // mutual-eviction thrash when every MPI task crossed its boundary in
  // phase). The manager widens the *revocation* to the desired overlap
  // once a real conflict exists, which is what consumes a stale wide
  // holding window-by-window instead of block-by-block.
  {
    const auto [first, last] = overlap_window(t, range.lo, range.hi);
    for (std::size_t i = first; i < last; ++i) {
      const Holding& h = t.hs[i];
      if (h.client == client) continue;  // own holdings never conflict
      if (h.range.hi <= range.lo) continue;  // window candidate, no overlap
      if (compatible(h.mode, mode)) continue;
      d.conflicts.push_back(h);
    }
  }
  if (!d.conflicts.empty()) {
    return d;  // caller must revoke first
  }

  // Whole-file widening: if no *other* client holds anything on this
  // inode, grant [0, inf) so the common exclusive case stays local.
  const bool others =
      !t.clients.empty() &&
      !(t.clients.size() == 1 && t.clients.front().first == client);

  // Otherwise grant the desired range clipped back to what no other
  // client's incompatible holding touches. Every extra byte must be
  // provably free: an incompatible holding entirely above the request
  // caps the grant from above, one entirely below caps it from below
  // (a holding overlapping the request itself would have conflicted
  // already).
  TokenRange grant = desired;
  if (!others) {
    grant = TokenRange{0, kWholeFile};
  } else {
    // Cap from above: ascending from the first holding at/after
    // range.hi; the first incompatible one bounds the grant and
    // nothing later can bound it tighter.
    const auto above = static_cast<std::size_t>(
        std::lower_bound(t.hs.begin(), t.hs.end(), range.hi, lo_below) -
        t.hs.begin());
    for (std::size_t i = above; i < t.hs.size(); ++i) {
      const Holding& h = t.hs[i];
      if (h.range.lo >= grant.hi) break;
      if (h.client == client || compatible(h.mode, mode)) continue;
      grant.hi = h.range.lo;
      break;
    }
    // Cap from below: descending over holdings starting before
    // range.lo. The mode-specific prefix-max lets the scan stop as
    // soon as nothing to the left can still reach past grant.lo
    // (for ro requests only rw holdings are incompatible).
    const auto below = static_cast<std::size_t>(
        std::lower_bound(t.hs.begin(), t.hs.end(), range.lo, lo_below) -
        t.hs.begin());
    const std::vector<Bytes>& pref =
        mode == LockMode::ro ? t.rw_hi : t.any_hi;
    for (std::size_t i = below; i-- > 0;) {
      if (pref[i] <= grant.lo) break;
      const Holding& h = t.hs[i];
      if (h.client == client || compatible(h.mode, mode)) continue;
      // Incompatible holdings here end at or before range.lo — one
      // reaching past it would have conflicted above.
      grant.lo = std::max(grant.lo, h.range.hi);
    }
  }

  // Upgrades: absorb the client's own overlapping/adjacent same-mode
  // holdings. An rw grant may absorb an own ro holding ONLY if the grant
  // already covers it — extending the rw range over an adjacent ro
  // holding would upgrade bytes that were never conflict-checked against
  // other clients' ro holders (a bug the token fuzz caught). Runs to a
  // fixpoint: absorbing one holding can bring the grown grant flush
  // against another.
  // Erasure is deferred so the single-absorb case (a streaming client
  // re-requesting over its own holding — the hot path by far) can be an
  // in-place overwrite instead of an erase + reinsert pair that
  // memmoves half the table twice.
  std::size_t own[kMaxAbsorb];
  std::size_t own_n = 0;
  for (bool grew = true; grew;) {
    grew = false;
    const Bytes qlo = grant.lo > 0 ? grant.lo - 1 : 0;
    const Bytes qhi = grant.hi < kWholeFile ? grant.hi + 1 : kWholeFile;
    const auto [first, last] = overlap_window(t, qlo, qhi);
    for (std::size_t i = last; i-- > first;) {
      const Holding& h = t.hs[i];
      if (h.client != client) continue;
      bool seen = false;
      for (std::size_t k = 0; k < own_n; ++k) seen |= own[k] == i;
      if (seen) continue;
      const bool touching = h.range.overlaps(grant) ||
                            h.range.lo == grant.hi || grant.lo == h.range.hi;
      const bool absorb =
          (h.mode == mode && touching) ||
          (mode == LockMode::rw && h.mode == LockMode::ro &&
           grant.contains(h.range));
      if (!absorb) continue;
      const TokenRange widened{std::min(grant.lo, h.range.lo),
                               std::max(grant.hi, h.range.hi)};
      if (widened != grant) grew = true;
      grant = widened;
      if (own_n == kMaxAbsorb) {
        // Spill: flush the collected batch now (descending order keeps
        // the remaining indices valid) and keep scanning.
        std::sort(own, own + own_n, std::greater<>{});
        for (std::size_t k = 0; k < own_n; ++k) erase_at(t, own[k]);
        own_n = 0;
        grew = true;
        break;
      }
      own[own_n++] = i;
    }
  }
  if (own_n == 1) {
    const std::size_t i = own[0];
    const bool lo_ok = i == 0 || t.hs[i - 1].range.lo <= grant.lo;
    const bool hi_ok =
        i + 1 == t.hs.size() || grant.lo <= t.hs[i + 1].range.lo;
    if (lo_ok && hi_ok) {
      t.hs[i] = Holding{client, mode, grant};
      refresh_prefix(t, i);
      d.granted = true;
      d.granted_range = grant;
      return d;
    }
  }
  std::sort(own, own + own_n, std::greater<>{});
  for (std::size_t k = 0; k < own_n; ++k) erase_at(t, own[k]);
  insert_sorted(t, Holding{client, mode, grant});

  d.granted = true;
  d.granted_range = grant;
  return d;
}

void TokenManager::release(ClientId client, InodeNum ino, TokenRange range) {
  auto it = by_inode_.find(ino);
  if (it == by_inode_.end()) return;
  Table& t = it->second;
  if (find_client(t, client) == t.clients.end()) return;
  const auto [first, last] = overlap_window(t, range.lo, range.hi);
  for (std::size_t i = last; i-- > first;) {
    const Holding h = t.hs[i];
    if (h.client != client || !h.range.overlaps(range)) continue;
    // Trim [range) out of the holding; up to two fragments survive.
    const bool left = h.range.lo < range.lo;
    const bool right = range.hi < h.range.hi;
    if (left) {
      shrink_at(t, i, TokenRange{h.range.lo, range.lo});
    } else {
      erase_at(t, i);
    }
    if (right) {
      insert_sorted(t, Holding{h.client, h.mode, {range.hi, h.range.hi}});
    }
  }
  // A release can leave fragments of the same client and mode flush
  // against survivors (e.g. a revoke that exactly met an existing
  // fragment boundary); merge them so long-lived streaming clients
  // don't accumulate fragmented holdings.
  const auto cit = find_client(t, client);
  if (cit != t.clients.end() && cit->second >= 2) {
    const Bytes qlo = range.lo > 0 ? range.lo - 1 : 0;
    const Bytes qhi = range.hi < kWholeFile ? range.hi + 1 : kWholeFile;
    for (bool again = true; again;) {
      again = false;
      const auto [f2, l2] = overlap_window(t, qlo, qhi);
      for (std::size_t i = f2; i < l2; ++i) {
        if (t.hs[i].client != client) continue;
        const std::size_t before = t.hs.size();
        coalesce_around(t, i);
        if (t.hs.size() != before) {
          again = true;  // indices shifted; rescan the window
          break;
        }
      }
    }
  }
  drop_if_empty(ino);
}

void TokenManager::release_all(ClientId client) {
  for (auto it = by_inode_.begin(); it != by_inode_.end();) {
    Table& t = it->second;
    auto cit = find_client(t, client);
    if (cit == t.clients.end()) {
      ++it;
      continue;
    }
    total_ -= cit->second;
    t.clients.erase(cit);
    t.hs.erase(std::remove_if(
                   t.hs.begin(), t.hs.end(),
                   [client](const Holding& h) { return h.client == client; }),
               t.hs.end());
    if (t.hs.empty()) {
      it = by_inode_.erase(it);
    } else {
      refresh_prefix(t, 0);
      ++it;
    }
  }
}

void TokenManager::clear() {
  by_inode_.clear();
  total_ = 0;
}

void TokenManager::install(ClientId client, InodeNum ino, LockMode mode,
                           TokenRange range) {
  Table& t = by_inode_[ino];
  insert_sorted(t, Holding{client, mode, range});
  const auto idx = static_cast<std::size_t>(
                       std::upper_bound(t.hs.begin(), t.hs.end(), range.lo,
                                        below_lo) -
                       t.hs.begin()) -
                   1;
  coalesce_around(t, idx);
}

std::size_t TokenManager::install_batch(
    ClientId client, const std::vector<TokenAssertion>& assertions) {
  // Coalesce the asserted set first: dirty-clamped reassertions from a
  // streaming client arrive as per-span fragments that are adjacent in
  // file order, and installing them raw would make every later
  // conflict probe walk the fragments one by one.
  std::vector<TokenAssertion> merged(assertions);
  std::sort(merged.begin(), merged.end(),
            [](const TokenAssertion& a, const TokenAssertion& b) {
              if (a.ino != b.ino) return a.ino < b.ino;
              if (a.mode != b.mode) return a.mode < b.mode;
              return a.range.lo < b.range.lo;
            });
  std::size_t out = 0;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    TokenAssertion cur = merged[i];
    while (i + 1 < merged.size() && merged[i + 1].ino == cur.ino &&
           merged[i + 1].mode == cur.mode &&
           merged[i + 1].range.lo <= cur.range.hi) {
      cur.range.hi = std::max(cur.range.hi, merged[i + 1].range.hi);
      ++i;
    }
    merged[out++] = cur;
  }
  merged.resize(out);
  for (const TokenAssertion& a : merged) {
    install(client, a.ino, a.mode, a.range);
  }
  return assertions.size();
}

std::vector<Holding> TokenManager::extract(InodeNum ino) {
  auto it = by_inode_.find(ino);
  if (it == by_inode_.end()) return {};
  std::vector<Holding> out = std::move(it->second.hs);
  total_ -= out.size();
  by_inode_.erase(it);
  return out;
}

bool TokenManager::holds(ClientId client, InodeNum ino, TokenRange range,
                         LockMode mode) const {
  auto it = by_inode_.find(ino);
  if (it == by_inode_.end()) return false;
  const Table& t = it->second;
  // A single holding must cover the range (holdings of one client in one
  // mode are kept merged where possible).
  const auto [first, last] = overlap_window(t, range.lo, range.hi);
  for (std::size_t i = first; i < last; ++i) {
    const Holding& h = t.hs[i];
    if (h.client != client) continue;
    if (mode == LockMode::rw && h.mode != LockMode::rw) continue;
    if (h.range.contains(range)) return true;
  }
  return false;
}

const std::vector<Holding>& TokenManager::holdings(InodeNum ino) const {
  auto it = by_inode_.find(ino);
  return it == by_inode_.end() ? kEmpty : it->second.hs;
}

// --------------------------------------------------------------------------
// HeldTokens
// --------------------------------------------------------------------------

namespace {

/// Append to `out` what is left of `r` once `cut` is removed.
void subtract(TokenRange r, TokenRange cut, std::vector<TokenRange>& out) {
  if (!r.overlaps(cut)) {
    out.push_back(r);
    return;
  }
  if (r.lo < cut.lo) out.push_back({r.lo, cut.lo});
  if (cut.hi < r.hi) out.push_back({cut.hi, r.hi});
}

}  // namespace

const HeldTokens::Held* HeldTokens::covers(InodeNum ino, TokenRange r,
                                           LockMode mode) const {
  auto it = held_.find(ino);
  if (it == held_.end()) return nullptr;
  for (const Held& h : it->second) {
    if (mode == LockMode::rw && h.mode != LockMode::rw) continue;
    if (h.range.contains(r)) return &h;
  }
  return nullptr;
}

void HeldTokens::record(InodeNum ino, TokenRange r, LockMode mode,
                        bool widened) {
  auto& v = held_[ino];
  std::vector<Held> kept;
  kept.reserve(v.size());
  for (const Held& h : v) {
    const bool touching = h.range.overlaps(r) || h.range.lo == r.hi ||
                          r.lo == h.range.hi;
    const bool absorb = (h.mode == mode && touching) ||
                        (mode == LockMode::rw && h.mode == LockMode::ro &&
                         r.contains(h.range));
    if (absorb) {
      r.lo = std::min(r.lo, h.range.lo);
      r.hi = std::max(r.hi, h.range.hi);
      widened = widened || h.widened;
    } else {
      kept.push_back(h);
    }
  }
  kept.push_back(Held{mode, r, widened});
  v = std::move(kept);
}

void HeldTokens::trim(InodeNum ino, TokenRange r) {
  auto it = held_.find(ino);
  if (it == held_.end()) return;
  std::vector<Held> next;
  next.reserve(it->second.size());
  for (const Held& h : it->second) {
    const TokenRange x = h.range;
    if (!x.overlaps(r)) {
      next.push_back(h);
      continue;
    }
    if (x.lo < r.lo) next.push_back({h.mode, {x.lo, r.lo}, h.widened});
    if (r.hi < x.hi) next.push_back({h.mode, {r.hi, x.hi}, h.widened});
  }
  if (next.empty()) {
    held_.erase(it);
  } else {
    it->second = std::move(next);
  }
}

std::vector<BlockRange> HeldTokens::blocks(InodeNum ino,
                                           Bytes block_size) const {
  std::vector<BlockRange> out;
  auto it = held_.find(ino);
  if (it == held_.end()) return out;
  std::vector<TokenRange> rs;
  rs.reserve(it->second.size());
  for (const Held& h : it->second) rs.push_back(h.range);
  std::sort(rs.begin(), rs.end(), [](const TokenRange& a, const TokenRange& b) {
    return a.lo < b.lo;
  });
  // Merge touching ranges; emit the whole blocks inside each union.
  TokenRange cur = rs.front();
  for (std::size_t i = 1; i <= rs.size(); ++i) {
    if (i < rs.size() && rs[i].lo <= cur.hi) {
      cur.hi = std::max(cur.hi, rs[i].hi);
      continue;
    }
    const std::uint64_t lo = ceil_div(cur.lo, block_size);
    const std::uint64_t hi =
        cur.hi == kWholeFile ? ~0ULL : cur.hi / block_size;
    if (lo < hi) out.push_back(BlockRange{lo, hi});
    if (i < rs.size()) cur = rs[i];
  }
  return out;
}

HeldTokens::Clamp HeldTokens::clamp(
    const std::function<bool(InodeNum)>& in_domain,
    const std::unordered_map<InodeNum, TokenRange>& dirty_span) {
  Clamp out;
  for (auto it = held_.begin(); it != held_.end();) {
    const InodeNum ino = it->first;
    if (!in_domain(ino)) {
      ++it;
      continue;
    }
    std::vector<Held> kept;
    if (const auto ds = dirty_span.find(ino); ds != dirty_span.end()) {
      for (const Held& h : it->second) {
        if (h.mode != LockMode::rw || !h.range.overlaps(ds->second)) continue;
        const TokenRange clip{std::max(h.range.lo, ds->second.lo),
                              std::min(h.range.hi, ds->second.hi)};
        kept.push_back({LockMode::rw, clip, /*widened=*/false});
        out.kept.push_back(TokenAssertion{ino, LockMode::rw, clip});
      }
    }
    std::vector<TokenRange> remain;
    std::vector<TokenRange> next;
    for (const Held& h : it->second) {
      remain.assign(1, h.range);
      for (const Held& k : kept) {
        next.clear();
        for (const TokenRange& r : remain) subtract(r, k.range, next);
        remain.swap(next);
      }
      for (const TokenRange& r : remain) out.dropped.emplace_back(ino, r);
    }
    if (kept.empty()) {
      it = held_.erase(it);
    } else {
      it->second = std::move(kept);
      ++it;
    }
  }
  return out;
}

}  // namespace mgfs::gpfs
