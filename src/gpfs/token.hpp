// Distributed byte-range lock tokens.
//
// GPFS keeps client caches coherent with byte-range tokens handed out by
// a token manager: a client may cache (and serve from cache) only ranges
// it holds a token for. Compatible holdings are ro/ro or disjoint
// ranges; anything else forces revocation of the conflicting holders
// (who must flush dirty pages first). The classic optimization is
// implemented too: the first opener of a file is granted a whole-file
// token, so the common single-writer case costs one round trip total.
//
// Readers shape their `desired` range so that grants fit the client's
// pagepool (Client::read): a read always asks for whole blocks, since a
// fill is cached only under a token covering the whole block, and a
// reader that seeks asks for the whole file. Neither rule needs
// anything here: `desired` is clipped away from other clients'
// incompatible holdings and conflicts are probed on `required` only,
// so a wide read ask never revokes a writer.
//
// Each inode's holdings are kept as an interval table: a flat vector
// sorted by range.lo with non-decreasing prefix-max-hi side arrays, so
// overlap probes are O(log n + k) instead of a scan of every holding
// (the batched desired-range requests and O(clients) takeover
// reassertions both clip against these tables on the hot path; with
// hundreds of holders per inode the old linear scans dominated).
//
// TokenManager is the pure decision logic; filesystem.cpp wraps it in
// the revoke/flush/grant message exchange. HeldTokens is the other end:
// one client's cache of the grants it holds.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "gpfs/types.hpp"

namespace mgfs::gpfs {

enum class LockMode { ro, rw };

using ClientId = std::uint32_t;

struct TokenRange {
  Bytes lo = 0;
  Bytes hi = 0;  // exclusive

  bool overlaps(const TokenRange& o) const { return lo < o.hi && o.lo < hi; }
  bool contains(const TokenRange& o) const { return lo <= o.lo && o.hi <= hi; }
  friend bool operator==(const TokenRange&, const TokenRange&) = default;
};

inline constexpr Bytes kWholeFile = std::numeric_limits<Bytes>::max();

struct Holding {
  ClientId client;
  LockMode mode;
  TokenRange range;
};

/// One token a client asserts it holds, reported to a new file-system
/// manager during takeover so the TokenManager tables can be rebuilt
/// from the surviving clients' caches (the manager's own tables are
/// volatile and died with the old manager node).
struct TokenAssertion {
  InodeNum ino = 0;
  LockMode mode = LockMode::ro;
  TokenRange range{};
};

/// What a token request resolves to.
struct TokenDecision {
  bool granted = false;          // true: token handed out immediately
  TokenRange granted_range{};    // may be wider than asked (whole file)
  /// Holders that must give up the overlapping part before the requester
  /// can be granted; empty iff granted. Ordered by range.lo.
  std::vector<Holding> conflicts;
};

class TokenManager {
 public:
  /// Ask for `range` of `ino` in `mode`. If nothing conflicts the token
  /// is granted at once (widened to the whole file when the requester
  /// would be the only holder). Otherwise `conflicts` lists what must be
  /// revoked; the caller revokes and retries.
  TokenDecision request(ClientId client, InodeNum ino, TokenRange range,
                        LockMode mode);

  /// As above, but with a `desired` range (⊇ `range`) the requester
  /// would like if it is free: conflicts are computed on `range` only,
  /// and the grant is `desired` clipped back wherever another client
  /// holds an incompatible range. Streaming clients use this to batch
  /// token traffic over their readahead/write-behind window without
  /// ever forcing a revocation the narrow request would not have.
  TokenDecision request(ClientId client, InodeNum ino, TokenRange range,
                        TokenRange desired, LockMode mode);

  /// Give back (part of) a holding — used both for voluntary release and
  /// to apply a revocation the holder acknowledged. Surviving fragments
  /// that end up flush against another holding of the same client and
  /// mode are coalesced, so long-lived streaming clients don't
  /// accumulate fragmented holdings.
  void release(ClientId client, InodeNum ino, TokenRange range);

  /// Drop every holding of a client (unmount / node expel).
  void release_all(ClientId client);

  /// Manager takeover: wipe all tables. The successor rebuilds them
  /// from client assertions via install().
  void clear();

  /// Install a holding asserted by a client during takeover rebuild.
  /// Trusted blind insert — the asserting clients held these grants
  /// compatibly under the old manager, so no conflict check is run.
  void install(ClientId client, InodeNum ino, LockMode mode,
               TokenRange range);

  /// Install a client's entire asserted holding set (one batched
  /// reassert_all reply), coalescing adjacent/overlapping same-mode
  /// assertions first so post-takeover tables start compact. Returns
  /// the number of holdings installed (pre-coalescing count, so the
  /// caller's per-client rebuild accounting matches what was asserted).
  std::size_t install_batch(ClientId client,
                            const std::vector<TokenAssertion>& assertions);

  /// Remove and return every holding of `ino` — metanode delegation
  /// moving the inode's token authority to another shard's manager. The
  /// receiving TokenManager re-installs them via install(); holdings
  /// were compatible here so they stay compatible there.
  std::vector<Holding> extract(InodeNum ino);

  /// Does `client` hold `range` of `ino` in a mode at least `mode`?
  bool holds(ClientId client, InodeNum ino, TokenRange range,
             LockMode mode) const;

  /// Holdings of `ino`, sorted by range.lo.
  const std::vector<Holding>& holdings(InodeNum ino) const;
  std::size_t total_holdings() const { return total_; }

 private:
  static bool compatible(LockMode a, LockMode b) {
    return a == LockMode::ro && b == LockMode::ro;
  }

  // Interval table for one inode: `hs` sorted by range.lo (ties keep
  // insertion order), with prefix-max arrays over range.hi. Both
  // prefixes are non-decreasing by construction, so binary search
  // finds the leftmost possible overlap; `rw_hi` covers only rw
  // holdings so ro probes can skip compatible readers wholesale.
  struct Table {
    std::vector<Holding> hs;
    std::vector<Bytes> any_hi;  // any_hi[i] = max(hs[0..i].range.hi)
    std::vector<Bytes> rw_hi;   // same, rw holdings only (0 if none)
    // Holdings per client, sorted by client. Most inodes have one
    // holder, so a flat vector: a hash map cost ~200 bytes more each.
    std::vector<std::pair<ClientId, std::uint32_t>> clients;
  };

  // [first, last) index window of holdings possibly overlapping
  // [lo, hi): entries with range.lo < hi and prefix max hi > lo.
  // Individual entries still need an h.range.hi > lo check.
  static std::pair<std::size_t, std::size_t> overlap_window(
      const Table& t, Bytes lo, Bytes hi);

  /// Where `c`'s entry is or would go: `t.clients` is sorted by client.
  static auto client_slot(Table& t, ClientId c) {
    return std::lower_bound(
        t.clients.begin(), t.clients.end(), c,
        [](const auto& e, ClientId v) { return e.first < v; });
  }
  /// `c`'s entry in `t.clients`, else end().
  static auto find_client(Table& t, ClientId c) {
    auto it = client_slot(t, c);
    return it != t.clients.end() && it->first == c ? it : t.clients.end();
  }
  void insert_sorted(Table& t, const Holding& h);
  void erase_at(Table& t, std::size_t idx);
  // In-place edit keeping range.lo (sorted position unchanged).
  void shrink_at(Table& t, std::size_t idx, TokenRange r);
  static void refresh_prefix(Table& t, std::size_t from);
  // Merge hs[idx] into a same-client/same-mode neighbor it touches.
  void coalesce_around(Table& t, std::size_t idx);
  void drop_if_empty(InodeNum ino);

  std::unordered_map<InodeNum, Table> by_inode_;
  std::size_t total_ = 0;
  static const std::vector<Holding> kEmpty;
};

/// One client's token cache: per inode, the byte ranges this node may
/// cache, recorded as the manager grants them and trimmed as it revokes
/// them. Holdings of an inode are a short vector in merge order, and the
/// first holding that covers a probe is the one `covers` reports.
class HeldTokens {
 public:
  struct Held {
    LockMode mode = LockMode::ro;
    TokenRange range;
    bool widened = false;  // the manager granted more than was asked
  };

  /// The first holding of `ino` that contains `r` in a mode at least
  /// `mode` (an ro probe accepts rw holdings), or nullptr.
  const Held* covers(InodeNum ino, TokenRange r, LockMode mode) const;
  /// Cache a grant. It merges with touching same-mode holdings and
  /// absorbs ro holdings an rw grant contains, but never stretches an rw
  /// claim over bytes granted as ro (mirrors TokenManager::request).
  void record(InodeNum ino, TokenRange r, LockMode mode, bool widened);
  /// Drop `r` from every holding of `ino` (a revoke).
  void trim(InodeNum ino, TokenRange r);
  /// Drop every holding of `ino` (its file was unlinked).
  void forget(InodeNum ino) { held_.erase(ino); }
  /// The blocks of `block_size` bytes that holdings of `ino` (any mode)
  /// wholly cover, sorted and disjoint.
  std::vector<BlockRange> blocks(InodeNum ino, Bytes block_size) const;
  void clear() { held_.clear(); }

  /// What a manager takeover clamp kept and dropped.
  struct Clamp {
    std::vector<TokenAssertion> kept;  // in no particular order
    /// What each former holding lost, one entry per surviving piece.
    std::vector<std::pair<InodeNum, TokenRange>> dropped;
  };
  /// Manager takeover of the token domain `in_domain` selects: cut each
  /// of its inodes' holdings down to the rw part inside the inode's
  /// entry in `dirty_span` (no entry: nothing is kept). Inodes outside
  /// the domain are untouched.
  Clamp clamp(const std::function<bool(InodeNum)>& in_domain,
              const std::unordered_map<InodeNum, TokenRange>& dirty_span);

 private:
  std::unordered_map<InodeNum, std::vector<Held>> held_;
};

}  // namespace mgfs::gpfs
