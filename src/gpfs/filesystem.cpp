#include "gpfs/filesystem.hpp"

#include <algorithm>
#include <sstream>

#include "common/fanin.hpp"
#include "common/log.hpp"

namespace mgfs::gpfs {
namespace {

std::vector<std::uint64_t> blocks_per_nsd(const std::vector<Nsd>& nsds,
                                          Bytes block_size) {
  std::vector<std::uint64_t> out;
  out.reserve(nsds.size());
  for (const Nsd& n : nsds) {
    MGFS_ASSERT(n.device != nullptr, "NSD without device");
    out.push_back(n.device->capacity() / block_size);
  }
  return out;
}

}  // namespace

FileSystem::FileSystem(sim::Simulator& sim, FsConfig cfg,
                       std::vector<Nsd> nsds, net::NodeId manager_node)
    : sim_(sim),
      cfg_(std::move(cfg)),
      nsds_(std::move(nsds)),
      ns_(cfg_.block_size),
      alloc_(blocks_per_nsd(nsds_, cfg_.block_size)),
      lease_(LeaseConfig{cfg_.lease_duration, cfg_.lease_recovery_wait}) {
  MGFS_ASSERT(!nsds_.empty(), "file system needs at least one NSD");
  nsd_down_.assign(nsds_.size(), 0);
  // All shards start on the founding manager node; the cluster reseats
  // them via set_shard_manager when spreading the plane over nodes.
  shards_.resize(std::max<std::uint32_t>(1, cfg_.meta_shards));
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].manager_node = manager_node;
    if (cfg_.meta_cpu_per_op > 0) {
      shards_[s].cpu = std::make_unique<sim::SerialResource>(
          sim_, cfg_.name + ".meta" + std::to_string(s));
    }
  }
}

const Nsd& FileSystem::nsd(std::uint32_t id) const {
  MGFS_ASSERT(id < nsds_.size(), "bad nsd id");
  return nsds_[id];
}

bool FileSystem::recovering() const {
  for (const MetaShard& s : shards_) {
    if (s.recovering) return true;
  }
  return false;
}

std::uint32_t FileSystem::shard_of(InodeNum ino) const {
  if (shards_.size() == 1) return 0;
  if (!delegated_.empty()) {
    auto it = delegated_.find(ino);
    if (it != delegated_.end()) return it->second;
  }
  return static_cast<std::uint32_t>(ino % shards_.size());
}

std::uint32_t FileSystem::shard_of_path(const std::string& path) const {
  if (shards_.size() == 1) return 0;
  // FNV-1a: stable across runs and platforms, so path->shard routing is
  // part of the deterministic contract.
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : path) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return static_cast<std::uint32_t>(h % shards_.size());
}

void FileSystem::set_shard_manager(std::uint32_t shard, net::NodeId node) {
  MGFS_ASSERT(shard < shards_.size(), "bad shard");
  shards_[shard].manager_node = node;
}

void FileSystem::charge_meta(std::uint32_t shard, sim::Callback done) {
  MetaShard& s = shards_[shard];
  if (!s.cpu || cfg_.meta_cpu_per_op <= 0) {
    // No manager-CPU model: run synchronously. (SerialResource::acquire
    // defers even zero-cost work, which would reorder default runs.)
    done();
    return;
  }
  s.cpu->acquire(cfg_.meta_cpu_per_op, std::move(done));
}

bool FileSystem::try_delegate(InodeNum ino, std::uint32_t dst_shard) {
  MGFS_ASSERT(dst_shard < shards_.size(), "bad shard");
  const std::uint32_t src = shard_of(ino);
  if (src == dst_shard) return true;  // already there
  MetaShard& s = shards_[src];
  MetaShard& d = shards_[dst_shard];
  // Authority moves only when the move is trivially atomic: neither
  // side mid-rebuild, no journal tail that would have to replay in the
  // wrong slice, and at most one token holder (the hot client the move
  // is for) so no revoke protocol is in flight against the table.
  if (s.recovering || d.recovering) return false;
  if (s.journal.has_uncommitted(ino)) return false;
  const std::vector<Holding>& hs = s.tokens.holdings(ino);
  for (std::size_t i = 1; i < hs.size(); ++i) {
    if (hs[i].client != hs[0].client) return false;
  }
  for (const Holding& h : s.tokens.extract(ino)) {
    d.tokens.install(h.client, ino, h.mode, h.range);
  }
  if (dst_shard == ino % shards_.size()) {
    delegated_.erase(ino);  // moved home: the hash answers again
  } else {
    delegated_[ino] = dst_shard;
  }
  ++delegations_;
  MGFS_DEBUG("tokens", cfg_.name << ": delegated ino " << ino << " shard "
                                 << src << " -> " << dst_shard);
  return true;
}

void FileSystem::note_grant_for_delegation(ClientId client, InodeNum ino) {
  if (cfg_.auto_delegate_ops == 0 || !metanode_pick_ || shards_.size() == 1) {
    return;
  }
  GrantStreak& g = grant_streaks_[ino];
  if (g.client != client) {
    g.client = client;
    g.streak = 1;
    return;
  }
  if (++g.streak < cfg_.auto_delegate_ops) return;
  g.streak = 0;  // one attempt per streak; restart the count either way
  const std::uint32_t want = metanode_pick_(client);
  if (want < shards_.size() && want != shard_of(ino)) {
    try_delegate(ino, want);
  }
}

Bytes FileSystem::capacity() const {
  return alloc_.total_capacity() * cfg_.block_size;
}

Bytes FileSystem::free_bytes() const {
  return alloc_.total_free() * cfg_.block_size;
}

AccessMode FileSystem::access_of(ClientId c) const {
  return access_fn_ ? access_fn_(c) : AccessMode::read_write;
}

Result<OpenResult> FileSystem::op_open(const std::string& path,
                                       const Principal& who, OpenFlags flags,
                                       ClientId client) {
  if (shards_[shard_of_path(path)].recovering) {
    return err(Errc::unavailable, "manager takeover in progress");
  }
  lease_touch(client);
  const AccessMode mount_access = access_of(client);
  if (mount_access == AccessMode::none) {
    // An expelled client's mount record is gone, but that is a lease
    // problem, not an authorization one: signal stale so the client
    // rejoins under a fresh epoch instead of giving up.
    if (lease_.expelled(client)) {
      return err(Errc::stale, "expelled: rejoin required");
    }
    return err(Errc::not_authorized, "no access to " + cfg_.name);
  }
  if (flags.write && mount_access != AccessMode::read_write) {
    return err(Errc::read_only,
               cfg_.name + " is exported read-only to this cluster");
  }
  auto ino = ns_.resolve(path);
  const bool created = !ino.ok();
  if (created) {
    if (ino.code() != Errc::not_found || !flags.create) return ino.error();
    // Born in its name's domain: the create, the creator's token and
    // allocations and its commit then all run on one shard's manager.
    ino = ns_.create(path, who, Mode{064}, sim_.now(), shard_count(),
                     shard_of_path(path));
    if (!ino.ok()) return ino.error();
    shards_[shard_of(*ino)].journal.note_sync_op(client, JournalOp::create,
                                                 *ino);
    if (flags.replicas > 1) {
      MGFS_ASSERT(
          ns_.set_replication(
                 *ino, static_cast<std::uint8_t>(std::min<std::uint32_t>(
                           flags.replicas, kMaxReplicas)))
              .ok(),
          "set_replication at create failed");
    }
  }
  auto st = ns_.stat(*ino);
  if (!st.ok()) return st.error();
  if (st->type == FileType::directory && flags.write) {
    return err(Errc::is_a_directory, path);
  }
  if (flags.read) {
    if (auto s = ns_.check_read(*ino, who); !s.ok()) return s.error();
  }
  if (flags.write) {
    if (auto s = ns_.check_write(*ino, who); !s.ok()) return s.error();
  }
  if (flags.truncate && flags.write) {
    auto freed = ns_.truncate(path, who, 0);
    if (!freed.ok()) return freed.error();
    for (const BlockAddr& b : *freed) {
      MGFS_ASSERT(alloc_.free_block(b).ok(), "truncate freed unknown block");
    }
    // The namespace-level free already reclaimed every block; pending
    // alloc undos for this inode would double-free on replay.
    MetaJournal& jrnl = shards_[shard_of(*ino)].journal;
    jrnl.forget_inode(*ino);
    jrnl.note_sync_op(client, JournalOp::truncate, *ino);
    st = ns_.stat(*ino);
  }
  OpenResult out{*ino, st->size, std::nullopt};
  if (created && flags.write) out.grant = grant_first_block(client, *ino);
  return out;
}

std::optional<WriteGrant> FileSystem::grant_first_block(ClientId client,
                                                        InodeNum ino) {
  // A fresh inode has no other holder to conflict with.
  const std::uint32_t s = shard_of(ino);
  TokenManager& tokens = shards_[s].tokens;
  if (!grants_open(s) || lease_.expelled(client) ||
      !tokens.holdings(ino).empty()) {
    return std::nullopt;
  }
  // Exactly block 0, never widened to the whole file: a shared file's
  // other writers would otherwise start by revoking it.
  const TokenRange block0{0, cfg_.block_size};
  Result<WriteGrant> g = allocate_batch(client, ino, block0, block0, 0, false);
  if (!g.ok()) return std::nullopt;
  tokens.install(client, ino, LockMode::rw, block0);
  note_grant(s, client, ino);
  return std::move(*g);
}

std::optional<ClientId> FileSystem::block0_returnable_by(InodeNum ino) const {
  const std::uint32_t s = shard_of(ino);
  const std::optional<ClientId> owner = shards_[s].journal.allocator(ino, 0);
  if (!owner.has_value() ||
      !shards_[s].tokens.holds(*owner, ino, TokenRange{0, cfg_.block_size},
                               LockMode::rw)) {
    return std::nullopt;
  }
  return owner;
}

void FileSystem::give_back_block0(ClientId client, InodeNum ino) {
  // Only while the creator's block-0 token is intact: a revoke let
  // another client reference (and commit) the block.
  if (block0_returnable_by(ino) != client) return;
  for (const JournalRecord& r :
       shards_[shard_of(ino)].journal.take_block(client, ino, 0)) {
    undo(r);
  }
}

Result<StatInfo> FileSystem::op_stat(const std::string& path) {
  return ns_.stat(path);
}

Result<InodeNum> FileSystem::op_mkdir(const std::string& path,
                                      const Principal& who, Mode mode) {
  return ns_.mkdir(path, who, mode, sim_.now());
}

Result<std::vector<std::string>> FileSystem::op_readdir(
    const std::string& path, const Principal& who) {
  return ns_.readdir(path, who);
}

Result<InodeNum> FileSystem::op_unlink(const std::string& path,
                                       const Principal& who, ClientId client,
                                       std::uint64_t req) {
  if (shards_[shard_of_path(path)].recovering) {
    return err(Errc::unavailable, "manager takeover in progress");
  }
  lease_touch(client);
  const AccessMode mount_access = access_of(client);
  if (mount_access != AccessMode::read_write) {
    return err(Errc::read_only, cfg_.name);
  }
  UnlinkRecord& last = last_unlink_[client];
  if (last.req == req) return last.ino;  // a retransmission: already applied
  auto ino = ns_.resolve(path);
  auto freed = ns_.unlink(path, who);
  if (!freed.ok()) return freed.error();
  last = UnlinkRecord{req, *ino};
  for (const BlockAddr& b : *freed) {
    MGFS_ASSERT(alloc_.free_block(b).ok(), "unlink freed unknown block");
  }
  // The inode is gone: its journal tail is moot and no holding on it
  // can protect anything any more.
  const std::uint32_t s = shard_of(*ino);
  shards_[s].journal.forget_inode(*ino);
  shards_[s].journal.note_sync_op(client, JournalOp::unlink, *ino);
  shards_[s].tokens.extract(*ino);
  grant_streaks_.erase(*ino);
  return *ino;
}

Status FileSystem::op_rename(const std::string& from, const std::string& to,
                             const Principal& who) {
  // A rename touches two namespace domains; both must be out of
  // takeover — half-renamed paths across a mid-rebuild shard would be
  // unreachable from the recovering side. Retryable, like every other
  // recovering gate.
  if (shards_[shard_of_path(from)].recovering ||
      shards_[shard_of_path(to)].recovering) {
    return Status(Errc::unavailable, "manager takeover in progress");
  }
  return ns_.rename(from, to, who);
}

Result<BlockMapChunk> FileSystem::op_block_map(InodeNum ino,
                                               std::uint64_t first_block,
                                               std::size_t count,
                                               ClientId client) const {
  if (shards_[shard_of(ino)].recovering) {
    return err(Errc::unavailable, "manager takeover in progress");
  }
  if (ns_.inode(ino) == nullptr) return err(Errc::not_found, "stale inode");
  // Block 0 its creator may still hand back reads as a hole to everyone
  // else: a client without a token there does not cache a hole, so it
  // asks again once it holds one, and never keeps a freed placement.
  const bool hide0 = first_block == 0 && count > 0 &&
                     block0_returnable_by(ino).value_or(client) != client;
  BlockMapEncoder map(first_block, nsds_.size());
  for (std::uint64_t bi = first_block; bi < first_block + count; ++bi) {
    map.add(bi, bi == 0 && hide0 ? BlockPlacement{} : ns_.placement(ino, bi));
  }
  return std::move(map).finish(count);
}

void FileSystem::op_write_grant(
    ClientId client, InodeNum ino, TokenRange range, TokenRange desired,
    Bytes size_hint, bool give_back,
    std::function<void(Result<WriteGrant>)> done) {
  op_token_acquire(client, ino, range, desired, LockMode::rw,
                   [this, client, ino, desired, size_hint, give_back,
                    done = std::move(done)](Result<TokenRange> granted) {
                     if (!granted.ok()) {
                       done(granted.error());
                       return;
                     }
                     done(allocate_batch(client, ino, *granted, desired,
                                         size_hint, give_back));
                   });
}

Result<WriteGrant> FileSystem::allocate_batch(ClientId client, InodeNum ino,
                                              TokenRange granted,
                                              TokenRange desired,
                                              Bytes size_hint,
                                              bool give_back) {
  // A revoke round may have outlasted the client's lease or the file.
  if (lease_.expelled(client)) {
    return err(Errc::stale, "client expelled: rejoin required");
  }
  if (access_of(client) != AccessMode::read_write) {
    return err(Errc::read_only, cfg_.name);
  }
  if (ns_.inode(ino) == nullptr) return err(Errc::not_found, "stale inode");
  MetaJournal& jrnl = shards_[shard_of(ino)].journal;
  if (give_back) give_back_block0(client, ino);
  const Bytes bs = cfg_.block_size;
  const std::uint64_t first = desired.lo / bs;
  const std::uint64_t end = ceil_div(desired.hi, bs);
  BlockMapEncoder map(first, nsds_.size());
  for (std::uint64_t bi = first; bi < end; ++bi) {
    BlockPlacement p = ns_.placement(ino, bi);
    if (p.copies > 0) {
      // A concurrent writer beat us, and this caller now references the
      // block: whoever logged its install must not undo it on expel.
      jrnl.commit_block(ino, bi, client);
      map.add(bi, p);
      continue;
    }
    const Result<BlockPlacement> placed = allocate_block(ino, bi, client);
    if (!placed.ok()) return placed.error();
    map.add(bi, *placed);
  }
  MGFS_ASSERT(ns_.extend_size(ino, size_hint, sim_.now()).ok(),
              "extend_size failed");
  return WriteGrant{granted, std::move(map).finish(end - first)};
}

Result<BlockPlacement> FileSystem::allocate_block(InodeNum ino,
                                                  std::uint64_t bi,
                                                  ClientId client) {
  MetaJournal& jrnl = shards_[shard_of(ino)].journal;
  const auto want_copies = static_cast<std::uint8_t>(
      std::min<std::uint32_t>(ns_.inode(ino)->replication, kMaxReplicas));
  const std::uint32_t preferred = nsd_for_block(ino, bi);
  Result<BlockAddr> addr = err(Errc::unavailable, "preferred NSD down");
  if (!nsd_down_[preferred]) addr = alloc_.allocate_on(preferred);
  for (std::size_t k = 1; !addr.ok() && k < nsds_.size(); ++k) {
    const auto cand =
        static_cast<std::uint32_t>((preferred + k) % nsds_.size());
    if (nsd_down_[cand]) continue;
    addr = alloc_.allocate_on(cand);
  }
  if (!addr.ok()) return err(Errc::no_space, cfg_.name + " is full");
  // WAL rule: every copy's undo record exists before the in-place
  // mutation, so a writer that dies mid-propagation has its
  // half-written copies removed (and blocks freed) at replay instead
  // of surviving as silent stale replicas. Further copies prefer a
  // site-distinct NSD; a full/down cluster degrades to fewer copies
  // rather than failing the write.
  jrnl.log_alloc(client, ino, bi, *addr);
  BlockPlacement p = BlockPlacement::single(*addr);
  for (std::uint8_t c = 1; c < want_copies; ++c) {
    const std::uint32_t target = pick_replica_nsd(preferred, p);
    if (target >= nsds_.size()) break;
    auto ra = alloc_.allocate_on(target);
    if (!ra.ok()) break;
    jrnl.log_replica(client, ino, bi, *ra);
    p.add(*ra);
    ++replicas_allocated_;
  }
  MGFS_ASSERT(ns_.set_placement(ino, bi, p).ok(), "set_placement failed");
  return p;
}

Status FileSystem::admit_own_writes(ClientId client, bool rebuilding) {
  if (rebuilding) {
    // Overlap window: a client that already reasserted has a live lease
    // entry again, and what it reports concerns only *its own*
    // pre-crash writes — no shared table the half-built rebuild could
    // corrupt. Everyone else (unknown, must-rejoin, expelled) stays
    // parked behind the gate: unavailable, never stale, because their
    // fate is not decided until the rebuild ends.
    return lease_.renew(client, sim_.now())
               ? Status{}
               : Status(Errc::unavailable, "manager takeover in progress");
  }
  lease_touch(client);
  return lease_.expelled(client)
             ? Status(Errc::stale, "client expelled: rejoin required")
             : Status{};
}

Status FileSystem::op_extend_size(InodeNum ino, Bytes size, ClientId client,
                                  bool give_back) {
  const std::uint32_t s = shard_of(ino);
  // Served in the overlap window too: an overlapped write's fsync
  // finishes while stragglers are still being queried.
  if (Status st = admit_own_writes(client, shards_[s].recovering); !st.ok()) {
    return st;
  }
  // fsync commit point: allocations under the durable size are real.
  if (give_back) give_back_block0(client, ino);
  shards_[s].journal.commit_allocs(client, ino,
                                   ceil_div(size, cfg_.block_size));
  return ns_.extend_size(ino, size, sim_.now());
}

void FileSystem::op_token_acquire(
    ClientId client, InodeNum ino, TokenRange range, TokenRange desired,
    LockMode mode, std::function<void(Result<TokenRange>)> done) {
  if (!grants_open(shard_of(ino))) {
    done(err(Errc::unavailable, "manager takeover in progress"));
    return;
  }
  lease_touch(client);
  if (lease_.expelled(client)) {
    // Tokens granted to an expelled incarnation would leak on its next
    // expel; make it rejoin first.
    done(err(Errc::stale, "client expelled: rejoin required"));
    return;
  }
  token_retry(client, ino, range, desired, mode, 8, std::move(done));
}

void FileSystem::token_retry(ClientId client, InodeNum ino, TokenRange range,
                             TokenRange desired, LockMode mode, int attempts,
                             std::function<void(Result<TokenRange>)> done) {
  // Re-resolve the shard at every re-entry: a delegation may have moved
  // the inode's authority while this request waited out a revoke round.
  const std::uint32_t s = shard_of(ino);
  if (!grants_open(s)) {
    // A takeover is repopulating this shard's token table from
    // assertions; a request resolved against the half-built state could
    // grant bytes a client is about to reassert. (Shard 0 mid-rebuild
    // also parks everyone: the lease table drives expel decisions for
    // every shard's revoke path.) Park the retry until finish_takeover
    // drains the waiter list (attempts not consumed — nothing was
    // tried). Resuming at rebuild completion, not after a fixed full
    // recovery window, is most of the takeover_to_first_grant_s win.
    park_for_recovery(s, [this, client, ino, range, desired, mode, attempts,
                          done = std::move(done)]() mutable {
      token_retry(client, ino, range, desired, mode, attempts,
                  std::move(done));
    });
    return;
  }
  TokenDecision d = shards_[s].tokens.request(client, ino, range, desired,
                                              mode);
  if (d.granted) {
    note_grant(s, client, ino);
    done(d.granted_range);
    return;
  }
  if (attempts <= 0) {
    done(err(Errc::timed_out, "token revocation livelock"));
    return;
  }
  // Revoke every conflicting holding, then retry.
  FanIn retry(d.conflicts.size(),
              [this, client, ino, range, desired, mode, attempts,
               done = std::move(done)]() mutable {
                token_retry(client, ino, range, desired, mode, attempts - 1,
                            std::move(done));
              });
  for (const Holding& h : d.conflicts) {
    ++revocations_;
    MGFS_DEBUG("tokens", cfg_.name << ": revoking ino " << ino
                                   << " [" << h.range.lo << "," << h.range.hi
                                   << ") from client " << h.client
                                   << " for client " << client);
    // rw conflicts were probed against the full desired window, and the
    // revocation takes the whole overlap back in this one round — the
    // requester's next `batch` writes then hit its token cache instead
    // of re-colliding with the residue block by block. ro conflicts
    // stay scoped to the required bytes (readers never evict a writer
    // for speculative readahead).
    const TokenRange claim = mode == LockMode::rw ? desired : range;
    const TokenRange overlap{std::max(h.range.lo, claim.lo),
                             std::min(h.range.hi, claim.hi)};
    revoke_until_released(h.client, ino, overlap, retry);
  }
}

void FileSystem::revoke_until_released(ClientId holder, InodeNum ino,
                                       TokenRange overlap,
                                       sim::Callback done) {
  MGFS_ASSERT(static_cast<bool>(revoker_),
              "token conflict with no revoker installed");
  if (lease_.expelled(holder)) {
    // Raced with an expel: release_all already reclaimed the holding.
    sim_.defer(std::move(done));
    return;
  }
  if (lease_.suspect(holder)) {
    // A previous revoke already went unanswered; don't stack another
    // long-deadline RPC on a mute node — join the expel wait directly.
    sim::Callback cb = std::move(done);
    sim_.defer([this, holder, ino, overlap, cb = std::move(cb)]() mutable {
      await_expel(holder, ino, overlap, std::move(cb));
    });
    return;
  }
  revoker_(holder, ino, overlap,
           [this, holder, ino, overlap,
            done = std::move(done)](bool acked) mutable {
             if (acked) {
               shards_[shard_of(ino)].tokens.release(holder, ino, overlap);
               done();
               return;
             }
             // No acknowledgement: the holder may be dead. Suspect it,
             // probe for early confirmation, and let the lease clock
             // decide.
             MGFS_DEBUG("lease", cfg_.name << ": revoke to client " << holder
                                           << " unacknowledged; suspect");
             lease_.note_suspect(holder, sim_.now());
             probe_then_await(holder, ino, overlap, std::move(done));
           });
}

void FileSystem::probe_then_await(ClientId holder, InodeNum ino,
                                  TokenRange overlap, sim::Callback done) {
  if (!prober_ || lease_.expelled(holder) ||
      lease_.suspect_confirmed(holder) || !lease_.claim_probe(holder)) {
    await_expel(holder, ino, overlap, std::move(done));
    return;
  }
  prober_(holder, [this, holder, ino, overlap,
                   done = std::move(done)](bool alive) mutable {
    if (!alive && lease_.suspect(holder)) {
      // Probe quorum (manager path + second reporter) both failed:
      // confirm the suspicion so expel_due fires now instead of after
      // the remainder of duration + recovery_wait. A renewal racing in
      // after this clears the confirmation — await_expel re-checks.
      MGFS_DEBUG("lease", cfg_.name << ": suspect " << holder
                                    << " probe-confirmed dead; early expel");
      lease_.confirm_suspect(holder);
    }
    await_expel(holder, ino, overlap, std::move(done));
  });
}

void FileSystem::await_expel(ClientId holder, InodeNum ino,
                             TokenRange overlap, sim::Callback done) {
  const double now = sim_.now();
  const std::uint32_t s = shard_of(ino);
  if (!grants_open(s)) {
    // Hold the expel clock during a takeover rebuild: the lease table
    // (shard 0) or this inode's token table is being repopulated and
    // the holder may be about to reassert. Resume the moment the
    // rebuild finishes, not a full window later.
    park_for_recovery(s, [this, holder, ino, overlap,
                          done = std::move(done)]() mutable {
      await_expel(holder, ino, overlap, std::move(done));
    });
    return;
  }
  if (lease_.expelled(holder)) {
    // Someone else expelled it; release_all already reclaimed the
    // holding we were waiting on.
    done();
    return;
  }
  if (lease_.expel_due(holder, now)) {
    expel_client(holder, "unacknowledged revoke past lease recovery wait");
    done();
    return;
  }
  // Not due yet: sleep until the expel decision point. The renewal
  // check must come *after* the sleep — right after a failed revoke the
  // holder's lease is usually still current, and re-revoking a dead
  // node immediately would spin without advancing simulated time.
  const double wait = std::max(lease_.time_until_expel(holder, now), 1e-3);
  sim_.after(wait, [this, holder, ino, overlap, done = std::move(done)]() mutable {
    if (!lease_.expelled(holder) &&
        lease_.lease_current(holder, sim_.now())) {
      // The holder renewed while we waited (transient partition
      // healed): it is alive, so deliver the revoke again. If it
      // released voluntarily meanwhile the re-revoke is a cheap no-op
      // ack.
      revoke_until_released(holder, ino, overlap, std::move(done));
      return;
    }
    await_expel(holder, ino, overlap, std::move(done));
  });
}

std::uint64_t FileSystem::op_client_register(ClientId client) {
  const std::uint64_t epoch = lease_.register_client(client, sim_.now());
  MGFS_DEBUG("lease", cfg_.name << ": client " << client
                                << " registered, epoch " << epoch);
  return epoch;
}

Result<std::uint64_t> FileSystem::op_lease_renew(ClientId client) {
  // One renewal covers every shard: the lease is node liveness, homed on
  // shard 0. Only the lease home's rebuild gates it — other shards'
  // takeovers must not lapse unrelated clients.
  if (shards_[0].recovering) {
    // Overlap window: a reasserted client's entry is live again, and
    // serving its renewal keeps the lease from lapsing while stragglers
    // are still queried. Anyone the rebuild has not readmitted gets
    // unavailable (retry), never stale — its fate is not decided yet.
    if (lease_.renew(client, sim_.now())) return lease_.epoch_of(client);
    return err(Errc::unavailable, "manager takeover in progress");
  }
  sweep_leases();
  if (!lease_.renew(client, sim_.now())) {
    return err(Errc::stale, "lease lost: re-register required");
  }
  return lease_.epoch_of(client);
}

NsdServer::GateDecision FileSystem::write_gate(ClientId client, InodeNum ino,
                                               std::uint64_t lease_epoch,
                                               std::uint64_t mgr_epoch) {
  // The inode routes the check to its owning shard: the manager epoch
  // is per shard, and only that shard's takeover may gate the write.
  MetaShard& sh = shards_[shard_of(ino)];
  if (sh.recovering || shards_[0].recovering) {
    // Overlap window: a client that already reasserted has a live entry
    // under its preserved epoch and has adopted the new manager epoch —
    // both current means its pre-crash grants are intact, and admitting
    // its writes mid-rebuild opens no hole (reasserted tokens were
    // compatible before the crash; no NEW grants are handed out until
    // finish_takeover). Everyone else retries: a half-built lease table
    // cannot fence, so "unknown" stays retryable, not stale.
    if (mgr_epoch == sh.manager_epoch &&
        lease_.epoch_valid(client, lease_epoch)) {
      ++sh.overlap_admits;
      note_first_grant(shard_of(ino));
      return NsdServer::GateDecision::admit;
    }
    return NsdServer::GateDecision::retry;
  }
  if (mgr_epoch != sh.manager_epoch) {
    // The write rides a grant from a deposed manager incarnation (or
    // the client slept through a takeover without reasserting). Checked
    // before the lease epoch so resurrected-manager traffic is counted
    // distinctly.
    ++sh.stale_mgr_fenced;
    ++fenced_writes_;
    return NsdServer::GateDecision::fence;
  }
  if (!lease_.epoch_valid(client, lease_epoch)) {
    ++fenced_writes_;
    return NsdServer::GateDecision::fence;
  }
  note_first_grant(shard_of(ino));
  return NsdServer::GateDecision::admit;
}

void FileSystem::begin_takeover(net::NodeId successor, std::uint32_t shard) {
  MGFS_ASSERT(shard < shards_.size(), "bad shard");
  MetaShard& sh = shards_[shard];
  MGFS_ASSERT(!sh.recovering, "takeover while another takeover is in flight");
  sh.recovering = true;
  sh.manager_node = successor;
  ++sh.manager_epoch;
  sh.takeover_started_at = sim_.now();
  sh.first_grant_at = -1.0;
  // The shard's token table was the dead manager's volatile memory; the
  // successor starts empty and repopulates from client assertions. The
  // lease table lives on shard 0 only — a data-shard takeover leaves
  // node liveness alone, which is why only its own domain stalls.
  sh.tokens.clear();
  if (shard == 0) lease_.reset_for_takeover();
  MGFS_DEBUG("lease", cfg_.name << ": shard " << shard
                                << " manager takeover, node " << successor.v
                                << " epoch " << sh.manager_epoch);
}

void FileSystem::install_assertion(ClientId client, std::uint64_t lease_epoch,
                                   const std::vector<TokenAssertion>& tokens,
                                   std::uint32_t shard) {
  MGFS_ASSERT(shard < shards_.size(), "bad shard");
  if (lease_.expelled(client)) return;  // expelled mid-rebuild: must rejoin
  if (shard == 0) lease_.install(client, lease_epoch, sim_.now());
  // One batched install per client: the whole asserted holding set for
  // this shard arrived in a single reassert_all reply. Count replies,
  // not tokens — a client whose dirty journal drained before the crash
  // legitimately asserts an empty set, yet its reply is counted all the
  // same.
  shards_[shard].tokens.install_batch(client, tokens);
  ++shards_[shard].assertions_rebuilt;
}

void FileSystem::note_rebuild_nonresponder(ClientId client, bool node_down,
                                           std::uint32_t shard) {
  MGFS_ASSERT(shard < shards_.size(), "bad shard");
  if (lease_.expelled(client)) return;
  if (node_down) {
    // Dead node: its journal tail is replayed right here, during the
    // takeover, so survivors never see its half-installed blocks.
    expel_client(client, "takeover rebuild: node down");
    return;
  }
  // Node up but mute (gray failure / partition): an already-lapsed
  // lease under an epoch it does not know. Global even for a data-shard
  // rebuild — a renewal to shard 0 must not clear the suspicion while
  // the client still holds stale beliefs about this shard's tokens. The
  // sweep expels it after recovery_wait, and any write it sends
  // meanwhile is fenced.
  lease_.install_lapsed_suspect(client, sim_.now());
}

void FileSystem::finish_takeover(std::uint32_t shard) {
  MGFS_ASSERT(shard < shards_.size(), "bad shard");
  MetaShard& sh = shards_[shard];
  MGFS_ASSERT(sh.recovering, "finish_takeover without begin_takeover");
  sh.recovering = false;
  ++sh.takeovers;
  last_takeover_at_ = sim_.now();
  // Clients with uncommitted journal records but no lease entry neither
  // reasserted nor were expelled during the rebuild (e.g. they unmounted
  // uncleanly before the crash): undo their tails now so the namespace
  // is consistent before ops resume. A data-shard takeover replays only
  // its own journal slice; the lease home's takeover reset the whole
  // lease table, so it must check every slice.
  for (std::uint32_t t = 0; t < shards_.size(); ++t) {
    if (shard != 0 && t != shard) continue;
    for (ClientId c : shards_[t].journal.clients_with_uncommitted()) {
      if (lease_.known(c)) continue;
      replay_journal_slice(t, c);
    }
  }
  sweep_leases();  // the expel clock was held during the rebuild
  // Wake everything that parked behind this shard's recovering gate —
  // token retries and expel waits resume now, not a recovery window
  // later.
  std::vector<sim::Callback> waiters = std::move(sh.recovery_waiters);
  sh.recovery_waiters.clear();
  // Staggered drain: waking every parked token retry and expel wait in
  // the same instant turns rebuild completion into a redrive stampede —
  // dozens of conflicting acquires collide, every one pays a revoke
  // round, and the post-takeover goodput dip outlasts the rebuild it
  // just avoided. A couple of milliseconds between waiters keeps the
  // redrive pipelined instead.
  double spread = 0.0;
  for (sim::Callback& w : waiters) {
    sim_.after(spread, std::move(w));
    spread += 0.002;
  }
}

void FileSystem::park_for_recovery(std::uint32_t shard, sim::Callback resume) {
  if (!shards_[shard].recovering) shard = 0;  // the lease home rebuilds
  auto once = std::make_shared<sim::Callback>(std::move(resume));
  auto fire = [once]() {
    if (*once) {
      sim::Callback cb = std::move(*once);
      *once = nullptr;
      cb();
    }
  };
  shards_[shard].recovery_waiters.push_back(fire);
  // Safety net: if the rebuild never completes (e.g. the successor dies
  // mid-takeover and the waiter list is never drained), resume after
  // the old full-recovery-window park anyway so nothing wedges forever.
  sim_.after(std::max(cfg_.lease_recovery_wait, 1e-3), fire);
}

bool FileSystem::grants_open(std::uint32_t shard) const {
  return !shards_[shard].recovering && !shards_[0].recovering;
}

void FileSystem::note_grant(std::uint32_t shard, ClientId client,
                            InodeNum ino) {
  ++tokens_granted_;
  note_first_grant(shard);
  note_grant_for_delegation(client, ino);
}

void FileSystem::note_first_grant(std::uint32_t shard) {
  MetaShard& sh = shards_[shard];
  if (sh.takeover_started_at >= 0 && sh.first_grant_at < 0) {
    sh.first_grant_at = sim_.now();
    const double s = sh.first_grant_at - sh.takeover_started_at;
    // Only a grant inside the old full-recovery window measures this
    // takeover: a first grant arriving later means the cluster simply
    // had no demand — it would time when traffic returned, not how fast
    // the rebuild got out of its way — so the previous measurement is
    // kept instead.
    if (s <= cfg_.lease_duration + cfg_.lease_recovery_wait) {
      last_first_grant_s_ = s;
    }
  }
}

void FileSystem::expel_client(ClientId client, const char* why) {
  if (!lease_.expel(client)) return;  // double expel: already handled
  MGFS_DEBUG("lease", cfg_.name << ": expelling client " << client << " ("
                                << why << ")");
  // Expulsion is global: the lease is node liveness, so every shard's
  // journal slice is replayed and every shard's tokens reclaimed.
  for (std::uint32_t t = 0; t < shards_.size(); ++t) {
    replay_journal_slice(t, client);
    shards_[t].tokens.release_all(client);
  }
  if (expel_listener_) expel_listener_(client);
}

void FileSystem::sweep_leases() {
  if (sweeping_) return;  // expel listeners may re-enter via manager ops
  if (recovering()) return;  // expel clock held until rebuilds are done
  sweeping_ = true;
  for (ClientId c : lease_.sweep(sim_.now())) {
    expel_client(c, "lease expired past recovery wait");
  }
  sweeping_ = false;
}

void FileSystem::replay_journal_slice(std::uint32_t shard, ClientId client) {
  // Undo newest-first: take_uncommitted returns reverse-lsn order, so a
  // block's replica records (logged after its alloc) are undone before
  // the alloc itself.
  for (const JournalRecord& r :
       shards_[shard].journal.take_uncommitted(client)) {
    if (undo(r)) ++journal_replays_;
  }
}

bool FileSystem::undo(const JournalRecord& r) {
  BlockPlacement p = ns_.placement(r.ino, r.block);
  const std::uint8_t c = p.find(r.addr);
  // An alloc record owns copy 0, a replica record one further copy;
  // an address found elsewhere (or nowhere) was re-placed since and
  // is not ours to undo. The inode may be gone entirely — unlink
  // already freed its blocks.
  if (c >= p.copies || (c == 0) != (r.op == JournalOp::alloc)) return false;
  if (c == 0) {
    // Undoing the allocation punches a hole: every copy goes.
    for (std::uint8_t k = 0; k < p.copies; ++k) {
      MGFS_ASSERT(alloc_.free_block(p.addr[k]).ok(),
                  "journal undo: free_block failed");
    }
    p = BlockPlacement{};
  } else {
    MGFS_ASSERT(alloc_.free_block(r.addr).ok(),
                "journal undo: free_block failed");
    p.remove(c);
  }
  MGFS_ASSERT(ns_.set_placement(r.ino, r.block, p).ok(),
              "journal undo: set_placement failed");
  return true;
}

FsckReport FileSystem::fsck() const {
  FsckReport rep;
  // Every in-range copy's address, sorted, so copies sharing a block
  // are neighbours. O(R log R) time and O(R) memory in the references
  // R, plus the allocation map's resident pages; nothing is sized by
  // capacity.
  std::vector<BlockAddr> refs;
  for (InodeNum ino : ns_.inode_list()) {
    const std::uint64_t slots = ns_.inode(ino)->blocks.size();
    for (std::uint64_t bi = 0; bi < slots; ++bi) {
      const BlockPlacement p = ns_.placement(ino, bi);
      for (std::uint8_t c = 0; c < p.copies; ++c) {
        ++(c == 0 ? rep.referenced_blocks : rep.replica_refs);
        if (p.is_divergent(c)) ++rep.divergent_replicas;
        const BlockAddr& a = p.addr[c];
        if (a.nsd >= alloc_.nsd_count() ||
            a.block >= alloc_.capacity_blocks(a.nsd)) {
          ++rep.dangling_refs;
          continue;
        }
        refs.push_back(a);
      }
    }
  }
  std::sort(refs.begin(), refs.end());
  std::uint64_t distinct_allocated = 0;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const bool allocated = alloc_.is_allocated(refs[i]);
    if (!allocated) ++rep.dangling_refs;
    if (i > 0 && refs[i] == refs[i - 1]) {
      ++rep.duplicate_refs;
    } else if (allocated) {
      ++distinct_allocated;
    }
  }
  rep.allocated_blocks = alloc_.allocated_blocks();
  rep.orphaned_blocks = rep.allocated_blocks - distinct_allocated;
  for (ClientId c : lease_.expelled_clients()) {
    // Aggregate across journal slices: an expelled client's tail may be
    // spread over several shards.
    for (const MetaShard& sh : shards_) {
      rep.uncommitted_records += sh.journal.uncommitted_count(c);
    }
  }
  return rep;
}

std::string FileSystem::stats() const {
  std::ostringstream os;
  os << cfg_.name << ": _tok_ " << tokens_granted_ << " _rvk_ "
     << revocations_ << " _lse_ " << lease_.renewals() << " _sus_ "
     << lease_.suspects_noted() << " _xpl_ " << lease_.expels() << " _rpl_ "
     << journal_replays_ << " _fnc_ " << fenced_writes_ << " _rdv_ "
     << replica_divergences_ << " _rrc_ " << replicas_reconciled_;
  os << "\n  mgr: node " << shards_[0].manager_node.v << " epoch "
     << shards_[0].manager_epoch << " _mto_ " << manager_takeovers()
     << " _rba_ " << assertions_rebuilt() << " _smf_ "
     << stale_manager_fenced() << " _rrpc_ " << rebuild_rpcs() << " _ovl_ "
     << overlap_writes_admitted() << " _exq_ " << lease_.confirms();
  if (takeover_to_first_grant_s() >= 0) {
    os << " _t1g_ " << takeover_to_first_grant_s();
  }
  if (shards_.size() > 1) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const MetaShard& sh = shards_[s];
      os << "\n  shard " << s << ": node " << sh.manager_node.v << " epoch "
         << sh.manager_epoch << " _mto_ " << sh.takeovers << " _rba_ "
         << sh.assertions_rebuilt << " _tokens_ "
         << sh.tokens.total_holdings() << " _jrnl_ "
         << sh.journal.uncommitted_total();
    }
    os << "\n  delegation: _dlg_ " << delegations_ << " pinned "
       << delegated_.size();
  }
  return os.str();
}

void FileSystem::lease_touch(ClientId client) {
  // Any manager op from the client proves liveness — piggyback the
  // renewal so steady-state I/O needs no extra renewal RPCs (the sim
  // drains its queue between ops; periodic timers would never let it).
  lease_.renew(client, sim_.now());
  sweep_leases();
}

void FileSystem::op_client_gone(ClientId client) {
  // Clean unmount: the client flushed, so its journal tails need no
  // replay — drop them with the lease, across every shard it touched.
  for (MetaShard& sh : shards_) {
    sh.tokens.release_all(client);
    sh.journal.take_uncommitted(client);
  }
  lease_.deregister(client);
}

// --- replication -------------------------------------------------------

Status FileSystem::set_replication(const std::string& path,
                                   std::uint8_t copies) {
  auto ino = ns_.resolve(path);
  if (!ino.ok()) return ino.error();
  return ns_.set_replication(*ino, copies);
}

Status FileSystem::op_replica_divergence(ClientId client, InodeNum ino,
                                         std::uint64_t bi, std::uint8_t copy) {
  // A reasserted writer whose flush just diverted to a replica must be
  // able to record the divergence mid-rebuild.
  if (Status st = admit_own_writes(client, !grants_open(shard_of(ino)));
      !st.ok()) {
    return st;
  }
  BlockPlacement p = ns_.placement(ino, bi);
  if (p.copies <= 1) {
    return Status(Errc::not_found, "no replica set for block");
  }
  if (copy >= p.copies) {
    return Status(Errc::invalid_argument, "no such replica copy");
  }
  if (p.is_divergent(copy)) return Status{};  // already recorded
  if (p.clean_copies() <= 1) {
    // The last clean copy is the only committed data left; marking it
    // divergent would lose the block. The writer must keep retrying it.
    return Status(Errc::unavailable, "last clean copy cannot diverge");
  }
  p.divergent |= static_cast<std::uint8_t>(1u << copy);
  ++replica_divergences_;
  return ns_.set_placement(ino, bi, p);
}

std::size_t FileSystem::reconcile_replicas() {
  std::size_t fixed = 0;
  for (const auto& [ino, bi] : ns_.replicated_blocks()) {
    BlockPlacement p = ns_.placement(ino, bi);
    if (p.divergent == 0) continue;
    if (p.clean_copies() == 0) continue;  // nothing to copy from
    for (std::uint8_t c = 0; c < p.copies; ++c) {
      if (!p.is_divergent(c)) continue;
      const BlockAddr& a = p.addr[c];
      if (nsd_down_[a.nsd] || nsds_[a.nsd].device->failed()) {
        continue;  // still unreachable; stays divergent until healed
      }
      // Modeled data copy from a clean replica: the metadata flips
      // back to clean, which is the part correctness rides on.
      p.divergent &= static_cast<std::uint8_t>(~(1u << c));
      ++fixed;
    }
    MGFS_ASSERT(ns_.set_placement(ino, bi, p).ok(), "reconcile: set failed");
  }
  replicas_reconciled_ += fixed;
  return fixed;
}

void FileSystem::set_nsd_down(std::uint32_t id, bool down) {
  MGFS_ASSERT(id < nsd_down_.size(), "bad nsd id");
  nsd_down_[id] = down ? 1 : 0;
}

std::size_t FileSystem::evacuate_nsd(std::uint32_t id) {
  set_nsd_down(id, true);
  std::size_t moved = 0;
  for (const auto& [ino, bi] : ns_.replicated_blocks()) {
    BlockPlacement p = ns_.placement(ino, bi);
    for (std::uint8_t c = 0; c < p.copies; ++c) {
      if (p.addr[c].nsd != id) continue;
      // Re-protection needs a clean surviving copy to read from.
      bool have_source = false;
      for (std::uint8_t s = 0; s < p.copies; ++s) {
        if (s != c && !p.is_divergent(s) && p.addr[s].nsd != id) {
          have_source = true;
          break;
        }
      }
      if (!have_source) continue;  // single surviving copy is lost data
      const std::uint32_t target = pick_replica_nsd(p.addr[c].nsd, p);
      if (target >= nsds_.size()) continue;  // nowhere to rebuild
      auto ra = alloc_.allocate_on(target);
      if (!ra.ok()) continue;
      MGFS_ASSERT(alloc_.free_block(p.addr[c]).ok(),
                  "evacuate: free of lost block failed");
      p.addr[c] = *ra;
      // The fresh copy is populated from a clean survivor.
      p.divergent &= static_cast<std::uint8_t>(~(1u << c));
      ++moved;
    }
    MGFS_ASSERT(ns_.set_placement(ino, bi, p).ok(), "evacuate: set failed");
  }
  replicas_reconciled_ += moved;
  return moved;
}

std::uint32_t FileSystem::pick_replica_nsd(std::uint32_t preferred,
                                           const BlockPlacement& have) const {
  const auto n = static_cast<std::uint32_t>(nsds_.size());
  // Pass 0 insists on a failure domain (site) none of the existing
  // copies live in — that is what makes a whole-site outage survivable.
  // Pass 1 degrades to any distinct live NSD with space.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint32_t k = 1; k <= n; ++k) {
      const std::uint32_t cand = (preferred + k) % n;
      if (nsd_down_[cand]) continue;
      if (alloc_.free_blocks(cand) == 0) continue;
      bool used = false;
      bool same_site = false;
      for (std::uint8_t c = 0; c < have.copies; ++c) {
        if (have.addr[c].nsd == cand) used = true;
        if (nsds_[have.addr[c].nsd].site == nsds_[cand].site) {
          same_site = true;
        }
      }
      if (used) continue;
      if (pass == 0 && same_site) continue;
      return cand;
    }
  }
  return n;  // no eligible NSD: caller degrades to fewer copies
}

}  // namespace mgfs::gpfs
