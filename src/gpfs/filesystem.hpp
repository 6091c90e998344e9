// FileSystem: the manager-side brain of one MGFS file system.
//
// Owns the namespace, the allocation maps, the token manager and the NSD
// table. Metadata operations (op_*) are the *logic* that runs on the
// file-system manager node; cluster.cpp invokes them inside RPC server
// continuations so they cost real network round trips from the client's
// point of view. Token requests that conflict with other clients'
// holdings trigger the revoke protocol through an installed revoker
// callback (flush-then-release at the holder, then grant).
//
// Metadata authority is partitioned into shards (token domains,
// FsConfig::meta_shards): inodes hash into a shard (`ino % N`, unless
// delegated), path-keyed namespace ops hash the path, and each shard
// owns its own TokenManager, journal slice, manager node and manager
// epoch — so token traffic for disjoint inode sets scales across
// manager nodes, and one shard's crash stalls only its own domain.
// Disk leases stay global (shard 0 is the lease home): one batched
// heartbeat per client covers every shard, which is the GPFS view that
// a lease asserts *node liveness*, not per-domain authority. The
// default meta_shards = 1 collapses all of this to the historic single
// manager, byte-identically.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "gpfs/alloc.hpp"
#include "gpfs/blockmap.hpp"
#include "gpfs/journal.hpp"
#include "gpfs/lease.hpp"
#include "gpfs/namespace.hpp"
#include "gpfs/nsd.hpp"
#include "gpfs/token.hpp"
#include "sim/serial_resource.hpp"
#include "sim/simulator.hpp"

namespace mgfs::gpfs {

/// Answer to a write grant: the rw token range granted and the block
/// map of the write's batch, every block placed. `id` grows with every
/// grant; a commit names the newest its client installed.
struct WriteGrant {
  TokenRange range;
  BlockMapChunk map;
  std::uint64_t id = 0;
};

struct OpenResult {
  InodeNum ino = 0;
  Bytes size = 0;
  /// A create for write also hands the creator a write grant over
  /// exactly block 0 (DESIGN.md §5.1), so its first write needs no
  /// further manager round trip. Empty when the manager could not grant
  /// (a takeover rebuild in flight, file system full).
  std::optional<WriteGrant> grant;
};

/// Result of an fsck-style consistency scan (tests / chaos bench).
struct FsckReport {
  std::uint64_t referenced_blocks = 0;  // primaries (copy 0) in block maps
  std::uint64_t allocated_blocks = 0;   // bits set in allocation maps
  std::uint64_t orphaned_blocks = 0;    // allocated but referenced nowhere
  std::uint64_t duplicate_refs = 0;     // same addr held by two copies
  std::uint64_t dangling_refs = 0;      // referenced but not allocated
  std::uint64_t uncommitted_records = 0;  // journal tail of expelled clients
  std::uint64_t replica_refs = 0;        // further copies (copy 1..)
  std::uint64_t divergent_replicas = 0;  // copies awaiting reconciliation

  bool clean() const {
    return orphaned_blocks == 0 && duplicate_refs == 0 &&
           dangling_refs == 0 && uncommitted_records == 0 &&
           divergent_replicas == 0;
  }
};

class FileSystem {
 public:
  /// Revoke outcome: `acked(true)` once the holder flushed and
  /// acknowledged; `acked(false)` when the revoke RPC failed or timed
  /// out — the holder is then a suspect and the caller decides between
  /// waiting out its lease and expelling it.
  using RevokeAck = std::function<void(bool acked)>;
  /// `revoker(holder, ino, range, ack)`: deliver a revoke to `holder`.
  using RevokerFn =
      std::function<void(ClientId, InodeNum, TokenRange, RevokeAck)>;
  /// Notified after a client was expelled and its state reclaimed
  /// (cluster.cpp drops the MountRecord here).
  using ExpelListener = std::function<void(ClientId)>;
  /// Resolve a client's effective access to this FS (mount-session
  /// scoped: local clients rw, remote clusters per mmauth grant).
  using AccessFn = std::function<AccessMode(ClientId)>;
  /// `prober(suspect, done)`: actively probe a suspect over independent
  /// paths (manager ping + second-reporter confirmation) and answer
  /// `done(alive)`. Installed by the cluster; used to confirm a suspect
  /// dead early instead of waiting out the full renewal-miss window.
  using ProberFn = std::function<void(ClientId, std::function<void(bool)>)>;

  FileSystem(sim::Simulator& sim, FsConfig cfg, std::vector<Nsd> nsds,
             net::NodeId manager_node);

  const FsConfig& config() const { return cfg_; }
  const std::string& name() const { return cfg_.name; }
  /// Manager node of `shard` (shard 0 is the lease home).
  net::NodeId manager_node(std::uint32_t shard) const {
    return at(shard).manager_node;
  }
  Bytes block_size() const { return cfg_.block_size; }
  std::size_t nsd_count() const { return nsds_.size(); }
  const Nsd& nsd(std::uint32_t id) const;
  Bytes capacity() const;
  Bytes free_bytes() const;

  Namespace& ns() { return ns_; }
  const Namespace& ns() const { return ns_; }
  AllocationMap& alloc() { return alloc_; }

  // --- metadata sharding (token domains) --------------------------------
  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  /// The shard owning `ino`'s token/journal authority: the delegation
  /// map if the inode's metanode was moved, else `ino % shard_count()`.
  std::uint32_t shard_of(InodeNum ino) const;
  /// Domain of a path-keyed namespace op (open/stat/mkdir/...): a hash
  /// of the path string, so directories spread across shards without
  /// needing the inode first.
  std::uint32_t shard_of_path(const std::string& path) const;
  TokenManager& shard_tokens(std::uint32_t shard) {
    return shards_[shard].tokens;
  }
  MetaJournal& shard_journal(std::uint32_t shard) {
    return shards_[shard].journal;
  }
  /// Assign a shard's manager role (cluster wiring, before traffic).
  void set_shard_manager(std::uint32_t shard, net::NodeId node);
  /// Serialize `done` behind `shard`'s manager CPU, charging
  /// FsConfig::meta_cpu_per_op. With no per-op cost configured this is
  /// a synchronous passthrough (no event is scheduled), so default
  /// configs keep their exact event order.
  void charge_meta(std::uint32_t shard, sim::Callback done);

  // --- metanode delegation ----------------------------------------------
  /// Move `ino`'s token + journal authority to `dst_shard` (GPFS
  /// metanode election: pin a hot file's authority where it is used).
  /// Refused (false) when either shard is mid-takeover, the inode has
  /// an uncommitted journal tail in its current slice, or more than one
  /// client holds tokens on it — authority moves only when the move is
  /// trivially atomic in sim time.
  bool try_delegate(InodeNum ino, std::uint32_t dst_shard);
  std::uint64_t delegations() const { return delegations_; }
  /// Pick the preferred shard for a client's hot inode (installed by
  /// the cluster: lowest-RTT shard manager from the client's node).
  using MetanodePickFn = std::function<std::uint32_t(ClientId)>;
  void set_metanode_picker(MetanodePickFn fn) {
    metanode_pick_ = std::move(fn);
  }

  void set_revoker(RevokerFn fn) { revoker_ = std::move(fn); }
  void set_prober(ProberFn fn) { prober_ = std::move(fn); }
  void set_access_fn(AccessFn fn) { access_fn_ = std::move(fn); }
  void set_expel_listener(ExpelListener fn) {
    expel_listener_ = std::move(fn);
  }

  // --- admission (DESIGN.md §6, "Admission") ----------------------------
  /// The rows of the admission table: the manager ops, a parked token
  /// request or expel wait re-entering (`token_wait`), a write grant
  /// once its token is granted (`grant_recheck`), and the NSD write gate.
  enum class MgrOp : std::uint8_t {
    open_read, open_write, mkdir, unlink, rename, block_map, token,
    token_wait, create_grant, grant_recheck, commit, divergence,
    lease_renew, rejoin, nsd_write,
  };
  static constexpr std::uint32_t kNoShard = ~0u;
  /// The one admission gate: may `client` run `op` now? `shard` is the
  /// op's own domain (its path's or its inode's shard), `also` a
  /// rename's second one. While a domain the op waits on rebuilds, the
  /// answer is Errc::gated: paused, the manager is alive. Otherwise the
  /// gate renews the lease of an op that carries it, then answers stale
  /// to an expelled client and not_authorized or read_only to a mount
  /// without the access the op needs.
  Status admit(MgrOp op, ClientId client, std::uint32_t shard = 0,
               std::uint32_t also = kNoShard);

  LeaseManager& lease() { return lease_; }
  const LeaseManager& lease() const { return lease_; }

  // --- membership (disk leases, DESIGN.md §6) ---------------------------
  /// (Re-)register a client under a fresh lease epoch. Called at mount
  /// and when a lapsed client rejoins.
  std::uint64_t op_client_register(ClientId client);
  /// Renew the disk lease. Errc::stale if the client is unknown or was
  /// expelled — it must re-register before further I/O.
  Result<std::uint64_t> op_lease_renew(ClientId client);
  /// Two-epoch write gate consulted by NSD servers before admitting a
  /// write (DESIGN.md §6): admit when the lease epoch and the inode's
  /// shard's manager epoch are both current; otherwise retry while the
  /// admission table's nsd_write row waits, else fence (non-retryable
  /// stale). Counts fenced attempts in fenced_writes(); a stale
  /// *manager* epoch also counts in stale_manager_fenced().
  NsdServer::GateDecision write_gate(ClientId client, InodeNum ino,
                                     std::uint64_t lease_epoch,
                                     std::uint64_t mgr_epoch);
  /// Expel `client`: mark its lease dead, replay (undo) its uncommitted
  /// journal records, release all its tokens so blocked revokes
  /// complete, and notify the expel listener. Idempotent.
  void expel_client(ClientId client, const char* why);
  /// Lazy membership check: expel every client whose lease lapsed more
  /// than lease_recovery_wait ago. Runs at metadata-op entry.
  void sweep_leases();

  // --- manager failover (DESIGN.md §6: elect -> rebuild -> fence -> resume)
  // Each shard fails over independently: its own epoch, its own
  // recovering flag, its own rebuilt token table. Shard 0's takeover
  // additionally rebuilds the (global) lease plane. Every entry point
  // names its shard; an unsharded fs has only shard 0.
  /// Manager incarnation number of `shard`. Starts at 1; bumped by
  /// every takeover of that shard. Carried on manager-bound RPCs and
  /// NSD write gates so a deposed manager's grants and a partitioned
  /// client's writes under them are rejected as stale.
  std::uint64_t manager_epoch(std::uint32_t shard) const {
    return at(shard).manager_epoch;
  }
  /// Is any shard's takeover rebuild in progress? Metadata ops answer
  /// retryable `gated` and NSD write gates answer `retry` for the
  /// affected shard's domain, so clients pause-and-redrive instead of
  /// failing.
  bool recovering() const;
  bool shard_recovering(std::uint32_t shard) const {
    return at(shard).recovering;
  }
  /// The successor assumes `shard`'s manager role: bump the shard's
  /// epoch, move the role to `successor`, and wipe the shard's volatile
  /// token table (it died with the old manager node). Shard 0 also
  /// wipes the lease table. The caller then queries every registered
  /// client and feeds install_assertion / note_rebuild_nonresponder
  /// before finish_takeover.
  void begin_takeover(net::NodeId successor, std::uint32_t shard);
  /// A client answered the rebuild query: re-register its lease under
  /// its *existing* epoch (still the current grant — its in-flight
  /// writes must keep landing; shard 0 only — other shards leave the
  /// lease plane alone) and install its asserted tokens, which must
  /// already be filtered to `shard`'s inodes.
  void install_assertion(ClientId client, std::uint64_t lease_epoch,
                         const std::vector<TokenAssertion>& tokens,
                         std::uint32_t shard);
  /// A client did not answer the rebuild query. If its node is down it
  /// is expelled at once (journal replay + token reclaim); if the node
  /// is up (gray failure) it gets an already-lapsed must-rejoin lease —
  /// whichever shard it slept through, its tokens there are wiped, so
  /// only a full rejoin (discarding caches) readmits it.
  void note_rebuild_nonresponder(ClientId client, bool node_down,
                                 std::uint32_t shard);
  /// Rebuild complete: leave the recovering state, replay journal tails
  /// of clients that neither reasserted nor kept a lease entry, and run
  /// the lease sweep that was held off during the rebuild.
  void finish_takeover(std::uint32_t shard);
  /// Takeovers across all shards.
  std::uint64_t manager_takeovers() const {
    return sum_shards(&MetaShard::takeovers);
  }
  std::uint64_t shard_takeovers(std::uint32_t shard) const {
    return at(shard).takeovers;
  }
  /// Simulated time the last takeover's rebuild finished; < 0 if never.
  double last_takeover_at() const { return last_takeover_at_; }
  std::uint64_t assertions_rebuilt() const {
    return sum_shards(&MetaShard::assertions_rebuilt);
  }
  std::uint64_t stale_manager_fenced() const {
    return sum_shards(&MetaShard::stale_mgr_fenced);
  }

  // --- recovery-latency accounting (DESIGN.md §6, latency budget) -------
  /// Count one per-client reassertion RPC issued by a takeover rebuild
  /// (cluster.cpp calls this; the invariant under batched reassertion is
  /// rebuild_rpcs == O(clients), not O(grants)).
  void note_rebuild_rpc(std::uint32_t shard) {
    ++shards_[shard].rebuild_rpcs;
  }
  std::uint64_t rebuild_rpcs() const {
    return sum_shards(&MetaShard::rebuild_rpcs);
  }
  /// Writes admitted through the NSD gate *during* a takeover rebuild
  /// because their sender had already reasserted (the overlap window).
  std::uint64_t overlap_writes_admitted() const {
    return sum_shards(&MetaShard::overlap_admits);
  }
  /// Suspects expelled early on probe-quorum confirmation instead of
  /// waiting out duration + recovery_wait.
  std::uint64_t early_expels() const { return lease_.confirms(); }
  /// Seconds from begin_takeover to the first write admitted or token
  /// granted under the new manager epoch, for the most recent takeover
  /// that saw any post-takeover demand; < 0 if none ever has. A
  /// takeover at the tail of a run with nothing left to grant keeps the
  /// previous measurement instead of erasing it. The headline
  /// recovery-latency SLO.
  double takeover_to_first_grant_s() const { return last_first_grant_s_; }

  /// Consistency scan: cross-check every copy in the block maps against
  /// the allocation bitmaps and the journal's uncommitted tail.
  FsckReport fsck() const;

  // --- metadata operations (manager-side logic) ------------------------
  /// A truncating open of an existing file first takes its whole-file
  /// rw token: every holder, `client` included, flushes and drops its
  /// cached state of the file through the revoke path. The blocks are
  /// then freed and the token given back.
  void op_open(const std::string& path, const Principal& who,
               OpenFlags flags, ClientId client,
               std::function<void(Result<OpenResult>)> done);
  Result<StatInfo> op_stat(const std::string& path);
  Result<InodeNum> op_mkdir(const std::string& path, const Principal& who,
                            Mode mode, ClientId client);
  Result<std::vector<std::string>> op_readdir(const std::string& path,
                                              const Principal& who);
  /// `req` is the client's id for this unlink, the same on every
  /// retransmission. An unlink that already ran but whose reply was lost
  /// (say, to a manager crash) is answered from the record of that run
  /// when it is sent again, instead of with not_found. Every token
  /// holding on the dead inode is dropped; the reply names the inode so
  /// the unlinker can drop its own cached state of it.
  Result<InodeNum> op_unlink(const std::string& path, const Principal& who,
                             ClientId client, std::uint64_t req);
  Status op_rename(const std::string& from, const std::string& to,
                   const Principal& who, ClientId client);

  /// Fetch blocks [first_block, first_block + count) of a file's block
  /// map for `client`'s cache, encoded in column extents. A block
  /// another client's commit may still free reads as a hole.
  Result<BlockMapChunk> op_block_map(InodeNum ino, std::uint64_t first_block,
                                     std::size_t count, ClientId client);

  /// The write path's one manager op, charged once: op_token_acquire
  /// of an rw token on `range` with batch window `desired`, then the
  /// batch — every block `desired` touches — placed:
  /// holes are allocated (striped from the file's stripe origin and
  /// journaled), and blocks already placed are referenced, so whoever
  /// logged them no longer undoes them on expel. Records the file size
  /// as at least `size_hint` and answers with the granted range, the
  /// batch's map and the grant's id.
  void op_write_grant(ClientId client, InodeNum ino, TokenRange range,
                      TokenRange desired, Bytes size_hint,
                      std::function<void(Result<WriteGrant>)> done);

  /// fsync and close: record the durable size. This is also the journal
  /// commit point (DESIGN.md §6). The client's allocations outside
  /// `written` (the blocks it wrote since its last commit) are freed
  /// while its rw token over them is unbroken since the grant that made
  /// them and no grant newer than `grant` (the newest it had installed)
  /// referenced them; its other records under the committed size are
  /// retired and no longer undone on expel. `grant` 0 frees nothing.
  Status op_extend_size(InodeNum ino, Bytes size, ClientId client,
                        BlockRange written, std::uint64_t grant);

  // --- replication (DESIGN.md §6, replication model) --------------------
  // Every copy of a block is read through ns().placement(ino, bi).
  /// mmchattr -r: set the file's data-copy count for future allocations.
  Status set_replication(const std::string& path, std::uint8_t copies);
  /// A writer could not propagate a committed write to copy `copy` of
  /// (ino, bi): mark it divergent so no reader serves stale data from it
  /// until reconciliation. Counted in replica_divergences().
  Status op_replica_divergence(ClientId client, InodeNum ino,
                               std::uint64_t bi, std::uint8_t copy);
  /// mmrestripefs -r analogue: copy every divergent replica back up to
  /// date from a clean copy of the same block (data copy is modeled; the
  /// metadata flip is real) and clear its divergent bit, in ascending
  /// (inode, block) order. Returns the number of copies reconciled.
  std::size_t reconcile_replicas();
  /// mmchdisk down/up: a down NSD takes no new allocations (primary or
  /// replica). Reads/writes to existing copies are governed by the data
  /// path (breakers / device failure), not this flag.
  void set_nsd_down(std::uint32_t id, bool down);
  /// Permanent NSD loss (mmdeldisk after a dead RAID set): every copy on
  /// `id` with a surviving clean copy elsewhere is re-protected — a
  /// replacement block is allocated on another NSD (site-spread), data
  /// is copied from the survivor (modeled), and the lost block is freed.
  /// A lost primary moves like any other copy. Blocks are visited in
  /// ascending (inode, block) order. Returns the number of copies
  /// re-protected; copies with no clean survivor are counted as data
  /// loss in the return's complement (callers check fsck + read paths).
  /// Marks the NSD down.
  std::size_t evacuate_nsd(std::uint32_t id);

  std::uint64_t replicas_allocated() const { return replicas_allocated_; }
  std::uint64_t replica_divergences() const { return replica_divergences_; }
  std::uint64_t replicas_reconciled() const { return replicas_reconciled_; }

  // --- token operations -------------------------------------------------
  /// Asynchronous: resolves after any needed revocations complete.
  /// `desired` (⊇ `range`) is the batch window the client would like if
  /// free; the grant is clipped against other holders (see
  /// TokenManager::request) and revocations are driven by `range` only.
  void op_token_acquire(ClientId client, InodeNum ino, TokenRange range,
                        TokenRange desired, LockMode mode,
                        std::function<void(Result<TokenRange>)> done);
  void op_client_gone(ClientId client);

  /// Striping rule: block `bi` of a file lives on NSD (ino + bi) mod n.
  std::uint32_t nsd_for_block(InodeNum ino, std::uint64_t bi) const {
    return static_cast<std::uint32_t>((ino + bi) % nsds_.size());
  }

  std::uint64_t tokens_granted() const { return tokens_granted_; }
  std::uint64_t revocations() const { return revocations_; }
  std::uint64_t lease_renewals() const { return lease_.renewals(); }
  std::uint64_t suspects() const { return lease_.suspects_noted(); }
  std::uint64_t expels() const { return lease_.expels(); }
  std::uint64_t journal_records_replayed() const { return journal_replays_; }
  std::uint64_t fenced_writes() const { return fenced_writes_; }
  /// One-line manager stats in mmpmon style.
  std::string stats() const;

 private:
  /// One metadata shard (token domain): manager-side authority for the
  /// inodes hashed or delegated into it. Shard 0 additionally hosts the
  /// global lease plane.
  struct MetaShard {
    TokenManager tokens;
    MetaJournal journal;
    net::NodeId manager_node{};
    std::uint64_t manager_epoch = 1;
    bool recovering = false;
    double takeover_started_at = -1.0;
    double first_grant_at = -1.0;
    std::vector<sim::Callback> recovery_waiters;
    std::uint64_t takeovers = 0;
    std::uint64_t assertions_rebuilt = 0;
    std::uint64_t rebuild_rpcs = 0;
    std::uint64_t overlap_admits = 0;
    std::uint64_t stale_mgr_fenced = 0;
    /// Manager CPU, only when FsConfig::meta_cpu_per_op > 0 — the
    /// serialization point the shard_sweep bench scales against.
    std::unique_ptr<sim::SerialResource> cpu;
  };
  /// `shard`'s state, bounds-checked.
  const MetaShard& at(std::uint32_t shard) const {
    MGFS_ASSERT(shard < shards_.size(), "bad shard");
    return shards_[shard];
  }
  /// A per-shard counter summed over every shard.
  std::uint64_t sum_shards(std::uint64_t MetaShard::*counter) const {
    std::uint64_t n = 0;
    for (const MetaShard& sh : shards_) n += sh.*counter;
    return n;
  }

  void token_retry(ClientId client, InodeNum ino, TokenRange range,
                   TokenRange desired, LockMode mode, int attempts,
                   std::function<void(Result<TokenRange>)> done);
  /// Drive one conflicting holding out: revoke, and when the holder
  /// does not acknowledge, wait out its lease and expel. `done` runs
  /// once the holding is gone (released or reclaimed).
  void revoke_until_released(ClientId holder, InodeNum ino,
                             TokenRange overlap, sim::Callback done);
  /// Unacked-revoke wait loop: sleeps until the holder's expel is due,
  /// re-revokes if it renewed meanwhile, expels otherwise.
  void await_expel(ClientId holder, InodeNum ino, TokenRange overlap,
                   sim::Callback done);
  /// Probe a fresh suspect before joining the expel wait: a confirmed
  /// corpse gets expel_due at once (early quorum), a live one waits the
  /// normal window.
  void probe_then_await(ClientId holder, InodeNum ino, TokenRange overlap,
                        sim::Callback done);
  /// Park `resume` until the rebuild that closes `shard`'s grants (its
  /// own, else the lease home's) drains the waiter list in
  /// finish_takeover (with a full-recovery-window timer as a safety net
  /// if the rebuild dies).
  void park_for_recovery(std::uint32_t shard, sim::Callback resume);
  /// Stamp `shard`'s first post-takeover service point (write admit or
  /// token grant) for takeover_to_first_grant_s.
  void note_first_grant(std::uint32_t shard);
  /// Does a domain `op` waits on (for `shard`, and `also`) rebuild?
  bool rebuilding(MgrOp op, std::uint32_t shard,
                  std::uint32_t also = kNoShard) const;
  /// Bookkeeping of every token grant, the create grant's included.
  void note_grant(std::uint32_t shard, ClientId client, InodeNum ino);
  /// Apply a revoke `holder` acknowledged: release the holding, and pin
  /// its records under it (no commit of its frees them any more).
  void release_revoked(ClientId holder, InodeNum ino, TokenRange overlap);
  /// Replay (undo) `client`'s uncommitted records in one journal slice.
  void replay_journal_slice(std::uint32_t shard, ClientId client);
  /// Undo one journaled install; false when the copy was re-placed
  /// since (or its inode is gone) and there is nothing of it to undo.
  bool undo(const JournalRecord& r);
  /// A write grant once its token is granted (op_write_grant's, and
  /// the create grant's): reference or allocate the batch's blocks under
  /// a fresh grant id and answer with their map.
  Result<WriteGrant> allocate_batch(ClientId client, InodeNum ino,
                                    TokenRange granted, TokenRange desired,
                                    Bytes size_hint);
  /// Place every copy of the hole (ino, bi) for `client`, each copy
  /// journaled with `grant` before the install. no_space when no NSD
  /// has room.
  Result<BlockPlacement> allocate_block(InodeNum ino, std::uint64_t bi,
                                        ClientId client, std::uint64_t grant);
  /// The create grant: a write grant over exactly block 0 of the fresh
  /// `ino`, under the conditions op_token_acquire grants under; nullopt
  /// when they do not hold or block 0 cannot be allocated.
  std::optional<WriteGrant> grant_first_block(ClientId client,
                                              InodeNum ino);
  /// op_open up to a truncation.
  Result<OpenResult> open_file(const std::string& path, const Principal& who,
                               OpenFlags flags, ClientId client);
  /// A truncating open's second half, once `client`'s own holdings on
  /// `ino` are revoked: the whole-file rw token, then the free.
  void truncate_exclusive(const std::string& path, const Principal& who,
                          ClientId client, InodeNum ino,
                          std::function<void(Result<OpenResult>)> done);
  /// Auto-delegation bookkeeping on a token grant: after
  /// cfg_.auto_delegate_ops consecutive single-client acquires on an
  /// inode, move its metanode to the picker's preferred shard.
  void note_grant_for_delegation(ClientId client, InodeNum ino);
  /// Pick an NSD for the next copy of (ino, bi): prefer a site not yet
  /// holding a copy, then any distinct NSD; skip down NSDs. Returns
  /// nsd_count() when no candidate exists (degrade: skip the copy).
  std::uint32_t pick_replica_nsd(std::uint32_t preferred,
                                 const BlockPlacement& have) const;

  sim::Simulator& sim_;
  FsConfig cfg_;
  std::vector<Nsd> nsds_;
  Namespace ns_;
  AllocationMap alloc_;
  LeaseManager lease_;
  std::vector<MetaShard> shards_;
  RevokerFn revoker_;
  AccessFn access_fn_;
  ExpelListener expel_listener_;
  ProberFn prober_;
  MetanodePickFn metanode_pick_;
  bool sweeping_ = false;
  std::uint64_t tokens_granted_ = 0;
  std::uint64_t last_grant_ = 0;  // id of the newest write grant
  std::uint64_t revocations_ = 0;
  std::uint64_t journal_replays_ = 0;
  std::uint64_t fenced_writes_ = 0;
  /// Each client's last applied unlink request id and the inode it
  /// removed. Durable metadata like the journal, not rebuilt at
  /// takeover, so a successor manager recognises a retransmission too.
  struct UnlinkRecord {
    std::uint64_t req = 0;
    InodeNum ino = 0;
  };
  std::unordered_map<ClientId, UnlinkRecord> last_unlink_;

  // metanode delegation state
  /// Inodes whose authority was moved off their hash shard.
  std::unordered_map<InodeNum, std::uint32_t> delegated_;
  /// Per-inode (last granted client, consecutive-grant streak) for
  /// auto-delegation; only tracked when cfg_.auto_delegate_ops > 0.
  struct GrantStreak {
    ClientId client = 0;
    std::uint32_t streak = 0;
  };
  std::unordered_map<InodeNum, GrantStreak> grant_streaks_;
  std::uint64_t delegations_ = 0;

  // replication state (the copies themselves live in ns_)
  std::vector<std::uint8_t> nsd_down_;
  std::uint64_t replicas_allocated_ = 0;
  std::uint64_t replica_divergences_ = 0;
  std::uint64_t replicas_reconciled_ = 0;

  // fs-level failover accounting (per-shard state lives in MetaShard)
  double last_takeover_at_ = -1.0;
  double last_first_grant_s_ = -1.0;
};

}  // namespace mgfs::gpfs
