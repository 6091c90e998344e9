// Client: a node's view of one mounted MGFS file system.
//
// The client implements the performance-critical half of GPFS:
//   * a pagepool block cache with LRU eviction
//   * sequential-read detection and block readahead
//   * buffered writes with write-behind (WriteBehind, writebehind.hpp;
//     the dirty cap stalls writers) and commit marks (CommitMarks); a
//     write's rw token and block allocation come in one write grant
//     (FileSystem::op_write_grant), a confirmed stream's for a whole
//     batch at once
//   * a token cache (HeldTokens, token.hpp) — byte ranges this node
//     may cache — kept coherent by the manager's revoke protocol
//   * a block-map cache in column extents (BlockMapCache, blockmap.hpp),
//     fetched in chunks, or in one run per token range for a random
//     reader
//   * NSD server failover: primary, then backup, per I/O
//   * fault tolerance: per-RPC deadlines, bounded retry with backoff,
//     and a per-NSD-server circuit breaker (NsdBreaker, breaker.hpp)
//     so I/O prefers the healthy replica instead of re-probing a dead
//     or blackholed primary on every block
//   * the disk lease and per-shard manager views (Session, session.hpp)
//
// All operations are asynchronous (completion callbacks), since every
// miss is real simulated network + disk traffic. One Client == one
// (node, file system, mount session) triple; the same node may hold
// several Clients for several file systems.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/histogram.hpp"
#include "common/retry.hpp"
#include "gpfs/breaker.hpp"
#include "gpfs/filesystem.hpp"
#include "gpfs/pagepool.hpp"
#include "gpfs/readahead.hpp"
#include "gpfs/rpc.hpp"
#include "gpfs/session.hpp"
#include "gpfs/writebehind.hpp"
#include "sim/serial_resource.hpp"

namespace mgfs::gpfs {

struct ClientConfig {
  int readahead_blocks = 32;         // adaptive readahead cap (blocks)
  // --- fault model (DESIGN.md "Failure model & recovery semantics") ---
  sim::Time rpc_deadline = 30.0;     // per-RPC round-trip bound (0 = none)
  RetryPolicy retry{};               // metadata + NSD I/O re-issue policy
};

using Fh = int;  // file handle

/// A client's answer to the manager-takeover rebuild query — one
/// batched reassert_all reply carrying its full membership state: the
/// lease epoch it believes is current, every token it holds, and a
/// dirty-journal summary (how many inodes hold unflushed pages). The
/// successor reconstructs its volatile token/lease tables from these
/// with O(clients) RPCs, not O(grants); the dirty summary sizes the
/// redrive the overlap window must absorb.
struct ManagerAssertReply {
  std::uint64_t lease_epoch = 0;
  std::vector<TokenAssertion> tokens;
  std::size_t dirty_inodes = 0;  // inodes with unflushed write-behind
};

class Client {
 public:
  /// How the client finds the NsdServer object logically running on a
  /// given node (installed by the cluster glue).
  using ServerLookup = std::function<NsdServer*(net::NodeId)>;

  /// Readahead ramp start, in blocks, after the first sequential hit.
  static constexpr std::uint64_t kReadaheadMin = 4;
  /// Write-behind ceiling: past it, writers stall until flushes drain.
  static constexpr Bytes kMaxDirty = WriteBehind::kMaxDirty;

  /// `rng` feeds retry jitter; pass a per-client split of the cluster
  /// stream so runs stay seed-deterministic.
  Client(Rpc& rpc, net::NodeId node, ClientId id, ClientConfig cfg, Rng rng);

  /// Bind to a file system. `access` is the mount session's ceiling
  /// (read_write locally; per mmauth grant for a remote mount) and
  /// `cipher_s_per_byte` the per-byte cost of cipherList=encrypt (0 for
  /// AUTHONLY). Registration with the manager is done by cluster glue.
  void bind(FileSystem* fs, AccessMode access, double cipher_s_per_byte,
            ServerLookup servers);
  bool mounted() const { return fs_ != nullptr; }
  void unbind();

  net::NodeId node() const { return node_; }
  ClientId id() const { return id_; }
  sim::Simulator& simulator() const { return rpc_.pool().network().simulator(); }
  PagePool& pool() { return pool_; }
  AccessMode access() const { return access_; }

  // --- file operations --------------------------------------------------
  void open(const std::string& path, const Principal& who, OpenFlags flags,
            std::function<void(Result<Fh>)> done);
  /// Completes with the byte count actually read (0 at EOF).
  void read(Fh fh, Bytes offset, Bytes len,
            std::function<void(Result<Bytes>)> done);
  /// Buffered write; completes when the data is accepted into the page
  /// pool (possibly after stalling on the dirty cap).
  void write(Fh fh, Bytes offset, Bytes len,
             std::function<void(Result<Bytes>)> done);
  /// Flush the file's dirty pages, then commit its size and allocations
  /// at the manager — only when the inode was written since its last
  /// commit; a clean fsync completes locally (still asynchronously).
  void fsync(Fh fh, std::function<void(Status)> done);
  /// fsync, then drop the handle. A file whose create grant's block 0
  /// is still unwritten once the flush is done commits anyway, handing
  /// the block back.
  void close(Fh fh, std::function<void(Status)> done);
  /// Flush every dirty page of every file (unmount preparation).
  void flush_all(sim::Callback done);
  /// Re-fetch the file's current size from the manager (a reader polling
  /// a file that another node is appending to — the Fig. 5 pattern).
  void refresh_size(Fh fh, std::function<void(Result<Bytes>)> done);
  Bytes known_size(Fh fh) const;

  // --- namespace operations ---------------------------------------------
  void stat(const std::string& path,
            std::function<void(Result<StatInfo>)> done);
  void mkdir(const std::string& path, const Principal& who, Mode mode,
             std::function<void(Status)> done);
  void readdir(const std::string& path, const Principal& who,
               std::function<void(Result<std::vector<std::string>>)> done);
  void unlink(const std::string& path, const Principal& who,
              std::function<void(Status)> done);
  void rename(const std::string& from, const std::string& to,
              const Principal& who, std::function<void(Status)> done);

  // --- coherence (called by cluster glue on manager's behalf) -----------
  /// Flush dirty pages overlapping `range`, drop cached pages, map
  /// entries and token, then run `done`. A revoke stamped with a manager
  /// epoch older than the one this client has adopted is refused
  /// (returns false, `done` never runs) — a deposed manager cannot strip
  /// tokens the successor re-granted. Current-or-newer epochs are
  /// adopted and the revoke proceeds.
  bool handle_revoke(InodeNum ino, TokenRange range, std::uint64_t mgr_epoch,
                     sim::Callback done);

  // --- manager failover (cluster glue + takeover rebuild) ----------------
  /// Takeover rebuild query from a successor manager of `shard` at
  /// `mgr_node` under `mgr_epoch`: adopt the new manager view for that
  /// shard and report our lease epoch plus every held token *of that
  /// shard's inodes*, sorted for determinism. Holdings in other shards
  /// are untouched — their managers did not change. Errc::unavailable
  /// if not mounted.
  Result<ManagerAssertReply> assert_tokens(net::NodeId mgr_node,
                                           std::uint64_t mgr_epoch,
                                           std::uint32_t shard);
  /// An unsolicited token grant from a node claiming to be the manager
  /// under `mgr_epoch`. Refused (returns false) when the epoch is older
  /// than the adopted one — the deposed-manager probe; otherwise the
  /// grant is cached like any widened grant.
  bool deliver_manager_grant(InodeNum ino, TokenRange range, LockMode mode,
                             std::uint64_t mgr_epoch);
  std::uint64_t mgr_takeovers() const { return session_.takeovers(); }
  std::uint64_t mgr_reroutes() const { return session_.reroutes(); }
  std::uint64_t stale_mgr_rejects() const { return session_.stale_rejects(); }

  // --- disk lease (the cluster glue starts the session at mount) ---------
  Session& session() { return session_; }
  std::uint64_t lease_epoch() const { return session_.lease_epoch(); }
  /// The node hosting this client rebooted (fault injector / cluster
  /// glue): all volatile state — caches, tokens, dirty pages, breaker
  /// history — is gone. Open handles survive as objects (callers may
  /// still hold them) but every cached byte is dropped.
  void crash_reset();

  // --- stats -------------------------------------------------------------
  Bytes bytes_read_remote() const { return bytes_read_remote_; }
  Bytes bytes_written_remote() const { return bytes_written_remote_; }
  std::uint64_t nsd_failovers() const { return failovers_; }
  /// Reads served by a non-primary replica copy.
  std::uint64_t replica_reads() const { return replica_reads_; }
  /// Read runs (or flush anchors) redirected to another replica copy.
  std::uint64_t replica_failovers() const { return replica_failovers_; }
  std::uint64_t rpc_retries() const { return rpc_retries_; }
  std::uint64_t rpc_timeouts() const { return rpc_timeouts_; }
  std::uint64_t breaker_opens() const { return breaker_.opens(); }
  std::uint64_t breaker_probes() const { return breaker_.probes(); }
  std::uint64_t readahead_issued() const { return ra_issued_; }
  std::uint64_t blocks_coalesced() const { return coal_blocks_; }
  std::uint64_t coalesced_requests() const { return coal_requests_; }
  std::uint64_t coalesced_splits() const { return coal_splits_; }
  std::uint64_t meta_rpcs_saved() const { return meta_rpcs_saved_; }
  std::uint64_t lease_renewals() const { return session_.renewals(); }
  std::uint64_t lease_lapses() const { return session_.lapses(); }
  std::uint64_t fenced_writes() const { return fenced_writes_; }
  /// Metadata retries issued at the fast recovery-probe cadence.
  std::uint64_t recovery_probes() const { return recovery_probes_; }
  /// Latency of metadata ops that overlapped a takeover rebuild.
  const Histogram& recovery_op_latency() const { return recovery_op_hist_; }
  /// Is the breaker for NSD-server `node` currently open?
  bool breaker_open(net::NodeId node) const { return breaker_.is_open(node); }
  /// mmpmon-style per-client I/O counter report (the GPFS monitoring
  /// interface operators scripted against).
  std::string mmpmon() const;

 private:
  struct OpenFile {
    InodeNum ino = 0;
    Principal who;
    OpenFlags flags;
    Bytes size = 0;  // client's view; refresh_size() re-fetches
    ReadaheadRamp ra;  // sequential-read prefetch ramp
    ReadaheadRamp wb;  // sequential-write detector (write grant batch)
  };

  /// One read call's blocks [b0, b1], the map and readahead window up
  /// to `map_hi`, and its token ask (Client::read plans it).
  struct ReadPlan {
    InodeNum ino = 0;
    TokenRange required;
    TokenRange desired;
    std::uint64_t b0 = 0;
    std::uint64_t b1 = 0;
    std::uint64_t map_hi = 0;
    std::uint64_t random_end = 0;  // see ensure_map
  };
  /// Take the token and block map for `p`, then fill its blocks. An
  /// attempt whose token or map a revoke or takeover dropped while it
  /// waited starts over (`retry`).
  void read_attempt(const ReadPlan& p, bool retry,
                    std::function<void(Result<Bytes>)> done);

  /// Acquire an ro token on `required` (a cache hit short-circuits);
  /// `desired` ⊇ `required` is the window handed to the manager for
  /// clipping. Writes take their rw token with a write grant instead.
  void ensure_token(InodeNum ino, TokenRange required, TokenRange desired,
                    std::function<void(Status)> done);

  // block map cache helpers. Entries carry the full placement (0 copies
  // = hole, 1 for an unreplicated block), so the read path can pick the
  // nearest live copy and fail over across copies. nullopt = not cached.
  std::optional<BlockPlacement> map_entry(InodeNum ino,
                                          std::uint64_t bi) const;
  /// Fetch whatever of blocks [first, first + count) is not cached, in
  /// kMapChunk-aligned chunks. `random_end` > 0 marks a random reader of
  /// a file of that many blocks: its first miss instead fetches, in one
  /// RPC, the maximal run of unmapped blocks around it inside the token
  /// range held there.
  void ensure_map(InodeNum ino, std::uint64_t first, std::uint64_t count,
                  std::uint64_t random_end,
                  std::function<void(Status)> done);
  /// Cache a fetched chunk. Holes are kept only where a held token
  /// covers the whole block (a revoke of that token, or a takeover that
  /// drops it, is what forgets them).
  void install_chunk(InodeNum ino, const BlockMapChunk& chunk);
  /// Best copy to read: lowest-RTT copy whose serving nodes are not all
  /// circuit-broken, excluding divergent copies and those in `tried`.
  /// Returns kMaxReplicas when every copy is tried or divergent.
  std::uint8_t pick_copy(const BlockPlacement& p, std::uint8_t tried) const;

  // metadata path: manager RPC with deadline + bounded backoff retry.
  // `shard` routes the call to the believed manager of that token
  // domain and serializes the server work behind that shard's manager
  // CPU. `started_at`/`saw_recovery` thread first-issue time and
  // whether the op ever saw the recovering gate through the retry
  // chain, feeding the recovery-op latency histogram. A `stale` answer
  // means the manager expelled us: lease recovery starts before `done`
  // runs, so the caller's retry finds a fresh epoch.
  template <typename R>
  void meta_call(std::uint32_t shard, Bytes req_payload,
                 Rpc::ServerFn<R> server,
                 std::function<void(Result<R>)> done, int attempt = 0,
                 double started_at = -1.0, bool saw_recovery = false);
  /// meta_call for a manager op that answers with a plain Status: `op`
  /// runs at the manager, and its reply costs `reply_payload` bytes.
  template <typename Op>
  void meta_status(std::uint32_t shard, Bytes req_payload,
                   Bytes reply_payload, Op op,
                   std::function<void(Status)> done);

  // data path. Fills and flushes travel as NsdRuns — coalesced wire
  // requests. RunDone is a *shared* completion: it fires once per
  // terminal (unsplit) sub-run, covering every item exactly once.
  using RunDone = std::function<void(const NsdRun&, const Status&)>;
  void ensure_block_present(InodeNum ino, std::uint64_t bi,
                            std::function<void(Status)> done);
  /// Queue a fill of `key` from its best copy onto `fetch` and reserve
  /// its waiter slot (the dedup point for later reads). False, with
  /// nothing queued, when the block is unmapped or a hole.
  bool plan_fill(const PageKey& key, bool speculative,
                 std::vector<BlockFetch>& fetch);
  /// Queue readahead fills of blocks [first, last] that are mapped, under
  /// a held token and not cached or in flight, until the speculative
  /// fill budget (counting what `fetch` already holds) runs out.
  void plan_readahead(InodeNum ino, std::uint64_t first, std::uint64_t last,
                      std::vector<BlockFetch>& fetch);
  void issue_fills(std::vector<BlockFetch> fetch);
  void finish_fill(const PageKey& key, const Status& st, bool speculative);
  /// A read run failed terminally: re-issue every item that still has an
  /// untried, non-divergent replica copy against that copy (counting one
  /// replica failover), and fail the rest. Returns false when nothing
  /// could be redirected (single-copy file or all copies tried).
  bool redirect_failed_fills(const NsdRun& r, const Status& st);
  /// Speculative fill of `count` blocks starting at `b0` — the strided
  /// detector's prediction of the next sequential run. Acquires its own
  /// token/map coverage and rides the normal fill path.
  void prefetch_strided(InodeNum ino, std::uint64_t b0, std::uint64_t count);
  void nsd_io_run(NsdRun run, bool write, int attempt, RunDone done);
  /// nsd_io_run as attempt `attempt`, `delay` seconds from now.
  void nsd_io_later(sim::Time delay, NsdRun run, bool write, int attempt,
                    RunDone done);
  void nsd_run_attempt(NsdRun run, bool write,
                       std::vector<net::NodeId> targets, std::size_t ti,
                       int attempt, RunDone done);
  void split_run(NsdRun run, bool write, int attempt, RunDone done);

  // write-behind: send WriteBehind's runs while flight slots are free
  void pump_flush();
  void flush_inode(InodeNum ino, sim::Callback done);
  /// Write-through replication: the anchor copy landed; propagate to
  /// every other clean copy before the page goes clean, so fsync covers
  /// all copies. A copy that cannot be reached is marked divergent at
  /// the manager, and readers skip it until reconciliation.
  void finish_block_flush(const PageKey& k, std::uint8_t anchor);
  void write_replica_copy(const PageKey& k, BlockAddr addr, std::uint8_t copy,
                          sim::Callback done);
  /// Record at the manager (and in local caches) that copy `copy` of the
  /// block missed a committed write.
  void mark_divergent(const PageKey& k, std::uint8_t copy,
                      sim::Callback done);

  // disk lease
  /// Piggybacked renewal at read()/write() entry: past half the lease
  /// duration, send one renewal RPC (no periodic timer — the sim drains
  /// its queue between operations).
  void maybe_renew_lease();
  /// The manager told us our lease is gone (stale renewal or fenced
  /// write): drop everything dirty, invalidate caches, rejoin for a
  /// fresh epoch.
  void on_lease_lapsed();
  /// Retry loop for the rejoin RPC (backoff; superseded by incarnation).
  void attempt_rejoin(int attempt);
  void discard_cached_state(bool reset_breakers);
  /// fsync's body. `closing`: after the flush, the commit also gives
  /// back the create grant's block 0 if it is still unwritten.
  void sync(Fh fh, bool closing, std::function<void(Status)> done);

  // write grants: what they leave behind per inode (GrantState)
  /// Install a write grant answering a write of `required`: its token
  /// (widened if it exceeds `required`), its map chunk, and its batch
  /// merged into the referenced run.
  void install_grant(InodeNum ino, TokenRange required, const WriteGrant& g);
  /// The one gate every give-back of block 0 goes through: true, with
  /// the give-back marked in flight, when `ino`'s create grant is live
  /// and no give-back is in flight — the caller's RPC then carries it
  /// and its answer must reach gave_back.
  bool send_give_back(InodeNum ino);
  /// A give-back of `ino`'s block 0 was answered: forget its cached
  /// placement, the create grant too if it succeeded (`ok`), and release
  /// the block-0 writes that waited on it.
  void gave_back(InodeNum ino, bool ok);
  /// Drop `ino`'s write-grant record. A give-back in flight, and the
  /// block-0 writes it parked, stay until its answer.
  void drop_grants(InodeNum ino);
  /// drop_grants of every inode (lease lapse, crash, unmount).
  void drop_all_grants();
  /// After an unlink: drop the dead inode's tokens, map and pages,
  /// unless write-behind still holds its pages.
  void forget_inode(InodeNum ino);

  OpenFile* file(Fh fh);
  Bytes block_size() const { return fs_->block_size(); }

  Rpc& rpc_;
  net::NodeId node_;
  ClientId id_;
  ClientConfig cfg_;
  Rng rng_;                  // retry jitter (deterministic per client)
  PagePool pool_;
  sim::SerialResource cpu_;  // client-side per-byte cipher work

  FileSystem* fs_ = nullptr;
  AccessMode access_ = AccessMode::none;
  double cipher_ = 0.0;
  ServerLookup servers_;

  Fh next_fh_ = 3;
  std::map<Fh, OpenFile> open_;
  HeldTokens held_;
  std::unordered_map<InodeNum, BlockMapCache> block_map_;
  // Bumped whenever a revoke, takeover or cache discard drops tokens
  // and block-map entries: a read attempt that straddles a bump may
  // find its blocks unmapped and must start over.
  std::uint64_t map_forgets_ = 0;

  // in-flight read fills: waiters per page (an entry with no waiters
  // marks a fire-and-forget readahead fill in flight — the dedup point)
  std::unordered_map<PageKey, std::vector<std::function<void(Status)>>,
                     PageKeyHash>
      fill_waiters_;
  Bytes fill_inflight_ = 0;  // speculative fill bytes in flight

  CommitMarks marks_;  // inodes written since their last commit
  std::uint64_t unlink_seq_ = 0;  // request ids for op_unlink

  /// What this client's write grants on one inode leave behind.
  struct GrantState {
    /// The run of blocks its latest grants referenced (a create grant's
    /// block 0 included). Only a write inside it may skip the manager: a
    /// placement mapped for a read may carry another client's
    /// uncommitted allocation, which only a grant retires.
    BlockRange referenced;
    /// Created here with a block-0 grant, block 0 not written and its
    /// token unbroken since: the first grant past block 0, or the
    /// close, gives the block back.
    bool create = false;
    /// Set while a give-back of block 0 is in flight: the block-0 writes
    /// waiting for its answer (they must not write to the block it may
    /// free).
    std::optional<std::vector<sim::Callback>> parked;

    /// Does losing the token over blocks [lo, hi) end this record?
    bool touched_by(std::uint64_t lo, std::uint64_t hi) const {
      return (create && lo == 0) || (referenced.lo < hi && lo < referenced.hi);
    }
    /// Forget the run and the create grant; true unless a give-back is
    /// still in flight.
    bool drop() {
      referenced = BlockRange{};
      create = false;
      return !parked;
    }
  };
  std::unordered_map<InodeNum, GrantState> grants_;

  WriteBehind wb_{pool_};
  NsdBreaker breaker_;  // NSD server health, keyed by serving node
  Session session_;     // disk lease and per-shard manager views

  Bytes bytes_read_remote_ = 0;
  Bytes bytes_written_remote_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t replica_reads_ = 0;      // fills served by a non-primary copy
  std::uint64_t replica_failovers_ = 0;  // runs redirected to another copy
  std::uint64_t rpc_retries_ = 0;
  std::uint64_t rpc_timeouts_ = 0;
  std::uint64_t ra_issued_ = 0;        // readahead fills issued
  std::uint64_t coal_blocks_ = 0;      // blocks carried by coalesced requests
  std::uint64_t coal_requests_ = 0;    // coalesced (multi-block) requests
  std::uint64_t coal_splits_ = 0;      // coalesced requests split on failure
  std::uint64_t meta_rpcs_saved_ = 0;  // manager RPCs skipped by batching
  std::uint64_t fenced_writes_ = 0;    // writes rejected by epoch fencing
  std::uint64_t recovery_probes_ = 0;  // fast-cadence recovery retries
  // Ops that saw the recovering gate: 10ms bins out to 20s.
  Histogram recovery_op_hist_{0.01, 2000, "recovery_ops"};
};

}  // namespace mgfs::gpfs
