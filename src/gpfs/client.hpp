// Client: a node's view of one mounted MGFS file system.
//
// The client implements the performance-critical half of GPFS:
//   * a pagepool block cache with LRU eviction
//   * sequential-read detection and block readahead
//   * buffered writes with write-behind (dirty cap stalls writers)
//   * a client-side token cache — byte ranges this node may cache —
//     kept coherent by the manager's revoke protocol
//   * a client-side block-address cache fetched in batches
//   * NSD server failover: primary, then backup, per I/O
//   * fault tolerance: per-RPC deadlines, bounded retry with backoff,
//     and a per-NSD-server circuit breaker (health tracking) so I/O
//     prefers the healthy replica instead of re-probing a dead or
//     blackholed primary on every block
//
// All operations are asynchronous (completion callbacks), since every
// miss is real simulated network + disk traffic. One Client == one
// (node, file system, mount session) triple; the same node may hold
// several Clients for several file systems.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/histogram.hpp"
#include "common/retry.hpp"
#include "gpfs/filesystem.hpp"
#include "gpfs/pagepool.hpp"
#include "gpfs/readahead.hpp"
#include "gpfs/rpc.hpp"
#include "sim/serial_resource.hpp"

namespace mgfs::gpfs {

struct ClientConfig {
  Bytes pagepool = 256 * MiB;
  int readahead_blocks = 32;         // adaptive readahead cap (blocks)
  int readahead_min = 4;             // ramp start after first sequential hit
  Bytes max_inflight_fill = 48 * MiB;  // speculative fill bytes in flight
  std::size_t coalesce_blocks = 8;   // max blocks per coalesced NSD request
  std::size_t write_batch_blocks = 64;  // token/alloc batch on write streaks
  Bytes max_dirty = 64 * MiB;        // write-behind ceiling
  std::size_t flush_parallel = 32;   // concurrent write-behind I/Os
  std::size_t map_chunk = 64;        // block-map entries per metadata RPC
  Bytes meta_payload = 256;          // metadata request/response payload

  // --- fault model (DESIGN.md "Failure model & recovery semantics") ---
  sim::Time rpc_deadline = 30.0;     // per-RPC round-trip bound (0 = none)
  RetryPolicy retry{};               // metadata + NSD I/O re-issue policy
  int breaker_threshold = 3;         // consecutive failures to open
  sim::Time breaker_probe = 1.0;     // half-open probe spacing while open
  sim::Time flush_retry_delay = 0.05;  // write-behind requeue after failure
  /// Fixed metadata-retry spacing while the manager gate reports
  /// `recovering`: the full seeded-backoff schedule can sleep through a
  /// short takeover, so redrives probe at this cadence until the gate
  /// clears, then normal backoff resumes.
  sim::Time recovery_probe_interval = 0.05;
};

using Fh = int;  // file handle

/// A client's answer to the manager-takeover rebuild query — one
/// batched reassert_all reply carrying its full membership state: the
/// lease epoch it believes is current, every token it holds, and a
/// dirty-journal summary (write-behind bytes still unflushed and the
/// inodes they belong to). The successor reconstructs its volatile
/// token/lease tables from these with O(clients) RPCs, not O(grants);
/// the dirty summary sizes the redrive the overlap window must absorb.
struct ManagerAssertReply {
  std::uint64_t lease_epoch = 0;
  std::vector<TokenAssertion> tokens;
  Bytes dirty_bytes = 0;                // unflushed write-behind payload
  std::vector<InodeNum> dirty_inodes;   // distinct inodes owning it, sorted
};

class Client {
 public:
  /// How the client finds the NsdServer object logically running on a
  /// given node (installed by the cluster glue).
  using ServerLookup = std::function<NsdServer*(net::NodeId)>;

  /// `rng` feeds retry jitter; pass a per-client split of the cluster
  /// stream so runs stay seed-deterministic.
  Client(Rpc& rpc, net::NodeId node, ClientId id, ClientConfig cfg = {},
         Rng rng = Rng(0x6d6766735f636c69ULL));

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
  const ClientConfig& config() const { return cfg_; }
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
  void fsync(Fh fh, std::function<void(Status)> done);
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
                                           std::uint32_t shard = 0);
  /// An unsolicited token grant from a node claiming to be the manager
  /// under `mgr_epoch`. Refused (returns false) when the epoch is older
  /// than the adopted one — the deposed-manager probe; otherwise the
  /// grant is cached like any widened grant.
  bool deliver_manager_grant(InodeNum ino, TokenRange range, LockMode mode,
                             std::uint64_t mgr_epoch);
  /// Invoked with the target shard whenever a manager RPC fails
  /// retryably — the cluster wires this to its manager-suspicion
  /// machinery so repeated unreachability triggers a takeover of that
  /// shard.
  void set_manager_watch(std::function<void(std::uint32_t)> fn) {
    manager_watch_ = std::move(fn);
  }
  std::uint64_t mgr_takeovers() const { return mgr_takeovers_; }
  std::uint64_t mgr_reroutes() const { return mgr_reroutes_; }
  std::uint64_t stale_mgr_rejects() const { return stale_mgr_rejects_; }

  // --- disk lease (cluster glue wires these at mount) --------------------
  /// Rejoin the cluster after a lease lapse: one manager RPC that
  /// re-registers this client and completes with the fresh epoch.
  using RejoinFn =
      std::function<void(std::function<void(Result<std::uint64_t>)>)>;
  void set_lease(std::uint64_t epoch, double duration);
  void set_rejoin(RejoinFn fn) { rejoin_ = std::move(fn); }
  std::uint64_t lease_epoch() const { return lease_epoch_; }
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
  std::uint64_t breaker_opens() const { return breaker_opens_; }
  std::uint64_t breaker_skips() const { return breaker_skips_; }
  std::uint64_t breaker_probes() const { return breaker_probes_; }
  std::uint64_t readahead_issued() const { return ra_issued_; }
  std::uint64_t blocks_coalesced() const { return coal_blocks_; }
  std::uint64_t coalesced_requests() const { return coal_requests_; }
  std::uint64_t coalesced_splits() const { return coal_splits_; }
  std::uint64_t meta_rpcs_saved() const { return meta_rpcs_saved_; }
  std::uint64_t lease_renewals() const { return lease_renewals_; }
  std::uint64_t lease_lapses() const { return lease_lapses_; }
  std::uint64_t fenced_writes() const { return fenced_writes_; }
  /// Metadata retries issued at the fast recovery-probe cadence.
  std::uint64_t recovery_probes() const { return recovery_probes_; }
  /// Latency of metadata ops that overlapped a takeover rebuild.
  const Histogram& recovery_op_latency() const { return recovery_op_hist_; }
  /// Is the breaker for NSD-server `node` currently open?
  bool breaker_open(net::NodeId node) const;
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
    ReadaheadRamp wb;  // sequential-write batch ramp (token/alloc window)
  };

  struct HeldToken {
    LockMode mode;
    TokenRange range;
    bool widened = false;  // manager granted more than we asked for
  };

  // token cache helpers
  bool token_covers(InodeNum ino, TokenRange r, LockMode mode) const;
  void token_record(InodeNum ino, TokenRange r, LockMode mode, bool widened);
  void token_trim(InodeNum ino, TokenRange r);
  /// Acquire `required` (a cache hit short-circuits); `desired` ⊇
  /// `required` is the batch window handed to the manager for clipping.
  void ensure_token(InodeNum ino, TokenRange required, TokenRange desired,
                    LockMode mode, std::function<void(Status)> done);

  // block map cache helpers. Entries carry the full placement (0 copies
  // = hole, 1 for an unreplicated block), so the read path can pick the
  // nearest live copy and fail over across copies. nullptr = not cached.
  BlockPlacement* map_entry(InodeNum ino, std::uint64_t bi);
  void ensure_map(InodeNum ino, std::uint64_t first, std::uint64_t count,
                  std::function<void(Status)> done);
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
  // chain, feeding the recovery-op latency histogram.
  template <typename R>
  void meta_call(std::uint32_t shard, Bytes req_payload,
                 Rpc::ServerFn<R> server,
                 std::function<void(Result<R>)> done, int attempt = 0,
                 double started_at = -1.0, bool saw_recovery = false);

  // data path. Fills and flushes travel as NsdRuns — coalesced wire
  // requests. RunDone is a *shared* completion: it fires once per
  // terminal (unsplit) sub-run, covering every item exactly once.
  using RunDone = std::function<void(const NsdRun&, const Status&)>;
  void ensure_block_present(InodeNum ino, std::uint64_t bi,
                            std::function<void(Status)> done);
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
  void nsd_run_attempt(NsdRun run, bool write,
                       std::vector<net::NodeId> targets, std::size_t ti,
                       int attempt, RunDone done);
  void split_run(NsdRun run, bool write, int attempt, RunDone done);

  // NSD server health (circuit breaker)
  struct ServerHealth {
    int fails = 0;             // consecutive transient failures
    bool open = false;         // breaker state
    sim::Time next_probe = 0;  // earliest half-open trial while open
  };
  /// May this server be tried now? (closed, or open with a probe due.)
  bool admit_server(net::NodeId n) const;
  /// Called when a request is actually issued to `n`: if the breaker is
  /// open this is the half-open trial, so consume the probe window.
  void consume_probe(net::NodeId n);
  void note_server_ok(net::NodeId n);
  void note_server_fail(net::NodeId n);

  // write-behind
  void pump_flush();
  void flush_inode(InodeNum ino, std::optional<TokenRange> range,
                   sim::Callback done);
  void unstall_writers();
  void check_flush_waiters();
  // Write-through replication: the flush anchors on the primary (or the
  // first clean copy when the primary is divergent); once the anchor
  // write lands, the data is propagated to every other clean copy
  // before the page goes clean — fsync therefore covers all copies. A
  // copy that cannot be reached is marked divergent at the manager so
  // readers skip it until reconciliation.
  /// Anchor copy for flushing `p`: primary if clean, else first clean.
  static std::uint8_t flush_anchor(const BlockPlacement& p);
  /// Anchor landed: propagate to the remaining clean copies, then mark
  /// the page clean and release its inflight accounting.
  void finish_block_flush(const PageKey& k, std::uint8_t anchor);
  void complete_block_flush(const PageKey& k);
  void write_replica_copy(const PageKey& k, BlockAddr addr, std::uint8_t copy,
                          sim::Callback done);
  /// Record at the manager (and in local caches) that copy `copy` of the
  /// block missed a committed write.
  void mark_divergent(const PageKey& k, std::uint8_t copy,
                      sim::Callback done);
  void release_inflight(InodeNum ino);

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

  // manager failover
  /// Adopt (mgr_node, mgr_epoch) as the believed manager view of
  /// `shard`; counts a takeover when the epoch advances. Older epochs
  /// only move the node.
  void adopt_manager_view(std::uint32_t shard, net::NodeId mgr_node,
                          std::uint64_t mgr_epoch);
  /// Before a metadata retry: re-look-up `shard`'s manager node from
  /// the cluster configuration (fs_). Returns the refreshed target and
  /// counts a reroute when it differs from `failed_target`.
  net::NodeId refresh_manager_view(std::uint32_t shard,
                                   net::NodeId failed_target);
  /// (Re-)seed the per-shard manager views from the cluster config
  /// (bind, crash reboot, rejoin).
  void seed_manager_views();

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
  std::unordered_map<InodeNum, std::vector<HeldToken>> held_;
  std::unordered_map<InodeNum,
                     std::unordered_map<std::uint64_t, BlockPlacement>>
      block_map_;

  // in-flight read fills: waiters per page (an entry with no waiters
  // marks a fire-and-forget readahead fill in flight — the dedup point)
  std::unordered_map<PageKey, std::vector<std::function<void(Status)>>,
                     PageKeyHash>
      fill_waiters_;
  Bytes fill_inflight_ = 0;  // speculative fill bytes in flight

  // allocation high-water mark from write-streak batching, per inode:
  // blocks below it were allocated ahead, so a later write skips the
  // allocation RPC entirely
  std::unordered_map<InodeNum, std::uint64_t> alloc_ahead_hi_;

  // write-behind state
  std::deque<PageKey> dirty_fifo_;
  std::unordered_map<PageKey, BlockPlacement, PageKeyHash> dirty_addr_;
  // Consecutive transient anchor-flush failures per page; past a small
  // bound with another clean copy available, the anchor is marked
  // divergent and the flush re-anchors (writes survive a dark primary).
  std::unordered_map<PageKey, int, PageKeyHash> anchor_fails_;
  std::size_t flights_ = 0;
  std::vector<sim::Callback> stalled_writers_;
  // fsync/revoke waiters: (ino, callback fired when no dirty+inflight)
  std::vector<std::pair<InodeNum, sim::Callback>> flush_waiters_;
  std::unordered_map<InodeNum, std::size_t> inflight_per_ino_;

  // NSD server health, keyed by serving node id
  std::unordered_map<std::uint32_t, ServerHealth> nsd_health_;

  // disk lease state
  std::uint64_t lease_epoch_ = 0;
  double lease_duration_ = 0;     // 0 = lease machinery off (raw tests)
  double lease_renewed_at_ = 0;
  bool lease_renew_inflight_ = false;
  bool lapse_handling_ = false;   // rejoin in progress
  RejoinFn rejoin_;
  /// Bumped on crash_reset / lease lapse; async completions from an
  /// older incarnation check it and drop their results.
  std::uint64_t incarnation_ = 0;

  // believed manager view, one per metadata shard: metadata RPCs for a
  // shard target its node; NSD writes and revoke checks carry its epoch
  // (the two-epoch invariant, per token domain)
  struct MgrView {
    net::NodeId node{};
    std::uint64_t epoch = 0;
  };
  std::vector<MgrView> mgr_;
  std::function<void(std::uint32_t)> manager_watch_;

  Bytes bytes_read_remote_ = 0;
  Bytes bytes_written_remote_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t replica_reads_ = 0;      // fills served by a non-primary copy
  std::uint64_t replica_failovers_ = 0;  // runs redirected to another copy
  std::uint64_t rpc_retries_ = 0;
  std::uint64_t rpc_timeouts_ = 0;
  std::uint64_t breaker_opens_ = 0;
  std::uint64_t breaker_skips_ = 0;
  std::uint64_t breaker_probes_ = 0;
  std::uint64_t ra_issued_ = 0;        // readahead fills issued
  std::uint64_t coal_blocks_ = 0;      // blocks carried by coalesced requests
  std::uint64_t coal_requests_ = 0;    // coalesced (multi-block) requests
  std::uint64_t coal_splits_ = 0;      // coalesced requests split on failure
  std::uint64_t meta_rpcs_saved_ = 0;  // token/alloc RPCs skipped by batching
  std::uint64_t lease_renewals_ = 0;   // renewal RPCs acknowledged
  std::uint64_t lease_lapses_ = 0;     // times the lease was lost
  std::uint64_t fenced_writes_ = 0;    // writes rejected by epoch fencing
  std::uint64_t mgr_takeovers_ = 0;    // manager-epoch advances adopted
  std::uint64_t mgr_reroutes_ = 0;     // metadata RPCs re-targeted
  std::uint64_t stale_mgr_rejects_ = 0;  // deposed-manager RPCs refused
  std::uint64_t recovery_probes_ = 0;  // fast-cadence recovery retries
  // Ops that saw the recovering gate: 10ms bins out to 20s.
  Histogram recovery_op_hist_{0.01, 2000, "recovery_ops"};
};

}  // namespace mgfs::gpfs
