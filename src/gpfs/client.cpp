#include "gpfs/client.hpp"

#include <algorithm>

#include "common/fanin.hpp"
#include "common/log.hpp"

namespace mgfs::gpfs {
namespace {

constexpr Bytes kPagepool = 256 * MiB;
/// Speculative (readahead) fill bytes in flight.
constexpr Bytes kMaxInflightFill = 48 * MiB;
/// Token and allocation batch, in blocks, on a confirmed write streak.
constexpr std::uint64_t kWriteBatchBlocks = 64;
/// Block-map entries per chunk fetch.
constexpr std::uint64_t kMapChunk = 64;
/// Request payload of a namespace or map RPC to the manager.
constexpr Bytes kMetaPayload = 256;
/// Write-behind requeue delay after a failed flush.
constexpr sim::Time kFlushRetryDelay = 0.05;
/// Retry spacing, for metadata RPCs and gated writes, while a manager
/// takeover rebuild is in flight: the seeded-backoff schedule could
/// sleep through a short rebuild, so redrives probe at this cadence
/// until the gate clears, then normal backoff resumes.
constexpr sim::Time kRecoveryProbeInterval = 0.05;

/// Wire cost of a bare request/ack frame on the NSD data protocol.
constexpr Bytes kDataHeader = 64;

/// Per-extent descriptor cost in a vectored NSD request header.
constexpr Bytes kExtentDesc = 16;

}  // namespace

Client::Client(Rpc& rpc, net::NodeId node, ClientId id, ClientConfig cfg,
               Rng rng)
    : rpc_(rpc),
      node_(node),
      id_(id),
      cfg_(cfg),
      rng_(rng),
      pool_(kPagepool, 1 * MiB),
      cpu_(rpc.pool().network().simulator(),
           "client" + std::to_string(id) + ".cpu") {}

// --------------------------------------------------------------------------
// metadata path: deadline + bounded retry toward the FS manager
// --------------------------------------------------------------------------

template <typename R>
void Client::meta_call(std::uint32_t shard, Bytes req_payload,
                       Rpc::ServerFn<R> server,
                       std::function<void(Result<R>)> done, int attempt,
                       double started_at, bool saw_recovery) {
  MGFS_ASSERT(mounted(), "metadata RPC without a mount");
  if (started_at < 0) started_at = simulator().now();
  saw_recovery = saw_recovery || fs_->recovering();
  const net::NodeId target = session_.manager(shard);
  FileSystem* fs = fs_;
  rpc_.call<R>(
      node_, target, req_payload,
      // The server continuation runs behind the shard manager's CPU:
      // with meta_cpu_per_op configured, this serialization point is
      // what sharding spreads across managers; at the default zero
      // cost, charge_meta is a synchronous passthrough.
      [fs, shard, server](Rpc::ReplyFn<R> reply) {
        fs->charge_meta(shard, [server, reply = std::move(reply)]() mutable {
          server(std::move(reply));
        });
      },
      [this, shard, req_payload, server, attempt, target, started_at,
       saw_recovery, done = std::move(done)](Result<R> res) mutable {
        if (res.code() == Errc::timed_out) ++rpc_timeouts_;
        if (res.ok() || !retryable(res.code()) ||
            cfg_.retry.exhausted(attempt)) {
          if (saw_recovery) {
            recovery_op_hist_.add(simulator().now() - started_at);
          }
          if (res.code() == Errc::stale) on_lease_lapsed();
          done(std::move(res));
          return;
        }
        // The manager did not answer: report it so the cluster's
        // suspicion machinery can elect a successor if the node is dead.
        // Two freshness guards, or recovery eats its own tail: no report
        // while a rebuild is in flight (the successor is alive and
        // refusing on purpose — at probe cadence a handful of clients
        // would reach the strike quorum within milliseconds and depose
        // every new manager mid-rebuild), and no report when the role
        // has already moved off the node this RPC was aimed at (a
        // timeout against the deposed manager is stale evidence, not an
        // accusation against its successor).
        const bool was_recovering = mounted() && fs_->shard_recovering(shard);
        if (!was_recovering && fs_->manager_node(shard) == target) {
          session_.accuse(shard);
        }
        ++rpc_retries_;
        // While a takeover rebuild is in flight the failure is the gate,
        // not the network: probe at a short fixed cadence instead of
        // walking the seeded-backoff schedule, or the client sleeps
        // through most of a short rebuild. Normal backoff resumes the
        // moment the gate clears. Re-checked after the watch — the watch
        // itself may have just started the takeover this retry must probe.
        const bool probing = mounted() && fs_->recovering();
        if (probing) ++recovery_probes_;
        const sim::Time delay = probing ? kRecoveryProbeInterval
                                        : cfg_.retry.backoff(attempt, rng_);
        simulator().after(
            delay,
            [this, shard, req_payload, server = std::move(server), attempt,
             target, started_at, saw_recovery,
             done = std::move(done)]() mutable {
              if (!mounted()) {
                done(err(Errc::unavailable, "unmounted during retry"));
                return;
              }
              // Config-manager lookup before the retry: a takeover may
              // have moved the role. A reroute (or a rebuild still in
              // flight) resets the attempt budget — the new target has
              // not failed us yet, and a redrive against a recovering
              // manager must outlast the rebuild, not a 4-attempt burst.
              const net::NodeId fresh = session_.refresh(shard, target, *fs_);
              const int next_attempt =
                  (fs_->recovering() || !(fresh == target)) ? 0 : attempt + 1;
              meta_call<R>(shard, req_payload, std::move(server),
                           std::move(done), next_attempt, started_at,
                           saw_recovery);
            });
      },
      Rpc::CallOptions{cfg_.rpc_deadline});
}

template <typename Op>
void Client::meta_status(std::uint32_t shard, Bytes req_payload,
                         Bytes reply_payload, Op op,
                         std::function<void(Status)> done) {
  meta_call<int>(
      shard, req_payload,
      [op = std::move(op), reply_payload](Rpc::ReplyFn<int> reply) {
        const Status st = op();
        reply(reply_payload,
              st.ok() ? Result<int>(0) : Result<int>(st.error()));
      },
      [done = std::move(done)](Result<int> r) {
        done(r.ok() ? Status{} : Status(r.error()));
      });
}

void Client::bind(FileSystem* fs, AccessMode access, double cipher_s_per_byte,
                  ServerLookup servers) {
  MGFS_ASSERT(fs != nullptr, "bind to null file system");
  MGFS_ASSERT(!mounted(), "client already bound");
  fs_ = fs;
  access_ = access;
  cipher_ = cipher_s_per_byte;
  servers_ = std::move(servers);
  session_.seed(*fs);
  // The pagepool caches whole file-system blocks.
  pool_ = PagePool(kPagepool, fs->block_size());
}

void Client::unbind() {
  fs_ = nullptr;
  access_ = AccessMode::none;
  open_.clear();
  held_.clear();
  block_map_.clear();
  wb_.clear();
  alloc_ahead_hi_.clear();
  marks_.clear();
}

Client::OpenFile* Client::file(Fh fh) {
  auto it = open_.find(fh);
  return it == open_.end() ? nullptr : &it->second;
}

Bytes Client::known_size(Fh fh) const {
  auto it = open_.find(fh);
  return it == open_.end() ? 0 : it->second.size;
}

// --------------------------------------------------------------------------
// token cache
// --------------------------------------------------------------------------

void Client::ensure_token(InodeNum ino, TokenRange required,
                          TokenRange desired, LockMode mode,
                          std::function<void(Status)> done) {
  if (const HeldTokens::Held* h = held_.covers(ino, required, mode)) {
    // A hit on a batched (widened) grant is a metadata RPC the
    // per-block protocol would have made.
    if (h->widened) ++meta_rpcs_saved_;
    done(Status{});
    return;
  }
  FileSystem* fs = fs_;
  const ClientId me = id_;
  meta_call<TokenRange>(
      fs_->shard_of(ino), 64,
      [fs, me, ino, required, desired, mode](Rpc::ReplyFn<TokenRange> reply) {
        fs->op_token_acquire(me, ino, required, desired, mode,
                             [reply](Result<TokenRange> res) {
                               reply(64, std::move(res));
                             });
      },
      [this, ino, required, mode,
       done = std::move(done)](Result<TokenRange> res) {
        if (!res.ok()) {
          done(res.error());
          return;
        }
        const bool widened =
            res->lo < required.lo || res->hi > required.hi;
        held_.record(ino, *res, mode, widened);
        done(Status{});
      });
}

// --------------------------------------------------------------------------
// block map cache
// --------------------------------------------------------------------------

std::optional<BlockPlacement> Client::map_entry(InodeNum ino,
                                                std::uint64_t bi) const {
  auto fit = block_map_.find(ino);
  if (fit == block_map_.end()) return std::nullopt;
  return fit->second.get(bi);
}

void Client::install_chunk(InodeNum ino, const BlockMapChunk& chunk) {
  block_map_[ino].install(chunk, held_.blocks(ino, block_size()));
}

std::uint8_t Client::pick_copy(const BlockPlacement& p,
                               std::uint8_t tried) const {
  std::uint8_t best = static_cast<std::uint8_t>(kMaxReplicas);
  int best_penalty = 2;
  double best_rtt = 0.0;
  const sim::Time now = simulator().now();
  for (std::uint8_t c = 0; c < p.copies; ++c) {
    if ((tried & (1u << c)) != 0 || p.is_divergent(c)) continue;
    const Nsd& nsd = fs_->nsd(p.addr[c].nsd);
    // A copy whose serving nodes are all circuit-broken is a last
    // resort; among equally-live copies the lowest propagation RTT to
    // the primary server wins — the nearest-replica read.
    const bool live = breaker_.admit(nsd.primary, now) ||
                      (nsd.has_backup && breaker_.admit(nsd.backup, now));
    const int penalty = live ? 0 : 1;
    const auto rtt = rpc_.pool().network().rtt(node_, nsd.primary);
    const double d = rtt.has_value() ? *rtt : 1e9;
    if (penalty < best_penalty ||
        (penalty == best_penalty && d < best_rtt)) {
      best = c;
      best_penalty = penalty;
      best_rtt = d;
    }
  }
  return best;
}

void Client::ensure_map(InodeNum ino, std::uint64_t first,
                        std::uint64_t count, std::uint64_t random_end,
                        std::function<void(Status)> done) {
  // Plan the fetches covering missing entries: chunk-aligned, except a
  // random reader's first miss, which takes its whole unmapped run.
  struct Fetch {
    std::uint64_t first;
    std::uint64_t count;
  };
  std::vector<Fetch> fetches;
  for (std::uint64_t bi = first; bi < first + count; ++bi) {
    if (map_entry(ino, bi).has_value()) continue;
    if (random_end > 0 && fetches.empty()) {
      const std::vector<BlockRange> held = held_.blocks(ino, block_size());
      auto t = std::find_if(held.begin(), held.end(), [bi](BlockRange r) {
        return r.lo <= bi && bi < r.hi;
      });
      if (t != held.end()) {
        const std::uint64_t end = std::min(t->hi, random_end);
        std::uint64_t lo = bi;
        std::uint64_t hi = bi + 1;
        while (lo > t->lo && !map_entry(ino, lo - 1).has_value()) --lo;
        while (hi < end && !map_entry(ino, hi).has_value()) ++hi;
        fetches.push_back(Fetch{lo, hi - lo});
        bi = hi - 1;  // skip past the run
        continue;
      }
    }
    const std::uint64_t start = bi - (bi % kMapChunk);
    fetches.push_back(Fetch{start, kMapChunk});
    bi = start + kMapChunk - 1;  // skip to next chunk
  }
  if (fetches.empty()) {
    done(Status{});
    return;
  }
  FanIn fan(fetches.size(), std::move(done));
  FileSystem* fs = fs_;
  const std::uint32_t shard = fs_->shard_of(ino);
  for (const Fetch& fe : fetches) {
    meta_call<BlockMapChunk>(
        shard, kMetaPayload,
        [fs, ino, fe](Rpc::ReplyFn<BlockMapChunk> reply) {
          // Priced at what GPFS indirect blocks hold, ~16 bytes per
          // block covered, however compactly the reply encodes them.
          reply(16 * fe.count, fs->op_block_map(ino, fe.first, fe.count));
        },
        [this, ino, fan](Result<BlockMapChunk> res) {
          if (!res.ok()) {
            fan(res.error());
            return;
          }
          install_chunk(ino, *res);
          fan();
        });
  }
}

// --------------------------------------------------------------------------
// NSD data path
// --------------------------------------------------------------------------

/// One round = try every admitted serving node in preference order
/// (primary, then backup). Rounds are re-run under the retry policy's
/// backoff until it is exhausted; a multi-block run whose servers all
/// failed is split back into single-block retries (split_run) so one
/// poisoned block cannot hold the rest of the run hostage.
void Client::nsd_io_run(NsdRun run, bool write, int attempt, RunDone done) {
  if (!mounted()) {
    done(run, err(Errc::unavailable, "unmounted"));
    return;
  }
  const Nsd& nsd = fs_->nsd(run.nsd);
  const sim::Time now = simulator().now();
  std::vector<net::NodeId> targets;
  if (breaker_.admit(nsd.primary, now)) {
    targets.push_back(nsd.primary);
  } else {
    breaker_.note_skip();
  }
  if (nsd.has_backup && breaker_.admit(nsd.backup, now)) {
    targets.push_back(nsd.backup);
  }
  if (targets.empty()) {
    // Every serving node is circuit-broken with no probe due: fail the
    // round without touching the wire and let the backoff retry pick it
    // up once a probe window opens. Nothing was attempted, so the run
    // stays whole.
    if (cfg_.retry.exhausted(attempt)) {
      done(run, err(Errc::unavailable, "all NSD servers circuit-broken"));
      return;
    }
    ++rpc_retries_;
    nsd_io_later(cfg_.retry.backoff(attempt, rng_), std::move(run), write,
                 attempt + 1, std::move(done));
    return;
  }
  nsd_run_attempt(std::move(run), write, std::move(targets), 0, attempt,
                  std::move(done));
}

void Client::nsd_io_later(sim::Time delay, NsdRun run, bool write,
                          int attempt, RunDone done) {
  simulator().after(delay, [this, run = std::move(run), write, attempt,
                            done = std::move(done)]() mutable {
    nsd_io_run(std::move(run), write, attempt, std::move(done));
  });
}

void Client::nsd_run_attempt(NsdRun run, bool write,
                             std::vector<net::NodeId> targets, std::size_t ti,
                             int attempt, RunDone done) {
  const Nsd& nsd = fs_->nsd(run.nsd);
  const net::NodeId target = targets[ti];
  const Bytes bs = block_size();
  const Bytes total = run.items.size() * bs;
  // One wire request for the whole run: the extent descriptors ride in
  // the header, the data rides in whichever direction the I/O goes.
  const Bytes req = kDataHeader + kExtentDesc * run.extents.size() +
                    (write ? total : 0);
  storage::BlockDevice* dev = nsd.device;
  std::vector<IoExtent> extents;
  extents.reserve(run.extents.size());
  for (const NsdExtent& e : run.extents) {
    extents.push_back(IoExtent{e.block * bs, e.count * bs});
  }
  ServerLookup servers = servers_;
  const double cipher = cipher_;

  // Two-epoch fence, per token domain: the manager epoch travels per
  // shard, so a run coalesced across inodes carries one (representative
  // inode, believed epoch) pair per distinct shard it touches. In the
  // single-shard default this is exactly one consult per write.
  std::vector<std::pair<InodeNum, std::uint64_t>> gates;
  if (write) {
    std::vector<std::uint32_t> gate_shards;
    for (const BlockFetch& f : run.items) {
      const std::uint32_t s = fs_->shard_of(f.key.ino);
      if (std::find(gate_shards.begin(), gate_shards.end(), s) !=
          gate_shards.end()) {
        continue;
      }
      gate_shards.push_back(s);
      gates.emplace_back(f.key.ino, session_.manager_epoch(s));
    }
  }

  auto after_transport = [this, run = std::move(run), write,
                          targets = std::move(targets), ti, attempt, target,
                          total,
                          done = std::move(done)](Result<int> r) mutable {
    if (r.ok()) {
      breaker_.ok(target);
      // cipherList=encrypt: the client pays its half of the per-byte
      // cost too (decrypt on read / encrypt accounted on send path).
      // The client CPU is serial, so concurrent runs queue on it.
      if (cipher_ > 0) {
        cpu_.acquire(cipher_ * static_cast<double>(total),
                     [run = std::move(run), done = std::move(done)] {
                       done(run, Status{});
                     });
      } else {
        done(run, Status{});
      }
      return;
    }
    if (r.code() == Errc::timed_out) ++rpc_timeouts_;
    if (!retryable(r.code())) {
      // Media/namespace errors are final: failing over or retrying
      // would hide real data loss (e.g. a dead RAID set). A fenced
      // write (stale lease epoch) is equally final — the data belongs
      // to a dead incarnation.
      if (write && r.code() == Errc::stale) ++fenced_writes_;
      done(run, r.error());
      return;
    }
    if (r.code() == Errc::gated) {
      // The write gate paused this I/O for a takeover rebuild. The
      // server is healthy — charging it the failure would open its
      // breaker and fail I/O over to the backup for nothing. Requeue on
      // the short recovery cadence; the attempt is not consumed (the
      // rebuild always finishes, so this cannot loop forever).
      ++recovery_probes_;
      nsd_io_later(kRecoveryProbeInterval, std::move(run), write, attempt,
                   std::move(done));
      return;
    }
    breaker_.fail(target, simulator().now());
    if (ti + 1 < targets.size()) {
      ++failovers_;
      MGFS_WARN("client", "nsd " << run.nsd << " server node " << target.v
                                 << " " << errc_name(r.code())
                                 << ", failing over to backup");
      nsd_run_attempt(std::move(run), write, std::move(targets), ti + 1,
                      attempt, std::move(done));
      return;
    }
    if (cfg_.retry.exhausted(attempt)) {
      done(run, r.error());
      return;
    }
    ++rpc_retries_;
    if (run.items.size() > 1) {
      split_run(std::move(run), write, attempt, std::move(done));
      return;
    }
    nsd_io_later(cfg_.retry.backoff(attempt, rng_), std::move(run), write,
                 attempt + 1, std::move(done));
  };

  breaker_.consume_probe(target, simulator().now());
  const ClientId me = id_;
  const std::uint64_t epoch = session_.lease_epoch();
  rpc_.call<int>(
      node_, target, req,
      [servers, target, dev, extents = std::move(extents), write, total,
       cipher, me, epoch, gates = std::move(gates)](Rpc::ReplyFn<int> reply) {
        NsdServer* srv = servers ? servers(target) : nullptr;
        if (srv == nullptr) {
          reply(kDataHeader,
                err(Errc::unavailable, "no NSD service on node"));
          return;
        }
        // Every data RPC carries the client's lease epoch and its
        // believed manager epoch(s); writes from a stale incarnation of
        // either never reach the device. Fence dominates retry: one
        // dead domain poisons the whole run.
        if (write) {
          auto decision = NsdServer::GateDecision::admit;
          for (const auto& [gate_ino, mepoch] : gates) {
            const auto d = srv->write_admitted(me, gate_ino, epoch, mepoch);
            if (d == NsdServer::GateDecision::fence) {
              decision = d;
              break;
            }
            if (d == NsdServer::GateDecision::retry) decision = d;
          }
          switch (decision) {
            case NsdServer::GateDecision::admit:
              break;
            case NsdServer::GateDecision::retry:
              // Manager takeover rebuilding state: pause-and-redrive.
              reply(kDataHeader,
                    err(Errc::gated, "manager takeover in progress"));
              return;
            case NsdServer::GateDecision::fence:
              reply(kDataHeader,
                    err(Errc::stale, "write fenced: stale epoch"));
              return;
          }
        }
        srv->handle_vectored(*dev, extents, write, cipher,
                             [reply, write, total](const Status& st) {
                               const Bytes payload =
                                   write ? kDataHeader : total;
                               if (st.ok()) {
                                 reply(payload, 0);
                               } else {
                                 reply(kDataHeader, Result<int>(st.error()));
                               }
                             });
      },
      std::move(after_transport), Rpc::CallOptions{cfg_.rpc_deadline});
}

/// Both servers failed a coalesced request: re-issue every block as its
/// own single-block run under the next backoff round. Each sub-run
/// reaches the shared RunDone exactly once, so together they cover the
/// original run's items exactly once — no block is lost and none
/// completes twice.
void Client::split_run(NsdRun run, bool write, int attempt, RunDone done) {
  ++coal_splits_;
  MGFS_WARN("client", "splitting failed coalesced request: nsd "
                          << run.nsd << ", " << run.items.size()
                          << " blocks retried singly");
  simulator().after(
      cfg_.retry.backoff(attempt, rng_),
      [this, run = std::move(run), write, attempt,
       done = std::move(done)]() mutable {
        for (const BlockFetch& f : run.items) {
          NsdRun single;
          single.nsd = run.nsd;
          single.items.push_back(f);
          single.extents.push_back(NsdExtent{f.addr.block, 1});
          nsd_io_run(std::move(single), write, attempt + 1, done);
        }
      });
}

void Client::issue_fills(std::vector<BlockFetch> fetch) {
  if (fetch.empty()) return;
  const Bytes bs = block_size();
  auto runs = build_nsd_runs(std::move(fetch), kCoalesceBlocks);
  for (NsdRun& run : runs) {
    for (const BlockFetch& f : run.items) {
      if (f.speculative) fill_inflight_ += bs;
    }
    if (run.items.size() > 1) {
      coal_blocks_ += run.items.size();
      ++coal_requests_;
    }
    nsd_io_run(std::move(run), false, 0,
               [this](const NsdRun& r, const Status& st) {
                 if (!st.ok() && redirect_failed_fills(r, st)) return;
                 for (const BlockFetch& f : r.items) {
                   if (st.ok() && f.copy != 0) ++replica_reads_;
                   finish_fill(f.key, st, f.speculative);
                 }
               });
  }
}

bool Client::redirect_failed_fills(const NsdRun& r, const Status& st) {
  if (!mounted()) return false;
  const Bytes bs = pool_.page_size();
  std::vector<BlockFetch> redirect;
  std::vector<BlockFetch> dead;
  for (const BlockFetch& f : r.items) {
    const std::optional<BlockPlacement> entry =
        map_entry(f.key.ino, f.key.block);
    if (entry.has_value() && entry->copies > 0) {
      const BlockPlacement& pl = *entry;
      const std::uint8_t c = pick_copy(pl, f.tried);
      if (c < pl.copies) {
        redirect.push_back(
            BlockFetch{f.key, pl.addr[c], f.speculative, c,
                       static_cast<std::uint8_t>(f.tried | (1u << c))});
        continue;
      }
    }
    dead.push_back(f);
  }
  if (redirect.empty()) return false;
  ++replica_failovers_;
  MGFS_WARN("client", "client " << id_ << ": nsd " << r.nsd << " read "
                                << errc_name(st.code()) << "; redirecting "
                                << redirect.size()
                                << " block(s) to another replica");
  // issue_fills re-counts speculative bytes; give back this run's share
  // for the redirected items so the budget does not double-charge them.
  for (const BlockFetch& f : redirect) {
    if (f.speculative) {
      fill_inflight_ = fill_inflight_ >= bs ? fill_inflight_ - bs : 0;
    }
  }
  for (const BlockFetch& f : dead) finish_fill(f.key, st, f.speculative);
  issue_fills(std::move(redirect));
  return true;
}

void Client::finish_fill(const PageKey& key, const Status& st,
                         bool speculative) {
  const Bytes bs = pool_.page_size();  // == block size; safe when unmounted
  if (speculative) {
    fill_inflight_ = fill_inflight_ >= bs ? fill_inflight_ - bs : 0;
  }
  if (st.ok()) {
    bytes_read_remote_ += bs;
    // Install only if we still may cache this range (a revoke may have
    // raced with the fill).
    const TokenRange r{key.block * bs, (key.block + 1) * bs};
    if (held_.covers(key.ino, r, LockMode::ro) != nullptr) {
      pool_.insert_clean(key);
    }
  }
  auto node = fill_waiters_.extract(key);
  if (node.empty()) return;
  for (auto& cb : node.mapped()) cb(st);
}

bool Client::plan_fill(const PageKey& key, bool speculative,
                       std::vector<BlockFetch>& fetch) {
  const std::optional<BlockPlacement> entry = map_entry(key.ino, key.block);
  if (!entry.has_value() || entry->copies == 0) return false;
  const BlockPlacement& pl = *entry;
  std::uint8_t c = pick_copy(pl, 0);
  if (c >= pl.copies) c = 0;
  fill_waiters_[key];
  fetch.push_back(BlockFetch{key, pl.addr[c], speculative, c,
                             static_cast<std::uint8_t>(1u << c)});
  return true;
}

void Client::plan_readahead(InodeNum ino, std::uint64_t first,
                            std::uint64_t last,
                            std::vector<BlockFetch>& fetch) {
  const Bytes bs = block_size();
  for (std::uint64_t bi = first; bi <= last; ++bi) {
    if (fill_inflight_ + fetch.size() * bs >= kMaxInflightFill) break;
    const PageKey key{ino, bi};
    if (pool_.contains(key) || fill_waiters_.count(key) > 0) continue;
    const TokenRange r{bi * bs, (bi + 1) * bs};
    if (held_.covers(ino, r, LockMode::ro) == nullptr) continue;
    if (plan_fill(key, /*speculative=*/true, fetch)) ++ra_issued_;
  }
}

void Client::prefetch_strided(InodeNum ino, std::uint64_t b0,
                              std::uint64_t count) {
  if (count == 0) return;
  const Bytes bs = block_size();
  const TokenRange want{b0 * bs, (b0 + count) * bs};
  ensure_token(
      ino, want, want, LockMode::ro, [this, ino, b0, count](Status st) {
        // Speculative: any failure (or an unmount that raced with the
        // token RPC) just means no prefetch.
        if (!st.ok() || !mounted()) return;
        ensure_map(ino, b0, count, 0, [this, ino, b0, count](Status st) {
          if (!st.ok() || !mounted()) return;
          std::vector<BlockFetch> fetch;
          plan_readahead(ino, b0, b0 + count - 1, fetch);
          issue_fills(std::move(fetch));
        });
      });
}

void Client::ensure_block_present(InodeNum ino, std::uint64_t bi,
                                  std::function<void(Status)> done) {
  const PageKey key{ino, bi};
  if (pool_.lookup(key)) {
    done(Status{});
    return;
  }
  auto wit = fill_waiters_.find(key);
  if (wit != fill_waiters_.end()) {
    wit->second.push_back(std::move(done));
    return;
  }
  MGFS_ASSERT(map_entry(ino, bi).has_value(),
              "block map not populated before fill");
  std::vector<BlockFetch> fetch;
  if (!plan_fill(key, /*speculative=*/false, fetch)) {
    done(Status{});  // hole: zeros, nothing to fetch
    return;
  }
  fill_waiters_[key].push_back(std::move(done));
  issue_fills(std::move(fetch));
}

// --------------------------------------------------------------------------
// read / write / fsync / close
// --------------------------------------------------------------------------

void Client::open(const std::string& path, const Principal& who,
                  OpenFlags flags, std::function<void(Result<Fh>)> done) {
  if (!mounted()) {
    done(err(Errc::invalid_argument, "not mounted"));
    return;
  }
  if (flags.write && access_ != AccessMode::read_write) {
    done(err(Errc::read_only, "read-only mount"));
    return;
  }
  FileSystem* fs = fs_;
  const ClientId me = id_;
  meta_call<OpenResult>(
      fs_->shard_of_path(path), kMetaPayload,
      [fs, path, who, flags, me](Rpc::ReplyFn<OpenResult> reply) {
        reply(64, fs->op_open(path, who, flags, me));
      },
      [this, who, flags, done = std::move(done)](Result<OpenResult> res) {
        if (!res.ok()) {
          done(res.error());
          return;
        }
        const Fh fh = next_fh_++;
        OpenFile f;
        f.ino = res->ino;
        f.who = who;
        f.flags = flags;
        f.size = res->size;
        f.ra = ReadaheadRamp(kReadaheadMin,
                             static_cast<std::uint64_t>(cfg_.readahead_blocks));
        f.wb = ReadaheadRamp(8, kWriteBatchBlocks);
        open_[fh] = std::move(f);
        done(fh);
      });
}

void Client::read(Fh fh, Bytes offset, Bytes len,
                  std::function<void(Result<Bytes>)> done) {
  OpenFile* f = file(fh);
  if (f == nullptr) {
    done(err(Errc::invalid_argument, "bad file handle"));
    return;
  }
  if (!f->flags.read) {
    done(err(Errc::permission_denied, "not open for read"));
    return;
  }
  maybe_renew_lease();
  if (offset >= f->size || len == 0) {
    done(Bytes{0});
    return;
  }
  len = std::min(len, f->size - offset);
  const Bytes bs = block_size();
  const std::uint64_t b0 = offset / bs;
  const std::uint64_t b1 = (offset + len - 1) / bs;
  const InodeNum ino = f->ino;

  // Adaptive readahead: the ramp grows on confirmed sequential access,
  // collapses on a seek, and the fill budget bounds total prefetch
  // bytes in flight.
  const std::uint64_t ra = f->ra.on_access(b0, b1);
  const std::uint64_t last_file_block =
      f->size == 0 ? 0 : (f->size - 1) / bs;
  const std::uint64_t map_hi = std::min(b1 + ra, last_file_block);

  // Strided stream near its region boundary: the clamp withheld part of
  // the window, and the detector knows where the next run starts. Spend
  // the withheld depth there so the fill pipeline never drains across
  // the boundary (MPI-IO region transitions).
  const std::uint64_t pred = f->ra.predicted_next_run();
  if (pred != ReadaheadRamp::kUnknown && pred <= last_file_block &&
      f->ra.window() > ra) {
    prefetch_strided(ino, pred,
                     std::min(f->ra.window() - ra,
                              last_file_block - pred + 1));
  }

  // Batch the token and map acquisition over the whole window the ramp
  // says we will stream through, not just this call's bytes. The grant
  // always covers whole blocks: finish_fill caches a block only under a
  // token covering all of it, so a byte-exact grant would fetch the
  // block and throw it away. A seeking reader asks for the whole file;
  // the manager clips `desired` away from other clients' rw holdings
  // and probes conflicts on `required` only, so no writer is revoked
  // for the wider grant. A random reader (a seek after a non-sequential
  // access) maps its whole token range on its first miss: one RPC, not a
  // chunk fetch per scattered read. Keyed on random(), not seeked(), so
  // a strided stream is not mapped whole before its stride is confirmed.
  ReadPlan p;
  p.ino = ino;
  p.required = TokenRange{offset, offset + len};
  p.desired = f->ra.seeked() ? TokenRange{0, kWholeFile}
                             : TokenRange{b0 * bs, (map_hi + 1) * bs};
  p.b0 = b0;
  p.b1 = b1;
  p.map_hi = map_hi;
  p.random_end = f->ra.random() ? last_file_block + 1 : 0;
  read_attempt(p, /*retry=*/false, std::move(done));
}

void Client::read_attempt(const ReadPlan& p, bool retry,
                          std::function<void(Result<Bytes>)> done) {
  const std::uint64_t forgets = map_forgets_;
  ensure_token(
      p.ino, p.required, p.desired, LockMode::ro,
      [this, p, retry, forgets, done = std::move(done)](Status st) mutable {
        if (!st.ok()) {
          done(st.error());
          return;
        }
        ensure_map(
            p.ino, p.b0, p.map_hi - p.b0 + 1, p.random_end,
            [this, p, retry, forgets,
             done = std::move(done)](Status st) mutable {
              if (!st.ok()) {
                done(st.error());
                return;
              }
              const InodeNum ino = p.ino;
              const std::uint64_t b0 = p.b0;
              const std::uint64_t b1 = p.b1;
              const std::uint64_t map_hi = p.map_hi;
              const Bytes len = p.required.hi - p.required.lo;
              const Bytes bs = block_size();
              // A demand block can be left unmapped legitimately only
              // as a hole in a block no held token wholly covers
              // (install_chunk keeps no such hole); this call's bytes of
              // it are under our token, so they read as zeros. Any other
              // gap means a revoke or takeover took the token or map
              // while this attempt waited: take both again.
              bool stale = false;
              std::vector<BlockRange> whole;
              for (std::uint64_t bi = b0; bi <= b1 && !stale; ++bi) {
                const PageKey key{ino, bi};
                if (pool_.contains(key) || fill_waiters_.count(key) > 0 ||
                    map_entry(ino, bi).has_value()) {
                  continue;
                }
                if (whole.empty()) whole = held_.blocks(ino, bs);
                const bool covered = std::any_of(
                    whole.begin(), whole.end(),
                    [bi](BlockRange r) { return r.lo <= bi && bi < r.hi; });
                const TokenRange mine{std::max(p.required.lo, bi * bs),
                                      std::min(p.required.hi, (bi + 1) * bs)};
                stale = covered ||
                        held_.covers(ino, mine, LockMode::ro) == nullptr;
              }
              if (stale) {
                MGFS_ASSERT(!retry || map_forgets_ != forgets,
                            "block map not populated before fill");
                read_attempt(p, /*retry=*/true, std::move(done));
                return;
              }
              // Plan the demand blocks: cache hits are done, blocks with
              // a fill already in flight are joined, the rest are fetched.
              std::vector<std::uint64_t> wait;
              std::vector<BlockFetch> fetch;
              for (std::uint64_t bi = b0; bi <= b1; ++bi) {
                const PageKey key{ino, bi};
                if (pool_.lookup(key)) continue;
                if (fill_waiters_.count(key) > 0 ||
                    plan_fill(key, /*speculative=*/false, fetch)) {
                  wait.push_back(bi);
                }
              }
              // Readahead rides in the same runs as the demand blocks, so
              // a demand fill and its same-NSD successors become one wire
              // request. Only readahead is subject to the fill budget.
              plan_readahead(ino, b1 + 1, map_hi, fetch);
              if (wait.empty()) {
                issue_fills(std::move(fetch));
                // Fully-cached reads must still complete asynchronously:
                // callers' issue loops are not re-entrant.
                simulator().defer(
                    [len, done = std::move(done)] { done(len); });
                return;
              }
              FanIn fan(wait.size(),
                        [len, done = std::move(done)](const Status& st) {
                          if (st.ok()) {
                            done(len);
                          } else {
                            done(st.error());
                          }
                        });
              // Register waiters before issuing: a breaker fast-fail can
              // complete synchronously.
              for (std::uint64_t bi : wait) {
                fill_waiters_[PageKey{ino, bi}].push_back(fan);
              }
              issue_fills(std::move(fetch));
            });
      });
}

void Client::write(Fh fh, Bytes offset, Bytes len,
                   std::function<void(Result<Bytes>)> done) {
  OpenFile* f = file(fh);
  if (f == nullptr) {
    done(err(Errc::invalid_argument, "bad file handle"));
    return;
  }
  if (!f->flags.write) {
    done(err(Errc::permission_denied, "not open for write"));
    return;
  }
  if (len == 0) {
    done(Bytes{0});
    return;
  }
  maybe_renew_lease();
  const Bytes bs = block_size();
  const std::uint64_t b0 = offset / bs;
  const std::uint64_t b1 = (offset + len - 1) / bs;
  const InodeNum ino = f->ino;
  const Bytes old_size = f->size;
  const Bytes new_size = std::max(f->size, offset + len);
  // Marked before any token/allocate work, so a write that later fails
  // still makes the next fsync commit (the conservative side).
  marks_.mark(ino, offset + len);

  // Streaming-write detection: once the sequential pattern is confirmed
  // (two hits), batch the token grant and block allocation over the
  // ramp window. One-shot writes keep exact per-call block accounting.
  const std::uint64_t wnd = f->wb.on_access(b0, b1);
  const std::uint64_t batch =
      (f->wb.hits() >= 2 && wnd > 0)
          ? std::min<std::uint64_t>(wnd, kWriteBatchBlocks)
          : 0;

  const TokenRange required{offset, offset + len};
  const TokenRange desired =
      batch == 0 ? required : TokenRange{b0 * bs, (b1 + 1 + batch) * bs};

  ensure_token(
      ino, required, desired, LockMode::rw,
      [this, f, ino, b0, b1, batch, offset, len, bs, old_size, new_size,
       done = std::move(done)](Status st) mutable {
        if (!st.ok()) {
          done(st.error());
          return;
        }
        // Allocate missing blocks (batched). We always ask the manager
        // when any entry is unknown or a hole.
        bool need_alloc = false;
        for (std::uint64_t bi = b0; bi <= b1 && !need_alloc; ++bi) {
          const std::optional<BlockPlacement> e = map_entry(ino, bi);
          if (!e.has_value() || e->copies == 0) need_alloc = true;
        }
        if (!need_alloc) {
          // Covered by an earlier allocate-ahead batch: an allocation
          // RPC the per-call protocol would have made.
          auto wm = alloc_ahead_hi_.find(ino);
          if (wm != alloc_ahead_hi_.end() && b1 < wm->second) {
            ++meta_rpcs_saved_;
          }
        }
        auto proceed = [this, f, ino, b0, b1, offset, len, bs, old_size,
                        new_size, done = std::move(done)](Status st) mutable {
          if (!st.ok()) {
            done(st.error());
            return;
          }
          // Read-modify-write edges: partially written blocks that
          // already have on-disk contents must be fetched first.
          std::vector<std::uint64_t> rmw;
          if (offset % bs != 0 && b0 * bs < old_size &&
              !pool_.contains({ino, b0})) {
            rmw.push_back(b0);
          }
          if ((offset + len) % bs != 0 && b1 != b0 && b1 * bs < old_size &&
              !pool_.contains({ino, b1})) {
            rmw.push_back(b1);
          }
          auto commit = [this, f, ino, b0, b1, len, new_size,
                         done = std::move(done)](Status st) mutable {
            if (!st.ok()) {
              done(st.error());
              return;
            }
            for (std::uint64_t bi = b0; bi <= b1; ++bi) {
              const std::optional<BlockPlacement> e = map_entry(ino, bi);
              MGFS_ASSERT(e.has_value() && e->copies > 0,
                          "dirty page without placement");
              if (!wb_.enqueue(PageKey{ino, bi}, *e)) {
                done(err(Errc::io_error,
                         "pagepool pinned solid with dirty pages"));
                return;
              }
            }
            // Commits can land out of order: an allocate-ahead-covered
            // write completes synchronously while an earlier write still
            // waits on its allocation reply. Size only ever grows.
            f->size = std::max(f->size, new_size);
            pump_flush();
            if (pool_.dirty_bytes() <= kMaxDirty) {
              // A write whose token, map and allocation are all batched
              // ahead reaches here synchronously; callers' issue loops
              // are not re-entrant, so complete through the event queue.
              simulator().defer([len, done = std::move(done)] { done(len); });
            } else {
              // Write-behind cap reached: stall the writer until flushes
              // bring the dirty total back under the cap.
              wb_.stall([len, done = std::move(done)] { done(len); });
            }
          };
          if (rmw.empty()) {
            commit(Status{});
            return;
          }
          FanIn fan(rmw.size(), std::move(commit));
          for (std::uint64_t bi : rmw) ensure_block_present(ino, bi, fan);
        };
        if (!need_alloc) {
          proceed(Status{});
          return;
        }
        FileSystem* fs = fs_;
        const ClientId me = id_;
        // On a confirmed streak, allocate the ramp window ahead of the
        // write so the next `batch` writes skip the allocation RPC.
        const std::size_t count =
            static_cast<std::size_t>(b1 - b0 + 1 + batch);
        meta_call<BlockMapChunk>(
            fs_->shard_of(ino), kMetaPayload,
            [fs, ino, b0, count, new_size,
             me](Rpc::ReplyFn<BlockMapChunk> reply) {
              reply(16 * count,
                    fs->op_allocate(ino, b0, count, new_size, me));
            },
            [this, ino, b0, count, batch, proceed = std::move(proceed)](
                Result<BlockMapChunk> res) mutable {
              if (!res.ok()) {
                proceed(res.error());
                return;
              }
              install_chunk(ino, *res);
              if (batch > 0) {
                std::uint64_t& hi = alloc_ahead_hi_[ino];
                hi = std::max(hi, b0 + count);
              }
              proceed(Status{});
            });
      });
}

void Client::pump_flush() {
  while (std::optional<NsdRun> run = wb_.next_run()) {
    if (run->items.size() > 1) {
      coal_blocks_ += run->items.size();
      ++coal_requests_;
    }
    // One flight covers the whole run; it frees up when every item has
    // reached a terminal sub-run (splits re-issue under the same done).
    auto remaining = std::make_shared<std::size_t>(run->items.size());
    nsd_io_run(std::move(*run), true, 0,
               [this, remaining](const NsdRun& r, const Status& st) {
      bool lapsed = false;
      for (const BlockFetch& f : r.items) {
        const PageKey k = f.key;
        if (st.ok()) {
          bytes_written_remote_ += pool_.page_size();
          finish_block_flush(k, f.copy);
        } else if (st.code() == Errc::stale) {
          // Fenced: our lease epoch is dead, this page can never land.
          // Uncommitted write-behind data of a lapsed incarnation is
          // lost by design — drop it and enter lease recovery.
          wb_.drop(k);
          lapsed = true;
        } else {
          // Transient failure (e.g. both servers down): requeue after a
          // delay. An immediate requeue would spin at zero simulated
          // cost when the breaker fast-fails without touching the
          // network. If the anchor copy keeps failing and another clean
          // copy exists, divorce the anchor (mark it divergent) so the
          // requeued flush re-anchors on a reachable replica — this is
          // what lets writes keep landing through a site outage.
          if (wb_.anchor_failed(k, f.copy)) {
            ++replica_failovers_;
            mark_divergent(k, f.copy, [] {});
          }
          simulator().after(kFlushRetryDelay, [this, k] {
            if (mounted() && wb_.requeue(k)) pump_flush();
          });
        }
      }
      if (lapsed) on_lease_lapsed();
      wb_.settle();
      *remaining -= r.items.size();
      if (*remaining == 0) {
        wb_.end_flight();
        pump_flush();
      }
    });
  }
}

void Client::finish_block_flush(const PageKey& k, std::uint8_t anchor) {
  // No placement: invalidated while the anchor write was in flight.
  const BlockPlacement* p = wb_.placement(k);
  const BlockPlacement pl = p != nullptr ? *p : BlockPlacement{};
  std::vector<std::uint8_t> targets;
  for (std::uint8_t c = 0; c < pl.copies; ++c) {
    if (c != anchor && !pl.is_divergent(c)) targets.push_back(c);
  }
  auto landed = [this, k] {
    if (wb_.landed(k)) pump_flush();
  };
  if (targets.empty()) {
    landed();
    return;
  }
  FanIn fan(targets.size(), std::move(landed));
  for (const std::uint8_t c : targets) {
    write_replica_copy(k, pl.addr[c], c, fan);
  }
}

void Client::write_replica_copy(const PageKey& k, BlockAddr addr,
                                std::uint8_t copy, sim::Callback done) {
  auto runs = build_nsd_runs({BlockFetch{k, addr, false, copy, 0}}, 1);
  MGFS_ASSERT(runs.size() == 1, "single replica write is one run");
  nsd_io_run(std::move(runs.front()), true, 0,
             [this, k, copy, done = std::move(done)](const NsdRun&,
                                                     const Status& st) {
    if (st.ok()) {
      bytes_written_remote_ += pool_.page_size();
      done();
      return;
    }
    // Replica copy unreachable or fenced: record the divergence with
    // the manager so readers stop trusting that copy, then let the
    // flush complete on the copies that did land. The reconciler
    // re-copies the data once the replica heals.
    MGFS_WARN("client", "node " << node_.v << " replica copy "
                                << static_cast<int>(copy) << " of ino "
                                << k.ino << " blk " << k.block
                                << " diverged: " << errc_name(st.code()));
    mark_divergent(k, copy, std::move(done));
  });
}

void Client::mark_divergent(const PageKey& k, std::uint8_t copy,
                            sim::Callback done) {
  if (!mounted()) {
    done();
    return;
  }
  FileSystem* fs = fs_;
  const ClientId me = id_;
  meta_status(
      fs_->shard_of(k.ino), 64, 16,
      [fs, me, k, copy] {
        return fs->op_replica_divergence(me, k.ino, k.block, copy);
      },
      [this, k, copy, done = std::move(done)](Status st) {
        if (st.ok()) {
          if (auto it = block_map_.find(k.ino); it != block_map_.end()) {
            it->second.mark_divergent(k.block, copy);
          }
          if (BlockPlacement* p = wb_.placement(k)) {
            p->divergent |= static_cast<std::uint8_t>(1u << copy);
          }
        }
        done();
      });
}

void Client::flush_inode(InodeNum ino, sim::Callback done) {
  if (!wb_.busy(ino)) {
    done();
    return;
  }
  wb_.wait(ino, std::move(done));
  pump_flush();
}

void Client::fsync(Fh fh, std::function<void(Status)> done) {
  OpenFile* f = file(fh);
  if (f == nullptr) {
    done(Status(Errc::invalid_argument, "bad file handle"));
    return;
  }
  const InodeNum ino = f->ino;
  const Bytes size = f->size;
  // Stamp of the newest write this fsync covers; 0 = nothing written
  // since the last commit.
  const std::uint64_t seq = marks_.pending(ino);
  flush_inode(ino, [this, ino, size, seq, done = std::move(done)]() mutable {
    if (!mounted()) {
      done(Status{});
      return;
    }
    if (seq == 0) {
      // The manager already holds everything this inode has to commit.
      // Complete from the event loop: callers' loops are not re-entrant.
      simulator().defer([done = std::move(done)] { done(Status{}); });
      return;
    }
    FileSystem* fs = fs_;
    const ClientId me = id_;
    meta_status(
        fs->shard_of(ino), 64, 64,
        [fs, ino, size, me] { return fs->op_extend_size(ino, size, me); },
        [this, ino, size, seq, done = std::move(done)](Status st) {
          if (st.ok()) marks_.settle(ino, seq, size);
          done(st);
        });
  });
}

void Client::flush_all(sim::Callback done) {
  const std::set<InodeNum> inodes = wb_.busy_inodes();
  if (inodes.empty()) {
    rpc_.pool().network().simulator().defer(std::move(done));
    return;
  }
  FanIn fan(inodes.size(), std::move(done));
  for (InodeNum ino : inodes) flush_inode(ino, fan);
}

void Client::close(Fh fh, std::function<void(Status)> done) {
  fsync(fh, [this, fh, done = std::move(done)](Status st) {
    open_.erase(fh);
    done(st);
  });
}

void Client::refresh_size(Fh fh, std::function<void(Result<Bytes>)> done) {
  OpenFile* f = file(fh);
  if (f == nullptr) {
    done(err(Errc::invalid_argument, "bad file handle"));
    return;
  }
  FileSystem* fs = fs_;
  const InodeNum ino = f->ino;
  meta_call<Bytes>(
      fs_->shard_of(ino), 64,
      [fs, ino](Rpc::ReplyFn<Bytes> reply) {
        auto st = fs->ns().stat(ino);
        if (!st.ok()) {
          reply(64, st.error());
        } else {
          reply(64, st->size);
        }
      },
      [this, fh, done = std::move(done)](Result<Bytes> res) {
        if (res.ok()) {
          if (OpenFile* f2 = file(fh)) f2->size = std::max(f2->size, *res);
        }
        done(std::move(res));
      });
}

// --------------------------------------------------------------------------
// namespace pass-throughs
// --------------------------------------------------------------------------

void Client::stat(const std::string& path,
                  std::function<void(Result<StatInfo>)> done) {
  FileSystem* fs = fs_;
  meta_call<StatInfo>(
      fs_->shard_of_path(path), kMetaPayload,
      [fs, path](Rpc::ReplyFn<StatInfo> reply) {
        reply(128, fs->op_stat(path));
      },
      std::move(done));
}

void Client::mkdir(const std::string& path, const Principal& who, Mode mode,
                   std::function<void(Status)> done) {
  FileSystem* fs = fs_;
  meta_status(
      fs_->shard_of_path(path), kMetaPayload, 64,
      [fs, path, who, mode] {
        auto r = fs->op_mkdir(path, who, mode);
        return r.ok() ? Status{} : Status(r.error());
      },
      std::move(done));
}

void Client::readdir(const std::string& path, const Principal& who,
                     std::function<void(Result<std::vector<std::string>>)>
                         done) {
  FileSystem* fs = fs_;
  meta_call<std::vector<std::string>>(
      fs_->shard_of_path(path), kMetaPayload,
      [fs, path, who](Rpc::ReplyFn<std::vector<std::string>> reply) {
        auto r = fs->op_readdir(path, who);
        const Bytes payload = r.ok() ? 32 * r->size() + 64 : 64;
        reply(payload, std::move(r));
      },
      std::move(done));
}

void Client::unlink(const std::string& path, const Principal& who,
                    std::function<void(Status)> done) {
  FileSystem* fs = fs_;
  const ClientId me = id_;
  // One id for every retransmission of this unlink (meta_call re-sends
  // the same request), so a retry after a lost reply is recognised.
  const std::uint64_t req = ++unlink_seq_;
  meta_status(
      fs_->shard_of_path(path), kMetaPayload, 64,
      [fs, path, who, me, req] { return fs->op_unlink(path, who, me, req); },
      std::move(done));
}

void Client::rename(const std::string& from, const std::string& to,
                    const Principal& who, std::function<void(Status)> done) {
  FileSystem* fs = fs_;
  // Routed by the source path's shard; op_rename itself gates on both
  // paths' domains, so a takeover on either side pauses the op.
  meta_status(
      fs_->shard_of_path(from), kMetaPayload, 64,
      [fs, from, to, who] { return fs->op_rename(from, to, who); },
      std::move(done));
}

// --------------------------------------------------------------------------
// coherence
// --------------------------------------------------------------------------

std::string Client::mmpmon() const {
  std::ostringstream os;
  os << "mmpmon node " << node_.v << " io_s\n"
     << "  _br_ " << bytes_read_remote_ << "\n"      // bytes read (NSD)
     << "  _bw_ " << bytes_written_remote_ << "\n"   // bytes written (NSD)
     << "  _dir_ " << open_.size() << "\n"           // open files
     << "  _ch_ " << pool_.hits() << "\n"            // cache hits
     << "  _cm_ " << pool_.misses() << "\n"          // cache misses
     << "  _cd_ " << pool_.dirty_bytes() << "\n"     // dirty bytes pending
     << "  _fo_ " << failovers_ << "\n"              // NSD failovers
     << "  _rep_ " << replica_reads_ << "\n"         // non-primary replica reads
     << "  _rfo_ " << replica_failovers_ << "\n"     // replica failovers
     << "  _rtr_ " << rpc_retries_ << "\n"           // RPC retries
     << "  _to_ " << rpc_timeouts_ << "\n"           // RPC deadline expiries
     << "  _bop_ " << breaker_.opens() << "\n"      // breaker opens
     << "  _bsc_ " << breaker_.skips() << "\n"      // breaker-skipped I/Os
     << "  _prb_ " << breaker_.probes() << "\n"     // half-open probes
     << "  _ra_ " << ra_issued_ << "\n"              // readahead fills issued
     << "  _coal_ " << coal_blocks_ << "\n"          // blocks coalesced
     << "  _spl_ " << coal_splits_ << "\n"           // coalesced-run splits
     << "  _mrpc_ " << meta_rpcs_saved_ << "\n"      // metadata RPCs saved
     << "  _lse_ " << session_.renewals() << "\n"    // lease renewals
     << "  _lps_ " << session_.lapses() << "\n"      // lease lapses
     << "  _fnc_ " << fenced_writes_ << "\n"         // fenced (stale) writes
     << "  _mto_ " << session_.takeovers() << "\n"   // manager takeovers seen
     << "  _mrr_ " << session_.reroutes() << "\n"    // manager-RPC reroutes
     << "  _smg_ " << session_.stale_rejects() << "\n"  // stale-manager refusals
     << "  _rpb_ " << recovery_probes_ << "\n"       // fast recovery probes
     << "  _rp50_ " << recovery_op_hist_.quantile(0.5) << "\n"  // p50 (s)
     << "  _rp99_ " << recovery_op_hist_.quantile(0.99) << "\n";  // p99 (s)
  return os.str();
}

// --------------------------------------------------------------------------
// disk lease
// --------------------------------------------------------------------------

void Client::maybe_renew_lease() {
  if (!mounted() || !session_.begin_renewal(simulator().now())) return;
  FileSystem* fs = fs_;
  const ClientId me = id_;
  const std::uint64_t inc = session_.incarnation();
  // Shard 0 is the lease home: one renewal RPC covers every shard (the
  // batched heartbeat — a lease asserts node liveness, not per-domain
  // authority).
  meta_call<std::uint64_t>(
      0, 64,
      [fs, me](Rpc::ReplyFn<std::uint64_t> reply) {
        reply(64, fs->op_lease_renew(me));
      },
      [this, inc](Result<std::uint64_t> r) {
        session_.end_renewal(inc, r.ok() && mounted(), simulator().now());
      });
}

void Client::on_lease_lapsed() {
  if (!session_.lapse()) return;
  MGFS_WARN("client", "client " << id_
                                << ": disk lease lapsed; discarding cached "
                                   "state and rejoining");
  // A lapsed lease means every cached byte — tokens, maps, dirty
  // write-behind pages — belongs to a dead incarnation. Drop it all.
  discard_cached_state(/*reset_breakers=*/false);
  attempt_rejoin(0);
}

void Client::attempt_rejoin(int attempt) {
  if (!mounted() || !session_.rejoin()) {
    session_.abandon_rejoin();
    return;
  }
  const std::uint64_t inc = session_.incarnation();
  session_.rejoin()([this, inc, attempt](Result<std::uint64_t> r) {
    if (session_.incarnation() != inc) return;  // a crash_reset superseded us
    if (!mounted()) {
      session_.abandon_rejoin();
      return;
    }
    if (r.ok()) {
      session_.rejoined(*r, simulator().now(), *fs_);
      MGFS_INFO("client", "client " << id_ << ": rejoined under lease epoch "
                                    << session_.lease_epoch());
      pump_flush();
      wb_.settle();
      return;
    }
    // Manager unreachable: keep trying under backoff — the client is
    // useless until it rejoins.
    simulator().after(cfg_.retry.backoff(std::min(attempt, 8), rng_),
                      [this, inc, attempt] {
                        if (session_.incarnation() != inc) return;
                        attempt_rejoin(attempt + 1);
                      });
  });
}

void Client::discard_cached_state(bool reset_breakers) {
  pool_.invalidate_all();
  wb_.clear();
  held_.clear();
  block_map_.clear();
  ++map_forgets_;
  alloc_ahead_hi_.clear();
  fill_inflight_ = 0;
  if (reset_breakers) breaker_.clear();
  // Writers stalled on the dirty cap and fsync/revoke waiters can
  // proceed: the dirty pages they were waiting out no longer exist.
  wb_.settle();
}

void Client::crash_reset() {
  session_.reboot(fs_);
  // open_ survives deliberately: callers hold Fh handles and in-flight
  // write() continuations hold OpenFile pointers; the handles stay
  // valid while every cached byte below them is discarded.
  discard_cached_state(/*reset_breakers=*/true);
}

bool Client::handle_revoke(InodeNum ino, TokenRange range,
                           std::uint64_t mgr_epoch, sim::Callback done) {
  const std::uint32_t shard = fs_->shard_of(ino);
  if (!session_.admits(shard, mgr_epoch)) {
    // A deposed manager trying to strip a token the successor already
    // re-granted. Refuse without flushing anything — `done` never runs.
    MGFS_WARN("client", "client " << id_ << ": revoke under stale manager "
                                  << "epoch " << mgr_epoch << " (have "
                                  << session_.manager_epoch(shard)
                                  << "); refused");
    return false;
  }
  // A newer-epoch revoke doubles as first contact with the successor:
  // adopt its view before flushing, or the dirty pages this revoke
  // forces out would carry the old manager epoch and be fenced.
  session_.adopt(shard, fs_->manager_node(shard), mgr_epoch);
  flush_inode(ino, [this, ino, range, done = std::move(done)] {
    const Bytes bs = block_size();
    const std::uint64_t lo_blk = range.lo / bs;
    const std::uint64_t hi_blk =
        range.hi == kWholeFile ? ~0ULL : ceil_div(range.hi, bs);
    pool_.invalidate(ino, lo_blk, hi_blk);
    // Drop the cached block map for the revoked range too: the writer
    // this revoke hands the bytes to may mark replicas divergent, and a
    // later read here must re-fetch the placement to see that.
    ++map_forgets_;
    if (auto fit = block_map_.find(ino); fit != block_map_.end()) {
      fit->second.forget(lo_blk, hi_blk);
      if (fit->second.empty()) block_map_.erase(fit);
    }
    held_.trim(ino, range);
    done();
  });
  return true;
}

// --------------------------------------------------------------------------
// manager failover
// --------------------------------------------------------------------------

Result<ManagerAssertReply> Client::assert_tokens(net::NodeId mgr_node,
                                                 std::uint64_t mgr_epoch,
                                                 std::uint32_t shard) {
  if (!mounted()) return err(Errc::unavailable, "not mounted");
  session_.adopt(shard, mgr_node, mgr_epoch);
  ManagerAssertReply reply;
  reply.lease_epoch = session_.lease_epoch();
  // Dirty-journal summary: what this client still owes the data path
  // (the redrive the overlap window must absorb once its tokens are
  // back). The per-inode covering span of the unflushed pages bounds
  // what we must keep locked. Only `shard`'s inodes are asserted: the
  // other shards' managers did not change, so their grants stay
  // exactly as held.
  const Bytes bs = block_size();
  auto of_shard = [this, shard](InodeNum ino) {
    return fs_->shard_of(ino) == shard;
  };
  const std::unordered_map<InodeNum, TokenRange> dirty_span =
      wb_.dirty_spans(bs, of_shard);
  reply.dirty_bytes = pool_.dirty_bytes();
  for (const auto& [ino, span] : dirty_span) reply.dirty_inodes.push_back(ino);
  std::sort(reply.dirty_inodes.begin(), reply.dirty_inodes.end());
  // Assert only what this client still owes: rw tokens clamped to the
  // covering span of their unflushed pages. The speculative width a
  // token gained from desired-window batching died with the old
  // manager — reinstalling it would make the successor's rebuilt table
  // block every other client's first post-takeover acquire behind a
  // revoke round against a grant nobody is using. Clean holdings are
  // simply re-acquired on demand, same as after a plain wipe. Other
  // shards' holdings survive untouched.
  HeldTokens::Clamp clamp = held_.clamp(of_shard, dirty_span);
  // Cached pages whose token was dropped lose their revoke channel —
  // nobody will tell us when another client rewrites them. Evict the
  // clean ones, and the cached holes there too (another client could
  // fill one with no revoke to say so; data entries stay, as a chunk
  // install keeps them outside tokens); dirty pages all live inside
  // kept spans by construction (every dirty page sits under some rw
  // token and inside its inode's dirty span, so its clip retains it).
  for (const auto& [ino, r] : clamp.dropped) {
    // Interior blocks only: a block straddling a kept-range edge is
    // still partly under token, and a partially-dirtied page must not
    // be dropped with unflushed bytes aboard.
    const std::uint64_t lo_blk = ceil_div(r.lo, bs);
    const std::uint64_t hi_blk = r.hi == kWholeFile ? ~0ULL : r.hi / bs;
    if (lo_blk >= hi_blk) continue;
    pool_.invalidate(ino, lo_blk, hi_blk);
    ++map_forgets_;
    if (auto fit = block_map_.find(ino); fit != block_map_.end()) {
      fit->second.forget_holes(lo_blk, hi_blk);
    }
  }
  reply.tokens = std::move(clamp.kept);
  // held_ iterates in hash order; the successor's rebuilt tables must
  // not depend on it.
  std::sort(reply.tokens.begin(), reply.tokens.end(),
            [](const TokenAssertion& a, const TokenAssertion& b) {
              if (a.ino != b.ino) return a.ino < b.ino;
              return a.range.lo < b.range.lo;
            });
  return reply;
}

bool Client::deliver_manager_grant(InodeNum ino, TokenRange range,
                                   LockMode mode, std::uint64_t mgr_epoch) {
  if (!session_.admits(fs_->shard_of(ino), mgr_epoch)) return false;
  held_.record(ino, range, mode, /*widened=*/true);
  return true;
}

}  // namespace mgfs::gpfs
