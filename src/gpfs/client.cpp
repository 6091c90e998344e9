#include "gpfs/client.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace mgfs::gpfs {
namespace {

/// Wire cost of a bare request/ack frame on the NSD data protocol.
constexpr Bytes kDataHeader = 64;

/// Per-extent descriptor cost in a vectored NSD request header.
constexpr Bytes kExtentDesc = 16;

/// How deep into the dirty FIFO the flusher looks for same-NSD blocks
/// to coalesce with the one it just popped.
constexpr std::size_t kFlushScan = 256;

}  // namespace

Client::Client(Rpc& rpc, net::NodeId node, ClientId id, ClientConfig cfg,
               Rng rng)
    : rpc_(rpc),
      node_(node),
      id_(id),
      cfg_(cfg),
      rng_(rng),
      pool_(cfg.pagepool, 1 * MiB),
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
  const net::NodeId target = mgr_[shard].node;
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
        if (res.ok()) {
          if (saw_recovery) {
            recovery_op_hist_.add(simulator().now() - started_at);
          }
          done(std::move(res));
          return;
        }
        if (res.code() == Errc::timed_out) ++rpc_timeouts_;
        if (!retryable(res.code()) || cfg_.retry.exhausted(attempt)) {
          if (saw_recovery) {
            recovery_op_hist_.add(simulator().now() - started_at);
          }
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
        if (manager_watch_ && !was_recovering &&
            fs_->manager_node(shard) == target) {
          manager_watch_(shard);
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
        const sim::Time delay = probing
                                    ? cfg_.recovery_probe_interval
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
              const net::NodeId fresh = refresh_manager_view(shard, target);
              const int next_attempt =
                  (fs_->recovering() || !(fresh == target)) ? 0 : attempt + 1;
              meta_call<R>(shard, req_payload, std::move(server),
                           std::move(done), next_attempt, started_at,
                           saw_recovery);
            });
      },
      Rpc::CallOptions{cfg_.rpc_deadline});
}

void Client::bind(FileSystem* fs, AccessMode access, double cipher_s_per_byte,
                  ServerLookup servers) {
  MGFS_ASSERT(fs != nullptr, "bind to null file system");
  MGFS_ASSERT(!mounted(), "client already bound");
  fs_ = fs;
  access_ = access;
  cipher_ = cipher_s_per_byte;
  servers_ = std::move(servers);
  seed_manager_views();
  // The pagepool caches whole file-system blocks.
  pool_ = PagePool(cfg_.pagepool, fs->block_size());
}

void Client::seed_manager_views() {
  mgr_.clear();
  mgr_.reserve(fs_->shard_count());
  for (std::uint32_t s = 0; s < fs_->shard_count(); ++s) {
    mgr_.push_back(MgrView{fs_->manager_node(s), fs_->manager_epoch(s)});
  }
}

void Client::unbind() {
  fs_ = nullptr;
  access_ = AccessMode::none;
  open_.clear();
  held_.clear();
  block_map_.clear();
  dirty_fifo_.clear();
  dirty_addr_.clear();
  anchor_fails_.clear();
  alloc_ahead_hi_.clear();
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

bool Client::token_covers(InodeNum ino, TokenRange r, LockMode mode) const {
  auto it = held_.find(ino);
  if (it == held_.end()) return false;
  for (const HeldToken& h : it->second) {
    if (mode == LockMode::rw && h.mode != LockMode::rw) continue;
    if (h.range.contains(r)) return true;
  }
  return false;
}

void Client::token_record(InodeNum ino, TokenRange r, LockMode mode,
                          bool widened) {
  auto& v = held_[ino];
  // Merge with adjacent/overlapping same-mode holdings; absorb weaker
  // (ro) holdings only where the new rw range already covers them —
  // never extend an rw claim over bytes the manager granted as ro
  // (mirrors TokenManager::request exactly).
  std::vector<HeldToken> kept;
  kept.reserve(v.size());
  for (HeldToken& h : v) {
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
  kept.push_back(HeldToken{mode, r, widened});
  v = std::move(kept);
}

void Client::token_trim(InodeNum ino, TokenRange r) {
  auto it = held_.find(ino);
  if (it == held_.end()) return;
  std::vector<HeldToken> next;
  next.reserve(it->second.size());
  for (const HeldToken& h : it->second) {
    if (!h.range.overlaps(r)) {
      next.push_back(h);
      continue;
    }
    if (h.range.lo < r.lo) {
      next.push_back({h.mode, {h.range.lo, r.lo}, h.widened});
    }
    if (r.hi < h.range.hi) {
      next.push_back({h.mode, {r.hi, h.range.hi}, h.widened});
    }
  }
  if (next.empty()) {
    held_.erase(it);
  } else {
    it->second = std::move(next);
  }
}

void Client::ensure_token(InodeNum ino, TokenRange required,
                          TokenRange desired, LockMode mode,
                          std::function<void(Status)> done) {
  auto it = held_.find(ino);
  if (it != held_.end()) {
    for (const HeldToken& h : it->second) {
      if (mode == LockMode::rw && h.mode != LockMode::rw) continue;
      if (h.range.contains(required)) {
        // A hit on a batched (widened) grant is a metadata RPC the
        // per-block protocol would have made.
        if (h.widened) ++meta_rpcs_saved_;
        done(Status{});
        return;
      }
    }
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
          // stale = the manager expelled us; start lease recovery so
          // the caller's retry finds a fresh epoch.
          if (res.code() == Errc::stale) on_lease_lapsed();
          done(res.error());
          return;
        }
        const bool widened =
            res->lo < required.lo || res->hi > required.hi;
        token_record(ino, *res, mode, widened);
        done(Status{});
      });
}

// --------------------------------------------------------------------------
// block map cache
// --------------------------------------------------------------------------

BlockPlacement* Client::map_entry(InodeNum ino, std::uint64_t bi) {
  auto fit = block_map_.find(ino);
  if (fit == block_map_.end()) return nullptr;
  auto bit = fit->second.find(bi);
  return bit == fit->second.end() ? nullptr : &bit->second;
}

void Client::install_chunk(InodeNum ino, const BlockMapChunk& chunk) {
  auto& m = block_map_[ino];
  for (std::size_t i = 0; i < chunk.placements.size(); ++i) {
    m[chunk.first_block + i] = chunk.placements[i];
  }
}

std::uint8_t Client::pick_copy(const BlockPlacement& p,
                               std::uint8_t tried) const {
  std::uint8_t best = static_cast<std::uint8_t>(kMaxReplicas);
  int best_penalty = 2;
  double best_rtt = 0.0;
  for (std::uint8_t c = 0; c < p.copies; ++c) {
    if ((tried & (1u << c)) != 0 || p.is_divergent(c)) continue;
    const Nsd& nsd = fs_->nsd(p.addr[c].nsd);
    // A copy whose serving nodes are all circuit-broken is a last
    // resort; among equally-live copies the lowest propagation RTT to
    // the primary server wins — the nearest-replica read.
    const bool live = admit_server(nsd.primary) ||
                      (nsd.has_backup && admit_server(nsd.backup));
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
                        std::uint64_t count,
                        std::function<void(Status)> done) {
  // Collect chunk-aligned fetches covering missing entries.
  std::vector<std::uint64_t> chunk_starts;
  const std::uint64_t cs = cfg_.map_chunk;
  for (std::uint64_t bi = first; bi < first + count; ++bi) {
    if (map_entry(ino, bi) == nullptr) {
      const std::uint64_t start = bi - (bi % cs);
      if (chunk_starts.empty() || chunk_starts.back() != start) {
        chunk_starts.push_back(start);
      }
      bi = start + cs - 1;  // skip to next chunk
    }
  }
  if (chunk_starts.empty()) {
    done(Status{});
    return;
  }
  struct Gather {
    std::size_t outstanding;
    Status first_error;
    std::function<void(Status)> done;
  };
  auto g = std::make_shared<Gather>(
      Gather{chunk_starts.size(), Status{}, std::move(done)});
  FileSystem* fs = fs_;
  const std::uint32_t shard = fs_->shard_of(ino);
  for (std::uint64_t start : chunk_starts) {
    meta_call<BlockMapChunk>(
        shard, cfg_.meta_payload,
        [fs, ino, start, cs](Rpc::ReplyFn<BlockMapChunk> reply) {
          auto res = fs->op_block_map(ino, start, cs);
          const Bytes payload = 16 * cs;  // ~16 bytes per map entry
          reply(payload, std::move(res));
        },
        [this, ino, g](Result<BlockMapChunk> res) {
          if (res.ok()) {
            install_chunk(ino, *res);
          } else if (g->first_error.ok()) {
            g->first_error = res.error();
          }
          if (--g->outstanding == 0) g->done(g->first_error);
        });
  }
}

// --------------------------------------------------------------------------
// NSD data path
// --------------------------------------------------------------------------

bool Client::admit_server(net::NodeId n) const {
  auto it = nsd_health_.find(n.v);
  if (it == nsd_health_.end() || !it->second.open) return true;
  return simulator().now() >= it->second.next_probe;
}

void Client::consume_probe(net::NodeId n) {
  auto it = nsd_health_.find(n.v);
  if (it == nsd_health_.end() || !it->second.open) return;
  // Half-open trial: this request is the probe. Push the next one out
  // so concurrent I/O doesn't stampede a server we believe is dead.
  // Consumed here — at issue time — rather than when the target list
  // was built: a backup-position slot that is never exercised must not
  // burn the probe window.
  it->second.next_probe = simulator().now() + cfg_.breaker_probe;
  ++breaker_probes_;
}

void Client::note_server_ok(net::NodeId n) {
  auto it = nsd_health_.find(n.v);
  if (it == nsd_health_.end()) return;
  it->second.fails = 0;
  it->second.open = false;
}

void Client::note_server_fail(net::NodeId n) {
  ServerHealth& h = nsd_health_[n.v];
  ++h.fails;
  if (h.open) {
    // Failed probe: stay open, space out the next trial.
    h.next_probe = simulator().now() + cfg_.breaker_probe;
    return;
  }
  if (h.fails >= cfg_.breaker_threshold) {
    h.open = true;
    h.next_probe = simulator().now() + cfg_.breaker_probe;
    ++breaker_opens_;
    MGFS_WARN("client", "circuit breaker open for NSD server node "
                            << n.v << " after " << h.fails
                            << " consecutive failures");
  }
}

bool Client::breaker_open(net::NodeId node) const {
  auto it = nsd_health_.find(node.v);
  return it != nsd_health_.end() && it->second.open;
}

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
  std::vector<net::NodeId> targets;
  if (admit_server(nsd.primary)) {
    targets.push_back(nsd.primary);
  } else {
    ++breaker_skips_;
  }
  if (nsd.has_backup && admit_server(nsd.backup)) {
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
    simulator().after(cfg_.retry.backoff(attempt, rng_),
                      [this, run = std::move(run), write, attempt,
                       done = std::move(done)]() mutable {
                        nsd_io_run(std::move(run), write, attempt + 1,
                                   std::move(done));
                      });
    return;
  }
  nsd_run_attempt(std::move(run), write, std::move(targets), 0, attempt,
                  std::move(done));
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
      gates.emplace_back(f.key.ino, mgr_[s].epoch);
    }
  }

  auto after_transport = [this, run = std::move(run), write,
                          targets = std::move(targets), ti, attempt, target,
                          total,
                          done = std::move(done)](Result<int> r) mutable {
    if (r.ok()) {
      note_server_ok(target);
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
      simulator().after(cfg_.recovery_probe_interval,
                        [this, run = std::move(run), write, attempt,
                         done = std::move(done)]() mutable {
                          nsd_io_run(std::move(run), write, attempt,
                                     std::move(done));
                        });
      return;
    }
    note_server_fail(target);
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
    simulator().after(cfg_.retry.backoff(attempt, rng_),
                      [this, run = std::move(run), write, attempt,
                       done = std::move(done)]() mutable {
                        nsd_io_run(std::move(run), write, attempt + 1,
                                   std::move(done));
                      });
  };

  consume_probe(target);
  const ClientId me = id_;
  const std::uint64_t epoch = lease_epoch_;
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
  auto runs = build_nsd_runs(std::move(fetch), cfg_.coalesce_blocks);
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
    const BlockPlacement* entry = map_entry(f.key.ino, f.key.block);
    if (entry != nullptr && entry->copies > 0) {
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
    if (token_covers(key.ino, r, LockMode::ro) ||
        token_covers(key.ino, r, LockMode::rw)) {
      pool_.insert_clean(key);
    }
  }
  auto node = fill_waiters_.extract(key);
  if (node.empty()) return;
  for (auto& cb : node.mapped()) cb(st);
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
        ensure_map(ino, b0, count, [this, ino, b0, count](Status st) {
          if (!st.ok() || !mounted()) return;
          const Bytes bs = block_size();
          std::vector<BlockFetch> fetch;
          for (std::uint64_t bi = b0; bi < b0 + count; ++bi) {
            if (fill_inflight_ + fetch.size() * bs >= cfg_.max_inflight_fill) {
              break;
            }
            const PageKey key{ino, bi};
            if (pool_.contains(key) || fill_waiters_.count(key) > 0) continue;
            const BlockPlacement* entry = map_entry(ino, bi);
            if (entry == nullptr || entry->copies == 0) continue;
            const TokenRange r{bi * bs, (bi + 1) * bs};
            if (!token_covers(ino, r, LockMode::ro) &&
                !token_covers(ino, r, LockMode::rw)) {
              continue;
            }
            const BlockPlacement& pl = *entry;
            std::uint8_t c = pick_copy(pl, 0);
            if (c >= pl.copies) c = 0;
            fill_waiters_[key];
            fetch.push_back(BlockFetch{key, pl.addr[c], /*speculative=*/true,
                                       c, static_cast<std::uint8_t>(1u << c)});
            ++ra_issued_;
          }
          issue_fills(std::move(fetch));
        });
      });
}

void Client::ensure_block_present(InodeNum ino, std::uint64_t bi,
                                  std::function<void(Status)> done) {
  const PageKey key{ino, bi};
  if (pool_.contains(key)) {
    pool_.note_lookup(true);
    pool_.touch(key);
    done(Status{});
    return;
  }
  pool_.note_lookup(false);
  auto wit = fill_waiters_.find(key);
  if (wit != fill_waiters_.end()) {
    wit->second.push_back(std::move(done));
    return;
  }
  const BlockPlacement* entry = map_entry(ino, bi);
  MGFS_ASSERT(entry != nullptr, "block map not populated before fill");
  if (entry->copies == 0) {
    done(Status{});  // hole: zeros, nothing to fetch
    return;
  }
  const BlockPlacement pl = *entry;
  std::uint8_t c = pick_copy(pl, 0);
  if (c >= pl.copies) c = 0;
  fill_waiters_[key].push_back(std::move(done));
  issue_fills({BlockFetch{key, pl.addr[c], /*speculative=*/false, c,
                          static_cast<std::uint8_t>(1u << c)}});
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
      fs_->shard_of_path(path), cfg_.meta_payload,
      [fs, path, who, flags, me](Rpc::ReplyFn<OpenResult> reply) {
        reply(64, fs->op_open(path, who, flags, me));
      },
      [this, who, flags, done = std::move(done)](Result<OpenResult> res) {
        if (!res.ok()) {
          if (res.code() == Errc::stale) on_lease_lapsed();
          done(res.error());
          return;
        }
        const Fh fh = next_fh_++;
        OpenFile f;
        f.ino = res->ino;
        f.who = who;
        f.flags = flags;
        f.size = res->size;
        f.ra = ReadaheadRamp(static_cast<std::uint64_t>(cfg_.readahead_min),
                             static_cast<std::uint64_t>(cfg_.readahead_blocks));
        f.wb = ReadaheadRamp(8, cfg_.write_batch_blocks);
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
  // says we will stream through, not just this call's bytes.
  const TokenRange required{offset, offset + len};
  const TokenRange desired =
      ra == 0 ? required : TokenRange{b0 * bs, (map_hi + 1) * bs};

  ensure_token(
      ino, required, desired, LockMode::ro,
      [this, ino, b0, b1, map_hi, len, bs,
       done = std::move(done)](Status st) mutable {
        if (!st.ok()) {
          done(st.error());
          return;
        }
        ensure_map(
            ino, b0, map_hi - b0 + 1,
            [this, ino, b0, b1, map_hi, len, bs,
             done = std::move(done)](Status st) mutable {
              if (!st.ok()) {
                done(st.error());
                return;
              }
              // Plan the demand blocks: cache hits are done, blocks with
              // a fill already in flight are joined, the rest are fetched.
              std::vector<std::uint64_t> wait;
              std::vector<BlockFetch> fetch;
              for (std::uint64_t bi = b0; bi <= b1; ++bi) {
                const PageKey key{ino, bi};
                if (pool_.contains(key)) {
                  pool_.note_lookup(true);
                  pool_.touch(key);
                  continue;
                }
                pool_.note_lookup(false);
                if (fill_waiters_.count(key) > 0) {
                  wait.push_back(bi);
                  continue;
                }
                const BlockPlacement* entry = map_entry(ino, bi);
                MGFS_ASSERT(entry != nullptr,
                            "block map not populated before fill");
                if (entry->copies == 0) continue;  // hole: zeros
                const BlockPlacement& pl = *entry;
                std::uint8_t c = pick_copy(pl, 0);
                if (c >= pl.copies) c = 0;
                wait.push_back(bi);
                fetch.push_back(
                    BlockFetch{key, pl.addr[c], /*speculative=*/false, c,
                               static_cast<std::uint8_t>(1u << c)});
                fill_waiters_[key];  // reserve: dedup point for later reads
              }
              // Readahead rides in the same runs as the demand blocks, so
              // a demand fill and its same-NSD successors become one wire
              // request. Only readahead is subject to the fill budget.
              for (std::uint64_t bi = b1 + 1; bi <= map_hi; ++bi) {
                if (fill_inflight_ + fetch.size() * bs >=
                    cfg_.max_inflight_fill) {
                  break;
                }
                const PageKey key{ino, bi};
                if (pool_.contains(key) || fill_waiters_.count(key) > 0) {
                  continue;
                }
                const BlockPlacement* entry = map_entry(ino, bi);
                if (entry == nullptr || entry->copies == 0) continue;
                const TokenRange r{bi * bs, (bi + 1) * bs};
                if (!token_covers(ino, r, LockMode::ro) &&
                    !token_covers(ino, r, LockMode::rw)) {
                  continue;
                }
                const BlockPlacement& pl = *entry;
                std::uint8_t c = pick_copy(pl, 0);
                if (c >= pl.copies) c = 0;
                fill_waiters_[key];
                fetch.push_back(
                    BlockFetch{key, pl.addr[c], /*speculative=*/true, c,
                               static_cast<std::uint8_t>(1u << c)});
                ++ra_issued_;
              }
              if (wait.empty()) {
                issue_fills(std::move(fetch));
                // Fully-cached reads must still complete asynchronously:
                // callers' issue loops are not re-entrant.
                simulator().defer(
                    [len, done = std::move(done)] { done(len); });
                return;
              }
              struct Gather {
                std::size_t outstanding;
                Status first_error;
                std::function<void(Result<Bytes>)> done;
                Bytes len;
              };
              auto g = std::make_shared<Gather>(
                  Gather{wait.size(), Status{}, std::move(done), len});
              // Register waiters before issuing: a breaker fast-fail can
              // complete synchronously.
              for (std::uint64_t bi : wait) {
                fill_waiters_[PageKey{ino, bi}].push_back([g](Status st) {
                  if (!st.ok() && g->first_error.ok()) g->first_error = st;
                  if (--g->outstanding == 0) {
                    if (g->first_error.ok()) {
                      g->done(g->len);
                    } else {
                      g->done(g->first_error.error());
                    }
                  }
                });
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

  // Streaming-write detection: once the sequential pattern is confirmed
  // (two hits), batch the token grant and block allocation over the
  // ramp window. One-shot writes keep exact per-call block accounting.
  const std::uint64_t wnd = f->wb.on_access(b0, b1);
  const std::uint64_t batch =
      (f->wb.hits() >= 2 && wnd > 0)
          ? std::min<std::uint64_t>(wnd, cfg_.write_batch_blocks)
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
          const BlockPlacement* e = map_entry(ino, bi);
          if (e == nullptr || e->copies == 0) need_alloc = true;
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
              const PageKey key{ino, bi};
              const bool was_dirty = pool_.is_dirty(key);
              if (!pool_.insert_dirty(key)) {
                done(err(Errc::io_error,
                         "pagepool pinned solid with dirty pages"));
                return;
              }
              if (!was_dirty) {
                const BlockPlacement* e = map_entry(ino, bi);
                MGFS_ASSERT(e != nullptr && e->copies > 0,
                            "dirty page without placement");
                dirty_fifo_.push_back(key);
                dirty_addr_[key] = *e;
              }
            }
            // Commits can land out of order: an allocate-ahead-covered
            // write completes synchronously while an earlier write still
            // waits on its allocation reply. Size only ever grows.
            f->size = std::max(f->size, new_size);
            pump_flush();
            if (pool_.dirty_bytes() <= cfg_.max_dirty) {
              // A write whose token, map and allocation are all batched
              // ahead reaches here synchronously; callers' issue loops
              // are not re-entrant, so complete through the event queue.
              simulator().defer([len, done = std::move(done)] { done(len); });
            } else {
              // Write-behind cap reached: stall the writer until flushes
              // bring the dirty total back under the cap.
              stalled_writers_.push_back(
                  [len, done = std::move(done)] { done(len); });
            }
          };
          if (rmw.empty()) {
            commit(Status{});
            return;
          }
          auto g = std::make_shared<std::pair<std::size_t, Status>>(
              rmw.size(), Status{});
          auto commit_shared =
              std::make_shared<decltype(commit)>(std::move(commit));
          for (std::uint64_t bi : rmw) {
            ensure_block_present(ino, bi, [g, commit_shared](Status st) {
              if (!st.ok() && g->second.ok()) g->second = st;
              if (--g->first == 0) (*commit_shared)(g->second);
            });
          }
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
            fs_->shard_of(ino), cfg_.meta_payload,
            [fs, ino, b0, count, new_size,
             me](Rpc::ReplyFn<BlockMapChunk> reply) {
              reply(16 * count,
                    fs->op_allocate(ino, b0, count, new_size, me));
            },
            [this, ino, b0, count, batch, proceed = std::move(proceed)](
                Result<BlockMapChunk> res) mutable {
              if (!res.ok()) {
                if (res.code() == Errc::stale) on_lease_lapsed();
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
  while (flights_ < cfg_.flush_parallel && !dirty_fifo_.empty()) {
    const PageKey key = dirty_fifo_.front();
    dirty_fifo_.pop_front();
    if (!pool_.is_dirty(key)) continue;  // cleaned or invalidated already
    auto ait = dirty_addr_.find(key);
    MGFS_ASSERT(ait != dirty_addr_.end(), "dirty page without address");
    const BlockPlacement pl = ait->second;
    const std::uint8_t ac = flush_anchor(pl);
    const BlockAddr addr = pl.addr[ac];

    // Coalesce: pull other dirty blocks bound for the same NSD out of
    // the FIFO head so the whole run goes out as one wire request.
    // Replicated blocks coalesce on their *anchor* copy; propagation to
    // the other copies fans out per block after the anchor run lands.
    std::vector<BlockFetch> items{BlockFetch{key, addr, false, ac, 0}};
    if (cfg_.coalesce_blocks > 1) {
      std::size_t scanned = 0;
      for (auto it = dirty_fifo_.begin();
           it != dirty_fifo_.end() && scanned < kFlushScan &&
           items.size() < cfg_.coalesce_blocks;) {
        ++scanned;
        const PageKey k = *it;
        if (!pool_.is_dirty(k)) {
          it = dirty_fifo_.erase(it);
          continue;
        }
        auto a2 = dirty_addr_.find(k);
        MGFS_ASSERT(a2 != dirty_addr_.end(), "dirty page without address");
        const std::uint8_t ac2 = flush_anchor(a2->second);
        if (a2->second.addr[ac2].nsd == addr.nsd) {
          items.push_back(BlockFetch{k, a2->second.addr[ac2], false, ac2, 0});
          it = dirty_fifo_.erase(it);
        } else {
          ++it;
        }
      }
    }
    auto runs = build_nsd_runs(std::move(items), cfg_.coalesce_blocks);
    MGFS_ASSERT(runs.size() == 1, "flush coalescing spans one NSD");
    NsdRun run = std::move(runs.front());
    if (run.items.size() > 1) {
      coal_blocks_ += run.items.size();
      ++coal_requests_;
    }
    ++flights_;
    for (const BlockFetch& f : run.items) ++inflight_per_ino_[f.key.ino];
    // One flight covers the whole run; it frees up when every item has
    // reached a terminal sub-run (splits re-issue under the same done).
    auto remaining = std::make_shared<std::size_t>(run.items.size());
    nsd_io_run(std::move(run), true, 0,
               [this, remaining](const NsdRun& r, const Status& st) {
      bool lapsed = false;
      for (const BlockFetch& f : r.items) {
        const PageKey k = f.key;
        if (st.ok()) {
          bytes_written_remote_ += pool_.page_size();
          // Write-through: the page only goes clean (and the per-inode
          // inflight count only drops) once every clean replica copy has
          // the data too — fsync must cover propagation.
          finish_block_flush(k, f.copy);
        } else if (st.code() == Errc::stale) {
          // Fenced: our lease epoch is dead, this page can never land.
          // Uncommitted write-behind data of a lapsed incarnation is
          // lost by design — drop it and enter lease recovery.
          release_inflight(k.ino);
          pool_.invalidate(k.ino, k.block, k.block + 1);
          dirty_addr_.erase(k);
          anchor_fails_.erase(k);
          lapsed = true;
        } else {
          // Transient failure (e.g. both servers down): requeue after a
          // delay. An immediate requeue would spin at zero simulated
          // cost when the breaker fast-fails without touching the
          // network. If the anchor copy keeps failing and another clean
          // copy exists, divorce the anchor (mark it divergent) so the
          // requeued flush re-anchors on a reachable replica — this is
          // what lets writes keep landing through a site outage.
          release_inflight(k.ino);
          const int fails = ++anchor_fails_[k];
          auto ait2 = dirty_addr_.find(k);
          if (fails >= 3 && ait2 != dirty_addr_.end() &&
              ait2->second.clean_copies() > 1 &&
              !ait2->second.is_divergent(f.copy)) {
            anchor_fails_.erase(k);
            ++replica_failovers_;
            mark_divergent(k, f.copy, [] {});
          }
          simulator().after(cfg_.flush_retry_delay, [this, k] {
            if (!mounted() || !pool_.is_dirty(k)) {
              dirty_addr_.erase(k);
              return;
            }
            dirty_fifo_.push_back(k);
            pump_flush();
          });
        }
      }
      if (lapsed) on_lease_lapsed();
      unstall_writers();
      check_flush_waiters();
      *remaining -= r.items.size();
      if (*remaining == 0) {
        --flights_;
        pump_flush();
      }
    });
  }
}

std::uint8_t Client::flush_anchor(const BlockPlacement& p) {
  // Prefer the primary copy; if it has been marked divergent (its NSD
  // was unreachable), anchor on the first clean replica instead.
  if (!p.is_divergent(0)) return 0;
  for (std::uint8_t c = 1; c < p.copies; ++c) {
    if (!p.is_divergent(c)) return c;
  }
  return 0;  // no clean copy recorded locally: fall back to primary
}

void Client::finish_block_flush(const PageKey& k, std::uint8_t anchor) {
  auto ait = dirty_addr_.find(k);
  if (ait == dirty_addr_.end()) {
    // Invalidated while the anchor write was in flight.
    release_inflight(k.ino);
    unstall_writers();
    check_flush_waiters();
    return;
  }
  const BlockPlacement pl = ait->second;
  std::vector<std::uint8_t> targets;
  for (std::uint8_t c = 0; c < pl.copies; ++c) {
    if (c != anchor && !pl.is_divergent(c)) targets.push_back(c);
  }
  if (targets.empty()) {
    complete_block_flush(k);
    return;
  }
  // Propagate to every other clean copy; the page goes clean only when
  // all copies have landed (or been marked divergent on failure).
  auto remaining = std::make_shared<std::size_t>(targets.size());
  for (const std::uint8_t c : targets) {
    write_replica_copy(k, pl.addr[c], c, [this, k, remaining] {
      if (--*remaining == 0) complete_block_flush(k);
    });
  }
}

void Client::complete_block_flush(const PageKey& k) {
  pool_.mark_clean(k);
  dirty_addr_.erase(k);
  anchor_fails_.erase(k);
  release_inflight(k.ino);
  unstall_writers();
  check_flush_waiters();
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
  meta_call<int>(
      fs_->shard_of(k.ino), 64,
      [fs, me, k, copy](Rpc::ReplyFn<int> reply) {
        const Status st = fs->op_replica_divergence(me, k.ino, k.block, copy);
        if (st.ok()) {
          reply(16, Result<int>{0});
        } else {
          reply(16, Result<int>{st.error()});
        }
      },
      [this, k, copy, done = std::move(done)](Result<int> r) {
        if (r.ok()) {
          if (BlockPlacement* e = map_entry(k.ino, k.block);
              e != nullptr && e->copies > 0) {
            e->divergent |= static_cast<std::uint8_t>(1u << copy);
          }
          if (auto it = dirty_addr_.find(k); it != dirty_addr_.end()) {
            it->second.divergent |= static_cast<std::uint8_t>(1u << copy);
          }
        }
        done();
      });
}

void Client::release_inflight(InodeNum ino) {
  auto it = inflight_per_ino_.find(ino);
  if (it != inflight_per_ino_.end() && --it->second == 0) {
    inflight_per_ino_.erase(it);
  }
}

void Client::check_flush_waiters() {
  // fsync()/revoke waiters whose inode fully flushed (or whose dirty
  // pages were discarded by lease recovery)?
  for (auto wit = flush_waiters_.begin(); wit != flush_waiters_.end();) {
    const InodeNum ino = wit->first;
    const bool busy = inflight_per_ino_.count(ino) > 0 ||
                      !pool_.dirty_pages(ino).empty();
    if (!busy) {
      auto cb = std::move(wit->second);
      wit = flush_waiters_.erase(wit);
      cb();
    } else {
      ++wit;
    }
  }
}

void Client::unstall_writers() {
  if (pool_.dirty_bytes() > cfg_.max_dirty) return;
  auto stalled = std::move(stalled_writers_);
  stalled_writers_.clear();
  for (auto& cb : stalled) cb();
}

void Client::flush_inode(InodeNum ino, std::optional<TokenRange> range,
                         sim::Callback done) {
  (void)range;  // flushing the whole inode is always sufficient
  const bool busy =
      inflight_per_ino_.count(ino) > 0 || !pool_.dirty_pages(ino).empty();
  if (!busy) {
    done();
    return;
  }
  flush_waiters_.emplace_back(ino, std::move(done));
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
  flush_inode(ino, std::nullopt, [this, ino, size,
                                  done = std::move(done)]() mutable {
    if (!mounted()) {
      done(Status{});
      return;
    }
    FileSystem* fs = fs_;
    const ClientId me = id_;
    meta_call<int>(
        fs->shard_of(ino), 64,
        [fs, ino, size, me](Rpc::ReplyFn<int> reply) {
          const Status st = fs->op_extend_size(ino, size, me);
          reply(64, st.ok() ? Result<int>(0) : Result<int>(st.error()));
        },
        [this, done = std::move(done)](Result<int> r) {
          if (!r.ok() && r.code() == Errc::stale) on_lease_lapsed();
          done(r.ok() ? Status{} : Status(r.error()));
        });
  });
}

void Client::flush_all(sim::Callback done) {
  auto dirty = pool_.all_dirty();
  std::vector<InodeNum> inodes;
  for (const PageKey& k : dirty) {
    if (inodes.empty() || inodes.back() != k.ino) inodes.push_back(k.ino);
  }
  std::sort(inodes.begin(), inodes.end());
  inodes.erase(std::unique(inodes.begin(), inodes.end()), inodes.end());
  // Also cover inodes whose pages are already in flight but no longer
  // dirty in the pool.
  for (const auto& [ino, n] : inflight_per_ino_) {
    (void)n;
    if (!std::binary_search(inodes.begin(), inodes.end(), ino)) {
      inodes.push_back(ino);
    }
  }
  if (inodes.empty()) {
    rpc_.pool().network().simulator().defer(std::move(done));
    return;
  }
  auto remaining = std::make_shared<std::size_t>(inodes.size());
  auto shared_done = std::make_shared<sim::Callback>(std::move(done));
  for (InodeNum ino : inodes) {
    flush_inode(ino, std::nullopt, [remaining, shared_done] {
      if (--*remaining == 0) (*shared_done)();
    });
  }
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
      fs_->shard_of_path(path), cfg_.meta_payload,
      [fs, path](Rpc::ReplyFn<StatInfo> reply) {
        reply(128, fs->op_stat(path));
      },
      std::move(done));
}

void Client::mkdir(const std::string& path, const Principal& who, Mode mode,
                   std::function<void(Status)> done) {
  FileSystem* fs = fs_;
  meta_call<int>(
      fs_->shard_of_path(path), cfg_.meta_payload,
      [fs, path, who, mode](Rpc::ReplyFn<int> reply) {
        auto r = fs->op_mkdir(path, who, mode);
        reply(64, r.ok() ? Result<int>(0) : Result<int>(r.error()));
      },
      [done = std::move(done)](Result<int> r) {
        done(r.ok() ? Status{} : Status(r.error()));
      });
}

void Client::readdir(const std::string& path, const Principal& who,
                     std::function<void(Result<std::vector<std::string>>)>
                         done) {
  FileSystem* fs = fs_;
  meta_call<std::vector<std::string>>(
      fs_->shard_of_path(path), cfg_.meta_payload,
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
  meta_call<int>(
      fs_->shard_of_path(path), cfg_.meta_payload,
      [fs, path, who, me](Rpc::ReplyFn<int> reply) {
        const Status st = fs->op_unlink(path, who, me);
        reply(64, st.ok() ? Result<int>(0) : Result<int>(st.error()));
      },
      [done = std::move(done)](Result<int> r) {
        done(r.ok() ? Status{} : Status(r.error()));
      });
}

void Client::rename(const std::string& from, const std::string& to,
                    const Principal& who, std::function<void(Status)> done) {
  FileSystem* fs = fs_;
  // Routed by the source path's shard; op_rename itself gates on both
  // paths' domains, so a takeover on either side pauses the op.
  meta_call<int>(
      fs_->shard_of_path(from), cfg_.meta_payload,
      [fs, from, to, who](Rpc::ReplyFn<int> reply) {
        const Status st = fs->op_rename(from, to, who);
        reply(64, st.ok() ? Result<int>(0) : Result<int>(st.error()));
      },
      [done = std::move(done)](Result<int> r) {
        done(r.ok() ? Status{} : Status(r.error()));
      });
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
     << "  _bop_ " << breaker_opens_ << "\n"         // breaker opens
     << "  _bsc_ " << breaker_skips_ << "\n"         // breaker-skipped I/Os
     << "  _prb_ " << breaker_probes_ << "\n"        // half-open probes
     << "  _ra_ " << ra_issued_ << "\n"              // readahead fills issued
     << "  _coal_ " << coal_blocks_ << "\n"          // blocks coalesced
     << "  _spl_ " << coal_splits_ << "\n"           // coalesced-run splits
     << "  _mrpc_ " << meta_rpcs_saved_ << "\n"      // metadata RPCs saved
     << "  _lse_ " << lease_renewals_ << "\n"        // lease renewals
     << "  _lps_ " << lease_lapses_ << "\n"          // lease lapses
     << "  _fnc_ " << fenced_writes_ << "\n"         // fenced (stale) writes
     << "  _mto_ " << mgr_takeovers_ << "\n"         // manager takeovers seen
     << "  _mrr_ " << mgr_reroutes_ << "\n"          // manager-RPC reroutes
     << "  _smg_ " << stale_mgr_rejects_ << "\n"     // stale-manager refusals
     << "  _rpb_ " << recovery_probes_ << "\n"       // fast recovery probes
     << "  _rp50_ " << recovery_op_hist_.quantile(0.5) << "\n"  // p50 (s)
     << "  _rp99_ " << recovery_op_hist_.quantile(0.99) << "\n";  // p99 (s)
  return os.str();
}

// --------------------------------------------------------------------------
// disk lease
// --------------------------------------------------------------------------

void Client::set_lease(std::uint64_t epoch, double duration) {
  lease_epoch_ = epoch;
  lease_duration_ = duration;
  lease_renewed_at_ = simulator().now();
}

void Client::maybe_renew_lease() {
  if (!mounted() || lease_duration_ <= 0 || lapse_handling_ ||
      lease_renew_inflight_) {
    return;
  }
  const double now = simulator().now();
  if (now - lease_renewed_at_ < 0.5 * lease_duration_) return;
  lease_renew_inflight_ = true;
  FileSystem* fs = fs_;
  const ClientId me = id_;
  const std::uint64_t inc = incarnation_;
  // Shard 0 is the lease home: one renewal RPC covers every shard (the
  // batched heartbeat — a lease asserts node liveness, not per-domain
  // authority).
  meta_call<std::uint64_t>(
      0, 64,
      [fs, me](Rpc::ReplyFn<std::uint64_t> reply) {
        reply(64, fs->op_lease_renew(me));
      },
      [this, inc](Result<std::uint64_t> r) {
        if (incarnation_ != inc) return;  // superseded by crash/rejoin
        lease_renew_inflight_ = false;
        if (!mounted()) return;
        if (r.ok()) {
          ++lease_renewals_;
          lease_renewed_at_ = simulator().now();
          return;
        }
        if (r.code() == Errc::stale) {
          on_lease_lapsed();
        }
        // Transient failure: lease_renewed_at_ stays old, so the next
        // read/write retries the renewal immediately.
      });
}

void Client::on_lease_lapsed() {
  if (lapse_handling_) return;
  lapse_handling_ = true;
  ++lease_lapses_;
  ++incarnation_;
  MGFS_WARN("client", "client " << id_
                                << ": disk lease lapsed; discarding cached "
                                   "state and rejoining");
  // A lapsed lease means every cached byte — tokens, maps, dirty
  // write-behind pages — belongs to a dead incarnation. Drop it all.
  discard_cached_state(/*reset_breakers=*/false);
  attempt_rejoin(0);
}

void Client::attempt_rejoin(int attempt) {
  if (!mounted() || !rejoin_) {
    lapse_handling_ = false;
    return;
  }
  const std::uint64_t inc = incarnation_;
  rejoin_([this, inc, attempt](Result<std::uint64_t> r) {
    if (incarnation_ != inc) return;  // a crash_reset superseded us
    if (!mounted()) {
      lapse_handling_ = false;
      return;
    }
    if (r.ok()) {
      lapse_handling_ = false;
      lease_renew_inflight_ = false;
      lease_epoch_ = *r;
      lease_renewed_at_ = simulator().now();
      // Readmission came from whoever holds the manager roles now:
      // adopt every shard's current view.
      for (std::uint32_t s = 0; s < fs_->shard_count(); ++s) {
        adopt_manager_view(s, fs_->manager_node(s), fs_->manager_epoch(s));
      }
      MGFS_INFO("client", "client " << id_ << ": rejoined under lease epoch "
                                    << lease_epoch_);
      pump_flush();
      unstall_writers();
      check_flush_waiters();
      return;
    }
    // Manager unreachable: keep trying under backoff — the client is
    // useless until it rejoins.
    simulator().after(cfg_.retry.backoff(std::min(attempt, 8), rng_),
                      [this, inc, attempt] {
                        if (incarnation_ != inc) return;
                        attempt_rejoin(attempt + 1);
                      });
  });
}

void Client::discard_cached_state(bool reset_breakers) {
  pool_.invalidate_all();
  dirty_fifo_.clear();
  dirty_addr_.clear();
  anchor_fails_.clear();
  held_.clear();
  block_map_.clear();
  alloc_ahead_hi_.clear();
  fill_inflight_ = 0;
  if (reset_breakers) nsd_health_.clear();
  // Writers stalled on the dirty cap and fsync/revoke waiters can
  // proceed: the dirty pages they were waiting out no longer exist.
  unstall_writers();
  check_flush_waiters();
}

void Client::crash_reset() {
  ++incarnation_;  // orphan every in-flight completion of the old life
  lapse_handling_ = false;
  lease_renew_inflight_ = false;
  lease_epoch_ = 0;  // cluster glue re-registers and sets the new epoch
  if (fs_ != nullptr) {
    // Reboot re-reads the cluster configuration: whatever nodes hold
    // the shard manager roles now are the ones this incarnation talks
    // to.
    seed_manager_views();
  }
  // open_ survives deliberately: callers hold Fh handles and in-flight
  // write() continuations hold OpenFile pointers; the handles stay
  // valid while every cached byte below them is discarded.
  discard_cached_state(/*reset_breakers=*/true);
}

bool Client::handle_revoke(InodeNum ino, TokenRange range,
                           std::uint64_t mgr_epoch, sim::Callback done) {
  const std::uint32_t shard = fs_->shard_of(ino);
  if (mgr_epoch < mgr_[shard].epoch) {
    // A deposed manager trying to strip a token the successor already
    // re-granted. Refuse without flushing anything — `done` never runs.
    ++stale_mgr_rejects_;
    MGFS_WARN("client", "client " << id_ << ": revoke under stale manager "
                                  << "epoch " << mgr_epoch << " (have "
                                  << mgr_[shard].epoch << "); refused");
    return false;
  }
  // A newer-epoch revoke doubles as first contact with the successor:
  // adopt its view before flushing, or the dirty pages this revoke
  // forces out would carry the old manager epoch and be fenced.
  adopt_manager_view(shard, fs_->manager_node(shard), mgr_epoch);
  flush_inode(ino, range, [this, ino, range, done = std::move(done)] {
    const Bytes bs = block_size();
    const std::uint64_t lo_blk = range.lo / bs;
    const std::uint64_t hi_blk =
        range.hi == kWholeFile ? ~0ULL : ceil_div(range.hi, bs);
    pool_.invalidate(ino, lo_blk, hi_blk);
    // Drop the cached block map for the revoked range too: the writer
    // this revoke hands the bytes to may mark replicas divergent, and a
    // later read here must re-fetch the placement to see that.
    if (auto fit = block_map_.find(ino); fit != block_map_.end()) {
      for (auto it = fit->second.begin(); it != fit->second.end();) {
        if (it->first >= lo_blk && it->first < hi_blk) {
          it = fit->second.erase(it);
        } else {
          ++it;
        }
      }
    }
    token_trim(ino, range);
    done();
  });
  return true;
}

// --------------------------------------------------------------------------
// manager failover
// --------------------------------------------------------------------------

void Client::adopt_manager_view(std::uint32_t shard, net::NodeId mgr_node,
                                std::uint64_t mgr_epoch) {
  MgrView& v = mgr_[shard];
  if (mgr_epoch > v.epoch) {
    v.epoch = mgr_epoch;
    ++mgr_takeovers_;
  }
  v.node = mgr_node;
}

net::NodeId Client::refresh_manager_view(std::uint32_t shard,
                                         net::NodeId failed_target) {
  const net::NodeId fresh = fs_->manager_node(shard);
  if (!(fresh == failed_target)) ++mgr_reroutes_;
  adopt_manager_view(shard, fresh, fs_->manager_epoch(shard));
  return fresh;
}

Result<ManagerAssertReply> Client::assert_tokens(net::NodeId mgr_node,
                                                 std::uint64_t mgr_epoch,
                                                 std::uint32_t shard) {
  if (!mounted()) return err(Errc::unavailable, "not mounted");
  adopt_manager_view(shard, mgr_node, mgr_epoch);
  ManagerAssertReply reply;
  reply.lease_epoch = lease_epoch_;
  // Dirty-journal summary: what this client still owes the data path
  // (the redrive the overlap window must absorb once its tokens are
  // back). dirty_addr_ keys every unflushed page to its pre-allocated
  // address, so the inode set falls out of the keys — and the per-inode
  // covering span of those pages bounds what we must keep locked.
  // Only `shard`'s inodes are asserted: the other shards' managers did
  // not change, so their grants stay exactly as held.
  const Bytes bs = block_size();
  std::unordered_map<InodeNum, TokenRange> dirty_span;
  reply.dirty_bytes = pool_.dirty_bytes();
  for (const auto& [key, addr] : dirty_addr_) {
    if (fs_->shard_of(key.ino) != shard) continue;
    reply.dirty_inodes.push_back(key.ino);
    const TokenRange pg{key.block * bs, (key.block + 1) * bs};
    auto [it, fresh] = dirty_span.try_emplace(key.ino, pg);
    if (!fresh) {
      it->second.lo = std::min(it->second.lo, pg.lo);
      it->second.hi = std::max(it->second.hi, pg.hi);
    }
  }
  std::sort(reply.dirty_inodes.begin(), reply.dirty_inodes.end());
  reply.dirty_inodes.erase(
      std::unique(reply.dirty_inodes.begin(), reply.dirty_inodes.end()),
      reply.dirty_inodes.end());
  // Assert only what this client still owes: rw tokens clamped to the
  // covering span of their unflushed pages. The speculative width a
  // token gained from desired-window batching died with the old
  // manager — reinstalling it would make the successor's rebuilt table
  // block every other client's first post-takeover acquire behind a
  // revoke round against a grant nobody is using. Clean holdings are
  // simply re-acquired on demand, same as after a plain wipe.
  std::unordered_map<InodeNum, std::vector<HeldToken>> kept;
  for (const auto& [ino, held] : held_) {
    if (fs_->shard_of(ino) != shard) continue;
    const auto ds = dirty_span.find(ino);
    if (ds == dirty_span.end()) continue;
    for (const HeldToken& h : held) {
      if (h.mode != LockMode::rw || !h.range.overlaps(ds->second)) continue;
      const TokenRange clip{std::max(h.range.lo, ds->second.lo),
                            std::min(h.range.hi, ds->second.hi)};
      kept[ino].push_back({h.mode, clip, /*widened=*/false});
      reply.tokens.push_back(TokenAssertion{ino, h.mode, clip});
    }
  }
  // Cached pages whose token was dropped lose their revoke channel —
  // nobody will tell us when another client rewrites them. Evict the
  // clean ones; dirty pages all live inside kept spans by construction
  // (every dirty page sits under some rw token and inside its inode's
  // dirty span, so its clip retains it).
  for (const auto& [ino, held] : held_) {
    if (fs_->shard_of(ino) != shard) continue;
    const auto kit = kept.find(ino);
    for (const HeldToken& h : held) {
      std::vector<TokenRange> remain{h.range};
      if (kit != kept.end()) {
        for (const HeldToken& k : kit->second) {
          std::vector<TokenRange> next;
          for (const TokenRange& r : remain) {
            if (!r.overlaps(k.range)) {
              next.push_back(r);
              continue;
            }
            if (r.lo < k.range.lo) next.push_back({r.lo, k.range.lo});
            if (k.range.hi < r.hi) next.push_back({k.range.hi, r.hi});
          }
          remain = std::move(next);
        }
      }
      for (const TokenRange& r : remain) {
        // Interior blocks only: a block straddling a kept-range edge is
        // still partly under token, and a partially-dirtied page must
        // not be dropped with unflushed bytes aboard.
        const std::uint64_t lo_blk = ceil_div(r.lo, bs);
        const std::uint64_t hi_blk = r.hi == kWholeFile ? ~0ULL : r.hi / bs;
        if (lo_blk < hi_blk) pool_.invalidate(ino, lo_blk, hi_blk);
      }
    }
  }
  // Replace only this shard's holdings with the clipped set; other
  // shards' entries survive untouched.
  for (auto it = held_.begin(); it != held_.end();) {
    if (fs_->shard_of(it->first) == shard) {
      it = held_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& [ino, v] : kept) held_[ino] = std::move(v);
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
  if (mgr_epoch < mgr_[fs_->shard_of(ino)].epoch) {
    ++stale_mgr_rejects_;
    return false;
  }
  token_record(ino, range, mode, /*widened=*/true);
  return true;
}

}  // namespace mgfs::gpfs
