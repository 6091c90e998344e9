// Request/response messaging over pooled TCP connections.
//
// Every GPFS interaction — metadata ops to the FS manager, token
// traffic, NSD reads/writes — is a typed RPC: the request bytes travel
// src -> dst over the pooled connection for that node pair, the server
// continuation runs at delivery, and its reply bytes travel back before
// the caller's completion fires. Transport failures surface as
// Errc::unavailable (and the pooled connection is reset so a retry can
// take a different path, e.g. the backup NSD server).
//
// Gray failures need more than error callbacks: a blackholed peer
// accepts bytes and never answers, so a call may simply make no
// progress. CallOptions::deadline bounds every call — on expiry the
// caller gets Errc::timed_out and both directions of the pair are
// reset, unwedging any bytes stalled behind the silent peer.
//
// Manager-bound RPCs add one more rule (DESIGN.md §6): callers target
// the node they *believe* holds the file-system-manager role and stamp
// state-changing traffic (grants, revokes, NSD writes) with the manager
// epoch they adopted. After a takeover bumps the epoch, a client's
// retry path re-looks-up the role and reroutes to the successor
// (pause-and-redrive), while anything still carrying the deposed
// incarnation's epoch is rejected as non-retryable Errc::stale.
//
// The pool is also where WAN behaviour comes from: each (src, dst) pair
// is one TCP connection with a 2005-sized window, so a client talking
// to 64 NSD servers has 64 independent windows in flight — the paper's
// reason GPFS fills long-fat pipes that defeat single-socket tools.
#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "net/tcp.hpp"

namespace mgfs::gpfs {

// The pool lookup is on the path of every RPC send, reply, and ack, so
// it is NodeId-indexed flat vectors (rows_[src.v][dst.v]) rather than a
// map: node ids are small dense integers assigned by the Network, and
// the 1024-client profile showed the old std::map find dominating once
// every client holds ~64 NSD pairs. Rows grow on demand; absent entries
// are null.
class ConnectionPool {
 public:
  ConnectionPool(net::Network& net, net::TcpConfig cfg = {})
      : net_(net), cfg_(cfg) {}

  net::TcpConnection& get(net::NodeId src, net::NodeId dst) {
    auto& slot = slot_at(src.v, dst.v);
    if (!slot) {
      slot = std::make_unique<net::TcpConnection>(net_, src, dst, cfg_);
      ++open_;
      ++created_;
    }
    return *slot;
  }

  /// Drop the (src, dst) connection from the pool, failing anything
  /// still queued on it. The object itself is retired, not destroyed,
  /// until the pool goes away: in-flight simulator continuations hold
  /// raw pointers into it (they become epoch-guarded no-ops after the
  /// reset). Returns true if a connection existed.
  bool evict(net::NodeId src, net::NodeId dst) {
    if (src.v >= rows_.size() || dst.v >= rows_[src.v].size() ||
        !rows_[src.v][dst.v]) {
      return false;
    }
    retire(rows_[src.v][dst.v]);
    return true;
  }

  /// Retire every pair touching `n` (either endpoint). Long-running
  /// multi-cluster sims call this when a node leaves for good so dead
  /// pairs don't accumulate. Returns the number evicted.
  std::size_t evict_node(net::NodeId n) {
    return for_pairs_of(n, [this](std::unique_ptr<net::TcpConnection>& c) {
      retire(c);
      return true;
    });
  }

  /// Reset (not evict) every broken connection touching `n` — the node
  /// restart path: the pairs are about to be reused, so clear the
  /// failed state instead of reallocating. Returns the number reset.
  std::size_t reset_node(net::NodeId n) {
    return for_pairs_of(n, [](std::unique_ptr<net::TcpConnection>& c) {
      if (!c->broken()) return false;
      c->reset();
      return true;
    });
  }

  net::Network& network() { return net_; }
  const net::TcpConfig& config() const { return cfg_; }
  std::size_t open_connections() const { return open_; }
  std::uint64_t connections_created() const { return created_; }
  std::uint64_t connections_evicted() const { return evicted_; }
  std::size_t retired_connections() const { return retired_.size(); }

 private:
  std::unique_ptr<net::TcpConnection>& slot_at(std::uint32_t src,
                                               std::uint32_t dst) {
    if (src >= rows_.size()) rows_.resize(src + 1);
    auto& row = rows_[src];
    if (dst >= row.size()) row.resize(dst + 1);
    return row[dst];
  }

  /// Run `fn` on every open pair touching `n`, counting those it acted
  /// on. Walks pairs in (src, dst) order — reset() can fail queued
  /// transfers synchronously, so the callback order must match the old
  /// sorted-map pool.
  template <typename Fn>
  std::size_t for_pairs_of(net::NodeId n, Fn fn) {
    std::size_t count = 0;
    for (std::size_t src = 0; src < rows_.size(); ++src) {
      auto& row = rows_[src];
      if (src == n.v) {
        for (auto& slot : row) count += slot && fn(slot);
      } else if (n.v < row.size() && row[n.v]) {
        count += fn(row[n.v]);
      }
    }
    return count;
  }

  void retire(std::unique_ptr<net::TcpConnection>& slot) {
    slot->reset();
    retired_.push_back(std::move(slot));
    --open_;
    ++evicted_;
  }

  net::Network& net_;
  net::TcpConfig cfg_;
  std::vector<std::vector<std::unique_ptr<net::TcpConnection>>> rows_;
  // Evicted but possibly still referenced by in-flight continuations;
  // reclaimed with the pool.
  std::vector<std::unique_ptr<net::TcpConnection>> retired_;
  std::size_t open_ = 0;
  std::uint64_t created_ = 0;
  std::uint64_t evicted_ = 0;
};

/// Default header cost of one protocol message beyond its payload.
inline constexpr Bytes kRpcHeader = 128;

class Rpc {
 public:
  explicit Rpc(ConnectionPool& pool) : pool_(pool) {}

  /// Per-call knobs. deadline == 0 means "wait forever" (the pre-fault-
  /// model behaviour); anything else bounds the whole request+reply
  /// round trip in simulated seconds.
  struct CallOptions {
    sim::Time deadline = 0.0;
  };

  /// One reply sender: the server continuation calls it exactly once
  /// with the size of the response payload and the typed outcome.
  template <typename R>
  using ReplyFn = std::function<void(Bytes resp_payload, Result<R>)>;

  /// Server continuation: runs (logically at `dst`) when the request
  /// arrives; may complete synchronously or after further async work.
  template <typename R>
  using ServerFn = std::function<void(ReplyFn<R>)>;

  /// Issue a request of `req_payload` bytes from src to dst, run
  /// `server` at delivery, return its result to `done` after the
  /// response bytes arrive back at src. Exactly one completion fires:
  /// the reply, a transport error (Errc::unavailable), or — when
  /// opts.deadline is set — Errc::timed_out at the deadline. A server
  /// reply that arrives after the deadline fired is dropped.
  template <typename R>
  void call(net::NodeId src, net::NodeId dst, Bytes req_payload,
            ServerFn<R> server, std::function<void(Result<R>)> done,
            CallOptions opts = {}) {
    ++calls_;
    auto& fwd = pool_.get(src, dst);
    if (fwd.broken()) fwd.reset();  // allow retry after a healed failure
    auto state = std::make_shared<CallState<R>>();
    state->done = std::move(done);
    if (!pool_.network().node_up(dst)) {
      // Fast-fail like a refused connection; do not queue bytes.
      // (A blackholed destination is NOT caught here: it accepts the
      // connection and the deadline is the only way out.)
      pool_.network().simulator().defer([state] {
        finish(state, Result<R>(
                          err(Errc::unavailable, "destination node down")));
      });
      return;
    }
    if (opts.deadline > 0.0) {
      state->sim = &pool_.network().simulator();
      state->timer = state->sim->after_cancellable(
          opts.deadline, [this, state, src, dst] {
            if (state->finished) return;
            ++timeouts_;
            // Unwedge the pair: stalled bytes (e.g. toward a blackholed
            // peer) would otherwise block every later message behind
            // them.
            pool_.get(src, dst).reset();
            pool_.get(dst, src).reset();
            finish(state,
                   Result<R>(err(Errc::timed_out, "rpc deadline exceeded")));
          });
    }
    fwd.send(
        kRpcHeader + req_payload,
        [this, src, dst, server = std::move(server), state]() mutable {
          // Request delivered: run the server continuation.
          server([this, src, dst, state](Bytes resp_payload,
                                         Result<R> result) mutable {
            if (state->finished) return;  // deadline already fired
            auto& rev = pool_.get(dst, src);
            if (rev.broken()) rev.reset();
            auto shared = std::make_shared<Result<R>>(std::move(result));
            rev.send(
                kRpcHeader + resp_payload,
                [state, shared] { finish(state, std::move(*shared)); },
                [state] {
                  finish(state, Result<R>(err(Errc::unavailable,
                                              "response path lost")));
                });
          });
        },
        [state] {
          finish(state,
                 Result<R>(err(Errc::unavailable, "request path lost")));
        });
  }

  ConnectionPool& pool() { return pool_; }
  std::uint64_t calls() const { return calls_; }
  std::uint64_t timeouts() const { return timeouts_; }

 private:
  template <typename R>
  struct CallState {
    std::function<void(Result<R>)> done;
    bool finished = false;
    sim::Simulator* sim = nullptr;  // set iff a deadline timer is armed
    sim::TimerId timer = 0;
  };

  template <typename R>
  static void finish(const std::shared_ptr<CallState<R>>& state,
                     Result<R> result) {
    if (state->finished) return;
    state->finished = true;
    if (state->sim != nullptr) state->sim->cancel(state->timer);
    auto done = std::move(state->done);
    done(std::move(result));
  }

  ConnectionPool& pool_;
  std::uint64_t calls_ = 0;
  std::uint64_t timeouts_ = 0;
};

}  // namespace mgfs::gpfs
