// Windowed transport connections over the simulated network.
//
// This is the mechanism behind the paper's central observation: a WAN
// round-trip of 80 ms does *not* doom a global file system, because GPFS
// fans every client out to dozens of NSD servers over concurrent
// sockets, while any single window-limited socket is capped at
// window/RTT (1 MiB / 80 ms = 12.5 MB/s in 2005-default tuning).
//
// The model: a connection from a to b carries messages as fixed-size
// chunks. At most `window` bytes are unacknowledged in flight;
// acknowledgments (small messages) return over the reverse path. Slow
// start grows the congestion window one chunk per ack from one chunk up
// to `window`. Chunks traverse each link through its FIFO Pipe, so
// competing connections share bottlenecks naturally.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.hpp"
#include "net/network.hpp"

namespace mgfs::net {

struct TcpConfig {
  Bytes window = 1 * MiB;   // max unacked bytes (socket buffer)
  Bytes chunk = 256 * KiB;  // transfer granularity
  Bytes ack_bytes = 40;     // ack frame size on the reverse path
  bool slow_start = true;   // ramp cwnd from one chunk
};

class TcpConnection {
 public:
  using Callback = std::function<void()>;
  using ErrorCallback = std::function<void()>;

  TcpConnection(Network& net, NodeId src, NodeId dst, TcpConfig cfg = {});

  /// Queue `n` bytes; `on_complete` fires when the last byte arrives at
  /// the destination. `on_error` fires (once per message) if the path
  /// fails. Messages complete in FIFO order.
  void send(Bytes n, Callback on_complete, ErrorCallback on_error = nullptr);

  /// True once a path failure has been observed; subsequent sends fail
  /// immediately until reset() is called.
  bool broken() const { return broken_; }
  /// Abandon the connection state: in-flight chunks are disowned (their
  /// continuations become no-ops) and still-queued messages fail via
  /// their error callbacks, deferred. Used after a path failure and by
  /// RPC deadline expiry to unwedge a stalled (e.g. blackholed) pair.
  void reset();

  Bytes bytes_delivered() const { return bytes_delivered_; }
  std::uint64_t messages_completed() const { return messages_completed_; }
  Bytes inflight() const { return inflight_; }
  Bytes cwnd() const { return cwnd_; }
  NodeId src() const { return src_; }
  NodeId dst() const { return dst_; }
  const TcpConfig& config() const { return cfg_; }

 private:
  struct Message {
    Bytes to_send;     // bytes not yet put on the wire
    Bytes to_deliver;  // bytes not yet arrived at dst
    Callback on_complete;
    ErrorCallback on_error;
  };

  void pump();
  /// Retire the oldest message (its completion callback already taken).
  void pop_front();
  /// Fail every queued message: drop the queue, hand back the error
  /// callbacks in FIFO order.
  std::vector<ErrorCallback> take_queue();
  void on_chunk_delivered(Bytes n);
  void on_ack(Bytes n);
  void on_path_failure();

  Network& net_;
  NodeId src_, dst_;
  TcpConfig cfg_;
  Bytes cwnd_;
  Bytes inflight_ = 0;
  bool broken_ = false;
  bool pumping_ = false;
  // FIFO of incomplete messages, [head_] the oldest. A vector, not a
  // deque: a pool keeps thousands of mostly idle connections, and an
  // empty std::deque still holds a ~600 B block where a drained vector
  // keeps only its capacity, usually a message or two. Retiring the
  // head in place, not erase(begin()), because a queue can also run
  // thousands deep: in `meta_failover` (perfbench, seed 1) 3.6% of the
  // sends join a queue over 1024 deep, at most 4491, while
  // `mpiio_stream`, `smallfile_meta` and `wan_mixed` never pass 17.
  // Cleared when it drains; the retired prefix is compacted once it is
  // half the vector.
  std::vector<Message> queue_;
  std::size_t head_ = 0;
  std::size_t send_cursor_ = 0; // first message with to_send > 0, from head_
  Bytes bytes_delivered_ = 0;
  std::uint64_t messages_completed_ = 0;
  std::uint64_t epoch_ = 0;  // invalidates in-flight callbacks after reset
};

}  // namespace mgfs::net
