#include "net/tcp.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/result.hpp"

namespace mgfs::net {

TcpConnection::TcpConnection(Network& net, NodeId src, NodeId dst,
                             TcpConfig cfg)
    : net_(net), src_(src), dst_(dst), cfg_(cfg) {
  MGFS_ASSERT(cfg_.chunk > 0 && cfg_.window >= cfg_.chunk,
              "window must hold at least one chunk");
  cwnd_ = cfg_.slow_start ? cfg_.chunk : cfg_.window;
}

void TcpConnection::send(Bytes n, Callback on_complete,
                         ErrorCallback on_error) {
  if (broken_) {
    if (on_error) {
      net_.simulator().defer(std::move(on_error));
    }
    return;
  }
  if (n == 0) {
    // Degenerate but legal: complete after one path round trip worth of
    // nothing — deliver immediately on the next event round.
    if (on_complete) net_.simulator().defer(std::move(on_complete));
    return;
  }
  queue_.push_back(Message{n, n, std::move(on_complete), std::move(on_error)});
  pump();
}

void TcpConnection::pump() {
  if (broken_) return;
  if (pumping_) return;  // pump() can re-enter via synchronous failures
  pumping_ = true;
  while (inflight_ < cwnd_) {
    while (head_ + send_cursor_ < queue_.size() &&
           queue_[head_ + send_cursor_].to_send == 0) {
      ++send_cursor_;
    }
    if (head_ + send_cursor_ >= queue_.size()) break;
    Message& m = queue_[head_ + send_cursor_];
    const Bytes c = std::min(cfg_.chunk, m.to_send);
    m.to_send -= c;
    inflight_ += c;
    const std::uint64_t ep = epoch_;
    net_.send(
        src_, dst_, c,
        /*delivered=*/
        [this, c, ep] {
          if (ep != epoch_) return;
          on_chunk_delivered(c);
          net_.send(
              dst_, src_, cfg_.ack_bytes,
              [this, c, ep] {
                if (ep != epoch_) return;
                on_ack(c);
              },
              [this, ep] {
                if (ep == epoch_) on_path_failure();
              });
        },
        /*on_fail=*/
        [this, ep] {
          if (ep == epoch_) on_path_failure();
        });
    if (broken_) break;
  }
  pumping_ = false;
}

void TcpConnection::pop_front() {
  queue_[head_] = Message{};  // release the callbacks' captures now
  if (++head_ == queue_.size()) {
    queue_.clear();
    head_ = 0;
  } else if (head_ >= 32 && 2 * head_ >= queue_.size()) {
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  if (send_cursor_ > 0) --send_cursor_;
}

std::vector<TcpConnection::ErrorCallback> TcpConnection::take_queue() {
  std::vector<ErrorCallback> to_fail;
  to_fail.reserve(queue_.size() - head_);
  for (std::size_t i = head_; i < queue_.size(); ++i) {
    if (queue_[i].on_error) to_fail.push_back(std::move(queue_[i].on_error));
  }
  queue_.clear();
  head_ = 0;
  send_cursor_ = 0;
  return to_fail;
}

void TcpConnection::on_chunk_delivered(Bytes n) {
  bytes_delivered_ += n;
  MGFS_ASSERT(head_ < queue_.size() && queue_[head_].to_deliver >= n,
              "chunk delivery without matching message");
  Message& m = queue_[head_];
  m.to_deliver -= n;
  if (m.to_deliver == 0) {
    MGFS_ASSERT(m.to_send == 0, "message delivered before fully sent");
    Callback cb = std::move(m.on_complete);
    pop_front();
    ++messages_completed_;
    if (cb) cb();
  }
}

void TcpConnection::on_ack(Bytes n) {
  MGFS_ASSERT(inflight_ >= n, "ack for bytes not in flight");
  inflight_ -= n;
  if (cfg_.slow_start && cwnd_ < cfg_.window) {
    cwnd_ = std::min<Bytes>(cwnd_ + cfg_.chunk, cfg_.window);
  }
  pump();
}

void TcpConnection::on_path_failure() {
  broken_ = true;
  ++epoch_;  // ignore every in-flight continuation
  inflight_ = 0;
  cwnd_ = cfg_.slow_start ? cfg_.chunk : cfg_.window;
  for (auto& cb : take_queue()) cb();
}

void TcpConnection::reset() {
  ++epoch_;
  broken_ = false;
  inflight_ = 0;
  // Queued messages die with the old connection; their senders must
  // hear about it (deferred — reset is often called from inside another
  // message's completion path).
  for (auto& cb : take_queue()) net_.simulator().defer(std::move(cb));
  cwnd_ = cfg_.slow_start ? cfg_.chunk : cfg_.window;
}

}  // namespace mgfs::net
