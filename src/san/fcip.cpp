#include "san/fcip.hpp"

#include <utility>

namespace mgfs::san {

FcipTunnel::FcipTunnel(net::Network& net, net::NodeId a, net::NodeId b,
                       FcipConfig cfg)
    : net_(net), a_(a), b_(b), cfg_(cfg) {
  MGFS_ASSERT(cfg_.frame_payload > 0, "zero FC frame payload");
}

Bytes FcipTunnel::wire_bytes(Bytes payload) const {
  const Bytes frames = std::max<Bytes>(
      1, ceil_div(payload, cfg_.frame_payload));
  return payload + frames * cfg_.encap_overhead;
}

void FcipTunnel::transmit(bool from_a, Bytes payload, sim::Callback delivered,
                          sim::Callback on_fail) {
  frames_ += std::max<Bytes>(1, ceil_div(payload, cfg_.frame_payload));
  const net::NodeId src = from_a ? a_ : b_;
  const net::NodeId dst = from_a ? b_ : a_;
  net_.send(src, dst, wire_bytes(payload), std::move(delivered),
            std::move(on_fail));
}

namespace {

/// Shared completion state of one host-level request.
struct Request {
  std::size_t outstanding = 0;
  Status first_error;
  storage::IoCallback done;

  void finish_one(const Status& st) {
    if (!st.ok() && first_error.ok()) first_error = st;
    if (--outstanding == 0) done(first_error);
  }
};

}  // namespace

RemoteSanVolume::RemoteSanVolume(FcipTunnel& tunnel,
                                 storage::BlockDevice& lun, Config cfg)
    : tunnel_(tunnel), lun_(lun), cfg_(cfg) {
  MGFS_ASSERT(cfg_.scsi_transfer > 0 && cfg_.queue_depth > 0,
              "bad RemoteSanVolume config");
}

void RemoteSanVolume::io(Bytes offset, Bytes len, bool write,
                         storage::IoCallback done) {
  if (len == 0 || offset + len > lun_.capacity()) {
    // Match the local LUN's contract.
    tunnel_.transmit(false, 64, [done = std::move(done)] {
      done(Status(Errc::invalid_argument, "remote volume io out of range"));
    });
    return;
  }
  const std::size_t n_cmds =
      static_cast<std::size_t>(ceil_div(len, cfg_.scsi_transfer));
  auto req = std::make_shared<std::pair<std::size_t, storage::IoCallback>>(
      n_cmds, std::move(done));
  for (Bytes pos = offset; pos < offset + len; pos += cfg_.scsi_transfer) {
    const Bytes clen = std::min(cfg_.scsi_transfer, offset + len - pos);
    pending_.push_back(Command{pos, clen, write, req});
  }
  pump();
}

void RemoteSanVolume::pump() {
  while (outstanding_ < cfg_.queue_depth && !pending_.empty()) {
    Command cmd = std::move(pending_.front());
    pending_.pop_front();
    ++outstanding_;
    issue(std::move(cmd));
  }
}

void RemoteSanVolume::issue(Command cmd) {
  auto finish = [this, req = cmd.request](const Status& st) {
    --outstanding_;
    auto& [remaining, done] = *req;
    --remaining;
    // The first error completes the whole request; later command
    // completions find the callback already consumed.
    if (done && (!st.ok() || remaining == 0)) {
      auto cb = std::move(done);
      done = nullptr;
      cb(st);
    }
    pump();
  };

  const bool write = cmd.write;
  const Bytes off = cmd.offset;
  const Bytes len = cmd.len;
  auto on_tunnel_fail = [finish] {
    finish(Status(Errc::unavailable, "fcip tunnel path failed"));
  };

  if (write) {
    // Command + data travel remote -> storage, status returns.
    tunnel_.transmit(
        false, tunnel_.config().command_frame + len,
        [this, off, len, finish, on_tunnel_fail] {
          lun_.io(off, len, true, [this, finish,
                                   on_tunnel_fail](const Status& st) {
            if (!st.ok()) {
              finish(st);
              return;
            }
            tunnel_.transmit(true, tunnel_.config().command_frame,
                             [finish] { finish(Status{}); }, on_tunnel_fail);
          });
        },
        on_tunnel_fail);
  } else {
    // Command travels remote -> storage, data returns.
    tunnel_.transmit(
        false, tunnel_.config().command_frame,
        [this, off, len, finish, on_tunnel_fail] {
          lun_.io(off, len, false, [this, len, finish,
                                    on_tunnel_fail](const Status& st) {
            if (!st.ok()) {
              finish(st);
              return;
            }
            tunnel_.transmit(true, len, [finish] { finish(Status{}); },
                             on_tunnel_fail);
          });
        },
        on_tunnel_fail);
  }
}

}  // namespace mgfs::san
