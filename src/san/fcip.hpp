// FCIP: Fibre Channel frames encapsulated in IP packets — the Nishan
// 4000 "hardware assist" of the SC'02 demonstration (paper §2).
//
// An FcipTunnel bridges two SAN islands across the simulated WAN: every
// FC frame (2112-byte payload) gains FC + TCP/IP encapsulation overhead
// and rides the network path between the gateway nodes. A
// RemoteSanVolume then gives a show-floor host *block-level* access to
// a LUN whose spindles are in San Diego: SCSI transfers are pipelined
// with a deep command queue (SANergy-style), which is exactly why 80 ms
// of RTT did not cap throughput at window/RTT the way a single TCP
// socket would — the "surprisingly excellent performance" of the paper.
#pragma once

#include <cstdint>
#include <deque>

#include "net/network.hpp"
#include "storage/array.hpp"

namespace mgfs::san {

struct FcipConfig {
  Bytes frame_payload = 2112;   // FC max data field
  Bytes encap_overhead = 114;   // FC header 36 + TCP/IP/FCIP ~78 per frame
  Bytes command_frame = 64;     // SCSI command / status frame payload
};

class FcipTunnel {
 public:
  /// Bridges gateway nodes `a` (storage side) and `b` (remote side); the
  /// WAN path between them is whatever the network routes.
  FcipTunnel(net::Network& net, net::NodeId a, net::NodeId b,
             FcipConfig cfg = {});

  /// Carry `payload` bytes of FC traffic from one side to the other.
  void transmit(bool from_a, Bytes payload, sim::Callback delivered,
                sim::Callback on_fail = nullptr);

  /// Wire bytes for a payload after per-frame encapsulation.
  Bytes wire_bytes(Bytes payload) const;

  std::uint64_t frames_sent() const { return frames_; }
  const FcipConfig& config() const { return cfg_; }

 private:
  net::Network& net_;
  net::NodeId a_, b_;
  FcipConfig cfg_;
  std::uint64_t frames_ = 0;
};

struct RemoteSanConfig {
  Bytes scsi_transfer = 1 * MiB;  // per-command transfer length
  std::size_t queue_depth = 64;   // outstanding commands (SANergy-deep)
};

/// Block-level access from the tunnel's B side to a LUN on the A side.
class RemoteSanVolume final : public storage::BlockDevice {
 public:
  using Config = RemoteSanConfig;

  RemoteSanVolume(FcipTunnel& tunnel, storage::BlockDevice& lun,
                  Config cfg = {});

  Bytes capacity() const override { return lun_.capacity(); }

  /// Block I/O as seen by the remote host. Requests are split into
  /// SCSI-transfer-sized commands pipelined up to queue_depth deep.
  void io(Bytes offset, Bytes len, bool write,
          storage::IoCallback done) override;

  std::size_t outstanding() const { return outstanding_; }
  const Config& config() const { return cfg_; }

 private:
  struct Command {
    Bytes offset;
    Bytes len;
    bool write;
    std::shared_ptr<std::pair<std::size_t, storage::IoCallback>> request;
  };

  void pump();
  void issue(Command cmd);

  FcipTunnel& tunnel_;
  storage::BlockDevice& lun_;
  Config cfg_;
  std::deque<Command> pending_;
  std::size_t outstanding_ = 0;
};

}  // namespace mgfs::san
