// Network Shared Disks and their servers.
//
// An Nsd names one block device plus the nodes that serve it: a primary
// NSD server and an optional backup (GPFS semantics — clients fail over
// to the backup when the primary node dies; bench/tab and tests inject
// exactly that). The 2005 production system of §5 is 64 dual-IA64 NSD
// servers, each with a single GbE and a single FC HBA, fronting 32
// DS4100 trays.
//
// NsdServer is the service half: per-request CPU, optional cipher cost
// (cipherList=encrypt charges both endpoints), then the device I/O.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gpfs/token.hpp"
#include "net/network.hpp"
#include "sim/serial_resource.hpp"
#include "storage/block_device.hpp"

namespace mgfs::gpfs {

/// One device-contiguous piece of a vectored NSD request.
struct IoExtent {
  Bytes offset = 0;
  Bytes len = 0;
};

struct Nsd {
  std::uint32_t id = 0;
  std::string name;
  storage::BlockDevice* device = nullptr;
  net::NodeId primary{};
  net::NodeId backup{};
  bool has_backup = false;
  /// Failure domain for replica placement: NSDs sharing a site share
  /// fate (one machine room / one cluster of the multi-site DEISA
  /// configuration). Copies of a replicated block are spread across
  /// distinct sites; 0 everywhere = single-domain, no spreading
  /// constraint.
  std::uint32_t site = 0;
};

class NsdServer {
 public:
  NsdServer(sim::Simulator& sim, net::NodeId node, std::string name);

  net::NodeId node() const { return node_; }
  const std::string& name() const { return name_; }

  /// Serve one client request: a single request-processing CPU charge
  /// covers the whole run (that is the point of coalescing), per-byte
  /// cipher cost (0 for AUTHONLY sessions) scales with the total bytes,
  /// and each extent becomes one device transfer. Completes once, with
  /// the first error, after every extent finishes.
  void handle_vectored(storage::BlockDevice& dev,
                       std::vector<IoExtent> extents, bool write,
                       double cipher_s_per_byte, storage::IoCallback done);

  std::uint64_t requests_served() const { return requests_; }
  Bytes bytes_served() const { return bytes_; }
  /// The server's CPU — serial, so per-byte cipher work queues.
  sim::SerialResource& cpu() { return cpu_; }

  /// Two-epoch write fencing (DESIGN.md §6). The gate answers "may this
  /// client, presenting this lease epoch under this manager epoch,
  /// write to this inode?"; the cluster wires it to the file-system
  /// manager's membership view. The inode routes the check to the
  /// metadata shard that owns it — the manager epoch is per shard, and
  /// only the owning shard's takeover may gate the write. Three
  /// outcomes:
  ///   admit — both epochs current, write proceeds;
  ///   retry — a manager takeover is rebuilding state; the write is
  ///           refused retryably (pause-and-redrive, not fail);
  ///   fence — the lease or manager epoch is dead: non-retryable stale.
  /// No gate = admit all (standalone NSD tests).
  enum class GateDecision { admit, retry, fence };
  using WriteGate =
      std::function<GateDecision(ClientId, InodeNum ino,
                                 std::uint64_t lease_epoch,
                                 std::uint64_t mgr_epoch)>;
  void set_write_gate(WriteGate gate) { write_gate_ = std::move(gate); }
  /// Consult the gate; counts fenced rejections. Data-path callers must
  /// check this before charging device work for a write.
  GateDecision write_admitted(ClientId client, InodeNum ino,
                              std::uint64_t lease_epoch,
                              std::uint64_t mgr_epoch);
  std::uint64_t fenced_writes() const { return fenced_; }

  /// Fail-slow injection (fault engine): multiply all request CPU by
  /// `factor`. 1.0 is healthy; the gray-failure literature's fail-slow
  /// NSD is 10-100x. Never zero — requests still complete, just late.
  void set_slow_factor(double factor);
  double slow_factor() const { return slow_factor_; }

 private:
  sim::Simulator& sim_;
  net::NodeId node_;
  std::string name_;
  double slow_factor_ = 1.0;
  sim::SerialResource cpu_;
  WriteGate write_gate_;
  std::uint64_t requests_ = 0;
  Bytes bytes_ = 0;
  std::uint64_t fenced_ = 0;
};

}  // namespace mgfs::gpfs
