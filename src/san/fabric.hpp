// Zoned Fibre Channel fabric — the Brocade switches of every
// demonstration in the paper (SC'02's WAN-SAN, the SC'04 booth with
// "3 Brocade switches", the production machine room of Fig. 10).
//
// Model: initiators (host HBAs) and targets (array LUNs) attach to
// switch ports; each port serializes at FC payload rate. Zoning is the
// SAN's access control: an initiator may address only targets it shares
// a zone with — the block-level analogue of the file-level grants in
// §6. I/O crosses initiator port -> (non-blocking crossbar) -> target
// port -> device.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "sim/pipe.hpp"
#include "storage/block_device.hpp"

namespace mgfs::san {

struct PortId {
  std::uint32_t v = 0;
  friend bool operator==(PortId, PortId) = default;
  friend auto operator<=>(PortId, PortId) = default;
};

class FcSwitch {
 public:
  FcSwitch(sim::Simulator& sim, BytesPerSec port_rate = 200e6,
           std::string name = "fcsw");

  /// Attach a host HBA (initiator). Returns its fabric port.
  PortId attach_initiator(const std::string& wwn);
  /// Attach a storage device (target).
  PortId attach_target(storage::BlockDevice* device, const std::string& wwn);

  /// Put an initiator and a target in a shared zone. I/O between
  /// unzoned ports is refused (not_authorized) — LUN masking at the
  /// fabric, exactly what kept show-floor tenants apart.
  Status zone(PortId initiator, PortId target);
  void unzone(PortId initiator, PortId target);
  bool zoned(PortId initiator, PortId target) const;

  /// Block I/O from an initiator to a target through the fabric.
  void io(PortId initiator, PortId target, Bytes offset, Bytes len,
          bool write, storage::IoCallback done);

  const std::string& wwn(PortId p) const;
  Bytes port_bytes(PortId p) const;

 private:
  struct Port {
    std::string wwn;
    bool is_target = false;
    storage::BlockDevice* device = nullptr;  // targets only
    std::unique_ptr<sim::Pipe> pipe;
  };

  Port& port(PortId p);
  const Port& port(PortId p) const;

  sim::Simulator& sim_;
  BytesPerSec port_rate_;
  std::string name_;
  std::vector<Port> ports_;
  std::set<std::pair<std::uint32_t, std::uint32_t>> zones_;
};

}  // namespace mgfs::san
