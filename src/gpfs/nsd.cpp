#include "gpfs/nsd.hpp"

#include <utility>

#include "common/fanin.hpp"

namespace mgfs::gpfs {
namespace {

/// Request-processing CPU per served request.
constexpr sim::Time kCpuPerRequest = 30e-6;

}  // namespace

NsdServer::NsdServer(sim::Simulator& sim, net::NodeId node, std::string name)
    : sim_(sim), node_(node), name_(std::move(name)),
      cpu_(sim, name_ + ".cpu") {}

void NsdServer::set_slow_factor(double factor) {
  MGFS_ASSERT(factor > 0.0, "slow factor must be positive");
  slow_factor_ = factor;
}

NsdServer::GateDecision NsdServer::write_admitted(ClientId client,
                                                  InodeNum ino,
                                                  std::uint64_t lease_epoch,
                                                  std::uint64_t mgr_epoch) {
  if (!write_gate_) return GateDecision::admit;
  const GateDecision d = write_gate_(client, ino, lease_epoch, mgr_epoch);
  if (d == GateDecision::fence) ++fenced_;
  return d;
}

void NsdServer::handle_vectored(storage::BlockDevice& dev,
                                std::vector<IoExtent> extents, bool write,
                                double cipher_s_per_byte,
                                storage::IoCallback done) {
  MGFS_ASSERT(!extents.empty(), "vectored serve with no extents");
  if (dev.failed()) {
    // Dead media answers immediately: the controller knows the LUN is
    // gone without touching a spindle. io_error is non-retryable — the
    // client's recourse is another replica, not another attempt here.
    sim_.defer([done = std::move(done)] {
      done(Status(Errc::io_error, "NSD backing device failed"));
    });
    return;
  }
  Bytes total = 0;
  for (const IoExtent& e : extents) total += e.len;
  const sim::Time cpu =
      (kCpuPerRequest + cipher_s_per_byte * static_cast<double>(total)) *
      slow_factor_;
  cpu_.acquire(cpu, [this, &dev, extents = std::move(extents), write, total,
                     done = std::move(done)]() mutable {
    FanIn fan(extents.size(),
              [this, total, done = std::move(done)](const Status& st) {
                if (st.ok()) {
                  ++requests_;
                  bytes_ += total;
                }
                done(st);
              });
    for (const IoExtent& e : extents) dev.io(e.offset, e.len, write, fan);
  });
}

}  // namespace mgfs::gpfs
