// NsdBreaker: a client's per-NSD-server circuit breaker.
//
// kThreshold consecutive failures open a server's breaker; from then on
// I/O skips it except for one half-open probe every kProbe seconds. A
// probe that succeeds closes the breaker, one that fails pushes the next
// probe out. I/O thus prefers the healthy server of an NSD pair instead
// of re-probing a dead or blackholed one on every block.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/log.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace mgfs::gpfs {

class NsdBreaker {
 public:
  static constexpr int kThreshold = 3;      // consecutive failures to open
  static constexpr sim::Time kProbe = 1.0;  // half-open probe spacing

  /// May `n` be tried at `now`? (closed, or open with a probe due.)
  bool admit(net::NodeId n, sim::Time now) const {
    auto it = health_.find(n.v);
    return it == health_.end() || !it->second.open ||
           now >= it->second.next_probe;
  }
  /// A request is being sent to `n`. If its breaker is open this is the
  /// probe: push the next one out so concurrent I/O does not stampede a
  /// server believed dead. Spent here, as the request is sent, so a
  /// backup slot that is never used does not burn the probe window.
  void consume_probe(net::NodeId n, sim::Time now) {
    auto it = health_.find(n.v);
    if (it == health_.end() || !it->second.open) return;
    it->second.next_probe = now + kProbe;
    ++probes_;
  }
  void ok(net::NodeId n) {
    auto it = health_.find(n.v);
    if (it != health_.end()) it->second = Health{};
  }
  void fail(net::NodeId n, sim::Time now) {
    Health& h = health_[n.v];
    ++h.fails;
    if (!h.open && h.fails >= kThreshold) {
      h.open = true;
      ++opens_;
      MGFS_WARN("client", "circuit breaker open for NSD server node "
                              << n.v << " after " << h.fails
                              << " consecutive failures");
    }
    if (h.open) h.next_probe = now + kProbe;  // a failed probe waits too
  }
  /// An I/O left `n` out of its targets because its breaker is open.
  void note_skip() { ++skips_; }
  bool is_open(net::NodeId n) const {
    auto it = health_.find(n.v);
    return it != health_.end() && it->second.open;
  }
  /// Forget every server's history (node reboot); counters stay.
  void clear() { health_.clear(); }

  std::uint64_t opens() const { return opens_; }
  std::uint64_t skips() const { return skips_; }
  std::uint64_t probes() const { return probes_; }

 private:
  struct Health {
    int fails = 0;  // consecutive
    bool open = false;
    sim::Time next_probe = 0;  // earliest half-open trial while open
  };
  std::unordered_map<std::uint32_t, Health> health_;
  std::uint64_t opens_ = 0;
  std::uint64_t skips_ = 0;
  std::uint64_t probes_ = 0;
};

}  // namespace mgfs::gpfs
