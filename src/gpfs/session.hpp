// Session: a client's standing with the file system's managers — its
// disk lease and its believed manager of every metadata shard.
//
// The lease half is the client side of LeaseManager (lease.hpp): one
// renewal in flight at a time, due past half the lease; a lapse starts
// a new incarnation that must rejoin for a fresh epoch, and completions
// of an older incarnation are dropped. The view half follows takeovers:
// metadata RPCs of a shard go to its believed node, NSD writes and
// revoke checks carry its epoch, and an RPC stamped with an older epoch
// than the adopted one comes from a deposed manager and is refused
// (DESIGN.md §6). Plain bookkeeping: the RPCs are the client's.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.hpp"
#include "gpfs/filesystem.hpp"

namespace mgfs::gpfs {

class Session {
 public:
  /// One manager RPC that re-registers the client and completes with
  /// the fresh lease epoch (installed by the cluster glue).
  using RejoinFn =
      std::function<void(std::function<void(Result<std::uint64_t>)>)>;

  void set_lease(std::uint64_t epoch, double duration, double now) {
    epoch_ = epoch;
    duration_ = duration;
    renewed_at_ = now;
  }
  void set_rejoin(RejoinFn fn) { rejoin_ = std::move(fn); }
  const RejoinFn& rejoin() const { return rejoin_; }
  std::uint64_t lease_epoch() const { return epoch_; }
  std::uint64_t incarnation() const { return incarnation_; }

  /// Is a renewal due at `now`? Yes claims the one in-flight slot.
  bool begin_renewal(double now) {
    if (lapse_handling_ || renew_inflight_) return false;
    if (now - renewed_at_ < 0.5 * duration_) return false;
    return renew_inflight_ = true;
  }
  /// The renewal sent under incarnation `inc` answered (`ok` at `now`).
  /// A failure leaves the lease old, so the next read or write retries.
  void end_renewal(std::uint64_t inc, bool ok, double now) {
    if (inc != incarnation_) return;  // superseded by a lapse or reboot
    renew_inflight_ = false;
    if (ok) {
      ++renewals_;
      renewed_at_ = now;
    }
  }
  /// The lease is gone. False when a lapse is already being handled;
  /// else a new incarnation starts, which must rejoin.
  bool lapse() {
    if (lapse_handling_) return false;
    lapse_handling_ = true;
    renew_inflight_ = false;  // a renewal in flight is the old life's
    ++lapses_;
    ++incarnation_;
    return true;
  }
  /// Rejoined under `epoch`: readmission came from whoever holds the
  /// manager roles now, so every view follows `fs`.
  void rejoined(std::uint64_t epoch, double now, const FileSystem& fs) {
    lapse_handling_ = renew_inflight_ = false;
    set_lease(epoch, duration_, now);
    follow(fs, /*fresh=*/false);
  }
  /// No rejoin will run (unmounted, or none installed).
  void abandon_rejoin() { lapse_handling_ = false; }
  /// The node rebooted: a new incarnation, no lease until the cluster
  /// glue registers it again, and views re-read from `fs`.
  void reboot(const FileSystem* fs) {
    ++incarnation_;
    lapse_handling_ = renew_inflight_ = false;
    epoch_ = 0;
    if (fs != nullptr) follow(*fs, /*fresh=*/true);
  }

  /// Views from the cluster configuration, counting no takeover (bind).
  void seed(const FileSystem& fs) { follow(fs, /*fresh=*/true); }
  net::NodeId manager(std::uint32_t shard) const { return mgr_[shard].node; }
  std::uint64_t manager_epoch(std::uint32_t shard) const {
    return mgr_[shard].epoch;
  }
  /// Adopt `node` as `shard`'s manager; counts a takeover when `epoch`
  /// advances the view. An older epoch only moves the node.
  void adopt(std::uint32_t shard, net::NodeId node, std::uint64_t epoch) {
    MgrView& v = mgr_[shard];
    if (epoch > v.epoch) {
      v.epoch = epoch;
      ++takeovers_;
    }
    v.node = node;
  }
  /// Before a metadata retry: re-read `shard`'s manager from `fs`,
  /// counting a reroute when it is not `failed_target`.
  net::NodeId refresh(std::uint32_t shard, net::NodeId failed_target,
                      const FileSystem& fs) {
    const net::NodeId fresh = fs.manager_node(shard);
    if (!(fresh == failed_target)) ++reroutes_;
    adopt(shard, fresh, fs.manager_epoch(shard));
    return fresh;
  }
  /// May an RPC stamped with manager epoch `epoch` act on `shard`? An
  /// older epoch than the view's is refused, and counted.
  bool admits(std::uint32_t shard, std::uint64_t epoch) {
    if (epoch >= mgr_[shard].epoch) return true;
    ++stale_rejects_;
    return false;
  }
  /// `watch` hears of each shard whose manager an RPC found unreachable.
  void set_watch(std::function<void(std::uint32_t)> watch) {
    watch_ = std::move(watch);
  }
  void accuse(std::uint32_t shard) const {
    if (watch_) watch_(shard);
  }

  std::uint64_t renewals() const { return renewals_; }
  std::uint64_t lapses() const { return lapses_; }
  std::uint64_t takeovers() const { return takeovers_; }
  std::uint64_t reroutes() const { return reroutes_; }
  std::uint64_t stale_rejects() const { return stale_rejects_; }

 private:
  /// Every shard's view re-read from `fs`; `fresh` drops the old views
  /// first and counts no takeover.
  void follow(const FileSystem& fs, bool fresh) {
    if (fresh) mgr_.assign(fs.shard_count(), MgrView{});
    const std::uint64_t seen = takeovers_;
    for (std::uint32_t s = 0; s < fs.shard_count(); ++s) {
      adopt(s, fs.manager_node(s), fs.manager_epoch(s));
    }
    if (fresh) takeovers_ = seen;
  }

  std::uint64_t epoch_ = 0;
  double duration_ = 0;
  double renewed_at_ = 0;
  bool renew_inflight_ = false;
  bool lapse_handling_ = false;  // rejoin in progress
  std::uint64_t incarnation_ = 0;
  RejoinFn rejoin_;
  struct MgrView {
    net::NodeId node{};
    std::uint64_t epoch = 0;
  };
  std::vector<MgrView> mgr_;  // one per metadata shard
  std::function<void(std::uint32_t)> watch_;
  std::uint64_t renewals_ = 0;       // renewal RPCs acknowledged
  std::uint64_t lapses_ = 0;         // times the lease was lost
  std::uint64_t takeovers_ = 0;      // manager-epoch advances adopted
  std::uint64_t reroutes_ = 0;       // metadata RPCs re-targeted
  std::uint64_t stale_rejects_ = 0;  // deposed-manager RPCs refused
};

}  // namespace mgfs::gpfs
