#include "fault/injector.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/log.hpp"
#include "gpfs/cluster.hpp"

namespace mgfs::fault {

namespace {
/// Absolute schedule time -> relative delay; an `at` already in the
/// past fires immediately instead of asserting on a negative delay.
sim::Time delay_until(sim::Simulator& sim, sim::Time at) {
  return std::max(0.0, at - sim.now());
}
}  // namespace

FaultInjector::FaultInjector(net::Network& net, Rng rng)
    : net_(net), rng_(rng) {}

// --- scripted one-shots ------------------------------------------------

void FaultInjector::schedule_link_cut(sim::Time at, net::NodeId a,
                                      net::NodeId b, sim::Time duration) {
  net_.simulator().after(delay_until(net_.simulator(), at),
                         [this, a, b, duration] { cut_link_now(a, b, duration); });
}

void FaultInjector::schedule_node_crash(sim::Time at, net::NodeId n,
                                        sim::Time duration) {
  net_.simulator().after(delay_until(net_.simulator(), at),
                         [this, n, duration] { crash_node_now(n, duration); });
}

void FaultInjector::schedule_blackhole(sim::Time at, net::NodeId n,
                                       sim::Time duration) {
  sim::Simulator& sim = net_.simulator();
  sim.after(delay_until(sim, at), [this, n, duration] {
    ++blackholes_;
    MGFS_WARN("fault", "node " << n.v << " blackholed for " << duration
                               << "s");
    net_.set_node_blackholed(n, true);
    net_.simulator().after(duration, [this, n] {
      net_.set_node_blackholed(n, false);
      MGFS_INFO("fault", "node " << n.v << " un-blackholed");
    });
  });
}

void FaultInjector::schedule_fail_slow(sim::Time at, gpfs::NsdServer& srv,
                                       double factor, sim::Time duration) {
  sim::Simulator& sim = net_.simulator();
  gpfs::NsdServer* s = &srv;
  sim.after(delay_until(sim, at), [this, s, factor, duration] {
    ++fail_slows_;
    MGFS_WARN("fault", "NSD server " << s->name() << " fail-slow x" << factor
                                     << " for " << duration << "s");
    s->set_slow_factor(factor);
    net_.simulator().after(duration, [s] { s->set_slow_factor(1.0); });
  });
}

void FaultInjector::schedule_crash_manager(sim::Time at, gpfs::FileSystem& fs,
                                           sim::Time duration) {
  sim::Simulator& sim = net_.simulator();
  gpfs::FileSystem* fsp = &fs;
  sim.after(delay_until(sim, at), [this, fsp, duration] {
    // Resolve the manager node at fire time: an earlier takeover may
    // already have moved the role.
    const net::NodeId mgr = fsp->manager_node(0);
    ++manager_crashes_;
    MGFS_WARN("fault", "crashing manager node " << mgr.v << " of "
                                                << fsp->name() << " for "
                                                << duration << "s");
    crash_node_now(mgr, duration);
  });
}

void FaultInjector::schedule_site_outage(sim::Time at,
                                         std::vector<net::NodeId> site,
                                         sim::Time duration) {
  sim::Simulator& sim = net_.simulator();
  sim.after(delay_until(sim, at),
            [this, site = std::move(site), duration] {
    ++site_outages_;
    MGFS_WARN("fault", "site outage: " << site.size() << " nodes dark for "
                                       << duration << "s");
    for (const net::NodeId n : site) net_.set_node_blackholed(n, true);
    net_.simulator().after(duration, [this, site] {
      for (const net::NodeId n : site) net_.set_node_blackholed(n, false);
      MGFS_INFO("fault", "site outage healed (" << site.size() << " nodes)");
    });
  });
}

void FaultInjector::schedule_nsd_loss(sim::Time at, gpfs::FileSystem& fs,
                                      std::uint32_t nsd_id) {
  sim::Simulator& sim = net_.simulator();
  gpfs::FileSystem* fsp = &fs;
  sim.after(delay_until(sim, at), [this, fsp, nsd_id] {
    ++nsd_losses_;
    MGFS_WARN("fault", "NSD " << nsd_id << " of " << fsp->name()
                              << " lost permanently (media failure)");
    // Media gone: every read/write against the device fails immediately
    // with io_error (non-retryable — clients redirect to replicas).
    fsp->nsd(nsd_id).device->set_failed(true);
    // And the allocator stops placing new blocks (or replica copies)
    // there. No repair event follows: the operator runs evacuate_nsd.
    fsp->set_nsd_down(nsd_id, true);
  });
}

// --- fault bodies ------------------------------------------------------

void FaultInjector::cut_link_now(net::NodeId a, net::NodeId b,
                                 sim::Time duration) {
  ++link_cuts_;
  MGFS_WARN("fault", "link " << a.v << "<->" << b.v << " cut for " << duration
                             << "s");
  net_.set_link_up(a, b, false);
  net_.simulator().after(duration, [this, a, b] {
    net_.set_link_up(a, b, true);
    MGFS_INFO("fault", "link " << a.v << "<->" << b.v << " restored");
  });
}

void FaultInjector::crash_node_now(net::NodeId n, sim::Time duration) {
  ++node_crashes_;
  MGFS_WARN("fault", "node " << n.v << " crashed for " << duration << "s");
  net_.set_node_up(n, false);
  net_.simulator().after(duration, [this, n] {
    net_.set_node_up(n, true);
    // Restart semantics: the daemon comes back and re-dials, so pooled
    // connections that failed while it was down are usable again.
    if (pool_ != nullptr) pool_->reset_node(n);
    // The restarted daemon lost its volatile state: expel the dead
    // incarnation and re-admit it under a fresh lease epoch.
    if (cluster_ != nullptr) cluster_->on_node_restart(n);
    MGFS_INFO("fault", "node " << n.v << " restarted");
  });
}

// --- stochastic processes ----------------------------------------------

void FaultInjector::flap_link(net::NodeId a, net::NodeId b, sim::Time mttf,
                              sim::Time mttr, sim::Time start,
                              sim::Time until) {
  MGFS_ASSERT(mttf > 0.0 && mttr > 0.0, "MTTF/MTTR must be positive");
  net_.simulator().after(delay_until(net_.simulator(), start),
                         [this, a, b, mttf, mttr, until] {
                           flap_once(a, b, mttf, mttr, until);
                         });
}

void FaultInjector::flap_once(net::NodeId a, net::NodeId b, sim::Time mttf,
                              sim::Time mttr, sim::Time until) {
  const sim::Time ttf = rng_.exponential(mttf);
  const sim::Time outage = rng_.exponential(mttr);
  net_.simulator().after(ttf, [this, a, b, mttf, mttr, outage, until] {
    if (net_.simulator().now() > until) return;  // schedule expired
    cut_link_now(a, b, outage);
    // Next failure is drawn after this outage heals.
    net_.simulator().after(outage, [this, a, b, mttf, mttr, until] {
      flap_once(a, b, mttf, mttr, until);
    });
  });
}

void FaultInjector::churn_node(net::NodeId n, sim::Time mttf, sim::Time mttr,
                               sim::Time start, sim::Time until) {
  MGFS_ASSERT(mttf > 0.0 && mttr > 0.0, "MTTF/MTTR must be positive");
  net_.simulator().after(delay_until(net_.simulator(), start),
                         [this, n, mttf, mttr, until] {
                           churn_once(n, mttf, mttr, until);
                         });
}

void FaultInjector::churn_once(net::NodeId n, sim::Time mttf, sim::Time mttr,
                               sim::Time until) {
  const sim::Time ttf = rng_.exponential(mttf);
  const sim::Time outage = rng_.exponential(mttr);
  net_.simulator().after(ttf, [this, n, mttf, mttr, outage, until] {
    if (net_.simulator().now() > until) return;
    crash_node_now(n, outage);
    net_.simulator().after(outage, [this, n, mttf, mttr, until] {
      churn_once(n, mttf, mttr, until);
    });
  });
}

std::string FaultInjector::report() const {
  std::ostringstream os;
  os << "fault injector report\n"
     << "  link_cuts    " << link_cuts_ << "\n"
     << "  node_crashes " << node_crashes_ << "\n"
     << "  blackholes   " << blackholes_ << "\n"
     << "  fail_slows   " << fail_slows_ << "\n"
     << "  mgr_crashes  " << manager_crashes_ << "\n"
     << "  site_outages " << site_outages_ << "\n"
     << "  nsd_losses   " << nsd_losses_ << "\n";
  return os.str();
}

}  // namespace mgfs::fault
