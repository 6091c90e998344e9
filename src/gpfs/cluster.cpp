#include "gpfs/cluster.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <utility>

#include "common/fanin.hpp"
#include "common/log.hpp"

namespace mgfs::gpfs {
namespace {

/// Process-wide client id source: ids must be unique across clusters
/// because remote clients appear in the exporting cluster's token
/// manager next to local ones.
ClientId g_next_client_id = 1;

/// Handshake phase-1 payload: the server's challenge to us plus the
/// server's proof over our counter-challenge (mutual authentication).
struct Phase1 {
  auth::Challenge server_challenge;
  std::uint64_t server_proof = 0;
};

/// Handshake phase-2 payload: what a successful mount needs to bind.
struct MountGrant {
  FileSystem* fs = nullptr;
  AccessMode access = AccessMode::none;
  double cipher_s_per_byte = 0.0;
  std::uint64_t epoch = 0;  // disk-lease epoch of the registration
};

}  // namespace

Cluster::Cluster(sim::Simulator& sim, net::Network& net, ClusterConfig cfg,
                 Rng rng)
    : sim_(sim),
      net_(net),
      cfg_(std::move(cfg)),
      rng_(rng),
      key_(auth::KeyPair::generate(rng_)),
      trust_(),
      handshake_server_(cfg_.name, key_, &trust_, cfg_.cipher, rng_.split()),
      pool_(net, cfg_.tcp),
      rpc_(pool_) {}

ClientId Cluster::next_client_id() { return g_next_client_id++; }

void Cluster::add_node(net::NodeId node) {
  MGFS_ASSERT(!has_node(node), "node already in cluster");
  nodes_.push_back(node);
}

bool Cluster::has_node(net::NodeId node) const {
  for (net::NodeId n : nodes_) {
    if (n == node) return true;
  }
  return false;
}

NsdServer& Cluster::add_nsd_server(net::NodeId node) {
  MGFS_ASSERT(has_node(node), "NSD server must run on a member node");
  auto it = servers_.find(node.v);
  if (it == servers_.end()) {
    it = servers_
             .emplace(node.v, std::make_unique<NsdServer>(
                                  sim_, node,
                                  cfg_.name + ".nsd" +
                                      std::to_string(servers_.size())))
             .first;
    // Two-epoch fence: a write is only admitted if the sending client's
    // lease epoch is still the current grant on its file system AND the
    // manager epoch it believes in is the current incarnation. After an
    // expel the MountRecord is gone, so fall back to whichever file
    // system still remembers the client in its lease map.
    it->second->set_write_gate(
        [this](ClientId c, InodeNum ino, std::uint64_t e, std::uint64_t me) {
          auto rit = registry_.find(c);
          if (rit != registry_.end() && rit->second.fs != nullptr) {
            return rit->second.fs->write_gate(c, ino, e, me);
          }
          for (auto& [name, fs] : filesystems_) {
            if (fs->lease().known(c)) return fs->write_gate(c, ino, e, me);
          }
          return NsdServer::GateDecision::fence;
        });
  }
  return *it->second;
}

NsdServer* Cluster::server_on(net::NodeId node) {
  if (!net_.node_up(node)) return nullptr;
  auto it = servers_.find(node.v);
  return it == servers_.end() ? nullptr : it->second.get();
}

std::uint32_t Cluster::create_nsd(const std::string& name,
                                  storage::BlockDevice* device,
                                  net::NodeId primary,
                                  std::optional<net::NodeId> backup,
                                  std::uint32_t site) {
  MGFS_ASSERT(device != nullptr, "mmcrnsd on null device");
  MGFS_ASSERT(servers_.count(primary.v) > 0,
              "primary NSD server not started on that node");
  Nsd n;
  n.id = static_cast<std::uint32_t>(nsd_table_.size());
  n.name = name;
  n.device = device;
  n.primary = primary;
  n.site = site;
  if (backup.has_value()) {
    MGFS_ASSERT(servers_.count(backup->v) > 0,
                "backup NSD server not started on that node");
    n.backup = *backup;
    n.has_backup = true;
  }
  nsd_table_.push_back(n);
  return n.id;
}

FileSystem& Cluster::create_filesystem(
    const std::string& fsname, const std::vector<std::uint32_t>& nsd_ids,
    Bytes block_size, net::NodeId manager_node) {
  MGFS_ASSERT(filesystems_.count(fsname) == 0, "file system exists");
  MGFS_ASSERT(has_node(manager_node), "manager must be a member node");
  std::vector<Nsd> nsds;
  nsds.reserve(nsd_ids.size());
  for (std::uint32_t id : nsd_ids) {
    MGFS_ASSERT(id < nsd_table_.size(), "unknown NSD id");
    Nsd n = nsd_table_[id];
    n.id = static_cast<std::uint32_t>(nsds.size());  // fs-local index
    nsds.push_back(n);
  }
  FsConfig fscfg;
  fscfg.name = fsname;
  fscfg.block_size = block_size;
  fscfg.lease_duration = cfg_.lease_duration;
  fscfg.lease_recovery_wait = cfg_.lease_recovery_wait;
  fscfg.meta_shards = cfg_.meta_shards;
  fscfg.meta_cpu_per_op = cfg_.meta_cpu_per_op;
  fscfg.auto_delegate_ops = cfg_.auto_delegate_ops;
  auto fs = std::make_unique<FileSystem>(sim_, fscfg, std::move(nsds),
                                         manager_node);
  FileSystem& ref = *fs;
  filesystems_.emplace(fsname, std::move(fs));
  wire_filesystem(ref);
  return ref;
}

FileSystem* Cluster::filesystem(const std::string& fsname) {
  auto it = filesystems_.find(fsname);
  return it == filesystems_.end() ? nullptr : it->second.get();
}

void Cluster::wire_filesystem(FileSystem& fs) {
  fs.set_access_fn([this](ClientId id) { return access_of_client(id); });
  fs.set_expel_listener([this](ClientId id) { registry_.erase(id); });
  fs.set_revoker([this, &fs](ClientId holder, InodeNum ino, TokenRange range,
                             FileSystem::RevokeAck ack) {
    auto it = registry_.find(holder);
    if (it == registry_.end()) {
      // Holder unmounted/expelled meanwhile; its tokens are moot.
      sim_.defer([ack = std::move(ack)] { ack(true); });
      return;
    }
    Client* c = it->second.client;
    auto shared_ack = std::make_shared<FileSystem::RevokeAck>(std::move(ack));
    // A healthy holder acks as soon as its flush completes; one that
    // stays mute for the whole recovery wait becomes a suspect and the
    // lease clock decides. A slow-but-alive holder that misses this
    // deadline renews its lease and gets the revoke re-delivered.
    // The deadline is capped by the holder's remaining expel clock: a
    // re-revoke to a suspect whose lease is nearly forfeit must not
    // wait the full window again (that would pay lease_recovery_wait
    // twice — once in the RPC, once in await_expel). A floor of a
    // quarter window keeps a real flush round trip possible.
    Rpc::CallOptions opts;
    const double rw = fs.config().lease_recovery_wait;
    const double remaining =
        fs.lease().known(holder)
            ? fs.lease().time_until_expel(holder, sim_.now())
            : rw;
    opts.deadline = std::max(0.25 * rw, std::min(remaining, rw));
    // The revoke is stamped with the *owning shard's* manager epoch at
    // send time, and travels from that shard's manager node: if a
    // takeover of the shard happens while it is in flight (or a deposed
    // manager's event loop resurrects and sends one late), the client
    // refuses it as stale instead of surrendering a token the successor
    // re-granted.
    const std::uint32_t shard = fs.shard_of(ino);
    const std::uint64_t sent_epoch = fs.manager_epoch(shard);
    rpc_.call<int>(
        fs.manager_node(shard), c->node(), 64,
        [c, ino, range, sent_epoch](Rpc::ReplyFn<int> reply) {
          if (!c->handle_revoke(ino, range, sent_epoch,
                                [reply] { reply(64, 0); })) {
            reply(64, err(Errc::stale, "revoke from deposed manager"));
          }
        },
        [shared_ack](Result<int> r) { (*shared_ack)(r.ok()); }, opts);
  });
  // Early expel quorum: probe a suspect over two independent paths —
  // the manager's own link plus a second live client acting as witness
  // — and answer dead only when BOTH fail, so a fault local to the
  // manager's link cannot fake a cluster-wide death. Short deadline:
  // the point is to confirm in a fraction of lease_recovery_wait.
  fs.set_prober([this, &fs](ClientId suspect,
                            std::function<void(bool)> done) {
    auto it = registry_.find(suspect);
    if (it == registry_.end() || it->second.client == nullptr) {
      // Unmounted/expelled meanwhile: nothing left to probe.
      sim_.defer([done = std::move(done)] { done(false); });
      return;
    }
    const net::NodeId target = it->second.client->node();
    // Witness: lowest-id other live client on this fs (determinism).
    Client* witness = nullptr;
    for (auto& [id, rec] : registry_) {
      if (rec.fs != &fs || id == suspect || rec.client == nullptr) continue;
      if (!net_.node_up(rec.client->node())) continue;
      if (witness == nullptr || id < witness->id()) witness = rec.client;
    }
    Rpc::CallOptions opts;
    opts.deadline = std::max(0.5 * fs.config().lease_recovery_wait, 1e-3);
    const int probes = witness != nullptr ? 2 : 1;
    auto state = std::make_shared<std::pair<int, bool>>(probes, false);
    auto shared_done =
        std::make_shared<std::function<void(bool)>>(std::move(done));
    auto probe_cb = [state, shared_done](Result<int> r) {
      if (r.ok()) state->second = true;
      if (--state->first == 0) (*shared_done)(state->second);
    };
    // The probe carries no state: reaching the suspect's daemon at all
    // is the proof of life (its lease renewal then clears suspicion).
    auto serve = [](Rpc::ReplyFn<int> reply) { reply(64, 0); };
    rpc_.call<int>(fs.manager_node(0), target, 64, serve, probe_cb, opts);
    if (witness != nullptr) {
      rpc_.call<int>(witness->node(), target, 64, serve, probe_cb, opts);
    }
  });
}

AccessMode Cluster::access_of_client(ClientId id) const {
  auto it = registry_.find(id);
  return it == registry_.end() ? AccessMode::none : it->second.access;
}

Client::ServerLookup Cluster::make_server_lookup() {
  return [this](net::NodeId node) { return server_on(node); };
}

std::uint64_t Cluster::register_client(FileSystem& fs, Client* client,
                                       AccessMode access,
                                       const std::string& via_cluster) {
  registry_[client->id()] = MountRecord{client, access, via_cluster, &fs};
  return fs.op_client_register(client->id());
}

std::uint64_t Cluster::readmit(FileSystem& fs, Client* client,
                               AccessMode access,
                               const std::string& via_cluster) {
  if (registry_.count(client->id()) == 0) {
    registry_[client->id()] =
        MountRecord{client, access, via_cluster, &fs};
  }
  return fs.op_client_register(client->id());
}

void Cluster::start_session(Cluster* exporter, FileSystem* fs, Client* c,
                            AccessMode access, std::uint64_t epoch,
                            std::string via_cluster) {
  Session& s = c->session();
  s.set_lease(epoch, fs->config().lease_duration, sim_.now());
  s.set_watch([exporter, fs, id = c->id()](std::uint32_t shard) {
    exporter->note_manager_unreachable(fs, shard, id);
  });
  s.set_rejoin([this, exporter, fs, c, access,
                via = std::move(via_cluster)](
                   std::function<void(Result<std::uint64_t>)> done) {
    Rpc::CallOptions opts;
    opts.deadline = cfg_.client.rpc_deadline;
    rpc_.call<std::uint64_t>(
        c->node(), fs->manager_node(0), 128,
        [exporter, fs, c, access, via](Rpc::ReplyFn<std::uint64_t> reply) {
          if (fs->shard_recovering(0)) {
            // Readmission against a half-built lease table would hand
            // out an epoch the rebuild is about to overwrite. Only the
            // lease home (shard 0) gates rejoin — a data shard's
            // takeover does not touch the lease plane.
            reply(64, err(Errc::unavailable, "manager takeover in progress"));
            return;
          }
          reply(64, exporter->readmit(*fs, c, access, via));
        },
        std::move(done), opts);
  });
}

Result<Client*> Cluster::mount(const std::string& fsname,
                               net::NodeId client_node) {
  if (!has_node(client_node)) {
    return err(Errc::invalid_argument, "node not in cluster");
  }
  FileSystem* fs = filesystem(fsname);
  if (fs == nullptr) return err(Errc::not_found, "no such file system");
  auto client = std::make_unique<Client>(rpc_, client_node, next_client_id(),
                                         cfg_.client, rng_.split());
  Client* ptr = client.get();
  clients_.push_back(std::move(client));
  const std::uint64_t epoch =
      register_client(*fs, ptr, AccessMode::read_write, "");
  ptr->bind(fs, AccessMode::read_write, 0.0, make_server_lookup());
  start_session(this, fs, ptr, AccessMode::read_write, epoch, "");
  return ptr;
}

void Cluster::on_node_restart(net::NodeId node) {
  for (auto& c : clients_) {
    if (!(c->node() == node) || !c->mounted()) continue;
    auto owner = remote_owner_.find(c.get());
    Cluster* exporter = owner == remote_owner_.end() ? this : owner->second;
    exporter->restart_incarnation(c.get());
  }
}

void Cluster::restart_incarnation(Client* c) {
  auto it = registry_.find(c->id());
  if (it == registry_.end()) {
    // Already expelled (its lease lapsed during the outage, so the
    // MountRecord is gone). The restarted daemon still lost its
    // memory; it rejoins lazily on its next I/O via the rejoin path.
    c->crash_reset();
    return;
  }
  MountRecord rec = it->second;
  MGFS_ASSERT(rec.fs != nullptr, "mount record without file system");
  // The dead incarnation's metadata journal must be replayed and its
  // tokens reclaimed before the node rejoins under a fresh epoch.
  rec.fs->expel_client(c->id(), "node restart");
  registry_.erase(c->id());
  c->crash_reset();
  registry_[c->id()] = rec;
  const std::uint64_t epoch = rec.fs->op_client_register(c->id());
  c->session().set_lease(epoch, rec.fs->config().lease_duration, sim_.now());
}

void Cluster::unmount(Client* client) {
  MGFS_ASSERT(client != nullptr, "unmount null client");
  auto owner = remote_owner_.find(client);
  if (owner != remote_owner_.end()) {
    owner->second->deregister_client(client->id());
    remote_owner_.erase(owner);
  } else {
    deregister_client(client->id());
  }
  client->unbind();
}

void Cluster::unmount_flush(Client* client, sim::Callback done) {
  MGFS_ASSERT(client != nullptr, "unmount null client");
  client->flush_all([this, client, done = std::move(done)] {
    unmount(client);
    done();
  });
}

void Cluster::deregister_client(ClientId id) {
  auto it = registry_.find(id);
  if (it == registry_.end()) return;
  if (it->second.fs != nullptr) it->second.fs->op_client_gone(id);
  registry_.erase(it);
}

std::string Cluster::mmlscluster() const {
  std::ostringstream os;
  os << "GPFS cluster information\n"
     << "  cluster name: " << cfg_.name << "\n"
     << "  cipherList:   " << auth::cipher_name(cfg_.cipher) << "\n"
     << "  key digest:   " << key_.pub.fingerprint().substr(0, 16) << "...\n"
     << "  nodes:        " << nodes_.size() << "\n";
  for (net::NodeId n : nodes_) {
    os << "    " << std::left << std::setw(20) << net_.node_name(n)
       << (servers_.count(n.v) ? " nsd-server" : "")
       << (net_.node_up(n) ? "" : " DOWN") << "\n";
  }
  return os.str();
}

std::string Cluster::mmlsfs(const std::string& fsname) const {
  auto it = filesystems_.find(fsname);
  if (it == filesystems_.end()) return "mmlsfs: no such file system\n";
  const FileSystem& fs = *it->second;
  std::ostringstream os;
  os << "flag value        description\n"
     << " -B  " << std::left << std::setw(12) << fs.block_size()
     << " Block size (bytes)\n"
     << " -d  " << std::setw(12) << fs.nsd_count() << " Number of NSDs\n"
     << " -T  " << std::setw(12) << ("/" + fsname) << " Default mount point\n"
     << "     " << std::setw(12) << fs.capacity() / 1e9 << " Capacity (GB)\n"
     << "     " << std::setw(12) << fs.free_bytes() / 1e9 << " Free (GB)\n";
  return os.str();
}

std::string Cluster::mmdf(const std::string& fsname) const {
  auto it = filesystems_.find(fsname);
  if (it == filesystems_.end()) return "mmdf: no such file system\n";
  const FileSystem& fs = *it->second;
  std::ostringstream os;
  os << "disk        size(GB)   free(GB)  free%\n";
  const AllocationMap& alloc = const_cast<FileSystem&>(fs).alloc();
  for (std::uint32_t i = 0; i < fs.nsd_count(); ++i) {
    const double cap = static_cast<double>(alloc.capacity_blocks(i)) *
                       fs.block_size() / 1e9;
    const double free = static_cast<double>(alloc.free_blocks(i)) *
                        fs.block_size() / 1e9;
    os << std::left << std::setw(10) << fs.nsd(i).name << std::right
       << std::setw(10) << std::fixed << std::setprecision(1) << cap
       << std::setw(11) << free << std::setw(6)
       << (cap > 0 ? 100.0 * free / cap : 0.0) << "\n";
  }
  os << "            ---------  ---------\n"
     << "(total)   " << std::setw(10) << fs.capacity() / 1e9 << std::setw(11)
     << fs.free_bytes() / 1e9 << "\n";
  return os.str();
}

std::string Cluster::mmlsdisk(const std::string& fsname) const {
  auto it = filesystems_.find(fsname);
  if (it == filesystems_.end()) return "mmlsdisk: no such file system\n";
  const FileSystem& fs = *it->second;
  std::ostringstream os;
  os << "disk        primary              backup               "
        "availability\n";
  for (std::uint32_t i = 0; i < fs.nsd_count(); ++i) {
    const Nsd& n = fs.nsd(i);
    const bool up = net_.node_up(n.primary) ||
                    (n.has_backup && net_.node_up(n.backup));
    os << std::left << std::setw(12) << n.name << std::setw(21)
       << net_.node_name(n.primary) << std::setw(21)
       << (n.has_backup ? net_.node_name(n.backup) : std::string("-"))
       << (up ? "up" : "down") << "\n";
  }
  return os.str();
}

std::string Cluster::mmauth_show() const {
  std::ostringstream os;
  os << "Cluster name:  " << cfg_.name << " (this cluster)\n"
     << "Cipher list:   " << auth::cipher_name(cfg_.cipher) << "\n";
  for (const std::string& c : trust_.cluster_names()) {
    os << "Cluster name:  " << c << "\n";
    for (const auto& [fs, mode] : trust_.grants_of(c)) {
      os << "  File system: " << fs << " (" << auth::access_name(mode)
         << ")\n";
    }
  }
  return os.str();
}

void Cluster::mmauth_add(const std::string& remote_cluster,
                         const auth::PublicKey& key) {
  trust_.add_cluster(remote_cluster, key);
}

Status Cluster::mmauth_grant(const std::string& remote_cluster,
                             const std::string& fsname,
                             auth::AccessMode mode) {
  if (filesystem(fsname) == nullptr) {
    return Status(Errc::not_found, "no such file system: " + fsname);
  }
  return trust_.grant(remote_cluster, fsname, mode);
}

void Cluster::mmauth_deny(const std::string& remote_cluster,
                          const std::string& fsname) {
  trust_.revoke(remote_cluster, fsname);
}

Status Cluster::mmremotecluster_add(const std::string& remote_cluster,
                                    const auth::PublicKey& key,
                                    Cluster* handle,
                                    net::NodeId contact_node) {
  if (handle == nullptr) {
    return Status(Errc::invalid_argument, "null remote cluster handle");
  }
  remote_clusters_[remote_cluster] = RemoteClusterDef{key, handle,
                                                      contact_node};
  return Status{};
}

Status Cluster::mmremotefs_add(const std::string& local_device,
                               const std::string& remote_cluster,
                               const std::string& remote_fs) {
  if (remote_clusters_.count(remote_cluster) == 0) {
    return Status(Errc::not_found,
                  "mmremotecluster add " + remote_cluster + " first");
  }
  remote_fs_[local_device] = RemoteFsDef{remote_cluster, remote_fs};
  return Status{};
}

void Cluster::mount_remote(const std::string& local_device,
                           net::NodeId client_node,
                           std::function<void(Result<Client*>)> done) {
  if (!has_node(client_node)) {
    done(err(Errc::invalid_argument, "node not in cluster"));
    return;
  }
  auto fit = remote_fs_.find(local_device);
  if (fit == remote_fs_.end()) {
    done(err(Errc::not_found, "no mmremotefs entry for " + local_device));
    return;
  }
  auto cit = remote_clusters_.find(fit->second.remote_cluster);
  MGFS_ASSERT(cit != remote_clusters_.end(), "remote fs without cluster");
  const RemoteClusterDef def = cit->second;
  Cluster* exporter = def.handle;
  const std::string remote_fs_name = fit->second.remote_fs;
  const std::string my_name = cfg_.name;

  // Mutual challenge: we challenge the server, it challenges us.
  auto hc = std::make_shared<auth::HandshakeClient>(my_name, key_,
                                                    rng_.split());
  const auth::Challenge my_challenge = hc->challenge(exporter->name());

  rpc_.call<Phase1>(
      client_node, def.contact, 256,
      [exporter, my_name, my_challenge](Rpc::ReplyFn<Phase1> reply) {
        auto ch = exporter->handshake_server_.issue_challenge(my_name);
        if (!ch.ok()) {
          reply(64, ch.error());
          return;
        }
        Phase1 p1;
        p1.server_challenge = *ch;
        p1.server_proof = exporter->handshake_server_.prove(my_challenge);
        reply(256, p1);
      },
      [this, hc, my_challenge, def, exporter, remote_fs_name, my_name,
       client_node, done = std::move(done)](Result<Phase1> p1) mutable {
        if (!p1.ok()) {
          done(p1.error());
          return;
        }
        if (exporter->cipher() != auth::CipherList::none &&
            !hc->verify_server(my_challenge, p1->server_proof, def.key)) {
          done(err(Errc::not_authenticated,
                   "server cluster failed mutual authentication"));
          return;
        }
        const std::uint64_t sig = hc->respond(p1->server_challenge);

        // Phase 2: prove ourselves, get the mount grant, register.
        auto client = std::make_shared<std::unique_ptr<Client>>(
            std::make_unique<Client>(rpc_, client_node, next_client_id(),
                                     cfg_.client, rng_.split()));
        Client* cptr = client->get();
        rpc_.call<MountGrant>(
            client_node, def.contact, 256,
            [exporter, my_name, sig, remote_fs_name,
             cptr](Rpc::ReplyFn<MountGrant> reply) {
              auto ticket = exporter->handshake_server_.complete(my_name, sig);
              if (!ticket.ok()) {
                reply(64, ticket.error());
                return;
              }
              FileSystem* fs = exporter->filesystem(remote_fs_name);
              if (fs == nullptr) {
                reply(64, err(Errc::not_found, remote_fs_name));
                return;
              }
              AccessMode access = AccessMode::read_write;
              if (exporter->cipher() != auth::CipherList::none) {
                switch (exporter->trust().access(my_name, remote_fs_name)) {
                  case auth::AccessMode::none:
                    reply(64, err(Errc::not_authorized,
                                  remote_fs_name + " not granted to " +
                                      my_name));
                    return;
                  case auth::AccessMode::read_only:
                    access = AccessMode::read_only;
                    break;
                  case auth::AccessMode::read_write:
                    access = AccessMode::read_write;
                    break;
                }
              }
              MountGrant g;
              g.fs = fs;
              g.access = access;
              g.cipher_s_per_byte =
                  auth::cipher_cpu_s_per_byte(exporter->cipher());
              g.epoch = exporter->register_client(*fs, cptr, access, my_name);
              reply(256, g);
            },
            [this, client, cptr, exporter,
             done = std::move(done)](Result<MountGrant> g) mutable {
              if (!g.ok()) {
                done(g.error());
                return;
              }
              cptr->bind(g->fs, g->access, g->cipher_s_per_byte,
                         exporter->make_server_lookup());
              start_session(exporter, g->fs, cptr, g->access, g->epoch,
                            cfg_.name);
              clients_.push_back(std::move(*client));
              remote_owner_[cptr] = exporter;
              ++handshakes_;
              MGFS_INFO("multicluster",
                        cfg_.name << ": mounted " << g->fs->name()
                                  << " from " << exporter->name()
                                  << " (access "
                                  << (g->access == AccessMode::read_write
                                          ? "rw"
                                          : "ro")
                                  << ")");
              done(cptr);
            });
      });
}

// --------------------------------------------------------------------------
// manager failover
// --------------------------------------------------------------------------

void Cluster::note_manager_unreachable(FileSystem* fs, std::uint32_t shard,
                                       ClientId reporter) {
  if (fs == nullptr || fs->shard_recovering(shard)) return;
  const net::NodeId mgr = fs->manager_node(shard);
  if (!net_.node_up(mgr)) {
    // The network knows the node is dead — no need to accumulate
    // suspicion against a corpse.
    takeover_manager(*fs, shard);
    return;
  }
  // Manager node up but not answering (blackhole / gray failure):
  // reports accumulate, forgiven after a quiet lease period, and the
  // whole episode resets when the manager epoch changes (a strike
  // accuses an incarnation, not the office — stale grudges must not
  // carry over to the successor). The takeover fires on a floor of
  // three raw reports — below the clients' retry budget, so it lands
  // before their redrives exhaust — AND a quorum of *distinct*
  // accusers scaled to the population: min(3, clients on the fs).
  // Deduping accusers per (reporter, epoch) means one partitioned
  // client can flap and re-report forever yet only ever counts once,
  // so it cannot creep toward deposing a manager the others still
  // reach.
  MgrSuspicion& s = mgr_suspicion_[{fs, shard}];
  const double now = sim_.now();
  if (s.epoch != fs->manager_epoch(shard) ||
      (s.reports > 0 && now - s.last > fs->config().lease_duration)) {
    s.reports = 0;
    s.reporters.clear();
    s.epoch = fs->manager_epoch(shard);
  }
  ++s.reports;
  s.last = now;
  s.reporters.insert(reporter);
  std::size_t on_fs = 0;
  for (const auto& [id, rec] : registry_) {
    if (rec.fs == fs) ++on_fs;
  }
  const std::size_t quorum =
      std::min<std::size_t>(3, std::max<std::size_t>(on_fs, 1));
  if (s.reports >= 3 && s.reporters.size() >= quorum) {
    takeover_manager(*fs, shard);
  }
}

bool Cluster::takeover_manager(FileSystem& fs, std::uint32_t shard) {
  if (fs.shard_recovering(shard)) return true;  // already in flight
  const net::NodeId deposed = fs.manager_node(shard);
  // Deterministic election: lowest-id live member node, never the
  // deposed manager (it may be up-but-mute, which is why we are here).
  std::optional<net::NodeId> successor;
  for (net::NodeId n : nodes_) {
    if (n == deposed || !net_.node_up(n)) continue;
    if (!successor.has_value() || n.v < successor->v) successor = n;
  }
  if (!successor.has_value()) {
    // No live member to take the role. Clients keep redriving their
    // RPCs; the next report retries the election.
    return false;
  }
  mgr_suspicion_.erase({&fs, shard});
  MGFS_WARN("lease", cfg_.name << ": manager node " << deposed.v
                               << " of " << fs.name() << " shard " << shard
                               << " unreachable; node " << successor->v
                               << " taking over");
  fs.begin_takeover(*successor, shard);
  const std::uint64_t epoch = fs.manager_epoch(shard);

  // Rebuild: query every registered client for its lease epoch and
  // token holdings, in client-id order for determinism.
  std::vector<Client*> members;
  for (auto& [id, rec] : registry_) {
    if (rec.fs == &fs && rec.client != nullptr) members.push_back(rec.client);
  }
  std::sort(members.begin(), members.end(),
            [](Client* a, Client* b) { return a->id() < b->id(); });
  if (members.empty()) {
    fs.finish_takeover(shard);
    return true;
  }
  FileSystem* fsp = &fs;
  FanIn rebuilt(members.size(), [fsp, shard] { fsp->finish_takeover(shard); });
  for (Client* c : members) {
    // The rebuild RPC outlives any one client: an unmount (or remote
    // teardown) while it is in flight destroys the Client object, so
    // both callbacks work from the id/node captured at send time and
    // re-resolve the pointer through the registry at delivery.
    const ClientId id = c->id();
    const net::NodeId cnode = c->node();
    Rpc::CallOptions opts;
    // A client that stays mute for the whole recovery wait forfeits its
    // state — same clock the expel path uses.
    opts.deadline = fs.config().lease_recovery_wait;
    // One reassert_all RPC per client — the whole token + lease +
    // dirty-journal summary rides a single reply, so the rebuild is
    // O(clients), not O(grants). The counter is the gtest witness.
    fs.note_rebuild_rpc(shard);
    rpc_.call<ManagerAssertReply>(
        *successor, cnode, 128,
        [this, id, mgr = *successor, epoch,
         shard](Rpc::ReplyFn<ManagerAssertReply> reply) {
          auto it = registry_.find(id);
          if (it == registry_.end() || it->second.client == nullptr) {
            reply(64, err(Errc::unavailable, "client gone"));
            return;
          }
          auto r = it->second.client->assert_tokens(mgr, epoch, shard);
          const Bytes payload =
              64 + (r.ok() ? 16 * static_cast<Bytes>(r->tokens.size()) +
                                 8 * static_cast<Bytes>(r->dirty_inodes)
                           : 0);
          reply(payload, std::move(r));
        },
        [this, fsp, id, cnode, shard,
         rebuilt](Result<ManagerAssertReply> r) {
          if (r.ok()) {
            fsp->install_assertion(id, r->lease_epoch, r->tokens, shard);
          } else if (registry_.count(id) > 0) {
            fsp->note_rebuild_nonresponder(id, !net_.node_up(cnode), shard);
          }
          // A client that unmounted mid-rebuild needs no lease entry at
          // all; finish_takeover replays its journal tail if it left one.
          rebuilt();
        },
        opts);
  }
  return true;
}

void Cluster::set_shard_managers(FileSystem& fs,
                                 const std::vector<net::NodeId>& managers) {
  MGFS_ASSERT(managers.size() == fs.shard_count(),
              "one manager per metadata shard");
  for (std::uint32_t s = 0; s < managers.size(); ++s) {
    MGFS_ASSERT(has_node(managers[s]), "shard manager must be a member node");
    fs.set_shard_manager(s, managers[s]);
  }
  // Metanode picker: pin a hot inode's authority to the shard whose
  // manager shares the client's node (zero-hop metadata ops), else
  // spread deterministically by node id.
  fs.set_metanode_picker([this, fsp = &fs](ClientId c) -> std::uint32_t {
    auto it = registry_.find(c);
    if (it != registry_.end() && it->second.client != nullptr) {
      const net::NodeId n = it->second.client->node();
      for (std::uint32_t s = 0; s < fsp->shard_count(); ++s) {
        if (fsp->manager_node(s) == n) return s;
      }
      return n.v % fsp->shard_count();
    }
    return 0u;
  });
}

}  // namespace mgfs::gpfs
