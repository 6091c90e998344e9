// Cluster: a GPFS cluster and its administrative command surface.
//
// The public methods are named after the real GPFS 2.3 commands the
// paper discusses so the examples read like an SDSC runbook:
//
//   mmcrcluster      -> Cluster constructor
//   mmaddnode        -> add_node
//   mmcrnsd          -> create_nsd
//   mmcrfs           -> create_filesystem
//   mmmount          -> mount (local) / mount_remote (imported FS)
//   mmauth genkey    -> done at construction (each cluster owns a keypair)
//   mmauth add/grant -> mmauth_add / mmauth_grant / mmauth_deny
//   mmremotecluster  -> mmremotecluster_add
//   mmremotefs       -> mmremotefs_add
//
// Multi-cluster mounts run the §6.2 protocol end to end over the
// simulated WAN: mutual RSA challenge–response against the out-of-band
// exchanged public keys, per-filesystem ro/rw enforcement, and optional
// cipherList=encrypt per-byte costs on the data path.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "auth/trust.hpp"
#include "gpfs/client.hpp"
#include "gpfs/filesystem.hpp"

namespace mgfs::gpfs {

struct ClusterConfig {
  std::string name = "cluster0";
  auth::CipherList cipher = auth::CipherList::authonly;
  net::TcpConfig tcp{};          // connection pool config (window etc.)
  ClientConfig client{};         // defaults for mounted clients
  sim::Time nsd_cpu_per_request = 30e-6;
  /// Disk-lease membership knobs, copied into each FsConfig (tests and
  /// the chaos bench shrink them to provoke expels quickly).
  double lease_duration = 60.0;
  double lease_recovery_wait = 30.0;
  /// Metadata-plane sharding knobs, copied into each FsConfig. The
  /// defaults collapse to the historic single manager at zero per-op
  /// CPU; bench/shard_sweep raises all three.
  std::uint32_t meta_shards = 1;
  sim::Time meta_cpu_per_op = 0.0;
  std::uint32_t auto_delegate_ops = 0;
};

class Cluster {
 public:
  Cluster(sim::Simulator& sim, net::Network& net, ClusterConfig cfg,
          Rng rng);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const std::string& name() const { return cfg_.name; }
  const auth::PublicKey& public_key() const { return key_.pub; }
  auth::CipherList cipher() const { return cfg_.cipher; }
  sim::Simulator& simulator() { return sim_; }
  Rpc& rpc() { return rpc_; }
  ConnectionPool& connection_pool() { return pool_; }

  // --- membership / services --------------------------------------------
  void add_node(net::NodeId node);
  bool has_node(net::NodeId node) const;
  std::size_t node_count() const { return nodes_.size(); }

  /// Start NSD service on a member node.
  NsdServer& add_nsd_server(net::NodeId node);
  NsdServer* server_on(net::NodeId node);

  /// mmcrnsd: register a device as an NSD with its serving nodes.
  std::uint32_t create_nsd(const std::string& name,
                           storage::BlockDevice* device,
                           net::NodeId primary,
                           std::optional<net::NodeId> backup = std::nullopt,
                           std::uint32_t site = 0);

  /// mmcrfs: build a file system over the given NSDs.
  FileSystem& create_filesystem(const std::string& fsname,
                                const std::vector<std::uint32_t>& nsd_ids,
                                Bytes block_size, net::NodeId manager_node);
  FileSystem* filesystem(const std::string& fsname);

  /// Seat one manager node per metadata shard (mmchmgr per token
  /// domain) and install the metanode picker: a client's hot inode is
  /// delegated to the shard whose manager shares the client's node, or
  /// spread deterministically by node id otherwise. `managers` must
  /// have exactly fs.shard_count() entries, each a member node. Call
  /// before mounting traffic so clients seed the right per-shard views.
  void set_shard_managers(FileSystem& fs,
                          const std::vector<net::NodeId>& managers);

  // --- mounting ------------------------------------------------------------
  /// mmmount on a member node (local file system): synchronous, returns
  /// a bound client.
  Result<Client*> mount(const std::string& fsname, net::NodeId client_node);
  /// Immediate unmount: releases tokens and registration. Dirty pages
  /// that were never fsynced are dropped — use unmount_flush for the
  /// orderly mmumount behaviour.
  void unmount(Client* client);
  /// Flush all dirty data, then unmount.
  void unmount_flush(Client* client, sim::Callback done);

  // --- exporting side (mmauth) ----------------------------------------------
  auth::TrustStore& trust() { return trust_; }
  /// mmauth add: admit a remote cluster's public key.
  void mmauth_add(const std::string& remote_cluster,
                  const auth::PublicKey& key);
  /// mmauth grant: expose a file system ro or rw.
  Status mmauth_grant(const std::string& remote_cluster,
                      const std::string& fsname, auth::AccessMode mode);
  void mmauth_deny(const std::string& remote_cluster,
                   const std::string& fsname);

  // --- importing side (mmremotecluster / mmremotefs) -----------------------
  /// mmremotecluster add: define a server cluster by its out-of-band
  /// exchanged key, its in-process handle, and a contact node.
  Status mmremotecluster_add(const std::string& remote_cluster,
                             const auth::PublicKey& key, Cluster* handle,
                             net::NodeId contact_node);
  /// mmremotefs add: map a local device name to a remote file system.
  Status mmremotefs_add(const std::string& local_device,
                        const std::string& remote_cluster,
                        const std::string& remote_fs);

  /// Mount an imported file system on a member node. Runs the full
  /// handshake over the network; completes with a bound client or
  /// not_authorized / not_authenticated / read_only errors.
  void mount_remote(const std::string& local_device, net::NodeId client_node,
                    std::function<void(Result<Client*>)> done);

  /// Node restart notification (fault injector): every client that was
  /// mounted on `node` lost its memory — expel the dead incarnation
  /// (journal replay + token reclaim + MountRecord drop) and re-admit
  /// the client under a fresh lease epoch with cleared caches.
  void on_node_restart(net::NodeId node);

  // --- manager failover --------------------------------------------------
  /// Client `reporter`'s metadata RPC to `fs`'s manager failed
  /// retryably. If the manager node is down in the network a takeover
  /// starts at once; if it is up but mute (blackhole / gray failure)
  /// repeated reports accumulate suspicion and the takeover fires at
  /// three reports — but only once enough *distinct* clients (deduped
  /// per reporter and manager epoch; min(3, registered)) have accused,
  /// so a single partitioned client flapping cannot creep toward
  /// deposing a manager that everyone else still reaches.
  /// No-op while a takeover for that shard of `fs` is already in
  /// flight. Suspicion is tracked per (fs, shard): accusations against
  /// one token domain's manager never depose another's.
  void note_manager_unreachable(FileSystem* fs, std::uint32_t shard,
                                ClientId reporter);
  /// GPFS-style manager takeover of one shard: elect the lowest-id live
  /// member node (excluding the deposed shard manager), bump that
  /// shard's manager epoch, and rebuild its token table — plus the
  /// global lease table for shard 0 — by querying every registered
  /// client for its holdings in that domain. Non-responders with dead
  /// nodes are expelled (journal replayed) during the rebuild;
  /// mute-but-alive ones get an already-lapsed suspect lease. Returns
  /// false if no live successor exists (clients keep retrying until one
  /// appears).
  bool takeover_manager(FileSystem& fs, std::uint32_t shard);

  // --- introspection ---------------------------------------------------------
  std::uint64_t handshakes_completed() const { return handshakes_; }
  std::size_t mounted_clients() const { return registry_.size(); }
  AccessMode access_of_client(ClientId id) const;

  /// mmlscluster: membership, services and key fingerprint, one line per
  /// node, formatted like the command's output.
  std::string mmlscluster() const;
  /// mmlsfs <fs>: file-system attributes (block size, NSD count, ...).
  std::string mmlsfs(const std::string& fsname) const;
  /// mmdf <fs>: per-NSD capacity/free table plus totals.
  std::string mmdf(const std::string& fsname) const;
  /// mmlsdisk <fs>: NSD table with serving nodes and availability.
  std::string mmlsdisk(const std::string& fsname) const;
  /// mmauth show: the trust relationships this cluster exports.
  std::string mmauth_show() const;

 private:
  struct MountRecord {
    Client* client = nullptr;
    AccessMode access = AccessMode::none;
    std::string via_cluster;  // "" = local
    FileSystem* fs = nullptr;
  };
  struct RemoteClusterDef {
    auth::PublicKey key;
    Cluster* handle = nullptr;
    net::NodeId contact{};
  };
  struct RemoteFsDef {
    std::string remote_cluster;
    std::string remote_fs;
  };

  /// Exporting side: register a (possibly remote) client on `fs` with
  /// its granted access; returns the lease epoch of the registration.
  std::uint64_t register_client(FileSystem& fs, Client* client,
                                AccessMode access,
                                const std::string& via_cluster);
  void deregister_client(ClientId id);
  /// Exporting side: readmit a client whose lease lapsed — recreate the
  /// MountRecord if the expel dropped it, grant a fresh epoch.
  std::uint64_t readmit(FileSystem& fs, Client* client, AccessMode access,
                        const std::string& via_cluster);
  /// Start a mounted client's session under lease `epoch`: its rejoin
  /// is one RPC to the manager that runs readmit() on the exporting
  /// cluster, and its manager-unreachable reports go to the exporter,
  /// which owns the file system and the membership list.
  void start_session(Cluster* exporter, FileSystem* fs, Client* c,
                     AccessMode access, std::uint64_t epoch,
                     std::string via_cluster);
  /// Expel + readmit one client after its node restarted.
  void restart_incarnation(Client* c);
  Client::ServerLookup make_server_lookup();
  void wire_filesystem(FileSystem& fs);
  ClientId next_client_id();

  sim::Simulator& sim_;
  net::Network& net_;
  ClusterConfig cfg_;
  Rng rng_;
  auth::KeyPair key_;
  auth::TrustStore trust_;
  auth::HandshakeServer handshake_server_;
  ConnectionPool pool_;
  Rpc rpc_;

  std::vector<net::NodeId> nodes_;
  std::unordered_map<std::uint32_t, std::unique_ptr<NsdServer>> servers_;
  std::vector<Nsd> nsd_table_;
  std::unordered_map<std::string, std::unique_ptr<FileSystem>> filesystems_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::unordered_map<ClientId, MountRecord> registry_;
  std::unordered_map<std::string, RemoteClusterDef> remote_clusters_;
  std::unordered_map<std::string, RemoteFsDef> remote_fs_;
  std::unordered_map<Client*, Cluster*> remote_owner_;
  std::uint64_t handshakes_ = 0;

  /// Manager-unreachability suspicion, per (file system, shard).
  /// Reports decay when they stop (one quiet lease period forgives the
  /// history) and the whole episode resets when the shard's manager
  /// epoch changes — a strike accuses one incarnation, not the office.
  /// The reporter set is deduped per (reporter, epoch): a single
  /// flapping client can file unlimited reports but only ever counts as
  /// ONE accuser, so it can never creep toward deposing a manager the
  /// others still reach.
  struct MgrSuspicion {
    int reports = 0;  // raw reports this episode (floor of 3 to fire)
    double last = 0;
    std::uint64_t epoch = 0;  // manager incarnation being accused
    std::unordered_set<ClientId> reporters;  // distinct accusers
  };
  std::map<std::pair<FileSystem*, std::uint32_t>, MgrSuspicion>
      mgr_suspicion_;
};

}  // namespace mgfs::gpfs
