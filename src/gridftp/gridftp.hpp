// GridFTP-style bulk file movement — the baseline paradigm the paper
// argues Global File Systems supersede for supercomputing data (§1, §8).
//
// Modeled faithfully enough to be a fair baseline:
//   * control channel exchange before data flows
//   * parallel data streams (the -p knob), each an independent TCP
//     connection — this is how GridFTP fights the window/RTT cap
//   * partial gets (offset/length), since the protocol supports them —
//     the *paradigm* problem is that the workflow stages whole files
//   * disk <-> network double buffering on both ends
//
// The T-paradigm bench stages an NVO-scale dataset through this code
// and compares against direct GFS reads of just the bytes wanted.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "gridftp/filestore.hpp"
#include "net/tcp.hpp"

namespace mgfs::gridftp {

struct GridFtpConfig {
  std::size_t parallel_streams = 4;
  Bytes chunk = 4 * MiB;       // disk/network transfer unit
  Bytes control_bytes = 512;   // control-channel message size
  net::TcpConfig tcp{};        // per-stream transport (2005-era window)
};

struct TransferStats {
  Bytes bytes = 0;
  double seconds = 0;
  std::size_t streams = 0;
  double rate_MBps() const {
    return seconds > 0 ? static_cast<double>(bytes) / seconds / 1e6 : 0.0;
  }
};

/// One server endpoint: a node serving a FileStore.
class GridFtpServer {
 public:
  GridFtpServer(net::Network& net, net::NodeId node, FileStore& store)
      : net_(net), node_(node), store_(store) {}

  net::NodeId node() const { return node_; }
  FileStore& store() { return store_; }
  net::Network& network() { return net_; }

 private:
  net::Network& net_;
  net::NodeId node_;
  FileStore& store_;
};

class GridFtpClient {
 public:
  GridFtpClient(net::Network& net, net::NodeId node,
                GridFtpConfig cfg = {});

  net::NodeId node() const { return node_; }
  const GridFtpConfig& config() const { return cfg_; }

  using Done = std::function<void(Result<TransferStats>)>;

  /// Fetch a whole remote file into `local` under the same name
  /// (pass nullptr to discard, e.g. piping into a visualization).
  void get(GridFtpServer& server, const std::string& path, FileStore* local,
           Done done);

  /// Fetch `[offset, offset+len)` of the remote file; stored locally as
  /// `path` if `local` is given.
  void get_range(GridFtpServer& server, const std::string& path,
                 Bytes offset, Bytes len, FileStore* local, Done done);

  /// Third-party transfer: this client orchestrates, data flows
  /// directly server-to-server (classic GridFTP; how SDSC and PSC
  /// replicated each other's archives, §8).
  void transfer(GridFtpServer& src, GridFtpServer& dst,
                const std::string& path, Done done);

 private:
  struct Plan {
    // Source extent per stream: [offset, offset + len)
    struct Slice {
      GridFtpServer* server;
      Bytes src_offset;
      Bytes dst_offset;
      Bytes len;
    };
    std::vector<Slice> slices;
    Bytes total = 0;
  };

  /// Move every slice from its server to `sink_node`, landing in
  /// `sink_store` (if given) from `sink_base` on.
  void run_transfer(Plan plan, FileStore* sink_store, Bytes sink_base,
                    net::NodeId sink_node, Done done);

  net::Network& net_;
  net::NodeId node_;
  GridFtpConfig cfg_;
  // Pooled per-(remote,local) connections; a fresh vector per transfer
  // keeps streams independent like real GridFTP's data channels.
  std::vector<std::unique_ptr<net::TcpConnection>> live_conns_;
};

}  // namespace mgfs::gridftp
