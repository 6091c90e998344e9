#include "gridftp/gridftp.hpp"

#include <algorithm>

namespace mgfs::gridftp {

GridFtpClient::GridFtpClient(net::Network& net, net::NodeId node,
                             GridFtpConfig cfg)
    : net_(net), node_(node), cfg_(cfg) {
  MGFS_ASSERT(cfg_.parallel_streams > 0 && cfg_.chunk > 0,
              "bad gridftp config");
}

void GridFtpClient::get(GridFtpServer& server, const std::string& path,
                        FileStore* local, Done done) {
  auto ext = server.store().lookup(path);
  if (!ext.ok()) {
    done(ext.error());
    return;
  }
  get_range(server, path, 0, ext->size, local, std::move(done));
}

void GridFtpClient::get_range(GridFtpServer& server, const std::string& path,
                              Bytes offset, Bytes len, FileStore* local,
                              Done done) {
  auto ext = server.store().lookup(path);
  if (!ext.ok()) {
    done(ext.error());
    return;
  }
  if (offset + len > ext->size || len == 0) {
    done(err(Errc::invalid_argument, "bad range for " + path));
    return;
  }
  Bytes local_base = 0;
  if (local != nullptr) {
    auto lext = local->add(path, len);
    if (!lext.ok()) {
      done(lext.error());
      return;
    }
    local_base = lext->offset;
  }
  Plan plan;
  plan.total = len;
  const std::size_t streams = cfg_.parallel_streams;
  const Bytes per = len / streams;
  Bytes pos = 0;
  for (std::size_t s = 0; s < streams; ++s) {
    const Bytes slice_len = (s + 1 == streams) ? len - pos : per;
    if (slice_len == 0) continue;
    plan.slices.push_back(
        {&server, ext->offset + offset + pos, pos, slice_len});
    pos += slice_len;
  }
  run_transfer(std::move(plan), /*upload=*/false, local, local_base, node_,
               std::move(done));
}

void GridFtpClient::put(GridFtpServer& server, const std::string& path,
                        FileStore& local, Done done) {
  auto lext = local.lookup(path);
  if (!lext.ok()) {
    done(lext.error());
    return;
  }
  auto rext = server.store().add(path, lext->size);
  if (!rext.ok()) {
    done(rext.error());
    return;
  }
  Plan plan;
  plan.total = lext->size;
  const std::size_t streams = cfg_.parallel_streams;
  const Bytes per = lext->size / streams;
  Bytes pos = 0;
  for (std::size_t s = 0; s < streams; ++s) {
    const Bytes slice_len = (s + 1 == streams) ? lext->size - pos : per;
    if (slice_len == 0) continue;
    // For uploads src is the *local* extent, dst the remote extent.
    plan.slices.push_back(
        {&server, lext->offset + pos, rext->offset + pos, slice_len});
    pos += slice_len;
  }
  run_transfer(std::move(plan), /*upload=*/true, &local, 0, node_,
               std::move(done));
}

void GridFtpClient::get_striped(const std::vector<GridFtpServer*>& servers,
                                const std::string& path, FileStore* local,
                                Done done) {
  MGFS_ASSERT(!servers.empty(), "striped get with no servers");
  auto ext = servers.front()->store().lookup(path);
  if (!ext.ok()) {
    done(ext.error());
    return;
  }
  Bytes local_base = 0;
  if (local != nullptr) {
    auto lext = local->add(path, ext->size);
    if (!lext.ok()) {
      done(lext.error());
      return;
    }
    local_base = lext->offset;
  }
  // Partition the file contiguously across servers, then across each
  // server's streams.
  Plan plan;
  plan.total = ext->size;
  const std::size_t n = servers.size();
  const std::size_t streams_per =
      std::max<std::size_t>(1, cfg_.parallel_streams / n);
  const Bytes per_server = ext->size / n;
  Bytes pos = 0;
  for (std::size_t i = 0; i < n; ++i) {
    GridFtpServer* srv = servers[i];
    auto sext = srv->store().lookup(path);
    if (!sext.ok()) {
      done(err(Errc::not_found, "replica missing on a stripe server"));
      return;
    }
    const Bytes server_len =
        (i + 1 == n) ? ext->size - pos : per_server;
    const Bytes per_stream = server_len / streams_per;
    Bytes spos = 0;
    for (std::size_t s = 0; s < streams_per; ++s) {
      const Bytes slice_len =
          (s + 1 == streams_per) ? server_len - spos : per_stream;
      if (slice_len == 0) continue;
      plan.slices.push_back({srv, sext->offset + pos + spos, pos + spos,
                             slice_len});
      spos += slice_len;
    }
    pos += server_len;
  }
  run_transfer(std::move(plan), /*upload=*/false, local, local_base, node_,
               std::move(done));
}

void GridFtpClient::transfer(GridFtpServer& src, GridFtpServer& dst,
                             const std::string& path, Done done) {
  auto ext = src.store().lookup(path);
  if (!ext.ok()) {
    done(ext.error());
    return;
  }
  auto dext = dst.store().add(path, ext->size);
  if (!dext.ok()) {
    done(dext.error());
    return;
  }
  Plan plan;
  plan.total = ext->size;
  const std::size_t streams = cfg_.parallel_streams;
  const Bytes per = ext->size / streams;
  Bytes pos = 0;
  for (std::size_t s = 0; s < streams; ++s) {
    const Bytes slice_len = (s + 1 == streams) ? ext->size - pos : per;
    if (slice_len == 0) continue;
    plan.slices.push_back({&src, ext->offset + pos, pos, slice_len});
    pos += slice_len;
  }
  run_transfer(std::move(plan), /*upload=*/false, &dst.store(),
               dext->offset, dst.node(), std::move(done));
}

void GridFtpClient::run_transfer(Plan plan, bool upload,
                                 FileStore* sink_store, Bytes sink_base,
                                 net::NodeId sink_node, Done done) {
  struct Shared {
    sim::Simulator* sim = nullptr;
    double start = 0;
    Bytes total = 0;
    Bytes completed = 0;
    std::size_t live_slices = 0;
    bool failed = false;
    std::size_t streams = 0;
    Done done;
  };
  auto sh = std::make_shared<Shared>();
  sh->sim = &net_.simulator();
  sh->start = sh->sim->now();
  sh->total = plan.total;
  sh->live_slices = plan.slices.size();
  sh->streams = plan.slices.size();
  sh->done = std::move(done);

  auto fail_once = [sh](Errc code, const std::string& what) {
    if (sh->failed) return;
    sh->failed = true;
    sh->done(err(code, what));
  };

  // Control channel: one round trip to the (first) server.
  GridFtpServer* first = plan.slices.front().server;
  net_.send(
      node_, first->node(), cfg_.control_bytes,
      [this, plan = std::move(plan), upload, sink_store, sink_base, sh,
       sink_node, fail_once]() mutable {
        net_.send(plan.slices.front().server->node(), node_,
                  cfg_.control_bytes, [] {});  // 150/226 reply, fire-and-forget

        for (const Plan::Slice& sl : plan.slices) {
          const net::NodeId src =
              upload ? node_ : sl.server->node();
          const net::NodeId dst =
              upload ? sl.server->node() : sink_node;
          live_conns_.push_back(std::make_unique<net::TcpConnection>(
              net_, src, dst, cfg_.tcp));
          net::TcpConnection* conn = live_conns_.back().get();

          struct Stream {
            Bytes src_pos, dst_pos, remaining;
            std::size_t inflight = 0;
          };
          auto st = std::make_shared<Stream>();
          st->src_pos = sl.src_offset;
          st->dst_pos = upload ? sl.dst_offset : sink_base + sl.dst_offset;
          st->remaining = sl.len;

          storage::BlockDevice* src_dev =
              upload ? &sink_store->device() : &sl.server->store().device();
          storage::BlockDevice* dst_dev = nullptr;
          if (upload) {
            dst_dev = &sl.server->store().device();
          } else if (sink_store != nullptr) {
            dst_dev = &sink_store->device();
          }

          // Double-buffered pump: disk read -> tcp -> disk write. The
          // pump holds itself weakly and each chunk in flight holds it
          // strongly, so it lives exactly as long as the stream has work
          // outstanding.
          auto pump = std::make_shared<std::function<void()>>();
          *pump = [this, st, sh, conn, src_dev, dst_dev, fail_once,
                   weak = std::weak_ptr(pump)] {
            auto chunk_done = [sh, st, self = weak.lock()](Bytes n) {
              --st->inflight;
              sh->completed += n;
              if (!sh->failed && sh->completed == sh->total) {
                TransferStats stats;
                stats.bytes = sh->total;
                stats.seconds = sh->sim->now() - sh->start;
                stats.streams = sh->streams;
                sh->done(stats);
                return;
              }
              (*self)();
            };
            while (st->inflight < 2 && st->remaining > 0 && !sh->failed) {
              const Bytes c = std::min(cfg_.chunk, st->remaining);
              st->remaining -= c;
              const Bytes rpos = st->src_pos;
              const Bytes wpos = st->dst_pos;
              st->src_pos += c;
              st->dst_pos += c;
              ++st->inflight;
              src_dev->io(rpos, c, false, [conn, c, wpos, dst_dev,
                                           chunk_done,
                                           fail_once](const Status& s) {
                if (!s.ok()) {
                  fail_once(Errc::io_error, "source disk: " + s.to_string());
                  return;
                }
                conn->send(
                    c,
                    [c, wpos, dst_dev, chunk_done, fail_once] {
                      if (dst_dev == nullptr) {
                        chunk_done(c);
                        return;
                      }
                      dst_dev->io(wpos, c, true,
                                  [c, chunk_done,
                                   fail_once](const Status& s2) {
                                    if (!s2.ok()) {
                                      fail_once(Errc::io_error,
                                                "sink disk: " +
                                                    s2.to_string());
                                      return;
                                    }
                                    chunk_done(c);
                                  });
                    },
                    [fail_once] {
                      fail_once(Errc::unavailable, "data channel lost");
                    });
              });
            }
          };
          (*pump)();
        }
      },
      [fail_once] { fail_once(Errc::unavailable, "control channel lost"); });
}

}  // namespace mgfs::gridftp
