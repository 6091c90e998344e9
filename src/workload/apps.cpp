#include "workload/apps.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace mgfs::workload {
namespace {

std::string dump_name(const std::string& dir, std::size_t i) {
  char buf[32];  // "dump_" + up to 20 digits + NUL
  std::snprintf(buf, sizeof(buf), "dump_%04zu", i);
  return dir + "/" + buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// EnzoWriter
// ---------------------------------------------------------------------------

EnzoWriter::EnzoWriter(gpfs::Client* client, std::string dir,
                       gpfs::Principal who, EnzoConfig cfg)
    : client_(client), dir_(std::move(dir)), who_(std::move(who)),
      cfg_(cfg) {
  MGFS_ASSERT(client != nullptr, "enzo without client");
  MGFS_ASSERT(cfg_.dumps > 0 && cfg_.dump_bytes > 0, "bad enzo config");
}

void EnzoWriter::run(std::function<void(const Status&)> done) {
  done_ = std::move(done);
  client_->mkdir(dir_, who_, gpfs::Mode{077}, [this](Status st) {
    if (!st.ok() && st.code() != Errc::exists) {
      std::exchange(done_, nullptr)(st);
      return;
    }
    next_dump();
  });
}

void EnzoWriter::next_dump() {
  if (dump_ >= cfg_.dumps) {
    std::exchange(done_, nullptr)(Status{});
    return;
  }
  StreamConfig sc;
  sc.total = cfg_.dump_bytes;
  sc.rate_cap = cfg_.app_rate;
  sc.request = cfg_.request;
  sc.queue_depth = cfg_.queue_depth;
  current_ = std::make_unique<SequentialWriter>(
      client_, dump_name(dir_, dump_), who_, sc);
  current_->set_meter(meter_);
  current_->start([this](const Status& st) {
    if (!st.ok()) {
      std::exchange(done_, nullptr)(st);
      return;
    }
    bytes_ += cfg_.dump_bytes;
    ++dump_;
    client_->simulator().after(cfg_.compute_gap_s, [this] { next_dump(); });
  });
}

// ---------------------------------------------------------------------------
// SortApp
// ---------------------------------------------------------------------------

SortApp::SortApp(gpfs::Client* client, std::string input, std::string output,
                 gpfs::Principal who, SortConfig cfg)
    : client_(client), input_(std::move(input)), output_(std::move(output)),
      who_(std::move(who)), cfg_(cfg) {
  MGFS_ASSERT(client != nullptr, "sort without client");
  MGFS_ASSERT(cfg_.total > 0 && cfg_.phase > 0, "bad sort config");
}

void SortApp::finish(const Status& st) {
  if (failed_) return;
  failed_ = true;
  std::exchange(done_, nullptr)(st);
}

void SortApp::run(std::function<void(const Status&)> done) {
  done_ = std::move(done);
  client_->open(input_, who_, gpfs::OpenFlags::ro(),
                [this](Result<gpfs::Fh> in) {
    if (!in.ok()) {
      finish(Status(in.error()));
      return;
    }
    in_fh_ = *in;
    client_->open(output_, who_, gpfs::OpenFlags::create_rw(),
                  [this](Result<gpfs::Fh> out) {
      if (!out.ok()) {
        finish(Status(out.error()));
        return;
      }
      out_fh_ = *out;
      read_phase();
    });
  });
}

void SortApp::read_phase() {
  if (failed_) return;
  if (read_done_ >= cfg_.total) {
    // All input consumed; drain remaining writes then finish.
    write_phase();
    return;
  }
  const Bytes phase_len = std::min(cfg_.phase, cfg_.total - read_done_);
  if (phase_moved_ >= phase_len && inflight_ == 0) {
    phase_moved_ = 0;
    read_done_ += phase_len;
    write_phase();
    return;
  }
  while (inflight_ < cfg_.queue_depth && phase_moved_ < phase_len) {
    const Bytes n = std::min(cfg_.request, phase_len - phase_moved_);
    const Bytes off = read_done_ + phase_moved_;
    phase_moved_ += n;
    ++inflight_;
    client_->read(in_fh_, off, n, [this, n](Result<Bytes> r) {
      --inflight_;
      if (!r.ok()) {
        finish(Status(r.error()));
        return;
      }
      if (read_meter_ != nullptr) {
        read_meter_->note(client_->simulator().now(), n);
      }
      read_phase();
    });
  }
}

void SortApp::write_phase() {
  if (failed_) return;
  if (write_done_ >= cfg_.total) {
    client_->close(out_fh_, [this](Status st) { finish(st); });
    return;
  }
  const Bytes phase_len = std::min(cfg_.phase, cfg_.total - write_done_);
  if (phase_moved_ >= phase_len && inflight_ == 0) {
    phase_moved_ = 0;
    write_done_ += phase_len;
    read_phase();
    return;
  }
  while (inflight_ < cfg_.queue_depth && phase_moved_ < phase_len) {
    const Bytes n = std::min(cfg_.request, phase_len - phase_moved_);
    const Bytes off = write_done_ + phase_moved_;
    phase_moved_ += n;
    ++inflight_;
    client_->write(out_fh_, off, n, [this, n](Result<Bytes> r) {
      --inflight_;
      if (!r.ok()) {
        finish(Status(r.error()));
        return;
      }
      if (write_meter_ != nullptr) {
        write_meter_->note(client_->simulator().now(), n);
      }
      write_phase();
    });
  }
}

// ---------------------------------------------------------------------------
// NvoQueryStream
// ---------------------------------------------------------------------------

NvoQueryStream::NvoQueryStream(gpfs::Client* client, std::string path,
                               gpfs::Principal who, NvoConfig cfg)
    : client_(client), path_(std::move(path)), who_(std::move(who)),
      cfg_(cfg), rng_(cfg.seed) {
  MGFS_ASSERT(client != nullptr, "nvo without client");
}

void NvoQueryStream::run(std::function<void(Result<NvoStats>)> done) {
  done_ = std::move(done);
  client_->open(path_, who_, gpfs::OpenFlags::ro(),
                [this](Result<gpfs::Fh> r) {
    if (!r.ok()) {
      std::exchange(done_, nullptr)(r.error());
      return;
    }
    fh_ = *r;
    file_size_ = client_->known_size(fh_);
    if (file_size_ == 0) {
      std::exchange(done_, nullptr)(
          err(Errc::invalid_argument, "empty dataset"));
      return;
    }
    t0_ = client_->simulator().now();
    next_query();
  });
}

void NvoQueryStream::next_query() {
  if (issued_queries_ >= cfg_.queries) {
    stats_.seconds = client_->simulator().now() - t0_;
    stats_.queries = issued_queries_;
    std::exchange(done_, nullptr)(stats_);
    return;
  }
  ++issued_queries_;
  Bytes len = static_cast<Bytes>(
      rng_.exponential(static_cast<double>(cfg_.mean_query_bytes)));
  len = std::clamp<Bytes>(len, 1 * MiB, file_size_);
  const Bytes offset = rng_.below(file_size_ - len + 1);
  issue(offset, len, [this](const Status& st) {
    if (!st.ok()) {
      std::exchange(done_, nullptr)(err(st.code(), st.error().detail));
      return;
    }
    next_query();
  });
}

void NvoQueryStream::issue(Bytes offset, Bytes remaining,
                           std::function<void(const Status&)> done) {
  // Stream the query range with a small queue depth.
  struct State {
    Bytes next;
    Bytes end;
    std::size_t inflight = 0;
    bool failed = false;
  };
  auto st = std::make_shared<State>();
  st->next = offset;
  st->end = offset + remaining;
  auto shared_done =
      std::make_shared<std::function<void(const Status&)>>(std::move(done));
  // The pump holds itself weakly and each read in flight holds it
  // strongly, so it lives exactly as long as the query has reads out.
  auto pump = std::make_shared<std::function<void()>>();
  *pump = [this, st, shared_done, weak = std::weak_ptr(pump)] {
    if (st->failed) return;
    const auto self = weak.lock();
    while (st->inflight < cfg_.queue_depth && st->next < st->end) {
      const Bytes n = std::min(cfg_.request, st->end - st->next);
      const Bytes off = st->next;
      st->next += n;
      ++st->inflight;
      client_->read(fh_, off, n, [this, st, shared_done, self,
                                  n](Result<Bytes> r) {
        --st->inflight;
        if (!r.ok()) {
          if (!st->failed) {
            st->failed = true;
            (*shared_done)(Status(r.error()));
          }
          return;
        }
        stats_.bytes_touched += *r;
        if (st->next >= st->end && st->inflight == 0) {
          (*shared_done)(Status{});
        } else {
          (*self)();
        }
      });
    }
  };
  (*pump)();
}

}  // namespace mgfs::workload
