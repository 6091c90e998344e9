#include "workload/stream.hpp"

#include <algorithm>
#include <utility>

namespace mgfs::workload {

// ---------------------------------------------------------------------------
// SequentialWriter
// ---------------------------------------------------------------------------

SequentialWriter::SequentialWriter(gpfs::Client* client, std::string path,
                                   gpfs::Principal who, StreamConfig cfg)
    : client_(client), path_(std::move(path)), who_(std::move(who)),
      cfg_(cfg) {
  MGFS_ASSERT(client != nullptr, "writer without client");
  MGFS_ASSERT(cfg_.total > 0, "writer needs a total byte count");
  MGFS_ASSERT(cfg_.request > 0 && cfg_.queue_depth > 0, "bad stream config");
}

void SequentialWriter::start(std::function<void(const Status&)> done) {
  done_ = std::move(done);
  client_->open(path_, who_, gpfs::OpenFlags::create_rw(),
                [this](Result<gpfs::Fh> r) {
                  if (!r.ok()) {
                    finish(Status(r.error()));
                    return;
                  }
                  fh_ = *r;
                  t0_ = client_->simulator().now();
                  pump();
                });
}

// `done` is let go of as it runs: an owner that keeps this stream alive
// only through `done` frees it there, so nothing touches `this` after a
// finish().
void SequentialWriter::finish(const Status& st) {
  if (failed_) return;
  failed_ = true;
  if (done_) std::exchange(done_, nullptr)(st);
}

void SequentialWriter::pump() {
  if (failed_) return;
  sim::Simulator& sim = client_->simulator();
  while (inflight_ < cfg_.queue_depth && issued_ < cfg_.total) {
    if (cfg_.rate_cap > 0) {
      const double allowed =
          t0_ + static_cast<double>(issued_) / cfg_.rate_cap;
      if (sim.now() < allowed) {
        if (!throttled_wait_) {
          throttled_wait_ = true;
          sim.at(allowed, [this] {
            throttled_wait_ = false;
            pump();
          });
        }
        return;
      }
    }
    const Bytes n = std::min(cfg_.request, cfg_.total - issued_);
    const Bytes off = issued_;
    issued_ += n;
    ++inflight_;
    client_->write(fh_, off, n, [this, n](Result<Bytes> r) {
      --inflight_;
      if (!r.ok()) {
        finish(Status(r.error()));
        return;
      }
      completed_ += n;
      if (meter_ != nullptr) {
        meter_->note(client_->simulator().now(), n);
      }
      if (completed_ == cfg_.total) {
        client_->close(fh_, [this](Status st) { finish(st); });
      } else {
        pump();
      }
    });
  }
}

// ---------------------------------------------------------------------------
// SequentialReader
// ---------------------------------------------------------------------------

SequentialReader::SequentialReader(gpfs::Client* client, std::string path,
                                   gpfs::Principal who, Options opt)
    : client_(client), path_(std::move(path)), who_(std::move(who)),
      opt_(opt) {
  MGFS_ASSERT(client != nullptr, "reader without client");
  MGFS_ASSERT(opt_.stream.request > 0 && opt_.stream.queue_depth > 0,
              "bad stream config");
}

void SequentialReader::start(std::function<void(const Status&)> done) {
  done_ = std::move(done);
  client_->open(path_, who_, gpfs::OpenFlags::ro(),
                [this](Result<gpfs::Fh> r) {
                  if (!r.ok()) {
                    finish(Status(r.error()));
                    return;
                  }
                  fh_ = *r;
                  t0_ = client_->simulator().now();
                  pump();
                });
}

void SequentialReader::finish(const Status& st) {
  if (failed_) return;
  failed_ = true;
  if (done_) std::exchange(done_, nullptr)(st);
}

void SequentialReader::pump() {
  if (failed_ || eof_handling_) return;
  const Bytes limit =
      opt_.stream.total > 0
          ? std::min<Bytes>(opt_.stream.total, client_->known_size(fh_))
          : client_->known_size(fh_);
  while (inflight_ < opt_.stream.queue_depth && offset_ < limit) {
    const Bytes n = std::min(opt_.stream.request, limit - offset_);
    const Bytes off = offset_;
    offset_ += n;
    ++inflight_;
    client_->read(fh_, off, n, [this](Result<Bytes> r) {
      --inflight_;
      if (!r.ok()) {
        finish(Status(r.error()));
        return;
      }
      completed_ += *r;
      if (meter_ != nullptr && *r > 0) {
        meter_->note(client_->simulator().now(), *r);
      }
      pump();  // last: a pump that reaches EOF may finish()
    });
  }
  if (inflight_ == 0 && offset_ >= limit) on_eof();
}

void SequentialReader::on_eof() {
  if (failed_ || eof_handling_) return;
  const Bytes limit =
      opt_.stream.total > 0
          ? std::min<Bytes>(opt_.stream.total, client_->known_size(fh_))
          : client_->known_size(fh_);
  if (offset_ < limit || inflight_ > 0) return;  // not actually at EOF

  sim::Simulator& sim = client_->simulator();
  if (stopping_) {
    finish(Status{});
    return;
  }
  eof_handling_ = true;
  if (opt_.follow) {
    // Poll the manager for growth before declaring the pass over.
    client_->refresh_size(fh_, [this, limit](Result<Bytes> r) {
      eof_handling_ = false;
      if (!r.ok()) {
        finish(Status(r.error()));
        return;
      }
      if (*r > limit) {
        pump();  // producer got ahead again
        return;
      }
      if (stopping_) {
        finish(Status{});
        return;
      }
      // Still dry: poll again later.
      eof_handling_ = true;
      client_->simulator().after(opt_.follow_poll_interval, [this] {
        eof_handling_ = false;
        on_eof_retry();
      });
    });
    return;
  }
  ++passes_;
  if (opt_.reopen_on_eof &&
      (opt_.max_passes == 0 || passes_ < opt_.max_passes)) {
    // The Fig. 5 dip: the application ran out of data and restarts
    // after a delay, re-reading from the beginning.
    sim.after(opt_.restart_delay, [this] {
      eof_handling_ = false;
      offset_ = 0;
      pump();
    });
    return;
  }
  finish(Status{});
}

void SequentialReader::on_eof_retry() {
  // Re-enter the EOF check after a follow poll interval.
  on_eof();
}

}  // namespace mgfs::workload
