// Outside-in measurement for mgfsbench: every number here is taken at a
// public boundary of the simulator — by wrapping calls into
// gpfs::Client and storage::BlockDevice, or by reading public counters —
// so the library under test is never modified and an untraced run sees
// exactly the event sequence a traced one does.
//
//   * Calls   wraps each Client call, stamping its simulated start and
//             end (latency samples, failures, first-issue/last-finish
//             windows for the aggregate rates).
//   * TimedDevice decorates a BlockDevice and times each io() to
//             completion.
//   * Spans   are kept in memory only in a traced run and written out
//             when the run ends.
//
// Neither wrapper schedules a simulator event: the wrapped completion
// runs inline inside the original one, so sim-clock results are
// identical with and without tracing.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "gpfs/client.hpp"
#include "storage/block_device.hpp"

namespace mgfs::perfbench {

/// Exact percentile (nearest rank) of `v`; 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = std::min(v.size() - 1, k == 0 ? 0 : k - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

/// The tail percentile a sample of `n` supports: 0.99 when at least ten
/// samples lie beyond it, otherwise the highest percentile that still
/// leaves ten behind (so a small sample never reports its maximum as a
/// "p99").
inline double tail_quantile(std::size_t n) {
  if (n == 0) return 0.99;
  return std::clamp(1.0 - 10.0 / static_cast<double>(n), 0.5, 0.99);
}

/// Host CPU seconds (user + sys) consumed by this process so far.
inline double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// A sim-time interval recorded at a layer boundary. `call` is the id of
/// the application call it belongs to; device spans carry 0 because the
/// issuing call is not visible at the BlockDevice boundary (causal
/// linkage needs spans inside the library).
struct Span {
  const char* name;
  double t0;
  double t1;
  std::uint64_t call;
};

enum class Op : std::size_t {
  open, read, write, fsync, close, stat, readdir, unlink, count
};
inline constexpr std::size_t kOps = static_cast<std::size_t>(Op::count);
inline constexpr std::array<const char*, kOps> kOpNames = {
    "open", "read", "write", "fsync", "close", "stat", "readdir", "unlink"};

inline constexpr double kNoHorizon = std::numeric_limits<double>::infinity();

/// A first-issue -> last-completion window plus the bytes moved in it.
/// With a horizon (a run that stops starting work at a fixed simulated
/// time), the rate is the bytes completed by the horizon over
/// [first issue, horizon], so a late straggler cannot stretch it.
struct Window {
  double first = -1.0;
  double last = -1.0;
  Bytes bytes = 0;
  Bytes by_horizon = 0;
  void start(double t) {
    if (first < 0.0 || t < first) first = t;
  }
  void add(double t, Bytes b, double horizon) {
    bytes += b;
    if (t <= horizon) by_horizon += b;
    finish(t);
  }
  void finish(double t) { last = std::max(last, t); }
  double MBps(double horizon) const {
    const double end = horizon < kNoHorizon ? horizon : last;
    const Bytes b = horizon < kNoHorizon ? by_horizon : bytes;
    return end > first && first >= 0.0
               ? static_cast<double>(b) / (end - first) / 1e6
               : 0.0;
  }
};

/// Application-side view of every Client call the workloads make.
class Calls {
 public:
  Calls(sim::Simulator& sim, bool trace, double horizon = kNoHorizon)
      : sim_(sim), trace_(trace), horizon_(horizon) {}

  void open(gpfs::Client* c, const std::string& path,
            const gpfs::Principal& who, gpfs::OpenFlags flags,
            std::function<void(Result<gpfs::Fh>)> done) {
    issue([&] {
      c->open(path, who, flags, wrap(Op::open, std::move(done)));
    });
  }
  void read(gpfs::Client* c, gpfs::Fh fh, Bytes off, Bytes len,
            std::function<void(Result<Bytes>)> done) {
    reads.start(sim_.now());
    auto count = [this, done = std::move(done)](Result<Bytes> r) {
      if (r.ok()) reads.add(sim_.now(), *r, horizon_);
      done(std::move(r));
    };
    issue([&] {
      c->read(fh, off, len, wrap<Result<Bytes>>(Op::read, std::move(count)));
    });
  }
  void write(gpfs::Client* c, gpfs::Fh fh, Bytes off, Bytes len,
             std::function<void(Result<Bytes>)> done) {
    writes.start(sim_.now());
    auto count = [this, done = std::move(done)](Result<Bytes> r) {
      if (r.ok()) writes.add(sim_.now(), *r, horizon_);
      done(std::move(r));
    };
    issue([&] {
      c->write(fh, off, len, wrap<Result<Bytes>>(Op::write, std::move(count)));
    });
  }
  /// A successful fsync closes the write window: the aggregate write
  /// rate runs from first byte to last fsync.
  void fsync(gpfs::Client* c, gpfs::Fh fh, std::function<void(Status)> done) {
    auto close_window = [this, done = std::move(done)](Status st) {
      if (st.ok()) writes.finish(sim_.now());
      done(std::move(st));
    };
    issue([&] {
      c->fsync(fh, wrap<Status>(Op::fsync, std::move(close_window)));
    });
  }
  void close(gpfs::Client* c, gpfs::Fh fh, std::function<void(Status)> done) {
    issue([&] { c->close(fh, wrap(Op::close, std::move(done))); });
  }
  void stat(gpfs::Client* c, const std::string& path,
            std::function<void(Result<gpfs::StatInfo>)> done) {
    issue([&] { c->stat(path, wrap(Op::stat, std::move(done))); });
  }
  void readdir(gpfs::Client* c, const std::string& path,
               const gpfs::Principal& who,
               std::function<void(Result<std::vector<std::string>>)> done) {
    issue([&] { c->readdir(path, who, wrap(Op::readdir, std::move(done))); });
  }
  void unlink(gpfs::Client* c, const std::string& path,
              const gpfs::Principal& who, std::function<void(Status)> done) {
    issue([&] { c->unlink(path, who, wrap(Op::unlink, std::move(done))); });
  }

  std::uint64_t attempted() const { return next_call_; }
  std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (std::uint64_t f : failed_) n += f;
    return n;
  }
  std::uint64_t failed(Op op) const { return failed_[idx(op)]; }
  const std::vector<double>& latencies(Op op) const { return lat_[idx(op)]; }
  double write_MBps() const { return writes.MBps(horizon_); }
  double read_MBps() const { return reads.MBps(horizon_); }
  /// Completed metadata calls (everything but read and write) per
  /// simulated second, first issue -> last completion (or horizon).
  double meta_ops_per_s() const {
    const double end = horizon_ < kNoHorizon ? horizon_ : last_;
    return end > first_ ? static_cast<double>(meta_done_) / (end - first_)
                        : 0.0;
  }
  /// Host CPU spent inside the synchronous part of Client calls (traced
  /// runs only).
  double call_host_s() const { return call_host_s_; }
  std::vector<Span>& spans() { return spans_; }

  Window reads;
  Window writes;

 private:
  static std::size_t idx(Op op) { return static_cast<std::size_t>(op); }

  template <typename F>
  void issue(F&& call) {
    if (first_ < 0.0) first_ = sim_.now();
    if (!trace_) {
      call();
      return;
    }
    const double h0 = cpu_seconds();
    call();
    call_host_s_ += cpu_seconds() - h0;
  }

  template <typename R>
  std::function<void(R)> wrap(Op op, std::function<void(R)> done) {
    const std::uint64_t id = ++next_call_;
    const double t0 = sim_.now();
    return [this, op, id, t0, done = std::move(done)](R r) {
      const double t1 = sim_.now();
      lat_[idx(op)].push_back((t1 - t0) * 1e3);
      if (!r.ok()) ++failed_[idx(op)];
      last_ = std::max(last_, t1);
      if (op != Op::read && op != Op::write && t1 <= horizon_) ++meta_done_;
      if (trace_) spans_.push_back({kOpNames[idx(op)], t0, t1, id});
      done(std::move(r));
    };
  }

  sim::Simulator& sim_;
  bool trace_;
  double horizon_;
  std::uint64_t next_call_ = 0;
  std::uint64_t meta_done_ = 0;
  std::array<std::vector<double>, kOps> lat_{};
  std::array<std::uint64_t, kOps> failed_{};
  double first_ = -1.0;
  double last_ = 0.0;
  double call_host_s_ = 0.0;
  std::vector<Span> spans_;
};

/// Times every io() of the wrapped device to completion. Registered as
/// the NSD's device in traced runs; the completion is forwarded inline.
class TimedDevice final : public storage::BlockDevice {
 public:
  TimedDevice(sim::Simulator& sim, storage::BlockDevice& inner,
              std::vector<double>& lat_ms, std::vector<Span>& spans)
      : sim_(sim), inner_(inner), lat_ms_(lat_ms), spans_(spans) {}

  void io(Bytes offset, Bytes len, bool write,
          storage::IoCallback done) override {
    const double t0 = sim_.now();
    inner_.io(offset, len, write,
              [this, t0, write, done = std::move(done)](const Status& st) {
                const double t1 = sim_.now();
                lat_ms_.push_back((t1 - t0) * 1e3);
                spans_.push_back({write ? "dev.write" : "dev.read", t0, t1, 0});
                done(st);
              });
  }
  Bytes capacity() const override { return inner_.capacity(); }

 private:
  sim::Simulator& sim_;
  storage::BlockDevice& inner_;
  std::vector<double>& lat_ms_;
  std::vector<Span>& spans_;
};

}  // namespace mgfs::perfbench
