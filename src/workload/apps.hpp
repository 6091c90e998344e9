// Application workloads from the paper's demonstrations.
//
//   EnzoWriter      — the Enzo AMR cosmology code writing output dumps
//                     directly to the (possibly remote) GFS at an
//                     application-limited rate (~a Terabyte/hour, §4).
//   SortApp         — the "simple sorting application that merely sorted
//                     the data output by Enzo": completely network
//                     limited, run in both directions (§4 / Fig. 8).
//   NvoQueryStream  — NVO-style use of a huge dataset "more as a
//                     database ... retrieving individual pieces of very
//                     large files" (§1): random partial reads.
//
// The Fig.-5 visualization (sequential reads with exhaust-and-restart)
// is SequentialReader with reopen_on_eof — see stream.hpp.
#pragma once

#include <memory>

#include "common/rng.hpp"
#include "workload/stream.hpp"

namespace mgfs::workload {

struct EnzoConfig {
  Bytes dump_bytes = 32 * GiB;
  std::size_t dumps = 4;
  BytesPerSec app_rate = mB_per_s(300.0);  // ~1 TB/h I/O phases
  double compute_gap_s = 0.0;              // between dumps
  Bytes request = 8 * MiB;
  std::size_t queue_depth = 8;
};

/// Writes /<dir>/dump_NNNN files in sequence, throttled to the
/// application's I/O rate, with an optional compute gap between dumps.
class EnzoWriter {
 public:
  EnzoWriter(gpfs::Client* client, std::string dir, gpfs::Principal who,
             EnzoConfig cfg);

  void set_meter(RateMeter* meter) { meter_ = meter; }
  void run(std::function<void(const Status&)> done);
  Bytes bytes_written() const { return bytes_; }
  std::size_t dumps_completed() const { return dump_; }

 private:
  void next_dump();

  gpfs::Client* client_;
  std::string dir_;
  gpfs::Principal who_;
  EnzoConfig cfg_;
  RateMeter* meter_ = nullptr;
  std::size_t dump_ = 0;
  Bytes bytes_ = 0;
  std::unique_ptr<SequentialWriter> current_;
  std::function<void(const Status&)> done_;
};

struct SortConfig {
  Bytes total = 8 * GiB;       // input size == output size
  Bytes phase = 512 * MiB;     // read X, then write X, alternating
  Bytes request = 8 * MiB;
  std::size_t queue_depth = 8;
};

/// Reads `input`, writes `output`, alternating read and write phases —
/// network-limited in both directions like the SC'04 demonstration.
class SortApp {
 public:
  SortApp(gpfs::Client* client, std::string input, std::string output,
          gpfs::Principal who, SortConfig cfg);

  void run(std::function<void(const Status&)> done);
  Bytes bytes_read() const { return read_done_; }
  Bytes bytes_written() const { return write_done_; }

 private:
  void read_phase();
  void write_phase();
  void finish(const Status& st);

  gpfs::Client* client_;
  std::string input_, output_;
  gpfs::Principal who_;
  SortConfig cfg_;
  gpfs::Fh in_fh_ = -1, out_fh_ = -1;
  Bytes read_done_ = 0, write_done_ = 0;
  Bytes phase_moved_ = 0;
  std::size_t inflight_ = 0;
  bool failed_ = false;
  std::function<void(const Status&)> done_;
};

struct NvoConfig {
  std::size_t queries = 64;
  Bytes mean_query_bytes = 64 * MiB;  // exponential sizes around this
  std::size_t queue_depth = 4;
  Bytes request = 4 * MiB;
  std::uint64_t seed = 1;
};

struct NvoStats {
  Bytes bytes_touched = 0;
  std::size_t queries = 0;
  double seconds = 0;
};

/// Random partial reads against one very large file: each query picks a
/// uniform offset and an exponentially distributed length.
class NvoQueryStream {
 public:
  NvoQueryStream(gpfs::Client* client, std::string path, gpfs::Principal who,
                 NvoConfig cfg);

  void run(std::function<void(Result<NvoStats>)> done);

 private:
  void next_query();
  void issue(Bytes offset, Bytes remaining,
             std::function<void(const Status&)> done);

  gpfs::Client* client_;
  std::string path_;
  gpfs::Principal who_;
  NvoConfig cfg_;
  Rng rng_;
  gpfs::Fh fh_ = -1;
  Bytes file_size_ = 0;
  std::size_t issued_queries_ = 0;
  NvoStats stats_;
  double t0_ = 0;
  std::function<void(Result<NvoStats>)> done_;
};

}  // namespace mgfs::workload
