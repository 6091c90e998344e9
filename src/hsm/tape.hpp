// Tape library: robot-mounted sequential media behind a few drives.
//
// The paper's archival substrate (§2: "Silos and Tape Drives (6 PB),
// 30 MB/s per drive"; §8: automatic migration to tape and recall from
// deep archive). Cost model per operation: a volume mount (robot +
// load + thread) when the drive must switch volumes, a position step,
// then streaming at drive rate. Drives are FIFO resources; the library
// prefers a drive that already holds the wanted volume.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/units.hpp"
#include "sim/simulator.hpp"

namespace mgfs::hsm {

struct TapeSpec {
  BytesPerSec rate = 30e6;         // paper: 30 MB/s per drive
  sim::Time mount_s = 60.0;        // robot fetch + load + thread
  sim::Time position_s = 20.0;     // average locate on a loaded volume
  Bytes volume_capacity = 200 * GB;
};

/// Where archived bytes live: a volume and an offset within it.
struct TapeAddr {
  std::uint32_t volume = 0;
  Bytes offset = 0;
  friend bool operator==(const TapeAddr&, const TapeAddr&) = default;
};

class TapeLibrary {
 public:
  TapeLibrary(sim::Simulator& sim, std::size_t drives, TapeSpec spec = {},
              std::string name = "silo");

  /// Append `len` bytes to the archive; the address comes back through
  /// `done`. Appends fill the current volume before opening a new one.
  void append(Bytes len,
              std::function<void(Result<TapeAddr>)> done);

  /// Stream `len` bytes starting at `addr` back off tape.
  void read(TapeAddr addr, Bytes len,
            std::function<void(const Status&)> done);

  /// Destroy a volume (media failure / fire drill); reads of it fail
  /// with io_error until restored from a mirror.
  void lose_volume(std::uint32_t volume);
  bool volume_lost(std::uint32_t volume) const;

  std::uint32_t volumes_used() const { return write_volume_ + 1; }
  Bytes bytes_on_tape() const { return bytes_written_; }
  std::uint64_t mounts() const { return mounts_; }
  const TapeSpec& spec() const { return spec_; }

 private:
  struct Drive {
    sim::Time busy_until = 0;
    std::int64_t loaded_volume = -1;  // -1 = empty
  };

  /// Schedule `len` streaming bytes against `volume`; returns completion
  /// time and updates drive state.
  sim::Time schedule(std::uint32_t volume, Bytes len);

  sim::Simulator& sim_;
  TapeSpec spec_;
  std::string name_;
  std::vector<Drive> drives_;
  std::uint32_t write_volume_ = 0;
  Bytes write_offset_ = 0;
  Bytes bytes_written_ = 0;
  std::uint64_t mounts_ = 0;
  std::vector<bool> lost_;
};

}  // namespace mgfs::hsm
