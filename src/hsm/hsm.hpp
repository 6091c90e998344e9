// Hierarchical Storage Management over a disk cache + tape library.
//
// The paper's §8 future-work paradigm, made runnable: "an automatic,
// algorithmic approach where data is migrated to tape storage as it is
// less used and recalled when needed", plus the "copyright library"
// idea — a guaranteed remote second copy (SDSC and PSC already archived
// for each other in 2005) from which a lost local volume is recovered.
//
// Model: files live in a FileStore (the GFS disk pool); run_policy()
// enforces water marks by archiving + purging least-recently-used
// files; ensure_online() recalls purged files before access, falling
// back to the mirror library when the primary volume is lost.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/histogram.hpp"
#include "gridftp/filestore.hpp"
#include "hsm/tape.hpp"

namespace mgfs::hsm {

struct HsmConfig {
  double high_watermark = 0.90;  // run_policy target trigger
  double low_watermark = 0.70;   // purge down to this fill
  Bytes archive_piece = 32 * GiB;  // tape objects (must fit a volume)
};

class HsmManager {
 public:
  HsmManager(sim::Simulator& sim, gridftp::FileStore& cache,
             TapeLibrary& tape, HsmConfig cfg = {});

  /// Register a remote second-copy library (the PSC of §8). Archives are
  /// written to both; recalls fall back to it on primary media loss.
  void set_mirror(TapeLibrary* mirror) { mirror_ = mirror; }

  // --- lifecycle ---------------------------------------------------------
  /// Create a new file in the disk cache (fails with no_space if even
  /// policy-driven purging could not make room — caller may run_policy
  /// first).
  Status ingest(const std::string& name, Bytes size);

  bool resident(const std::string& name) const;
  bool archived(const std::string& name) const;

  /// Make a file resident, recalling from tape when purged. `done` runs
  /// after the bytes are back on disk (recall latency is recorded).
  void ensure_online(const std::string& name,
                     std::function<void(const Status&)> done);

  /// Copy a file to tape (and the mirror) without purging it —
  /// "premigration". Idempotent.
  void archive(const std::string& name,
               std::function<void(const Status&)> done);

  /// Enforce the water marks: if the cache is above high_watermark,
  /// archive-and-purge LRU files until at/below low_watermark. `done`
  /// runs when the cache is compliant.
  void run_policy(std::function<void(const Status&)> done);

  double fill_fraction() const;

  // --- stats ---------------------------------------------------------------
  std::uint64_t migrations() const { return migrations_; }
  std::uint64_t recalls() const { return recalls_; }
  std::uint64_t mirror_recalls() const { return mirror_recalls_; }
  const Histogram& recall_latency() const { return recall_latency_; }

 private:
  struct Entry {
    Bytes size = 0;
    bool resident = false;
    double last_access = 0;
    // Tape pieces (primary and mirror), in file order; empty = never
    // archived.
    std::vector<TapeAddr> pieces;
    std::vector<TapeAddr> mirror_pieces;
  };

  /// Archive pieces [idx..] of `e`, then `done`.
  void archive_pieces(const std::string& name, std::size_t idx,
                      std::function<void(const Status&)> done);
  void recall_pieces(const std::string& name, std::size_t idx, double t0,
                     std::function<void(const Status&)> done);
  std::size_t piece_count(const Entry& e) const;
  Bytes piece_len(const Entry& e, std::size_t idx) const;
  const std::string* pick_lru_resident() const;

  sim::Simulator& sim_;
  gridftp::FileStore& cache_;
  TapeLibrary& tape_;
  TapeLibrary* mirror_ = nullptr;
  HsmConfig cfg_;
  std::unordered_map<std::string, Entry> files_;
  std::uint64_t migrations_ = 0;
  std::uint64_t recalls_ = 0;
  std::uint64_t mirror_recalls_ = 0;
  Histogram recall_latency_{60.0, 400, "recall-latency"};
};

}  // namespace mgfs::hsm
