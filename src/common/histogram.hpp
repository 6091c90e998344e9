// Latency histogram with fixed-width bins plus summary statistics.
// Used for HSM recall latency, auth handshake latency, and token
// round-trip distributions.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace mgfs {

class Histogram {
 public:
  /// Bins of `bin_width` covering [0, bin_width * bin_count); values beyond
  /// land in an overflow bucket.
  Histogram(double bin_width, std::size_t bin_count, std::string name = {});

  void add(double v);

  /// Fold another histogram into this one (e.g. per-client latency
  /// distributions into a cluster-wide one). Requires identical bin
  /// geometry; the other's overflow stays overflow here.
  void merge(const Histogram& other);

  std::uint64_t count() const { return count_; }
  double mean() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return max_; }
  /// Approximate quantile from bin midpoints (exact for min/max ends).
  double quantile(double q) const;
  std::uint64_t overflow() const { return overflow_; }

  void print(std::ostream& os, const std::string& unit) const;

 private:
  double bin_width_;
  std::size_t bin_count_;
  std::string name_;
  /// Empty until the first in-range add or merge: most histograms (one
  /// per client for recovery-window ops) never see a value.
  std::vector<std::uint64_t> bins_;
  std::uint64_t overflow_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace mgfs
