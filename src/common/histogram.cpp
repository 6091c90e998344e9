#include "common/histogram.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>

#include "common/result.hpp"

namespace mgfs {

Histogram::Histogram(double bin_width, std::size_t bin_count, std::string name)
    : bin_width_(bin_width), bin_count_(bin_count), name_(std::move(name)) {
  MGFS_ASSERT(bin_width > 0 && bin_count > 0, "bad histogram shape");
}

void Histogram::add(double v) {
  if (count_ == 0 || v < min_) min_ = v;
  if (v > max_) max_ = v;
  ++count_;
  sum_ += v;
  if (v < 0) {
    ++overflow_;  // negative values are unexpected; count, don't crash
    return;
  }
  const auto idx = static_cast<std::size_t>(v / bin_width_);
  if (idx >= bin_count_) {
    ++overflow_;
    return;
  }
  if (bins_.empty()) bins_.assign(bin_count_, 0);
  ++bins_[idx];
}

void Histogram::merge(const Histogram& other) {
  MGFS_ASSERT(bin_width_ == other.bin_width_ &&
                  bin_count_ == other.bin_count_,
              "histogram merge shape mismatch");
  if (other.count_ == 0) return;
  if (bins_.empty() && !other.bins_.empty()) bins_.assign(bin_count_, 0);
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
  sum_ += other.sum_;
  overflow_ += other.overflow_;
  for (std::size_t i = 0; i < other.bins_.size(); ++i) {
    bins_[i] += other.bins_[i];
  }
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    seen += bins_[i];
    if (seen > target) return (static_cast<double>(i) + 0.5) * bin_width_;
  }
  return max_;
}

void Histogram::print(std::ostream& os, const std::string& unit) const {
  os << (name_.empty() ? "histogram" : name_) << ": n=" << count_
     << std::fixed << std::setprecision(3) << " mean=" << mean() << unit
     << " p50=" << quantile(0.5) << unit << " p95=" << quantile(0.95) << unit
     << " p99=" << quantile(0.99) << unit << " max=" << max_ << unit;
  if (overflow_ > 0) os << " overflow=" << overflow_;
  os << "\n";
  os.unsetf(std::ios::fixed);
}

}  // namespace mgfs
