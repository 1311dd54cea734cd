// Measurement helpers for the end-to-end benchmark: sample percentiles,
// percentiles of the engine's registry histograms, and the result report.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

inline double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return SecondsBetween(from, to) * 1e3;
}

/// Percentile `p` (0..100) of `v`, interpolated linearly between order
/// statistics. 0 for an empty sample.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50.0);
}

inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Percentile `p` of a registry histogram in its natural unit. The engine's
/// own Histogram::Percentile reports bucket midpoints (up to 12.5% off and
/// identical across runs that land in one bucket); this interpolates
/// linearly inside the bucket that holds the rank instead.
inline double HistogramPercentile(const sedge::obs::Histogram* h, double p) {
  using sedge::obs::Histogram;
  if (h == nullptr || h->count() == 0) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(h->count());
  uint64_t below = 0;
  for (const Histogram::BucketSnapshot& b : h->SnapshotNonEmpty()) {
    if (static_cast<double>(b.cumulative_count) >= rank) {
      int index = 0;
      while (Histogram::BucketLowerTicks(index + 1) < b.upper_ticks) ++index;
      const double lower =
          static_cast<double>(Histogram::BucketLowerTicks(index));
      const double upper = static_cast<double>(b.upper_ticks);
      const double share = (rank - static_cast<double>(below)) /
                           static_cast<double>(b.cumulative_count - below);
      const double scale = h->unit() == Histogram::Unit::kSeconds ? 1e-9 : 1.0;
      return std::min(h->max(), (lower + share * (upper - lower)) * scale);
    }
    below = b.cumulative_count;
  }
  return h->max();
}

/// Named metrics with units, in insertion order.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }

  /// {"name": {"value": v, "unit": "u"}, ...} with every digit kept.
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g",
                    std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0);
      out += (i == 0 ? "\"" : ", \"") + metrics_[i].name +
             "\": {\"value\": " + value + ", \"unit\": \"" +
             metrics_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
