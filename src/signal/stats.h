// Streaming and batch descriptive statistics for sensor windows.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

namespace sy::signal {

// Numerically stable single-pass accumulator (Welford).
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  // Population variance (divide by n), matching the paper's batch features.
  double variance() const { return n_ ? m2_ / static_cast<double>(n_) : 0.0; }
  // Sample variance (divide by n-1).
  double sample_variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double range() const { return n_ ? max_ - min_ : 0.0; }

  // Merges another accumulator (parallel Welford).
  void merge(const RunningStats& other);

 private:
  std::size_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{0.0};
  double max_{0.0};
};

// Batch helpers.
double mean(std::span<const double> xs);
double variance(std::span<const double> xs);  // population variance
double min_value(std::span<const double> xs);
double max_value(std::span<const double> xs);
double range(std::span<const double> xs);
double stddev(std::span<const double> xs);

// Pearson correlation coefficient; returns 0 when either side is constant.
double pearson(std::span<const double> xs, std::span<const double> ys);

// Percentile with linear interpolation, q in [0,1]. Copies and sorts.
double percentile(std::span<const double> xs, double q);

// Inline: the feature extractor's per-sample hot loop.
inline void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

}  // namespace sy::signal
