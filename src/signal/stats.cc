#include "signal/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "num/kernels.h"

namespace sy::signal {

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double mean(std::span<const double> xs) {
  RunningStats s;
  for (const double x : xs) s.add(x);
  return s.mean();
}

double variance(std::span<const double> xs) {
  RunningStats s;
  for (const double x : xs) s.add(x);
  return s.variance();
}

double min_value(std::span<const double> xs) {
  RunningStats s;
  for (const double x : xs) s.add(x);
  return s.min();
}

double max_value(std::span<const double> xs) {
  RunningStats s;
  for (const double x : xs) s.add(x);
  return s.max();
}

double range(std::span<const double> xs) {
  RunningStats s;
  for (const double x : xs) s.add(x);
  return s.range();
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double pearson(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("pearson: size mismatch");
  }
  if (xs.empty()) return 0.0;
  const double mx = mean(xs);
  const double my = mean(ys);
  // Center once, then the three sums are dispatched dot products (the
  // scalar backend accumulates each in the same ascending order as the
  // historical fused loop — the accumulators were always independent).
  // thread_local scratch keeps this allocation-free on the hot
  // features/correlation path, which calls pearson per channel pair.
  thread_local std::vector<double> dx, dy;
  dx.resize(xs.size());
  dy.resize(ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    dx[i] = xs[i] - mx;
    dy[i] = ys[i] - my;
  }
  const double sxy = num::dot(dx, dy);
  const double sxx = num::dot(dx, dx);
  const double syy = num::dot(dy, dy);
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double percentile(std::span<const double> xs, double q) {
  if (xs.empty()) throw std::invalid_argument("percentile: empty input");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("percentile: bad q");
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

}  // namespace sy::signal
