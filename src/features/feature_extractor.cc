#include "features/feature_extractor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "signal/spectrum.h"
#include "signal/stats.h"

namespace sy::features {
namespace {

// Per-thread buffers of the extraction hot path. They grow to the largest
// window a thread has seen and are reused, so a steady-state window
// allocates nothing.
struct Scratch {
  std::vector<double> samples;   // auth_vectors: one window per stream
  std::vector<double> work;      // spectrum input / RealFftPlan work area
  std::vector<double> spectrum;  // one-sided magnitude spectrum
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

// Zero-padded DFT length of an n-sample window.
std::size_t padded_length(std::size_t n, const FeatureConfig& config) {
  return config.pad_to_pow2 ? std::bit_ceil(n) : n;
}

bool real_fft_length(std::size_t n) {
  return n >= 2 && signal::is_power_of_two(n);
}

}  // namespace

const char* feature_name(FeatureId id) {
  switch (id) {
    case FeatureId::kMean:
      return "Mean";
    case FeatureId::kVar:
      return "Var";
    case FeatureId::kMax:
      return "Max";
    case FeatureId::kMin:
      return "Min";
    case FeatureId::kRan:
      return "Ran";
    case FeatureId::kPeak:
      return "Peak";
    case FeatureId::kPeakF:
      return "Peak f";
    case FeatureId::kPeak2:
      return "Peak2";
    case FeatureId::kPeak2F:
      return "Peak2 f";
  }
  return "?";
}

double StreamFeatures::get(FeatureId id) const {
  switch (id) {
    case FeatureId::kMean:
      return mean;
    case FeatureId::kVar:
      return var;
    case FeatureId::kMax:
      return max;
    case FeatureId::kMin:
      return min;
    case FeatureId::kRan:
      return ran;
    case FeatureId::kPeak:
      return peak;
    case FeatureId::kPeakF:
      return peak_f;
    case FeatureId::kPeak2:
      return peak2;
    case FeatureId::kPeak2F:
      return peak2_f;
  }
  return 0.0;
}

FeatureExtractor::FeatureExtractor(FeatureConfig config) : config_(config) {
  if (config_.window.window_samples() == 0) {
    throw std::invalid_argument("FeatureExtractor: empty window");
  }
  if (config_.window.hop_samples() == 0) {
    throw std::invalid_argument("FeatureExtractor: empty hop");
  }
  const std::size_t padded =
      padded_length(config_.window.window_samples(), config_);
  if (real_fft_length(padded)) plan_.emplace(padded);
}

StreamFeatures FeatureExtractor::window_features(
    std::span<const double> window) const {
  signal::RunningStats stats;
  for (const double v : window) stats.add(v);
  return finish_features(window, stats);
}

StreamFeatures FeatureExtractor::finish_features(
    std::span<const double> window, const signal::RunningStats& stats) const {
  StreamFeatures f;
  f.mean = stats.mean();
  f.var = stats.variance();
  f.max = stats.max();
  f.min = stats.min();
  f.ran = stats.range();

  // Frequency domain: the window, optionally minus its mean, zero-padded.
  const double dc = config_.remove_dc ? f.mean : 0.0;
  const std::size_t padded = padded_length(window.size(), config_);
  // Each sum of squares the real FFT forms is at most
  // 32 * padded * sum((x - dc)^2) (Cauchy-Schwarz). When twice that is not
  // finite (overflow, or NaN/Inf samples, which make the Welford moments
  // non-finite) the window goes through the reference spectrum instead.
  const double energy = static_cast<double>(window.size()) *
                        (f.var + (f.mean - dc) * (f.mean - dc));
  const double bound = 64.0 * static_cast<double>(padded) * energy;

  Scratch& s = scratch();
  std::span<const double> mag;
  std::vector<double> reference;
  if (real_fft_length(padded) && std::isfinite(bound)) {
    std::optional<signal::RealFftPlan> other;
    const signal::RealFftPlan& plan =
        plan_ && plan_->size() == padded ? *plan_ : other.emplace(padded);
    s.work.resize(padded);
    s.spectrum.resize(plan.bins());
    plan.magnitude_spectrum(window, dc, s.work, s.spectrum);
    mag = s.spectrum;
  } else {
    s.work.assign(padded, 0.0);
    for (std::size_t i = 0; i < window.size(); ++i) s.work[i] = window[i] - dc;
    reference = signal::magnitude_spectrum(s.work);
    mag = reference;
  }

  const auto peaks = signal::find_peaks(mag, padded,
                                        config_.window.sample_rate_hz,
                                        config_.peak_guard_hz);
  // Undo the amplitude dilution introduced by zero-padding (the DFT is
  // scaled by 1/padded while the energy came from window.size() samples).
  const double rescale =
      static_cast<double>(padded) / static_cast<double>(window.size());
  f.peak = peaks.peak_amplitude * rescale;
  f.peak_f = peaks.peak_frequency_hz;
  f.peak2 = peaks.peak2_amplitude * rescale;
  f.peak2_f = peaks.peak2_frequency_hz;
  return f;
}

std::vector<StreamFeatures> FeatureExtractor::stream_features(
    std::span<const double> samples) const {
  const std::size_t w = config_.window.window_samples();
  const std::size_t h = config_.window.hop_samples();
  std::vector<StreamFeatures> out;
  if (samples.size() < w) return out;
  out.reserve((samples.size() - w) / h + 1);
  for (std::size_t start = 0; start + w <= samples.size(); start += h) {
    out.push_back(window_features(samples.subspan(start, w)));
  }
  return out;
}

void FeatureExtractor::append_selected(const StreamFeatures& f,
                                       std::vector<double>& out) const {
  for (const FeatureId id : kSelectedFeatures) out.push_back(f.get(id));
}

std::vector<std::vector<double>> FeatureExtractor::auth_vectors(
    const sensors::Recording& phone, const sensors::Recording* watch) const {
  // Eq. 4 order: phone accel, phone gyro, then the watch's.
  std::array<const sensors::AxisTrace*, 4> streams{&phone.accel, &phone.gyro};
  std::size_t n_streams = 2;
  if (watch != nullptr) {
    streams[n_streams++] = &watch->accel;
    streams[n_streams++] = &watch->gyro;
  }
  std::size_t n = std::numeric_limits<std::size_t>::max();
  for (std::size_t s = 0; s < n_streams; ++s) {
    n = std::min(n, signal::window_count(streams[s]->size(), config_.window));
  }

  const std::size_t w = config_.window.window_samples();
  const std::size_t hop = config_.window.hop_samples();
  std::vector<double>& mag = scratch().samples;  // n_streams rows of w
  mag.resize(n_streams * w);
  std::vector<std::vector<double>> out;
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    // One pass over the window: magnitudes into scratch, and each stream's
    // Welford accumulation. The streams' division chains are independent,
    // so interleaving them lets the CPU overlap their latencies.
    std::array<signal::RunningStats, 4> stats{};
    for (std::size_t i = 0; i < w; ++i) {
      for (std::size_t s = 0; s < n_streams; ++s) {
        const double m = streams[s]->magnitude_at(k * hop + i);
        mag[s * w + i] = m;
        stats[s].add(m);
      }
    }
    std::vector<double> v;
    v.reserve(auth_dim(watch != nullptr));
    for (std::size_t s = 0; s < n_streams; ++s) {
      append_selected(
          finish_features(std::span<const double>(mag).subspan(s * w, w),
                          stats[s]),
          v);
    }
    out.push_back(std::move(v));
  }
  return out;
}

std::vector<std::vector<double>> FeatureExtractor::context_vectors(
    const sensors::Recording& phone) const {
  return auth_vectors(phone, nullptr);
}

}  // namespace sy::features
