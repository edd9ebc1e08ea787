// Windowed time- and frequency-domain feature extraction (paper §V-C).
//
// For every analysis window of a sensor-magnitude stream we compute the nine
// candidate features of the paper:
//   time domain:      Mean, Var, Max, Min, Ran(ge)
//   frequency domain: Peak (main-frequency amplitude), Peak f (the main
//                     frequency), Peak2 (secondary amplitude), Peak2 f
// The selection study (§V-C, reproduced in features/selection.h) drops Ran
// (redundant with Var/Max) and Peak2 f (uninformative), leaving the 7-element
// per-stream vector of Eq. 2; two sensors give 14 per device (Eq. 3) and the
// phone+watch combination gives 28 (Eq. 4).
//
// Numerics. A window is one Welford pass (signal::RunningStats, so the time
// features are those of RunningStats bit for bit) plus, for power-of-two
// padded lengths, a signal::RealFftPlan spectrum built once per extractor.
// Frequency features match the complex-DFT reference
// (signal::magnitude_spectrum + signal::find_peaks) to 1e-12 relative; they
// are not bit-identical to it. Non-power-of-two lengths without padding use
// the reference itself.
//
// Non-finite windows. A window holding NaN or +/-Inf yields exactly the
// reference result, feature by feature: such windows (and finite ones whose
// spectrum would overflow) are detected from the Welford moments and
// routed through signal::magnitude_spectrum. Concretely:
//   Mean, Var   non-finite for any NaN or Inf sample (Var is NaN).
//   Max, Min    RunningStats' std::min/std::max: a NaN after the first
//               sample is ignored, a NaN first sample sticks, and +/-Inf is
//               an ordinary extreme (so Ran may be Inf).
//   Peak, Peak2 NaN with remove_dc (the whole spectrum is NaN); without it,
//               NaN for a NaN sample and +Inf for an infinite one.
//   Peak f, Peak2 f  the peak search's first candidates: bin 1, and the
//               first bin past the guard band.
#pragma once

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "sensors/types.h"
#include "signal/dft.h"
#include "signal/stats.h"
#include "signal/window.h"

namespace sy::features {

enum class FeatureId : int {
  kMean = 0,
  kVar,
  kMax,
  kMin,
  kRan,
  kPeak,
  kPeakF,
  kPeak2,
  kPeak2F,
};
inline constexpr int kFeatureCount = 9;
inline constexpr std::array<FeatureId, 9> kAllFeatures = {
    FeatureId::kMean, FeatureId::kVar,   FeatureId::kMax,
    FeatureId::kMin,  FeatureId::kRan,   FeatureId::kPeak,
    FeatureId::kPeakF, FeatureId::kPeak2, FeatureId::kPeak2F,
};
// The paper's selected subset (Eq. 2): 4 time + 3 frequency features.
inline constexpr std::array<FeatureId, 7> kSelectedFeatures = {
    FeatureId::kMean, FeatureId::kVar,  FeatureId::kMax,  FeatureId::kMin,
    FeatureId::kPeak, FeatureId::kPeakF, FeatureId::kPeak2,
};
const char* feature_name(FeatureId id);

struct StreamFeatures {
  double mean{0}, var{0}, max{0}, min{0}, ran{0};
  double peak{0}, peak_f{0}, peak2{0}, peak2_f{0};

  double get(FeatureId id) const;
};

struct FeatureConfig {
  signal::WindowSpec window{};     // 6 s non-overlapping at 50 Hz by default
  // Zero-pad each window to the next power of two before the DFT: identical
  // feature semantics, ~10x cheaper transform at the paper's 300-sample
  // window.
  bool pad_to_pow2{true};
  // Subtract the window mean before the DFT so the gravity DC component
  // does not leak over the low-frequency bins.
  bool remove_dc{true};
  // Guard band (Hz) around the main peak when hunting for the secondary
  // peak; suppresses rectangular-window leakage sidelobes.
  double peak_guard_hz{0.4};
};

class FeatureExtractor {
 public:
  explicit FeatureExtractor(FeatureConfig config = {});

  const FeatureConfig& config() const { return config_; }

  // Features of one already-cut window of magnitude samples. Thread-safe;
  // a window of the configured length allocates nothing once the calling
  // thread's scratch has grown to it (other lengths build a plan per call).
  StreamFeatures window_features(std::span<const double> window) const;

  // Segments a full stream and extracts features per window.
  std::vector<StreamFeatures> stream_features(
      std::span<const double> samples) const;

  // --- Vector assembly (Eqs. 1-4) -------------------------------------
  // Authentication feature vectors for one session: one vector per window.
  // 14-dim for phone only; 28-dim when `watch` is non-null (phone features
  // first). Uses accelerometer + gyroscope magnitudes, computed window by
  // window into per-thread scratch in the same pass as the streams'
  // side-by-side Welford accumulations; bit-identical to window_features()
  // on each stream window.
  std::vector<std::vector<double>> auth_vectors(
      const sensors::Recording& phone, const sensors::Recording* watch) const;

  // Context feature vectors (Eq. 3): always phone-only, 14-dim — context
  // detection must not depend on the optional watch (§V-E).
  std::vector<std::vector<double>> context_vectors(
      const sensors::Recording& phone) const;

  // Dimensionality of auth_vectors output.
  static std::size_t auth_dim(bool with_watch) { return with_watch ? 28 : 14; }

 private:
  void append_selected(const StreamFeatures& f, std::vector<double>& out) const;
  // window_features() once the window's Welford pass is in `stats`.
  StreamFeatures finish_features(std::span<const double> window,
                                 const signal::RunningStats& stats) const;

  FeatureConfig config_;
  // Real-FFT tables for the configured padded window length; empty when
  // that length is not a power of two >= 2.
  std::optional<signal::RealFftPlan> plan_;
};

}  // namespace sy::features
