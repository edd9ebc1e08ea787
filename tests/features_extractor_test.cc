#include "features/feature_extractor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <numbers>
#include <string>

#include "sensors/motion_model.h"
#include "sensors/population.h"
#include "signal/dft.h"
#include "signal/spectrum.h"
#include "signal/stats.h"

// Global allocation counter for the steady-state no-allocation tests. The
// replacement pair is malloc/free underneath, which GCC's mismatch
// heuristic cannot see through once it inlines them.
namespace {
std::atomic<long> g_allocations{0};
}  // namespace

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace sy::features {
namespace {

using std::numbers::pi;

std::vector<double> tone(std::size_t n, double freq, double rate, double amp,
                         double offset) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = offset + amp * std::sin(2.0 * pi * freq * static_cast<double>(i) / rate);
  }
  return x;
}

TEST(FeatureNames, AllDistinct) {
  std::set<std::string> names;
  for (const FeatureId id : kAllFeatures) names.insert(feature_name(id));
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kFeatureCount));
}

TEST(SelectedFeatures, MatchPaperEq2) {
  // 4 time-domain + 3 frequency-domain; Ran and Peak2 f excluded.
  ASSERT_EQ(kSelectedFeatures.size(), 7u);
  for (const FeatureId id : kSelectedFeatures) {
    EXPECT_NE(id, FeatureId::kRan);
    EXPECT_NE(id, FeatureId::kPeak2F);
  }
}

TEST(WindowFeatures, TimeDomainOnKnownTone) {
  FeatureConfig config;
  const FeatureExtractor extractor(config);
  // 300-sample window at 50 Hz: tone at exactly 2 Hz, amplitude 1.5, offset 9.
  const auto window = tone(300, 2.0, 50.0, 1.5, 9.0);
  const auto f = extractor.window_features(window);
  EXPECT_NEAR(f.mean, 9.0, 1e-9);
  EXPECT_NEAR(f.var, 1.5 * 1.5 / 2.0, 1e-6);  // A^2/2 over whole cycles
  // The sampling grid does not hit the exact crest/trough (25 samples per
  // cycle), so max/min are within one sample step of the envelope.
  EXPECT_NEAR(f.max, 10.5, 0.02);
  EXPECT_NEAR(f.min, 7.5, 0.02);
  EXPECT_NEAR(f.ran, 3.0, 0.04);
}

TEST(WindowFeatures, FrequencyDomainOnKnownTone) {
  FeatureConfig config;
  const FeatureExtractor extractor(config);
  const auto window = tone(300, 2.0, 50.0, 1.5, 9.0);
  const auto f = extractor.window_features(window);
  // 2 Hz tone: padded to 512 bins -> resolution 0.0977 Hz.
  EXPECT_NEAR(f.peak_f, 2.0, 0.1);
  EXPECT_NEAR(f.peak, 1.5, 0.25);  // leakage tolerated
  EXPECT_LT(f.peak2, f.peak);      // secondary below main
}

TEST(WindowFeatures, PadVsNoPadAgreeOnBinAlignedTone) {
  FeatureConfig padded;
  padded.pad_to_pow2 = true;
  FeatureConfig direct;
  direct.pad_to_pow2 = false;
  const FeatureExtractor a(padded), b(direct);
  // Tone aligned to both grids: 300 samples, 50 Hz, 1 Hz = bin 6 (300) and
  // close to bin 10.24 (512)... use 2.0833 Hz = bin 12.5? Use 50/300*12=2Hz
  // aligned for direct; padded peak frequency within one padded bin.
  const auto window = tone(300, 2.0, 50.0, 1.0, 0.0);
  const auto fa = a.window_features(window);
  const auto fb = b.window_features(window);
  EXPECT_NEAR(fa.peak_f, fb.peak_f, 0.1);
  EXPECT_NEAR(fa.mean, fb.mean, 1e-12);
  EXPECT_NEAR(fa.var, fb.var, 1e-12);
}

TEST(StreamFeatures, WindowCount) {
  FeatureConfig config;  // 6 s windows, 6 s hop @50 Hz = 300 samples
  const FeatureExtractor extractor(config);
  const auto samples = tone(1000, 2.0, 50.0, 1.0, 0.0);
  const auto features = extractor.stream_features(samples);
  EXPECT_EQ(features.size(), 3u);
}

TEST(AuthVectors, DimensionsMatchEq3AndEq4) {
  util::Rng rng(31);
  const sensors::UserProfile user = sensors::UserProfile::sample(0, rng);
  const auto env =
      sensors::SessionEnvironment::sample(sensors::UsageContext::kMoving, rng);
  sensors::SynthesisOptions options;
  options.duration_seconds = 30.0;
  const auto pair = sensors::synthesize_session(
      user, sensors::UsageContext::kMoving, env, options, rng);

  const FeatureExtractor extractor{FeatureConfig{}};
  const auto phone_only = extractor.auth_vectors(pair.phone, nullptr);
  ASSERT_EQ(phone_only.size(), 5u);  // 30 s / 6 s
  EXPECT_EQ(phone_only[0].size(), 14u);

  const auto combined = extractor.auth_vectors(pair.phone, &pair.watch);
  ASSERT_EQ(combined.size(), 5u);
  EXPECT_EQ(combined[0].size(), 28u);

  // Phone block identical in both assemblies (Eq. 4 concatenation).
  for (std::size_t k = 0; k < combined.size(); ++k) {
    for (std::size_t j = 0; j < 14; ++j) {
      EXPECT_DOUBLE_EQ(combined[k][j], phone_only[k][j]);
    }
  }
  EXPECT_EQ(FeatureExtractor::auth_dim(false), 14u);
  EXPECT_EQ(FeatureExtractor::auth_dim(true), 28u);
}

TEST(ContextVectors, AlwaysPhoneOnly) {
  util::Rng rng(32);
  const sensors::UserProfile user = sensors::UserProfile::sample(0, rng);
  const auto env = sensors::SessionEnvironment::sample(
      sensors::UsageContext::kStationaryUse, rng);
  sensors::SynthesisOptions options;
  options.duration_seconds = 12.0;
  const auto pair = sensors::synthesize_session(
      user, sensors::UsageContext::kStationaryUse, env, options, rng);
  const FeatureExtractor extractor{FeatureConfig{}};
  const auto vectors = extractor.context_vectors(pair.phone);
  ASSERT_EQ(vectors.size(), 2u);
  EXPECT_EQ(vectors[0].size(), 14u);
}

TEST(AuthVectors, SelectedFeatureOrderIsStable) {
  // The vector layout is [acc:mean,var,max,min,peak,peak_f,peak2, gyr:...]
  // per device. Verify the accel-mean slot by construction.
  util::Rng rng(33);
  const sensors::UserProfile user = sensors::UserProfile::sample(0, rng);
  const auto env =
      sensors::SessionEnvironment::sample(sensors::UsageContext::kMoving, rng);
  sensors::SynthesisOptions options;
  options.duration_seconds = 6.0;
  const auto pair = sensors::synthesize_session(
      user, sensors::UsageContext::kMoving, env, options, rng);

  const FeatureExtractor extractor{FeatureConfig{}};
  const auto vectors = extractor.auth_vectors(pair.phone, nullptr);
  ASSERT_EQ(vectors.size(), 1u);
  const auto accel_features =
      extractor.window_features(pair.phone.accel.magnitude());
  EXPECT_DOUBLE_EQ(vectors[0][0], accel_features.mean);
  EXPECT_DOUBLE_EQ(vectors[0][1], accel_features.var);
  EXPECT_DOUBLE_EQ(vectors[0][4], accel_features.peak);
  const auto gyro_features =
      extractor.window_features(pair.phone.gyro.magnitude());
  EXPECT_DOUBLE_EQ(vectors[0][7], gyro_features.mean);
}

TEST(FeatureExtractor, EmptyWindowConfigThrows) {
  FeatureConfig config;
  config.window.window_seconds = 0.0;
  EXPECT_THROW(FeatureExtractor{config}, std::invalid_argument);
}

TEST(StreamFeatures, GetCoversAllIds) {
  StreamFeatures f;
  f.mean = 1;
  f.var = 2;
  f.max = 3;
  f.min = 4;
  f.ran = 5;
  f.peak = 6;
  f.peak_f = 7;
  f.peak2 = 8;
  f.peak2_f = 9;
  double expected = 1.0;
  for (const FeatureId id : kAllFeatures) {
    EXPECT_DOUBLE_EQ(f.get(id), expected);
    expected += 1.0;
  }
}

// --- Equivalence with the complex-DFT reference ---------------------------

// The reference extractor, assembled from the public signal/ pieces: one
// RunningStats pass, then the DC-removed, zero-padded window through
// magnitude_spectrum() and find_peaks().
StreamFeatures oracle_features(std::span<const double> window,
                               const FeatureConfig& config) {
  StreamFeatures f;
  signal::RunningStats stats;
  for (const double v : window) stats.add(v);
  f.mean = stats.mean();
  f.var = stats.variance();
  f.max = stats.max();
  f.min = stats.min();
  f.ran = stats.range();
  const double dc = config.remove_dc ? f.mean : 0.0;
  std::vector<double> buf;
  for (const double v : window) buf.push_back(v - dc);
  std::size_t padded = buf.size();
  if (config.pad_to_pow2 && !signal::is_power_of_two(padded)) {
    std::size_t p = 1;
    while (p < buf.size()) p <<= 1;
    padded = p;
    buf.resize(padded, 0.0);
  }
  const auto mag = signal::magnitude_spectrum(buf);
  const auto peaks = signal::find_peaks(mag, padded,
                                        config.window.sample_rate_hz,
                                        config.peak_guard_hz);
  const double rescale =
      static_cast<double>(padded) / static_cast<double>(window.size());
  f.peak = peaks.peak_amplitude * rescale;
  f.peak_f = peaks.peak_frequency_hz;
  f.peak2 = peaks.peak2_amplitude * rescale;
  f.peak2_f = peaks.peak2_frequency_hz;
  return f;
}

// Every feature within 1e-12 * max(1, |oracle|); the peak frequencies
// bit-equal (unless `exact_bins` is off); NaN exactly where the oracle has
// NaN, infinities equal.
void expect_matches_oracle(const StreamFeatures& got,
                           const StreamFeatures& want, const std::string& where,
                           bool exact_bins = true) {
  for (const FeatureId id : kAllFeatures) {
    const double g = got.get(id);
    const double w = want.get(id);
    const std::string what = where + " " + feature_name(id);
    if (id == FeatureId::kPeakF || id == FeatureId::kPeak2F) {
      if (exact_bins) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(g),
                  std::bit_cast<std::uint64_t>(w))
            << what << ": " << g << " vs " << w;
      }
    } else if (std::isnan(w) || std::isinf(w)) {
      EXPECT_EQ(std::isnan(g), std::isnan(w)) << what << ": " << g;
      if (std::isinf(w)) {
        EXPECT_EQ(g, w) << what;
      }
    } else {
      EXPECT_NEAR(g, w, 1e-12 * std::max(1.0, std::abs(w))) << what;
    }
  }
}

FeatureConfig sized_config(std::size_t n, bool pad, bool remove_dc) {
  FeatureConfig config;
  config.window.window_seconds =
      static_cast<double>(n) / config.window.sample_rate_hz;
  config.window.hop_seconds = config.window.window_seconds;
  config.pad_to_pow2 = pad;
  config.remove_dc = remove_dc;
  return config;
}

// Checks `window` against the oracle under all four pad/DC settings, with an
// extractor sized to the window (its own plan) and the default 300-sample
// one (a per-call plan for any other length). `flat_padded_spectrum` marks a
// window whose zero-padded spectrum, DC kept, has all non-DC bins equal in
// exact arithmetic: there the oracle's peak bins are picked by rounding
// noise, so only the amplitudes are compared.
void check_all_configs(std::span<const double> window,
                       const std::string& where,
                       bool flat_padded_spectrum = false) {
  for (const bool pad : {true, false}) {
    for (const bool remove_dc : {true, false}) {
      const FeatureConfig config = sized_config(window.size(), pad, remove_dc);
      ASSERT_EQ(config.window.window_samples(), window.size());
      FeatureConfig default_window;
      default_window.pad_to_pow2 = pad;
      default_window.remove_dc = remove_dc;
      const auto want = oracle_features(window, config);
      const std::string tag = where + " n=" + std::to_string(window.size()) +
                              " pad=" + std::to_string(pad) +
                              " dc=" + std::to_string(remove_dc);
      const bool exact_bins = !(flat_padded_spectrum && pad && !remove_dc);
      expect_matches_oracle(FeatureExtractor(config).window_features(window),
                            want, tag + " sized", exact_bins);
      expect_matches_oracle(
          FeatureExtractor(default_window).window_features(window), want,
          tag + " default", exact_bins);
    }
  }
}

constexpr std::size_t kOracleLengths[] = {2,   3,   255, 256, 257,
                                          300, 511, 512, 1000};

TEST(WindowFeaturesOracle, SynthesizedSensorMagnitudes) {
  util::Rng rng(41);
  const sensors::UserProfile user = sensors::UserProfile::sample(0, rng);
  for (const auto context :
       {sensors::UsageContext::kMoving, sensors::UsageContext::kStationaryUse}) {
    const auto env = sensors::SessionEnvironment::sample(context, rng);
    sensors::SynthesisOptions options;
    options.duration_seconds = 30.0;
    const auto pair =
        sensors::synthesize_session(user, context, env, options, rng);
    const std::vector<double> streams[] = {
        pair.phone.accel.magnitude(), pair.phone.gyro.magnitude(),
        pair.watch.accel.magnitude(), pair.watch.gyro.magnitude()};
    for (const auto& stream : streams) {
      for (const std::size_t n : kOracleLengths) {
        ASSERT_GE(stream.size(), n + 37);
        check_all_configs(std::span<const double>(stream).subspan(37, n),
                          "sensor " + sensors::to_string(context));
      }
    }
  }
}

TEST(WindowFeaturesOracle, GaussianNoise) {
  util::Rng rng(42);
  for (const std::size_t n : kOracleLengths) {
    for (const double offset : {0.0, 9.81, -250.0}) {
      std::vector<double> x(n);
      for (auto& v : x) v = rng.gaussian(offset, 1.7);
      check_all_configs(x, "noise");
    }
  }
}

TEST(WindowFeaturesOracle, PureTones) {
  for (const std::size_t n : kOracleLengths) {
    for (const double freq : {0.73, 2.0, 4.1, 11.3}) {
      check_all_configs(tone(n, freq, 50.0, 1.5, 9.0), "tone");
      check_all_configs(tone(n, freq, 50.0, 0.2, 0.0), "tone");
    }
  }
}

TEST(WindowFeaturesOracle, ConstantAndZeroWindowsTieOnFirstBin) {
  for (const std::size_t n : kOracleLengths) {
    for (const double c : {0.0, 9.81}) {
      const std::vector<double> x(n, c);
      // n = 2^k - 1 ones padded to 2^k: every non-DC bin has magnitude 1.
      const bool flat = c != 0.0 && n > 1 && std::has_single_bit(n + 1);
      check_all_configs(x, "constant " + std::to_string(c), flat);
      // Every non-DC bin of a DC-free constant window is exactly zero: the
      // first-maximum rule puts the main peak at bin 1.
      for (const bool pad : {true, false}) {
        const FeatureConfig config = sized_config(n, pad, true);
        const auto f = FeatureExtractor(config).window_features(x);
        const std::size_t padded = pad ? std::bit_ceil(n) : n;
        EXPECT_EQ(f.peak, 0.0);
        EXPECT_EQ(f.peak_f, signal::bin_frequency(
                                1, padded, config.window.sample_rate_hz));
      }
    }
  }
}

// --- Non-finite windows ------------------------------------------------------

TEST(WindowFeaturesOracle, NonFiniteSamplesMatchOracle) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  util::Rng rng(43);
  for (const std::size_t n : {256, 300}) {
    std::vector<double> base(n);
    for (auto& v : base) v = rng.gaussian(9.81, 1.0);
    for (const double bad : {nan, inf, -inf}) {
      for (const std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
        auto x = base;
        x[at] = bad;
        check_all_configs(x, "non-finite " + std::to_string(bad) + "@" +
                                 std::to_string(at));
      }
    }
    auto both = base;
    both[3] = inf;
    both[n - 4] = -inf;
    check_all_configs(both, "+inf and -inf");
    // Finite samples whose spectrum overflows take the reference path too.
    auto huge = base;
    for (auto& v : huge) v *= 1e305;
    check_all_configs(huge, "huge");
  }
}

TEST(WindowFeaturesOracle, NonFiniteContractSpelledOut) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const FeatureExtractor extractor{FeatureConfig{}};
  std::vector<double> x = tone(300, 2.0, 50.0, 1.5, 9.0);

  // A NaN after the first sample: mean/var NaN, min/max ignore it.
  auto mid = x;
  mid[150] = nan;
  auto f = extractor.window_features(mid);
  EXPECT_TRUE(std::isnan(f.mean));
  EXPECT_TRUE(std::isnan(f.var));
  EXPECT_NEAR(f.max, 10.5, 0.02);
  EXPECT_NEAR(f.min, 7.5, 0.02);
  EXPECT_TRUE(std::isnan(f.peak));
  EXPECT_TRUE(std::isnan(f.peak2));
  EXPECT_EQ(f.peak_f, signal::bin_frequency(1, 512, 50.0));

  // A NaN first sample sticks in min/max.
  auto first = x;
  first[0] = nan;
  f = extractor.window_features(first);
  EXPECT_TRUE(std::isnan(f.min));
  EXPECT_TRUE(std::isnan(f.max));
  EXPECT_TRUE(std::isnan(f.ran));

  // +Inf is an ordinary maximum; the moments are non-finite.
  auto spike = x;
  spike[10] = inf;
  f = extractor.window_features(spike);
  EXPECT_EQ(f.max, inf);
  EXPECT_NEAR(f.min, 7.5, 0.02);
  EXPECT_EQ(f.ran, inf);
  EXPECT_FALSE(std::isfinite(f.mean));
  EXPECT_TRUE(std::isnan(f.var));
  EXPECT_TRUE(std::isnan(f.peak));

  // Without DC removal the infinite sample dominates every bin.
  FeatureConfig keep_dc;
  keep_dc.remove_dc = false;
  f = FeatureExtractor(keep_dc).window_features(spike);
  EXPECT_EQ(f.peak, inf);
  EXPECT_EQ(f.peak2, inf);
}

// --- Steady-state allocations -----------------------------------------------

TEST(WindowFeatures, SteadyStateWindowDoesNotAllocate) {
  const FeatureExtractor extractor{FeatureConfig{}};
  const auto window = tone(300, 2.0, 50.0, 1.5, 9.0);
  (void)extractor.window_features(window);  // grows this thread's scratch
  const long before = g_allocations.load();
  const auto f = extractor.window_features(window);
  EXPECT_EQ(g_allocations.load() - before, 0);
  EXPECT_NEAR(f.peak_f, 2.0, 0.1);
}

TEST(AuthVectors, SteadyStateWindowAllocatesOnlyTheResult) {
  util::Rng rng(44);
  const sensors::UserProfile user = sensors::UserProfile::sample(0, rng);
  const auto env =
      sensors::SessionEnvironment::sample(sensors::UsageContext::kMoving, rng);
  sensors::SynthesisOptions options;
  options.duration_seconds = 6.0;
  const auto pair = sensors::synthesize_session(
      user, sensors::UsageContext::kMoving, env, options, rng);
  const FeatureExtractor extractor{FeatureConfig{}};
  const auto warm = extractor.auth_vectors(pair.phone, &pair.watch);
  const long before = g_allocations.load();
  const auto vectors = extractor.auth_vectors(pair.phone, &pair.watch);
  // The outer vector and the one 28-dim window vector.
  EXPECT_EQ(g_allocations.load() - before, 2);
  ASSERT_EQ(vectors.size(), 1u);
  EXPECT_EQ(vectors, warm);
}

TEST(AuthVectors, MatchPerStreamWindowFeatures) {
  util::Rng rng(45);
  const sensors::UserProfile user = sensors::UserProfile::sample(0, rng);
  const auto env =
      sensors::SessionEnvironment::sample(sensors::UsageContext::kMoving, rng);
  sensors::SynthesisOptions options;
  options.duration_seconds = 20.0;
  const auto pair = sensors::synthesize_session(
      user, sensors::UsageContext::kMoving, env, options, rng);
  const FeatureExtractor extractor{FeatureConfig{}};
  const auto vectors = extractor.auth_vectors(pair.phone, &pair.watch);
  const std::vector<StreamFeatures> streams[] = {
      extractor.stream_features(pair.phone.accel.magnitude()),
      extractor.stream_features(pair.phone.gyro.magnitude()),
      extractor.stream_features(pair.watch.accel.magnitude()),
      extractor.stream_features(pair.watch.gyro.magnitude())};
  ASSERT_EQ(vectors.size(), 3u);  // 20 s / 6 s, trailing 2 s dropped
  for (std::size_t k = 0; k < vectors.size(); ++k) {
    std::vector<double> want;
    for (const auto& s : streams) {
      for (const FeatureId id : kSelectedFeatures) want.push_back(s[k].get(id));
    }
    EXPECT_EQ(vectors[k], want) << "window " << k;
  }
}

}  // namespace
}  // namespace sy::features
