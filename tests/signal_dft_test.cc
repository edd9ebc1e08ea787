#include "signal/dft.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "signal/spectrum.h"
#include "util/rng.h"

namespace sy::signal {
namespace {

using std::numbers::pi;

std::vector<double> sinusoid(std::size_t n, double freq_hz, double rate_hz,
                             double amplitude, double phase = 0.0) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = amplitude *
           std::sin(2.0 * pi * freq_hz * static_cast<double>(i) / rate_hz + phase);
  }
  return x;
}

TEST(Dft, FftMatchesDirectOnRandomInput) {
  util::Rng rng(21);
  // 96 is not a power of two -> direct path; 128 -> FFT path. Compare both
  // against each other through zero-padding equivalence is fiddly, so
  // instead verify FFT against a brute-force DFT at power-of-two size.
  const std::size_t n = 128;
  std::vector<double> x(n);
  for (auto& v : x) v = rng.gaussian();

  const auto fast = dft(x);
  // Brute force.
  for (std::size_t k = 0; k < n; k += 17) {
    std::complex<double> acc{0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
      const double angle = -2.0 * pi * static_cast<double>(k * i) / static_cast<double>(n);
      acc += x[i] * std::complex<double>(std::cos(angle), std::sin(angle));
    }
    EXPECT_NEAR(std::abs(fast[k] - acc), 0.0, 1e-9);
  }
}

TEST(Dft, DirectPathMatchesBruteForce) {
  util::Rng rng(22);
  const std::size_t n = 60;  // not a power of two
  std::vector<double> x(n);
  for (auto& v : x) v = rng.gaussian();

  const auto out = dft(x);
  for (std::size_t k = 0; k < n; k += 7) {
    std::complex<double> acc{0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
      const double angle = -2.0 * pi * static_cast<double>(k * i) / static_cast<double>(n);
      acc += x[i] * std::complex<double>(std::cos(angle), std::sin(angle));
    }
    EXPECT_NEAR(std::abs(out[k] - acc), 0.0, 1e-7);
  }
}

TEST(Dft, ParsevalHolds) {
  util::Rng rng(23);
  const std::size_t n = 256;
  std::vector<double> x(n);
  for (auto& v : x) v = rng.gaussian();
  double time_energy = 0.0;
  for (const double v : x) time_energy += v * v;
  const auto spec = dft(x);
  double freq_energy = 0.0;
  for (const auto& c : spec) freq_energy += std::norm(c);
  freq_energy /= static_cast<double>(n);
  EXPECT_NEAR(time_energy, freq_energy, 1e-6 * time_energy);
}

TEST(Dft, FftRejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> x(100);
  EXPECT_THROW(fft_radix2(x), std::invalid_argument);
}

TEST(MagnitudeSpectrum, PureToneAmplitude) {
  // Bin-aligned tone: amplitude must be recovered exactly.
  const std::size_t n = 256;
  const double rate = 50.0;
  const double freq = 8.0 * rate / static_cast<double>(n);  // bin 8
  const auto x = sinusoid(n, freq, rate, 2.5);
  const auto mag = magnitude_spectrum(x);
  EXPECT_NEAR(mag[8], 2.5, 1e-9);
  // All other bins near zero.
  for (std::size_t k = 0; k < mag.size(); ++k) {
    if (k != 8) EXPECT_LT(mag[k], 1e-9);
  }
}

TEST(MagnitudeSpectrum, DcComponent) {
  std::vector<double> x(64, 3.0);
  const auto mag = magnitude_spectrum(x);
  EXPECT_NEAR(mag[0], 3.0, 1e-12);  // DC not doubled
}

TEST(MagnitudeSpectrum, EmptyInput) {
  EXPECT_TRUE(magnitude_spectrum({}).empty());
}

TEST(BinFrequency, MapsCorrectly) {
  EXPECT_DOUBLE_EQ(bin_frequency(0, 300, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(bin_frequency(6, 300, 50.0), 1.0);
  EXPECT_DOUBLE_EQ(bin_frequency(150, 300, 50.0), 25.0);
}

TEST(SpectralPeaks, FindsMainAndSecondary) {
  const std::size_t n = 512;
  const double rate = 50.0;
  // Main at bin 20 (1.953 Hz) amplitude 2.0; secondary at bin 40, 0.8.
  const double f1 = 20.0 * rate / n;
  const double f2 = 40.0 * rate / n;
  auto x = sinusoid(n, f1, rate, 2.0);
  const auto y = sinusoid(n, f2, rate, 0.8, 0.7);
  for (std::size_t i = 0; i < n; ++i) x[i] += y[i];

  const auto peaks = spectral_peaks(x, rate);
  EXPECT_NEAR(peaks.peak_amplitude, 2.0, 0.05);
  EXPECT_NEAR(peaks.peak_frequency_hz, f1, 1e-9);
  EXPECT_NEAR(peaks.peak2_amplitude, 0.8, 0.05);
  EXPECT_NEAR(peaks.peak2_frequency_hz, f2, 1e-9);
}

TEST(SpectralPeaks, SecondaryExcludesNeighbours) {
  // A single strong tone with leakage: the secondary peak must not be an
  // immediate neighbour bin of the main peak.
  const std::size_t n = 300;  // non-aligned tone -> leakage
  const double rate = 50.0;
  const auto x = sinusoid(n, 1.93, rate, 2.0);
  const auto peaks = spectral_peaks(x, rate);
  const double df = rate / static_cast<double>(n);
  EXPECT_GT(std::abs(peaks.peak2_frequency_hz - peaks.peak_frequency_hz),
            1.5 * df);
}

TEST(SpectralPeaks, HandlesTinyInput) {
  const std::vector<double> x{1.0};
  const auto peaks = spectral_peaks(x, 50.0);
  EXPECT_DOUBLE_EQ(peaks.peak_amplitude, 0.0);
}

// Real-input FFT plan against the complex reference, power-of-two sizes
// 2..4096: full-length windows, and shorter ones with an offset removed and
// zero padding, as the feature extractor loads them.
TEST(RealFftPlan, MatchesMagnitudeSpectrum) {
  util::Rng rng(24);
  for (std::size_t n = 2; n <= 4096; n <<= 1) {
    const RealFftPlan plan(n);
    ASSERT_EQ(plan.size(), n);
    ASSERT_EQ(plan.bins(), n / 2 + 1);
    std::vector<double> work(n), out(plan.bins());
    for (const std::size_t len : {n, n - n / 4, n / 2 + 1}) {
      std::vector<double> x(len);
      for (auto& v : x) v = rng.gaussian(9.81, 2.0);
      for (const double offset : {0.0, 9.81}) {
        std::vector<double> ref_in(n, 0.0);
        for (std::size_t i = 0; i < len; ++i) ref_in[i] = x[i] - offset;
        const auto want = magnitude_spectrum(ref_in);
        plan.magnitude_spectrum(x, offset, work, out);
        ASSERT_EQ(want.size(), plan.bins());
        double largest = 0.0;
        for (const double m : want) largest = std::max(largest, m);
        for (std::size_t k = 0; k < want.size(); ++k) {
          EXPECT_NEAR(out[k], want[k], 1e-12 * largest)
              << "n=" << n << " len=" << len << " offset=" << offset
              << " bin " << k;
        }
      }
    }
  }
}

TEST(RealFftPlan, PureToneAmplitude) {
  const std::size_t n = 512;
  const RealFftPlan plan(n);
  const auto x = sinusoid(n, 20.0 * 50.0 / n, 50.0, 2.5);  // bin 20
  std::vector<double> work(n), out(plan.bins());
  plan.magnitude_spectrum(x, 0.0, work, out);
  EXPECT_NEAR(out[20], 2.5, 1e-12);
  for (std::size_t k = 0; k < out.size(); ++k) {
    if (k != 20) {
      EXPECT_LT(out[k], 1e-12) << "bin " << k;
    }
  }
}

TEST(RealFftPlan, RejectsNonPowerOfTwoAndShortBuffers) {
  for (const std::size_t n : {0, 1, 3, 6, 100, 300, 1000}) {
    EXPECT_THROW(RealFftPlan{n}, std::invalid_argument) << n;
  }
  const RealFftPlan plan(8);
  std::vector<double> x(9, 1.0), work(8), out(5);
  EXPECT_THROW(plan.magnitude_spectrum(x, 0.0, work, out),
               std::invalid_argument);
  x.resize(8);
  std::vector<double> short_work(7), short_out(4);
  EXPECT_THROW(plan.magnitude_spectrum(x, 0.0, short_work, out),
               std::invalid_argument);
  EXPECT_THROW(plan.magnitude_spectrum(x, 0.0, work, short_out),
               std::invalid_argument);
}

// Parseval across sizes, both FFT and direct paths.
class DftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DftSizes, ParsevalAcrossSizes) {
  util::Rng rng(GetParam());
  std::vector<double> x(GetParam());
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  double te = 0.0;
  for (const double v : x) te += v * v;
  const auto spec = dft(x);
  double fe = 0.0;
  for (const auto& c : spec) fe += std::norm(c);
  fe /= static_cast<double>(x.size());
  EXPECT_NEAR(te, fe, 1e-6 * (te + 1.0));
}

INSTANTIATE_TEST_SUITE_P(Sizes, DftSizes,
                         ::testing::Values(2, 3, 16, 50, 64, 100, 150, 256,
                                           300, 512));

}  // namespace
}  // namespace sy::signal
