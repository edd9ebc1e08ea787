// Discrete Fourier transform of real sensor windows.
//
// The feature extractor needs the magnitude spectrum of each ~50 Hz sensor
// window (§V-C). Two paths compute it:
//
// * RealFftPlan — the hot path. A real signal of power-of-two length N is
//   packed into an N/2-point complex sequence (even samples real, odd
//   samples imaginary), transformed by a radix-2 FFT over precomputed
//   twiddle and bit-reversal tables in plain double arithmetic, and split
//   into bins 0..N/2. An offset subtraction (DC removal) and zero padding
//   are folded into the load, so a window goes from raw samples to
//   magnitudes with no allocation. It agrees with magnitude_spectrum() to
//   ~1e-15 relative, not bit for bit.
// * dft() / magnitude_spectrum() — the reference. Power-of-two lengths go
//   through the complex radix-2 FFT, other lengths through a direct O(n^2)
//   DFT, which at n <= 800 is still microseconds — well inside the paper's
//   21 ms end-to-end budget.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace sy::signal {

// Full complex DFT: X[k] = sum_n x[n] exp(-2*pi*i*k*n/N).
std::vector<std::complex<double>> dft(std::span<const double> x);

// In-place radix-2 FFT; size must be a power of two.
void fft_radix2(std::vector<std::complex<double>>& x);

// One-sided magnitude spectrum (bins 0..N/2), with the DFT scaled by 1/N and
// non-DC/non-Nyquist bins doubled so a pure sinusoid of amplitude A produces
// a bin value of A. `sample_rate_hz` maps bins to frequencies via
// bin_frequency().
std::vector<double> magnitude_spectrum(std::span<const double> x);

// Frequency (Hz) of one-sided-spectrum bin `k` for window length `n`.
double bin_frequency(std::size_t k, std::size_t n, double sample_rate_hz);

bool is_power_of_two(std::size_t n);

// Precomputed tables for the one-sided magnitude spectrum of a real signal
// of power-of-two length n >= 2. Immutable after construction, so one plan
// serves any number of threads.
class RealFftPlan {
 public:
  // Throws std::invalid_argument unless n is a power of two >= 2.
  explicit RealFftPlan(std::size_t n);

  std::size_t size() const { return n_; }
  std::size_t bins() const { return n_ / 2 + 1; }

  // Writes magnitude_spectrum() of the length-size() signal
  // (x[0] - offset, ..., x[len-1] - offset, 0, ..., 0) into `out` (at least
  // bins() values), using `work` (at least size() values) as scratch.
  // Requires x.size() <= size(). Inputs whose squared bin magnitudes
  // overflow (samples beyond ~1e150, or NaN/Inf) are outside its accuracy
  // contract; callers route those through magnitude_spectrum().
  void magnitude_spectrum(std::span<const double> x, double offset,
                          std::span<double> work,
                          std::span<double> out) const;

 private:
  std::size_t n_;
  std::vector<std::uint32_t> bitrev_;        // n/2 entries
  std::vector<double> stage_re_, stage_im_;  // exp(-2*pi*i*k/(2h)) at h-1+k
  std::vector<double> split_re_, split_im_;  // exp(-2*pi*i*k/n), k < n/2
};

}  // namespace sy::signal
