#include "signal/dft.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace sy::signal {
namespace {

// One block of radix-2 butterflies: a' = a + w*b, b' = a - w*b elementwise.
// The halves never overlap, which lets the loop vectorize.
void butterflies(double* __restrict ar, double* __restrict ai,
                 double* __restrict br, double* __restrict bi,
                 const double* __restrict wr, const double* __restrict wi,
                 std::size_t h) {
  for (std::size_t k = 0; k < h; ++k) {
    const double tr = wr[k] * br[k] - wi[k] * bi[k];
    const double ti = wr[k] * bi[k] + wi[k] * br[k];
    br[k] = ar[k] - tr;
    bi[k] = ai[k] - ti;
    ar[k] += tr;
    ai[k] += ti;
  }
}

}  // namespace

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

void fft_radix2(std::vector<std::complex<double>>& x) {
  const std::size_t n = x.size();
  if (!is_power_of_two(n)) {
    throw std::invalid_argument("fft_radix2: size must be a power of two");
  }
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  // Danielson-Lanczos stages.
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = -2.0 * std::numbers::pi / static_cast<double>(len);
    const std::complex<double> wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = x[i + k];
        const std::complex<double> v = x[i + k + len / 2] * w;
        x[i + k] = u + v;
        x[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

std::vector<std::complex<double>> dft(std::span<const double> x) {
  const std::size_t n = x.size();
  std::vector<std::complex<double>> out(n);
  if (n == 0) return out;

  if (is_power_of_two(n)) {
    for (std::size_t i = 0; i < n; ++i) out[i] = {x[i], 0.0};
    fft_radix2(out);
    return out;
  }

  // Direct DFT with recurrence-based twiddle factors per output bin.
  for (std::size_t k = 0; k < n; ++k) {
    const double angle =
        -2.0 * std::numbers::pi * static_cast<double>(k) / static_cast<double>(n);
    const std::complex<double> w(std::cos(angle), std::sin(angle));
    std::complex<double> wn(1.0, 0.0);
    std::complex<double> acc(0.0, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      acc += x[i] * wn;
      wn *= w;
    }
    out[k] = acc;
  }
  return out;
}

std::vector<double> magnitude_spectrum(std::span<const double> x) {
  const std::size_t n = x.size();
  if (n == 0) return {};
  const auto spec = dft(x);
  const std::size_t half = n / 2;
  std::vector<double> mag(half + 1);
  for (std::size_t k = 0; k <= half; ++k) {
    double m = std::abs(spec[k]) / static_cast<double>(n);
    const bool is_dc = (k == 0);
    const bool is_nyquist = (n % 2 == 0 && k == half);
    if (!is_dc && !is_nyquist) m *= 2.0;
    mag[k] = m;
  }
  return mag;
}

RealFftPlan::RealFftPlan(std::size_t n) : n_(n) {
  if (n < 2 || !is_power_of_two(n)) {
    throw std::invalid_argument(
        "RealFftPlan: size must be a power of two >= 2");
  }
  const std::size_t m = n / 2;
  int bits = 0;
  while ((std::size_t{1} << bits) < m) ++bits;
  bitrev_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    std::size_t r = 0;
    for (int b = 0; b < bits; ++b) r |= ((i >> b) & 1U) << (bits - 1 - b);
    bitrev_[i] = static_cast<std::uint32_t>(r);
  }
  // Stage twiddles, one contiguous run per butterfly half-width h: the run
  // for h starts at h-1 (1 + 2 + ... + h/2 entries precede it).
  stage_re_.resize(m > 1 ? m - 1 : 0);
  stage_im_.resize(stage_re_.size());
  for (std::size_t h = 1; h < m; h <<= 1) {
    for (std::size_t k = 0; k < h; ++k) {
      const double angle = -std::numbers::pi * static_cast<double>(k) /
                           static_cast<double>(h);
      stage_re_[h - 1 + k] = std::cos(angle);
      stage_im_[h - 1 + k] = std::sin(angle);
    }
  }
  split_re_.resize(m);
  split_im_.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    const double angle = -2.0 * std::numbers::pi * static_cast<double>(k) /
                         static_cast<double>(n);
    split_re_[k] = std::cos(angle);
    split_im_[k] = std::sin(angle);
  }
}

void RealFftPlan::magnitude_spectrum(std::span<const double> x, double offset,
                                     std::span<double> work,
                                     std::span<double> out) const {
  if (x.size() > n_ || work.size() < n_ || out.size() < bins()) {
    throw std::invalid_argument("RealFftPlan: buffer sizes do not fit plan");
  }
  const std::size_t m = n_ / 2;
  const std::size_t len = x.size();
  double* __restrict re = work.data();  // the halves of `work` are disjoint
  double* __restrict im = re + m;

  // Load z[j] = x[2j] + i*x[2j+1] into its bit-reversed position, removing
  // the offset; positions past the window stay zero (the padding).
  std::fill(re, re + 2 * m, 0.0);
  const std::size_t pairs = len / 2;
  for (std::size_t j = 0; j < pairs; ++j) {
    const std::size_t p = bitrev_[j];
    re[p] = x[2 * j] - offset;
    im[p] = x[2 * j + 1] - offset;
  }
  if (len % 2 != 0) re[bitrev_[pairs]] = x[len - 1] - offset;

  // Iterative radix-2 butterflies over the m-point complex sequence. The
  // first two stages have twiddles 1 and -i and run fused, without
  // multiplies; the rest are long unit-stride loops.
  std::size_t h = 1;
  if (m >= 4) {
    for (std::size_t j = 0; j < m; j += 4) {
      const double r0 = re[j] + re[j + 1], i0 = im[j] + im[j + 1];
      const double r1 = re[j] - re[j + 1], i1 = im[j] - im[j + 1];
      const double r2 = re[j + 2] + re[j + 3], i2 = im[j + 2] + im[j + 3];
      const double r3 = re[j + 2] - re[j + 3], i3 = im[j + 2] - im[j + 3];
      re[j] = r0 + r2;
      im[j] = i0 + i2;
      re[j + 2] = r0 - r2;
      im[j + 2] = i0 - i2;
      re[j + 1] = r1 + i3;  // + (-i) * (r3 + i*i3)
      im[j + 1] = i1 - r3;
      re[j + 3] = r1 - i3;
      im[j + 3] = i1 + r3;
    }
    h = 4;
  }
  for (; h < m; h <<= 1) {
    const double* wr = stage_re_.data() + (h - 1);
    const double* wi = stage_im_.data() + (h - 1);
    for (std::size_t j = 0; j < m; j += 2 * h) {
      butterflies(re + j, im + j, re + j + h, im + j + h, wr, wi, h);
    }
  }

  // Split: with Z = FFT(z), 2X[k] = (Z[k] + conj(Z[m-k]))
  //                            - i W^k (Z[k] - conj(Z[m-k])), W = e^{-2 pi i/n}.
  // Bin scaling follows magnitude_spectrum(): |X|/n, doubled off DC and
  // Nyquist — so the doubled bins are |2X|/n.
  const double inv_n = 1.0 / static_cast<double>(n_);
  out[0] = std::abs(re[0] + im[0]) * inv_n;
  out[m] = std::abs(re[0] - im[0]) * inv_n;
  for (std::size_t k = 1; k < m; ++k) {
    const double a = re[k], b = im[k];
    const double c = re[m - k], d = im[m - k];
    const double er = a + c, ei = b - d;  // 2 * even part
    const double orr = b + d, oi = c - a;  // 2 * odd part
    const double xr = er + split_re_[k] * orr - split_im_[k] * oi;
    const double xi = ei + split_re_[k] * oi + split_im_[k] * orr;
    out[k] = std::sqrt(xr * xr + xi * xi) * inv_n;
  }
}

double bin_frequency(std::size_t k, std::size_t n, double sample_rate_hz) {
  if (n == 0) throw std::invalid_argument("bin_frequency: empty window");
  return sample_rate_hz * static_cast<double>(k) / static_cast<double>(n);
}

}  // namespace sy::signal
