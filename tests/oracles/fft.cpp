#include "oracles/fft.hpp"

#include <cmath>
#include <utility>

#include "mathx/constants.hpp"
#include "mathx/contracts.hpp"

namespace chronos::mathx {

namespace {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// In-place iterative radix-2 DFT with twiddle sign `sign` (-1 forward,
/// +1 inverse, unnormalised).
void fft_radix2(std::vector<std::complex<double>>& a, int sign) {
  const std::size_t n = a.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = sign * kTwoPi / static_cast<double>(len);
    const std::complex<double> wlen(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = a[i + k];
        const std::complex<double> v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

}  // namespace

void fft_pow2(std::vector<std::complex<double>>& data) {
  CHRONOS_EXPECTS(is_pow2(data.size()), "radix-2 FFT requires power-of-two size");
  fft_radix2(data, -1);
}

void ifft_pow2(std::vector<std::complex<double>>& data) {
  CHRONOS_EXPECTS(is_pow2(data.size()), "radix-2 FFT requires power-of-two size");
  fft_radix2(data, +1);
  const double inv = 1.0 / static_cast<double>(data.size());
  for (auto& v : data) v *= inv;
}

std::vector<std::complex<double>> fft(
    std::span<const std::complex<double>> x) {
  CHRONOS_EXPECTS(!x.empty(), "fft of empty input");
  const std::size_t n = x.size();
  if (is_pow2(n)) {
    std::vector<std::complex<double>> data(x.begin(), x.end());
    fft_pow2(data);
    return data;
  }

  // Bluestein: X_k = b*_k . (a ⊛ b) where a_i = x_i b*_i, b_i = e^{jπi²/N}.
  std::vector<std::complex<double>> chirp(n);
  for (std::size_t i = 0; i < n; ++i) {
    // i*i can overflow intermediate precision for huge n; sizes here are
    // small (<= a few thousand), so direct evaluation is exact enough.
    const double phase = kPi * static_cast<double>(i) * static_cast<double>(i) /
                         static_cast<double>(n);
    chirp[i] = std::polar(1.0, phase);
  }
  const std::size_t m = next_pow2(2 * n - 1);
  std::vector<std::complex<double>> a(m, {0.0, 0.0});
  std::vector<std::complex<double>> b(m, {0.0, 0.0});
  for (std::size_t i = 0; i < n; ++i) a[i] = x[i] * std::conj(chirp[i]);
  b[0] = chirp[0];
  for (std::size_t i = 1; i < n; ++i) b[i] = b[m - i] = chirp[i];
  fft_pow2(a);
  fft_pow2(b);
  for (std::size_t i = 0; i < m; ++i) a[i] *= b[i];
  ifft_pow2(a);

  std::vector<std::complex<double>> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * std::conj(chirp[i]);
  return out;
}

std::vector<std::complex<double>> ifft(
    std::span<const std::complex<double>> x) {
  CHRONOS_EXPECTS(!x.empty(), "ifft of empty input");
  // IFFT(x) = conj(FFT(conj(x))) / N.
  const std::size_t n = x.size();
  std::vector<std::complex<double>> tmp(n);
  for (std::size_t i = 0; i < n; ++i) tmp[i] = std::conj(x[i]);
  auto y = fft(tmp);
  const double inv = 1.0 / static_cast<double>(n);
  for (auto& v : y) v = std::conj(v) * inv;
  return y;
}

std::vector<std::complex<double>> dft_reference(
    std::span<const std::complex<double>> x) {
  const std::size_t n = x.size();
  std::vector<std::complex<double>> out(n, {0.0, 0.0});
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc{0.0, 0.0};
    for (std::size_t t = 0; t < n; ++t) {
      const double ang = -kTwoPi * static_cast<double>(k) *
                         static_cast<double>(t) / static_cast<double>(n);
      acc += x[t] * std::polar(1.0, ang);
    }
    out[k] = acc;
  }
  return out;
}

}  // namespace chronos::mathx
