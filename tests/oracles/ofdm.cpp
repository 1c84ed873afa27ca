#include "oracles/ofdm.hpp"

#include <cmath>

#include "mathx/contracts.hpp"
#include "oracles/fft.hpp"

namespace chronos::phy {

namespace {
constexpr std::size_t kFft = 64;
constexpr std::size_t kDcIndex = 32;  // entry 32 holds subcarrier 0

// Maps subcarrier index (-32..31) to array position.
std::size_t sc_pos(int k) { return static_cast<std::size_t>(k + 32); }
}  // namespace

std::vector<std::complex<double>> lstf_frequency_domain() {
  // 802.11-2012 Table 18-6: S_{-26..26} populated at +-{4,8,12,16,20,24}
  // with values scaled by sqrt(13/6).
  std::vector<std::complex<double>> s(kFft, {0.0, 0.0});
  const double scale = std::sqrt(13.0 / 6.0);
  const std::complex<double> pp{1.0, 1.0};   // (1 + j)
  const std::complex<double> nn{-1.0, -1.0}; // (-1 - j)
  s[sc_pos(-24)] = scale * pp;
  s[sc_pos(-20)] = scale * nn;
  s[sc_pos(-16)] = scale * pp;
  s[sc_pos(-12)] = scale * nn;
  s[sc_pos(-8)] = scale * nn;
  s[sc_pos(-4)] = scale * pp;
  s[sc_pos(4)] = scale * nn;
  s[sc_pos(8)] = scale * nn;
  s[sc_pos(12)] = scale * pp;
  s[sc_pos(16)] = scale * pp;
  s[sc_pos(20)] = scale * pp;
  s[sc_pos(24)] = scale * pp;
  return s;
}

std::vector<std::complex<double>> lltf_frequency_domain() {
  // 802.11-2012 Table 18-7, L-LTF BPSK sequence over subcarriers -26..26.
  static const int seq[53] = {
      1, 1, -1, -1, 1,  1,  -1, 1,  -1, 1,  1,  1,  1,  1, 1, -1, -1, 1,
      1, -1, 1, -1, 1,  1,  1,  1,  0,  1,  -1, -1, 1,  1, -1, 1,  -1, 1,
      -1, -1, -1, -1, -1, 1,  1,  -1, -1, 1,  -1, 1,  -1, 1, 1,  1,  1};
  std::vector<std::complex<double>> s(kFft, {0.0, 0.0});
  for (int k = -26; k <= 26; ++k) {
    s[sc_pos(k)] = {static_cast<double>(seq[k + 26]), 0.0};
  }
  s[kDcIndex] = {0.0, 0.0};  // DC carries no energy
  return s;
}

namespace {

// IFFT with the 802.11 subcarrier layout: array index k holds subcarrier
// k-32; the IFFT expects subcarrier 0 first, positives, then negatives.
std::vector<std::complex<double>> ifft_centered(
    std::span<const std::complex<double>> centered) {
  CHRONOS_EXPECTS(centered.size() == kFft, "expected 64-entry spectrum");
  std::vector<std::complex<double>> shifted(kFft);
  for (std::size_t i = 0; i < kFft; ++i) {
    shifted[i] = centered[(i + kDcIndex) % kFft];
  }
  auto time = mathx::ifft(shifted);
  return time;
}

std::vector<std::complex<double>> fft_centered(
    std::span<const std::complex<double>> time) {
  CHRONOS_EXPECTS(time.size() == kFft, "expected 64 time samples");
  auto spec = mathx::fft(time);
  std::vector<std::complex<double>> centered(kFft);
  for (std::size_t i = 0; i < kFft; ++i) {
    centered[(i + kDcIndex) % kFft] = spec[i];
  }
  return centered;
}

}  // namespace

std::vector<std::complex<double>> lstf_time_domain() {
  auto freq = lstf_frequency_domain();
  auto base = ifft_centered(freq);  // 64 samples; inherently 16-periodic
  // The standard L-STF spans 160 samples (10 repetitions of the 16-sample
  // pattern = 2.5 base symbols).
  std::vector<std::complex<double>> out;
  out.reserve(160);
  for (std::size_t i = 0; i < 160; ++i) out.push_back(base[i % kFft]);
  return out;
}

std::vector<std::complex<double>> ofdm_modulate(
    std::span<const std::complex<double>> freq_domain,
    const OfdmParams& params) {
  CHRONOS_EXPECTS(freq_domain.size() == params.fft_size,
                  "spectrum size must equal fft size");
  auto body = ifft_centered(freq_domain);
  std::vector<std::complex<double>> symbol;
  symbol.reserve(params.cyclic_prefix + params.fft_size);
  for (std::size_t i = 0; i < params.cyclic_prefix; ++i) {
    symbol.push_back(body[params.fft_size - params.cyclic_prefix + i]);
  }
  symbol.insert(symbol.end(), body.begin(), body.end());
  return symbol;
}

std::vector<std::complex<double>> ofdm_demodulate(
    std::span<const std::complex<double>> symbol, const OfdmParams& params) {
  CHRONOS_EXPECTS(symbol.size() == params.cyclic_prefix + params.fft_size,
                  "symbol must contain cp + fft samples");
  std::vector<std::complex<double>> body(symbol.begin() + params.cyclic_prefix,
                                         symbol.end());
  return fft_centered(body);
}

std::optional<std::size_t> PacketDetector::detect(
    std::span<const std::complex<double>> samples) const {
  CHRONOS_EXPECTS(window > 0, "detector window must be positive");
  if (samples.size() < 2 * window) return std::nullopt;

  // Running energies of the trailing [i-window, i) and leading [i, i+window)
  // windows; a packet edge makes the leading/trailing ratio spike.
  double trailing = 0.0;
  double leading = 0.0;
  for (std::size_t i = 0; i < window; ++i) {
    trailing += std::norm(samples[i]);
    leading += std::norm(samples[i + window]);
  }
  for (std::size_t i = window; i + window < samples.size(); ++i) {
    constexpr double kFloor = 1e-15;  // avoid division by true zero
    if (leading / (trailing + kFloor) >= threshold_ratio) {
      return i;
    }
    trailing += std::norm(samples[i]) - std::norm(samples[i - window]);
    leading += std::norm(samples[i + window]) - std::norm(samples[i]);
  }
  return std::nullopt;
}

}  // namespace chronos::phy
