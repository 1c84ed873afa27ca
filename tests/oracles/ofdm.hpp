// 802.11n HT20 OFDM parameters, legacy preamble synthesis, and a
// sample-level packet detector.
//
// Chronos's algorithms consume frequency-domain CSI, but two of the paper's
// claims live at the OFDM sample level: (i) packet detection happens in
// baseband *after* carrier removal, which is why detection delay rotates
// subcarrier k by -2*pi*(f_k - f_0)*delta while leaving subcarrier 0 alone
// (§5); and (ii) the detection instant itself is energy-triggered and
// SNR-dependent (§12.1, Fig 7c). This test-only oracle provides that
// sample-level substrate; test_phy_ofdm checks the oracle's own preamble
// synthesis and PacketDetector. No test compares it with the analytic
// DetectionModel (phy/detection), and no shipped library carries it.
#pragma once

#include <complex>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

namespace chronos::phy {

/// Fixed 20 MHz 802.11 OFDM numerology.
struct OfdmParams {
  std::size_t fft_size = 64;
  std::size_t cyclic_prefix = 16;
  double subcarrier_spacing_hz = 312.5e3;
  double sample_rate_hz = 20e6;

  double sample_period_s() const { return 1.0 / sample_rate_hz; }
  double symbol_duration_s() const {
    return static_cast<double>(fft_size + cyclic_prefix) / sample_rate_hz;
  }
};

/// Frequency-domain legacy short training field (L-STF): the 12 populated
/// subcarriers (+-4, +-8, ..., +-24) of the 802.11 standard, indexed by
/// subcarrier -32..31 mapped onto a 64-entry array (entry 32 = DC... entry
/// k holds subcarrier k-32).
std::vector<std::complex<double>> lstf_frequency_domain();

/// Time-domain L-STF: ten repetitions of a 16-sample pattern (160 samples),
/// generated from the frequency-domain sequence by IFFT.
std::vector<std::complex<double>> lstf_time_domain();

/// Frequency-domain legacy long training field (L-LTF) sequence over
/// subcarriers -26..26 (BPSK +-1, zero at DC), 64-entry array as above.
std::vector<std::complex<double>> lltf_frequency_domain();

/// Builds one OFDM symbol (CP + IFFT output) from a 64-entry frequency
/// domain vector.
std::vector<std::complex<double>> ofdm_modulate(
    std::span<const std::complex<double>> freq_domain,
    const OfdmParams& params = {});

/// Recovers the 64-entry frequency-domain vector from one OFDM symbol
/// (strips CP, FFT). `symbol` must contain cp + fft samples.
std::vector<std::complex<double>> ofdm_demodulate(
    std::span<const std::complex<double>> symbol,
    const OfdmParams& params = {});

/// Classic double-sliding-window energy detector: ratio of energy in two
/// adjacent windows crossing `threshold_ratio` marks the packet edge.
/// Returns the index of the first sample of the detected packet, or nullopt
/// if no edge crosses the threshold.
struct PacketDetector {
  std::size_t window = 16;
  double threshold_ratio = 4.0;  ///< leading/trailing energy ratio

  std::optional<std::size_t> detect(
      std::span<const std::complex<double>> samples) const;
};

}  // namespace chronos::phy
