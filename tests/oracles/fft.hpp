// Fast Fourier transforms: iterative radix-2 plus Bluestein's algorithm for
// arbitrary lengths.
//
// Test-only: the callers are the OFDM oracle (oracles/ofdm), which uses
// 64-point transforms to synthesise and analyse 802.11 symbols, and
// test_mathx_fft. The ranging path does not use them: the NDFT estimator
// (core/ndft) evaluates its non-uniform transforms directly, so no shipped
// library carries this code.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace chronos::mathx {

/// In-place forward DFT (engineering sign convention: X_k = sum x_n e^{-j2πkn/N})
/// for power-of-two sizes.
void fft_pow2(std::vector<std::complex<double>>& data);

/// In-place inverse DFT (1/N normalised) for power-of-two sizes.
void ifft_pow2(std::vector<std::complex<double>>& data);

/// Forward DFT of arbitrary length via Bluestein's chirp-z transform.
std::vector<std::complex<double>> fft(std::span<const std::complex<double>> x);

/// Inverse DFT of arbitrary length (1/N normalised).
std::vector<std::complex<double>> ifft(std::span<const std::complex<double>> x);

/// Reference O(N^2) DFT used by tests to validate the fast paths.
std::vector<std::complex<double>> dft_reference(
    std::span<const std::complex<double>> x);

}  // namespace chronos::mathx
