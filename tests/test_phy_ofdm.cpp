#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "mathx/rng.hpp"
#include "oracles/ofdm.hpp"

namespace chronos::phy {
namespace {

TEST(Ofdm, ParamsDeriveCorrectly) {
  const OfdmParams p;
  EXPECT_DOUBLE_EQ(p.sample_period_s(), 50e-9);
  EXPECT_DOUBLE_EQ(p.symbol_duration_s(), 4e-6);
}

TEST(Ofdm, LstfHasTwelvePopulatedSubcarriers) {
  const auto s = lstf_frequency_domain();
  ASSERT_EQ(s.size(), 64u);
  std::size_t populated = 0;
  for (const auto& v : s) {
    if (std::abs(v) > 0.0) ++populated;
  }
  EXPECT_EQ(populated, 12u);
  EXPECT_EQ(std::abs(s[32]), 0.0);  // DC empty
}

TEST(Ofdm, LstfTimeDomainIs16Periodic) {
  const auto t = lstf_time_domain();
  ASSERT_EQ(t.size(), 160u);
  for (std::size_t i = 16; i < t.size(); ++i) {
    EXPECT_NEAR(std::abs(t[i] - t[i - 16]), 0.0, 1e-9) << "at " << i;
  }
}

TEST(Ofdm, LltfSequenceProperties) {
  const auto s = lltf_frequency_domain();
  ASSERT_EQ(s.size(), 64u);
  EXPECT_EQ(std::abs(s[32]), 0.0);  // DC
  std::size_t populated = 0;
  for (const auto& v : s) {
    if (std::abs(v) > 0.0) {
      ++populated;
      EXPECT_NEAR(std::abs(v), 1.0, 1e-12);  // BPSK
    }
  }
  EXPECT_EQ(populated, 52u);
}

TEST(Ofdm, ModulateDemodulateRoundTrips) {
  mathx::Rng rng(9);
  std::vector<std::complex<double>> spectrum(64, {0.0, 0.0});
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    spectrum[static_cast<std::size_t>(k + 32)] = rng.complex_gaussian(1.0);
  }
  const auto symbol = ofdm_modulate(spectrum);
  ASSERT_EQ(symbol.size(), 80u);
  const auto recovered = ofdm_demodulate(symbol);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(std::abs(recovered[i] - spectrum[i]), 0.0, 1e-9);
  }
}

TEST(Ofdm, CyclicPrefixIsSuffixCopy) {
  std::vector<std::complex<double>> spectrum(64, {0.0, 0.0});
  spectrum[40] = {1.0, 0.0};
  const auto symbol = ofdm_modulate(spectrum);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(std::abs(symbol[i] - symbol[64 + i]), 0.0, 1e-12);
  }
}

TEST(Ofdm, DetectorFindsPacketEdge) {
  mathx::Rng rng(4);
  // 300 noise samples then the L-STF at 20x the noise amplitude.
  std::vector<std::complex<double>> samples;
  for (int i = 0; i < 300; ++i) samples.push_back(rng.complex_gaussian(0.01));
  for (const auto& s : lstf_time_domain()) {
    samples.push_back(s + rng.complex_gaussian(0.01));
  }
  const PacketDetector det;
  const auto hit = det.detect(samples);
  ASSERT_TRUE(hit.has_value());
  EXPECT_NEAR(static_cast<double>(*hit), 300.0, 17.0);
}

TEST(Ofdm, DetectorSilentOnNoise) {
  mathx::Rng rng(4);
  std::vector<std::complex<double>> samples;
  for (int i = 0; i < 500; ++i) samples.push_back(rng.complex_gaussian(0.01));
  const PacketDetector det;
  EXPECT_FALSE(det.detect(samples).has_value());
}

TEST(Ofdm, DetectorNeedsTwoWindows) {
  const PacketDetector det;
  std::vector<std::complex<double>> tiny(10, {1.0, 0.0});
  EXPECT_FALSE(det.detect(tiny).has_value());
}

class DetectorSnrSweep : public ::testing::TestWithParam<double> {};

TEST_P(DetectorSnrSweep, DetectsAcrossSnr) {
  const double noise_amp = GetParam();
  mathx::Rng rng(11);
  std::vector<std::complex<double>> samples;
  for (int i = 0; i < 200; ++i)
    samples.push_back(rng.complex_gaussian(noise_amp));
  for (const auto& s : lstf_time_domain())
    samples.push_back(s + rng.complex_gaussian(noise_amp));
  PacketDetector det;
  det.threshold_ratio = 3.0;
  const auto hit = det.detect(samples);
  ASSERT_TRUE(hit.has_value());
  EXPECT_GT(*hit, 150u);
  EXPECT_LT(*hit, 260u);
}

// 0.1 noise amplitude (~10 dB SNR) false-triggers the plain energy
// detector — real receivers add correlation checks at that SNR, which is
// out of scope for this substrate.
INSTANTIATE_TEST_SUITE_P(NoiseLevels, DetectorSnrSweep,
                         ::testing::Values(0.002, 0.01, 0.05));

}  // namespace
}  // namespace chronos::phy
