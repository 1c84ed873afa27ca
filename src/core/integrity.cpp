#include "core/integrity.hpp"

#include <cmath>
#include <cstddef>
#include <string>

#include "core/subcarrier_interp.hpp"

namespace chronos::core {

namespace {

chronos::Status malformed(const std::string& message) {
  return {chronos::StatusCode::kMalformedSweep, message};
}

chronos::Status violation(const std::string& message) {
  return {chronos::StatusCode::kIntegrityViolation, message};
}

}  // namespace

IntegrityConfig IntegrityConfig::hostile() {
  IntegrityConfig config;
  config.check_structure = true;
  config.check_freshness = true;
  config.check_snr = true;
  config.check_direction_symmetry = true;
  config.check_residual = true;
  config.check_toa_consistency = true;
  config.reject_peakless = true;
  return config;
}

double sweep_mean_snr_db(const phy::SweepMeasurement& sweep) {
  double acc = 0.0;
  std::size_t n = 0;
  for (const auto& captures : sweep.bands) {
    for (const auto& cap : captures) {
      acc += cap.forward.snr_db + cap.reverse.snr_db;
      n += 2;
    }
  }
  return n == 0 ? 0.0 : acc / static_cast<double>(n);
}

chronos::Status screen_sweep(const phy::SweepMeasurement& sweep,
                             std::span<const phy::WifiBand> plan,
                             const IntegrityConfig& config) {
  const std::size_t n_subcarriers = phy::intel5300_subcarrier_indices().size();

  if (config.check_structure) {
    // Shape: mirrors phy::validate (so a screened sweep never throws in
    // combining) plus the plan-arity check the pipeline needs.
    if (sweep.bands.size() != plan.size()) {
      return malformed("sweep covers " + std::to_string(sweep.bands.size()) +
                       " bands; the pipeline's plan has " +
                       std::to_string(plan.size()) +
                       " (truncated or mis-split exchange)");
    }
    for (std::size_t i = 0; i < sweep.bands.size(); ++i) {
      if (sweep.bands[i].empty()) {
        return malformed("band " + std::to_string(i) + " carries no captures");
      }
      for (const auto& cap : sweep.bands[i]) {
        if (cap.forward.values.size() != n_subcarriers ||
            cap.reverse.values.size() != n_subcarriers) {
          return malformed("band " + std::to_string(i) +
                           " capture does not cover 30 subcarriers");
        }
        if (cap.forward.direction != phy::Direction::kForward ||
            cap.reverse.direction != phy::Direction::kReverse) {
          return malformed("band " + std::to_string(i) +
                           " capture directions are mislabelled");
        }
        // Identity: the claimed band must BE the plan's band. A channel
        // number alone is forgeable only together with its center
        // frequency and group, so all three are pinned.
        const auto check_identity = [&](const phy::CsiMeasurement& m) {
          return m.band.channel == plan[i].channel &&
                 m.band.center_freq_hz == plan[i].center_freq_hz &&
                 m.band.group == plan[i].group;
        };
        if (!check_identity(cap.forward) || !check_identity(cap.reverse)) {
          return violation(
              "band " + std::to_string(i) + " claims channel " +
              std::to_string(cap.forward.band.channel) +
              " but the plan expects channel " +
              std::to_string(plan[i].channel) +
              " (band-plan lie or cross-deployment sweep)");
        }
      }
    }
  }

  if (config.check_freshness) {
    for (std::size_t i = 0; i < sweep.bands.size(); ++i) {
      for (const auto& cap : sweep.bands[i]) {
        for (const double ts : {cap.forward.timestamp_s,
                                cap.reverse.timestamp_s}) {
          if (ts < config.min_timestamp_s || ts > config.max_sweep_age_s) {
            return violation("band " + std::to_string(i) +
                             " capture timestamp " + std::to_string(ts) +
                             " s is outside the freshness window (replayed "
                             "or clock-skewed sweep)");
          }
        }
      }
    }
  }

  if (config.check_direction_symmetry) {
    // A spoofed delay offset multiplies one direction of the exchange by
    // e^{-j 2 pi f delta}: its forward ToA slope gains the full delta while
    // the reverse slope is untouched. Honest sweeps see the same channel in
    // both directions, so after averaging over every capture the two means
    // differ only by detection-delay jitter (~sigma/sqrt(n_captures)).
    double fwd_acc = 0.0;
    double rev_acc = 0.0;
    std::size_t n = 0;
    for (const auto& captures : sweep.bands) {
      for (const auto& cap : captures) {
        if (cap.forward.values.size() != n_subcarriers ||
            cap.reverse.values.size() != n_subcarriers) {
          continue;  // arity damage is check_structure's jurisdiction
        }
        fwd_acc += interpolate_to_center(cap.forward).toa_slope_s;
        rev_acc += interpolate_to_center(cap.reverse).toa_slope_s;
        ++n;
      }
    }
    if (n > 0) {
      const double asymmetry =
          std::abs(fwd_acc - rev_acc) / static_cast<double>(n);
      if (asymmetry > config.max_slope_asymmetry_s) {
        return violation(
            "forward/reverse ToA slopes disagree by " +
            std::to_string(asymmetry * 1e9) +
            " ns (spoofed delay offset on one direction of the exchange)");
      }
    }
  }

  if (config.check_snr) {
    const double mean_snr = sweep_mean_snr_db(sweep);
    if (mean_snr < config.min_mean_snr_db) {
      return violation("mean sweep SNR " + std::to_string(mean_snr) +
                       " dB is below the " +
                       std::to_string(config.min_mean_snr_db) +
                       " dB floor (interference-saturated link)");
    }
  }

  return chronos::Status::Ok();
}

}  // namespace chronos::core
