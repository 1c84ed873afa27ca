#include "core/ranging.hpp"

#include <cmath>
#include <string>
#include <utility>

#include "mathx/constants.hpp"
#include "mathx/contracts.hpp"
#include "phy/intel5300.hpp"

namespace chronos::core {

namespace {

std::vector<double> row_frequencies(const std::vector<phy::WifiBand>& bands,
                                    const CombiningConfig& combining) {
  std::vector<double> freqs;
  freqs.reserve(bands.size());
  for (const auto& b : bands) {
    const int exponent =
        combining.quirk_fix ? phy::per_direction_exponent(b) : 1;
    freqs.push_back(static_cast<double>(exponent) * b.center_freq_hz);
  }
  return freqs;
}

std::vector<double> row_weights(const std::vector<phy::WifiBand>& bands,
                                const RangingConfig& config) {
  std::vector<double> weights;
  weights.reserve(bands.size());
  for (const auto& b : bands) {
    const bool quirk_row = config.combining.quirk_fix && b.is_2_4ghz();
    weights.push_back(quirk_row ? config.quirk_row_weight : 1.0);
  }
  return weights;
}

}  // namespace

RangingPipeline::RangingPipeline(const std::vector<phy::WifiBand>& bands,
                                 RangingConfig config)
    : config_(std::move(config)),
      bands_(bands),
      solver_(row_frequencies(bands, config_.combining), config_.grid,
              row_weights(bands, config_)) {
  CHRONOS_EXPECTS(!bands_.empty(), "pipeline needs at least one band");
}

RangingResult RangingPipeline::estimate(
    const phy::SweepMeasurement& sweep,
    const CalibrationTable& calibration) const {
  // Detection gate, tier 1: screen the sweep before any math touches it.
  // A rejection is a typed per-request status, never a throw — one hostile
  // sweep in a batch must not abort its neighbours.
  if (chronos::Status gate =
          screen_sweep(sweep, bands_, config_.integrity);
      !gate.ok()) {
    RangingResult out;
    out.status = std::move(gate);
    return out;
  }
  CHRONOS_EXPECTS(sweep.bands.size() == bands_.size(),
                  "sweep band count does not match the pipeline");

  const auto combined =
      combine_sweep(sweep, config_.combining, calibration);

  std::vector<std::complex<double>> raw(combined.size());
  double toa_acc = 0.0;
  double snr_acc = 0.0;
  for (std::size_t i = 0; i < combined.size(); ++i) {
    raw[i] = combined[i].value;
    toa_acc += combined[i].toa_slope_s;
    snr_acc += combined[i].snr_db;
  }
  const double toa_s = toa_acc / static_cast<double>(combined.size());
  const double field_snr_db = snr_acc / static_cast<double>(combined.size());
  // Weighted data term: rows scaled identically to the solver's F matrix.
  const std::vector<std::complex<double>> h = solver_.apply_weights(raw);

  SparseSolveResult solution;
  switch (config_.solver) {
    case SparseSolverKind::kIsta:
      solution = solver_.solve_ista(h, config_.solver_options);
      break;
    case SparseSolverKind::kFista:
      solution = solver_.solve_fista(h, config_.solver_options);
      break;
    case SparseSolverKind::kOmp:
      solution = solver_.solve_omp(h, config_.omp_paths);
      break;
  }
  return finish(h, toa_s, field_snr_db, solution, calibration);
}

RangingResult RangingPipeline::finish(std::span<const std::complex<double>> h,
                                      double toa_s, double field_snr_db,
                                      const SparseSolveResult& solution,
                                      const CalibrationTable& calibration) const {
  RangingResult out;
  out.profile = extract_profile(solution, config_.profile);
  out.delay_axis_scale = delay_axis_scale(config_.combining);
  out.solver_iterations = solution.iterations;
  out.toa_s = toa_s;

  // ---- Direct-path selection ------------------------------------------
  // 1. Candidates: sparse-profile clusters above the amplitude threshold.
  // 2. Each candidate is re-located and scored on the matched filter: the
  //    local MF maximum within +-1.5 ns of the cluster centroid (clusters
  //    can be smeared by unresolved clutter; the MF peak is the better
  //    anchor).
  // 3. Grating-ghost test: the 20 MHz channel lattice echoes every real
  //    path at +-k*50 ns with ~0.6 relative coherence, so a candidate whose
  //    lattice-shifted probe scores *higher* is a ghost of a later/earlier
  //    real path.
  // 4. The earliest non-ghost whose score reaches first_peak_mf_ratio of
  //    the best non-ghost score is the direct path.
  double max_amp = 0.0;
  for (const auto& p : out.profile.peaks) max_amp = std::max(max_amp, p.amplitude);

  const bool alias_on = config_.alias_period_s > 0.0;
  const double grid_min_u = config_.grid.min_s;
  const double grid_max_u = config_.grid.max_s;

  // Local MF maximum (value and location) within +-half of `center`. One
  // recurrence scan replaces per-sample std::polar evaluation; out-of-grid
  // samples are computed but skipped, matching the legacy clamp.
  auto local_mf_peak = [&](double center, double half) {
    constexpr int kProbePoints = 61;
    const double step = 2.0 * half / static_cast<double>(kProbePoints - 1);
    double scan[kProbePoints];
    solver_.matched_filter_scan(h, center - half, step, kProbePoints, scan);
    double best_val = -1.0;
    double best_u = center;
    for (int s = 0; s < kProbePoints; ++s) {
      const double u = center - half +
                       2.0 * half * static_cast<double>(s) /
                           static_cast<double>(kProbePoints - 1);
      if (u < grid_min_u || u > grid_max_u) continue;
      if (scan[s] > best_val) {
        best_val = scan[s];
        best_u = u;
      }
    }
    return std::pair<double, double>{best_val, best_u};
  };

  struct Candidate {
    const ProfilePeak* peak;
    double score = 0.0;  ///< local MF maximum near the cluster
    double u = 0.0;      ///< location of that maximum
    bool ghost = false;
  };
  constexpr double kLocalWindow = 1.5e-9;

  // Coarse ToA gate: the calibrated detection-delay bias turns the mean
  // subcarrier-slope ToA into a few-ns-accurate ToF estimate, which prunes
  // lattice ghosts (+-50 ns away) before any scoring. The gate center is
  // compensated for the SNR-dependent part of the mean detection delay
  // (the calibration fixture is much closer — hence higher SNR — than a
  // field link).
  const bool gate_on = config_.use_toa_gate && calibration.has_toa_bias;
  double gate_center_u = 0.0;
  if (gate_on) {
    const phy::DetectionModel model(config_.detection);
    const double snr_compensation =
        model.expected_delay_s(field_snr_db) -
        model.expected_delay_s(calibration.calibration_snr_db);
    const double coarse_tof =
        out.toa_s - calibration.toa_bias_s - snr_compensation;
    gate_center_u = coarse_tof * out.delay_axis_scale;
  }
  const double gate_half_u = config_.toa_gate_s * out.delay_axis_scale;

  std::vector<Candidate> candidates;
  if (gate_on) {
    // Gated path: scan the matched filter across the gate window directly.
    // Local maxima within merge_radius of each other collapse into the
    // strongest (absorbing the mainlobe's immediate sidelobes), then the
    // earliest survivor above the score ratio is the direct path.
    const double lo = std::max(grid_min_u, gate_center_u - gate_half_u);
    const double hi = std::min(grid_max_u, gate_center_u + gate_half_u);
    constexpr double kScanStep = 0.04e-9;
    constexpr double kMergeRadius = 0.7e-9;
    // One batched recurrence scan of the whole gate window (the hottest
    // matched-filter loop in the pipeline), then local-maxima detection on
    // the sampled values — same shape test as the legacy streaming scan.
    std::vector<std::pair<double, double>> maxima;  // (u, score)
    if (hi >= lo) {
      const std::size_t count =
          static_cast<std::size_t>((hi - lo) / kScanStep + 1e-9) + 1;
      std::vector<double> scan(count);
      solver_.matched_filter_scan(h, lo, kScanStep, count, scan);
      for (std::size_t k = 2; k < count; ++k) {
        if (scan[k - 1] >= scan[k - 2] && scan[k - 1] > scan[k]) {
          maxima.emplace_back(lo + kScanStep * static_cast<double>(k - 1),
                              scan[k - 1]);
        }
      }
    }
    // Merge nearby maxima, keeping the strongest representative.
    std::vector<std::pair<double, double>> merged;
    for (const auto& m : maxima) {
      if (!merged.empty() &&
          std::abs(m.first - merged.back().first) < kMergeRadius) {
        if (m.second > merged.back().second) merged.back() = m;
      } else {
        merged.push_back(m);
      }
    }
    for (const auto& m : merged) {
      candidates.push_back({nullptr, m.second, m.first, false});
    }
  } else {
    for (const auto& p : out.profile.peaks) {
      if (p.amplitude < config_.first_peak_threshold * max_amp) continue;
      const auto [score, u] = local_mf_peak(p.delay_s, kLocalWindow);
      candidates.push_back({&p, score, u, false});
    }
  }

  // Ghost probing is only needed when no ToA gate constrains the window:
  // the gate is far narrower than the 50 ns lattice period.
  if (alias_on && !gate_on) {
    for (auto& c : candidates) {
      for (int k = 1; k <= 2 && !c.ghost; ++k) {
        for (const double sign : {-1.0, 1.0}) {
          const double probe =
              c.u + sign * static_cast<double>(k) * config_.alias_period_s;
          if (probe < grid_min_u || probe > grid_max_u) continue;
          if (local_mf_peak(probe, kLocalWindow).first > c.score) {
            c.ghost = true;
            break;
          }
        }
      }
    }
  }

  const Candidate* direct = nullptr;
  double best_score = 0.0;
  for (const auto& c : candidates) {
    if (!c.ghost) best_score = std::max(best_score, c.score);
  }
  for (const auto& c : candidates) {
    if (c.ghost) continue;
    if (c.score >= config_.first_peak_mf_ratio * best_score) {
      direct = &c;
      break;  // candidates iterate in delay order
    }
  }

  for (const auto& c : candidates) {
    out.candidates.push_back({c.u,
                              c.peak != nullptr ? c.peak->amplitude : c.score,
                              c.score, &c == direct});
  }

  if (direct != nullptr) {
    out.peak_found = true;
    double u = direct->u;
    if (config_.refine_first_peak) {
      u = solver_.refine_delay(h, u, config_.refine_half_width_s);
    }
    out.tof_s = u / out.delay_axis_scale;
    out.distance_m = mathx::tof_to_distance(out.tof_s);
    out.detection_delay_s = out.toa_s - out.tof_s;
  }

  // ---- Detection gate, tier 2: post-solve sanity ----------------------
  // These need the sparse solution (residual), the peak decision, and the
  // calibration table, so they cannot live in the pre-solve screen. The
  // diagnostics (profile, candidates) are kept on a rejection so callers
  // can audit what the gate saw.
  const IntegrityConfig& integrity = config_.integrity;
  if (integrity.check_residual) {
    double h_energy = 0.0;
    for (const auto& v : h) h_energy += std::norm(v);
    const double h_norm = std::sqrt(h_energy);
    if (h_norm > 0.0 &&
        solution.residual_norm > integrity.max_residual_ratio * h_norm) {
      out.status = {chronos::StatusCode::kIntegrityViolation,
                    "sparse model explains too little of the sweep "
                    "(residual ratio " +
                        std::to_string(solution.residual_norm / h_norm) +
                        " > " +
                        std::to_string(integrity.max_residual_ratio) +
                        "): bands disagree about the channel"};
      return out;
    }
  }
  if (integrity.reject_peakless && !out.peak_found) {
    out.status = {chronos::StatusCode::kIntegrityViolation,
                  "no acceptable direct-path peak: the delay profile and "
                  "the coarse ToA disagree (spoofed delay or corrupted "
                  "sweep)"};
    return out;
  }
  if (integrity.check_toa_consistency && out.peak_found &&
      calibration.has_toa_bias) {
    const phy::DetectionModel model(config_.detection);
    const double expected_delay =
        calibration.toa_bias_s +
        model.expected_delay_s(field_snr_db) -
        model.expected_delay_s(calibration.calibration_snr_db);
    const double discrepancy = out.detection_delay_s - expected_delay;
    if (std::abs(discrepancy) > integrity.max_toa_discrepancy_s) {
      out.status = {chronos::StatusCode::kIntegrityViolation,
                    "ToA/ToF inconsistency: detection delay deviates " +
                        std::to_string(discrepancy * 1e9) +
                        " ns from the calibrated expectation (delay-offset "
                        "spoofing)"};
      return out;
    }
  }
  return out;
}

}  // namespace chronos::core
