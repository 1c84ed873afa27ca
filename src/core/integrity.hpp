// The hostile-sweep detection gate of the ranging pipeline.
//
// Chronos was built assuming every sweep arrives intact; the adversarial
// tier (ROADMAP "Adversarial robustness scenarios", the FTM security study
// in PAPERS.md) drops that assumption: sweeps may be truncated mid-sweep,
// replayed from a stale cache, carry lies about their band identity, have
// their SNR collapsed by interference, or arrive with spoofed delay
// offsets. The gate turns each of those into a typed per-request rejection
// — chronos::kMalformedSweep for structural damage, kIntegrityViolation
// for parseable-but-untrustworthy sweeps — instead of a silently wrong
// range.
//
// Two tiers of checks:
//   * pre-solve screening (`screen_sweep`): band count / capture shape /
//     subcarrier arity against the pipeline's plan, band-identity
//     consistency, timestamp freshness, forward/reverse ToA-slope
//     symmetry, and an SNR floor. Pure sweep inspection — cheap enough
//     to run on every request.
//   * post-solve checks (inside RangingPipeline::finish): solver residual
//     energy, ToA-vs-ToF consistency against the calibrated detection
//     delay, and peakless rejection. These need the sparse solution and
//     the calibration table, so they live in the pipeline tail.
//
// Defaults are compatibility-first: the structural screen is always on
// (it cannot trip on a sweep that matches the pipeline's plan — the six
// accuracy goldens pin this), while the statistical checks are opt-in via
// IntegrityConfig::hostile(), the preset the adversarial bench and the
// hostile-tier tests run under.
#pragma once

#include <span>

#include "mathx/status.hpp"
#include "phy/band_plan.hpp"
#include "phy/csi.hpp"

namespace chronos::core {

/// Knobs of the detection gate. Thresholds are calibrated so a clean
/// simulated office sweep never trips them (false-reject floor in
/// bench_ablation_adversarial), while each injected fault class of
/// core/fault_injection.hpp trips at least one check.
struct IntegrityConfig {
  /// Structural screening: band count matches the pipeline plan, every
  /// band carries >= 1 capture, every capture carries the 30 Intel 5300
  /// subcarriers with correctly-labelled directions, and the claimed band
  /// identities agree with the plan. Violations: kMalformedSweep for
  /// shape damage (truncation), kIntegrityViolation for identity lies.
  /// Always safe to leave on — plan-matching sweeps cannot trip it.
  bool check_structure = true;

  /// Freshness: every capture timestamp must lie in
  /// [min_timestamp_s, max_sweep_age_s]. Live sweeps carry small positive
  /// sweep-relative timestamps; a replayed (stale-cached) sweep shows up
  /// with timestamps aged far outside the window.
  bool check_freshness = false;
  double max_sweep_age_s = 120.0;
  double min_timestamp_s = -1e-9;

  /// Power sanity: mean per-capture SNR across the sweep must reach the
  /// floor. Interference that collapses the link cannot yield a
  /// trustworthy range (clean field links sit around 30 dB; the deepest
  /// honest fades stay far above 5 dB on average across bands).
  bool check_snr = false;
  double min_mean_snr_db = 5.0;

  /// Direction symmetry: the mean ToA slope of the forward captures must
  /// agree with the mean ToA slope of the reverse captures. Both
  /// directions traverse the same channel, so honest sweeps differ only
  /// by per-packet detection-delay jitter (a few ns after averaging over
  /// the sweep's bands); a spoofed delay offset is applied by the
  /// adversary to one direction of the exchange and shows up as a bias
  /// equal to the full spoof (tens of ns). Requires structurally valid
  /// captures — arity-violating captures are skipped (check_structure,
  /// on by default, rejects them outright first).
  bool check_direction_symmetry = false;
  double max_slope_asymmetry_s = 40e-9;

  /// Residual energy (post-solve): the sparse model must explain the
  /// measurement — reject when ||h - F p|| / ||h|| exceeds the ratio.
  /// A sweep whose bands disagree about the channel (undetected
  /// corruption, heavy interference) leaves most of its energy in the
  /// residual.
  bool check_residual = false;
  double max_residual_ratio = 0.9;

  /// ToA-vs-ToF consistency (post-solve, needs a calibrated toa_bias):
  /// the chosen direct path implies a detection delay (toa - tof) that
  /// must agree with the calibrated expectation within the tolerance.
  /// A spoofed delay offset shifts ToA and ToF by different amounts and
  /// breaks the identity.
  bool check_toa_consistency = false;
  double max_toa_discrepancy_s = 25e-9;

  /// Reject sweeps whose profile yields no acceptable direct-path peak
  /// (peak_found == false) instead of returning a zero estimate. Under
  /// the ToA gate this is the signature of a sweep whose profile and ToA
  /// disagree — e.g. a spoofed delay pushing the peak out of the gate.
  bool reject_peakless = false;

  /// The hostile-tier preset: every check enabled at the default
  /// thresholds. What the adversarial bench, its CI gate, and the
  /// determinism-under-faults tests run with.
  static IntegrityConfig hostile();
};

/// Pre-solve screening of `sweep` against the pipeline's band `plan`:
/// kOk, kMalformedSweep (structural damage), or kIntegrityViolation
/// (identity/freshness/power violations) per the enabled checks.
chronos::Status screen_sweep(const phy::SweepMeasurement& sweep,
                             std::span<const phy::WifiBand> plan,
                             const IntegrityConfig& config);

/// Mean per-capture SNR across every forward/reverse measurement of the
/// sweep (the quantity check_snr floors). 0 for an empty sweep.
double sweep_mean_snr_db(const phy::SweepMeasurement& sweep);

}  // namespace chronos::core
