// The end-to-end Chronos ranging pipeline: SweepMeasurement -> time-of-
// flight -> distance.
//
// Steps (paper §4-§7):
//  1. interpolate every capture to the zero subcarrier  (kills detection delay)
//  2. exponentiate + multiply forward/reverse, average  (kills CFO/LO/quirk)
//  3. apply the one-time calibration                    (kills kappa/HW delay)
//  4. sparse inverse-NDFT over the u = 2*tau grid       (resolves multipath)
//  5. first profile peak -> u*; tof = u*/2; d = c*tof
#pragma once

#include <optional>
#include <span>

#include "core/combining.hpp"
#include "core/integrity.hpp"
#include "core/ndft.hpp"
#include "core/profile.hpp"
#include "mathx/status.hpp"
#include "phy/csi.hpp"
#include "phy/detection.hpp"

namespace chronos::core {

enum class SparseSolverKind { kIsta, kFista, kOmp };

struct RangingConfig {
  CombiningConfig combining;
  /// Delay grid on the u = scale*tau axis. The default covers 0-150 ns
  /// (two-way direct paths up to 22 m plus reflection cross-terms), which
  /// deliberately excludes the strong ~200 ns grating lobe of the US band
  /// plan (24 of 35 centers share a 5 MHz grid).
  DelayGrid grid{0.0, 150e-9, 0.125e-9};
  SparseSolverKind solver = SparseSolverKind::kFista;
  IstaOptions solver_options{};    ///< used by ISTA/FISTA
  std::size_t omp_paths = 12;      ///< used by OMP
  ProfileOptions profile{};
  /// First-peak acceptance threshold relative to the strongest peak.
  double first_peak_threshold = 0.15;
  /// Matched-filter validation of first-peak candidates: a genuine direct
  /// path coheres across (nearly) all bands, while sparse-recovery
  /// artifacts do not. A candidate is accepted only if its raw matched
  /// filter reaches this fraction of the best candidate's.
  double first_peak_mf_ratio = 0.7;
  /// Grating-ghost suppression. The 20 MHz channel lattice of the 5 GHz
  /// plan (and of the quirk-fixed 2.4 GHz rows, whose x4 maps 5 MHz channel
  /// steps onto the same 20 MHz grid) makes every real path echo at
  /// +-k * 50 ns with ~0.6 relative coherence — only the 5 MHz-offset
  /// UNII-3 group breaks the lattice. Candidates separated by ~k * period
  /// are grouped into a family and only the member with the strongest raw
  /// matched filter survives. 0 disables.
  double alias_period_s = 50e-9;
  double alias_tolerance_s = 1.5e-9;
  /// Coarse ToA gating: the subcarrier phase slope gives tof + detection
  /// delay per packet; after subtracting the calibrated mean detection
  /// delay, the true tof is known to a few ns — far tighter than the 50 ns
  /// lattice period. Candidates outside +-toa_gate_s of that coarse
  /// estimate are rejected outright, which deterministically resolves the
  /// lattice ambiguity. Requires a calibration table with toa_bias (falls
  /// back to ungated selection otherwise). The width covers per-packet
  /// detection jitter plus the SNR dependence of the mean detection delay
  /// between calibration fixture and field.
  bool use_toa_gate = true;
  double toa_gate_s = 15e-9;
  /// Detection-delay characteristics of the NIC, used to compensate the
  /// gate center for the SNR difference between the calibration fixture
  /// and the field measurement (the mean energy-crossing time grows as
  /// 1/SNR). Must match the hardware (the sim's DetectionModelParams).
  phy::DetectionModelParams detection{};
  /// Continuous refinement of the direct path: subtract every other
  /// cluster's contribution from h, then locally maximise the matched
  /// filter around the first peak (CLEAN-style). Recovers the precision the
  /// 0.125 ns grid quantisation discards.
  bool refine_first_peak = true;
  double refine_half_width_s = 0.3e-9;
  /// Hostile-sweep detection gate (core/integrity.hpp): pre-solve
  /// screening of every sweep against the pipeline's plan, plus the
  /// post-solve residual / ToA-consistency / peakless checks. The default
  /// keeps only the structural screen on, which a plan-matching sweep
  /// cannot trip — the accuracy goldens pin that a zero-fault pipeline is
  /// unchanged. IntegrityConfig::hostile() arms everything.
  IntegrityConfig integrity;
  /// Weight of the 2.4 GHz rows when the quadrant fix raises them to h^8:
  /// the eighth power distorts their magnitudes relative to the shared
  /// sparse model, so they get less authority in the weighted-L2 data term
  /// (they still extend the phase aperture). 5 GHz rows always weigh 1.
  double quirk_row_weight = 0.15;
};

/// Diagnostic record of one first-peak candidate (exposed so applications
/// and benches can audit why a peak was or wasn't chosen as direct path).
struct PeakCandidate {
  double delay_s = 0.0;      ///< cluster centroid on the u axis
  double amplitude = 0.0;
  double matched_filter = 0.0;  ///< cleaned MF response at the centroid
  bool accepted = false;        ///< true for the chosen direct path
};

struct RangingResult {
  /// API v2: request-shaped failures (unknown node, unrecorded trace link,
  /// malformed sweep, ...) land here instead of aborting a batch; the
  /// estimate fields below are meaningful only when status.ok().
  chronos::Status status;
  double tof_s = 0.0;
  double distance_m = 0.0;
  MultipathProfile profile;        ///< on the u axis (u = scale * tau)
  std::vector<PeakCandidate> candidates;  ///< first-peak audit trail
  double delay_axis_scale = 2.0;   ///< u/tau
  /// Mean time-of-arrival (tof + detection delay) from forward captures,
  /// and the implied detection delay estimate.
  double toa_s = 0.0;
  double detection_delay_s = 0.0;
  bool peak_found = false;
  int solver_iterations = 0;
  /// Ranging attempts consumed (1 without retries; >1 when a RetryPolicy
  /// re-ranged after retryable failures — see core/retry.hpp).
  int attempts = 1;
};

/// Reusable pipeline: the NDFT matrix depends only on (bands, exponents,
/// grid), so construct once and range many sweeps.
class RangingPipeline {
 public:
  /// `bands` must list the bands sweeps will contain, in sweep order.
  RangingPipeline(const std::vector<phy::WifiBand>& bands,
                  RangingConfig config = {});

  /// Runs the full pipeline on one sweep. `calibration` may be empty (then
  /// hardware constants bias the estimate — see core/calibration.hpp).
  RangingResult estimate(const phy::SweepMeasurement& sweep,
                         const CalibrationTable& calibration = {}) const;

  const RangingConfig& config() const { return config_; }
  const NdftSolver& solver() const { return solver_; }

 private:
  /// Direct-path selection and the post-solve integrity checks: everything
  /// estimate() does after the solver ran on the weighted measurement `h`.
  /// `toa_s` and `field_snr_db` are the sweep's mean subcarrier-slope ToA
  /// and SNR, which the ToA gate consumes.
  RangingResult finish(std::span<const std::complex<double>> h, double toa_s,
                       double field_snr_db, const SparseSolveResult& solution,
                       const CalibrationTable& calibration) const;

  RangingConfig config_;
  std::vector<phy::WifiBand> bands_;
  NdftSolver solver_;
};

}  // namespace chronos::core
