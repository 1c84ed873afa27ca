// Sparse inversion of the Non-uniform Discrete Fourier Transform
// (paper §6, Algorithm 1).
//
// The per-band center-frequency channels form h~_i = sum_k p_k e^{-j2*pi*
// f_i*tau_k}: an NDFT of the multipath delay profile p sampled at the
// scattered Wi-Fi band frequencies. The system is underdetermined (35
// measurements, thousands of candidate delays), so Chronos picks the
// sparsest consistent profile by minimising
//     ||h~ - F p||_2^2 + alpha * ||p||_1
// with a proximal-gradient iteration (ISTA): a gradient step on the L2 term
// followed by complex soft-thresholding (the paper's SPARSIFY).
//
// Extensions beyond the paper, used by the ablation benches:
//  * FISTA — the same iteration plus a Nesterov momentum step (about 2x
//    fewer iterations: 192 vs 430 on the Fig-4 channel at alpha = 0.2,
//    bench_ablation_solvers). ISTA and FISTA share one loop; ISTA runs it
//    with the momentum step off.
//  * OMP   — greedy orthogonal matching pursuit, a classic sparse baseline.
//
// Performance: all solver entry points run on the structure-exploiting
// kernel layer in core/ndft_kernels.hpp — the solver's own plan
// (split-complex SoA Fourier matrix + precomputed step size), caller-owned
// workspaces that make the iteration loops allocation-free, an active-set
// forward product once the iterate is sparse, and recurrence matched-filter
// scans.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "core/ndft_kernels.hpp"
#include "mathx/matrix.hpp"

namespace chronos::core {

struct IstaOptions {
  /// Sparsity weight alpha. When `relative_alpha` is true (default), the
  /// effective alpha is alpha * max|F^H h| so the knob is scale-free.
  /// 0.2 suppresses the junk floor that normalisation model error and
  /// per-band phase noise otherwise scatter across the profile (see the
  /// alpha-sweep ablation bench).
  double alpha = 0.2;
  bool relative_alpha = true;
  /// Convergence: stop when ||p_{t+1} - p_t||_2 < epsilon * ||h||_2.
  double epsilon = 1e-4;
  int max_iterations = 4000;
};

/// Result of a sparse inversion.
struct SparseSolveResult {
  std::vector<std::complex<double>> coefficients;  ///< p over the grid
  DelayGrid grid;
  int iterations = 0;
  bool converged = false;
  double residual_norm = 0.0;  ///< ||h - F p||_2 at the solution
};

/// The NDFT operator for a fixed set of row frequencies and delay grid.
/// Rows are F_{i,k} = w_i * e^{-j 2 pi f_i tau_k} (paper's Fourier matrix,
/// optionally row-weighted).
///
/// Row weights turn the data term into a weighted L2 norm: callers scale
/// the measurement h_i by w_i before solving (RangingPipeline does this).
/// Chronos uses them to de-emphasise the 2.4 GHz rows, whose quadrant-fix
/// exponent (h^8) distorts their magnitudes relative to the shared sparse
/// model — they still contribute phase aperture, just with less authority.
///
/// Construction builds the solver's NdftPlan (the matrix and one
/// spectral-norm run). Every solve method is const and keeps its scratch in
/// a workspace, so one solver is shared across threads instead of rebuilt.
class NdftSolver {
 public:
  NdftSolver(std::vector<double> row_freqs_hz, DelayGrid grid,
             std::vector<double> row_weights = {});

  /// Paper Algorithm 1: proximal gradient with step gamma = 1/||F||_2^2.
  /// The overloads without a workspace use a per-thread one; pass an
  /// explicit NdftWorkspace to control scratch reuse (e.g. one per worker).
  /// The iteration loop performs no heap allocation either way.
  SparseSolveResult solve_ista(std::span<const std::complex<double>> h,
                               const IstaOptions& opts = {}) const;
  SparseSolveResult solve_ista(std::span<const std::complex<double>> h,
                               const IstaOptions& opts,
                               NdftWorkspace& ws) const;

  /// Accelerated variant (extension).
  SparseSolveResult solve_fista(std::span<const std::complex<double>> h,
                                const IstaOptions& opts = {}) const;
  SparseSolveResult solve_fista(std::span<const std::complex<double>> h,
                                const IstaOptions& opts,
                                NdftWorkspace& ws) const;

  /// solve_fista over every channel in `hs`, back to back on this thread's
  /// workspace; result k is bit-identical to solve_fista(hs[k], opts). No
  /// ranging path calls it. Kept for perfbench's `ndft.panel_ms_per_rhs`
  /// cell; removed by the next benchmark PR.
  std::vector<SparseSolveResult> solve_fista_batch(
      std::span<const std::span<const std::complex<double>>> hs,
      const IstaOptions& opts = {}) const;

  /// Greedy orthogonal matching pursuit picking `max_paths` atoms
  /// (extension / ablation baseline). The Gram matrix of the active set is
  /// extended incrementally (one new row/column per atom) rather than
  /// rebuilt from scratch each iteration.
  SparseSolveResult solve_omp(std::span<const std::complex<double>> h,
                              std::size_t max_paths) const;

  /// F p — synthesises the channel a profile would produce (used by tests
  /// to check data consistency).
  std::vector<std::complex<double>> synthesize(
      std::span<const std::complex<double>> p) const;

  /// Matched-filter response |sum_i h_i e^{+j2*pi*f_i*u}| at a continuous
  /// delay u (not restricted to the grid).
  double matched_filter(std::span<const std::complex<double>> h,
                        double delay_s) const;

  /// Batched matched filter over the arithmetic sequence u0 + k*du,
  /// k in [0, count): one phasor rotation per row per sample instead of a
  /// std::polar per row per sample. `out` must hold `count` doubles.
  void matched_filter_scan(std::span<const std::complex<double>> h, double u0,
                           double du, std::size_t count,
                           std::span<double> out) const;

  /// Continuous refinement of a coarse peak location: ternary-searches the
  /// matched filter within +-half_width_s of `coarse_delay_s`. The grid
  /// step (0.125 ns default) undersamples the ~0.15 ns mainlobe that the
  /// 3.4 GHz stitched aperture produces; this recovers the lost precision.
  double refine_delay(std::span<const std::complex<double>> h,
                      double coarse_delay_s, double half_width_s) const;

  const mathx::ComplexMatrix& matrix() const { return plan_.matrix(); }
  const DelayGrid& grid() const { return plan_.grid(); }
  double gamma() const { return plan_.gamma(); }
  /// The kernel plan backing this solver.
  const NdftPlan& plan() const { return plan_; }
  /// Per-row weights (all ones when defaulted).
  const std::vector<double>& row_weights() const {
    return plan_.row_weights();
  }
  /// Applies the row weights to a raw measurement vector (h_i -> w_i h_i).
  std::vector<std::complex<double>> apply_weights(
      std::span<const std::complex<double>> h) const;

  /// The paper's SPARSIFY: complex soft-thresholding that shrinks every
  /// coefficient's magnitude by `threshold`, zeroing those below it.
  static void sparsify(std::span<std::complex<double>> p, double threshold);

 private:
  double effective_alpha(NdftWorkspace& ws, const IstaOptions& opts) const;
  /// The one proximal-gradient loop behind solve_ista (momentum off) and
  /// solve_fista (momentum on).
  SparseSolveResult solve_proximal(std::span<const std::complex<double>> h,
                                   const IstaOptions& opts, NdftWorkspace& ws,
                                   bool momentum) const;

  NdftPlan plan_;
};

}  // namespace chronos::core
