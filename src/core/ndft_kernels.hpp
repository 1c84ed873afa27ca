// Structure-exploiting kernel layer under the NDFT solver.
//
// The sparse inversion of the paper's Fourier matrix F (35 scattered Wi-Fi
// center frequencies x thousands of candidate delays) spends essentially all
// of its time in three operations: the forward product F p, the adjoint
// F^H x, and matched-filter scans of h over a delay axis. This layer owns the
// precomputed structure those operations exploit:
//
//  * NdftPlan — the immutable per-(row freqs, grid, weights) precomputation:
//    the Fourier matrix stored BOTH as the legacy dense complex matrix (kept
//    for the public NdftSolver::matrix() API and the OMP atom algebra) and as
//    split-complex SoA planes (separate real/imag row-major arrays) whose
//    plain double loops auto-vectorize, plus the power-iteration step size
//    gamma = 1/||F||_2^2. Each NdftSolver builds and owns its plan; code that
//    needs one plan on many threads shares the solver (or the pipeline that
//    holds it), never a process-wide table. The build is deterministic, so
//    two plans built for the same key are bitwise identical.
//  * NdftWorkspace — caller-owned scratch sized for one plan, so the
//    ISTA/FISTA iteration loops run with zero heap allocations.
//  * Kernels — forward (dense and active-set), adjoint, fused gradient
//    F^H (F p - h), and a batched recurrence matched-filter scan that
//    replaces per-sample std::polar calls with one phasor rotation per row.
//  * Toeplitz tier (round 2) — on the uniform delay grid, T = F^H F is
//    Toeplitz: T_{c,l} = g(l-c) with g(d) = sum_i w_i^2 e^{-j2π f_i Δ d}.
//    The plan precomputes the kernel diagonal g once, and while the
//    iterate is sparse the gradient T y - F^H h is evaluated by windowed
//    accumulation over y's active set (O(|A| m)) — with F^H h computed
//    once per solve into the workspace instead of an O(nm) adjoint per
//    iteration.
//
// Numerical contract: the split-complex kernels reproduce the legacy
// mathx::Matrix path bit-for-bit on dense inputs (identical operation order
// per component), and the active-set forward skips only columns whose
// coefficient is exactly zero — so it is bit-identical too. The recurrence
// scans differ from per-point evaluation at the ~1e-13 relative level over
// bench-length scans, and the Toeplitz scatter arm agrees with the dense
// fused gradient to ~1e-13 relative (solver iterates stay within 1e-12 of
// the dense path; tests/test_core_ndft_kernels.cpp pins all of this).
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "mathx/matrix.hpp"

namespace chronos::core {

/// Uniform grid of candidate delays for the recovered profile. For two-way
/// combined channels the axis is u = 2*tau (first peak at twice the ToF).
struct DelayGrid {
  double min_s = 0.0;
  double max_s = 400e-9;
  double step_s = 0.1e-9;

  std::size_t size() const;
  double delay_at(std::size_t i) const;
};

/// Caller-owned scratch for the allocation-free solver loops. `bind` sizes
/// every buffer for an (n rows, m cols) plan; it reallocates only when the
/// bound shape grows, so reusing one workspace across solves of the same
/// pipeline performs no allocation at all after the first call.
struct NdftWorkspace {
  // Split measurement vector (n).
  std::vector<double> h_re, h_im;
  // Forward product / residual F p - h (n).
  std::vector<double> fp_re, fp_im;
  // Gradient F^H (F p - h) (m).
  std::vector<double> grad_re, grad_im;
  // Iterate p and the extrapolated point y the gradient is taken at (m);
  // y equals p when the momentum step is off (ISTA).
  std::vector<double> p_re, p_im;
  std::vector<double> y_re, y_im;
  // b = F^H h — the fixed linear term of the Toeplitz gradient T y - b,
  // computed once per solve (m).
  std::vector<double> b_re, b_im;
  // Indices of the (exactly) nonzero columns of the current iterate.
  std::vector<std::uint32_t> active;

  void bind(std::size_t rows, std::size_t cols);
};

/// Immutable precomputation for one (row frequencies, delay grid, row
/// weights) triple. Thread-safe to share: every method is const and touches
/// only immutable state.
class NdftPlan {
 public:
  /// Builds the plan. Empty `row_weights` default to all ones; empty
  /// `row_freqs_hz` or a weight-count mismatch throw.
  NdftPlan(std::vector<double> row_freqs_hz, DelayGrid grid,
           std::vector<double> row_weights);

  std::size_t rows() const { return n_; }
  std::size_t cols() const { return m_; }
  const std::vector<double>& row_freqs_hz() const { return freqs_; }
  const std::vector<double>& row_weights() const { return weights_; }
  const DelayGrid& grid() const { return grid_; }
  const mathx::ComplexMatrix& matrix() const { return f_; }
  /// ISTA/FISTA step size 1/||F||_2^2 (paper Algorithm 1). Zero for
  /// degenerate plans (all-zero weights) — the solvers then take
  /// zero-length steps and converge immediately to p = 0.
  double gamma() const { return gamma_; }

  /// The gradient-evaluation arms. kDense is the legacy fused
  /// forward/adjoint (the golden reference); kScatter accumulates
  /// Toeplitz-kernel windows over the active set.
  enum class GradientArm { kDense, kScatter };

  /// True when this plan carries the Toeplitz tier: at least two uniform,
  /// finite grid delays, finite frequencies/weights, and gamma > 0.
  /// Degenerate plans (single-column grids, all-zero weights, non-finite
  /// inputs) answer false and every gradient request routes to the dense
  /// arm instead of asserting.
  bool toeplitz_capable() const { return toeplitz_capable_; }

  /// Picks the cheapest gradient arm for an iterate with `active_count`
  /// nonzero columns. A pure function of (plan, active_count), so a solve's
  /// arm choices never depend on what its workspace solved before.
  GradientArm pick_arm(std::size_t active_count) const;

  /// ws.grad = T y - b by windowed accumulation over ws.active (y's nonzero
  /// columns): grad[c] = sum_{l in A} g(l-c) y[l] - b[c]. Requires ws.b to
  /// hold F^H h and the plan to be toeplitz_capable().
  void gradient_toeplitz_scatter(const double* y_re, const double* y_im,
                                 NdftWorkspace& ws) const;

  /// out = F p (dense): out_re/out_im and p_re/p_im are length rows()/cols().
  void forward(const double* p_re, const double* p_im, double* out_re,
               double* out_im) const;

  /// out = F p walking only the listed columns; bit-identical to the dense
  /// forward when every column absent from `cols` holds an exact zero.
  void forward_active(const double* p_re, const double* p_im,
                      std::span<const std::uint32_t> cols, double* out_re,
                      double* out_im) const;

  /// out = F^H x: x is length rows(), out is length cols().
  void adjoint(const double* x_re, const double* x_im, double* out_re,
               double* out_im) const;

  /// Fused gradient of the data term: ws.grad = F^H (F p - h), with the
  /// forward product restricted to ws.active (p's nonzero columns). Uses
  /// ws.fp as residual scratch; ws.h must hold the split measurement.
  void gradient(const double* p_re, const double* p_im,
                NdftWorkspace& ws) const;

  /// out[k] = |sum_i h_i e^{+j 2 pi f_i (u0 + k du)}| for k in [0, count).
  /// One complex rotation per row per step (the geometric-sequence trick of
  /// the matrix constructor) instead of a std::polar per row per step; the
  /// rotators are re-anchored periodically so magnitude drift stays at the
  /// ulp level over arbitrarily long scans.
  void matched_filter_scan(std::span<const std::complex<double>> h, double u0,
                           double du, std::size_t count,
                           double* out) const;

  /// Single-point matched filter |sum_i h_i e^{+j 2 pi f_i u}| (exact
  /// per-point evaluation, shared by the scan anchors).
  double matched_filter(std::span<const std::complex<double>> h,
                        double u) const;

 private:
  void build_toeplitz();

  std::vector<double> freqs_;
  std::vector<double> weights_;
  DelayGrid grid_;
  std::size_t n_ = 0;
  std::size_t m_ = 0;
  // Split-complex row-major planes of F (n_ x m_ each).
  std::vector<double> re_, im_;
  // Legacy dense representation (public matrix() API, OMP atom algebra).
  mathx::ComplexMatrix f_;
  double gamma_ = 0.0;
  // Toeplitz tier (empty unless toeplitz_capable_). tz_[j] = g(m-1-j) for
  // j in [0, 2m-2]: the kernel diagonal stored reversed, so for a fixed
  // active column l the window tz_ + (m-1-l) reads T_{c,l} = g(l-c) in
  // ascending c, contiguously.
  bool toeplitz_capable_ = false;
  std::vector<double> tz_re_, tz_im_;
};

}  // namespace chronos::core
