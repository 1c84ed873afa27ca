// Minimal dense matrix over double or std::complex<double>.
//
// The library deliberately avoids external linear-algebra dependencies: the
// consumers are the NDFT solver (matrix-vector products with the Fourier
// matrix) and trilateration (small Gauss-Newton systems). Row-major
// storage, bounds-checked in debug via contracts at the public API.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "mathx/contracts.hpp"

namespace chronos::mathx {

template <typename T>
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix initialised to zero.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, T{}) {}

  /// Construct from row-major initializer data; data.size() must equal
  /// rows*cols.
  Matrix(std::size_t rows, std::size_t cols, std::vector<T> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    CHRONOS_EXPECTS(data_.size() == rows_ * cols_,
                    "matrix data size mismatch");
  }

  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  T& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  const T& operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  std::span<T> row(std::size_t r) {
    CHRONOS_EXPECTS(r < rows_, "row index out of range");
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const T> row(std::size_t r) const {
    CHRONOS_EXPECTS(r < rows_, "row index out of range");
    return {data_.data() + r * cols_, cols_};
  }

  std::span<T> flat() { return data_; }
  std::span<const T> flat() const { return data_; }

  /// y = A * x. x.size() must equal cols().
  std::vector<T> multiply(std::span<const T> x) const {
    CHRONOS_EXPECTS(x.size() == cols_, "matvec dimension mismatch");
    std::vector<T> y(rows_, T{});
    for (std::size_t r = 0; r < rows_; ++r) {
      T acc{};
      const T* rowp = data_.data() + r * cols_;
      for (std::size_t c = 0; c < cols_; ++c) acc += rowp[c] * x[c];
      y[r] = acc;
    }
    return y;
  }

  /// Conjugate-transpose product: y = A^H * x. x.size() must equal rows().
  /// For real T this is the plain transpose.
  std::vector<T> multiply_adjoint(std::span<const T> x) const {
    CHRONOS_EXPECTS(x.size() == rows_, "adjoint matvec dimension mismatch");
    std::vector<T> y(cols_, T{});
    for (std::size_t r = 0; r < rows_; ++r) {
      const T* rowp = data_.data() + r * cols_;
      const T xr = x[r];
      for (std::size_t c = 0; c < cols_; ++c) y[c] += conj_of(rowp[c]) * xr;
    }
    return y;
  }

  /// C = A * B.
  Matrix multiply(const Matrix& b) const {
    CHRONOS_EXPECTS(cols_ == b.rows_, "matmul dimension mismatch");
    Matrix c(rows_, b.cols_);
    for (std::size_t i = 0; i < rows_; ++i) {
      for (std::size_t k = 0; k < cols_; ++k) {
        const T aik = (*this)(i, k);
        if (aik == T{}) continue;
        for (std::size_t j = 0; j < b.cols_; ++j) c(i, j) += aik * b(k, j);
      }
    }
    return c;
  }

  /// Conjugate transpose (plain transpose for real T).
  Matrix adjoint() const {
    Matrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t c = 0; c < cols_; ++c) t(c, r) = conj_of((*this)(r, c));
    return t;
  }

  /// Frobenius norm — an easily computed upper bound on the spectral norm,
  /// used to pick the ISTA step size gamma = 1/||F||^2 (paper Algorithm 1).
  double frobenius_norm() const {
    double acc = 0.0;
    for (const T& v : data_) acc += norm_of(v);
    return std::sqrt(acc);
  }

 private:
  static double norm_of(double v) { return v * v; }
  static double norm_of(const std::complex<double>& v) { return std::norm(v); }
  static double conj_of(double v) { return v; }
  static std::complex<double> conj_of(const std::complex<double>& v) {
    return std::conj(v);
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using RealMatrix = Matrix<double>;
using ComplexMatrix = Matrix<std::complex<double>>;

/// Solves the linear least-squares problem min ||A x - b||_2 for real A via
/// Householder QR with column pivoting disabled (A is expected to be well
/// conditioned: small Gauss-Newton Jacobians). Requires rows >= cols.
std::vector<double> solve_least_squares(const RealMatrix& a,
                                        std::span<const double> b);

/// Solves a square linear system A x = b via Gaussian elimination with
/// partial pivoting. Throws std::invalid_argument if A is singular to
/// working precision.
std::vector<double> solve_linear(const RealMatrix& a, std::span<const double> b);

/// Estimates the spectral norm ||A||_2 of a complex matrix by power
/// iteration on A^H A. `iterations` trades accuracy for time; the NDFT
/// solver only needs ~1% accuracy for a safe step size.
double spectral_norm(const ComplexMatrix& a, int iterations = 30,
                     unsigned long long seed = 0x9E3779B97F4A7C15ull);

/// Eigendecomposition of a Hermitian matrix by the cyclic Jacobi method.
/// Returns eigenvalues ascending; `eigenvectors` (if non-null) receives the
/// corresponding orthonormal eigenvectors as matrix columns. No shipped
/// module calls it; tests/test_mathx_matrix.cpp covers it.
std::vector<double> hermitian_eigen(const ComplexMatrix& a,
                                    ComplexMatrix* eigenvectors = nullptr,
                                    int max_sweeps = 60);

}  // namespace chronos::mathx
