#include "linalg/solve.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace gtw::linalg {

Vector solve_least_squares_qr(const Matrix& a, const Vector& b) {
  const std::size_t m = a.rows(), n = a.cols();
  if (m < n) throw std::runtime_error("QR least squares: underdetermined");
  if (b.size() != m) throw std::runtime_error("QR least squares: size mismatch");

  // Work on copies; r becomes the R factor, rhs accumulates Q^T b.
  Matrix r = a;
  Vector rhs = b;

  for (std::size_t k = 0; k < n; ++k) {
    // Householder vector for column k below the diagonal.
    double alpha = 0.0;
    for (std::size_t i = k; i < m; ++i) alpha += r(i, k) * r(i, k);
    alpha = std::sqrt(alpha);
    if (alpha == 0.0) throw std::runtime_error("QR: rank-deficient matrix");
    if (r(k, k) > 0) alpha = -alpha;

    Vector v(m - k);
    v[0] = r(k, k) - alpha;
    for (std::size_t i = k + 1; i < m; ++i) v[i - k] = r(i, k);
    double vnorm2 = 0.0;
    for (double x : v) vnorm2 += x * x;
    if (vnorm2 == 0.0) continue;

    // Apply H = I - 2 v v^T / (v^T v) to the remaining columns and rhs.
    for (std::size_t c = k; c < n; ++c) {
      double s = 0.0;
      for (std::size_t i = k; i < m; ++i) s += v[i - k] * r(i, c);
      s = 2.0 * s / vnorm2;
      for (std::size_t i = k; i < m; ++i) r(i, c) -= s * v[i - k];
    }
    double s = 0.0;
    for (std::size_t i = k; i < m; ++i) s += v[i - k] * rhs[i];
    s = 2.0 * s / vnorm2;
    for (std::size_t i = k; i < m; ++i) rhs[i] -= s * v[i - k];
  }

  // Back substitution on the upper triangle.
  Vector x(n, 0.0);
  for (std::size_t ki = n; ki-- > 0;) {
    double acc = rhs[ki];
    for (std::size_t c = ki + 1; c < n; ++c) acc -= r(ki, c) * x[c];
    if (std::abs(r(ki, ki)) < 1e-300)
      throw std::runtime_error("QR: singular R");
    x[ki] = acc / r(ki, ki);
  }
  return x;
}

bool solve_spd_in_place(std::span<double> m, std::span<double> b) {
  const std::size_t n = b.size();
  assert(m.size() == n * n);
  // Cholesky M = L L^T.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double s = m[i * n + j];
      for (std::size_t k = 0; k < j; ++k) s -= m[i * n + k] * m[j * n + k];
      if (i == j) {
        if (s <= 0.0) return false;
        m[i * n + i] = std::sqrt(s);
      } else {
        m[i * n + j] = s / m[j * n + j];
      }
    }
  }
  // Forward (b becomes y) then back substitution (y becomes x).
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= m[i * n + k] * b[k];
    b[i] = s / m[i * n + i];
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= m[k * n + ii] * b[k];
    b[ii] = s / m[ii * n + ii];
  }
  return true;
}

Vector solve_spd(const Matrix& m_in, const Vector& b) {
  const std::size_t n = m_in.rows();
  if (m_in.cols() != n || b.size() != n)
    throw std::runtime_error("solve_spd: size mismatch");
  Matrix l = m_in;
  Vector x = b;
  if (!solve_spd_in_place(std::span<double>(l.data(), n * n), x))
    throw std::runtime_error("solve_spd: not positive definite");
  return x;
}

Vector solve_lu(Matrix a, Vector b) {
  const std::size_t n = a.rows();
  if (a.cols() != n || b.size() != n)
    throw std::runtime_error("solve_lu: size mismatch");
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot.
    std::size_t piv = k;
    double best = std::abs(a(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      if (std::abs(a(i, k)) > best) {
        best = std::abs(a(i, k));
        piv = i;
      }
    }
    if (best < 1e-300) throw std::runtime_error("solve_lu: singular matrix");
    if (piv != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(k, c), a(piv, c));
      std::swap(b[k], b[piv]);
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      const double f = a(i, k) / a(k, k);
      a(i, k) = 0.0;
      for (std::size_t c = k + 1; c < n; ++c) a(i, c) -= f * a(k, c);
      b[i] -= f * b[k];
    }
  }
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t c = ii + 1; c < n; ++c) s -= a(ii, c) * x[c];
    x[ii] = s / a(ii, ii);
  }
  return x;
}

Vector solve_least_squares_normal(const Matrix& a, const Vector& b) {
  const Matrix at = a.transposed();
  return solve_spd(at * a, at * b);
}

}  // namespace gtw::linalg
