// Direct solvers: Householder-QR least squares (robust path, used by the
// detrending and RVO fits), Cholesky for SPD normal equations (fast path for
// the 6x6 systems in motion correction), and a pivoted LU fallback.
#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace gtw::linalg {

// Minimise ||A x - b||_2 via Householder QR.  Requires rows >= cols and full
// column rank; returns the solution vector of length A.cols().
Vector solve_least_squares_qr(const Matrix& a, const Vector& b);

// Solve the SPD system M x = b by Cholesky.  Throws std::runtime_error if M
// is not positive definite to working precision.
Vector solve_spd(const Matrix& m, const Vector& b);

// solve_spd without allocating: `m` (row-major n x n, n = b.size()) is
// overwritten by its Cholesky factor L in the lower triangle and `b` by the
// solution.  solve_spd runs on copies through this routine.  Returns false
// where solve_spd throws (M not positive definite), leaving `b` unusable.
bool solve_spd_in_place(std::span<double> m, std::span<double> b);

// Solve a general square system by LU with partial pivoting.
Vector solve_lu(Matrix a, Vector b);

// Least squares via normal equations (A^T A) x = A^T b; cheaper than QR for
// very tall thin systems, less accurate for ill-conditioned ones.
Vector solve_least_squares_normal(const Matrix& a, const Vector& b);

}  // namespace gtw::linalg
