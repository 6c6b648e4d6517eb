#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "des/random.hpp"
#include "linalg/cg.hpp"
#include "linalg/eigen.hpp"
#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"

namespace gtw::linalg {
namespace {

Matrix random_matrix(des::Rng& rng, std::size_t rows, std::size_t cols) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.normal();
  return m;
}

Vector random_vector(des::Rng& rng, std::size_t n) {
  Vector v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

TEST(MatrixTest, IdentityMultiply) {
  des::Rng rng(1);
  const Matrix a = random_matrix(rng, 4, 4);
  const Matrix i = Matrix::identity(4);
  const Matrix ai = a * i;
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) EXPECT_DOUBLE_EQ(ai(r, c), a(r, c));
}

TEST(MatrixTest, TransposeInvolution) {
  des::Rng rng(2);
  const Matrix a = random_matrix(rng, 3, 5);
  const Matrix att = a.transposed().transposed();
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 5; ++c) EXPECT_DOUBLE_EQ(att(r, c), a(r, c));
}

TEST(MatrixTest, MatVecMatchesMatMat) {
  des::Rng rng(3);
  const Matrix a = random_matrix(rng, 4, 6);
  const Vector v = random_vector(rng, 6);
  Matrix vcol(6, 1);
  for (std::size_t i = 0; i < 6; ++i) vcol(i, 0) = v[i];
  const Vector av = a * v;
  const Matrix avm = a * vcol;
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(av[i], avm(i, 0), 1e-12);
}

TEST(VectorOps, DotAndNorm) {
  const Vector a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
}

TEST(PearsonTest, PerfectCorrelation) {
  const Vector a{1, 2, 3, 4, 5};
  Vector b = a;
  for (auto& x : b) x = 3.0 * x + 7.0;  // affine transform
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
  for (auto& x : b) x = -x;
  EXPECT_NEAR(pearson(a, b), -1.0, 1e-12);
}

TEST(PearsonTest, ConstantSeriesIsZero) {
  const Vector a{1, 2, 3, 4};
  const Vector b{5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(pearson(a, b), 0.0);
}

class LeastSquaresParam : public ::testing::TestWithParam<int> {};

TEST_P(LeastSquaresParam, QrMatchesNormalEquationsOnRandomProblems) {
  des::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t m = 20 + static_cast<std::size_t>(GetParam()) * 7;
  const std::size_t n = 3 + static_cast<std::size_t>(GetParam()) % 5;
  const Matrix a = random_matrix(rng, m, n);
  const Vector b = random_vector(rng, m);
  const Vector x_qr = solve_least_squares_qr(a, b);
  const Vector x_ne = solve_least_squares_normal(a, b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x_qr[i], x_ne[i], 1e-8);
  // Residual must be orthogonal to the column space: A^T (A x - b) = 0.
  const Vector ax = a * x_qr;
  Vector r(m);
  for (std::size_t i = 0; i < m; ++i) r[i] = ax[i] - b[i];
  const Vector atr = a.transposed() * r;
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(atr[i], 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomProblems, LeastSquaresParam,
                         ::testing::Range(0, 8));

TEST(SolveTest, QrRecoversExactSolution) {
  des::Rng rng(5);
  const Matrix a = random_matrix(rng, 30, 6);
  const Vector x_true = random_vector(rng, 6);
  const Vector b = a * x_true;
  const Vector x = solve_least_squares_qr(a, b);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(SolveTest, SpdCholesky) {
  des::Rng rng(6);
  const Matrix a = random_matrix(rng, 8, 8);
  Matrix spd = a.transposed() * a;
  for (std::size_t i = 0; i < 8; ++i) spd(i, i) += 8.0;  // well conditioned
  const Vector x_true = random_vector(rng, 8);
  const Vector b = spd * x_true;
  const Vector x = solve_spd(spd, b);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(SolveTest, SpdInPlaceMatchesSpdBitForBit) {
  des::Rng rng(7);
  const Matrix a = random_matrix(rng, 20, 6);
  Matrix spd = a.transposed() * a;
  for (std::size_t i = 0; i < 6; ++i) spd(i, i) *= 1.001;
  const Vector b = random_vector(rng, 6);
  const Vector x = solve_spd(spd, b);
  std::array<double, 36> m{};
  std::array<double, 6> bx{};
  for (std::size_t i = 0; i < 6; ++i) {
    bx[i] = b[i];
    for (std::size_t j = 0; j < 6; ++j) m[i * 6 + j] = spd(i, j);
  }
  ASSERT_TRUE(solve_spd_in_place(m, bx));
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(bx[i], x[i]) << i;

  std::array<double, 4> indefinite = {1.0, 0.0, 0.0, -1.0};
  std::array<double, 2> rhs = {1.0, 1.0};
  EXPECT_FALSE(solve_spd_in_place(indefinite, rhs));
}

TEST(SolveTest, SpdRejectsIndefinite) {
  Matrix m(2, 2);
  m(0, 0) = 1.0;
  m(1, 1) = -1.0;
  EXPECT_THROW(solve_spd(m, Vector{1.0, 1.0}), std::runtime_error);
}

TEST(SolveTest, LuWithPivoting) {
  // Requires pivoting: zero on the leading diagonal.
  Matrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  const Vector x = solve_lu(a, Vector{2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SolveTest, LuRejectsSingular) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  EXPECT_THROW(solve_lu(a, Vector{1.0, 2.0}), std::runtime_error);
}

class EigenParam : public ::testing::TestWithParam<int> {};

TEST_P(EigenParam, ReconstructsRandomSymmetricMatrix) {
  des::Rng rng(static_cast<std::uint64_t>(100 + GetParam()));
  const std::size_t n = 3 + static_cast<std::size_t>(GetParam());
  Matrix a = random_matrix(rng, n, n);
  // Symmetrise.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) a(i, j) = a(j, i);
  const EigenResult e = eigen_symmetric(a);
  // Eigenvalues descending.
  for (std::size_t i = 1; i < n; ++i) EXPECT_GE(e.values[i - 1], e.values[i]);
  // V diag(lambda) V^T == A.
  Matrix lam(n, n);
  for (std::size_t i = 0; i < n; ++i) lam(i, i) = e.values[i];
  const Matrix rec = e.vectors * lam * e.vectors.transposed();
  EXPECT_LT((rec - a).norm(), 1e-9 * std::max(1.0, a.norm()));
  // Orthonormal eigenvectors.
  const Matrix vtv = e.vectors.transposed() * e.vectors;
  EXPECT_LT((vtv - Matrix::identity(n)).norm(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenParam, ::testing::Range(0, 8));

TEST(CgTest, SolvesSpdSystem) {
  des::Rng rng(7);
  const std::size_t n = 50;
  const Matrix a = random_matrix(rng, n, n);
  Matrix spd = a.transposed() * a;
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  const Vector x_true = random_vector(rng, n);
  const Vector b = spd * x_true;
  const CgResult r = conjugate_gradient(
      [&](const Vector& x, Vector& y) { y = spd * x; }, b, 500, 1e-12);
  EXPECT_TRUE(r.converged);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(r.x[i], x_true[i], 1e-6);
}

TEST(CgTest, LaplacianStencil) {
  // 1-D Poisson with unit spacing: -u'' = f, Dirichlet 0 ends.
  const std::size_t n = 64;
  auto apply = [n](const Vector& x, Vector& y) {
    y.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      double v = 2.0 * x[i];
      if (i > 0) v -= x[i - 1];
      if (i + 1 < n) v -= x[i + 1];
      y[i] = v;
    }
  };
  const Vector b(n, 1.0);
  const CgResult r = conjugate_gradient(apply, b, 1000, 1e-10);
  EXPECT_TRUE(r.converged);
  // Solution of the discrete problem is quadratic and symmetric.
  EXPECT_NEAR(r.x[0], r.x[n - 1], 1e-6);
  EXPECT_GT(r.x[n / 2], r.x[0]);
}

}  // namespace
}  // namespace gtw::linalg
