// Tests for CSR matrices, dense LU, MINRES and CG (src/la).

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "la/csr.hpp"
#include "la/krylov.hpp"
#include "oracles/oracles.hpp"

namespace {

using namespace alps::la;
namespace oracle = alps::oracle;

Csr laplace_1d(std::int64_t n) {
  std::vector<Triplet> t;
  for (std::int64_t i = 0; i < n; ++i) {
    t.push_back({i, i, 2.0});
    if (i > 0) t.push_back({i, i - 1, -1.0});
    if (i + 1 < n) t.push_back({i, i + 1, -1.0});
  }
  return Csr::from_triplets(n, n, std::move(t));
}

DotFn serial_dot() {
  return [](std::span<const double> a, std::span<const double> b) {
    return local_dot(a, b);
  };
}

LinOp matrix_op(const Csr& m) {
  return [&m](std::span<const double> x, std::span<double> y) {
    m.matvec(x, y);
  };
}

TEST(Csr, FromTripletsSumsDuplicates) {
  Csr m = Csr::from_triplets(2, 2, {{0, 0, 1.0}, {0, 0, 2.5}, {1, 0, -1.0}});
  EXPECT_EQ(m.nnz(), 2);
  std::vector<double> x = {1.0, 1.0}, y(2);
  m.matvec(x, y);
  EXPECT_DOUBLE_EQ(y[0], 3.5);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
}

TEST(Csr, EmptyRowsAreHandled) {
  Csr m = Csr::from_triplets(4, 4, {{0, 0, 1.0}, {3, 3, 2.0}});
  std::vector<double> x = {1, 1, 1, 1}, y(4);
  m.matvec(x, y);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 0.0);
  EXPECT_DOUBLE_EQ(y[3], 2.0);
}

TEST(Csr, RejectsOutOfRangeIndices) {
  EXPECT_THROW(Csr::from_triplets(2, 2, {{2, 0, 1.0}}), std::out_of_range);
}

TEST(Csr, TransposeRoundTrip) {
  std::mt19937 rng(3);
  std::uniform_int_distribution<std::int64_t> idx(0, 9);
  std::uniform_real_distribution<double> val(-1, 1);
  std::vector<Triplet> t;
  for (int i = 0; i < 40; ++i) t.push_back({idx(rng), idx(rng), val(rng)});
  Csr a = Csr::from_triplets(10, 10, t);
  Csr att = oracle::transpose(oracle::transpose(a));
  std::vector<double> x(10), y1(10), y2(10);
  for (auto& v : x) v = val(rng);
  a.matvec(x, y1);
  att.matvec(x, y2);
  for (int i = 0; i < 10; ++i) EXPECT_NEAR(y1[static_cast<std::size_t>(i)], y2[static_cast<std::size_t>(i)], 1e-14);
}

TEST(Csr, MultiplyMatchesDense) {
  Csr a = Csr::from_triplets(3, 2, {{0, 0, 1}, {0, 1, 2}, {1, 1, 3}, {2, 0, 4}});
  Csr b = Csr::from_triplets(2, 3, {{0, 0, 5}, {0, 2, 6}, {1, 1, 7}});
  Csr c = oracle::multiply(a, b);
  // Dense check: C = A*B.
  const double expect[3][3] = {{5, 14, 6}, {0, 21, 0}, {20, 0, 24}};
  std::vector<double> x(3), y(3);
  for (int col = 0; col < 3; ++col) {
    x.assign(3, 0.0);
    x[static_cast<std::size_t>(col)] = 1.0;
    c.matvec(x, y);
    for (int row = 0; row < 3; ++row)
      EXPECT_NEAR(y[static_cast<std::size_t>(row)], expect[row][col], 1e-14);
  }
}

TEST(Csr, MatvecTranspose) {
  Csr a = Csr::from_triplets(2, 3, {{0, 0, 1}, {0, 2, 2}, {1, 1, 3}});
  std::vector<double> x = {1.0, 2.0}, y(3);
  a.matvec_transpose(x, y);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
  EXPECT_DOUBLE_EQ(y[2], 2.0);
}

TEST(DenseLu, SolvesRandomSystem) {
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> val(-1, 1);
  const std::int64_t n = 20;
  std::vector<Triplet> t;
  for (std::int64_t i = 0; i < n; ++i) {
    t.push_back({i, i, 5.0 + val(rng)});
    for (std::int64_t j = 0; j < n; ++j)
      if (j != i) t.push_back({i, j, 0.3 * val(rng)});
  }
  Csr a = Csr::from_triplets(n, n, std::move(t));
  std::vector<double> xref(static_cast<std::size_t>(n)), b(static_cast<std::size_t>(n)),
      x(static_cast<std::size_t>(n));
  for (auto& v : xref) v = val(rng);
  a.matvec(xref, b);
  DenseLu lu(a);
  lu.solve(b, x);
  for (std::int64_t i = 0; i < n; ++i)
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], xref[static_cast<std::size_t>(i)], 1e-10);
}

TEST(DenseLu, ThrowsOnSingular) {
  Csr a = Csr::from_triplets(2, 2, {{0, 0, 1.0}, {1, 0, 1.0}});
  EXPECT_THROW(DenseLu{a}, std::runtime_error);
}

TEST(Cg, SolvesSpdLaplace) {
  const std::int64_t n = 100;
  Csr a = laplace_1d(n);
  std::vector<double> b(static_cast<std::size_t>(n), 1.0), x(static_cast<std::size_t>(n), 0.0);
  KrylovOptions opt;
  opt.max_iterations = 500;
  opt.rtol = 1e-10;
  SolveResult r = cg(matrix_op(a), b, x, identity_op(), serial_dot(), opt);
  EXPECT_TRUE(r.converged);
  std::vector<double> ax(static_cast<std::size_t>(n));
  a.matvec(x, ax);
  for (std::int64_t i = 0; i < n; ++i)
    EXPECT_NEAR(ax[static_cast<std::size_t>(i)], 1.0, 1e-7);
}

TEST(Cg, JacobiPreconditioningReducesIterations) {
  // Badly scaled diagonal system.
  const std::int64_t n = 200;
  const auto dscale = [n](std::int64_t i) { return 1.0 + 1000.0 * i / n; };
  std::vector<Triplet> t;
  for (std::int64_t i = 0; i < n; ++i) {
    t.push_back({i, i, 2.0 * dscale(i)});
    // Symmetric off-diagonals keep the matrix SPD (diagonally dominant).
    if (i > 0) t.push_back({i, i - 1, -0.5 * std::min(dscale(i), dscale(i - 1))});
    if (i + 1 < n) t.push_back({i, i + 1, -0.5 * std::min(dscale(i), dscale(i + 1))});
  }
  Csr a = Csr::from_triplets(n, n, std::move(t));
  const std::vector<double> diag = a.diagonal();
  LinOp jacobi = [&diag](std::span<const double> x, std::span<double> y) {
    for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i] / diag[i];
  };
  std::vector<double> b(static_cast<std::size_t>(n), 1.0);
  std::vector<double> x1(static_cast<std::size_t>(n), 0.0), x2(static_cast<std::size_t>(n), 0.0);
  KrylovOptions opt;
  opt.rtol = 1e-8;
  SolveResult plain = cg(matrix_op(a), b, x1, identity_op(), serial_dot(), opt);
  SolveResult prec = cg(matrix_op(a), b, x2, jacobi, serial_dot(), opt);
  EXPECT_TRUE(prec.converged);
  EXPECT_LE(prec.iterations, plain.iterations);
}

TEST(Cg, WarmStartAtSolutionReturnsImmediately) {
  // The stopping rule measures against ||b||, not the initial residual, so
  // restarting from a converged answer at the same rtol has nothing to do.
  // A random RHS: with a smooth one CG on the 1d Laplacian ends at an
  // exactly zero residual, which any rule accepts.
  Csr a = laplace_1d(100);
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  std::vector<double> b(100), x(100, 0.0);
  for (double& v : b) v = val(rng);
  KrylovOptions opt;
  opt.rtol = 1e-8;
  const SolveResult cold = cg(matrix_op(a), b, x, identity_op(), serial_dot(), opt);
  ASSERT_TRUE(cold.converged);
  ASSERT_GT(cold.iterations, 10);
  const std::vector<double> x_cold = x;
  const SolveResult warm = cg(matrix_op(a), b, x, identity_op(), serial_dot(), opt);
  EXPECT_TRUE(warm.converged);
  EXPECT_EQ(warm.iterations, 0);
  EXPECT_LT(warm.relative_residual, opt.rtol);
  EXPECT_EQ(x, x_cold);
}

/// SPD diagonal preconditioner whose weights span two decades, so the
/// preconditioner norm differs from the 2-norm.
LinOp spread_diagonal_precond() {
  return [](std::span<const double> x, std::span<double> y) {
    for (std::size_t i = 0; i < x.size(); ++i)
      y[i] = x[i] * (0.1 + 9.9 * static_cast<double>(i % 7) / 6.0);
  };
}

TEST(Minres, WarmStartAtSolutionReturnsImmediately) {
  Csr a = laplace_1d(100);
  std::vector<double> b(100, 1.0), x(100, 0.0);
  KrylovOptions opt;
  opt.rtol = 1e-8;
  opt.max_iterations = 500;
  const LinOp pre = spread_diagonal_precond();
  const SolveResult cold = minres(matrix_op(a), b, x, pre, serial_dot(), opt);
  ASSERT_TRUE(cold.converged);
  ASSERT_GT(cold.iterations, 10);
  const std::vector<double> x_cold = x;
  const SolveResult warm = minres(matrix_op(a), b, x, pre, serial_dot(), opt);
  EXPECT_TRUE(warm.converged);
  EXPECT_EQ(warm.iterations, 0);
  EXPECT_LT(warm.relative_residual, opt.rtol);
  EXPECT_EQ(x, x_cold);
}

TEST(Minres, RelativeResidualIsAgainstPreconditionedRhs) {
  // A nonzero initial guess makes ||r0||_M differ from ||b||_M, so this
  // tells the two denominators apart.
  const std::size_t n = 100;
  Csr a = laplace_1d(static_cast<std::int64_t>(n));
  std::vector<double> b(n), x(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = 1.0 + std::sin(0.3 * static_cast<double>(i));
    x[i] = 50.0 * std::cos(0.1 * static_cast<double>(i));
  }
  const LinOp pre = spread_diagonal_precond();
  const auto m_norm = [&pre](const std::vector<double>& v) {
    std::vector<double> mv(v.size());
    pre(v, mv);
    return std::sqrt(local_dot(mv, v));
  };
  KrylovOptions opt;
  opt.rtol = 1e-6;
  opt.max_iterations = 500;
  const SolveResult r = minres(matrix_op(a), b, x, pre, serial_dot(), opt);
  ASSERT_TRUE(r.converged);
  ASSERT_GT(r.iterations, 0);
  std::vector<double> res(n);
  a.matvec(x, res);
  for (std::size_t i = 0; i < n; ++i) res[i] = b[i] - res[i];
  const double expected = m_norm(res) / m_norm(b);
  // The Givens recurrence tracks the true preconditioned residual to
  // rounding: 1% of the ratio is far looser than the drift and far
  // tighter than the initial guess's residual is away from ||b||_M.
  EXPECT_NEAR(r.relative_residual, expected, 1e-2 * expected);
  EXPECT_LT(expected, opt.rtol);
}

TEST(Minres, SolvesSpdSystem) {
  const std::int64_t n = 100;
  Csr a = laplace_1d(n);
  std::vector<double> b(static_cast<std::size_t>(n), 1.0), x(static_cast<std::size_t>(n), 0.0);
  KrylovOptions opt;
  opt.max_iterations = 500;
  opt.rtol = 1e-10;
  SolveResult r = minres(matrix_op(a), b, x, identity_op(), serial_dot(), opt);
  EXPECT_TRUE(r.converged);
  std::vector<double> ax(static_cast<std::size_t>(n));
  a.matvec(x, ax);
  for (std::int64_t i = 0; i < n; ++i)
    EXPECT_NEAR(ax[static_cast<std::size_t>(i)], 1.0, 1e-6);
}

TEST(Minres, SolvesIndefiniteSaddleSystem) {
  // [A  B^T; B 0]-like symmetric indefinite system.
  const std::int64_t m = 40, k = 10, n = m + k;
  std::vector<Triplet> t;
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> val(-1, 1);
  for (std::int64_t i = 0; i < m; ++i) {
    t.push_back({i, i, 4.0});
    if (i > 0) {
      t.push_back({i, i - 1, -1.0});
      t.push_back({i - 1, i, -1.0});
    }
  }
  for (std::int64_t j = 0; j < k; ++j)
    for (std::int64_t i = 0; i < m; i += 7) {
      const double v = val(rng);
      t.push_back({m + j, (i + j) % m, v});
      t.push_back({(i + j) % m, m + j, v});
    }
  Csr a = Csr::from_triplets(n, n, std::move(t));
  std::vector<double> xref(static_cast<std::size_t>(n)), b(static_cast<std::size_t>(n)),
      x(static_cast<std::size_t>(n), 0.0);
  for (auto& v : xref) v = val(rng);
  a.matvec(xref, b);
  KrylovOptions opt;
  opt.max_iterations = 2000;
  opt.rtol = 1e-12;
  SolveResult r = minres(matrix_op(a), b, x, identity_op(), serial_dot(), opt);
  EXPECT_TRUE(r.converged);
  std::vector<double> ax(static_cast<std::size_t>(n));
  a.matvec(x, ax);
  double err = 0;
  for (std::int64_t i = 0; i < n; ++i)
    err = std::max(err, std::abs(ax[static_cast<std::size_t>(i)] - b[static_cast<std::size_t>(i)]));
  EXPECT_LT(err, 1e-8);
}

TEST(Minres, ZeroRhsConvergesImmediately) {
  Csr a = laplace_1d(10);
  std::vector<double> b(10, 0.0), x(10, 0.0);
  SolveResult r = minres(matrix_op(a), b, x, identity_op(), serial_dot(), {});
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0);
}

}  // namespace
