// Property tests for the Ruge-Stüben AMG hierarchy (src/amg) on one rank,
// where the per-rank coarsening of DistAmg is the serial algorithm.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "amg/dist_amg.hpp"
#include "la/krylov.hpp"
#include "matrices.hpp"
#include "par/runtime.hpp"

namespace {

using namespace alps;
using par::Comm;
using test_util::dist_residual_norm;
using test_util::distribute;
using test_util::laplace_3d;

TEST(Amg, BuildsMultipleLevels) {
  par::run(1, [](Comm& c) {
    amg::DistAmg amg(c, distribute(c, laplace_3d(12)));
    EXPECT_GE(amg.num_levels(), 3);
    // Each level meaningfully smaller.
    const auto& stats = amg.level_stats();
    for (std::size_t k = 1; k < stats.size(); ++k)
      EXPECT_LT(stats[k].n, stats[k - 1].n);
    EXPECT_LT(amg.operator_complexity(), 3.0);
    EXPECT_LT(amg.grid_complexity(), 2.0);
  });
}

TEST(Amg, VcycleContractsError) {
  par::run(1, [](Comm& c) {
    amg::DistAmg amg(c, distribute(c, laplace_3d(10)));
    const la::DistCsr& a = amg.finest();
    std::mt19937 rng(5);
    std::uniform_real_distribution<double> val(-1, 1);
    std::vector<double> b(static_cast<std::size_t>(a.owned_rows()));
    for (auto& v : b) v = val(rng);
    std::vector<double> x(b.size(), 0.0);
    const double r0 = dist_residual_norm(c, a, b, x);
    amg.vcycle(c, b, x);
    const double r1 = dist_residual_norm(c, a, b, x);
    amg.vcycle(c, b, x);
    const double r2 = dist_residual_norm(c, a, b, x);
    // Healthy AMG contracts the residual by a solid factor per cycle.
    EXPECT_LT(r1, 0.3 * r0);
    EXPECT_LT(r2, 0.3 * r1);
  });
}

TEST(Amg, ConvergenceFactorStableAcrossSizes) {
  // Near-optimal AMG: per-cycle contraction should not degrade much as
  // the problem grows (this is what makes MINRES counts flat in Fig. 2).
  double factors[2];
  int idx = 0;
  for (std::int64_t n : {8, 16}) {
    par::run(1, [&](Comm& c) {
      amg::DistAmg amg(c, distribute(c, laplace_3d(n)));
      const la::DistCsr& a = amg.finest();
      std::vector<double> b(static_cast<std::size_t>(a.owned_rows()), 1.0);
      std::vector<double> x(b.size(), 0.0);
      double r_prev = dist_residual_norm(c, a, b, x);
      double rho = 0.0;
      for (int cyc = 0; cyc < 6; ++cyc) {
        amg.vcycle(c, b, x);
        const double r = dist_residual_norm(c, a, b, x);
        rho = r / r_prev;
        r_prev = r;
      }
      factors[idx++] = rho;
    });
  }
  EXPECT_LT(factors[1], std::max(0.5, 3.0 * factors[0]));
}

TEST(Amg, HandlesStrongCoefficientJumps) {
  // 10^5 viscosity contrast, as in the mantle problem.
  par::run(1, [](Comm& c) {
    amg::DistAmg amg(c, distribute(c, laplace_3d(10, 1e5)));
    const la::DistCsr& a = amg.finest();
    std::vector<double> b(static_cast<std::size_t>(a.owned_rows()), 1.0);
    std::vector<double> x(b.size(), 0.0);
    const double r0 = dist_residual_norm(c, a, b, x);
    amg.solve(c, b, x, 10);
    EXPECT_LT(dist_residual_norm(c, a, b, x), 1e-6 * r0);
  });
}

TEST(Amg, ActsAsSpdPreconditionerForCg) {
  par::run(1, [](Comm& c) {
    amg::DistAmg amg(c, distribute(c, laplace_3d(10)));
    const la::DistCsr& a = amg.finest();
    la::LinOp op = [&](std::span<const double> x, std::span<double> y) {
      a.matvec(c, x, y);
    };
    la::LinOp pre = [&](std::span<const double> x, std::span<double> y) {
      std::fill(y.begin(), y.end(), 0.0);
      amg.vcycle(c, x, y);
    };
    la::DotFn dot = [](std::span<const double> x, std::span<const double> y) {
      return la::local_dot(x, y);
    };
    std::vector<double> b(static_cast<std::size_t>(a.owned_rows()), 1.0);
    std::vector<double> x(b.size(), 0.0);
    la::KrylovOptions opt;
    opt.rtol = 1e-10;
    la::SolveResult r = la::cg(op, b, x, pre, dot, opt);
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.iterations, 15);  // AMG-preconditioned CG converges fast
  });
}

TEST(Amg, TinyMatrixFallsBackToDirectSolve) {
  par::run(1, [](Comm& c) {
    amg::DistAmg amg(c, distribute(c, laplace_3d(3)));  // 27 < coarse_size
    EXPECT_EQ(amg.num_levels(), 1);
    std::vector<double> b(27, 1.0), x(27, 0.0);
    amg.vcycle(c, b, x);
    EXPECT_LT(dist_residual_norm(c, amg.finest(), b, x), 1e-10);
  });
}

}  // namespace
