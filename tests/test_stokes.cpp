// Tests for the variable-viscosity stabilized Stokes solver (src/stokes).

#include <gtest/gtest.h>

#include <cmath>

#include "forests.hpp"
#include "rhea/viscosity.hpp"
#include "stokes/picard.hpp"
#include "par/runtime.hpp"

namespace {

using namespace alps;
using forest::Connectivity;
using forest::Forest;
using mesh::extract_mesh;
using mesh::Mesh;
using par::Comm;
using stokes::StokesOptions;
using stokes::StokesSolver;

std::vector<double> constant_eta(const Mesh& m, double eta) {
  return std::vector<double>(m.elements.size() * 8, eta);
}

// Hot blob at the bottom center: buoyant rise test.
double blob_t(const std::array<double, 3>& p) {
  const double dx = p[0] - 0.5, dy = p[1] - 0.5, dz = p[2] - 0.25;
  return std::exp(-40.0 * (dx * dx + dy * dy + dz * dz));
}

class StokesRanks : public ::testing::TestWithParam<int> {};

TEST_P(StokesRanks, ZeroBuoyancyGivesZeroFlow) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = Forest::new_uniform(c, Connectivity::unit_cube(), 2);
    Mesh m = extract_mesh(c, f);
    StokesOptions opt;
    StokesSolver solver(c, m, f.connectivity(), constant_eta(m, 1.0), opt);
    std::vector<double> rhs(static_cast<std::size_t>(m.n_local) * 4, 0.0);
    std::vector<double> x(rhs.size(), 0.0);
    la::SolveResult r = solver.solve(c, rhs, x);
    EXPECT_TRUE(r.converged);
    for (double v : x) EXPECT_NEAR(v, 0.0, 1e-10);
  });
}

TEST_P(StokesRanks, HotBlobRises) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = Forest::new_uniform(c, Connectivity::unit_cube(), 3);
    Mesh m = extract_mesh(c, f);
    const std::vector<double> t = fem::interpolate(m, blob_t);
    StokesOptions opt;
    opt.krylov.max_iterations = 300;
    opt.krylov.rtol = 1e-8;
    StokesSolver solver(c, m, f.connectivity(), constant_eta(m, 1.0), opt);
    const std::vector<double> rhs =
        StokesSolver::buoyancy_rhs(c, m, f.connectivity(), t, 1e4, 2, opt);
    std::vector<double> x(rhs.size(), 0.0);
    la::SolveResult r = solver.solve(c, rhs, x);
    EXPECT_TRUE(r.converged);
    // Vertical velocity above the blob must be positive (upwelling).
    double w_at_center = 0.0;
    bool found = false;
    for (std::int64_t d = 0; d < m.n_owned; ++d) {
      const auto& p = m.dof_coords[static_cast<std::size_t>(d)];
      if (std::abs(p[0] - 0.5) < 1e-9 && std::abs(p[1] - 0.5) < 1e-9 &&
          std::abs(p[2] - 0.5) < 1e-9) {
        w_at_center = x[static_cast<std::size_t>(d) * 4 + 2];
        found = true;
      }
    }
    const int who = c.allreduce_max(found ? c.rank() : -1);
    ASSERT_GE(who, 0);
    // Broadcast via allreduce (only one rank owns the node).
    w_at_center = c.allreduce_sum(found ? w_at_center : 0.0);
    EXPECT_GT(w_at_center, 1.0);
  });
}

TEST_P(StokesRanks, SolutionIsNearlyDivergenceFree) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = Forest::new_uniform(c, Connectivity::unit_cube(), 3);
    Mesh m = extract_mesh(c, f);
    const std::vector<double> t = fem::interpolate(m, blob_t);
    StokesOptions opt;
    opt.krylov.rtol = 1e-10;
    opt.krylov.max_iterations = 400;
    StokesSolver solver(c, m, f.connectivity(), constant_eta(m, 1.0), opt);
    const std::vector<double> rhs =
        StokesSolver::buoyancy_rhs(c, m, f.connectivity(), t, 1e4, 2, opt);
    std::vector<double> x(rhs.size(), 0.0);
    ASSERT_TRUE(solver.solve(c, rhs, x).converged);
    // The discrete divergence of u integrated against each pressure test
    // function equals the (small) stabilization term C p: scale-check it
    // against the velocity magnitude.
    std::vector<double> ax(x.size());
    solver.op().apply(c, x, ax);
    double div2 = 0.0, vel2 = 0.0;
    for (std::int64_t d = 0; d < m.n_owned; ++d) {
      const double pres_res = ax[static_cast<std::size_t>(d) * 4 + 3] -
                              rhs[static_cast<std::size_t>(d) * 4 + 3];
      div2 += pres_res * pres_res;
      for (int cc = 0; cc < 3; ++cc)
        vel2 += x[static_cast<std::size_t>(d) * 4 + static_cast<std::size_t>(cc)] *
                x[static_cast<std::size_t>(d) * 4 + static_cast<std::size_t>(cc)];
    }
    div2 = c.allreduce_sum(div2);
    vel2 = c.allreduce_sum(vel2);
    EXPECT_LT(std::sqrt(div2), 1e-6 * std::sqrt(vel2) + 1e-8);
  });
}

TEST_P(StokesRanks, FreeSlipConstrainsNormalVelocity) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = Forest::new_uniform(c, Connectivity::unit_cube(), 3);
    Mesh m = extract_mesh(c, f);
    const std::vector<double> t = fem::interpolate(m, blob_t);
    StokesOptions opt;
    StokesSolver solver(c, m, f.connectivity(), constant_eta(m, 1.0), opt);
    const std::vector<double> rhs =
        StokesSolver::buoyancy_rhs(c, m, f.connectivity(), t, 1e4, 2, opt);
    std::vector<double> x(rhs.size(), 0.0);
    solver.solve(c, rhs, x);
    for (std::int64_t d = 0; d < m.n_local; ++d) {
      const std::uint8_t mask = m.dof_boundary[static_cast<std::size_t>(d)];
      for (int cc = 0; cc < 3; ++cc)
        if (mask & (0b11u << (2 * cc))) {
          EXPECT_NEAR(
              x[static_cast<std::size_t>(d) * 4 + static_cast<std::size_t>(cc)],
              0.0, 1e-12);
        }
    }
  });
}

TEST_P(StokesRanks, MinresIterationsBoundedUnderViscosityContrast) {
  alps::par::run(GetParam(), [](Comm& c) {
    // 10^4 viscosity jump: the block preconditioner should keep MINRES
    // iteration counts modest (this is the Fig. 2 claim in miniature).
    Forest f = Forest::new_uniform(c, Connectivity::unit_cube(), 3);
    Mesh m = extract_mesh(c, f);
    std::vector<double> eta(m.elements.size() * 8);
    for (std::size_t e = 0; e < m.elements.size(); ++e) {
      const auto xyz = m.element_corners_xyz(f.connectivity(),
                                             static_cast<std::int64_t>(e));
      const double z = xyz[0][2];
      for (int q = 0; q < 8; ++q)
        eta[8 * e + static_cast<std::size_t>(q)] = z > 0.5 ? 1e4 : 1.0;
    }
    const std::vector<double> t = fem::interpolate(m, blob_t);
    StokesOptions opt;
    opt.krylov.rtol = 1e-6;
    opt.krylov.max_iterations = 300;
    StokesSolver solver(c, m, f.connectivity(), eta, opt);
    const std::vector<double> rhs =
        StokesSolver::buoyancy_rhs(c, m, f.connectivity(), t, 1e4, 2, opt);
    std::vector<double> x(rhs.size(), 0.0);
    la::SolveResult r = solver.solve(c, rhs, x);
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.iterations, 150);
  });
}

TEST(StrainRate, LinearShearHasKnownInvariant) {
  alps::par::run(1, [](Comm& c) {
    Forest f = Forest::new_uniform(c, Connectivity::unit_cube(), 2);
    Mesh m = extract_mesh(c, f);
    // u = (z, 0, 0): eps = [[0,0,.5],[0,0,0],[.5,0,0]], edot = 0.5.
    std::vector<double> x(static_cast<std::size_t>(m.n_local) * 4, 0.0);
    for (std::int64_t d = 0; d < m.n_local; ++d)
      x[static_cast<std::size_t>(d) * 4] =
          m.dof_coords[static_cast<std::size_t>(d)][2];
    const std::vector<double> edot =
        stokes::strain_rate_invariant(m, f.connectivity(), x);
    for (double e : edot) EXPECT_NEAR(e, 0.5, 1e-12);
  });
}

TEST(Picard, YieldingLawConverges) {
  alps::par::run(1, [](Comm& c) {
    Forest f = Forest::new_uniform(c, Connectivity::unit_cube(), 2);
    Mesh m = extract_mesh(c, f);
    const std::vector<double> t = fem::interpolate(m, blob_t);
    stokes::PicardOptions popt;
    popt.max_iterations = 8;
    popt.tolerance = 1e-2;
    popt.rayleigh = 1e4;
    popt.stokes.krylov.max_iterations = 300;
    rhea::YieldingLawOptions yopt;
    yopt.sigma_y = 10.0;
    std::vector<double> x(static_cast<std::size_t>(m.n_local) * 4, 0.0);
    stokes::PicardResult r = stokes::solve_nonlinear_stokes(
        c, m, f.connectivity(), rhea::three_layer_yielding(yopt), t, x, popt);
    EXPECT_GE(r.iterations, 2);
    EXPECT_LT(r.velocity_change, 1e-2);
  });
}

TEST(Picard, HierarchyCacheReusesSetupAcrossIterationsAndSolves) {
  alps::par::run(2, [](Comm& c) {
    Forest f = Forest::new_uniform(c, Connectivity::unit_cube(), 2);
    Mesh m = extract_mesh(c, f);
    const std::vector<double> t = fem::interpolate(m, blob_t);
    stokes::PicardOptions popt;
    popt.max_iterations = 4;
    popt.tolerance = 1e-12;  // force several iterations
    popt.rayleigh = 1e4;
    popt.stokes.krylov.max_iterations = 300;
    rhea::YieldingLawOptions yopt;
    yopt.sigma_y = 10.0;
    amg::HierarchyCache cache;
    std::vector<double> x(static_cast<std::size_t>(m.n_local) * 4, 0.0);
    stokes::PicardResult r = stokes::solve_nonlinear_stokes(
        c, m, f.connectivity(), rhea::three_layer_yielding(yopt), t, x, popt,
        &cache);
    ASSERT_GE(r.iterations, 2);
    // Deterministic reuse accounting: exactly one symbolic setup, every
    // later iteration a numeric-only refresh.
    EXPECT_EQ(cache.stats.full_setups, 1);
    EXPECT_EQ(cache.stats.numeric_refreshes,
              static_cast<std::int64_t>(r.iterations) - 1);
    ASSERT_EQ(r.iteration_timings.size(),
              static_cast<std::size_t>(r.iterations));

    // A second solve on the same mesh reuses the structure too: no new
    // symbolic setup, one more numeric refresh per iteration.
    stokes::PicardResult rb = stokes::solve_nonlinear_stokes(
        c, m, f.connectivity(), rhea::three_layer_yielding(yopt), t, x, popt,
        &cache);
    EXPECT_EQ(cache.stats.full_setups, 1);
    EXPECT_EQ(cache.stats.numeric_refreshes,
              static_cast<std::int64_t>(r.iterations + rb.iterations) - 1);

    // Epoch bump invalidates: the next solve must rebuild from scratch.
    cache.bump_epoch();
    EXPECT_FALSE(cache.valid());
  });
}

TEST(Picard, WarmSecondSolveMatchesTightReferenceAtEveryRankCount) {
  // Picard's second solve on a small adapted mesh with yielding: the
  // operator is frozen at the first iterate, which is also the warm start.
  // Stopped at rtol = 1e-5 against ||b||_M, its velocity must match a
  // 1e-9 reference solve of the same system, and its iteration count must
  // not depend on the rank count: the rule is a change of denominator,
  // not a looser solve. Chebyshev smoothing makes the V-cycle the same
  // linear operator at every P; the default hybrid Gauss-Seidel relaxes
  // rank-boundary rows Jacobi-style, so its counts may move by one or two.
  std::vector<int> iterations;
  for (const int ranks : {1, 2, 4}) {
    int iters = -1;
    alps::par::run(ranks, [&](Comm& c) {
      Forest f = test_util::half_refined(c, Connectivity::unit_cube(), 2, 0.5);
      Mesh m = extract_mesh(c, f);
      const Connectivity& conn = f.connectivity();
      const std::vector<double> t = fem::interpolate(m, blob_t);
      rhea::YieldingLawOptions yopt;
      yopt.sigma_y = 0.5;
      const stokes::ViscosityLaw law = rhea::three_layer_yielding(yopt);
      stokes::PicardOptions popt;
      popt.max_iterations = 1;
      popt.rayleigh = 1e4;
      popt.stokes.krylov.rtol = 1e-5;
      popt.stokes.krylov.max_iterations = 300;
      popt.stokes.amg.smoother = amg::Smoother::kChebyshev;
      const std::vector<double> zero(static_cast<std::size_t>(m.n_local) * 4,
                                     0.0);
      std::vector<double> x1 = zero;
      const stokes::PicardResult first =
          stokes::solve_nonlinear_stokes(c, m, conn, law, t, x1, popt);
      EXPECT_TRUE(first.solves.at(0).converged);

      // The first iterate's strain rate makes the lithosphere yield.
      const std::vector<double> eta =
          stokes::evaluate_viscosity(m, conn, law, t, x1);
      const std::vector<double> eta_rest =
          stokes::evaluate_viscosity(m, conn, law, t, zero);
      double yielded = 0.0;
      for (std::size_t q = 0; q < eta.size(); ++q)
        if (eta[q] < eta_rest[q]) yielded += 1.0;
      EXPECT_GT(c.allreduce_sum(yielded), 0.0);

      const std::vector<double> rhs = StokesSolver::buoyancy_rhs(
          c, m, conn, t, popt.rayleigh, popt.buoyancy_dir, popt.stokes);
      const auto second = [&](double rtol, std::vector<double>& x) {
        StokesOptions sopt = popt.stokes;
        sopt.krylov.rtol = rtol;
        sopt.krylov.max_iterations = 1000;
        StokesSolver solver(c, m, conn, eta, sopt);
        return solver.solve(c, rhs, x);
      };
      std::vector<double> x = x1, x_ref = x1;
      const la::SolveResult r = second(1e-5, x);
      const la::SolveResult r_ref = second(1e-9, x_ref);
      EXPECT_TRUE(r.converged);
      EXPECT_TRUE(r_ref.converged);
      EXPECT_GT(r.iterations, 0);

      double diff = 0.0, norm = 0.0;
      for (std::int64_t d = 0; d < m.n_owned; ++d)
        for (std::size_t k = 0; k < 3; ++k) {
          const std::size_t i = 4 * static_cast<std::size_t>(d) + k;
          diff += (x[i] - x_ref[i]) * (x[i] - x_ref[i]);
          norm += x_ref[i] * x_ref[i];
        }
      diff = c.allreduce_sum(diff);
      norm = c.allreduce_sum(norm);
      EXPECT_GT(norm, 0.0);
      EXPECT_LT(std::sqrt(diff / norm), 1e-3);
      if (c.rank() == 0) iters = r.iterations;
    });
    iterations.push_back(iters);
  }
  EXPECT_EQ(iterations[1], iterations[0]);
  EXPECT_EQ(iterations[2], iterations[0]);
}

TEST(Viscosity, ThreeLayerLawMatchesPaper) {
  rhea::YieldingLawOptions opt;
  opt.sigma_y = 1.0;
  opt.eta_min = 1e-8;
  opt.eta_max = 1e8;
  const auto law = rhea::three_layer_yielding(opt);
  // Lithosphere, cold, slow deformation: 10 exp(-6.9 T).
  EXPECT_NEAR(law({0, 0, 0.95}, 0.0, 1e-6), 10.0, 1e-9);
  // Lithosphere under fast deformation: yields to sigma_y / (2 edot).
  EXPECT_NEAR(law({0, 0, 0.95}, 0.0, 100.0), 1.0 / 200.0, 1e-12);
  // Aesthenosphere: 0.8 exp(-6.9 T).
  EXPECT_NEAR(law({0, 0, 0.8}, 1.0, 0.0), 0.8 * std::exp(-6.9), 1e-12);
  // Lower mantle: 50 exp(-6.9 T).
  EXPECT_NEAR(law({0, 0, 0.5}, 0.5, 0.0), 50.0 * std::exp(-3.45), 1e-9);
  // Four orders of magnitude contrast across temperature at fixed depth.
  EXPECT_GT(law({0, 0, 0.5}, 0.0, 0.0) / law({0, 0, 0.95}, 1.0, 100.0), 1e3);
}

INSTANTIATE_TEST_SUITE_P(Sizes, StokesRanks, ::testing::Values(1, 2));

}  // namespace
