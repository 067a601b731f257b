// Convergence studies: manufactured solutions verifying the discrete
// operators at the rates theory predicts. These stand in for the paper's
// verification against CitcomCU (DESIGN.md substitutions).

#include <gtest/gtest.h>

#include <cmath>

#include "dg/advect.hpp"
#include "energy/energy.hpp"
#include "fem/operators.hpp"
#include "par/runtime.hpp"

namespace {

using namespace alps;
using forest::Connectivity;
using forest::Forest;
using mesh::extract_mesh;
using mesh::Mesh;
using par::Comm;

// Manufactured Poisson problem: -Laplace(u) = f with
// u = sin(pi x) sin(pi y) sin(pi z), f = 3 pi^2 u, u = 0 on the boundary.
double mms_u(const std::array<double, 3>& p) {
  return std::sin(M_PI * p[0]) * std::sin(M_PI * p[1]) * std::sin(M_PI * p[2]);
}

double solve_poisson_mms(Comm& c, int level) {
  Forest f = Forest::new_uniform(c, Connectivity::unit_cube(), level);
  Mesh m = extract_mesh(c, f);
  fem::ElementOperator op = fem::build_scalar_laplace(
      m, f.connectivity(), [](const std::array<double, 3>&) { return 1.0; },
      0b111111);
  // RHS: consistent mass times f (f interpolated nodally is adequate for
  // the rate test).
  fem::ElementOperator mass = fem::build_mass(m, f.connectivity());
  std::vector<double> fvec(static_cast<std::size_t>(m.n_local));
  for (std::int64_t i = 0; i < m.n_local; ++i)
    fvec[static_cast<std::size_t>(i)] =
        3.0 * M_PI * M_PI * mms_u(m.dof_coords[static_cast<std::size_t>(i)]);
  std::vector<double> b(fvec.size());
  mass.apply_raw(c, fvec, b);
  for (std::int64_t i = 0; i < m.n_local; ++i)
    if (m.dof_boundary[static_cast<std::size_t>(i)])
      b[static_cast<std::size_t>(i)] = 0.0;
  std::vector<double> x(fvec.size(), 0.0);
  la::KrylovOptions kopt;
  kopt.rtol = 1e-11;
  kopt.max_iterations = 4000;
  la::SolveResult r =
      la::cg(op.as_linop(c), b, x, la::identity_op(), op.as_dot(c), kopt);
  EXPECT_TRUE(r.converged);
  // Nodal max error.
  double err = 0;
  for (std::int64_t i = 0; i < m.n_local; ++i)
    err = std::max(err, std::abs(x[static_cast<std::size_t>(i)] -
                                 mms_u(m.dof_coords[static_cast<std::size_t>(i)])));
  return c.allreduce_max(err);
}

TEST(Convergence, PoissonTrilinearIsSecondOrder) {
  alps::par::run(2, [](Comm& c) {
    const double e2 = solve_poisson_mms(c, 2);
    const double e3 = solve_poisson_mms(c, 3);
    const double e4 = solve_poisson_mms(c, 4);
    const double rate23 = std::log2(e2 / e3);
    const double rate34 = std::log2(e3 / e4);
    EXPECT_GT(rate23, 1.6);
    EXPECT_GT(rate34, 1.7);  // asymptotic rate 2 for Q1 elements
    EXPECT_LT(e4, 0.01);
  });
}

TEST(Convergence, DiffusionDecayRateMatchesAnalytic) {
  // dT/dt = Laplace(T): the mode sin(pi x) with T = 0 at x-walls decays
  // as exp(-pi^2 t). Run the explicit solver and fit the rate.
  alps::par::run(1, [](Comm& c) {
    Forest f = Forest::new_uniform(c, Connectivity::unit_cube(), 4);
    Mesh m = extract_mesh(c, f);
    std::vector<double> t = fem::interpolate(m, [](const std::array<double, 3>& p) {
      return std::sin(M_PI * p[0]);
    });
    std::vector<double> vel(static_cast<std::size_t>(m.n_local) * 4, 0.0);
    energy::EnergyOptions opt;
    opt.kappa = 1.0;
    opt.dirichlet_faces = 0b000011;  // x-walls only
    energy::EnergySolver solver(c, m, f.connectivity(), vel, opt);
    const double dt = solver.stable_dt(c);
    const auto amp = [&] {
      double a = 0;
      for (std::int64_t i = 0; i < m.n_owned; ++i)
        a = std::max(a, std::abs(t[static_cast<std::size_t>(i)]));
      return c.allreduce_max(a);
    };
    const double a0 = amp();
    const int steps = 40;
    for (int s = 0; s < steps; ++s) solver.step(c, t, dt);
    const double a1 = amp();
    const double rate = -std::log(a1 / a0) / (steps * dt);
    EXPECT_NEAR(rate, M_PI * M_PI, 0.05 * M_PI * M_PI);
  });
}

TEST(Convergence, DgSpectralAccuracyInOrder) {
  // Advecting a smooth profile for a fixed short time: the error should
  // drop by orders of magnitude as p increases on a fixed mesh.
  alps::par::run(1, [](Comm& c) {
    double errs[3];
    int k = 0;
    for (int p : {2, 4, 6}) {
      Forest f = Forest::new_uniform(
          c, Connectivity::brick(1, 1, 1, true, true, true), 1);
      dg::DgAdvection dgs(c, f, p, dg::brick_geometry(f.connectivity()),
                          [](const std::array<double, 3>&, double) {
                            return std::array<double, 3>{1.0, 0.0, 0.0};
                          });
      const auto wave = [](const std::array<double, 3>& x) {
        return std::sin(2.0 * M_PI * x[0]);
      };
      std::vector<double> u = dgs.interpolate(wave);
      const double dt0 = dgs.stable_dt(c, 0.0, 0.15);
      const double t_final = 0.1;
      const int steps = static_cast<int>(std::ceil(t_final / dt0));
      const double dt = t_final / steps;
      double t = 0.0;
      for (int s = 0; s < steps; ++s) {
        dgs.step(c, u, t, dt);
        t += dt;
      }
      // Exact: the wave shifted by t_final.
      double err = 0;
      const std::int64_t n3 = dgs.nodes_per_elem();
      for (std::int64_t e = 0; e < dgs.num_local_elements(); ++e)
        for (std::int64_t n = 0; n < n3; ++n) {
          const auto x = dgs.node_xyz(e, n);
          const double exact = std::sin(2.0 * M_PI * (x[0] - t_final));
          err = std::max(err,
                         std::abs(u[static_cast<std::size_t>(e * n3 + n)] - exact));
        }
      errs[k++] = c.allreduce_max(err);
    }
    EXPECT_LT(errs[1], 0.2 * errs[0]);
    EXPECT_LT(errs[2], 0.5 * errs[1]);
    EXPECT_LT(errs[2], 1e-3);
  });
}

TEST(Convergence, PoissonOnAdaptedMeshBeatsUniformAtSameSize) {
  // AMR value proposition in miniature: for a solution with a sharp
  // feature, an adapted mesh reaches lower error than the uniform mesh
  // with comparable element count.
  alps::par::run(1, [](Comm& c) {
    const auto sharp = [](const std::array<double, 3>& p) {
      const double dx = p[0] - 0.5, dy = p[1] - 0.5, dz = p[2] - 0.5;
      return std::exp(-50.0 * (dx * dx + dy * dy + dz * dz));
    };
    const auto run_case = [&](Forest f) {
      Mesh m = extract_mesh(c, f);
      std::vector<double> g(static_cast<std::size_t>(m.n_local), 0.0);
      // Interpolation error of the sharp profile as the error proxy
      // (solver-independent and monotone in resolution near the bump).
      double err = 0;
      const auto& conn = f.connectivity();
      for (std::size_t e = 0; e < m.elements.size(); ++e) {
        const auto xyz = m.element_corners_xyz(conn, static_cast<std::int64_t>(e));
        // Compare center value vs trilinear average of corners.
        std::array<double, 3> ctr{};
        double avg = 0;
        for (int k = 0; k < 8; ++k) {
          for (int d = 0; d < 3; ++d)
            ctr[static_cast<std::size_t>(d)] +=
                xyz[static_cast<std::size_t>(k)][static_cast<std::size_t>(d)] / 8.0;
          avg += sharp(xyz[static_cast<std::size_t>(k)]) / 8.0;
        }
        err = std::max(err, std::abs(sharp(ctr) - avg));
      }
      return std::pair<double, std::int64_t>(
          c.allreduce_max(err), c.allreduce_sum(f.tree().num_local()));
    };

    Forest uniform = Forest::new_uniform(c, Connectivity::unit_cube(), 3);
    auto [eu, nu] = run_case(std::move(uniform));

    Forest adapted = Forest::new_uniform(c, Connectivity::unit_cube(), 2);
    for (int round = 0; round < 3; ++round) {
      std::vector<std::int8_t> flags(adapted.tree().leaves().size(), 0);
      const auto& conn = adapted.connectivity();
      for (std::size_t e = 0; e < flags.size(); ++e) {
        const auto& o = adapted.tree().leaves()[e];
        const auto h = octree::octant_len(o.level);
        const auto p = conn.map_point(o.tree, o.x + h / 2, o.y + h / 2, o.z + h / 2);
        const double r2 = (p[0] - 0.5) * (p[0] - 0.5) +
                          (p[1] - 0.5) * (p[1] - 0.5) +
                          (p[2] - 0.5) * (p[2] - 0.5);
        if (r2 < 0.015) flags[e] = 1;
      }
      adapted.tree().adapt(flags, 2, 5);
      adapted.tree().update_ranges(c);
    }
    adapted.balance(c);
    auto [ea, na] = run_case(std::move(adapted));

    EXPECT_LE(na, 2 * nu);   // comparable budget
    EXPECT_LT(ea, 0.5 * eu); // much lower error at the feature
  });
}

}  // namespace
