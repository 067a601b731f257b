// End-to-end tests for the RHEA simulation driver (src/rhea).

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "fem/operators.hpp"
#include "forests.hpp"
#include "octree/balance.hpp"
#include "rhea/diagnostics.hpp"
#include "rhea/simulation.hpp"
#include "par/runtime.hpp"

namespace {

using namespace alps;
using test_util::frustum;
using test_util::half_refined;
using forest::Connectivity;
using par::Comm;
using rhea::SimConfig;
using rhea::Simulation;

double front_t0(const std::array<double, 3>& p) {
  const double dx = p[0] - 0.35, dy = p[1] - 0.5, dz = p[2] - 0.5;
  return std::exp(-60.0 * (dx * dx + dy * dy + dz * dz));
}

SimConfig advection_config() {
  SimConfig cfg;
  cfg.init_level = 3;
  cfg.min_level = 2;
  cfg.max_level = 5;
  cfg.initial_adapt_rounds = 2;
  cfg.adapt_every = 4;
  cfg.energy.kappa = 1e-6;
  cfg.energy.dirichlet_faces = 0b111111;
  cfg.prescribed_velocity = [](const std::array<double, 3>&, double) {
    return std::array<double, 3>{1.0, 0.0, 0.0};
  };
  return cfg;
}

class RheaRanks : public ::testing::TestWithParam<int> {};

TEST_P(RheaRanks, AdvectionRunAdaptsAndHoldsElementCount) {
  alps::par::run(GetParam(), [](Comm& c) {
    SimConfig cfg = advection_config();
    Simulation sim(c, cfg);
    sim.initialize(front_t0);
    const std::int64_t n0 = sim.global_elements();
    cfg.target_elements = n0;
    sim.run(12);  // 3 adaptation cycles at adapt_every = 4
    EXPECT_GE(sim.adapt_history().size(), 2u);
    // MARKELEMENTS holds the total roughly constant (Fig. 5 behaviour).
    for (const auto& st : sim.adapt_history()) {
      EXPECT_GT(st.total_elements, n0 / 4);
      EXPECT_LT(st.total_elements, n0 * 4);
      EXPECT_EQ(st.refined * 0 + st.unchanged + st.refined + st.coarsened,
                st.unchanged + st.refined + st.coarsened);  // tautology guard
      EXPECT_GE(st.refined, 0);
    }
    // Mesh stays balanced and complete through the cycles.
    EXPECT_TRUE(sim.forest().is_balanced(c));
    EXPECT_TRUE(octree::LinearOctree::globally_complete(
        c, const_cast<Simulation&>(sim).forest().tree()));
  });
}

TEST_P(RheaRanks, RefinementFollowsTheMovingFront) {
  alps::par::run(GetParam(), [](Comm& c) {
    Simulation sim(c, advection_config());
    sim.initialize(front_t0);
    sim.run(12);
    // The fine elements should cluster near the (advected) blob; its
    // center moved right from x = 0.35 by roughly the elapsed time.
    const double cx = 0.35 + sim.time();
    double fine_near = 0, fine_far = 0;
    const auto& conn = sim.forest().connectivity();
    for (const auto& o : sim.forest().tree().leaves()) {
      if (o.level < 5) continue;
      const auto h = octree::octant_len(o.level);
      const auto p = conn.map_point(o.tree, o.x + h / 2, o.y + h / 2, o.z + h / 2);
      (std::abs(p[0] - cx) < 0.25 ? fine_near : fine_far) += 1;
    }
    fine_near = c.allreduce_sum(fine_near);
    fine_far = c.allreduce_sum(fine_far);
    if (fine_near + fine_far > 0) {
      EXPECT_GT(fine_near, fine_far);
    }
  });
}

#ifndef ALPS_OBS_DISABLE  // PhaseTimers' spans are compiled out
TEST_P(RheaRanks, TimersArePopulated) {
  alps::par::run(GetParam(), [](Comm& c) {
    Simulation sim(c, advection_config());
    sim.initialize(front_t0);
    sim.run(8);
    const rhea::PhaseTimers& t = sim.timers();
    EXPECT_GT(t.time_integration, 0.0);
    EXPECT_GT(t.mark_elements, 0.0);
    EXPECT_GT(t.balance, 0.0);
    EXPECT_GT(t.extract_mesh, 0.0);
    EXPECT_GE(t.amr_total(), t.balance);
  });
}
#endif  // ALPS_OBS_DISABLE

TEST_P(RheaRanks, AdaptationStatsAreConsistent) {
  alps::par::run(GetParam(), [](Comm& c) {
    Simulation sim(c, advection_config());
    sim.initialize(front_t0);
    const std::int64_t before = sim.global_elements();
    sim.run(5);  // one adaptation at step 4
    ASSERT_GE(sim.adapt_history().size(), 1u);
    const auto& st = sim.adapt_history().front();
    // Old elements partition into refined/coarsened/unchanged.
    EXPECT_EQ(st.refined + st.coarsened + st.unchanged, before);
    // New totals: unchanged + 8*refined + coarsened/8 + balance_added.
    EXPECT_EQ(st.total_elements,
              st.unchanged + 8 * st.refined + st.coarsened / 8 +
                  st.balance_added);
    // Level histogram sums to the total.
    std::int64_t sum = 0;
    for (auto v : st.per_level) sum += v;
    EXPECT_EQ(sum, st.total_elements);
  });
}

TEST_P(RheaRanks, SmallMantleConvectionRunsStably) {
  alps::par::run(GetParam(), [](Comm& c) {
    SimConfig cfg;
    cfg.init_level = 2;
    cfg.min_level = 2;
    cfg.max_level = 4;
    cfg.initial_adapt_rounds = 1;
    cfg.adapt_every = 3;
    cfg.energy.kappa = 1.0;
    cfg.picard.rayleigh = 1e4;
    cfg.picard.max_iterations = 2;
    cfg.picard.stokes.krylov.max_iterations = 200;
    cfg.picard.stokes.krylov.rtol = 1e-6;
    rhea::YieldingLawOptions yopt;
    cfg.law = rhea::three_layer_yielding(yopt);
    Simulation sim(c, cfg);
    sim.initialize([](const std::array<double, 3>& p) {
      return (1.0 - p[2]) + 0.1 * std::cos(M_PI * p[0]) * std::sin(M_PI * p[2]);
    });
    sim.run(4);
    // Convection started: nonzero velocity somewhere.
    double vmax = 0;
    for (std::int64_t d = 0; d < sim.mesh().n_owned; ++d)
      for (int cc = 0; cc < 3; ++cc)
        vmax = std::max(vmax, std::abs(sim.solution()[static_cast<std::size_t>(
                                  d * 4 + cc)]));
    EXPECT_GT(c.allreduce_max(vmax), 1e-2);
    // Temperature remains bounded (no blow-up).
    double tmax = 0;
    for (double v : sim.temperature()) tmax = std::max(tmax, std::abs(v));
    EXPECT_LT(c.allreduce_max(tmax), 2.0);
#ifndef ALPS_OBS_DISABLE  // PhaseTimers' spans are compiled out
    EXPECT_GT(sim.timers().minres + sim.timers().amg_apply, 0.0);
#endif
  });
}

TEST_P(RheaRanks, GoalOrientedAdaptationTracksGoalRegion) {
  alps::par::run(GetParam(), [](Comm& c) {
    // With an adjoint goal at the right wall and flow in +x, refinement
    // should end up biased toward the right (upstream-of-goal) half even
    // though the temperature front starts on the left.
    SimConfig cfg = advection_config();
    cfg.goal_region = [](const std::array<double, 3>& p) {
      return p[0] > 0.8 ? 1.0 : 0.0;
    };
    cfg.adjoint_pseudo_steps = 8;
    Simulation sim(c, cfg);
    sim.initialize(front_t0);
    sim.run(10);
    ASSERT_GE(sim.adapt_history().size(), 1u);
    double left = 0, right = 0;
    const auto& conn = sim.forest().connectivity();
    for (const auto& o : sim.forest().tree().leaves()) {
      if (o.level < 4) continue;
      const auto h = octree::octant_len(o.level);
      const auto p = conn.map_point(o.tree, o.x + h / 2, o.y + h / 2, o.z + h / 2);
      (p[0] < 0.5 ? left : right) += 1;
    }
    left = c.allreduce_sum(left);
    right = c.allreduce_sum(right);
    EXPECT_GT(right, left);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, RheaRanks, ::testing::Values(1, 2));

// ---- physics diagnostics ------------------------------------------------

/// A 4-component velocity+pressure vector holding u(x) at every dof.
std::vector<double> nodal_velocity(
    const mesh::Mesh& m,
    const std::function<std::array<double, 3>(const std::array<double, 3>&)>&
        u) {
  std::vector<double> sol(4 * static_cast<std::size_t>(m.n_local), 0.0);
  for (std::size_t d = 0; d < static_cast<std::size_t>(m.n_local); ++d) {
    const std::array<double, 3> v = u(m.dof_coords[d]);
    for (std::size_t k = 0; k < 3; ++k) sol[4 * d + k] = v[k];
  }
  return sol;
}

class DiagnosticsRanks : public ::testing::TestWithParam<int> {};

TEST_P(DiagnosticsRanks, ClosedFormsOnAdaptedUnitCube) {
  alps::par::run(GetParam(), [](Comm& c) {
    // T = 1 - z and u = (0, 0, 1) are trilinear, so hanging-node
    // interpolation and 2x2x2 Gauss quadrature are exact: v_rms = 1,
    // <T> = 1/2, <u_z T> = 1/2, so Nu = 1 + (1/2)/kappa.
    const forest::Forest f = half_refined(c, Connectivity::unit_cube(), 2, 0.4);
    const mesh::Mesh m = mesh::extract_mesh(c, f);
    bool hanging = false;
    for (const auto& corners : m.corners)
      for (const mesh::Corner& cc : corners) hanging |= cc.n > 1;
    EXPECT_TRUE(c.allreduce_or(hanging));

    const std::vector<double> t = fem::interpolate(
        m, [](const std::array<double, 3>& p) { return 1.0 - p[2]; });
    const std::vector<double> sol = nodal_velocity(
        m, [](const std::array<double, 3>&) {
          return std::array<double, 3>{0.0, 0.0, 1.0};
        });
    const double kappa = 0.25;
    const rhea::PhysicsDiagnostics d = rhea::compute_physics_diagnostics(
        c, m, f.connectivity(), t, sol, kappa);
    EXPECT_NEAR(d.v_rms, 1.0, 1e-13);
    EXPECT_NEAR(d.t_mean, 0.5, 1e-13);
    EXPECT_NEAR(d.nusselt, 1.0 + 0.5 / kappa, 1e-12);
    EXPECT_EQ(d.t_min, 0.0);
    EXPECT_EQ(d.t_max, 1.0);
  });
}

TEST_P(DiagnosticsRanks, WeightsOverloadMatchesConnectivityOverloadBitwise) {
  alps::par::run(GetParam(), [](Comm& c) {
    for (Connectivity conn : {Connectivity::unit_cube(), frustum()}) {
      const forest::Forest f = half_refined(c, conn, 2, 0.6);
      const mesh::Mesh m = mesh::extract_mesh(c, f);
      const std::vector<double> t = fem::interpolate(
          m, [](const std::array<double, 3>& p) {
            return std::sin(3.0 * p[0]) * p[1] + p[2] * p[2];
          });
      const std::vector<double> sol =
          nodal_velocity(m, [](const std::array<double, 3>& p) {
            return std::array<double, 3>{p[1], -p[0], p[0] * p[2]};
          });
      const rhea::PhysicsDiagnostics a = rhea::compute_physics_diagnostics(
          c, m, f.connectivity(), t, sol, 0.5);
      const rhea::PhysicsDiagnostics b = rhea::compute_physics_diagnostics(
          c, m, fem::element_quad_weights(m, f.connectivity()), t, sol, 0.5);
      EXPECT_EQ(a.nusselt, b.nusselt);
      EXPECT_EQ(a.v_rms, b.v_rms);
      EXPECT_EQ(a.t_min, b.t_min);
      EXPECT_EQ(a.t_max, b.t_max);
      EXPECT_EQ(a.t_mean, b.t_mean);
      EXPECT_NE(a.v_rms, 0.0);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, DiagnosticsRanks, ::testing::Values(1, 2, 4));

}  // namespace
