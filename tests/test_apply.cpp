// Tests for the batched SoA apply path (fem/assembly), the split-phase
// halo (mesh), pairwise summation, and the reduced-synchronization Krylov
// loops: the batched + comm-overlapped apply must match the scalar
// reference path on meshes with hanging nodes at P in {1, 2, 4}, Dirichlet
// handling must survive the weight-folding, halo misuse must throw, and
// CG/MINRES must issue at most 2 reduction rounds per iteration.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "fem/operators.hpp"
#include "la/krylov.hpp"
#include "oracles/oracles.hpp"
#include "par/runtime.hpp"

namespace {

using namespace alps;
using fem::ElementOperator;
using forest::Connectivity;
using forest::Forest;
using mesh::Mesh;
using mesh::extract_mesh;
using alps::par::Comm;

/// Adapted forest with hanging nodes; at P > 1 the refined center octants
/// land near rank boundaries, so constraints cross ranks.
Forest adapted_forest(Comm& c, int rounds = 1) {
  Forest f = Forest::new_uniform(c, Connectivity::unit_cube(), 2);
  const alps::octree::coord_t mid = alps::octree::coord_t{1}
                                    << (alps::octree::kMaxLevel - 1);
  for (int round = 0; round < rounds; ++round) {
    std::vector<std::int8_t> flags(f.tree().leaves().size(), 0);
    for (std::size_t i = 0; i < flags.size(); ++i) {
      const auto& o = f.tree().leaves()[i];
      if (o.x == mid && o.y == mid && o.z == mid) flags[i] = 1;
    }
    f.tree().adapt(flags, 0, 6);
  }
  f.tree().update_ranges(c);
  f.balance(c);
  return f;
}

/// Deterministic ghost-consistent values keyed on the global id.
std::vector<double> gid_vector(const Mesh& m, int ncomp, double scale = 1.0) {
  std::vector<double> x(static_cast<std::size_t>(m.n_local) * ncomp);
  for (std::int64_t d = 0; d < m.n_local; ++d)
    for (int c = 0; c < ncomp; ++c)
      x[static_cast<std::size_t>(d) * ncomp + c] =
          scale * std::sin(0.37 * static_cast<double>(
                                      m.dof_gids[static_cast<std::size_t>(d)]) +
                           0.7 * c);
  return x;
}

void expect_near_rel(const std::vector<double>& a, const std::vector<double>& b,
                     double tol) {
  ASSERT_EQ(a.size(), b.size());
  double scale = 1.0;
  for (double v : b) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(a[i], b[i], tol * scale) << "at value index " << i;
}

class ApplyRanks : public ::testing::TestWithParam<int> {};

TEST_P(ApplyRanks, BatchedMatchesScalarWithHangingNodes) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = adapted_forest(c);
    Mesh m = extract_mesh(c, f);
    ElementOperator op = fem::build_scalar_laplace(
        m, f.connectivity(),
        [](const std::array<double, 3>& p) { return 1.0 + 3.0 * p[0]; },
        0b000111);
    const std::vector<double> x = gid_vector(m, 1);
    std::vector<double> y_batched(x.size()), y_scalar(x.size());
    op.apply(c, x, y_batched);
    oracle::apply_scalar(c, op, x, y_scalar);
    expect_near_rel(y_batched, y_scalar, 1e-13);

    // The raw (no-BC) path too: exercised by RHS lifting and energy.
    op.apply_raw(c, x, y_batched);
    oracle::apply_raw_scalar(c, op, x, y_scalar);
    expect_near_rel(y_batched, y_scalar, 1e-13);
  });
}

TEST_P(ApplyRanks, BatchedMatchesScalarVectorOperator) {
  alps::par::run(GetParam(), [](Comm& c) {
    // Stokes-shaped 4-component block-diagonal operator with velocity-like
    // Dirichlet values: covers nc > 1 indexing, the 32x32 matvec, and
    // batches whose last lanes are padding.
    Forest f = adapted_forest(c);
    Mesh m = extract_mesh(c, f);
    ElementOperator lap = fem::build_scalar_laplace(
        m, f.connectivity(),
        [](const std::array<double, 3>& p) { return 1.0 + p[2]; }, 0b111111);
    ElementOperator op(&m, 4);
    const std::size_t bs = op.block_size();
    for (std::size_t e = 0; e < m.elements.size(); ++e) {
      const std::span<const double> m1 = lap.element_matrix(e);
      std::span<double> m4 = op.element_matrix(e);
      for (std::size_t i = 0; i < 8; ++i)
        for (std::size_t j = 0; j < 8; ++j)
          for (std::size_t cc = 0; cc < 4; ++cc)
            m4[(i * 4 + cc) * bs + j * 4 + cc] = m1[i * 8 + j];
    }
    for (std::int64_t d = 0; d < m.n_local; ++d)
      if (m.dof_boundary[static_cast<std::size_t>(d)] != 0)
        for (int cc = 0; cc < 3; ++cc) op.set_dirichlet(d, cc);

    const std::vector<double> x = gid_vector(m, 4);
    std::vector<double> y_batched(x.size()), y_scalar(x.size());
    op.apply(c, x, y_batched);
    oracle::apply_scalar(c, op, x, y_scalar);
    expect_near_rel(y_batched, y_scalar, 1e-13);
  });
}

TEST_P(ApplyRanks, NonsymmetricOperatorUsesGeneralKernelCorrectly) {
  alps::par::run(GetParam(), [](Comm& c) {
    // Perturb one off-diagonal entry so the exact-symmetry scan fails and
    // the full (non-packed) layout is exercised alongside the scalar path.
    Forest f = adapted_forest(c);
    Mesh m = extract_mesh(c, f);
    ElementOperator op = fem::build_scalar_laplace(
        m, f.connectivity(), [](const std::array<double, 3>&) { return 1.0; },
        0b000011);
    for (std::size_t e = 0; e < m.elements.size(); ++e)
      op.element_matrix(e)[1] += 0.25;  // (0,1) only: now A != A^T
    const std::vector<double> x = gid_vector(m, 1);
    std::vector<double> y_batched(x.size()), y_scalar(x.size());
    op.apply(c, x, y_batched);
    oracle::apply_scalar(c, op, x, y_scalar);
    expect_near_rel(y_batched, y_scalar, 1e-13);
  });
}

TEST_P(ApplyRanks, AllDirichletActsAsIdentity) {
  alps::par::run(GetParam(), [](Comm& c) {
    // Every value constrained: apply must return x exactly, including the
    // ghost entries (they arrive from their owners via the exchange).
    Forest f = adapted_forest(c);
    Mesh m = extract_mesh(c, f);
    ElementOperator op = fem::build_scalar_laplace(
        m, f.connectivity(), [](const std::array<double, 3>&) { return 2.0; },
        0b111111);
    for (std::int64_t d = 0; d < m.n_local; ++d) op.set_dirichlet(d, 0);
    const std::vector<double> x = gid_vector(m, 1);
    std::vector<double> y(x.size(), -7.0);
    op.apply(c, x, y);
    for (std::size_t i = 0; i < x.size(); ++i)
      EXPECT_EQ(y[i], x[i]) << "at value index " << i;
  });
}

TEST_P(ApplyRanks, PlanRebuildsAfterMatrixOrBcEdit) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = adapted_forest(c);
    Mesh m = extract_mesh(c, f);
    ElementOperator op = fem::build_scalar_laplace(
        m, f.connectivity(), [](const std::array<double, 3>&) { return 1.0; },
        0b000011);
    const std::vector<double> x = gid_vector(m, 1);
    std::vector<double> y1(x.size()), y2(x.size()), ys(x.size());
    op.apply(c, x, y1);  // builds the plan
    for (std::size_t e = 0; e < m.elements.size(); ++e) {
      std::span<double> me = op.element_matrix(e);
      for (double& v : me) v *= 2.0;
    }
    op.apply(c, x, y2);  // must see the doubled matrices
    oracle::apply_scalar(c, op, x, ys);
    expect_near_rel(y2, ys, 1e-13);
  });
}

TEST_P(ApplyRanks, InteriorBoundarySplitCoversAllElements) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = adapted_forest(c);
    Mesh m = extract_mesh(c, f);
    ElementOperator op = fem::build_scalar_laplace(
        m, f.connectivity(), [](const std::array<double, 3>&) { return 1.0; },
        0b111111);
    const std::size_t nb = op.boundary_elements();
    const std::size_t ni = op.interior_elements();
    EXPECT_EQ(nb + ni, m.elements.size());
    if (c.size() == 1) {
      EXPECT_EQ(nb, 0u);  // no ghosts without neighbors
    }
  });
}

TEST_P(ApplyRanks, KrylovIssuesAtMostTwoSyncsPerIteration) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = adapted_forest(c);
    Mesh m = extract_mesh(c, f);
    ElementOperator op = fem::build_scalar_laplace(
        m, f.connectivity(), [](const std::array<double, 3>&) { return 1.0; },
        0b111111);
    const std::vector<double> xe = gid_vector(m, 1);
    std::vector<double> b(xe.size());
    op.apply(c, xe, b);
    la::KrylovOptions kopt;
    kopt.rtol = 1e-6;
    kopt.max_iterations = 300;

    for (const bool use_minres : {false, true}) {
      std::vector<double> x(xe.size(), 0.0);
      c.barrier();
      const std::uint64_t a0 = c.stats().allreduce_calls.load();
      const la::SolveResult r =
          use_minres ? la::minres(op.as_linop(c), b, x, la::identity_op(),
                                  op.as_multi_dot(c), kopt)
                     : la::cg(op.as_linop(c), b, x, la::identity_op(),
                              op.as_multi_dot(c), kopt);
      c.barrier();
      const std::uint64_t a1 = c.stats().allreduce_calls.load();
      EXPECT_TRUE(r.converged);
      ASSERT_GT(r.iterations, 0);
      // allreduce_calls counts every rank: rounds = delta / P. One fused
      // round precedes the loop; each iteration then costs exactly 2.
      const std::uint64_t rounds =
          (a1 - a0) / static_cast<std::uint64_t>(c.size());
      EXPECT_EQ(rounds, 1u + 2u * static_cast<std::uint64_t>(r.iterations))
          << (use_minres ? "minres" : "cg");
    }
  });
}

TEST_P(ApplyRanks, FusedDotsDoNotChangeIterationCounts) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = adapted_forest(c);
    Mesh m = extract_mesh(c, f);
    ElementOperator op = fem::build_scalar_laplace(
        m, f.connectivity(), [](const std::array<double, 3>&) { return 1.0; },
        0b111111);
    const std::vector<double> xe = gid_vector(m, 1);
    std::vector<double> b(xe.size());
    op.apply(c, xe, b);
    la::KrylovOptions kopt;
    kopt.rtol = 1e-6;
    kopt.max_iterations = 300;
    std::vector<double> x1(xe.size(), 0.0), x2(xe.size(), 0.0);
    const la::SolveResult fused = la::minres(
        op.as_linop(c), b, x1, la::identity_op(), op.as_multi_dot(c), kopt);
    const la::SolveResult perdot = la::minres(
        op.as_linop(c), b, x2, la::identity_op(), op.as_dot(c), kopt);
    EXPECT_TRUE(fused.converged);
    // Same pairwise local sums either way — identical residual histories.
    EXPECT_EQ(fused.iterations, perdot.iterations);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, ApplyRanks, ::testing::Values(1, 2, 4));

TEST(HaloSplitPhase, MisuseThrows) {
  alps::par::run(2, [](Comm& c) {
    Forest f = Forest::new_uniform(c, Connectivity::unit_cube(), 2);
    Mesh m = extract_mesh(c, f);
    std::vector<double> v(static_cast<std::size_t>(m.n_local), 1.0);

    // Finish without a start.
    EXPECT_THROW(m.accumulate_finish(c, v), std::logic_error);
    EXPECT_THROW(m.exchange_finish(c, v), std::logic_error);

    // Double start, and finishing the wrong operation.
    m.accumulate_start(c, v);
    EXPECT_THROW(m.accumulate_start(c, v), std::logic_error);
    EXPECT_THROW(m.exchange_start(c, v), std::logic_error);
    EXPECT_THROW(m.exchange_finish(c, v), std::logic_error);
    m.accumulate_finish(c, v);  // proper completion still works

    // ncomp must match between start and finish.
    std::vector<double> v2(static_cast<std::size_t>(m.n_local) * 2, 1.0);
    m.exchange_start(c, v2, 2);
    EXPECT_THROW(m.exchange_finish(c, v2, 1), std::logic_error);
    m.exchange_finish(c, v2, 2);
  });
}

TEST(HaloSplitPhase, SplitEqualsFused) {
  alps::par::run(4, [](Comm& c) {
    Forest f = Forest::new_uniform(c, Connectivity::unit_cube(), 2);
    Mesh m = extract_mesh(c, f);
    std::vector<double> a(static_cast<std::size_t>(m.n_local), 0.0);
    std::vector<double> b(static_cast<std::size_t>(m.n_local), 0.0);
    for (std::int64_t d = 0; d < m.n_local; ++d)
      a[static_cast<std::size_t>(d)] = b[static_cast<std::size_t>(d)] =
          0.5 + static_cast<double>(
                    m.dof_gids[static_cast<std::size_t>(d)] % 17);
    m.accumulate(c, a);
    m.exchange(c, a);
    m.accumulate_start(c, b);
    m.accumulate_finish(c, b);
    m.exchange_start(c, b);
    m.exchange_finish(c, b);
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  });
}

TEST(PairwiseDot, MatchesHighPrecisionReferenceTightly) {
  // Magnitude-spread data with cancellation: naive left-to-right summation
  // drifts at ~1e-11 relative here; the blocked pairwise sum must pin the
  // result to near machine precision of the long-double reference.
  constexpr std::size_t n = 100'000;
  std::vector<double> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double s = std::sin(0.1 * static_cast<double>(i));
    a[i] = s * std::exp(8.0 * std::cos(0.003 * static_cast<double>(i)));
    b[i] = (i % 2 == 0 ? 1.0 : -1.0) * (1.0 + 0.5 * s);
  }
  long double exact = 0.0L;
  long double abs_sum = 0.0L;
  for (std::size_t i = 0; i < n; ++i) {
    exact += static_cast<long double>(a[i]) * static_cast<long double>(b[i]);
    abs_sum += std::abs(static_cast<long double>(a[i]) *
                        static_cast<long double>(b[i]));
  }
  const double got = la::pairwise_dot(a, b);
  const double err =
      std::abs(static_cast<double>(static_cast<long double>(got) - exact));
  EXPECT_LE(err, 1e-13 * static_cast<double>(abs_sum));
}

TEST(PairwiseDot, SmallSizesMatchNaiveExactly) {
  // Up to the base block the pairwise sum IS the naive sum — bitwise.
  for (const std::size_t n : {0u, 1u, 7u, 63u, 64u}) {
    std::vector<double> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = std::cos(0.9 * static_cast<double>(i));
      b[i] = std::sin(1.7 * static_cast<double>(i)) + 0.3;
    }
    double naive = 0.0;
    for (std::size_t i = 0; i < n; ++i) naive += a[i] * b[i];
    EXPECT_EQ(la::pairwise_dot(a, b), naive);
  }
}

}  // namespace
