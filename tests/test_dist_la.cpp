// Tests for the distributed owned-row matrix stack (src/la/dist_csr) and
// the distributed AMG hierarchy (src/amg/dist_amg): ghost-plan
// construction, matvec / transpose-matvec against a replicated-CSR
// reference on random partitions, distributed assembly equivalence, and
// Poisson AMG convergence mirroring tests/test_amg.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "amg/dist_amg.hpp"
#include "fem/operators.hpp"
#include "la/dist_csr.hpp"
#include "la/krylov.hpp"
#include "matrices.hpp"
#include "oracles/oracles.hpp"
#include "par/runtime.hpp"

namespace {

using namespace alps;
using la::Csr;
using la::DistCsr;
using la::Triplet;
using par::Comm;
using test_util::dist_residual_norm;
using test_util::distribute;
using test_util::laplace_3d;
using test_util::to_triplets;

// Random monotone partition of [0, n) into `p` (possibly empty) ranges;
// deterministic, so every rank computes the same offsets.
std::vector<std::int64_t> random_offsets(int p, std::int64_t n,
                                         unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::int64_t> cut(0, n);
  std::vector<std::int64_t> off(static_cast<std::size_t>(p) + 1);
  off.front() = 0;
  off.back() = n;
  for (int r = 1; r < p; ++r) off[static_cast<std::size_t>(r)] = cut(rng);
  std::sort(off.begin(), off.end());
  return off;
}

TEST(GhostExchange, PlanRoutesOwnedValuesToGhostSlots) {
  alps::par::run(3, [](Comm& c) {
    // Partition [0, 9) into thirds; every rank ghosts one entry from each
    // other rank: rank r needs gids {(r+1)*3, (r+2)*3 mod 9} (sorted).
    const std::vector<std::int64_t> off = {0, 3, 6, 9};
    std::vector<std::int64_t> ghosts;
    for (int r = 0; r < 3; ++r)
      if (r != c.rank()) ghosts.push_back(3 * r);
    la::GhostExchange plan(c, ghosts, off);
    EXPECT_EQ(plan.num_ghosts(), 2u);
    // Owned values are gid * 10; ghosts must come back as owner values.
    std::vector<double> owned = {0, 0, 0};
    for (int i = 0; i < 3; ++i) owned[static_cast<std::size_t>(i)] =
        static_cast<double>((off[static_cast<std::size_t>(c.rank())] + i) * 10);
    std::vector<double> gv(2, -1.0);
    plan.forward<double>(c, owned, gv);
    for (std::size_t i = 0; i < ghosts.size(); ++i)
      EXPECT_DOUBLE_EQ(gv[i], static_cast<double>(ghosts[i] * 10));
    // reverse_add: each ghost slot contributes 1 to its owner; every
    // owned boundary entry is ghosted by the two other ranks.
    std::vector<double> contrib(2, 1.0);
    std::vector<double> acc = {0, 0, 0};
    plan.reverse_add<double>(c, contrib, acc);
    EXPECT_DOUBLE_EQ(acc[0], 2.0);  // gid 3*rank ghosted by both others
    EXPECT_DOUBLE_EQ(acc[1], 0.0);
    EXPECT_DOUBLE_EQ(acc[2], 0.0);
  });
}

class DistCsrRanks : public ::testing::TestWithParam<int> {};

TEST_P(DistCsrRanks, MatvecMatchesReplicatedOnRandomPartitions) {
  const int p = GetParam();
  alps::par::run(p, [p](Comm& c) {
    for (unsigned seed = 1; seed <= 3; ++seed) {
      const std::int64_t n = 6;
      const Csr ref = laplace_3d(n);
      // Every rank regenerates the same triplets and contributes an
      // interleaved slice, exercising the off-owner routing.
      const std::vector<Triplet> all = to_triplets(ref);
      std::vector<Triplet> mine;
      for (std::size_t i = 0; i < all.size(); ++i)
        if (static_cast<int>(i % static_cast<std::size_t>(p)) == c.rank())
          mine.push_back(all[i]);
      const auto off = random_offsets(p, ref.rows(), seed);
      const DistCsr a = DistCsr::from_triplets(c, off, off, std::move(mine));
      const std::int64_t lo = off[static_cast<std::size_t>(c.rank())];
      const std::int64_t nown = a.owned_rows();
      EXPECT_EQ(c.allreduce_sum(a.local_nnz()), ref.nnz());

      std::mt19937 rng(100 + seed);
      std::uniform_real_distribution<double> val(-1, 1);
      std::vector<double> xg(static_cast<std::size_t>(ref.rows()));
      for (auto& v : xg) v = val(rng);
      std::vector<double> yg(xg.size());
      ref.matvec(xg, yg);

      std::vector<double> x(static_cast<std::size_t>(nown)),
          y(static_cast<std::size_t>(nown));
      for (std::int64_t i = 0; i < nown; ++i)
        x[static_cast<std::size_t>(i)] = xg[static_cast<std::size_t>(lo + i)];
      a.matvec(c, x, y);
      for (std::int64_t i = 0; i < nown; ++i)
        EXPECT_NEAR(y[static_cast<std::size_t>(i)],
                    yg[static_cast<std::size_t>(lo + i)], 1e-13);

      // Transpose matvec against the replicated reference.
      std::vector<double> ytg(xg.size());
      ref.matvec_transpose(xg, ytg);
      std::vector<double> yt(static_cast<std::size_t>(nown));
      a.matvec_transpose(c, x, yt);
      for (std::int64_t i = 0; i < nown; ++i)
        EXPECT_NEAR(yt[static_cast<std::size_t>(i)],
                    ytg[static_cast<std::size_t>(lo + i)], 1e-13);
    }
  });
}

TEST_P(DistCsrRanks, ReplicateRoundTripsAndFetchRowsServesRemoteRows) {
  const int p = GetParam();
  alps::par::run(p, [p](Comm& c) {
    const Csr ref = laplace_3d(5);
    std::vector<Triplet> all = to_triplets(ref);
    std::vector<Triplet> mine;
    for (std::size_t i = 0; i < all.size(); ++i)
      if (static_cast<int>(i % static_cast<std::size_t>(p)) == c.rank())
        mine.push_back(all[i]);
    const auto off = DistCsr::uniform_offsets(p, ref.rows());
    const DistCsr a = DistCsr::from_triplets(c, off, off, std::move(mine));

    const Csr round = a.replicate(c);
    ASSERT_EQ(round.nnz(), ref.nnz());
    for (std::size_t k = 0; k < ref.values().size(); ++k) {
      EXPECT_EQ(round.colidx()[k], ref.colidx()[k]);
      EXPECT_NEAR(round.values()[k], ref.values()[k], 1e-14);
    }

    // Fetch a handful of remote rows and compare entry sums.
    std::vector<std::int64_t> want;
    for (std::int64_t g = 0; g < ref.rows(); g += 17)
      if (g < a.row_begin() || g >= a.row_end()) want.push_back(g);
    std::vector<std::int64_t> rp, cg;
    std::vector<double> v;
    a.fetch_rows(c, want, rp, cg, v);
    ASSERT_EQ(rp.size(), want.size() + 1);
    for (std::size_t i = 0; i < want.size(); ++i) {
      const std::int64_t g = want[i];
      const std::int64_t ref_len =
          ref.rowptr()[static_cast<std::size_t>(g) + 1] -
          ref.rowptr()[static_cast<std::size_t>(g)];
      EXPECT_EQ(rp[i + 1] - rp[i], ref_len);
      double got = 0, expect = 0;
      for (std::int64_t k = rp[i]; k < rp[i + 1]; ++k)
        got += v[static_cast<std::size_t>(k)];
      for (std::int64_t k = ref.rowptr()[static_cast<std::size_t>(g)];
           k < ref.rowptr()[static_cast<std::size_t>(g) + 1]; ++k)
        expect += ref.values()[static_cast<std::size_t>(k)];
      EXPECT_NEAR(got, expect, 1e-14);
    }
  });
}

TEST(DistAssembly, DistributedMatrixMatchesReplicatedAssembly) {
  alps::par::run(2, [](Comm& c) {
    forest::Forest f =
        forest::Forest::new_uniform(c, forest::Connectivity::unit_cube(), 2);
    mesh::Mesh m = mesh::extract_mesh(c, f);
    fem::ElementOperator op = fem::build_scalar_laplace(
        m, f.connectivity(),
        [](const std::array<double, 3>& p) { return 1.0 + p[0]; }, 0b111111);
    const Csr ref = oracle::assemble_global(c, op);
    const DistCsr dist = op.assemble_dist(c);
    EXPECT_EQ(dist.global_rows(), ref.rows());
    EXPECT_LT(dist.local_nnz(), ref.nnz());  // each rank holds a strict part
    const Csr round = dist.replicate(c);
    ASSERT_EQ(round.nnz(), ref.nnz());
    for (std::size_t k = 0; k < ref.values().size(); ++k) {
      ASSERT_EQ(round.colidx()[k], ref.colidx()[k]);
      ASSERT_NEAR(round.values()[k], ref.values()[k], 1e-12);
    }
  });
}

TEST(DistAmg, VcycleContractsErrorAcrossRanks) {
  alps::par::run(4, [](Comm& c) {
    DistCsr a = distribute(c, laplace_3d(10));
    const std::int64_t nown = a.owned_rows();
    amg::DistAmg amg(c, std::move(a), {});
    EXPECT_GE(amg.num_levels(), 3);

    const DistCsr& fine = amg.finest();
    std::mt19937 rng(5 + static_cast<unsigned>(c.rank()));
    std::uniform_real_distribution<double> val(-1, 1);
    std::vector<double> b(static_cast<std::size_t>(nown));
    for (auto& v : b) v = val(rng);
    std::vector<double> x(static_cast<std::size_t>(nown), 0.0);
    const double r0 = dist_residual_norm(c, fine, b, x);
    amg.vcycle(c, b, x);
    const double r1 = dist_residual_norm(c, fine, b, x);
    amg.vcycle(c, b, x);
    const double r2 = dist_residual_norm(c, fine, b, x);
    EXPECT_LT(r1, 0.35 * r0);
    EXPECT_LT(r2, 0.35 * r1);
  });
}

// AMG-preconditioned CG iteration count for the replicated hierarchy.
int serial_pcg_iterations(const Csr& a) {
  const oracle::Amg amg(a);
  la::LinOp op = [&a](std::span<const double> x, std::span<double> y) {
    a.matvec(x, y);
  };
  la::LinOp pre = [&amg](std::span<const double> x, std::span<double> y) {
    std::fill(y.begin(), y.end(), 0.0);
    amg.vcycle(x, y);
  };
  la::DotFn dot = [](std::span<const double> x, std::span<const double> y) {
    return la::local_dot(x, y);
  };
  std::vector<double> b(static_cast<std::size_t>(a.rows()), 1.0);
  std::vector<double> x(b.size(), 0.0);
  la::KrylovOptions opt;
  opt.rtol = 1e-10;
  const la::SolveResult r = la::cg(op, b, x, pre, dot, opt);
  EXPECT_TRUE(r.converged);
  return r.iterations;
}

TEST(DistAmg, PcgIterationsMatchReplicatedHierarchyWithinTwo) {
  // The Fig. 9 / Fig. 2 criterion in miniature: the distributed hierarchy
  // (per-rank coarsening, hybrid smoothing) must not degrade Krylov
  // convergence by more than a couple of iterations vs the replicated one.
  const Csr ref = laplace_3d(10);
  const int serial_iters = serial_pcg_iterations(ref);
  for (int p : {1, 3, 4}) {
    alps::par::run(p, [&ref, serial_iters](Comm& c) {
      DistCsr a = distribute(c, ref);
      const std::int64_t nown = a.owned_rows();
      amg::DistAmg amg(c, std::move(a), {});
      const DistCsr& fine = amg.finest();
      la::LinOp op = [&c, &fine](std::span<const double> x,
                                 std::span<double> y) {
        fine.matvec(c, x, y);
      };
      la::LinOp pre = [&c, &amg](std::span<const double> x,
                                 std::span<double> y) {
        std::fill(y.begin(), y.end(), 0.0);
        amg.vcycle(c, x, y);
      };
      la::DotFn dot = [&c](std::span<const double> x,
                           std::span<const double> y) {
        return c.allreduce_sum(la::local_dot(x, y));
      };
      std::vector<double> b(static_cast<std::size_t>(nown), 1.0);
      std::vector<double> x(b.size(), 0.0);
      la::KrylovOptions opt;
      opt.rtol = 1e-10;
      const la::SolveResult r = la::cg(op, b, x, pre, dot, opt);
      EXPECT_TRUE(r.converged);
      EXPECT_LE(std::abs(r.iterations - serial_iters), 2)
          << "P=" << c.size() << " dist=" << r.iterations
          << " serial=" << serial_iters;
      if (c.size() == 1) {
        // At P = 1 the per-rank coarsening is exactly the serial one.
        EXPECT_EQ(r.iterations, serial_iters);
      }
    });
  }
}

TEST(DistAmg, HandlesStrongCoefficientJumpsAcrossRanks) {
  alps::par::run(3, [](Comm& c) {
    DistCsr a = distribute(c, laplace_3d(10, 1e5));
    const std::int64_t nown = a.owned_rows();
    amg::DistAmg amg(c, std::move(a), {});
    const DistCsr& fine = amg.finest();
    std::vector<double> b(static_cast<std::size_t>(nown), 1.0);
    std::vector<double> x(b.size(), 0.0);
    const double r0 = dist_residual_norm(c, fine, b, x);
    amg.solve(c, b, x, 12);
    EXPECT_LT(dist_residual_norm(c, fine, b, x), 1e-6 * r0);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, DistCsrRanks, ::testing::Values(1, 3, 4));

}  // namespace
