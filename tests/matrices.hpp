#pragma once
// Model matrices and distribution helpers shared by the la and amg tests.

#include <cmath>
#include <span>
#include <vector>

#include "la/dist_csr.hpp"

namespace alps::test_util {

/// 3D 7-point Laplacian on an n^3 grid with Dirichlet-eliminated boundary,
/// optionally with a strongly varying coefficient between the two halves.
inline la::Csr laplace_3d(std::int64_t n, double coeff_jump = 1.0) {
  const auto id = [n](std::int64_t i, std::int64_t j, std::int64_t k) {
    return (k * n + j) * n + i;
  };
  std::vector<la::Triplet> t;
  for (std::int64_t k = 0; k < n; ++k)
    for (std::int64_t j = 0; j < n; ++j)
      for (std::int64_t i = 0; i < n; ++i) {
        const double c = (i < n / 2) ? 1.0 : coeff_jump;
        const std::int64_t r = id(i, j, k);
        double diag = 0.0;
        const auto add = [&](std::int64_t ii, std::int64_t jj, std::int64_t kk) {
          if (ii < 0 || jj < 0 || kk < 0 || ii >= n || jj >= n || kk >= n) {
            diag += c;  // Dirichlet neighbor eliminated
            return;
          }
          const double cc = (ii < n / 2) ? 1.0 : coeff_jump;
          const double h = 0.5 * (c + cc);  // harmonic-ish face coefficient
          t.push_back({r, id(ii, jj, kk), -h});
          diag += h;
        };
        add(i - 1, j, k);
        add(i + 1, j, k);
        add(i, j - 1, k);
        add(i, j + 1, k);
        add(i, j, k - 1);
        add(i, j, k + 1);
        t.push_back({r, r, diag});
      }
  return la::Csr::from_triplets(n * n * n, n * n * n, std::move(t));
}

inline std::vector<la::Triplet> to_triplets(const la::Csr& a) {
  std::vector<la::Triplet> t;
  for (std::int64_t r = 0; r < a.rows(); ++r)
    for (std::int64_t k = a.rowptr()[static_cast<std::size_t>(r)];
         k < a.rowptr()[static_cast<std::size_t>(r) + 1]; ++k)
      t.push_back({r, a.colidx()[static_cast<std::size_t>(k)],
                   a.values()[static_cast<std::size_t>(k)]});
  return t;
}

/// `ref` split into uniform owned-row blocks, one per rank. Collective.
inline la::DistCsr distribute(par::Comm& c, const la::Csr& ref) {
  const auto off = la::DistCsr::uniform_offsets(c.size(), ref.rows());
  std::vector<la::Triplet> mine;
  for (const la::Triplet& t : to_triplets(ref))
    if (la::owner_of(off, t.row) == c.rank()) mine.push_back(t);
  return la::DistCsr::from_triplets(c, off, off, std::move(mine));
}

/// Global ||b - A x|| over owned entries. Collective.
inline double dist_residual_norm(par::Comm& c, const la::DistCsr& a,
                                 std::span<const double> b,
                                 std::span<const double> x) {
  std::vector<double> ax(static_cast<std::size_t>(a.owned_rows()));
  a.matvec(c, x, ax);
  double s = 0;
  for (std::size_t i = 0; i < ax.size(); ++i)
    s += (b[i] - ax[i]) * (b[i] - ax[i]);
  return std::sqrt(c.allreduce_sum(s));
}

}  // namespace alps::test_util
