// The replicated Ruge-Stüben hierarchy that DistAmg replaced, with the
// serial sparse products its Galerkin step used (src/amg, src/la).

#include <algorithm>
#include <stdexcept>

#include "amg/classical.hpp"
#include "oracles/oracles.hpp"

namespace alps::oracle {

using la::Csr;
using la::Triplet;

Csr transpose(const Csr& a) {
  const auto& rp = a.rowptr();
  const auto& ci = a.colidx();
  const auto& v = a.values();
  std::vector<Triplet> t;
  t.reserve(v.size());
  for (std::int64_t r = 0; r < a.rows(); ++r)
    for (std::int64_t k = rp[static_cast<std::size_t>(r)];
         k < rp[static_cast<std::size_t>(r) + 1]; ++k)
      t.push_back(Triplet{ci[static_cast<std::size_t>(k)], r,
                          v[static_cast<std::size_t>(k)]});
  return Csr::from_triplets(a.cols(), a.rows(), std::move(t));
}

Csr multiply(const Csr& a, const Csr& b) {
  if (a.cols() != b.rows())
    throw std::invalid_argument("oracle::multiply: dimension mismatch");
  // Row-by-row with a dense accumulator (sized to b.cols). Each output
  // row's columns are distinct, so from_triplets only sorts, never sums.
  std::vector<double> acc(static_cast<std::size_t>(b.cols()), 0.0);
  std::vector<std::int64_t> marker(static_cast<std::size_t>(b.cols()), -1);
  std::vector<Triplet> t;
  std::vector<std::int64_t> cols_in_row;
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    cols_in_row.clear();
    for (std::int64_t ka = a.rowptr()[static_cast<std::size_t>(r)];
         ka < a.rowptr()[static_cast<std::size_t>(r) + 1]; ++ka) {
      const std::int64_t j = a.colidx()[static_cast<std::size_t>(ka)];
      const double av = a.values()[static_cast<std::size_t>(ka)];
      for (std::int64_t kb = b.rowptr()[static_cast<std::size_t>(j)];
           kb < b.rowptr()[static_cast<std::size_t>(j) + 1]; ++kb) {
        const std::int64_t col = b.colidx()[static_cast<std::size_t>(kb)];
        if (marker[static_cast<std::size_t>(col)] != r) {
          marker[static_cast<std::size_t>(col)] = r;
          acc[static_cast<std::size_t>(col)] = 0.0;
          cols_in_row.push_back(col);
        }
        acc[static_cast<std::size_t>(col)] +=
            av * b.values()[static_cast<std::size_t>(kb)];
      }
    }
    for (std::int64_t col : cols_in_row)
      t.push_back(Triplet{r, col, acc[static_cast<std::size_t>(col)]});
  }
  return Csr::from_triplets(a.rows(), b.cols(), std::move(t));
}

namespace {

using amg::detail::CF;
using amg::detail::split_cf;

/// Strength graph: strong[i] lists j such that i strongly depends on j,
/// classical criterion -a_ij >= theta * max_k(-a_ik).
std::vector<std::vector<std::int64_t>> strength_graph(const la::Csr& a,
                                                      double theta) {
  const std::int64_t n = a.rows();
  std::vector<std::vector<std::int64_t>> strong(static_cast<std::size_t>(n));
  const auto& rp = a.rowptr();
  const auto& ci = a.colidx();
  const auto& v = a.values();
  for (std::int64_t i = 0; i < n; ++i) {
    double maxneg = 0.0;
    for (std::int64_t k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k)
      if (ci[static_cast<std::size_t>(k)] != i)
        maxneg = std::max(maxneg, -v[static_cast<std::size_t>(k)]);
    if (maxneg <= 0.0) continue;
    const double cut = theta * maxneg;
    for (std::int64_t k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
      const std::int64_t j = ci[static_cast<std::size_t>(k)];
      if (j != i && -v[static_cast<std::size_t>(k)] >= cut)
        strong[static_cast<std::size_t>(i)].push_back(j);
    }
  }
  return strong;
}

/// Direct interpolation operator (Stüben): C points inject, F points take
/// w_ij = -alpha_i a_ij / a_ii over strong coarse neighbors, with alpha
/// preserving row sums so constants interpolate exactly.
la::Csr build_interpolation(const la::Csr& a,
                            const std::vector<std::vector<std::int64_t>>& strong,
                            const std::vector<CF>& cf,
                            std::vector<std::int64_t>& coarse_index) {
  const std::int64_t n = a.rows();
  coarse_index.assign(static_cast<std::size_t>(n), -1);
  std::int64_t nc = 0;
  for (std::int64_t i = 0; i < n; ++i)
    if (cf[static_cast<std::size_t>(i)] == CF::kCoarse)
      coarse_index[static_cast<std::size_t>(i)] = nc++;

  const auto& rp = a.rowptr();
  const auto& ci = a.colidx();
  const auto& v = a.values();
  std::vector<la::Triplet> t;
  // Epoch-stamped membership marks: strong_mark[j] == i iff j is a strong
  // neighbor of the row i currently being interpolated. O(1) per test
  // instead of a linear scan of the strong list.
  std::vector<std::int64_t> strong_mark(static_cast<std::size_t>(n), -1);
  for (std::int64_t i = 0; i < n; ++i) {
    if (cf[static_cast<std::size_t>(i)] == CF::kCoarse) {
      t.push_back({i, coarse_index[static_cast<std::size_t>(i)], 1.0});
      continue;
    }
    for (std::int64_t j : strong[static_cast<std::size_t>(i)])
      strong_mark[static_cast<std::size_t>(j)] = i;
    // Strong coarse neighbors of i.
    double diag = 0.0, sum_all = 0.0, sum_c = 0.0;
    std::vector<std::pair<std::int64_t, double>> cweights;
    for (std::int64_t k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
      const std::int64_t j = ci[static_cast<std::size_t>(k)];
      const double av = v[static_cast<std::size_t>(k)];
      if (j == i) {
        diag = av;
        continue;
      }
      sum_all += av;
      if (cf[static_cast<std::size_t>(j)] == CF::kCoarse &&
          strong_mark[static_cast<std::size_t>(j)] == i) {
        sum_c += av;
        cweights.emplace_back(coarse_index[static_cast<std::size_t>(j)], av);
      }
    }
    if (cweights.empty() || diag == 0.0 || sum_c == 0.0)
      continue;  // isolated F point: relies on smoothing only
    const double alpha = sum_all / sum_c;
    for (const auto& [jc, av] : cweights)
      t.push_back({i, jc, -alpha * av / diag});
  }
  return la::Csr::from_triplets(n, nc, std::move(t));
}

/// One Gauss-Seidel sweep on A x = b, in place. forward=false sweeps rows
/// in reverse order (used to make the V-cycle symmetric).
void gauss_seidel(const la::Csr& a, std::span<const double> b,
                  std::span<double> x, bool forward) {
  const std::int64_t n = a.rows();
  const auto& rp = a.rowptr();
  const auto& ci = a.colidx();
  const auto& v = a.values();
  const auto update = [&](std::int64_t r) {
    double s = b[static_cast<std::size_t>(r)];
    double d = 1.0;
    for (std::int64_t k = rp[static_cast<std::size_t>(r)];
         k < rp[static_cast<std::size_t>(r) + 1]; ++k) {
      const std::int64_t c = ci[static_cast<std::size_t>(k)];
      if (c == r)
        d = v[static_cast<std::size_t>(k)];
      else
        s -= v[static_cast<std::size_t>(k)] * x[static_cast<std::size_t>(c)];
    }
    if (d != 0.0) x[static_cast<std::size_t>(r)] = s / d;
  };
  if (forward)
    for (std::int64_t r = 0; r < n; ++r) update(r);
  else
    for (std::int64_t r = n - 1; r >= 0; --r) update(r);
}

}  // namespace

Amg::Amg(Csr a, const amg::AmgOptions& opt) : opt_(opt) {
  Csr cur = std::move(a);
  for (int lvl = 0; lvl < opt_.max_levels; ++lvl) {
    stats_.push_back(amg::LevelStats{cur.rows(), cur.nnz()});
    if (cur.rows() <= opt_.coarse_size) break;
    const auto strong = strength_graph(cur, opt_.strength_theta);
    const auto cf = split_cf(strong);
    std::vector<std::int64_t> cidx;
    Csr p = build_interpolation(cur, strong, cf, cidx);
    if (p.cols() == 0 || p.cols() >= cur.rows()) break;  // no coarsening
    Csr r = transpose(p);
    Csr ac = multiply(r, multiply(cur, p));
    Level next;
    next.a = std::move(cur);
    next.p = std::move(p);
    next.r = std::move(r);
    levels_.push_back(std::move(next));
    cur = std::move(ac);
  }
  coarse_ = std::make_unique<la::DenseLu>(cur);
  // Scratch for every level.
  scratch_r_.resize(levels_.size() + 1);
  scratch_x_.resize(levels_.size() + 1);
  for (std::size_t k = 0; k < levels_.size(); ++k) {
    scratch_r_[k].resize(static_cast<std::size_t>(levels_[k].a.rows()));
    scratch_x_[k].resize(static_cast<std::size_t>(levels_[k].a.rows()));
  }
  scratch_r_.back().resize(static_cast<std::size_t>(cur.rows()));
  scratch_x_.back().resize(static_cast<std::size_t>(cur.rows()));
}

void Amg::cycle(std::size_t lvl, std::span<const double> b,
                std::span<double> x) const {
  if (lvl == levels_.size()) {
    coarse_->solve(b, x);
    return;
  }
  const Level& L = levels_[lvl];
  for (int s = 0; s < opt_.pre_smooth; ++s)
    gauss_seidel(L.a, b, x, /*forward=*/true);
  // Residual and restriction.
  std::vector<double>& res = scratch_r_[lvl];
  L.a.matvec(x, res);
  for (std::size_t i = 0; i < res.size(); ++i) res[i] = b[i] - res[i];
  const std::size_t nc = static_cast<std::size_t>(L.p.cols());
  std::vector<double> bc(nc), xc(nc, 0.0);
  L.r.matvec(res, bc);
  cycle(lvl + 1, bc, xc);
  // Prolongate and correct.
  std::vector<double>& corr = scratch_x_[lvl];
  L.p.matvec(xc, corr);
  for (std::size_t i = 0; i < corr.size(); ++i) x[i] += corr[i];
  for (int s = 0; s < opt_.post_smooth; ++s)
    gauss_seidel(L.a, b, x, /*forward=*/false);
}

void Amg::vcycle(std::span<const double> b, std::span<double> x) const {
  cycle(0, b, x);
}

}  // namespace alps::oracle
