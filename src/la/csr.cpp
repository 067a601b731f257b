#include "la/csr.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace alps::la {

Csr Csr::from_triplets(std::int64_t nrows, std::int64_t ncols,
                       std::vector<Triplet> triplets) {
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  Csr m(nrows, ncols);
  m.colidx_.reserve(triplets.size());
  m.val_.reserve(triplets.size());
  for (std::size_t i = 0; i < triplets.size();) {
    const std::int64_t r = triplets[i].row, c = triplets[i].col;
    if (r < 0 || r >= nrows || c < 0 || c >= ncols)
      throw std::out_of_range("Csr::from_triplets: index out of range");
    double v = 0.0;
    while (i < triplets.size() && triplets[i].row == r && triplets[i].col == c)
      v += triplets[i++].val;
    m.colidx_.push_back(c);
    m.val_.push_back(v);
    m.rowptr_[static_cast<std::size_t>(r) + 1] =
        static_cast<std::int64_t>(m.val_.size());
  }
  // Fill gaps for empty rows.
  for (std::size_t r = 1; r < m.rowptr_.size(); ++r)
    m.rowptr_[r] = std::max(m.rowptr_[r], m.rowptr_[r - 1]);
  return m;
}

void Csr::matvec(std::span<const double> x, std::span<double> y) const {
  assert(static_cast<std::int64_t>(x.size()) >= ncols_);
  assert(static_cast<std::int64_t>(y.size()) >= nrows_);
  for (std::int64_t r = 0; r < nrows_; ++r) {
    double s = 0.0;
    for (std::int64_t k = rowptr_[static_cast<std::size_t>(r)];
         k < rowptr_[static_cast<std::size_t>(r) + 1]; ++k)
      s += val_[static_cast<std::size_t>(k)] *
           x[static_cast<std::size_t>(colidx_[static_cast<std::size_t>(k)])];
    y[static_cast<std::size_t>(r)] = s;
  }
}

void Csr::matvec_transpose(std::span<const double> x,
                           std::span<double> y) const {
  std::fill(y.begin(), y.begin() + static_cast<std::ptrdiff_t>(ncols_), 0.0);
  for (std::int64_t r = 0; r < nrows_; ++r)
    for (std::int64_t k = rowptr_[static_cast<std::size_t>(r)];
         k < rowptr_[static_cast<std::size_t>(r) + 1]; ++k)
      y[static_cast<std::size_t>(colidx_[static_cast<std::size_t>(k)])] +=
          val_[static_cast<std::size_t>(k)] * x[static_cast<std::size_t>(r)];
}

std::vector<double> Csr::diagonal() const {
  std::vector<double> d(static_cast<std::size_t>(nrows_), 0.0);
  for (std::int64_t r = 0; r < nrows_; ++r)
    for (std::int64_t k = rowptr_[static_cast<std::size_t>(r)];
         k < rowptr_[static_cast<std::size_t>(r) + 1]; ++k)
      if (colidx_[static_cast<std::size_t>(k)] == r)
        d[static_cast<std::size_t>(r)] = val_[static_cast<std::size_t>(k)];
  return d;
}

DenseLu::DenseLu(const Csr& a) : n_(a.rows()) {
  if (a.rows() != a.cols())
    throw std::invalid_argument("DenseLu: matrix must be square");
  lu_.assign(static_cast<std::size_t>(n_ * n_), 0.0);
  piv_.resize(static_cast<std::size_t>(n_));
  for (std::int64_t r = 0; r < n_; ++r)
    for (std::int64_t k = a.rowptr()[static_cast<std::size_t>(r)];
         k < a.rowptr()[static_cast<std::size_t>(r) + 1]; ++k)
      lu_[static_cast<std::size_t>(r * n_ +
                                   a.colidx()[static_cast<std::size_t>(k)])] =
          a.values()[static_cast<std::size_t>(k)];
  for (std::int64_t k = 0; k < n_; ++k) {
    std::int64_t pivot = k;
    for (std::int64_t i = k + 1; i < n_; ++i)
      if (std::abs(lu_[static_cast<std::size_t>(i * n_ + k)]) >
          std::abs(lu_[static_cast<std::size_t>(pivot * n_ + k)]))
        pivot = i;
    piv_[static_cast<std::size_t>(k)] = static_cast<std::int32_t>(pivot);
    if (pivot != k)
      for (std::int64_t j = 0; j < n_; ++j)
        std::swap(lu_[static_cast<std::size_t>(k * n_ + j)],
                  lu_[static_cast<std::size_t>(pivot * n_ + j)]);
    const double d = lu_[static_cast<std::size_t>(k * n_ + k)];
    if (d == 0.0) throw std::runtime_error("DenseLu: singular matrix");
    for (std::int64_t i = k + 1; i < n_; ++i) {
      const double f = lu_[static_cast<std::size_t>(i * n_ + k)] / d;
      lu_[static_cast<std::size_t>(i * n_ + k)] = f;
      for (std::int64_t j = k + 1; j < n_; ++j)
        lu_[static_cast<std::size_t>(i * n_ + j)] -=
            f * lu_[static_cast<std::size_t>(k * n_ + j)];
    }
  }
}

void DenseLu::solve(std::span<const double> b, std::span<double> x) const {
  std::copy(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(n_), x.begin());
  for (std::int64_t k = 0; k < n_; ++k) {
    std::swap(x[static_cast<std::size_t>(k)],
              x[static_cast<std::size_t>(piv_[static_cast<std::size_t>(k)])]);
    for (std::int64_t i = k + 1; i < n_; ++i)
      x[static_cast<std::size_t>(i)] -=
          lu_[static_cast<std::size_t>(i * n_ + k)] *
          x[static_cast<std::size_t>(k)];
  }
  for (std::int64_t i = n_ - 1; i >= 0; --i) {
    for (std::int64_t j = i + 1; j < n_; ++j)
      x[static_cast<std::size_t>(i)] -=
          lu_[static_cast<std::size_t>(i * n_ + j)] *
          x[static_cast<std::size_t>(j)];
    x[static_cast<std::size_t>(i)] /= lu_[static_cast<std::size_t>(i * n_ + i)];
  }
}

}  // namespace alps::la
