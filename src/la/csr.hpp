#pragma once
// Compressed sparse row matrices and small dense helpers used by the
// solvers and the AMG hierarchy.

#include <cstdint>
#include <span>
#include <vector>

#include "obs/mem.hpp"

namespace alps::la {

struct Triplet {
  std::int64_t row = 0;
  std::int64_t col = 0;
  double val = 0.0;
};

class Csr {
 public:
  Csr() = default;
  Csr(std::int64_t nrows, std::int64_t ncols) : nrows_(nrows), ncols_(ncols) {
    rowptr_.assign(static_cast<std::size_t>(nrows) + 1, 0);
  }

  /// Build from triplets; duplicate entries are summed.
  static Csr from_triplets(std::int64_t nrows, std::int64_t ncols,
                           std::vector<Triplet> triplets);

  std::int64_t rows() const { return nrows_; }
  std::int64_t cols() const { return ncols_; }
  std::int64_t nnz() const { return static_cast<std::int64_t>(val_.size()); }

  const std::vector<std::int64_t>& rowptr() const { return rowptr_; }
  const std::vector<std::int64_t>& colidx() const { return colidx_; }
  const std::vector<double>& values() const { return val_; }
  std::vector<double>& values() { return val_; }

  /// y = A x.
  void matvec(std::span<const double> x, std::span<double> y) const;
  /// y = A^T x.
  void matvec_transpose(std::span<const double> x, std::span<double> y) const;

  /// Diagonal entries (0 where structurally absent).
  std::vector<double> diagonal() const;

  /// Heap bytes held (capacity-based; see obs::vec_bytes).
  std::uint64_t memory_bytes() const {
    return obs::vec_bytes(rowptr_) + obs::vec_bytes(colidx_) +
           obs::vec_bytes(val_);
  }

 private:
  std::int64_t nrows_ = 0, ncols_ = 0;
  std::vector<std::int64_t> rowptr_;
  std::vector<std::int64_t> colidx_;
  std::vector<double> val_;
};

// ---- small vector helpers (local, no communication) ----------------------
inline void axpy(double a, std::span<const double> x, std::span<double> y) {
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += a * x[i];
}
inline void scale(double a, std::span<double> x) {
  for (double& v : x) v *= a;
}
inline double local_dot(std::span<const double> a, std::span<const double> b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

/// Dense LU with partial pivoting for tiny coarsest-level solves.
class DenseLu {
 public:
  explicit DenseLu(const Csr& a);
  void solve(std::span<const double> b, std::span<double> x) const;
  std::int64_t n() const { return n_; }
  std::uint64_t memory_bytes() const {
    return obs::vec_bytes(lu_) + obs::vec_bytes(piv_);
  }

 private:
  std::int64_t n_ = 0;
  std::vector<double> lu_;
  std::vector<std::int32_t> piv_;
};

}  // namespace alps::la
