// The scalar finite-element apply and the replicated global assembly that
// the batched plan and the owned-row assembly replaced (src/fem).

#include <algorithm>

#include "oracles/oracles.hpp"

namespace alps::oracle {

namespace {

// Per-rank scratch: ranks are threads, and the apply runs every Krylov
// iteration of the bench baseline, so it must not allocate per call.
thread_local std::vector<double> masked_x, xe_buf, ye_buf;

/// Calls f(i) for every Dirichlet value index i < n.
template <typename F>
void for_each_dirichlet(const fem::ElementOperator& op, std::size_t n, F f) {
  const std::size_t nc = static_cast<std::size_t>(op.ncomp());
  for (std::size_t d = 0; d < n / nc; ++d)
    for (std::size_t c = 0; c < nc; ++c)
      if (op.is_dirichlet(static_cast<std::int64_t>(d), static_cast<int>(c)))
        f(d * nc + c);
}

}  // namespace

void apply_raw_scalar(par::Comm& comm, const fem::ElementOperator& op,
                      std::span<const double> x, std::span<double> y) {
  const mesh::Mesh& m = op.mesh();
  const std::size_t nc = static_cast<std::size_t>(op.ncomp());
  const std::size_t bs = op.block_size();
  std::fill(y.begin(), y.end(), 0.0);
  xe_buf.resize(bs);
  ye_buf.resize(bs);
  std::span<double> xe(xe_buf.data(), bs), ye(ye_buf.data(), bs);
  for (std::size_t e = 0; e < m.elements.size(); ++e) {
    // Gather C x.
    for (int i = 0; i < 8; ++i) {
      const mesh::Corner& cc = m.corners[e][static_cast<std::size_t>(i)];
      for (std::size_t c = 0; c < nc; ++c) {
        double v = 0.0;
        for (int k = 0; k < cc.n; ++k)
          v += cc.w[static_cast<std::size_t>(k)] *
               x[static_cast<std::size_t>(cc.dof[static_cast<std::size_t>(k)]) * nc + c];
        xe[static_cast<std::size_t>(i) * nc + c] = v;
      }
    }
    const std::span<const double> me = op.element_matrix(e);
    for (std::size_t i = 0; i < bs; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < bs; ++j) s += me[i * bs + j] * xe[j];
      ye[i] = s;
    }
    // Scatter C^T y.
    for (int i = 0; i < 8; ++i) {
      const mesh::Corner& cc = m.corners[e][static_cast<std::size_t>(i)];
      for (std::size_t c = 0; c < nc; ++c) {
        const double v = ye[static_cast<std::size_t>(i) * nc + c];
        for (int k = 0; k < cc.n; ++k)
          y[static_cast<std::size_t>(cc.dof[static_cast<std::size_t>(k)]) * nc + c] +=
              cc.w[static_cast<std::size_t>(k)] * v;
      }
    }
  }
  m.accumulate(comm, y, op.ncomp());
  m.exchange(comm, y, op.ncomp());
}

void apply_scalar(par::Comm& comm, const fem::ElementOperator& op,
                  std::span<const double> x, std::span<double> y) {
  // Zero constrained inputs, apply, then restore identity on them.
  masked_x.assign(x.begin(), x.end());
  for_each_dirichlet(op, x.size(), [](std::size_t i) { masked_x[i] = 0.0; });
  apply_raw_scalar(comm, op, masked_x, y);
  for_each_dirichlet(op, y.size(), [&](std::size_t i) { y[i] = x[i]; });
}

la::Csr assemble_global(par::Comm& comm, const fem::ElementOperator& op) {
  const std::int64_t n = op.mesh().n_global * op.ncomp();
  std::vector<la::Triplet> all = comm.allgatherv(op.local_triplets());
  return la::Csr::from_triplets(n, n, std::move(all));
}

}  // namespace alps::oracle
