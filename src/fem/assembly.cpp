#include "fem/assembly.hpp"

#include <algorithm>
#include <cassert>

#include "obs/histogram.hpp"

namespace alps::fem {

// ---- lane-batched SoA plan ----------------------------------------------

namespace {

// The default build targets baseline x86-64 (16-byte vectors). The batch
// kernel is the one genuinely compute-bound loop nest in the apply path,
// so let GCC emit AVX2/AVX-512 clones of it and dispatch by CPU at load
// time — the portable binary then runs 4- or 8-wide on the machines that
// have it without a -march=native build.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define ALPS_APPLY_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define ALPS_APPLY_CLONES
#endif

/// Gather + lane-interleaved matvec + scatter for ONE batch of kLanes
/// elements. bs = 8*nc, ns = max constraint fan-in of the batch.
ALPS_APPLY_CLONES
void batch_kernel(std::size_t bs, std::size_t nc, std::size_t ns,
                  const double* __restrict A, const std::int32_t* __restrict gb,
                  const double* __restrict w, const double* __restrict x,
                  double* __restrict xe, double* __restrict ye,
                  double* __restrict y) {
  constexpr std::size_t L = fem::ElementOperator::kLanes;

  // Gather through the flattened constraint table: replaces the
  // pointer-chasing Corner walk of the scalar path. Pad slots/lanes have
  // zero weight and dof base 0, so they add exactly 0.0.
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t c = 0; c < nc; ++c) {
      double acc[L] = {0.0, 0.0, 0.0, 0.0};
      for (std::size_t k = 0; k < ns; ++k) {
        const std::size_t s = i * 4 + k;
        for (std::size_t l = 0; l < L; ++l)
          acc[l] += w[(s * nc + c) * L + l] *
                    x[static_cast<std::size_t>(gb[s * L + l]) + c];
      }
      for (std::size_t l = 0; l < L; ++l) xe[(i * nc + c) * L + l] = acc[l];
    }
  }

  // Lane-interleaved dense matvec: the l-loops are independent element
  // columns, so they vectorize without FP reassociation; four j-chains
  // give the FMA units independent accumulators to hide latency.
  for (std::size_t i = 0; i < bs; ++i) {
    const double* row = A + i * bs * L;
    double a0[L] = {0.0, 0.0, 0.0, 0.0}, a1[L] = {0.0, 0.0, 0.0, 0.0};
    double a2[L] = {0.0, 0.0, 0.0, 0.0}, a3[L] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t j = 0; j < bs; j += 4) {
      for (std::size_t l = 0; l < L; ++l)
        a0[l] += row[j * L + l] * xe[j * L + l];
      for (std::size_t l = 0; l < L; ++l)
        a1[l] += row[(j + 1) * L + l] * xe[(j + 1) * L + l];
      for (std::size_t l = 0; l < L; ++l)
        a2[l] += row[(j + 2) * L + l] * xe[(j + 2) * L + l];
      for (std::size_t l = 0; l < L; ++l)
        a3[l] += row[(j + 3) * L + l] * xe[(j + 3) * L + l];
    }
    for (std::size_t l = 0; l < L; ++l)
      ye[i * L + l] = (a0[l] + a1[l]) + (a2[l] + a3[l]);
  }

  // Scatter C^T: lanes may share dofs (neighboring elements), so the
  // l-loop stays sequential; weights already carry the Dirichlet mask.
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t c = 0; c < nc; ++c)
      for (std::size_t k = 0; k < ns; ++k) {
        const std::size_t s = i * 4 + k;
        for (std::size_t l = 0; l < L; ++l)
          y[static_cast<std::size_t>(gb[s * L + l]) + c] +=
              w[(s * nc + c) * L + l] * ye[(i * nc + c) * L + l];
      }
}

/// Same as batch_kernel but A holds only the upper triangle (row-wise,
/// diagonal first): each loaded entry a_ij feeds both ye_i += a*xe_j and
/// ye_j += a*xe_i, halving the matrix traffic of the memory-bound matvec.
ALPS_APPLY_CLONES
void batch_kernel_sym(std::size_t bs, std::size_t nc, std::size_t ns,
                      const double* __restrict A,
                      const std::int32_t* __restrict gb,
                      const double* __restrict w, const double* __restrict x,
                      double* __restrict xe, double* __restrict ye,
                      double* __restrict y) {
  constexpr std::size_t L = fem::ElementOperator::kLanes;

  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t c = 0; c < nc; ++c) {
      double acc[L] = {0.0, 0.0, 0.0, 0.0};
      for (std::size_t k = 0; k < ns; ++k) {
        const std::size_t s = i * 4 + k;
        for (std::size_t l = 0; l < L; ++l)
          acc[l] += w[(s * nc + c) * L + l] *
                    x[static_cast<std::size_t>(gb[s * L + l]) + c];
      }
      for (std::size_t l = 0; l < L; ++l) xe[(i * nc + c) * L + l] = acc[l];
    }
  }

  // ye accumulates below-diagonal contributions as the rows above stream
  // by, so it must start at zero.
  for (std::size_t i = 0; i < bs * L; ++i) ye[i] = 0.0;
  const double* arow = A;
  for (std::size_t i = 0; i < bs; ++i) {
    const std::size_t rowlen = bs - i;  // diagonal + strict upper
    double acc0[L] = {0.0, 0.0, 0.0, 0.0}, acc1[L] = {0.0, 0.0, 0.0, 0.0};
    double accd[L];
    for (std::size_t l = 0; l < L; ++l)
      accd[l] = arow[l] * xe[i * L + l];  // diagonal term
    std::size_t dj = 1;
    for (; dj + 1 < rowlen; dj += 2) {
      for (std::size_t l = 0; l < L; ++l) {
        const double a = arow[dj * L + l];
        acc0[l] += a * xe[(i + dj) * L + l];
        ye[(i + dj) * L + l] += a * xe[i * L + l];
      }
      for (std::size_t l = 0; l < L; ++l) {
        const double a = arow[(dj + 1) * L + l];
        acc1[l] += a * xe[(i + dj + 1) * L + l];
        ye[(i + dj + 1) * L + l] += a * xe[i * L + l];
      }
    }
    for (; dj < rowlen; ++dj)
      for (std::size_t l = 0; l < L; ++l) {
        const double a = arow[dj * L + l];
        acc0[l] += a * xe[(i + dj) * L + l];
        ye[(i + dj) * L + l] += a * xe[i * L + l];
      }
    for (std::size_t l = 0; l < L; ++l)
      ye[i * L + l] += accd[l] + (acc0[l] + acc1[l]);
    arow += rowlen * L;
  }

  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t c = 0; c < nc; ++c)
      for (std::size_t k = 0; k < ns; ++k) {
        const std::size_t s = i * 4 + k;
        for (std::size_t l = 0; l < L; ++l)
          y[static_cast<std::size_t>(gb[s * L + l]) + c] +=
              w[(s * nc + c) * L + l] * ye[(i * nc + c) * L + l];
      }
}

}  // namespace

void ElementOperator::ensure_plan() const {
  if (plan_dirty_) build_plan();
}

void ElementOperator::build_plan() const {
  const std::size_t nc = static_cast<std::size_t>(ncomp_);
  const std::size_t bs = block_size();
  const std::size_t ne = mesh_->elements.size();
  constexpr std::size_t L = kLanes;

  // Classify: an element is boundary iff any gather slot (corner dof or
  // hanging-constraint master) is a ghost — only those elements write the
  // ghost slots the accumulate ships, so the interior set is free to
  // stream while the halo is in flight.
  std::vector<std::int32_t> order;
  order.reserve(ne);
  std::size_t n_boundary = 0;
  for (std::size_t e = 0; e < ne; ++e) {
    bool boundary = false;
    for (int i = 0; i < 8 && !boundary; ++i) {
      const mesh::Corner& cc = mesh_->corners[e][static_cast<std::size_t>(i)];
      for (int k = 0; k < cc.n; ++k)
        if (!mesh_->is_owned(cc.dof[static_cast<std::size_t>(k)])) {
          boundary = true;
          break;
        }
    }
    if (boundary) {
      order.push_back(static_cast<std::int32_t>(e));
      ++n_boundary;
    }
  }
  for (std::size_t e = 0; e < ne; ++e) {
    bool boundary = false;
    for (int i = 0; i < 8 && !boundary; ++i) {
      const mesh::Corner& cc = mesh_->corners[e][static_cast<std::size_t>(i)];
      for (int k = 0; k < cc.n; ++k)
        if (!mesh_->is_owned(cc.dof[static_cast<std::size_t>(k)])) {
          boundary = true;
          break;
        }
    }
    if (!boundary) order.push_back(static_cast<std::int32_t>(e));
  }

  // Exact symmetry scan: one mismatch anywhere selects the full layout.
  bool symmetric = true;
  for (std::size_t e = 0; e < ne && symmetric; ++e) {
    const double* m = mats_.data() + e * bs * bs;
    for (std::size_t i = 0; i < bs && symmetric; ++i)
      for (std::size_t j = i + 1; j < bs; ++j)
        if (m[i * bs + j] != m[j * bs + i]) {
          symmetric = false;
          break;
        }
  }

  Plan& p = plan_;
  p.symmetric = symmetric;
  p.n_boundary = n_boundary;
  p.n_interior = ne - n_boundary;
  p.boundary_batches = (n_boundary + L - 1) / L;
  p.n_batches = p.boundary_batches + (p.n_interior + L - 1) / L;
  const std::size_t msize = symmetric ? bs * (bs + 1) / 2 : bs * bs;
  p.mats.assign(p.n_batches * msize * L, 0.0);
  p.gbase.assign(p.n_batches * 32 * L, 0);
  p.w_raw.assign(p.n_batches * 32 * nc * L, 0.0);
  p.w_bc.assign(p.n_batches * 32 * nc * L, 0.0);
  p.slots.assign(p.n_batches, 1);

  const auto pack_lane = [&](std::size_t batch, std::size_t lane,
                             std::size_t e) {
    const double* m = mats_.data() + e * bs * bs;
    double* mb = p.mats.data() + batch * msize * L;
    if (symmetric) {
      std::size_t t = 0;
      for (std::size_t i = 0; i < bs; ++i)
        for (std::size_t j = i; j < bs; ++j) mb[t++ * L + lane] = m[i * bs + j];
    } else {
      for (std::size_t ij = 0; ij < bs * bs; ++ij) mb[ij * L + lane] = m[ij];
    }
    std::int32_t* gb = p.gbase.data() + batch * 32 * L;
    double* wr = p.w_raw.data() + batch * 32 * nc * L;
    double* wb = p.w_bc.data() + batch * 32 * nc * L;
    for (int i = 0; i < 8; ++i) {
      const mesh::Corner& cc = mesh_->corners[e][static_cast<std::size_t>(i)];
      if (cc.n > p.slots[batch])
        p.slots[batch] = static_cast<std::uint8_t>(cc.n);
      for (int k = 0; k < cc.n; ++k) {
        const std::size_t s = static_cast<std::size_t>(i) * 4 +
                              static_cast<std::size_t>(k);
        const std::size_t d =
            static_cast<std::size_t>(cc.dof[static_cast<std::size_t>(k)]);
        const double w = cc.w[static_cast<std::size_t>(k)];
        gb[s * L + lane] = static_cast<std::int32_t>(d * nc);
        for (std::size_t c = 0; c < nc; ++c) {
          wr[(s * nc + c) * L + lane] = w;
          wb[(s * nc + c) * L + lane] = dirichlet_[d * nc + c] ? 0.0 : w;
        }
      }
    }
  };

  std::size_t cursor = 0;
  for (std::size_t idx = 0; idx < n_boundary; ++idx, ++cursor)
    pack_lane(idx / L, idx % L, static_cast<std::size_t>(order[cursor]));
  for (std::size_t idx = 0; idx < p.n_interior; ++idx, ++cursor)
    pack_lane(p.boundary_batches + idx / L, idx % L,
              static_cast<std::size_t>(order[cursor]));

  p.owned_dirichlet.clear();
  const std::size_t owned = static_cast<std::size_t>(mesh_->n_owned) * nc;
  for (std::size_t i = 0; i < owned; ++i)
    if (dirichlet_[i]) p.owned_dirichlet.push_back(static_cast<std::int32_t>(i));

  work_xe_.resize(bs * L);
  work_ye_.resize(bs * L);
  plan_dirty_ = false;
}

void ElementOperator::run_batches(std::size_t b0, std::size_t b1,
                                  const double* weights,
                                  std::span<const double> x,
                                  std::span<double> y) const {
  const std::size_t nc = static_cast<std::size_t>(ncomp_);
  const std::size_t bs = block_size();
  constexpr std::size_t L = kLanes;
  assert(bs % 4 == 0);
  double* xe = work_xe_.data();
  double* ye = work_ye_.data();
  const Plan& p = plan_;
  const std::size_t msize = p.symmetric ? bs * (bs + 1) / 2 : bs * bs;
  for (std::size_t b = b0; b < b1; ++b) {
    const double* A = p.mats.data() + b * msize * L;
    const std::int32_t* gb = p.gbase.data() + b * 32 * L;
    const double* w = weights + b * 32 * nc * L;
    if (p.symmetric)
      batch_kernel_sym(bs, nc, p.slots[b], A, gb, w, x.data(), xe, ye,
                       y.data());
    else
      batch_kernel(bs, nc, p.slots[b], A, gb, w, x.data(), xe, ye, y.data());
  }
}

void ElementOperator::apply_batched(par::Comm& comm, const double* weights,
                                    std::span<const double> x,
                                    std::span<double> y) const {
  const Plan& p = plan_;
  std::fill(y.begin(), y.end(), 0.0);
  // Boundary elements first: once they are done the ghost slots are
  // final, so the accumulate can ship while the interior set streams.
  run_batches(0, p.boundary_batches, weights, x, y);
  mesh_->accumulate_start(comm, y, ncomp_);
  run_batches(p.boundary_batches, p.n_batches, weights, x, y);
  mesh_->accumulate_finish(comm, y, ncomp_);
}

void ElementOperator::apply_raw(par::Comm& comm, std::span<const double> x,
                                std::span<double> y) const {
  ensure_plan();
  OBS_HIST_SPAN("fem.apply");
  apply_batched(comm, plan_.w_raw.data(), x, y);
  mesh_->exchange_start(comm, y, ncomp_);
  mesh_->exchange_finish(comm, y, ncomp_);
}

void ElementOperator::apply(par::Comm& comm, std::span<const double> x,
                            std::span<double> y) const {
  ensure_plan();
  OBS_HIST_SPAN("fem.apply");
  apply_batched(comm, plan_.w_bc.data(), x, y);
  // Identity rows: the masked weights dropped every contribution into a
  // constrained row, so owned Dirichlet values are restored from x before
  // the exchange packs them — ghost copies then arrive from their owners
  // with the same value (x is ghost-consistent). No O(n) masking pass.
  for (std::int32_t i : plan_.owned_dirichlet)
    y[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(i)];
  mesh_->exchange_start(comm, y, ncomp_);
  mesh_->exchange_finish(comm, y, ncomp_);
}

double ElementOperator::dot(par::Comm& comm, std::span<const double> a,
                            std::span<const double> b) const {
  const std::size_t owned =
      static_cast<std::size_t>(mesh_->n_owned) * static_cast<std::size_t>(ncomp_);
  const double s = la::pairwise_dot(a.first(owned), b.first(owned));
  return comm.allreduce_sum(s);
}

void ElementOperator::multi_dot(par::Comm& comm,
                                std::span<const la::DotPair> pairs,
                                std::span<double> out) const {
  const std::size_t owned =
      static_cast<std::size_t>(mesh_->n_owned) * static_cast<std::size_t>(ncomp_);
  double local[8];
  assert(pairs.size() <= 8);
  for (std::size_t k = 0; k < pairs.size(); ++k)
    local[k] =
        la::pairwise_dot(pairs[k].a.first(owned), pairs[k].b.first(owned));
  comm.allreduce_sum(std::span<const double>(local, pairs.size()), out);
}

void ElementOperator::lift_bcs(par::Comm& comm, std::span<const double> g,
                               std::span<double> b) const {
  work_ax_.resize(b.size());
  apply_raw(comm, g, work_ax_);
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (dirichlet_[i])
      b[i] = g[i];
    else
      b[i] -= work_ax_[i];
  }
}

std::vector<la::Triplet> ElementOperator::local_triplets() const {
  const std::size_t nc = static_cast<std::size_t>(ncomp_);
  std::vector<la::Triplet> trips;
  const std::size_t bs = block_size();
  for (std::size_t e = 0; e < mesh_->elements.size(); ++e) {
    const std::span<const double> m = element_matrix(e);
    for (int i = 0; i < 8; ++i) {
      const mesh::Corner& ci = mesh_->corners[e][static_cast<std::size_t>(i)];
      for (int j = 0; j < 8; ++j) {
        const mesh::Corner& cj = mesh_->corners[e][static_cast<std::size_t>(j)];
        for (std::size_t a = 0; a < nc; ++a)
          for (std::size_t bcomp = 0; bcomp < nc; ++bcomp) {
            const double v = m[(static_cast<std::size_t>(i) * nc + a) * bs +
                               static_cast<std::size_t>(j) * nc + bcomp];
            if (v == 0.0) continue;
            for (int ki = 0; ki < ci.n; ++ki) {
              const std::int32_t di = ci.dof[static_cast<std::size_t>(ki)];
              if (dirichlet_[static_cast<std::size_t>(di) * nc + a]) continue;
              for (int kj = 0; kj < cj.n; ++kj) {
                const std::int32_t dj = cj.dof[static_cast<std::size_t>(kj)];
                if (dirichlet_[static_cast<std::size_t>(dj) * nc + bcomp])
                  continue;
                trips.push_back(la::Triplet{
                    mesh_->dof_gids[static_cast<std::size_t>(di)] * ncomp_ +
                        static_cast<std::int64_t>(a),
                    mesh_->dof_gids[static_cast<std::size_t>(dj)] * ncomp_ +
                        static_cast<std::int64_t>(bcomp),
                    ci.w[static_cast<std::size_t>(ki)] *
                        cj.w[static_cast<std::size_t>(kj)] * v});
              }
            }
          }
      }
    }
  }
  // Identity rows for owned Dirichlet values.
  for (std::int64_t d = 0; d < mesh_->n_owned; ++d)
    for (std::size_t c = 0; c < nc; ++c)
      if (dirichlet_[static_cast<std::size_t>(d) * nc + c]) {
        const std::int64_t g =
            mesh_->dof_gids[static_cast<std::size_t>(d)] * ncomp_ +
            static_cast<std::int64_t>(c);
        trips.push_back(la::Triplet{g, g, 1.0});
      }
  return trips;
}

la::DistCsr ElementOperator::assemble_dist(par::Comm& comm) const {
  // Owned value gids are [gid_offset * ncomp, (gid_offset + n_owned) *
  // ncomp) and rank-contiguous, so the ownership partition comes straight
  // from an allgather of the per-rank offsets.
  const std::vector<std::int64_t> starts = comm.allgather(
      mesh_->gid_offset * static_cast<std::int64_t>(ncomp_));
  std::vector<std::int64_t> offsets(starts.begin(), starts.end());
  offsets.push_back(mesh_->n_global * ncomp_);
  return la::DistCsr::from_triplets(comm, offsets, offsets, local_triplets());
}

}  // namespace alps::fem
