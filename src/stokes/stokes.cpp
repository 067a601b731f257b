#include "stokes/stokes.hpp"

#include <chrono>
#include <optional>

#include "obs/obs.hpp"
#include "obs/telemetry.hpp"

namespace alps::stokes {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void set_velocity_bcs(ElementOperator& op, const Mesh& m, VelocityBc bc) {
  for (std::int64_t d = 0; d < m.n_local; ++d) {
    const std::uint8_t mask = m.dof_boundary[static_cast<std::size_t>(d)];
    if (mask == 0) continue;
    for (int c = 0; c < 3; ++c) {
      const std::uint8_t faces = static_cast<std::uint8_t>(0b11u << (2 * c));
      if (bc == VelocityBc::kNoSlip || (mask & faces)) op.set_dirichlet(d, c);
    }
  }
}

StokesSolver::StokesSolver(par::Comm& comm, const Mesh& m,
                           const forest::Connectivity& conn,
                           std::span<const double> eta_quad,
                           const StokesOptions& opt,
                           amg::HierarchyCache* cache)
    : mesh_(&m), opt_(opt), cache_(cache != nullptr ? cache : &own_cache_) {
  // The StokesTimings bookkeeping stays (Picard accumulates it); the obs
  // phase spans are the cross-rank source for the breakdown tables. An
  // optional span lets assemble and amg.setup own disjoint windows
  // without nesting (nesting would double-count the phase seconds).
  std::optional<obs::Span> phase_span;
  phase_span.emplace("stokes.assemble", obs::Cat::kPhase, true);
  const std::size_t ne = m.elements.size();
  double t0 = now_seconds();

  op_ = std::make_unique<ElementOperator>(&m, 4);
  for (int c = 0; c < 3; ++c)
    poisson_[static_cast<std::size_t>(c)] =
        std::make_unique<ElementOperator>(&m, 1);
  schur_diag_.assign(static_cast<std::size_t>(m.n_local), 0.0);

  for (std::size_t e = 0; e < ne; ++e) {
    const fem::ElemGeom g = fem::element_geometry(m, conn, e);
    const fem::MappedQuad mq = fem::map_element(g);
    std::array<double, fem::kQuad> eq;
    double eta_bar = 0.0;
    for (int q = 0; q < fem::kQuad; ++q) {
      eq[static_cast<std::size_t>(q)] = eta_quad[8 * e + static_cast<std::size_t>(q)];
      eta_bar += eq[static_cast<std::size_t>(q)];
    }
    eta_bar /= fem::kQuad;

    const auto a = fem::viscous_block(mq, eq);
    const auto b = fem::divergence_block(mq);
    const fem::Mat8 cstab = fem::pressure_stabilization(mq, eta_bar);
    const fem::Mat8 kpois = fem::stiffness(mq, eq);
    const std::array<double, 8> lm = fem::lumped_mass(mq);

    std::span<double> sm = op_->element_matrix(e);
    const std::size_t bs = 32;
    for (int i = 0; i < 8; ++i)
      for (int j = 0; j < 8; ++j) {
        for (int ci = 0; ci < 3; ++ci)
          for (int cj = 0; cj < 3; ++cj)
            sm[(static_cast<std::size_t>(4 * i + ci)) * bs + 4 * j + cj] =
                a[static_cast<std::size_t>(3 * i + ci)]
                 [static_cast<std::size_t>(3 * j + cj)];
        for (int cj = 0; cj < 3; ++cj) {
          sm[(static_cast<std::size_t>(4 * i + 3)) * bs + 4 * j + cj] =
              b[static_cast<std::size_t>(i)][static_cast<std::size_t>(3 * j + cj)];
          sm[(static_cast<std::size_t>(4 * j + cj)) * bs + 4 * i + 3] =
              b[static_cast<std::size_t>(i)][static_cast<std::size_t>(3 * j + cj)];
        }
        sm[(static_cast<std::size_t>(4 * i + 3)) * bs + 4 * j + 3] =
            -cstab[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      }

    for (int c = 0; c < 3; ++c) {
      std::span<double> pm =
          poisson_[static_cast<std::size_t>(c)]->element_matrix(e);
      for (int i = 0; i < 8; ++i)
        for (int j = 0; j < 8; ++j)
          pm[static_cast<std::size_t>(i) * 8 + static_cast<std::size_t>(j)] =
              kpois[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
    }

    // Schur diagonal: inverse-viscosity-weighted lumped mass.
    for (int i = 0; i < 8; ++i) {
      const mesh::Corner& cc = m.corners[e][static_cast<std::size_t>(i)];
      for (int k = 0; k < cc.n; ++k)
        schur_diag_[static_cast<std::size_t>(cc.dof[static_cast<std::size_t>(k)])] +=
            cc.w[static_cast<std::size_t>(k)] *
            lm[static_cast<std::size_t>(i)] / eta_bar;
    }
  }
  m.accumulate(comm, schur_diag_);
  m.exchange(comm, schur_diag_);

  set_velocity_bcs(*op_, m, opt_.bc);
  for (int c = 0; c < 3; ++c) {
    ElementOperator& pc = *poisson_[static_cast<std::size_t>(c)];
    for (std::int64_t d = 0; d < m.n_local; ++d) {
      const std::uint8_t mask = m.dof_boundary[static_cast<std::size_t>(d)];
      if (mask == 0) continue;
      const std::uint8_t faces = static_cast<std::uint8_t>(0b11u << (2 * c));
      if (opt_.bc == VelocityBc::kNoSlip || (mask & faces))
        pc.set_dirichlet(d, 0);
    }
  }
  timings_.assemble_seconds = now_seconds() - t0;
  phase_span.reset();

  phase_span.emplace("amg.setup", obs::Cat::kPhase, true);
  t0 = now_seconds();
  amg::HierarchyCache& hc = *cache_;
  if (!hc.valid()) {
    for (int c = 0; c < 3; ++c) {
      // Owned-row distributed assembly + distributed hierarchy: per-rank
      // setup and apply cost is O(N_local), the paper's scalability claim.
      hc.amg[static_cast<std::size_t>(c)] = std::make_unique<amg::DistAmg>(
          comm, poisson_[static_cast<std::size_t>(c)]->assemble_dist(comm),
          opt_.amg);
    }
    hc.mark_built();
    ++hc.stats.full_setups;
    obs::counter_add(obs::wellknown::amg_setup_full(), 1);
  } else {
    // Mesh unchanged since the last build: C/F split, interpolation, and
    // the RAP symbolic structure are still exact; only operator values
    // moved with the viscosity.
    for (int c = 0; c < 3; ++c)
      hc.amg[static_cast<std::size_t>(c)]->refresh_numeric(
          comm, poisson_[static_cast<std::size_t>(c)]->assemble_dist(comm));
    ++hc.stats.numeric_refreshes;
    obs::counter_add(obs::wellknown::amg_setup_numeric(), 1);
  }
  comp_b_.resize(static_cast<std::size_t>(m.n_owned));
  comp_x_.resize(static_cast<std::size_t>(m.n_owned));
  timings_.amg_setup_seconds = now_seconds() - t0;
}

void StokesSolver::apply_preconditioner(par::Comm& comm,
                                        std::span<const double> x,
                                        std::span<double> y) {
  OBS_PHASE_SPAN("amg.apply");
  const double t0 = now_seconds();
  const Mesh& m = *mesh_;
  const std::size_t no = static_cast<std::size_t>(m.n_owned);
  const std::size_t nl = static_cast<std::size_t>(m.n_local);
  // One distributed V-cycle per velocity component over the owned slices
  // (owned local dofs [0, n_owned) carry gids gid_offset + i, matching
  // the DistCsr row partition); ghosts are refreshed with one halo
  // exchange at the end — no O(N_global) gather.
  for (int c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < no; ++i)
      comp_b_[i] = x[4 * i + static_cast<std::size_t>(c)];
    std::fill(comp_x_.begin(), comp_x_.end(), 0.0);
    cache_->amg[static_cast<std::size_t>(c)]->vcycle(comm, comp_b_, comp_x_);
    for (std::size_t i = 0; i < no; ++i)
      y[4 * i + static_cast<std::size_t>(c)] = comp_x_[i];
  }
  for (std::size_t i = 0; i < nl; ++i)
    y[4 * i + 3] = x[4 * i + 3] / schur_diag_[i];
  m.exchange(comm, y, 4);
  timings_.amg_apply_seconds += now_seconds() - t0;
}

la::SolveResult StokesSolver::solve(par::Comm& comm,
                                    std::span<const double> rhs,
                                    std::span<double> x) {
  OBS_PHASE_SPAN("stokes.minres");
  const double t0 = now_seconds();
  la::LinOp aop = op_->as_linop(comm);
  la::LinOp pre = [this, &comm](std::span<const double> in,
                                std::span<double> out) {
    apply_preconditioner(comm, in, out);
  };
  // Keep a residual history by default so the flight recorder always has
  // the last few MINRES convergence curves (identical on all ranks; only
  // rank 0 records to the shared registry).
  la::KrylovOptions kopt = opt_.krylov;
  if (kopt.history_capacity == 0) kopt.history_capacity = 64;
  la::SolveResult r =
      la::minres(aop, rhs, x, pre, op_->as_multi_dot(comm), kopt);
  if (comm.rank() == 0)
    obs::record_history("stokes.minres.relres", r.residual_history);
  timings_.minres_seconds += now_seconds() - t0;

  // Remove the constant-pressure mode (free-floating for enclosed flow).
  const Mesh& m = *mesh_;
  double psum = 0.0, n = 0.0;
  for (std::int64_t i = 0; i < m.n_owned; ++i) {
    psum += x[static_cast<std::size_t>(4 * i + 3)];
    n += 1.0;
  }
  psum = comm.allreduce_sum(psum);
  n = comm.allreduce_sum(n);
  const double mean = psum / n;
  for (std::int64_t i = 0; i < m.n_local; ++i)
    x[static_cast<std::size_t>(4 * i + 3)] -= mean;
  return r;
}

std::vector<double> StokesSolver::buoyancy_rhs(
    par::Comm& comm, const Mesh& m, const forest::Connectivity& conn,
    std::span<const double> temperature, double rayleigh, int dir,
    const StokesOptions& opt) {
  std::vector<double> rhs(static_cast<std::size_t>(m.n_local) * 4, 0.0);
  std::vector<double> te(8);
  for (std::size_t e = 0; e < m.elements.size(); ++e) {
    const fem::MappedQuad mq =
        fem::map_element(fem::element_geometry(m, conn, e));
    const fem::Mat8 mm = fem::mass(mq);
    // Gather element temperatures through constraints.
    for (int i = 0; i < 8; ++i) {
      const mesh::Corner& cc = m.corners[e][static_cast<std::size_t>(i)];
      te[static_cast<std::size_t>(i)] = 0.0;
      for (int k = 0; k < cc.n; ++k)
        te[static_cast<std::size_t>(i)] +=
            cc.w[static_cast<std::size_t>(k)] *
            temperature[static_cast<std::size_t>(cc.dof[static_cast<std::size_t>(k)])];
    }
    for (int i = 0; i < 8; ++i) {
      double f = 0.0;
      for (int j = 0; j < 8; ++j)
        f += mm[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] *
             te[static_cast<std::size_t>(j)];
      f *= rayleigh;
      const mesh::Corner& cc = m.corners[e][static_cast<std::size_t>(i)];
      for (int k = 0; k < cc.n; ++k)
        rhs[static_cast<std::size_t>(cc.dof[static_cast<std::size_t>(k)]) * 4 +
            static_cast<std::size_t>(dir)] +=
            cc.w[static_cast<std::size_t>(k)] * f;
    }
  }
  m.accumulate(comm, rhs, 4);
  m.exchange(comm, rhs, 4);
  // Dirichlet velocity entries carry the boundary value (zero).
  for (std::int64_t d = 0; d < m.n_local; ++d) {
    const std::uint8_t mask = m.dof_boundary[static_cast<std::size_t>(d)];
    if (mask == 0) continue;
    for (int c = 0; c < 3; ++c) {
      const std::uint8_t faces = static_cast<std::uint8_t>(0b11u << (2 * c));
      if (opt.bc == VelocityBc::kNoSlip || (mask & faces))
        rhs[static_cast<std::size_t>(d) * 4 + static_cast<std::size_t>(c)] = 0.0;
    }
  }
  return rhs;
}

}  // namespace alps::stokes
