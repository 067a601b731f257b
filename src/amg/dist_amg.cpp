#include "amg/dist_amg.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <string>

#include "amg/classical.hpp"
#include "obs/histogram.hpp"
#include "obs/obs.hpp"

namespace alps::amg {

namespace detail {

std::vector<CF> split_cf(const std::vector<std::vector<std::int64_t>>& strong) {
  const std::int64_t n = static_cast<std::int64_t>(strong.size());
  // Transpose: who strongly depends on i.
  std::vector<std::vector<std::int64_t>> influenced(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t j : strong[static_cast<std::size_t>(i)])
      influenced[static_cast<std::size_t>(j)].push_back(i);

  std::vector<std::int64_t> measure(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    measure[static_cast<std::size_t>(i)] =
        static_cast<std::int64_t>(influenced[static_cast<std::size_t>(i)].size());

  std::vector<CF> cf(static_cast<std::size_t>(n), CF::kUndecided);
  // Nodes with no strong connection in either direction — Dirichlet /
  // identity rows and rows with only weak couplings — take no part in
  // coarse-grid correction: preset them to F so they cannot accumulate as
  // C points on every coarser level (which stalls coarsening with a large
  // coarsest grid). Their interpolation row stays empty and relaxation
  // resolves them.
  for (std::int64_t i = 0; i < n; ++i)
    if (strong[static_cast<std::size_t>(i)].empty() &&
        influenced[static_cast<std::size_t>(i)].empty())
      cf[static_cast<std::size_t>(i)] = CF::kFine;
  using Entry = std::pair<std::int64_t, std::int64_t>;  // (measure, node)
  std::priority_queue<Entry> heap;
  for (std::int64_t i = 0; i < n; ++i)
    heap.emplace(measure[static_cast<std::size_t>(i)], i);

  while (!heap.empty()) {
    const auto [m, i] = heap.top();
    heap.pop();
    if (cf[static_cast<std::size_t>(i)] != CF::kUndecided) continue;
    if (m != measure[static_cast<std::size_t>(i)]) {
      heap.emplace(measure[static_cast<std::size_t>(i)], i);  // stale entry
      continue;
    }
    cf[static_cast<std::size_t>(i)] = CF::kCoarse;
    for (std::int64_t j : influenced[static_cast<std::size_t>(i)]) {
      if (cf[static_cast<std::size_t>(j)] != CF::kUndecided) continue;
      cf[static_cast<std::size_t>(j)] = CF::kFine;
      // New F point: strengthen its other dependencies toward C.
      for (std::int64_t k : strong[static_cast<std::size_t>(j)])
        if (cf[static_cast<std::size_t>(k)] == CF::kUndecided) {
          measure[static_cast<std::size_t>(k)] += 1;
          heap.emplace(measure[static_cast<std::size_t>(k)], k);
        }
    }
  }
  // Direct interpolation needs every F point to see a strong C neighbor.
  for (std::int64_t i = 0; i < n; ++i) {
    if (cf[static_cast<std::size_t>(i)] != CF::kFine) continue;
    bool has_c = false;
    for (std::int64_t j : strong[static_cast<std::size_t>(i)])
      if (cf[static_cast<std::size_t>(j)] == CF::kCoarse) {
        has_c = true;
        break;
      }
    if (!has_c && !strong[static_cast<std::size_t>(i)].empty())
      cf[static_cast<std::size_t>(i)] = CF::kCoarse;
  }
  return cf;
}

}  // namespace detail

namespace {

using detail::CF;

/// Value-array position of (local row `kr`, global column `gid`) in the
/// owned-row matrix `ac`, encoded as diag index (>= 0) or offd index
/// (-pos-1). Both blocks keep sorted columns per row (from_triplets).
std::int64_t ac_position(const la::DistCsr& ac, std::int64_t kr,
                         std::int64_t gid) {
  if (gid >= ac.col_begin() && gid < ac.col_end()) {
    const la::Csr& d = ac.diag();
    const std::int64_t c = gid - ac.col_begin();
    const auto& ci = d.colidx();
    const auto lo = ci.begin() + d.rowptr()[static_cast<std::size_t>(kr)];
    const auto hi = ci.begin() + d.rowptr()[static_cast<std::size_t>(kr) + 1];
    const auto it = std::lower_bound(lo, hi, c);
    if (it == hi || *it != c)
      throw std::logic_error("DistAmg: coarse diag entry missing");
    return it - ci.begin();
  }
  const auto& gg = ac.ghost_gids();
  const auto git = std::lower_bound(gg.begin(), gg.end(), gid);
  if (git == gg.end() || *git != gid)
    throw std::logic_error("DistAmg: coarse ghost column missing");
  const std::int64_t c = git - gg.begin();
  const la::Csr& o = ac.offd();
  const auto& ci = o.colidx();
  const auto lo = ci.begin() + o.rowptr()[static_cast<std::size_t>(kr)];
  const auto hi = ci.begin() + o.rowptr()[static_cast<std::size_t>(kr) + 1];
  const auto it = std::lower_bound(lo, hi, c);
  if (it == hi || *it != c)
    throw std::logic_error("DistAmg: coarse offd entry missing");
  return -(it - ci.begin()) - 1;
}

/// Spectral-radius estimate of D^{-1}A by power iteration; one matvec and
/// one allreduce per step, deterministic start vector. Collective.
double estimate_rho_dist(par::Comm& comm, const la::DistCsr& a,
                         std::span<const double> diag, int iterations) {
  const std::size_t n = static_cast<std::size_t>(a.owned_rows());
  std::vector<double> v(n), w(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = 1.0 + 0.5 * std::sin(static_cast<double>(a.row_begin() +
                                                    static_cast<std::int64_t>(i)));
  double rho = 1.0;
  for (int it = 0; it < iterations; ++it) {
    a.matvec(comm, v, w);
    double local = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = diag[i];
      w[i] = d != 0.0 ? w[i] / d : w[i];
      local += w[i] * w[i];
    }
    const double nrm = std::sqrt(comm.allreduce_sum(local));
    if (nrm == 0.0) return 1.0;
    rho = nrm;
    for (std::size_t i = 0; i < n; ++i) v[i] = w[i] / nrm;
  }
  return rho;
}

}  // namespace

// ---- setup ----------------------------------------------------------------

DistAmg::DistAmg(par::Comm& comm, la::DistCsr a, const AmgOptions& opt)
    : opt_(opt) {
  // Trace-only span: the phase-accumulating "amg.setup" span is owned by
  // the caller (StokesSolver), which may build several hierarchies. The
  // amg.setup.* sub-phases below attribute the setup stages separately.
  OBS_SPAN("amg.dist_setup");
  la::DistCsr cur = std::move(a);
  for (int lvl = 0; lvl < opt_.max_levels; ++lvl) {
    const std::int64_t n_global = cur.global_rows();
    stats_.push_back(LevelStats{n_global, comm.allreduce_sum(cur.local_nnz())});
    local_nnz_per_level_.push_back(cur.local_nnz());
    obs::counter_add(
        obs::counter(("amg.level" + std::to_string(lvl) + ".nnz").c_str()),
        static_cast<std::uint64_t>(cur.local_nnz()));
    if (n_global <= opt_.coarse_size) break;

    const std::int64_t n = cur.owned_rows();
    const la::Csr& D = cur.diag();
    const la::Csr& O = cur.offd();

    // Strength of connection over owned rows, classical criterion
    // -a_ij >= theta * max_k(-a_ik) with ghost columns included.
    std::vector<std::vector<std::int64_t>> strong_diag(
        static_cast<std::size_t>(n));
    std::vector<std::vector<std::int64_t>> strong_offd(
        static_cast<std::size_t>(n));
    {
      OBS_PHASE_SPAN("amg.setup.strength");
      for (std::int64_t i = 0; i < n; ++i) {
        double maxneg = 0.0;
        for (std::int64_t k = D.rowptr()[static_cast<std::size_t>(i)];
             k < D.rowptr()[static_cast<std::size_t>(i) + 1]; ++k)
          if (D.colidx()[static_cast<std::size_t>(k)] != i)
            maxneg = std::max(maxneg, -D.values()[static_cast<std::size_t>(k)]);
        for (std::int64_t k = O.rowptr()[static_cast<std::size_t>(i)];
             k < O.rowptr()[static_cast<std::size_t>(i) + 1]; ++k)
          maxneg = std::max(maxneg, -O.values()[static_cast<std::size_t>(k)]);
        if (maxneg <= 0.0) continue;
        const double cut = opt_.strength_theta * maxneg;
        for (std::int64_t k = D.rowptr()[static_cast<std::size_t>(i)];
             k < D.rowptr()[static_cast<std::size_t>(i) + 1]; ++k) {
          const std::int64_t j = D.colidx()[static_cast<std::size_t>(k)];
          if (j != i && -D.values()[static_cast<std::size_t>(k)] >= cut)
            strong_diag[static_cast<std::size_t>(i)].push_back(j);
        }
        for (std::int64_t k = O.rowptr()[static_cast<std::size_t>(i)];
             k < O.rowptr()[static_cast<std::size_t>(i) + 1]; ++k)
          if (-O.values()[static_cast<std::size_t>(k)] >= cut)
            strong_offd[static_cast<std::size_t>(i)].push_back(
                O.colidx()[static_cast<std::size_t>(k)]);
      }
    }

    // Per-processor C/F split on the owned subgraph (identical to the
    // replicated hierarchy at P = 1), plus the global coarse numbering.
    std::vector<CF> cf;
    std::vector<std::int64_t> cidx(static_cast<std::size_t>(n), -1);
    std::vector<std::int64_t> coarse_offsets;
    std::int64_t coarse_lo = 0, nc_global = 0;
    {
      OBS_PHASE_SPAN("amg.setup.cfsplit");
      cf = detail::split_cf(strong_diag);
      std::int64_t nc = 0;
      for (std::int64_t i = 0; i < n; ++i)
        if (cf[static_cast<std::size_t>(i)] == CF::kCoarse)
          cidx[static_cast<std::size_t>(i)] = nc++;
      const std::vector<std::int64_t> nc_all = comm.allgather(nc);
      coarse_offsets.assign(nc_all.size() + 1, 0);
      for (std::size_t r = 0; r < nc_all.size(); ++r)
        coarse_offsets[r + 1] = coarse_offsets[r] + nc_all[r];
      coarse_lo = coarse_offsets[static_cast<std::size_t>(comm.rank())];
      nc_global = coarse_offsets.back();
    }
    if (nc_global == 0 || nc_global >= n_global) break;  // no coarsening

    // Direct interpolation (Stüben): C points inject; F points take
    // w_ij = -alpha a_ij / a_ii over strong C neighbors — owned or ghost.
    // Strong-neighbor membership is tested through marks stamped with the
    // current row (O(1) instead of a scan of the strong list).
    la::DistCsr p;
    {
      OBS_PHASE_SPAN("amg.setup.interp");
      // Ghost coarse ids (-1 for ghost F points) through the halo plan.
      std::vector<std::int64_t> owned_cgid(static_cast<std::size_t>(n), -1);
      for (std::int64_t i = 0; i < n; ++i)
        if (cidx[static_cast<std::size_t>(i)] >= 0)
          owned_cgid[static_cast<std::size_t>(i)] =
              coarse_lo + cidx[static_cast<std::size_t>(i)];
      std::vector<std::int64_t> ghost_cgid(cur.ghost_gids().size(), -1);
      cur.plan().forward<std::int64_t>(comm, owned_cgid, ghost_cgid);

      std::vector<std::int64_t> mark_diag(static_cast<std::size_t>(n), -1);
      std::vector<std::int64_t> mark_offd(cur.ghost_gids().size(), -1);
      std::vector<la::Triplet> pt;
      for (std::int64_t i = 0; i < n; ++i) {
        const std::int64_t gid_i = cur.row_begin() + i;
        if (cf[static_cast<std::size_t>(i)] == CF::kCoarse) {
          pt.push_back(
              {gid_i, coarse_lo + cidx[static_cast<std::size_t>(i)], 1.0});
          continue;
        }
        for (std::int64_t j : strong_diag[static_cast<std::size_t>(i)])
          mark_diag[static_cast<std::size_t>(j)] = i;
        for (std::int64_t g : strong_offd[static_cast<std::size_t>(i)])
          mark_offd[static_cast<std::size_t>(g)] = i;
        double diag = 0.0, sum_all = 0.0, sum_c = 0.0;
        std::vector<std::pair<std::int64_t, double>> cweights;
        for (std::int64_t k = D.rowptr()[static_cast<std::size_t>(i)];
             k < D.rowptr()[static_cast<std::size_t>(i) + 1]; ++k) {
          const std::int64_t j = D.colidx()[static_cast<std::size_t>(k)];
          const double av = D.values()[static_cast<std::size_t>(k)];
          if (j == i) {
            diag = av;
            continue;
          }
          sum_all += av;
          if (cf[static_cast<std::size_t>(j)] == CF::kCoarse &&
              mark_diag[static_cast<std::size_t>(j)] == i) {
            sum_c += av;
            cweights.emplace_back(
                coarse_lo + cidx[static_cast<std::size_t>(j)], av);
          }
        }
        for (std::int64_t k = O.rowptr()[static_cast<std::size_t>(i)];
             k < O.rowptr()[static_cast<std::size_t>(i) + 1]; ++k) {
          const std::int64_t g = O.colidx()[static_cast<std::size_t>(k)];
          const double av = O.values()[static_cast<std::size_t>(k)];
          sum_all += av;
          if (ghost_cgid[static_cast<std::size_t>(g)] >= 0 &&
              mark_offd[static_cast<std::size_t>(g)] == i) {
            sum_c += av;
            cweights.emplace_back(ghost_cgid[static_cast<std::size_t>(g)], av);
          }
        }
        if (cweights.empty() || diag == 0.0 || sum_c == 0.0)
          continue;  // isolated F point: relies on smoothing only
        const double alpha = sum_all / sum_c;
        for (const auto& [jc, av] : cweights)
          pt.push_back({gid_i, jc, -alpha * av / diag});
      }
      p = la::DistCsr::from_triplets(comm, cur.row_offsets(), coarse_offsets,
                                     std::move(pt));
    }
    obs::counter_add(
        obs::counter(("amg.level" + std::to_string(lvl) + ".p_nnz").c_str()),
        static_cast<std::uint64_t>(p.local_nnz()));

    // Galerkin product A_c = P^T A P: symbolic pass (pattern + cached
    // RapPlan) followed by the numeric pass shared with refresh_numeric.
    Level L;
    L.a = std::move(cur);
    L.p = std::move(p);
    la::DistCsr ac;
    {
      OBS_PHASE_SPAN("amg.setup.galerkin");
      build_rap(comm, L.a, L.p, coarse_offsets, L.rap, ac);
    }
    levels_.push_back(std::move(L));
    cur = std::move(ac);
  }

  coarse_dist_ = std::move(cur);
  for (Level& L : levels_) {
    L.res.resize(static_cast<std::size_t>(L.a.owned_rows()));
    L.bc.resize(static_cast<std::size_t>(L.p.owned_cols()));
    L.xc.resize(static_cast<std::size_t>(L.p.owned_cols()));
    L.ghost.resize(L.a.plan().num_ghosts());
  }
  // Replicates the (tiny) coarsest operator for the direct solve and
  // estimates the Chebyshev intervals; shared with refresh_numeric.
  finalize_values(comm);
}

void DistAmg::build_rap(par::Comm& comm, const la::DistCsr& a,
                        const la::DistCsr& p,
                        const std::vector<std::int64_t>& coarse_offsets,
                        RapPlan& plan, la::DistCsr& ac) const {
  const std::int64_t n = a.owned_rows();
  const la::Csr& D = a.diag();
  const la::Csr& O = a.offd();
  const la::Csr& PD = p.diag();
  const la::Csr& PO = p.offd();
  const std::int64_t coarse_lo =
      coarse_offsets[static_cast<std::size_t>(comm.rank())];

  // Interpolation rows of ghost fine points, fetched once from their
  // owners (P is frozen across numeric refreshes, so never re-fetched).
  std::vector<std::int64_t> frp, fcg;
  std::vector<double> fvv;
  p.fetch_rows(comm, a.ghost_gids(), frp, fcg, fvv);

  // Compact coarse-column space: every coarse gid reachable from this
  // rank's rows of A P.
  std::vector<std::int64_t>& cc = plan.ccol_gids;
  cc.clear();
  cc.reserve(static_cast<std::size_t>(PD.nnz()) + p.ghost_gids().size() +
             fcg.size());
  for (std::int64_t c : PD.colidx()) cc.push_back(p.col_begin() + c);
  cc.insert(cc.end(), p.ghost_gids().begin(), p.ghost_gids().end());
  cc.insert(cc.end(), fcg.begin(), fcg.end());
  std::sort(cc.begin(), cc.end());
  cc.erase(std::unique(cc.begin(), cc.end()), cc.end());
  const std::size_t m = cc.size();
  const auto compact = [&cc](std::int64_t gid) {
    return static_cast<std::int32_t>(
        std::lower_bound(cc.begin(), cc.end(), gid) - cc.begin());
  };

  // P rows over compact columns: owned fine rows (diag + offd merged),
  // then the fetched ghost fine rows.
  plan.prow_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  plan.prow_col.clear();
  plan.prow_val.clear();
  plan.prow_col.reserve(static_cast<std::size_t>(p.local_nnz()));
  plan.prow_val.reserve(static_cast<std::size_t>(p.local_nnz()));
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t k = PD.rowptr()[static_cast<std::size_t>(i)];
         k < PD.rowptr()[static_cast<std::size_t>(i) + 1]; ++k) {
      plan.prow_col.push_back(compact(
          p.col_begin() + PD.colidx()[static_cast<std::size_t>(k)]));
      plan.prow_val.push_back(PD.values()[static_cast<std::size_t>(k)]);
    }
    for (std::int64_t k = PO.rowptr()[static_cast<std::size_t>(i)];
         k < PO.rowptr()[static_cast<std::size_t>(i) + 1]; ++k) {
      plan.prow_col.push_back(compact(p.ghost_gids()[static_cast<std::size_t>(
          PO.colidx()[static_cast<std::size_t>(k)])]));
      plan.prow_val.push_back(PO.values()[static_cast<std::size_t>(k)]);
    }
    plan.prow_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<std::int64_t>(plan.prow_col.size());
  }
  plan.gprow_ptr.assign(frp.begin(), frp.end());
  plan.gprow_col.resize(fcg.size());
  plan.gprow_val.assign(fvv.begin(), fvv.end());
  for (std::size_t k = 0; k < fcg.size(); ++k)
    plan.gprow_col[k] = compact(fcg[k]);

  // Symbolic A P: union of the P rows of each A-row's columns, via marks.
  std::vector<std::int64_t> mark(m, -1);
  plan.ap_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  plan.ap_col.clear();
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t k = D.rowptr()[static_cast<std::size_t>(i)];
         k < D.rowptr()[static_cast<std::size_t>(i) + 1]; ++k) {
      const std::int64_t j = D.colidx()[static_cast<std::size_t>(k)];
      for (std::int64_t t = plan.prow_ptr[static_cast<std::size_t>(j)];
           t < plan.prow_ptr[static_cast<std::size_t>(j) + 1]; ++t) {
        const std::int32_t c = plan.prow_col[static_cast<std::size_t>(t)];
        if (mark[static_cast<std::size_t>(c)] != i) {
          mark[static_cast<std::size_t>(c)] = i;
          plan.ap_col.push_back(c);
        }
      }
    }
    for (std::int64_t k = O.rowptr()[static_cast<std::size_t>(i)];
         k < O.rowptr()[static_cast<std::size_t>(i) + 1]; ++k) {
      const std::int64_t g = O.colidx()[static_cast<std::size_t>(k)];
      for (std::int64_t t = plan.gprow_ptr[static_cast<std::size_t>(g)];
           t < plan.gprow_ptr[static_cast<std::size_t>(g) + 1]; ++t) {
        const std::int32_t c = plan.gprow_col[static_cast<std::size_t>(t)];
        if (mark[static_cast<std::size_t>(c)] != i) {
          mark[static_cast<std::size_t>(c)] = i;
          plan.ap_col.push_back(c);
        }
      }
    }
    plan.ap_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<std::int64_t>(plan.ap_col.size());
  }
  plan.ap_val.assign(plan.ap_col.size(), 0.0);

  // Local transposes of P: owned coarse rows (pt) and ghost coarse
  // columns whose coarse rows live on other ranks (gpt).
  const std::int64_t nc_own = p.owned_cols();
  const std::size_t ngc = p.ghost_gids().size();
  plan.pt_ptr.assign(static_cast<std::size_t>(nc_own) + 1, 0);
  plan.gpt_ptr.assign(ngc + 1, 0);
  for (std::int64_t k = 0; k < PD.nnz(); ++k)
    plan.pt_ptr[static_cast<std::size_t>(PD.colidx()[static_cast<std::size_t>(k)]) + 1]++;
  for (std::int64_t k = 0; k < PO.nnz(); ++k)
    plan.gpt_ptr[static_cast<std::size_t>(PO.colidx()[static_cast<std::size_t>(k)]) + 1]++;
  for (std::size_t c = 1; c < plan.pt_ptr.size(); ++c)
    plan.pt_ptr[c] += plan.pt_ptr[c - 1];
  for (std::size_t c = 1; c < plan.gpt_ptr.size(); ++c)
    plan.gpt_ptr[c] += plan.gpt_ptr[c - 1];
  plan.pt_row.resize(static_cast<std::size_t>(PD.nnz()));
  plan.pt_w.resize(static_cast<std::size_t>(PD.nnz()));
  plan.gpt_row.resize(static_cast<std::size_t>(PO.nnz()));
  plan.gpt_w.resize(static_cast<std::size_t>(PO.nnz()));
  {
    std::vector<std::int64_t> fill(plan.pt_ptr.begin(), plan.pt_ptr.end() - 1);
    std::vector<std::int64_t> gfill(plan.gpt_ptr.begin(),
                                    plan.gpt_ptr.end() - 1);
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t k = PD.rowptr()[static_cast<std::size_t>(i)];
           k < PD.rowptr()[static_cast<std::size_t>(i) + 1]; ++k) {
        const std::size_t c =
            static_cast<std::size_t>(PD.colidx()[static_cast<std::size_t>(k)]);
        plan.pt_row[static_cast<std::size_t>(fill[c])] =
            static_cast<std::int32_t>(i);
        plan.pt_w[static_cast<std::size_t>(fill[c]++)] =
            PD.values()[static_cast<std::size_t>(k)];
      }
      for (std::int64_t k = PO.rowptr()[static_cast<std::size_t>(i)];
           k < PO.rowptr()[static_cast<std::size_t>(i) + 1]; ++k) {
        const std::size_t c =
            static_cast<std::size_t>(PO.colidx()[static_cast<std::size_t>(k)]);
        plan.gpt_row[static_cast<std::size_t>(gfill[c])] =
            static_cast<std::int32_t>(i);
        plan.gpt_w[static_cast<std::size_t>(gfill[c]++)] =
            PO.values()[static_cast<std::size_t>(k)];
      }
    }
  }
  plan.rc_dest.resize(ngc);
  for (std::size_t g = 0; g < ngc; ++g)
    plan.rc_dest[g] = la::owner_of(coarse_offsets, p.ghost_gids()[g]);

  // First numeric A P so the coarse pattern can be built with values.
  plan.acc.assign(m, 0.0);
  {
    // Inline numeric A P (same loop as rap_numeric's first stage).
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t k = D.rowptr()[static_cast<std::size_t>(i)];
           k < D.rowptr()[static_cast<std::size_t>(i) + 1]; ++k) {
        const std::int64_t j = D.colidx()[static_cast<std::size_t>(k)];
        const double av = D.values()[static_cast<std::size_t>(k)];
        for (std::int64_t t = plan.prow_ptr[static_cast<std::size_t>(j)];
             t < plan.prow_ptr[static_cast<std::size_t>(j) + 1]; ++t)
          plan.acc[static_cast<std::size_t>(
              plan.prow_col[static_cast<std::size_t>(t)])] +=
              av * plan.prow_val[static_cast<std::size_t>(t)];
      }
      for (std::int64_t k = O.rowptr()[static_cast<std::size_t>(i)];
           k < O.rowptr()[static_cast<std::size_t>(i) + 1]; ++k) {
        const std::int64_t g = O.colidx()[static_cast<std::size_t>(k)];
        const double av = O.values()[static_cast<std::size_t>(k)];
        for (std::int64_t t = plan.gprow_ptr[static_cast<std::size_t>(g)];
             t < plan.gprow_ptr[static_cast<std::size_t>(g) + 1]; ++t)
          plan.acc[static_cast<std::size_t>(
              plan.gprow_col[static_cast<std::size_t>(t)])] +=
              av * plan.gprow_val[static_cast<std::size_t>(t)];
      }
      for (std::int64_t k = plan.ap_ptr[static_cast<std::size_t>(i)];
           k < plan.ap_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
        const std::size_t c = static_cast<std::size_t>(
            plan.ap_col[static_cast<std::size_t>(k)]);
        plan.ap_val[static_cast<std::size_t>(k)] = plan.acc[c];
        plan.acc[c] = 0.0;
      }
    }
  }

  // Coarse rows: dense-scatter w * (A P)-rows per coarse row, emitting
  // locally-merged triplets (this, not the scan removal, is what makes
  // setup linear: duplicates are merged before any routing/sorting).
  std::vector<la::Triplet> trip;
  std::fill(mark.begin(), mark.end(), -1);
  plan.lr_ptr.assign(static_cast<std::size_t>(nc_own) + 1, 0);
  plan.lr_ccol.clear();
  for (std::int64_t kc = 0; kc < nc_own; ++kc) {
    const std::size_t start = plan.lr_ccol.size();
    for (std::int64_t t = plan.pt_ptr[static_cast<std::size_t>(kc)];
         t < plan.pt_ptr[static_cast<std::size_t>(kc) + 1]; ++t) {
      const std::int64_t i = plan.pt_row[static_cast<std::size_t>(t)];
      const double w = plan.pt_w[static_cast<std::size_t>(t)];
      for (std::int64_t k = plan.ap_ptr[static_cast<std::size_t>(i)];
           k < plan.ap_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
        const std::int32_t c = plan.ap_col[static_cast<std::size_t>(k)];
        if (mark[static_cast<std::size_t>(c)] != kc) {
          mark[static_cast<std::size_t>(c)] = kc;
          plan.lr_ccol.push_back(c);
        }
        plan.acc[static_cast<std::size_t>(c)] +=
            w * plan.ap_val[static_cast<std::size_t>(k)];
      }
    }
    for (std::size_t e = start; e < plan.lr_ccol.size(); ++e) {
      const std::size_t c = static_cast<std::size_t>(plan.lr_ccol[e]);
      trip.push_back({coarse_lo + kc, cc[c], plan.acc[c]});
      plan.acc[c] = 0.0;
    }
    plan.lr_ptr[static_cast<std::size_t>(kc) + 1] =
        static_cast<std::int64_t>(plan.lr_ccol.size());
  }
  // Remote contributions: rows of A_c owned elsewhere. The pattern is
  // streamed once ([row gid, len, col gids...] per destination); numeric
  // refreshes resend values only, in this exact order.
  std::vector<std::vector<std::int64_t>> sym_out(
      static_cast<std::size_t>(comm.size()));
  plan.rc_ptr.assign(ngc + 1, 0);
  plan.rc_ccol.clear();
  for (std::size_t g = 0; g < ngc; ++g) {
    const std::int64_t stamp = nc_own + static_cast<std::int64_t>(g);
    const std::size_t start = plan.rc_ccol.size();
    for (std::int64_t t = plan.gpt_ptr[g]; t < plan.gpt_ptr[g + 1]; ++t) {
      const std::int64_t i = plan.gpt_row[static_cast<std::size_t>(t)];
      const double w = plan.gpt_w[static_cast<std::size_t>(t)];
      for (std::int64_t k = plan.ap_ptr[static_cast<std::size_t>(i)];
           k < plan.ap_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
        const std::int32_t c = plan.ap_col[static_cast<std::size_t>(k)];
        if (mark[static_cast<std::size_t>(c)] != stamp) {
          mark[static_cast<std::size_t>(c)] = stamp;
          plan.rc_ccol.push_back(c);
        }
        plan.acc[static_cast<std::size_t>(c)] +=
            w * plan.ap_val[static_cast<std::size_t>(k)];
      }
    }
    const std::int64_t gc = p.ghost_gids()[g];
    auto& sym = sym_out[static_cast<std::size_t>(plan.rc_dest[g])];
    sym.push_back(gc);
    sym.push_back(static_cast<std::int64_t>(plan.rc_ccol.size() - start));
    for (std::size_t e = start; e < plan.rc_ccol.size(); ++e) {
      const std::size_t c = static_cast<std::size_t>(plan.rc_ccol[e]);
      trip.push_back({gc, cc[c], plan.acc[c]});
      sym.push_back(cc[c]);
      plan.acc[c] = 0.0;
    }
    plan.rc_ptr[g + 1] = static_cast<std::int64_t>(plan.rc_ccol.size());
  }

  ac = la::DistCsr::from_triplets(comm, coarse_offsets, coarse_offsets,
                                  std::move(trip));

  // Resolve the incoming remote patterns to value-array positions so
  // numeric refreshes can scatter-add a bare value stream.
  const std::vector<std::vector<std::int64_t>> sym_in = comm.alltoallv(sym_out);
  plan.recv_pos.assign(static_cast<std::size_t>(comm.size()), {});
  for (int src = 0; src < comm.size(); ++src) {
    const auto& sym = sym_in[static_cast<std::size_t>(src)];
    auto& pos = plan.recv_pos[static_cast<std::size_t>(src)];
    for (std::size_t idx = 0; idx < sym.size();) {
      const std::int64_t kr = sym[idx++] - coarse_lo;
      const std::int64_t len = sym[idx++];
      for (std::int64_t e = 0; e < len; ++e)
        pos.push_back(ac_position(ac, kr, sym[idx++]));
    }
  }
  plan.lr_pos.resize(plan.lr_ccol.size());
  for (std::int64_t kc = 0; kc < nc_own; ++kc)
    for (std::int64_t e = plan.lr_ptr[static_cast<std::size_t>(kc)];
         e < plan.lr_ptr[static_cast<std::size_t>(kc) + 1]; ++e)
      plan.lr_pos[static_cast<std::size_t>(e)] = ac_position(
          ac, kc,
          cc[static_cast<std::size_t>(plan.lr_ccol[static_cast<std::size_t>(e)])]);

  // Overwrite the from_triplets values through the numeric pass so a
  // fresh setup and a later refresh_numeric with identical input values
  // produce bit-identical coarse operators.
  rap_numeric(comm, a, plan, ac);
}

void DistAmg::rap_numeric(par::Comm& comm, const la::DistCsr& a,
                          RapPlan& plan, la::DistCsr& ac) const {
  OBS_SPAN("amg.rap_numeric");
  const std::int64_t n = a.owned_rows();
  const la::Csr& D = a.diag();
  const la::Csr& O = a.offd();

  // Stage 1: values of A P over the cached pattern.
  if (plan.acc.size() != plan.ccol_gids.size())
    plan.acc.assign(plan.ccol_gids.size(), 0.0);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t k = D.rowptr()[static_cast<std::size_t>(i)];
         k < D.rowptr()[static_cast<std::size_t>(i) + 1]; ++k) {
      const std::int64_t j = D.colidx()[static_cast<std::size_t>(k)];
      const double av = D.values()[static_cast<std::size_t>(k)];
      for (std::int64_t t = plan.prow_ptr[static_cast<std::size_t>(j)];
           t < plan.prow_ptr[static_cast<std::size_t>(j) + 1]; ++t)
        plan.acc[static_cast<std::size_t>(
            plan.prow_col[static_cast<std::size_t>(t)])] +=
            av * plan.prow_val[static_cast<std::size_t>(t)];
    }
    for (std::int64_t k = O.rowptr()[static_cast<std::size_t>(i)];
         k < O.rowptr()[static_cast<std::size_t>(i) + 1]; ++k) {
      const std::int64_t g = O.colidx()[static_cast<std::size_t>(k)];
      const double av = O.values()[static_cast<std::size_t>(k)];
      for (std::int64_t t = plan.gprow_ptr[static_cast<std::size_t>(g)];
           t < plan.gprow_ptr[static_cast<std::size_t>(g) + 1]; ++t)
        plan.acc[static_cast<std::size_t>(
            plan.gprow_col[static_cast<std::size_t>(t)])] +=
            av * plan.gprow_val[static_cast<std::size_t>(t)];
    }
    for (std::int64_t k = plan.ap_ptr[static_cast<std::size_t>(i)];
         k < plan.ap_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const std::size_t c =
          static_cast<std::size_t>(plan.ap_col[static_cast<std::size_t>(k)]);
      plan.ap_val[static_cast<std::size_t>(k)] = plan.acc[c];
      plan.acc[c] = 0.0;
    }
  }

  // Stage 2: accumulate P^T (A P) into the preallocated coarse CSR.
  std::vector<double>& dv = ac.diag_values();
  std::vector<double>& ov = ac.offd_values();
  std::fill(dv.begin(), dv.end(), 0.0);
  std::fill(ov.begin(), ov.end(), 0.0);
  const auto write = [&dv, &ov](std::int64_t pos, double v) {
    if (pos >= 0)
      dv[static_cast<std::size_t>(pos)] += v;
    else
      ov[static_cast<std::size_t>(-pos - 1)] += v;
  };
  const std::int64_t nc_own = static_cast<std::int64_t>(plan.lr_ptr.size()) - 1;
  for (std::int64_t kc = 0; kc < nc_own; ++kc) {
    for (std::int64_t t = plan.pt_ptr[static_cast<std::size_t>(kc)];
         t < plan.pt_ptr[static_cast<std::size_t>(kc) + 1]; ++t) {
      const std::int64_t i = plan.pt_row[static_cast<std::size_t>(t)];
      const double w = plan.pt_w[static_cast<std::size_t>(t)];
      for (std::int64_t k = plan.ap_ptr[static_cast<std::size_t>(i)];
           k < plan.ap_ptr[static_cast<std::size_t>(i) + 1]; ++k)
        plan.acc[static_cast<std::size_t>(
            plan.ap_col[static_cast<std::size_t>(k)])] +=
            w * plan.ap_val[static_cast<std::size_t>(k)];
    }
    for (std::int64_t e = plan.lr_ptr[static_cast<std::size_t>(kc)];
         e < plan.lr_ptr[static_cast<std::size_t>(kc) + 1]; ++e) {
      const std::size_t c = static_cast<std::size_t>(
          plan.lr_ccol[static_cast<std::size_t>(e)]);
      write(plan.lr_pos[static_cast<std::size_t>(e)], plan.acc[c]);
      plan.acc[c] = 0.0;
    }
  }

  // Stage 3: remote rows — pack values in the cached pattern order and
  // route with a single value-only alltoallv, then scatter-add through
  // the cached receive positions.
  std::vector<std::vector<double>> val_out(
      static_cast<std::size_t>(comm.size()));
  const std::size_t ngc = plan.rc_ptr.empty() ? 0 : plan.rc_ptr.size() - 1;
  for (std::size_t g = 0; g < ngc; ++g) {
    for (std::int64_t t = plan.gpt_ptr[g]; t < plan.gpt_ptr[g + 1]; ++t) {
      const std::int64_t i = plan.gpt_row[static_cast<std::size_t>(t)];
      const double w = plan.gpt_w[static_cast<std::size_t>(t)];
      for (std::int64_t k = plan.ap_ptr[static_cast<std::size_t>(i)];
           k < plan.ap_ptr[static_cast<std::size_t>(i) + 1]; ++k)
        plan.acc[static_cast<std::size_t>(
            plan.ap_col[static_cast<std::size_t>(k)])] +=
            w * plan.ap_val[static_cast<std::size_t>(k)];
    }
    auto& vals = val_out[static_cast<std::size_t>(plan.rc_dest[g])];
    for (std::int64_t e = plan.rc_ptr[g]; e < plan.rc_ptr[g + 1]; ++e) {
      const std::size_t c = static_cast<std::size_t>(
          plan.rc_ccol[static_cast<std::size_t>(e)]);
      vals.push_back(plan.acc[c]);
      plan.acc[c] = 0.0;
    }
  }
  const std::vector<std::vector<double>> val_in = comm.alltoallv(val_out);
  for (int src = 0; src < comm.size(); ++src) {
    const auto& vals = val_in[static_cast<std::size_t>(src)];
    const auto& pos = plan.recv_pos[static_cast<std::size_t>(src)];
    if (vals.size() != pos.size())
      throw std::logic_error("DistAmg: remote RAP stream length mismatch");
    for (std::size_t e = 0; e < vals.size(); ++e) write(pos[e], vals[e]);
  }
}

void DistAmg::finalize_values(par::Comm& comm) {
  coarse_a_ = coarse_dist_.replicate(comm);
  coarse_ = std::make_unique<la::DenseLu>(coarse_a_);
  coarse_b_.resize(static_cast<std::size_t>(coarse_a_.rows()));
  coarse_x_.resize(static_cast<std::size_t>(coarse_a_.rows()));
  if (opt_.smoother == Smoother::kChebyshev) {
    for (Level& L : levels_) {
      L.diag = L.a.diagonal();
      const double rho =
          estimate_rho_dist(comm, L.a, L.diag, opt_.cheby_power_its);
      L.eig_min = opt_.cheby_lower * rho;
      L.eig_max = opt_.cheby_upper * rho;
    }
  }
}

void DistAmg::refresh_numeric(par::Comm& comm, la::DistCsr a) {
  OBS_SPAN("amg.dist_refresh");
  la::DistCsr& fine = levels_.empty() ? coarse_dist_ : levels_.front().a;
  if (a.owned_rows() != fine.owned_rows() ||
      a.diag().nnz() != fine.diag().nnz() ||
      a.offd().nnz() != fine.offd().nnz() ||
      a.ghost_gids().size() != fine.ghost_gids().size())
    throw std::logic_error(
        "DistAmg::refresh_numeric: sparsity structure differs from setup");
  fine = std::move(a);
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    la::DistCsr& next =
        l + 1 < levels_.size() ? levels_[l + 1].a : coarse_dist_;
    rap_numeric(comm, levels_[l].a, levels_[l].rap, next);
  }
  finalize_values(comm);
}

// ---- solve ----------------------------------------------------------------

const la::DistCsr& DistAmg::matrix(int lvl) const {
  return lvl < static_cast<int>(levels_.size())
             ? levels_[static_cast<std::size_t>(lvl)].a
             : coarse_dist_;
}

void DistAmg::hybrid_gauss_seidel(par::Comm& comm, const Level& L,
                                  std::span<const double> b,
                                  std::span<double> x, bool forward) const {
  // Gauss-Seidel on the owned-column block; ghost contributions are
  // frozen at the sweep-start halo values (Jacobi across ranks).
  L.a.plan().forward<double>(comm, x, L.ghost);
  const la::Csr& D = L.a.diag();
  const la::Csr& O = L.a.offd();
  const std::int64_t nrows = D.rows();
  const auto update = [&](std::int64_t r) {
    double s = b[static_cast<std::size_t>(r)];
    double d = 1.0;
    for (std::int64_t k = D.rowptr()[static_cast<std::size_t>(r)];
         k < D.rowptr()[static_cast<std::size_t>(r) + 1]; ++k) {
      const std::int64_t c = D.colidx()[static_cast<std::size_t>(k)];
      if (c == r)
        d = D.values()[static_cast<std::size_t>(k)];
      else
        s -= D.values()[static_cast<std::size_t>(k)] * x[static_cast<std::size_t>(c)];
    }
    for (std::int64_t k = O.rowptr()[static_cast<std::size_t>(r)];
         k < O.rowptr()[static_cast<std::size_t>(r) + 1]; ++k)
      s -= O.values()[static_cast<std::size_t>(k)] *
           L.ghost[static_cast<std::size_t>(
               O.colidx()[static_cast<std::size_t>(k)])];
    if (d != 0.0) x[static_cast<std::size_t>(r)] = s / d;
  };
  if (forward)
    for (std::int64_t r = 0; r < nrows; ++r) update(r);
  else
    for (std::int64_t r = nrows - 1; r >= 0; --r) update(r);
}

void DistAmg::chebyshev_smooth(par::Comm& comm, const Level& L,
                               std::span<const double> b,
                               std::span<double> x) const {
  // Chebyshev polynomial in D^{-1}A over [eig_min, eig_max]: the only
  // communication is the ghost-exchange matvec, so the result has no
  // rank-order dependence (unlike hybrid GS) and stays symmetric — safe
  // for the SPD preconditioner MINRES requires.
  const std::size_t n = static_cast<std::size_t>(L.a.owned_rows());
  const double theta = 0.5 * (L.eig_max + L.eig_min);
  const double delta = 0.5 * (L.eig_max - L.eig_min);
  if (theta <= 0.0 || delta <= 0.0 || opt_.cheby_degree < 1) return;
  L.ch_r.resize(n);
  L.ch_d.resize(n);
  L.ch_t.resize(n);
  L.a.matvec(comm, x, L.ch_r);
  for (std::size_t i = 0; i < n; ++i) L.ch_r[i] = b[i] - L.ch_r[i];
  const double sigma = theta / delta;
  double rho_prev = 1.0 / sigma;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = L.diag[i];
    L.ch_d[i] = (d != 0.0 ? L.ch_r[i] / d : L.ch_r[i]) / theta;
  }
  for (int k = 1; k <= opt_.cheby_degree; ++k) {
    for (std::size_t i = 0; i < n; ++i) x[i] += L.ch_d[i];
    if (k == opt_.cheby_degree) break;
    L.a.matvec(comm, L.ch_d, L.ch_t);
    for (std::size_t i = 0; i < n; ++i) L.ch_r[i] -= L.ch_t[i];
    const double rho = 1.0 / (2.0 * sigma - rho_prev);
    for (std::size_t i = 0; i < n; ++i) {
      const double d = L.diag[i];
      L.ch_d[i] = rho * rho_prev * L.ch_d[i] +
                  2.0 * rho / delta * (d != 0.0 ? L.ch_r[i] / d : L.ch_r[i]);
    }
    rho_prev = rho;
  }
}

void DistAmg::cycle(par::Comm& comm, std::size_t lvl,
                    std::span<const double> b, std::span<double> x) const {
  if (lvl == levels_.size()) {
    // Replicated coarsest level: gather the rank-contiguous owned slices
    // (O(coarse_size), constant in N and P) and solve with dense LU.
    const std::vector<double> owned(
        b.begin(),
        b.begin() + static_cast<std::ptrdiff_t>(coarse_dist_.owned_rows()));
    coarse_b_ = comm.allgatherv(owned);
    coarse_->solve(coarse_b_, coarse_x_);
    for (std::int64_t i = 0; i < coarse_dist_.owned_rows(); ++i)
      x[static_cast<std::size_t>(i)] =
          coarse_x_[static_cast<std::size_t>(coarse_dist_.row_begin() + i)];
    return;
  }
  const Level& L = levels_[lvl];
  const auto smooth = [&](bool forward) {
    if (opt_.smoother == Smoother::kChebyshev)
      chebyshev_smooth(comm, L, b, x);
    else
      hybrid_gauss_seidel(comm, L, b, x, forward);
  };
  for (int s = 0; s < opt_.pre_smooth; ++s) smooth(/*forward=*/true);
  // Residual, restriction, coarse correction.
  L.a.matvec(comm, x, L.res);
  for (std::size_t i = 0; i < L.res.size(); ++i) L.res[i] = b[i] - L.res[i];
  L.p.matvec_transpose(comm, L.res, L.bc);
  std::fill(L.xc.begin(), L.xc.end(), 0.0);
  cycle(comm, lvl + 1, L.bc, L.xc);
  // Prolongate (reusing the residual buffer) and correct.
  L.p.matvec(comm, L.xc, L.res);
  for (std::size_t i = 0; i < L.res.size(); ++i) x[i] += L.res[i];
  for (int s = 0; s < opt_.post_smooth; ++s) smooth(/*forward=*/false);
}

void DistAmg::vcycle(par::Comm& comm, std::span<const double> b,
                     std::span<double> x) const {
  OBS_SPAN("amg.vcycle");
  OBS_HIST_SPAN("amg.vcycle");
  obs::counter_add(obs::wellknown::amg_vcycles(), 1);
  cycle(comm, 0, b, x);
}

void DistAmg::solve(par::Comm& comm, std::span<const double> b,
                    std::span<double> x, int cycles) const {
  for (int c = 0; c < cycles; ++c) vcycle(comm, b, x);
}

std::int64_t DistAmg::local_nnz() const {
  std::int64_t total = coarse_a_.nnz();  // replicated coarsest copy
  for (std::int64_t nnz : local_nnz_per_level_) total += nnz;
  return total;
}

double DistAmg::operator_complexity() const {
  double total = 0.0;
  for (const LevelStats& s : stats_) total += static_cast<double>(s.nnz);
  return total / static_cast<double>(stats_.front().nnz);
}

double DistAmg::grid_complexity() const {
  double total = 0.0;
  for (const LevelStats& s : stats_) total += static_cast<double>(s.n);
  return total / static_cast<double>(stats_.front().n);
}

}  // namespace alps::amg
