#include <cmath>
#include <initializer_list>
#include <vector>

#include "la/krylov.hpp"
#include "obs/histogram.hpp"
#include "obs/obs.hpp"

namespace alps::la {

SolveResult cg(const LinOp& op, std::span<const double> b,
               std::span<double> x, const LinOp& precond,
               const MultiDotFn& dots, const KrylovOptions& opt) {
  OBS_SPAN("la.cg");
  OBS_HIST_SPAN("la.cg");
  const std::size_t n = x.size();
  std::vector<double> r(n), z(n), p(n), ap(n);
  std::uint64_t syncs = 0;
  // One global synchronization round for all of `pairs`.
  const auto reduce = [&](std::initializer_list<DotPair> pairs,
                          std::span<double> out) {
    dots(std::span<const DotPair>(pairs.begin(), pairs.size()), out);
    ++syncs;
  };
  SolveResult res;
  detail::ConvergenceMonitor mon(opt, res);
  const auto done = [&] {
    mon.finish();
    obs::counter_add(obs::wellknown::cg_iterations(),
                     static_cast<std::uint64_t>(res.iterations));
    obs::counter_add(obs::wellknown::cg_syncs(), syncs);
    return res;
  };

  op(x, ap);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];
  // <r,r> (initial residual), <r,z> (first beta denominator) and <b,b>
  // (the stopping norm) fuse into the single startup reduction.
  precond(r, z);
  double start[3] = {0.0, 0.0, 0.0};
  reduce({{r, r}, {r, z}, {b, b}}, start);
  if (!std::isfinite(start[0]) || !std::isfinite(start[2])) {
    res.status = SolveStatus::kNonFinite;
    return done();
  }
  const double rnorm0 = std::sqrt(std::max(0.0, start[0]));
  double rz = start[1];
  // A zero right-hand side has no scale of its own; measure against the
  // initial residual instead.
  const double bnorm = start[2] > 0.0 ? std::sqrt(start[2]) : rnorm0;
  if (rnorm0 == 0.0 || rnorm0 / bnorm < opt.rtol) {
    res.status = SolveStatus::kConverged;
    res.relative_residual = rnorm0 == 0.0 ? 0.0 : rnorm0 / bnorm;
    return done();
  }
  std::copy(z.begin(), z.end(), p.begin());

  for (int j = 1; j <= opt.max_iterations; ++j) {
    op(p, ap);
    double pap = 0.0;
    reduce({{p, ap}}, std::span<double>(&pap, 1));  // sync 1 of the iteration
    if (!std::isfinite(pap)) {
      res.status = SolveStatus::kNonFinite;
      break;
    }
    if (pap <= 0.0) {  // loss of positive definiteness
      res.status = SolveStatus::kDiverged;
      break;
    }
    const double alpha = rz / pap;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    // Apply the preconditioner before the convergence test so <r,r> and
    // <r,z> share one reduction: sync 2 of the iteration. On the final
    // (converging) iteration this spends one preconditioner application
    // whose z is discarded — the price of dropping the third allreduce.
    precond(r, z);
    double rr_rz[2] = {0.0, 0.0};
    reduce({{r, r}, {r, z}}, rr_rz);
    const double rr = rr_rz[0], rz_new = rr_rz[1];
    const double relres =
        std::isfinite(rr) ? std::sqrt(std::max(0.0, rr)) / bnorm : rr;
    if (!mon.update(j, relres)) break;
    const double beta = rz_new / rz;
    rz = rz_new;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  return done();
}

}  // namespace alps::la
