#include <cmath>
#include <initializer_list>
#include <vector>

#include "la/krylov.hpp"
#include "obs/histogram.hpp"
#include "obs/obs.hpp"

namespace alps::la {

SolveResult minres(const LinOp& op, std::span<const double> b,
                   std::span<double> x, const LinOp& precond,
                   const MultiDotFn& dots, const KrylovOptions& opt) {
  OBS_SPAN("la.minres");
  OBS_HIST_SPAN("la.minres");
  const std::size_t n = x.size();
  std::vector<double> v(n), v_old(n, 0.0), v_new(n), z(n), z_new(n);
  std::vector<double> w(n, 0.0), w_old(n, 0.0), w_new(n), az(n);
  std::uint64_t syncs = 0;
  // One global synchronization round for all of `pairs`.
  const auto reduce = [&](std::initializer_list<DotPair> pairs,
                          std::span<double> out) {
    dots(std::span<const DotPair>(pairs.begin(), pairs.size()), out);
    ++syncs;
  };
  // The Lanczos recurrence's two inner products sit on opposite sides of
  // the preconditioner application, so they cannot fuse; MINRES runs at
  // exactly 2 synchronization rounds per iteration (the residual estimate
  // comes from the Givens recurrence, not a third dot).
  const auto dot = [&](std::span<const double> a2, std::span<const double> b2) {
    double out = 0.0;
    reduce({{a2, b2}}, std::span<double>(&out, 1));
    return out;
  };
  SolveResult res;
  detail::ConvergenceMonitor mon(opt, res);
  const auto done = [&] {
    mon.finish();
    obs::counter_add(obs::wellknown::minres_iterations(),
                     static_cast<std::uint64_t>(res.iterations));
    obs::counter_add(obs::wellknown::minres_syncs(), syncs);
    return res;
  };

  // v1 = b - A x0, z1 = M v1. The stopping norm ||b||_M = sqrt(<M b, b>)
  // takes one more preconditioner application (into z_new, free until the
  // first iteration) and rides in the startup reduction with <z1, v1>.
  op(x, az);
  for (std::size_t i = 0; i < n; ++i) v[i] = b[i] - az[i];
  precond(v, z);
  precond(b, z_new);
  double start[2] = {0.0, 0.0};
  reduce({{z, v}, {z_new, b}}, start);
  if (!std::isfinite(start[0]) || !std::isfinite(start[1])) {
    res.status = SolveStatus::kNonFinite;
    return done();
  }
  double gamma = std::sqrt(std::max(0.0, start[0]));
  // A zero right-hand side has no scale of its own; measure against the
  // initial residual instead.
  const double bnorm = start[1] > 0.0 ? std::sqrt(start[1]) : gamma;
  if (gamma == 0.0 || gamma / bnorm < opt.rtol) {
    res.status = SolveStatus::kConverged;
    res.relative_residual = gamma == 0.0 ? 0.0 : gamma / bnorm;
    return done();
  }

  double gamma_old = 1.0, eta = gamma;
  double s_prev = 0.0, s_cur = 0.0, c_prev = 1.0, c_cur = 1.0;

  for (int j = 1; j <= opt.max_iterations; ++j) {
    for (std::size_t i = 0; i < n; ++i) z[i] /= gamma;
    op(z, az);
    const double delta = dot(az, z);
    for (std::size_t i = 0; i < n; ++i)
      v_new[i] = az[i] - (delta / gamma) * v[i] - (gamma / gamma_old) * v_old[i];
    precond(v_new, z_new);
    const double zv = dot(z_new, v_new);
    if (!std::isfinite(zv)) {
      res.iterations = j;
      res.status = SolveStatus::kNonFinite;
      break;
    }
    const double gamma_new = std::sqrt(std::max(0.0, zv));

    const double alpha0 = c_cur * delta - c_prev * s_cur * gamma;
    const double alpha1 = std::sqrt(alpha0 * alpha0 + gamma_new * gamma_new);
    const double alpha2 = s_cur * delta + c_prev * c_cur * gamma;
    const double alpha3 = s_prev * gamma;
    if (alpha1 == 0.0) {  // Lanczos breakdown
      res.iterations = j;
      res.status = SolveStatus::kDiverged;
      break;
    }
    if (!std::isfinite(alpha1)) {
      res.iterations = j;
      res.status = SolveStatus::kNonFinite;
      break;
    }

    c_prev = c_cur;
    s_prev = s_cur;
    c_cur = alpha0 / alpha1;
    s_cur = gamma_new / alpha1;

    for (std::size_t i = 0; i < n; ++i)
      w_new[i] = (z[i] - alpha3 * w_old[i] - alpha2 * w[i]) / alpha1;
    for (std::size_t i = 0; i < n; ++i) x[i] += c_cur * eta * w_new[i];
    eta = -s_cur * eta;

    std::swap(v_old, v);
    std::swap(v, v_new);
    std::swap(w_old, w);
    std::swap(w, w_new);
    std::swap(z, z_new);
    gamma_old = gamma;
    gamma = gamma_new;

    if (!mon.update(j, std::abs(eta) / bnorm)) break;
    if (gamma == 0.0) {  // exact solution reached
      res.status = SolveStatus::kConverged;
      res.relative_residual = 0.0;
      break;
    }
  }
  return done();
}

}  // namespace alps::la
