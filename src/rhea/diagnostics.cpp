#include "rhea/diagnostics.hpp"

#include <array>
#include <cassert>
#include <cmath>
#include <limits>

#include "fem/operators.hpp"

namespace alps::rhea {

PhysicsDiagnostics compute_physics_diagnostics(
    par::Comm& comm, const mesh::Mesh& m,
    std::span<const std::array<double, fem::kQuad>> jxw,
    std::span<const double> temperature, std::span<const double> solution,
    double kappa) {
  assert(jxw.size() == m.elements.size());
  const auto& shapes = fem::shape_values();
  // One reduction carries everything: the local quadrature sums (volume,
  // u_z T, |u|^2, T; elements are owned leaves, never replicated across
  // ranks, so their sums are the global integrals) and the extrema over
  // owned dofs, as max(-tmin) and max(tmax).
  std::array<double, 6> red{};
  std::array<double, 8> te, ue[3];
  for (std::size_t e = 0; e < m.elements.size(); ++e) {
    // Gather nodal values through the hanging-node constraints.
    for (int i = 0; i < 8; ++i) {
      const mesh::Corner& cc = m.corners[e][static_cast<std::size_t>(i)];
      double t = 0.0;
      std::array<double, 3> u{};
      for (int k = 0; k < cc.n; ++k) {
        const std::size_t d =
            static_cast<std::size_t>(cc.dof[static_cast<std::size_t>(k)]);
        const double w = cc.w[static_cast<std::size_t>(k)];
        t += w * temperature[d];
        for (int c = 0; c < 3; ++c)
          u[static_cast<std::size_t>(c)] +=
              w * solution[4 * d + static_cast<std::size_t>(c)];
      }
      te[static_cast<std::size_t>(i)] = t;
      for (int c = 0; c < 3; ++c)
        ue[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)] =
            u[static_cast<std::size_t>(c)];
    }
    for (int q = 0; q < fem::kQuad; ++q) {
      double tq = 0.0;
      std::array<double, 3> uq{};
      for (int i = 0; i < 8; ++i) {
        const double n = shapes[static_cast<std::size_t>(q)]
                               [static_cast<std::size_t>(i)];
        tq += n * te[static_cast<std::size_t>(i)];
        for (int c = 0; c < 3; ++c)
          uq[static_cast<std::size_t>(c)] +=
              n * ue[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)];
      }
      const double w = jxw[e][static_cast<std::size_t>(q)];
      red[0] += w;
      red[1] += w * uq[2] * tq;
      red[2] += w * (uq[0] * uq[0] + uq[1] * uq[1] + uq[2] * uq[2]);
      red[3] += w * tq;
    }
  }
  double tmin = std::numeric_limits<double>::infinity();
  double tmax = -std::numeric_limits<double>::infinity();
  for (std::int64_t i = 0; i < m.n_owned; ++i) {
    const double t = temperature[static_cast<std::size_t>(i)];
    tmin = t < tmin ? t : tmin;
    tmax = t > tmax ? t : tmax;
  }
  // Negation is exact, so -max(-tmin) is bit-for-bit the min over ranks.
  red[4] = -tmin;
  red[5] = tmax;
  red = comm.allreduce(
      red, [](const std::array<double, 6>& a, const std::array<double, 6>& b) {
        std::array<double, 6> r;
        for (std::size_t i = 0; i < 4; ++i) r[i] = a[i] + b[i];
        for (std::size_t i = 4; i < r.size(); ++i)
          r[i] = a[i] > b[i] ? a[i] : b[i];
        return r;
      });

  PhysicsDiagnostics d;
  const double vol = red[0];
  if (vol > 0.0) {
    d.v_rms = std::sqrt(red[2] / vol);
    d.t_mean = red[3] / vol;
    if (kappa > 0.0) d.nusselt = 1.0 + red[1] / vol / kappa;
  }
  d.t_min = -red[4];
  d.t_max = red[5];
  if (!(d.t_min <= d.t_max)) d.t_min = d.t_max = 0.0;  // no owned dofs
  return d;
}

PhysicsDiagnostics compute_physics_diagnostics(
    par::Comm& comm, const mesh::Mesh& m, const forest::Connectivity& conn,
    std::span<const double> temperature, std::span<const double> solution,
    double kappa) {
  return compute_physics_diagnostics(comm, m,
                                     fem::element_quad_weights(m, conn),
                                     temperature, solution, kappa);
}

}  // namespace alps::rhea
