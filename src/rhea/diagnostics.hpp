#pragma once
// Per-timestep physics diagnostics (paper Fig. 6): the scalar time series
// that tells whether a convection run is healthy — Nusselt number, RMS
// velocity, temperature extrema. Computed with the same 2x2x2 Gauss
// quadrature as assembly so the volume averages are consistent with the
// discretization. Collective (one allreduce) and one sweep over the
// elements' nodal values; the element geometry enters only through the
// per-element quadrature weights, which a caller can keep per mesh.

#include <array>
#include <span>

#include "fem/hex8.hpp"
#include "forest/connectivity.hpp"
#include "mesh/mesh.hpp"
#include "par/comm.hpp"

namespace alps::rhea {

struct PhysicsDiagnostics {
  /// Nu = 1 + <u_z T> / kappa, the classical volume-averaged advective
  /// heat-transport measure for the unit Rayleigh-Benard cell (1 when
  /// kappa <= 0 or the flow is at rest).
  double nusselt = 1.0;
  double v_rms = 0.0;   // sqrt(<|u|^2>), volume-averaged
  double t_min = 0.0;   // over owned dofs
  double t_max = 0.0;
  double t_mean = 0.0;  // volume-averaged
};

/// Compute the diagnostics for nodal temperature (n_local) and 4-component
/// velocity+pressure solution (4 * n_local). `jxw` holds the quadrature
/// weights of every element of `m` (fem::element_quad_weights). Collective.
PhysicsDiagnostics compute_physics_diagnostics(
    par::Comm& comm, const mesh::Mesh& m,
    std::span<const std::array<double, fem::kQuad>> jxw,
    std::span<const double> temperature, std::span<const double> solution,
    double kappa);

/// As above, mapping the element geometry of `m` on the fly.
PhysicsDiagnostics compute_physics_diagnostics(
    par::Comm& comm, const mesh::Mesh& m, const forest::Connectivity& conn,
    std::span<const double> temperature, std::span<const double> solution,
    double kappa);

}  // namespace alps::rhea
