#include "fem/operators.hpp"

namespace alps::fem {

ElemGeom element_geometry(const mesh::Mesh& m, const forest::Connectivity& conn,
                          std::size_t e) {
  const auto xyz = m.element_corners_xyz(conn, static_cast<std::int64_t>(e));
  ElemGeom g;
  for (int i = 0; i < 8; ++i) g[static_cast<std::size_t>(i)] = xyz[static_cast<std::size_t>(i)];
  return g;
}

std::vector<std::array<double, kQuad>> element_quad_weights(
    const mesh::Mesh& m, const forest::Connectivity& conn) {
  std::vector<std::array<double, kQuad>> w(m.elements.size());
  for (std::size_t e = 0; e < w.size(); ++e)
    w[e] = quad_weights(element_geometry(m, conn, e));
  return w;
}

ElementOperator build_scalar_laplace(const mesh::Mesh& m,
                                     const forest::Connectivity& conn,
                                     const CoeffFn& eta,
                                     std::uint8_t dirichlet_faces) {
  ElementOperator op(&m, 1);
  for (std::size_t e = 0; e < m.elements.size(); ++e) {
    const ElemGeom g = element_geometry(m, conn, e);
    const MappedQuad mq = map_element(g);
    std::array<double, kQuad> eta_q;
    for (int q = 0; q < kQuad; ++q)
      eta_q[static_cast<std::size_t>(q)] = eta(mq.xq[static_cast<std::size_t>(q)]);
    const Mat8 k = stiffness(mq, eta_q);
    std::span<double> dst = op.element_matrix(e);
    for (int i = 0; i < 8; ++i)
      for (int j = 0; j < 8; ++j)
        dst[static_cast<std::size_t>(i) * 8 + static_cast<std::size_t>(j)] =
            k[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
  }
  for (std::int64_t d = 0; d < m.n_local; ++d)
    if (m.dof_boundary[static_cast<std::size_t>(d)] & dirichlet_faces)
      op.set_dirichlet(d, 0);
  return op;
}

ElementOperator build_mass(const mesh::Mesh& m,
                           const forest::Connectivity& conn) {
  ElementOperator op(&m, 1);
  for (std::size_t e = 0; e < m.elements.size(); ++e) {
    const MappedQuad mq = map_element(element_geometry(m, conn, e));
    const Mat8 mm = mass(mq);
    std::span<double> dst = op.element_matrix(e);
    for (int i = 0; i < 8; ++i)
      for (int j = 0; j < 8; ++j)
        dst[static_cast<std::size_t>(i) * 8 + static_cast<std::size_t>(j)] =
            mm[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
  }
  return op;
}

std::vector<double> build_lumped_mass(par::Comm& comm, const mesh::Mesh& m,
                                      const forest::Connectivity& conn) {
  std::vector<double> lm(static_cast<std::size_t>(m.n_local), 0.0);
  for (std::size_t e = 0; e < m.elements.size(); ++e) {
    const MappedQuad mq = map_element(element_geometry(m, conn, e));
    const std::array<double, 8> le = lumped_mass(mq);
    for (int i = 0; i < 8; ++i) {
      const mesh::Corner& cc = m.corners[e][static_cast<std::size_t>(i)];
      for (int k = 0; k < cc.n; ++k)
        lm[static_cast<std::size_t>(cc.dof[static_cast<std::size_t>(k)])] +=
            cc.w[static_cast<std::size_t>(k)] * le[static_cast<std::size_t>(i)];
    }
  }
  m.accumulate(comm, lm);
  m.exchange(comm, lm);
  return lm;
}

std::vector<double> interpolate(
    const mesh::Mesh& m,
    const std::function<double(const std::array<double, 3>&)>& f) {
  std::vector<double> v(static_cast<std::size_t>(m.n_local));
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = f(m.dof_coords[i]);
  return v;
}

}  // namespace alps::fem
