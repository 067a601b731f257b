#include "fem/hex8.hpp"

#include <cassert>
#include <cmath>

namespace alps::fem {

namespace {

// Reference coordinates of node i in [0,1]^3 (z-order).
constexpr double node_ref(int i, int d) { return (i >> d) & 1 ? 1.0 : 0.0; }

struct QuadTables {
  std::array<std::array<double, 8>, kQuad> n;        // N[q][i]
  std::array<std::array<Vec3, 8>, kQuad> dn_ref;     // ref gradients
  std::array<Vec3, kQuad> xi;                        // quad point coords
  std::array<double, kQuad> w;

  QuadTables() {
    const double a = 0.5 - 0.5 / std::sqrt(3.0);
    const double b = 0.5 + 0.5 / std::sqrt(3.0);
    const double g[2] = {a, b};
    for (int q = 0; q < kQuad; ++q) {
      const Vec3 x = {g[q & 1], g[(q >> 1) & 1], g[(q >> 2) & 1]};
      xi[static_cast<std::size_t>(q)] = x;
      w[static_cast<std::size_t>(q)] = 1.0 / 8.0;
      for (int i = 0; i < 8; ++i) {
        double val = 1.0;
        Vec3 grad = {1.0, 1.0, 1.0};
        for (int d = 0; d < 3; ++d) {
          const double r = node_ref(i, d);
          const double f = r * x[static_cast<std::size_t>(d)] +
                           (1.0 - r) * (1.0 - x[static_cast<std::size_t>(d)]);
          const double df = r * 1.0 + (1.0 - r) * -1.0;
          val *= f;
          for (int e = 0; e < 3; ++e)
            grad[static_cast<std::size_t>(e)] *= (e == d) ? df : f;
        }
        n[static_cast<std::size_t>(q)][static_cast<std::size_t>(i)] = val;
        dn_ref[static_cast<std::size_t>(q)][static_cast<std::size_t>(i)] = grad;
      }
    }
  }
};

const QuadTables& tables() {
  static const QuadTables t;
  return t;
}

/// Jacobian J_de = d x_d / d xi_e at quadrature point q, and its
/// determinant. map_element and quad_weights share this one summation
/// order and determinant expression, so their |J| values are bit-identical.
double jacobian(const ElemGeom& geom, const QuadTables& t, int q,
                double (&j)[3][3]) {
  for (auto& row : j)
    for (double& v : row) v = 0.0;
  for (int i = 0; i < 8; ++i)
    for (int d = 0; d < 3; ++d)
      for (int e = 0; e < 3; ++e)
        j[d][e] += geom[static_cast<std::size_t>(i)][static_cast<std::size_t>(d)] *
                   t.dn_ref[static_cast<std::size_t>(q)]
                           [static_cast<std::size_t>(i)]
                           [static_cast<std::size_t>(e)];
  const double det = j[0][0] * (j[1][1] * j[2][2] - j[1][2] * j[2][1]) -
                     j[0][1] * (j[1][0] * j[2][2] - j[1][2] * j[2][0]) +
                     j[0][2] * (j[1][0] * j[2][1] - j[1][1] * j[2][0]);
  assert(det > 0.0);
  return det;
}

}  // namespace

const std::array<std::array<double, 8>, kQuad>& shape_values() {
  return tables().n;
}

MappedQuad map_element(const ElemGeom& geom) {
  const QuadTables& t = tables();
  MappedQuad mq;
  for (int q = 0; q < kQuad; ++q) {
    double j[3][3];
    const double det = jacobian(geom, t, q, j);
    // Inverse transpose of J.
    double inv[3][3];
    inv[0][0] = (j[1][1] * j[2][2] - j[1][2] * j[2][1]) / det;
    inv[0][1] = (j[0][2] * j[2][1] - j[0][1] * j[2][2]) / det;
    inv[0][2] = (j[0][1] * j[1][2] - j[0][2] * j[1][1]) / det;
    inv[1][0] = (j[1][2] * j[2][0] - j[1][0] * j[2][2]) / det;
    inv[1][1] = (j[0][0] * j[2][2] - j[0][2] * j[2][0]) / det;
    inv[1][2] = (j[0][2] * j[1][0] - j[0][0] * j[1][2]) / det;
    inv[2][0] = (j[1][0] * j[2][1] - j[1][1] * j[2][0]) / det;
    inv[2][1] = (j[0][1] * j[2][0] - j[0][0] * j[2][1]) / det;
    inv[2][2] = (j[0][0] * j[1][1] - j[0][1] * j[1][0]) / det;
    for (int i = 0; i < 8; ++i) {
      Vec3 g = {};
      for (int d = 0; d < 3; ++d)
        for (int e = 0; e < 3; ++e)
          g[static_cast<std::size_t>(d)] +=
              inv[e][d] * t.dn_ref[static_cast<std::size_t>(q)]
                                  [static_cast<std::size_t>(i)]
                                  [static_cast<std::size_t>(e)];
      mq.dn[static_cast<std::size_t>(q)][static_cast<std::size_t>(i)] = g;
    }
    mq.jxw[static_cast<std::size_t>(q)] = det * t.w[static_cast<std::size_t>(q)];
    Vec3 x = {};
    for (int i = 0; i < 8; ++i)
      for (int d = 0; d < 3; ++d)
        x[static_cast<std::size_t>(d)] +=
            t.n[static_cast<std::size_t>(q)][static_cast<std::size_t>(i)] *
            geom[static_cast<std::size_t>(i)][static_cast<std::size_t>(d)];
    mq.xq[static_cast<std::size_t>(q)] = x;
  }
  return mq;
}

std::array<double, kQuad> quad_weights(const ElemGeom& geom) {
  const QuadTables& t = tables();
  std::array<double, kQuad> jxw;
  for (int q = 0; q < kQuad; ++q) {
    double j[3][3];
    jxw[static_cast<std::size_t>(q)] =
        jacobian(geom, t, q, j) * t.w[static_cast<std::size_t>(q)];
  }
  return jxw;
}

double element_volume(const ElemGeom& geom) {
  double v = 0.0;
  for (double w : quad_weights(geom)) v += w;
  return v;
}

Mat8 stiffness(const MappedQuad& mq, std::span<const double, kQuad> eta_q) {
  Mat8 k{};
  for (int q = 0; q < kQuad; ++q) {
    const double c = eta_q[static_cast<std::size_t>(q)] *
                     mq.jxw[static_cast<std::size_t>(q)];
    for (int i = 0; i < 8; ++i)
      for (int j = 0; j < 8; ++j) {
        double dd = 0.0;
        for (int d = 0; d < 3; ++d)
          dd += mq.dn[static_cast<std::size_t>(q)][static_cast<std::size_t>(i)]
                     [static_cast<std::size_t>(d)] *
                mq.dn[static_cast<std::size_t>(q)][static_cast<std::size_t>(j)]
                     [static_cast<std::size_t>(d)];
        k[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] += c * dd;
      }
  }
  return k;
}

Mat8 mass(const MappedQuad& mq) {
  const auto& n = shape_values();
  Mat8 m{};
  for (int q = 0; q < kQuad; ++q) {
    const double c = mq.jxw[static_cast<std::size_t>(q)];
    for (int i = 0; i < 8; ++i)
      for (int j = 0; j < 8; ++j)
        m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] +=
            c * n[static_cast<std::size_t>(q)][static_cast<std::size_t>(i)] *
            n[static_cast<std::size_t>(q)][static_cast<std::size_t>(j)];
  }
  return m;
}

std::array<double, 8> lumped_mass(const MappedQuad& mq) {
  const Mat8 m = mass(mq);
  std::array<double, 8> l{};
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j)
      l[static_cast<std::size_t>(i)] +=
          m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
  return l;
}

std::array<std::array<double, 24>, 24> viscous_block(
    const MappedQuad& mq, std::span<const double, kQuad> eta_q) {
  std::array<std::array<double, 24>, 24> a{};
  for (int q = 0; q < kQuad; ++q) {
    const double c = 2.0 * eta_q[static_cast<std::size_t>(q)] *
                     mq.jxw[static_cast<std::size_t>(q)];
    const auto& dn = mq.dn[static_cast<std::size_t>(q)];
    // eps(u):eps(v) with u = phi_j e_c, v = phi_i e_d:
    //   0.5 (d_i,c d_j,d + delta_cd grad_i.grad_j) -- standard identity.
    for (int i = 0; i < 8; ++i)
      for (int j = 0; j < 8; ++j) {
        double gg = 0.0;
        for (int d = 0; d < 3; ++d)
          gg += dn[static_cast<std::size_t>(i)][static_cast<std::size_t>(d)] *
                dn[static_cast<std::size_t>(j)][static_cast<std::size_t>(d)];
        for (int ci = 0; ci < 3; ++ci)
          for (int cj = 0; cj < 3; ++cj) {
            double v = 0.5 * dn[static_cast<std::size_t>(i)]
                                [static_cast<std::size_t>(cj)] *
                       dn[static_cast<std::size_t>(j)]
                         [static_cast<std::size_t>(ci)];
            if (ci == cj) v += 0.5 * gg;
            a[static_cast<std::size_t>(3 * i + ci)]
             [static_cast<std::size_t>(3 * j + cj)] += c * v;
          }
      }
  }
  return a;
}

std::array<std::array<double, 24>, 8> divergence_block(const MappedQuad& mq) {
  const auto& n = shape_values();
  std::array<std::array<double, 24>, 8> b{};
  for (int q = 0; q < kQuad; ++q) {
    const double c = mq.jxw[static_cast<std::size_t>(q)];
    for (int i = 0; i < 8; ++i)
      for (int j = 0; j < 8; ++j)
        for (int d = 0; d < 3; ++d)
          b[static_cast<std::size_t>(i)][static_cast<std::size_t>(3 * j + d)] -=
              c * n[static_cast<std::size_t>(q)][static_cast<std::size_t>(i)] *
              mq.dn[static_cast<std::size_t>(q)][static_cast<std::size_t>(j)]
                   [static_cast<std::size_t>(d)];
  }
  return b;
}

Mat8 pressure_stabilization(const MappedQuad& mq, double eta_bar) {
  const Mat8 m = mass(mq);
  double vol = 0.0;
  for (double w : mq.jxw) vol += w;
  std::array<double, 8> rowsum{};
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j)
      rowsum[static_cast<std::size_t>(i)] +=
          m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
  Mat8 c{};
  const double s = 1.0 / eta_bar;
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j)
      c[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          s * (m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] -
               rowsum[static_cast<std::size_t>(i)] *
                   rowsum[static_cast<std::size_t>(j)] / vol);
  return c;
}

void advection_supg(const MappedQuad& mq,
                    const std::array<Vec3, 8>& vel_nodes, double kappa,
                    double tau, Mat8& advect, Mat8& supg_mass) {
  const auto& n = shape_values();
  advect = Mat8{};
  supg_mass = Mat8{};
  for (int q = 0; q < kQuad; ++q) {
    const double c = mq.jxw[static_cast<std::size_t>(q)];
    Vec3 u = {};
    for (int i = 0; i < 8; ++i)
      for (int d = 0; d < 3; ++d)
        u[static_cast<std::size_t>(d)] +=
            n[static_cast<std::size_t>(q)][static_cast<std::size_t>(i)] *
            vel_nodes[static_cast<std::size_t>(i)][static_cast<std::size_t>(d)];
    std::array<double, 8> ugrad{};
    for (int i = 0; i < 8; ++i)
      for (int d = 0; d < 3; ++d)
        ugrad[static_cast<std::size_t>(i)] +=
            u[static_cast<std::size_t>(d)] *
            mq.dn[static_cast<std::size_t>(q)][static_cast<std::size_t>(i)]
                 [static_cast<std::size_t>(d)];
    for (int i = 0; i < 8; ++i) {
      const double test = n[static_cast<std::size_t>(q)]
                           [static_cast<std::size_t>(i)] +
                          tau * ugrad[static_cast<std::size_t>(i)];
      for (int j = 0; j < 8; ++j) {
        double val = test * ugrad[static_cast<std::size_t>(j)];
        double diff = 0.0;
        for (int d = 0; d < 3; ++d)
          diff += mq.dn[static_cast<std::size_t>(q)][static_cast<std::size_t>(i)]
                       [static_cast<std::size_t>(d)] *
                  mq.dn[static_cast<std::size_t>(q)][static_cast<std::size_t>(j)]
                       [static_cast<std::size_t>(d)];
        advect[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] +=
            c * (val + kappa * diff);
        supg_mass[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] +=
            c * test *
            n[static_cast<std::size_t>(q)][static_cast<std::size_t>(j)];
      }
    }
  }
}

double supg_tau(double h, double speed, double kappa) {
  if (speed <= 1e-30) return 0.0;
  const double pe = speed * h / (2.0 * std::max(kappa, 1e-300));
  double zeta;
  if (pe < 1e-4)
    zeta = pe / 3.0;  // coth(x) - 1/x ~ x/3
  else if (pe > 30.0)
    zeta = 1.0 - 1.0 / pe;
  else
    zeta = 1.0 / std::tanh(pe) - 1.0 / pe;
  return h / (2.0 * speed) * zeta;
}

}  // namespace alps::fem
