#pragma once
// The small prescribed-velocity transport run shared by the obs tests:
// 64 elements, no adaptation, no Stokes solve.

#include <array>

#include "rhea/simulation.hpp"

namespace alps::test_util {

inline rhea::SimConfig transport_config() {
  rhea::SimConfig cfg;
  cfg.init_level = 2;
  cfg.min_level = 1;
  cfg.max_level = 3;
  cfg.initial_adapt_rounds = 0;
  cfg.adapt_every = 0;
  cfg.energy.kappa = 1e-6;
  cfg.energy.dirichlet_faces = 0b111111;
  cfg.prescribed_velocity = [](const std::array<double, 3>&, double) {
    return std::array<double, 3>{1.0, 0.0, 0.0};
  };
  return cfg;
}

inline double parabola(const std::array<double, 3>& p) {
  return p[0] * (1.0 - p[0]);
}

}  // namespace alps::test_util
