#pragma once
// Small adapted forests shared by the fem and rhea tests.

#include <utility>
#include <vector>

#include "forest/forest.hpp"
#include "par/comm.hpp"

namespace alps::test_util {

/// `conn`'s uniform forest at `level` with every leaf whose mapped center
/// has x < x_cut refined once, balanced and partitioned: hanging nodes
/// along the refinement interface.
inline forest::Forest half_refined(par::Comm& c, forest::Connectivity conn,
                                   int level, double x_cut) {
  forest::Forest f = forest::Forest::new_uniform(c, std::move(conn), level);
  std::vector<std::int8_t> flags(f.tree().leaves().size(), 0);
  for (std::size_t i = 0; i < flags.size(); ++i) {
    const octree::Octant& o = f.tree().leaves()[i];
    const octree::coord_t h = octree::octant_len(o.level);
    if (f.connectivity().map_point(o.tree, o.x + h / 2, o.y + h / 2,
                                   o.z + h / 2)[0] < x_cut)
      flags[i] = 1;
  }
  f.tree().adapt(flags, 0, level + 1);
  f.tree().update_ranges(c);
  f.balance(c);
  f.partition(c);
  return f;
}

/// A hexahedron between a 2x2 square at z = 0 and a 3x3 square at z = 2:
/// one right-handed tree whose trilinear map is not affine.
inline forest::Connectivity frustum() {
  forest::TreeCorners tc{};
  for (int k = 0; k < 8; ++k) {
    const int s = (k & 4) ? 3 : 2;
    tc[static_cast<std::size_t>(k)] = {(k & 1) * s, ((k >> 1) & 1) * s,
                                       (k & 4) ? 2 : 0};
  }
  return forest::Connectivity::from_corners({tc});
}

}  // namespace alps::test_util
