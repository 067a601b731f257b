// Parity tests for the extraction rewrite (src/mesh/extract.cpp): the
// hashed and incremental paths must be BIT-IDENTICAL to the per-corner
// reference oracle — same global numbering, same constraint rows (masters
// and weights), same halo plans — across rank counts, geometries, and
// refine/coarsen/repartition sequences. The incremental path additionally
// must reuse a positive fraction of elements on non-repartitioning adapts
// and fall back to a full extraction (identical result, epoch reset) when
// the ownership ranges moved or there is no usable previous mesh.

#include <gtest/gtest.h>

#include <cmath>

#include "mesh/ghost.hpp"
#include "mesh/mesh.hpp"
#include "oracles/oracles.hpp"
#include "par/runtime.hpp"

namespace {

using namespace alps::mesh;
using alps::forest::Connectivity;
using alps::forest::Forest;
using alps::octree::Adjacency;
using alps::octree::coord_t;
using alps::octree::kMaxLevel;
using alps::octree::octant_len;
using alps::octree::Octant;
using alps::oracle::extract_mesh_reference;
using alps::par::Comm;

// Every field that defines the mesh contract, compared exactly (doubles
// included — the two paths must agree bitwise, not approximately).
void expect_mesh_equal(const Mesh& a, const Mesh& b) {
  ASSERT_EQ(a.elements.size(), b.elements.size());
  for (std::size_t e = 0; e < a.elements.size(); ++e)
    EXPECT_TRUE(a.elements[e] == b.elements[e]) << "element " << e;

  EXPECT_EQ(a.n_owned, b.n_owned);
  EXPECT_EQ(a.n_local, b.n_local);
  EXPECT_EQ(a.n_global, b.n_global);
  EXPECT_EQ(a.gid_offset, b.gid_offset);
  ASSERT_EQ(a.dof_keys.size(), b.dof_keys.size());
  for (std::size_t i = 0; i < a.dof_keys.size(); ++i)
    EXPECT_TRUE(a.dof_keys[i] == b.dof_keys[i]) << "dof key " << i;
  EXPECT_EQ(a.dof_gids, b.dof_gids);
  EXPECT_EQ(a.dof_boundary, b.dof_boundary);
  ASSERT_EQ(a.dof_coords.size(), b.dof_coords.size());
  for (std::size_t i = 0; i < a.dof_coords.size(); ++i)
    for (int d = 0; d < 3; ++d)
      EXPECT_EQ(a.dof_coords[i][d], b.dof_coords[i][d]) << "coord " << i;

  ASSERT_EQ(a.corners.size(), b.corners.size());
  for (std::size_t e = 0; e < a.corners.size(); ++e)
    for (int c = 0; c < 8; ++c) {
      const Corner& ca = a.corners[e][static_cast<std::size_t>(c)];
      const Corner& cb = b.corners[e][static_cast<std::size_t>(c)];
      EXPECT_EQ(ca.hanging, cb.hanging) << "element " << e << " corner " << c;
      ASSERT_EQ(ca.n, cb.n) << "element " << e << " corner " << c;
      for (int i = 0; i < ca.n; ++i) {
        EXPECT_EQ(ca.dof[static_cast<std::size_t>(i)],
                  cb.dof[static_cast<std::size_t>(i)])
            << "element " << e << " corner " << c << " master " << i;
        EXPECT_EQ(ca.w[static_cast<std::size_t>(i)],
                  cb.w[static_cast<std::size_t>(i)])
            << "element " << e << " corner " << c << " weight " << i;
      }
    }

  EXPECT_EQ(a.send_idx, b.send_idx);
  EXPECT_EQ(a.recv_idx, b.recv_idx);
}

// Refine every leaf whose center is within sqrt(r2) of `center` (in the
// per-tree reference cube), then balance. Deterministic on any rank count.
void refine_near(Comm& c, Forest& f, const std::array<double, 3>& center,
                 double r2, int max_level) {
  const auto& conn = f.connectivity();
  std::vector<std::int8_t> flags(f.tree().leaves().size(), 0);
  for (std::size_t i = 0; i < flags.size(); ++i) {
    const Octant& o = f.tree().leaves()[i];
    const coord_t h = octant_len(o.level);
    const auto p = conn.map_point(o.tree, o.x + h / 2, o.y + h / 2, o.z + h / 2);
    const double d2 = (p[0] - center[0]) * (p[0] - center[0]) +
                      (p[1] - center[1]) * (p[1] - center[1]) +
                      (p[2] - center[2]) * (p[2] - center[2]);
    if (d2 < r2 && o.level < max_level) flags[i] = 1;
  }
  f.tree().adapt(flags, 0, max_level);
  f.balance(c, Adjacency::kFaceEdge);
}

// Coarsen every leaf above `level` whose center is within sqrt(r2) of
// `center` (complete local sibling groups only, per the adapt contract).
void coarsen_near(Comm& c, Forest& f, const std::array<double, 3>& center,
                  double r2, int min_level) {
  const auto& conn = f.connectivity();
  std::vector<std::int8_t> flags(f.tree().leaves().size(), 0);
  for (std::size_t i = 0; i < flags.size(); ++i) {
    const Octant& o = f.tree().leaves()[i];
    const coord_t h = octant_len(o.level);
    const auto p = conn.map_point(o.tree, o.x + h / 2, o.y + h / 2, o.z + h / 2);
    const double d2 = (p[0] - center[0]) * (p[0] - center[0]) +
                      (p[1] - center[1]) * (p[1] - center[1]) +
                      (p[2] - center[2]) * (p[2] - center[2]);
    if (d2 < r2 && o.level > min_level) flags[i] = -1;
  }
  f.tree().adapt(flags, min_level, kMaxLevel);
  f.balance(c, Adjacency::kFaceEdge);
}

// An adapted, balanced, evenly-partitioned forest with hanging nodes.
Forest adapted_forest(Comm& c, Connectivity conn, int level) {
  Forest f = Forest::new_uniform(c, std::move(conn), level);
  refine_near(c, f, {0.5, 0.5, 0.5}, 0.1, level + 2);
  refine_near(c, f, {0.5, 0.5, 0.5}, 0.03, level + 2);
  f.tree().update_ranges(c);
  f.partition(c);
  return f;
}

class ExtractRanks : public ::testing::TestWithParam<int> {};

TEST_P(ExtractRanks, HashedMatchesReferenceUnitCube) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = adapted_forest(c, Connectivity::unit_cube(), 2);
    Mesh ref = extract_mesh_reference(c, f);
    Mesh hashed = extract_mesh(c, f);
    expect_mesh_equal(ref, hashed);
    EXPECT_EQ(hashed.epoch, 1);
  });
}

TEST_P(ExtractRanks, HashedMatchesReferenceTwoTreeBrick) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = adapted_forest(c, Connectivity::brick(2, 1, 1), 2);
    expect_mesh_equal(extract_mesh_reference(c, f), extract_mesh(c, f));
  });
}

TEST_P(ExtractRanks, HashedMatchesReferenceCubedSphereShell) {
  alps::par::run(GetParam(), [](Comm& c) {
    // 24 trees with rotated inter-tree coordinate frames: the hardest
    // canonicalization case (corner nodes shared by up to 4 frames).
    Forest f = adapted_forest(c, Connectivity::cubed_sphere_shell(), 1);
    expect_mesh_equal(extract_mesh_reference(c, f), extract_mesh(c, f));
  });
}

TEST_P(ExtractRanks, GhostOverloadMatchesSelfComputed) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = adapted_forest(c, Connectivity::unit_cube(), 2);
    std::vector<Octant> ghosts =
        ghost_layer(c, f.tree(), f.connectivity());
    expect_mesh_equal(extract_mesh(c, f),
                      extract_mesh(c, f, std::move(ghosts)));
  });
}

TEST_P(ExtractRanks, IncrementalMatchesReferenceAndReuses) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = adapted_forest(c, Connectivity::unit_cube(), 2);
    Mesh prev = extract_mesh(c, f);

    // Local adaptation, no repartition: ownership ranges stay fixed.
    refine_near(c, f, {0.2, 0.8, 0.3}, 0.04, 4);
    ExtractStats stats;
    Mesh incr = extract_mesh_incremental(
        c, f, ghost_layer(c, f.tree(), f.connectivity()), prev, &stats);
    expect_mesh_equal(extract_mesh_reference(c, f), incr);

    EXPECT_FALSE(c.allreduce_or(stats.fallback));
    EXPECT_GT(c.allreduce_sum(stats.reused), 0);
    EXPECT_GT(c.allreduce_sum(stats.recomputed), 0);
    EXPECT_EQ(stats.reused + stats.recomputed,
              static_cast<std::int64_t>(incr.elements.size()));
    EXPECT_EQ(incr.epoch, 2);
  });
}

TEST_P(ExtractRanks, IncrementalChainAcrossRefineAndCoarsen) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = adapted_forest(c, Connectivity::unit_cube(), 2);
    Mesh m = extract_mesh(c, f);

    // Refine a front, coarsen it back, refine elsewhere — each step
    // re-extracts incrementally from the previous mesh and must match
    // the oracle; the epoch counts the chain.
    const std::array<std::array<double, 3>, 3> centers = {
        {{0.2, 0.8, 0.3}, {0.2, 0.8, 0.3}, {0.8, 0.2, 0.7}}};
    for (int step = 0; step < 3; ++step) {
      if (step == 1)
        coarsen_near(c, f, centers[static_cast<std::size_t>(step)], 0.04, 2);
      else
        refine_near(c, f, centers[static_cast<std::size_t>(step)], 0.04, 4);
      ExtractStats stats;
      Mesh next = extract_mesh_incremental(
          c, f, ghost_layer(c, f.tree(), f.connectivity()), m, &stats);
      expect_mesh_equal(extract_mesh_reference(c, f), next);
      EXPECT_FALSE(c.allreduce_or(stats.fallback));
      EXPECT_EQ(next.epoch, m.epoch + 1);
      m = std::move(next);
    }
    EXPECT_EQ(m.epoch, 4);
  });
}

TEST_P(ExtractRanks, IncrementalFallsBackAfterPartition) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = adapted_forest(c, Connectivity::unit_cube(), 2);
    Mesh prev = extract_mesh(c, f);

    // Skew the element distribution, then repartition: ranges move on
    // P > 1, and the incremental path must detect it and do a full
    // rebuild (bit-identical to the oracle, epoch reset to 1).
    refine_near(c, f, {0.1, 0.1, 0.1}, 0.06, 4);
    f.tree().update_ranges(c);
    f.partition(c);
    ExtractStats stats;
    Mesh after = extract_mesh_incremental(
        c, f, ghost_layer(c, f.tree(), f.connectivity()), prev, &stats);
    expect_mesh_equal(extract_mesh_reference(c, f), after);
    if (c.size() > 1) {
      EXPECT_TRUE(stats.fallback);
      EXPECT_EQ(after.epoch, 1);
    }
  });
}

TEST_P(ExtractRanks, NeverExtractedPreviousFallsBack) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = adapted_forest(c, Connectivity::unit_cube(), 2);
    Mesh prev;  // epoch 0: no provenance, must fall back
    ExtractStats stats;
    Mesh m = extract_mesh_incremental(
        c, f, ghost_layer(c, f.tree(), f.connectivity()), prev, &stats);
    expect_mesh_equal(extract_mesh_reference(c, f), m);
    EXPECT_TRUE(stats.fallback);
    EXPECT_EQ(stats.reused, 0);
    EXPECT_EQ(m.epoch, 1);
  });
}

TEST_P(ExtractRanks, IncrementalIdentityAdaptReusesEverything) {
  alps::par::run(GetParam(), [](Comm& c) {
    Forest f = adapted_forest(c, Connectivity::unit_cube(), 2);
    Mesh prev = extract_mesh(c, f);

    // No adaptation at all: every element must take the reuse path.
    ExtractStats stats;
    Mesh again = extract_mesh_incremental(
        c, f, ghost_layer(c, f.tree(), f.connectivity()), prev, &stats);
    expect_mesh_equal(extract_mesh_reference(c, f), again);
    EXPECT_FALSE(c.allreduce_or(stats.fallback));
    EXPECT_EQ(stats.recomputed, 0);
    EXPECT_EQ(stats.reused,
              static_cast<std::int64_t>(again.elements.size()));
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, ExtractRanks, ::testing::Values(1, 2, 4));

}  // namespace
