// The original per-corner EXTRACTMESH (paper Sec. IV.B), kept as the
// parity oracle for the hashed and incremental paths in
// src/mesh/extract.cpp: per element corner it runs the glued-face BFS
// (node_reps), scans directions linearly, binary-searches the combined
// leaf array per candidate neighbor, and re-derives every shared node up
// to 8 times. Master lists are sorted by canonical node key, as in the
// production paths, so the result is bit-identical to theirs.

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "octree/sort.hpp"
#include "oracles/oracles.hpp"

namespace alps::oracle {

namespace {

using forest::Connectivity;
using mesh::Corner;
using mesh::Mesh;
using mesh::NodeKey;
using mesh::detail::node_owner;
using mesh::detail::node_reps;
using octree::coord_t;
using octree::kNeighborDirs;
using octree::kNumAllDirs;
using octree::LinearOctree;
using octree::octant_len;
using octree::Octant;
using octree::SfcKey;

/// Index of the leaf in `sorted` equal to or an ancestor of `o`, else -1.
std::int64_t find_in(const std::vector<Octant>& sorted, const Octant& o) {
  const SfcKey k = octree::key_of(o);
  auto it = std::upper_bound(
      sorted.begin(), sorted.end(), k,
      [](const SfcKey& key, const Octant& l) { return key < octree::key_of(l); });
  if (it == sorted.begin()) return -1;
  --it;
  if (it->tree == o.tree && (*it == o || it->is_ancestor_of(o)))
    return it - sorted.begin();
  return -1;
}

/// Direction index (0..25) for an offset vector with components in
/// {-1,0,1}; -1 for the zero vector. Linear scan, reference path only.
int dir_index(int dx, int dy, int dz) {
  for (int d = 0; d < kNumAllDirs; ++d)
    if (kNeighborDirs[static_cast<std::size_t>(d)][0] == dx &&
        kNeighborDirs[static_cast<std::size_t>(d)][1] == dy &&
        kNeighborDirs[static_cast<std::size_t>(d)][2] == dz)
      return d;
  return -1;
}

struct Master {
  NodeKey key;
  double w;
};

/// Constraint masters of node `v_rep` (expressed in q's tree frame) inside
/// coarse element q: corners of q with nonzero trilinear weight. A single
/// master with weight 1 means v coincides with a corner of q (independent).
void masters_in(const Connectivity& conn, const Octant& q, const NodeKey& v_rep,
                std::vector<Master>& out) {
  out.clear();
  const coord_t h = octant_len(q.level);
  const std::array<coord_t, 3> t = {v_rep.x - q.x, v_rep.y - q.y,
                                    v_rep.z - q.z};
  for (int d = 0; d < 3; ++d)
    assert(t[static_cast<std::size_t>(d)] <= h);
  for (int k = 0; k < 8; ++k) {
    double w = 1.0;
    for (int d = 0; d < 3; ++d) {
      const double xi =
          static_cast<double>(t[static_cast<std::size_t>(d)]) / h;
      w *= (k >> d & 1) ? xi : 1.0 - xi;
    }
    if (w <= 0.0) continue;
    NodeKey corner{q.tree, q.x + ((k & 1) ? h : 0), q.y + ((k & 2) ? h : 0),
                   q.z + ((k & 4) ? h : 0)};
    std::vector<NodeKey> reps;
    std::uint8_t mask = 0;
    node_reps(conn, corner, reps, mask);
    out.push_back(Master{*std::min_element(reps.begin(), reps.end()), w});
  }
}

struct WireNodeKey {
  std::int32_t tree;
  coord_t x, y, z;
};

}  // namespace

Mesh extract_mesh_reference(par::Comm& comm, const forest::Forest& forest,
                            std::vector<Octant> ghosts) {
  const Connectivity& conn = forest.connectivity();
  const LinearOctree& tree = forest.tree();
  const int p = comm.size();

  Mesh m;
  m.elements = tree.leaves();

  // Local + ghost leaves, sorted, for neighbor-level queries.
  std::vector<Octant> combined = ghosts;
  combined.insert(combined.end(), tree.leaves().begin(), tree.leaves().end());
  std::sort(combined.begin(), combined.end(), octree::sfc_less);
  m.ghosts = std::move(ghosts);
  m.regions = tree.range_begins();
  m.epoch = 1;

  // ---- pass 1: per element corner, find the canonical masters ----------
  // masters_per_corner[e][c]: 1 entry (independent) or 2/4 (hanging).
  const std::size_t ne = m.elements.size();
  std::vector<std::array<std::vector<Master>, 8>> elem_masters(ne);
  std::vector<std::array<bool, 8>> elem_hanging(ne);

  std::vector<NodeKey> reps;
  std::vector<Master> masters;
  for (std::size_t e = 0; e < ne; ++e) {
    const Octant& o = m.elements[e];
    const coord_t h = octant_len(o.level);
    for (int c = 0; c < 8; ++c) {
      const NodeKey v{o.tree, o.x + ((c & 1) ? h : 0), o.y + ((c & 2) ? h : 0),
                      o.z + ((c & 4) ? h : 0)};
      std::uint8_t mask = 0;
      node_reps(conn, v, reps, mask);
      const std::vector<NodeKey> v_reps = reps;

      // Search the (up to 7) neighbor octants sharing this corner for a
      // coarser leaf; with face+edge 2:1 balance a hanging constraint is
      // single-level and its masters are independent (see header).
      bool hanging = false;
      const int sx = (c & 1) ? 1 : -1, sy = (c & 2) ? 1 : -1,
                sz = (c & 4) ? 1 : -1;
      for (int msk = 1; msk < 8 && !hanging; ++msk) {
        const int d =
            dir_index((msk & 1) ? sx : 0, (msk & 2) ? sy : 0, (msk & 4) ? sz : 0);
        Octant n;
        if (!conn.neighbor_across(o, d, n)) continue;
        const std::int64_t qi = find_in(combined, n);
        if (qi < 0) continue;
        const Octant& q = combined[static_cast<std::size_t>(qi)];
        if (q.level != o.level - 1) continue;
        // Express v in q's tree frame.
        const NodeKey* vq = nullptr;
        for (const NodeKey& r : v_reps)
          if (r.tree == q.tree) {
            vq = &r;
            break;
          }
        if (vq == nullptr) continue;
        masters_in(conn, q, *vq, masters);
        if (masters.size() >= 2) {
          std::stable_sort(
              masters.begin(), masters.end(),
              [](const Master& a, const Master& b) { return a.key < b.key; });
          elem_masters[e][static_cast<std::size_t>(c)] = masters;
          hanging = true;
        }
      }
      if (!hanging) {
        elem_masters[e][static_cast<std::size_t>(c)] = {
            Master{*std::min_element(v_reps.begin(), v_reps.end()), 1.0}};
      }
      elem_hanging[e][static_cast<std::size_t>(c)] = hanging;
    }
  }

  // ---- pass 2: needed dofs, ownership, numbering ------------------------
  std::vector<NodeKey> needed;
  for (const auto& em : elem_masters)
    for (const auto& ms : em)
      for (const Master& mm : ms) needed.push_back(mm.key);
  std::sort(needed.begin(), needed.end());
  needed.erase(std::unique(needed.begin(), needed.end()), needed.end());

  std::vector<NodeKey> owned_keys;
  std::vector<std::vector<WireNodeKey>> requests(static_cast<std::size_t>(p));
  for (const NodeKey& k : needed) {
    const int owner = node_owner(tree, k);
    if (owner == comm.rank())
      owned_keys.push_back(k);
    else
      requests[static_cast<std::size_t>(owner)].push_back(
          WireNodeKey{k.tree, k.x, k.y, k.z});
  }
  m.n_owned = static_cast<std::int64_t>(owned_keys.size());
  m.gid_offset = comm.exscan_sum(m.n_owned);
  m.n_global = comm.allreduce_sum(m.n_owned);

  // Resolve remote gids: owners answer lookups in request order.
  std::vector<std::vector<WireNodeKey>> incoming = comm.alltoallv(requests);
  std::vector<std::vector<std::int64_t>> replies(static_cast<std::size_t>(p));
  m.send_idx.assign(static_cast<std::size_t>(p), {});
  for (int r = 0; r < p; ++r) {
    for (const WireNodeKey& wk : incoming[static_cast<std::size_t>(r)]) {
      const NodeKey k{wk.tree, wk.x, wk.y, wk.z};
      auto it = std::lower_bound(owned_keys.begin(), owned_keys.end(), k);
      if (it == owned_keys.end() || *it != k)
        throw std::runtime_error(
            "extract_mesh: rank asked me for a node I do not own");
      const std::int32_t idx =
          static_cast<std::int32_t>(it - owned_keys.begin());
      replies[static_cast<std::size_t>(r)].push_back(m.gid_offset + idx);
      m.send_idx[static_cast<std::size_t>(r)].push_back(idx);
    }
  }
  std::vector<std::vector<std::int64_t>> resolved = comm.alltoallv(replies);

  // ---- pass 3: local dof table (owned, then ghosts by key) --------------
  m.dof_keys = owned_keys;
  m.dof_gids.resize(owned_keys.size());
  for (std::size_t i = 0; i < owned_keys.size(); ++i)
    m.dof_gids[i] = m.gid_offset + static_cast<std::int64_t>(i);
  m.recv_idx.assign(static_cast<std::size_t>(p), {});
  for (int r = 0; r < p; ++r) {
    const auto& req = requests[static_cast<std::size_t>(r)];
    const auto& ans = resolved[static_cast<std::size_t>(r)];
    if (req.size() != ans.size())
      throw std::runtime_error("extract_mesh: reply size mismatch");
    for (std::size_t i = 0; i < req.size(); ++i) {
      m.recv_idx[static_cast<std::size_t>(r)].push_back(
          static_cast<std::int32_t>(m.dof_keys.size()));
      m.dof_keys.push_back(
          NodeKey{req[i].tree, req[i].x, req[i].y, req[i].z});
      m.dof_gids.push_back(ans[i]);
    }
  }
  m.n_local = static_cast<std::int64_t>(m.dof_keys.size());

  // Key -> local index lookup.
  std::vector<std::pair<NodeKey, std::int32_t>> lookup;
  lookup.reserve(m.dof_keys.size());
  for (std::size_t i = 0; i < m.dof_keys.size(); ++i)
    lookup.emplace_back(m.dof_keys[i], static_cast<std::int32_t>(i));
  std::sort(lookup.begin(), lookup.end());
  const auto local_index = [&lookup](const NodeKey& k) {
    auto it = std::lower_bound(
        lookup.begin(), lookup.end(), k,
        [](const std::pair<NodeKey, std::int32_t>& a, const NodeKey& b) {
          return a.first < b;
        });
    if (it == lookup.end() || it->first != k)
      throw std::logic_error("extract_mesh: dof key not in local table");
    return it->second;
  };

  // ---- pass 4: element corner constraints -------------------------------
  m.corners.resize(ne);
  for (std::size_t e = 0; e < ne; ++e) {
    for (int c = 0; c < 8; ++c) {
      const auto& ms = elem_masters[e][static_cast<std::size_t>(c)];
      Corner& cc = m.corners[e][static_cast<std::size_t>(c)];
      cc.hanging = elem_hanging[e][static_cast<std::size_t>(c)] ? 1 : 0;
      cc.n = static_cast<std::int8_t>(ms.size());
      for (std::size_t i = 0; i < ms.size(); ++i) {
        cc.dof[i] = local_index(ms[i].key);
        cc.w[i] = ms[i].w;
      }
    }
  }

  // ---- pass 5: coordinates and boundary flags ----------------------------
  m.dof_coords.resize(m.dof_keys.size());
  m.dof_boundary.resize(m.dof_keys.size());
  for (std::size_t i = 0; i < m.dof_keys.size(); ++i) {
    const NodeKey& k = m.dof_keys[i];
    m.dof_coords[i] = conn.map_point(k.tree, k.x, k.y, k.z);
    std::uint8_t mask = 0;
    node_reps(conn, k, reps, mask);
    m.dof_boundary[i] = mask;
  }
  return m;
}

Mesh extract_mesh_reference(par::Comm& comm, const forest::Forest& forest) {
  return extract_mesh_reference(
      comm, forest, mesh::ghost_layer(comm, forest.tree(), forest.connectivity()));
}

}  // namespace alps::oracle
