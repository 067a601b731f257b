#pragma once
// EXTRACTMESH (paper Sec. IV.B): build a distributed trilinear hexahedral
// finite-element mesh from a balanced forest. Establishes the unique
// global numbering of independent degrees of freedom, detects hanging
// nodes on nonconforming faces and edges, expresses them as algebraic
// constraints on the independent dofs (enforced at the element level, as
// in the paper), gathers ghost information, and sets up the communication
// pattern used by the solvers.
//
// Requires the tree to be 2:1 balanced across faces and edges
// (Adjacency::kFaceEdge), which guarantees single-level constraints.

#include <array>
#include <compare>
#include <cstdint>
#include <span>
#include <vector>

#include "forest/forest.hpp"
#include "mesh/ghost.hpp"
#include "obs/mem.hpp"

namespace alps::mesh {

using octree::coord_t;
using octree::Octant;

/// Canonical node identifier: tree + integer corner coordinates in
/// [0, 2^kMaxLevel]. Nodes on inter-tree boundaries are canonicalized to
/// their lexicographically smallest representation.
struct NodeKey {
  std::int32_t tree = 0;
  coord_t x = 0, y = 0, z = 0;

  friend auto operator<=>(const NodeKey&, const NodeKey&) = default;
};

/// One element corner: either a single independent dof (n == 1, w == 1)
/// or a hanging node constrained by up to 4 independent dofs (the corners
/// of the coarse neighbor's face or edge it sits on).
struct Corner {
  std::int8_t hanging = 0;
  std::int8_t n = 0;
  std::array<std::int32_t, 4> dof{};  // local dof indices
  std::array<double, 4> w{};
};

class Mesh {
 public:
  // ---- elements ---------------------------------------------------------
  std::vector<Octant> elements;                 // this rank's leaves
  std::vector<std::array<Corner, 8>> corners;   // per element, z-order

  // ---- extraction provenance --------------------------------------------
  // What this mesh was extracted from, kept so the next adaptation can
  // re-extract incrementally: the ghost layer used, the ownership ranges
  // at extract time (incremental extraction is valid only while they are
  // unchanged — partition invalidates them), and a generation counter
  // (0 = never extracted, 1 = full extraction, +1 per incremental reuse).
  std::vector<Octant> ghosts;
  std::vector<octree::SfcKey> regions;
  std::int64_t epoch = 0;

  // ---- degrees of freedom ------------------------------------------------
  std::int64_t n_owned = 0;    // dofs this rank numbers
  std::int64_t n_local = 0;    // owned + ghost dofs addressable locally
  std::int64_t n_global = 0;   // total independent dofs
  std::int64_t gid_offset = 0; // global id of local dof 0
  std::vector<NodeKey> dof_keys;                 // size n_local
  std::vector<std::int64_t> dof_gids;            // size n_local
  std::vector<std::array<double, 3>> dof_coords; // physical positions
  std::vector<std::uint8_t> dof_boundary;        // bitmask of physical faces

  // ---- ghost-dof communication pattern -----------------------------------
  // One slot per rank (empty vectors for non-neighbors).
  std::vector<std::vector<std::int32_t>> send_idx;  // owned indices to send
  std::vector<std::vector<std::int32_t>> recv_idx;  // ghost indices to fill

  /// Overwrite the ghost entries of `values` (n_local * ncomp doubles,
  /// node-major) with the owners' values. Collective.
  void exchange(par::Comm& comm, std::span<double> values, int ncomp = 1) const;

  /// Add this rank's ghost-slot contributions into the owners' entries and
  /// zero the ghost slots; after the call owners hold the global sums and
  /// a subsequent exchange() makes all copies consistent. Collective.
  void accumulate(par::Comm& comm, std::span<double> values,
                  int ncomp = 1) const;

  // ---- split-phase halo operations ---------------------------------------
  // accumulate() and exchange() are start + finish back to back. The split
  // halves let callers hide the neighbor messages behind local work: the
  // element operator computes its boundary elements, posts the ghost
  // accumulate with accumulate_start, streams the interior elements while
  // the messages are in flight, then completes with accumulate_finish.
  // Sends go over the buffered p2p layer, so *_start returns without
  // waiting on any other rank; *_finish blocks until the matching messages
  // arrive. Packing buffers and the neighbor lists are precomputed and
  // reused — no per-call allocations on the Krylov hot path.
  //
  // At most one operation may be in flight per Mesh at a time; misuse
  // (double start, finish without start, or finishing a different
  // operation than was started) throws std::logic_error.
  void accumulate_start(par::Comm& comm, std::span<double> values,
                        int ncomp = 1) const;
  void accumulate_finish(par::Comm& comm, std::span<double> values,
                         int ncomp = 1) const;
  void exchange_start(par::Comm& comm, std::span<double> values,
                      int ncomp = 1) const;
  void exchange_finish(par::Comm& comm, std::span<double> values,
                       int ncomp = 1) const;

  /// Number of local elements.
  std::int64_t num_elements() const {
    return static_cast<std::int64_t>(elements.size());
  }

  /// True if local dof index i is owned by this rank.
  bool is_owned(std::int32_t i) const { return i < n_owned; }

  /// Physical corner positions of element e (z-order), via the geometry.
  std::array<std::array<double, 3>, 8> element_corners_xyz(
      const forest::Connectivity& conn, std::int64_t e) const;

  /// This rank's heap bytes split by what they store (reported into the
  /// "mesh.*" memory scopes; see obs/mem.hpp).
  struct MemoryBytes {
    std::uint64_t topology = 0;  // octants + hanging-node corner tables
    std::uint64_t dofs = 0;      // numbering, coords, boundary masks
    std::uint64_t halo = 0;      // ghost index lists + packing buffers
    std::uint64_t total() const { return topology + dofs + halo; }
  };
  MemoryBytes memory_bytes() const {
    MemoryBytes m;
    m.topology = obs::vec_bytes(elements) + obs::vec_bytes(corners) +
                 obs::vec_bytes(ghosts) + obs::vec_bytes(regions);
    m.dofs = obs::vec_bytes(dof_keys) + obs::vec_bytes(dof_gids) +
             obs::vec_bytes(dof_coords) + obs::vec_bytes(dof_boundary);
    m.halo = obs::vec_bytes(send_idx) + obs::vec_bytes(recv_idx) +
             obs::vec_bytes(halo_owner_ranks_) +
             obs::vec_bytes(halo_user_ranks_) + obs::vec_bytes(halo_out_);
    for (const auto& v : send_idx) m.halo += obs::vec_bytes(v);
    for (const auto& v : recv_idx) m.halo += obs::vec_bytes(v);
    for (const auto& v : halo_out_) m.halo += obs::vec_bytes(v);
    return m;
  }

 private:
  enum class HaloOp : std::uint8_t { kNone, kAccumulate, kExchange };

  void build_halo_plan() const;
  void check_start(HaloOp op) const;
  void check_finish(HaloOp op, int ncomp) const;

  // Lazily-built neighbor lists: ranks that own our ghosts (recv_idx
  // non-empty) and ranks that ghost our owned dofs (send_idx non-empty),
  // plus reusable per-neighbor packing buffers. Mutable because the halo
  // runs inside logically-const hot paths; each rank owns its Mesh, so
  // there is no cross-thread access.
  mutable bool halo_plan_built_ = false;
  mutable std::vector<int> halo_owner_ranks_;  // recv_idx[r] non-empty
  mutable std::vector<int> halo_user_ranks_;   // send_idx[r] non-empty
  mutable std::vector<std::vector<double>> halo_out_;
  mutable HaloOp halo_inflight_ = HaloOp::kNone;
  mutable int halo_ncomp_ = 0;
};

/// What an extraction did: how many elements kept their previous corner
/// constraints versus being rebuilt, and whether incremental extraction
/// had to fall back to a full rebuild (ownership ranges moved, or no
/// usable previous mesh).
struct ExtractStats {
  std::int64_t reused = 0;
  std::int64_t recomputed = 0;
  bool fallback = false;
};

/// Build the mesh from a face+edge balanced forest. Collective. The
/// single-argument form computes the ghost layer itself; the two-argument
/// form takes a precomputed ghost_layer() result so one adaptation round
/// computes the layer once and shares it between consumers.
Mesh extract_mesh(par::Comm& comm, const forest::Forest& forest);
Mesh extract_mesh(par::Comm& comm, const forest::Forest& forest,
                  std::vector<Octant> ghosts);

/// Re-extract after a local adaptation, reusing the corner constraints of
/// every element whose corner neighborhood is untouched (Correspondence-
/// driven; typically the vast majority when a thin front adapts). Falls
/// back to a full extraction — identical result, stats->fallback set —
/// when `prev` was never extracted or ownership ranges moved since
/// (partition). Collective either way. Bit-identical to extract_mesh.
Mesh extract_mesh_incremental(par::Comm& comm, const forest::Forest& forest,
                              std::vector<Octant> ghosts, const Mesh& prev,
                              ExtractStats* stats = nullptr);

/// Canonicalize a node across inter-tree boundaries. Returns the minimal
/// representation and a bitmask of the physical boundary faces it lies on.
std::pair<NodeKey, std::uint8_t> canonical_node(const forest::Connectivity& conn,
                                                const NodeKey& node);

namespace detail {

/// Node primitives the extraction paths share with the per-corner parity
/// oracle in tests/oracles/. node_reps lists every representation of
/// `node` across glued tree faces (BFS) plus the physical-boundary face
/// mask; node_owner is the rank owning the region just below a canonical
/// node along the space-filling curve.
void node_reps(const forest::Connectivity& conn, const NodeKey& node,
               std::vector<NodeKey>& reps, std::uint8_t& boundary_mask);
int node_owner(const octree::LinearOctree& tree, const NodeKey& v);

}  // namespace detail

}  // namespace alps::mesh
