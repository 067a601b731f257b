#pragma once
// Parity oracles: the original serial or replicated implementations of
// algorithms whose production versions live in src/. Each keeps the
// arithmetic of the code it was moved from, so the parity tests can
// compare the production paths against it bit for bit (extraction, apply,
// Galerkin products) or iteration for iteration (AMG-preconditioned CG),
// and bench_apply / bench_amr time it as their baseline. The alps_oracles
// library is linked only by alps_tests and those two benches; nothing in
// the library or the examples ships it.

#include <memory>
#include <span>
#include <vector>

#include "amg/dist_amg.hpp"
#include "fem/assembly.hpp"
#include "la/csr.hpp"
#include "mesh/mesh.hpp"

namespace alps::oracle {

// ---- mesh extraction --------------------------------------------------

/// The per-corner EXTRACTMESH: per element corner it runs the glued-face
/// BFS, scans directions linearly, binary-searches the combined leaf array
/// per candidate neighbor, and re-derives every shared node up to 8
/// times. Bit-identical to mesh::extract_mesh. Collective.
mesh::Mesh extract_mesh_reference(par::Comm& comm, const forest::Forest& forest);
mesh::Mesh extract_mesh_reference(par::Comm& comm, const forest::Forest& forest,
                                  std::vector<octree::Octant> ghosts);

// ---- finite-element operator ------------------------------------------

/// The scalar apply: per-element Corner gathers, an O(n) Dirichlet masking
/// pass, and a blocking post-loop halo. Same contract as
/// ElementOperator::apply / apply_raw. Collective.
void apply_scalar(par::Comm& comm, const fem::ElementOperator& op,
                  std::span<const double> x, std::span<double> y);
void apply_raw_scalar(par::Comm& comm, const fem::ElementOperator& op,
                      std::span<const double> x, std::span<double> y);

/// The fully assembled global matrix (identity Dirichlet rows) gathered on
/// every rank: O(N_global) per rank. Collective.
la::Csr assemble_global(par::Comm& comm, const fem::ElementOperator& op);

// ---- sparse products and the serial AMG -------------------------------

la::Csr transpose(const la::Csr& a);
/// C = A * B (sparse-sparse product).
la::Csr multiply(const la::Csr& a, const la::Csr& b);

/// The replicated Ruge-Stüben hierarchy: classical strength, the shared
/// greedy C/F split (amg/classical.hpp), direct interpolation, Galerkin
/// RAP through serial sparse products, and a V-cycle with symmetric
/// Gauss-Seidel smoothing (opt.smoother is ignored). At P = 1 DistAmg
/// builds the same hierarchy.
class Amg {
 public:
  explicit Amg(la::Csr a, const amg::AmgOptions& opt = {});

  /// One V-cycle applied to A x = b, overwriting x.
  void vcycle(std::span<const double> b, std::span<double> x) const;

  int num_levels() const { return static_cast<int>(stats_.size()); }
  const std::vector<amg::LevelStats>& level_stats() const { return stats_; }

 private:
  struct Level {
    la::Csr a;
    la::Csr p;  // prolongation to this level from the next-coarser one
    la::Csr r;  // restriction (P^T)
  };

  void cycle(std::size_t lvl, std::span<const double> b,
             std::span<double> x) const;

  amg::AmgOptions opt_;
  std::vector<Level> levels_;  // levels_[k].p/r connect level k and k+1
  std::unique_ptr<la::DenseLu> coarse_;
  std::vector<amg::LevelStats> stats_;
  // Scratch buffers per level (mutable: vcycle is logically const).
  mutable std::vector<std::vector<double>> scratch_r_, scratch_x_;
};

}  // namespace alps::oracle
