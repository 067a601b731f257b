#pragma once
// Distributed finite-element operator machinery. Element matrices are
// stored per local element; hanging-node constraints are applied at the
// element level (gather C x, element matvec, scatter C^T y), exactly the
// strategy the paper describes. Dirichlet conditions are eliminated
// symmetrically (identity rows/columns).
//
// The Krylov hot path runs through a lane-batched SoA plan built lazily
// from the mesh: elements are sorted into boundary (touching a ghost dof)
// and interior sets, packed kLanes at a time with lane-interleaved
// element matrices and flattened gather/scatter index+weight tables (the
// Dirichlet mask folded into the weights), so the inner dense matvec
// vectorizes across lanes without FP reassociation. apply() computes the
// boundary elements first, posts the ghost accumulate, and streams the
// interior elements while the neighbor messages are in flight
// (mesh::accumulate_start/finish). The original scalar apply lives in
// tests/oracles/ as the parity reference and the bench_apply baseline.
//
// Multi-component fields use node-major layout: value index =
// local_dof * ncomp + component.

#include <span>
#include <vector>

#include "la/csr.hpp"
#include "la/dist_csr.hpp"
#include "la/krylov.hpp"
#include "mesh/mesh.hpp"

namespace alps::fem {

class ElementOperator {
 public:
  /// Elements per SIMD batch of the SoA apply plan.
  static constexpr std::size_t kLanes = 4;

  ElementOperator(const mesh::Mesh* m, int ncomp)
      : mesh_(m), ncomp_(ncomp),
        mats_(m->elements.size() * block_size() * block_size(), 0.0),
        dirichlet_(static_cast<std::size_t>(m->n_local) * ncomp, 0) {}

  int ncomp() const { return ncomp_; }
  std::size_t block_size() const { return 8 * static_cast<std::size_t>(ncomp_); }
  const mesh::Mesh& mesh() const { return *mesh_; }

  /// Mutable element matrix block e, row-major (8*ncomp)^2. Invalidates
  /// the batched apply plan (rebuilt lazily on the next apply).
  std::span<double> element_matrix(std::size_t e) {
    plan_dirty_ = true;
    const std::size_t b = block_size() * block_size();
    return std::span<double>(mats_).subspan(e * b, b);
  }
  std::span<const double> element_matrix(std::size_t e) const {
    const std::size_t b = block_size() * block_size();
    return std::span<const double>(mats_).subspan(e * b, b);
  }

  /// Mark value (dof, comp) as Dirichlet-constrained.
  void set_dirichlet(std::int64_t dof, int comp) {
    plan_dirty_ = true;
    dirichlet_[static_cast<std::size_t>(dof) * ncomp_ +
               static_cast<std::size_t>(comp)] = 1;
  }
  bool is_dirichlet(std::int64_t dof, int comp) const {
    return dirichlet_[static_cast<std::size_t>(dof) * ncomp_ +
                      static_cast<std::size_t>(comp)] != 0;
  }

  /// y = A x with Dirichlet rows acting as identity. x must be ghost-
  /// consistent; y comes back ghost-consistent. Collective. Runs the
  /// batched plan with comm-compute overlap.
  void apply(par::Comm& comm, std::span<const double> x,
             std::span<double> y) const;

  /// y = A x without any boundary handling (used for RHS lifting and the
  /// explicit energy update). Batched + overlapped like apply().
  void apply_raw(par::Comm& comm, std::span<const double> x,
                 std::span<double> y) const;

  /// Globally-consistent inner product over owned values (blocked
  /// pairwise summation + one allreduce).
  double dot(par::Comm& comm, std::span<const double> a,
             std::span<const double> b) const;

  /// Fused inner products: all pairs reduce in ONE multi-value allreduce.
  /// This is what the reduced-synchronization Krylov loops call.
  void multi_dot(par::Comm& comm, std::span<const la::DotPair> pairs,
                 std::span<double> out) const;

  /// Move inhomogeneous boundary values `g` (zero at interior) into the
  /// right-hand side: b -= A g, then b = g on the boundary. Collective.
  void lift_bcs(par::Comm& comm, std::span<const double> g,
                std::span<double> b) const;

  /// Assemble the owned-row distributed matrix (with identity Dirichlet
  /// rows): off-owner triplets are routed to their owners with one
  /// alltoallv, so per-rank storage is O(N_local). This is the solver
  /// path's matrix — see DESIGN.md, "Distributed solver data layout".
  /// Collective.
  la::DistCsr assemble_dist(par::Comm& comm) const;

  /// This rank's contributions to the assembled matrix, in global value
  /// ids: constrained element blocks plus identity rows for owned
  /// Dirichlet values. Duplicates are summed by the consumer.
  std::vector<la::Triplet> local_triplets() const;

  /// Adapters for the Krylov drivers.
  la::LinOp as_linop(par::Comm& comm) const {
    return [this, &comm](std::span<const double> x, std::span<double> y) {
      apply(comm, x, y);
    };
  }
  la::DotFn as_dot(par::Comm& comm) const {
    return [this, &comm](std::span<const double> a, std::span<const double> b) {
      return dot(comm, a, b);
    };
  }
  la::MultiDotFn as_multi_dot(par::Comm& comm) const {
    return [this, &comm](std::span<const la::DotPair> pairs,
                         std::span<double> out) {
      multi_dot(comm, pairs, out);
    };
  }

  /// Interior / boundary element counts of the apply plan (builds the
  /// plan if needed). An element is boundary when any of its gather slots
  /// — its own corners or the hanging-constraint masters they resolve to
  /// — references a ghost dof; only those elements contribute to the
  /// ghost accumulate, so the interior set streams while it is in flight.
  std::size_t boundary_elements() const {
    ensure_plan();
    return plan_.n_boundary;
  }
  std::size_t interior_elements() const {
    ensure_plan();
    return plan_.n_interior;
  }
  /// Doubles of element-matrix data the batched plan streams per apply
  /// (upper-tri packed when symmetric, full blocks otherwise, lane padding
  /// included). bench_apply derives the achieved bytes/s from this.
  std::size_t plan_matrix_doubles() const {
    ensure_plan();
    return plan_.mats.size();
  }

  /// This rank's heap bytes: element matrices, Dirichlet masks, the
  /// batched apply-plan index/weight tables, and the hot-path workspaces
  /// (the "fem.plan" memory scope). Does not force a plan build — an
  /// unbuilt plan reports its current (empty) footprint.
  std::uint64_t memory_bytes() const {
    using obs::vec_bytes;
    return vec_bytes(mats_) + vec_bytes(dirichlet_) + vec_bytes(plan_.mats) +
           vec_bytes(plan_.gbase) + vec_bytes(plan_.w_raw) +
           vec_bytes(plan_.w_bc) + vec_bytes(plan_.slots) +
           vec_bytes(plan_.owned_dirichlet) + vec_bytes(work_ax_) +
           vec_bytes(work_xe_) + vec_bytes(work_ye_);
  }

 private:
  void ensure_plan() const;
  void build_plan() const;
  /// Gather + lane-batched matvec + scatter for batches [b0, b1), using
  /// the BC-masked (apply) or raw (apply_raw) weight table.
  void run_batches(std::size_t b0, std::size_t b1, const double* weights,
                   std::span<const double> x, std::span<double> y) const;
  /// Shared batched + overlapped pipeline behind apply/apply_raw.
  void apply_batched(par::Comm& comm, const double* weights,
                     std::span<const double> x, std::span<double> y) const;

  const mesh::Mesh* mesh_;
  int ncomp_;
  std::vector<double> mats_;
  std::vector<std::uint8_t> dirichlet_;

  // ---- lane-batched SoA apply plan (DESIGN.md §10) ----------------------
  // Boundary batches form a prefix so apply can post the ghost accumulate
  // after [0, boundary_batches) and overlap [boundary_batches, n_batches)
  // with the messages. Pad lanes carry dof base 0 with zero weights and a
  // zeroed matrix block, so they contribute exactly nothing.
  struct Plan {
    std::size_t n_batches = 0;         // total kLanes-wide batches
    std::size_t boundary_batches = 0;  // prefix of batches
    std::size_t n_boundary = 0;        // real (unpadded) element counts
    std::size_t n_interior = 0;
    // When every element matrix is (bitwise) symmetric — Laplace, mass,
    // the stabilized Stokes block — only the upper triangle is stored and
    // the matvec does 2 FMAs per loaded entry. The apply is memory-bound
    // on the matrix stream, so packing nearly halves its cost; detection
    // is exact, nonsymmetric operators (e.g. advection) use the full
    // layout.
    bool symmetric = false;
    std::vector<double> mats;       // full: [batch][i*bs+j][lane];
                                    // packed: [batch][upper-tri rowwise][lane]
    std::vector<std::int32_t> gbase;  // [batch][corner*4+slot][lane] = dof*nc
    std::vector<double> w_raw;      // [batch][(corner*4+slot)*nc+c][lane]
    std::vector<double> w_bc;       // w_raw with the Dirichlet mask folded in
    std::vector<std::uint8_t> slots;  // [batch] max constraint fan-in (1..4)
    std::vector<std::int32_t> owned_dirichlet;  // value idx < n_owned*nc
  };
  mutable Plan plan_;
  mutable bool plan_dirty_ = true;

  // Hot-path workspaces (mutable: apply/lift_bcs are logically const and
  // run every MINRES iteration — no per-application allocations).
  mutable std::vector<double> work_ax_, work_xe_, work_ye_;
};

}  // namespace alps::fem
