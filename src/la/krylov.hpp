#pragma once
// Krylov solvers used by RHEA (paper Sec. III): preconditioned MINRES for
// the symmetric indefinite stabilized Stokes system, and preconditioned
// CG for SPD subsystems. Operators and inner products are abstract so the
// same code runs on serial matrices and on distributed matrix-free
// operators (dot products then carry the allreduce).
//
// Convergence reporting is structured (DESIGN.md §8): every solve returns
// a SolveStatus — not just a converged bool — and can optionally record a
// per-iteration relative-residual history ring for telemetry and the
// flight recorder. Non-finite residuals terminate the iteration
// immediately instead of silently spinning to max_iterations.
//
// Stopping rule (DESIGN.md §8): both solvers measure the residual against
// the right-hand side, never against the initial guess's residual, so a
// better warm start starts closer to a fixed bar. MINRES stops when
// ||b - A x||_M / ||b||_M < rtol, with ||y||_M = sqrt(<M y, y>) in the
// preconditioner's norm; CG stops when ||b - A x||_2 / ||b||_2 < rtol.
// A warm start that already meets the rule returns with 0 iterations. A
// zero right-hand side has no scale of its own, so there the initial
// residual stands in for ||b||.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace alps::la {

/// y = Op(x); x and y have the same layout (owned + ghost for distributed).
using LinOp = std::function<void(std::span<const double>, std::span<double>)>;

/// Globally-consistent inner product (sums owned entries + allreduce in
/// the distributed case).
using DotFn =
    std::function<double(std::span<const double>, std::span<const double>)>;

/// One (a, b) operand pair of a fused inner-product round.
struct DotPair {
  std::span<const double> a, b;
};

/// Compute out[k] = <pairs[k].a, pairs[k].b> for every pair with a single
/// global synchronization (one multi-value allreduce in the distributed
/// case). The reduced-synchronization Krylov iterations issue all
/// independent dot products of a reduction point through one call, so a
/// CG iteration costs 2 global syncs instead of 3-5.
using MultiDotFn =
    std::function<void(std::span<const DotPair>, std::span<double>)>;

/// Lift a scalar DotFn into a MultiDotFn. No fusion happens — each pair
/// still reduces separately — so this is the compatibility path for
/// serial dots and existing callers; distributed operators should provide
/// a genuinely fused implementation (ElementOperator::as_multi_dot).
MultiDotFn multi_dot_from(DotFn dot);

/// Blocked pairwise (cascaded) summation of sum_i a[i]*b[i]: contiguous
/// blocks are summed naively, block sums combine pairwise, keeping the
/// rounding error O(log n) instead of O(n). This makes Krylov residual
/// histories reproducible across element-batch sizes and rank counts to
/// tight tolerance where naive left-to-right summation drifts.
double pairwise_dot(std::span<const double> a, std::span<const double> b);

/// Why a Krylov iteration stopped.
enum class SolveStatus : std::uint8_t {
  kConverged = 0,      // relative residual dropped below rtol
  kMaxIterations = 1,  // budget exhausted without meeting rtol
  kStagnated = 2,      // no new residual minimum for stagnation_window its
  kDiverged = 3,       // residual blew past divergence_tol, or breakdown
  kNonFinite = 4,      // NaN/Inf detected in the recurrence
};

/// Stable lower-case token for logs/telemetry ("converged", "diverged", ...).
const char* to_string(SolveStatus s);

struct SolveResult {
  int iterations = 0;
  /// The stopping rule's ratio at exit: ||r||_M / ||b||_M for MINRES (its
  /// Givens recurrence estimate), ||r||_2 / ||b||_2 for CG.
  double relative_residual = 0.0;
  bool converged = false;  // == (status == SolveStatus::kConverged)
  SolveStatus status = SolveStatus::kMaxIterations;
  /// Relative residual after each iteration, oldest first — the last
  /// `history_capacity` values when the solve ran longer than the ring.
  /// Empty when history_capacity == 0 or the solve took 0 iterations.
  std::vector<double> residual_history;
};

struct KrylovOptions {
  int max_iterations = 500;
  double rtol = 1e-8;
  /// Relative residual beyond which the solve is declared diverged.
  double divergence_tol = 1e8;
  /// Iterations without a new all-time-best residual before declaring
  /// stagnation; 0 disables the check.
  int stagnation_window = 0;
  /// Capacity of the per-iteration residual history ring; 0 records none.
  int history_capacity = 0;
};

namespace detail {

/// Fixed-capacity ring keeping the most recent residuals in order.
class ResidualRing {
 public:
  explicit ResidualRing(int capacity)
      : cap_(capacity > 0 ? static_cast<std::size_t>(capacity) : 0) {}

  void push(double relres) {
    if (cap_ == 0) return;
    if (ring_.size() < cap_) {
      ring_.push_back(relres);
    } else {
      ring_[head_] = relres;
      head_ = (head_ + 1) % cap_;
    }
  }

  /// Drain into a chronologically-ordered vector.
  std::vector<double> take() {
    std::vector<double> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i)
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    ring_.clear();
    head_ = 0;
    return out;
  }

 private:
  std::size_t cap_;
  std::size_t head_ = 0;
  std::vector<double> ring_;
};

/// Shared per-iteration bookkeeping: history ring, stagnation tracking,
/// divergence and non-finite classification. update() returns false when
/// the iteration must stop, with `result` already classified.
class ConvergenceMonitor {
 public:
  ConvergenceMonitor(const KrylovOptions& opt, SolveResult& result)
      : opt_(opt), res_(result), ring_(opt.history_capacity) {}

  /// Record the residual of iteration `j` and classify. Returns true to
  /// keep iterating.
  bool update(int j, double relres);

  /// Close out the solve: linearize the history ring and sync the
  /// `converged` mirror with the status.
  void finish();

 private:
  const KrylovOptions& opt_;
  SolveResult& res_;
  ResidualRing ring_;
  double best_ = -1.0;  // all-time-best residual (-1: none yet)
  int best_iter_ = 0;
};

}  // namespace detail

/// Preconditioned MINRES (Paige & Saunders; implementation follows Elman,
/// Silvester & Wathen). `precond` must be SPD; pass identity for none.
/// On entry x is the initial guess; on exit the approximate solution.
/// Stops on ||r||_M / ||b||_M < rtol; the extra preconditioner application
/// for ||b||_M shares the one startup reduction with the initial residual,
/// so a solve issues exactly 1 + 2 * iterations global synchronization
/// rounds through `dots` (counted in the "comm.sync.minres" obs counter).
SolveResult minres(const LinOp& op, std::span<const double> b,
                   std::span<double> x, const LinOp& precond,
                   const MultiDotFn& dots, const KrylovOptions& opt);
inline SolveResult minres(const LinOp& op, std::span<const double> b,
                          std::span<double> x, const LinOp& precond,
                          const DotFn& dot, const KrylovOptions& opt) {
  return minres(op, b, x, precond, multi_dot_from(dot), opt);
}

/// Preconditioned conjugate gradients for SPD systems. Stops on
/// ||r||_2 / ||b||_2 < rtol. The two dot products following the
/// preconditioner application — <r,r> for the convergence test and <r,z>
/// for beta — fuse into one reduction, and <b,b> joins the startup one,
/// so a solve costs exactly 1 + 2 * iterations global syncs
/// ("comm.sync.cg") instead of 3 per iteration.
SolveResult cg(const LinOp& op, std::span<const double> b,
               std::span<double> x, const LinOp& precond,
               const MultiDotFn& dots, const KrylovOptions& opt);
inline SolveResult cg(const LinOp& op, std::span<const double> b,
                      std::span<double> x, const LinOp& precond,
                      const DotFn& dot, const KrylovOptions& opt) {
  return cg(op, b, x, precond, multi_dot_from(dot), opt);
}

/// Convenience identity preconditioner.
inline LinOp identity_op() {
  return [](std::span<const double> x, std::span<double> y) {
    std::copy(x.begin(), x.end(), y.begin());
  };
}

}  // namespace alps::la
