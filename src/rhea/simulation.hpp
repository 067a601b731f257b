#pragma once
// RHEA end-to-end simulation driver: couples the SUPG energy equation,
// the nonlinear Stokes solve, and the full AMR cycle of Fig. 4 (mark ->
// coarsen/refine -> balance -> interpolate -> partition -> transfer ->
// extract). Every phase is timed under the paper's function names so the
// benches can print the Fig. 7 / Fig. 8 / Fig. 10 breakdowns, and every
// adaptation step records the Fig. 5 statistics.

#include <functional>
#include <stdexcept>

#include "energy/energy.hpp"
#include "obs/analysis.hpp"
#include "rhea/indicator.hpp"
#include "rhea/viscosity.hpp"
#include "stokes/picard.hpp"

namespace alps::rhea {

using forest::Connectivity;
using forest::Forest;
using mesh::Mesh;

/// Cumulative wall-clock seconds per phase (paper terminology). Since the
/// obs migration this is a *view*: Simulation::timers() materializes it
/// from the per-rank obs phase accumulators (obs::phase_seconds), minus a
/// snapshot taken at construction so several Simulations per rank body
/// don't bleed into each other.
struct PhaseTimers {
  double new_tree = 0, coarsen_refine = 0, balance = 0, partition = 0,
         extract_mesh = 0, interpolate_fields = 0, transfer_fields = 0,
         mark_elements = 0, time_integration = 0, minres = 0, amg_setup = 0,
         amg_apply = 0, stokes_assemble = 0;

  double amr_total() const {
    return coarsen_refine + balance + partition + extract_mesh +
           interpolate_fields + transfer_fields + mark_elements;
  }
  double total() const {
    return new_tree + amr_total() + time_integration + minres + amg_setup +
           amg_apply + stokes_assemble;
  }
};

/// Field-wise difference: the seconds spent between two readings.
PhaseTimers operator-(PhaseTimers a, const PhaseTimers& b);

/// Per-adaptation-step statistics (Fig. 5).
struct AdaptationStats {
  std::int64_t refined = 0;         // old elements split
  std::int64_t coarsened = 0;       // old elements absorbed into parents
  std::int64_t unchanged = 0;       // old elements kept
  std::int64_t balance_added = 0;   // extra elements from BalanceTree
  std::int64_t total_elements = 0;  // after the full cycle
  std::array<std::int64_t, 20> per_level{};
};

struct SimConfig {
  Connectivity conn = Connectivity::unit_cube();
  int init_level = 3;
  int min_level = 2;
  int max_level = 7;
  int initial_adapt_rounds = 2;
  std::int64_t target_elements = 0;  // 0 = hold the current count
  double mark_tolerance = 0.08;
  double coarsen_ratio = 0.05;
  int adapt_every = 16;

  /// Element-imbalance ratio (max_rank_elements * P / total) above which
  /// an adaptation repartitions. 0 keeps the historical behavior of
  /// repartitioning on every adaptation. When a threshold is set and the
  /// mesh stays balanced enough, PARTITIONTREE/TRANSFERFIELDS are skipped
  /// and the subsequent EXTRACTMESH runs incrementally (ownership ranges
  /// unchanged), reusing the corner constraints of untouched elements.
  double partition_threshold = 0.0;

  /// When set, velocity is prescribed analytically (transport-only runs,
  /// paper Sec. V); otherwise the nonlinear Stokes system is solved.
  std::function<std::array<double, 3>(const std::array<double, 3>&, double)>
      prescribed_velocity;
  /// Set when prescribed_velocity actually depends on time; a static field
  /// is sampled once per mesh rebuild instead of every step.
  bool time_dependent_velocity = false;

  energy::EnergyOptions energy{};
  stokes::PicardOptions picard{};
  stokes::ViscosityLaw law;  // required in convection mode

  /// When set, MARKELEMENTS is driven by the goal-oriented adjoint
  /// indicator instead of the plain gradient indicator: refinement
  /// concentrates where errors can still influence J(T) = int_goal T.
  std::function<double(const std::array<double, 3>&)> goal_region;
  int adjoint_pseudo_steps = 10;
  double strain_weight = 0.0;  // yielding-zone term in the indicator
  int stokes_every = 1;        // velocity update cadence (convection mode)

  /// Scan temperature and solution for NaN/Inf after every step (one local
  /// sweep + one allreduce_or). A trip writes the flight-recorder bundle
  /// (obs::panic_dump + a VTK field snapshot under ALPS_DUMP_DIR) on every
  /// rank's behalf and throws SentinelError.
  bool sentinels = true;
  /// Test hook: poison temperature_[0] on rank 0 at this step number to
  /// exercise the sentinel / flight-recorder path (-1 = never).
  int nan_inject_step = -1;
  /// Test hook: delay this rank by slow_rank_us microseconds inside every
  /// energy step, right before its halo sends are posted (-1 = never).
  /// The wait-state analyzer must then attribute the other ranks'
  /// late-sender time to this rank (obs::analysis acceptance check).
  int slow_rank = -1;
  int slow_rank_us = 0;

  /// Memory-drift detector (obs::mem): per-rank accounted bytes are
  /// linear-fitted over a sliding window of this many consecutive
  /// non-adapting steps (the window resets on every adaptation, where
  /// footprint changes are expected). Minimum 3.
  int mem_drift_window = 8;
  /// Fitted growth rate (bytes/step) above which a drift warning is
  /// embedded in the telemetry memory block's "drift" member.
  double mem_drift_warn_bytes_per_step = 1 << 20;
  /// Growth rate above which the flight recorder trips: the telemetry
  /// record is still emitted, then every rank writes/throws like the NaN
  /// sentinels (obs::panic_dump names the leaking rank, SentinelError
  /// propagates, exit code 3 through rhea_main). 0 = never panic.
  double mem_drift_panic_bytes_per_step = 0.0;
  /// Test hook: report steps_ * mem_drift_inject_bytes into the
  /// "test.drift_inject" scope on this rank (-1 = never), a synthetic
  /// linear leak that provably trips the detector.
  int mem_drift_inject_rank = -1;
  std::int64_t mem_drift_inject_bytes = 0;
};

/// Thrown (on every rank) when the NaN/Inf sentinels trip; the
/// flight-recorder bundle has already been written when this propagates.
class SentinelError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Simulation {
 public:
  Simulation(par::Comm& comm, SimConfig cfg);

  /// Build the initial adapted mesh resolving T0 and set initial fields.
  void initialize(
      const std::function<double(const std::array<double, 3>&)>& t0);

  /// Advance `steps` time steps, adapting every cfg.adapt_every steps.
  void run(int steps);

  /// One adaptation cycle (public so benches can drive it directly).
  void adapt_once();

  const Mesh& mesh() const { return mesh_; }
  const Forest& forest() const { return forest_; }
  const std::vector<double>& temperature() const { return temperature_; }
  const std::vector<double>& solution() const { return solution_; }
  double time() const { return time_; }
  int steps_taken() const { return steps_; }
  /// This simulation's per-phase seconds on the calling rank, read from
  /// the obs phase accumulators. Call from inside the par::run rank body.
  PhaseTimers timers() const;
  const std::vector<AdaptationStats>& adapt_history() const {
    return adapt_history_;
  }
  std::int64_t global_elements() const;
  par::Comm& comm() { return *comm_; }

  /// Recompute the velocity (Stokes solve or prescription at `time_`).
  void update_velocity();

  /// Picard/MINRES statistics of the most recent Stokes solve; iterations
  /// is 0 until convection mode has solved at least once.
  const stokes::PicardResult& last_stokes() const { return last_stokes_; }

  /// What the most recent EXTRACTMESH did (element reuse vs recompute and
  /// whether the incremental path fell back to a full extraction).
  const mesh::ExtractStats& last_extract() const { return last_extract_; }

 private:
  /// Replace mesh_ and drop everything cached for the old one.
  void set_mesh(Mesh m);
  void extract_and_rebuild(std::span<const double> element_temps);
  /// Set this rank's gauges for the step's analysis exchange: element
  /// count, per-level element counts, and the step's V-cycle count.
  void set_step_gauges(std::uint64_t step_vcycles);
  /// The one per-step report. Builds the telemetry record and the metrics
  /// snapshot on rank 0 from one set of values, all derived from the
  /// analysis record's gauges; the only collective is the physics
  /// diagnostics' one allreduce (telemetry only). Solver fields cover this
  /// step's solve only (`stokes_solved`).
  void report_step(double dt, bool adapted, bool stokes_solved,
                   const PhaseTimers& step_phases,
                   const obs::analysis::StepRecord& arec,
                   const obs::analysis::MemRecord* mem,
                   const std::string& drift_json);
  void check_sentinels();

  /// Pull-model byte accounting: push every subsystem's current
  /// memory_bytes() into its obs::mem scope (once per step, cold path).
  void account_memory();
  /// Slide the drift window, fit per-rank growth, and return the drift
  /// JSON for the telemetry memory block ("" until the window is full).
  /// Sets mem_drift_trip_/mem_drift_reason_ when the panic threshold is
  /// exceeded; the throw happens later (after telemetry) in run().
  std::string update_mem_drift(const obs::analysis::MemRecord& mrec,
                               bool adapted);
  /// Collective panic path for a tripped drift detector (mirrors
  /// check_sentinels: barrier, rank-0 panic_dump, barrier, throw).
  [[noreturn]] void mem_drift_panic();

  par::Comm* comm_;
  SimConfig cfg_;
  Forest forest_;
  Mesh mesh_;
  std::vector<double> temperature_;  // nodal, n_local
  std::vector<double> solution_;     // 4-comp velocity+pressure
  double time_ = 0.0;
  int steps_ = 0;
  PhaseTimers base_;  // obs phase accumulators at construction time
  stokes::PicardResult last_stokes_;  // convection mode only
  mesh::ExtractStats last_extract_;   // most recent extraction
  std::vector<AdaptationStats> adapt_history_;
  // Cached SUPG operator; invalidated when the mesh or velocity changes.
  std::unique_ptr<energy::EnergySolver> energy_;
  // AMG hierarchies shared across Picard iterations and non-adapting
  // timesteps; its epoch is bumped on every mesh rebuild.
  amg::HierarchyCache amg_cache_;
  // fem::element_quad_weights of mesh_ for the physics diagnostics; filled
  // by the first telemetry report on a mesh, emptied by set_mesh.
  std::vector<std::array<double, fem::kQuad>> quad_weights_;
  // Drift-detector window: one row per non-adapting step, per-rank
  // accounted bytes (identical on every rank — analyze_memory allgathers
  // them — so the trip decision below is collective-safe without another
  // reduction). Cleared on every adaptation.
  std::vector<std::vector<std::uint64_t>> mem_window_;
  std::vector<std::uint64_t> mem_window_rss_;  // max-rank RSS per row
  bool mem_drift_trip_ = false;
  std::string mem_drift_reason_;
};

}  // namespace alps::rhea
