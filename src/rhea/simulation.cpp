#include "rhea/simulation.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string_view>
#include <thread>

#include "fem/operators.hpp"
#include "io/vtk.hpp"
#include "mesh/fields.hpp"
#include "obs/dump.hpp"
#include "obs/mem.hpp"
#include "obs/obs.hpp"
#include "obs/serve.hpp"
#include "obs/telemetry.hpp"
#include "octree/mark.hpp"
#include "octree/partition.hpp"
#include "rhea/diagnostics.hpp"

namespace alps::rhea {

namespace {

/// The calling rank's obs phase accumulators under the paper's names.
/// minres excludes the preconditioner applications nested inside it,
/// matching the historical PhaseTimers convention.
PhaseTimers read_phases() {
  PhaseTimers t;
  t.new_tree = obs::phase_seconds("amr.new_tree");
  t.coarsen_refine = obs::phase_seconds("amr.coarsen_refine");
  t.balance = obs::phase_seconds("amr.balance");
  t.partition = obs::phase_seconds("amr.partition");
  t.extract_mesh = obs::phase_seconds("amr.extract_mesh");
  t.interpolate_fields = obs::phase_seconds("amr.interpolate_fields");
  t.transfer_fields = obs::phase_seconds("amr.transfer_fields");
  t.mark_elements = obs::phase_seconds("amr.mark_elements");
  t.time_integration = obs::phase_seconds("energy.time_integration");
  t.stokes_assemble = obs::phase_seconds("stokes.assemble");
  t.amg_setup = obs::phase_seconds("amg.setup");
  t.amg_apply = obs::phase_seconds("amg.apply");
  t.minres =
      obs::phase_seconds("stokes.minres") - obs::phase_seconds("amg.apply");
  return t;
}

// Gauges the step report reads back from the analysis exchange. gauge_set
// keys on the pointer, so every name is one literal from these constants.
constexpr const char* kLocalElements = "mesh.local_elements";
constexpr const char* kStepVcycles = "amg.step_vcycles";
constexpr std::array<const char*, octree::kMaxLevel + 1> kLevelElements = {
    "mesh.level.00", "mesh.level.01", "mesh.level.02", "mesh.level.03",
    "mesh.level.04", "mesh.level.05", "mesh.level.06", "mesh.level.07",
    "mesh.level.08", "mesh.level.09", "mesh.level.10", "mesh.level.11",
    "mesh.level.12", "mesh.level.13", "mesh.level.14", "mesh.level.15",
    "mesh.level.16", "mesh.level.17", "mesh.level.18", "mesh.level.19"};

/// Gauge `name` of `rec` reduced over ranks ({sum 0, max 0} when absent).
obs::analysis::GaugeStat gauge(const obs::analysis::StepRecord& rec,
                               std::string_view name) {
  for (const obs::analysis::GaugeStat& g : rec.gauges)
    if (g.name == name) return g;
  return {};
}

/// One row per Picard iteration's Krylov solve, in order.
std::vector<obs::SolveRow> solve_rows(
    const std::vector<la::SolveResult>& solves) {
  std::vector<obs::SolveRow> rows;
  for (const la::SolveResult& r : solves)
    rows.push_back(
        {la::to_string(r.status), r.iterations, r.relative_residual});
  return rows;
}

}  // namespace

Simulation::Simulation(par::Comm& comm, SimConfig cfg)
    : comm_(&comm), cfg_(std::move(cfg)),
      forest_(Forest::new_uniform(comm, cfg_.conn, 0)) {
  base_ = read_phases();
  OBS_PHASE_SPAN("amr.new_tree");
  forest_ = Forest::new_uniform(comm, cfg_.conn, cfg_.init_level);
}

PhaseTimers operator-(PhaseTimers a, const PhaseTimers& b) {
  a.new_tree -= b.new_tree;
  a.coarsen_refine -= b.coarsen_refine;
  a.balance -= b.balance;
  a.partition -= b.partition;
  a.extract_mesh -= b.extract_mesh;
  a.interpolate_fields -= b.interpolate_fields;
  a.transfer_fields -= b.transfer_fields;
  a.mark_elements -= b.mark_elements;
  a.time_integration -= b.time_integration;
  a.minres -= b.minres;
  a.amg_setup -= b.amg_setup;
  a.amg_apply -= b.amg_apply;
  a.stokes_assemble -= b.stokes_assemble;
  return a;
}

PhaseTimers Simulation::timers() const { return read_phases() - base_; }

std::int64_t Simulation::global_elements() const {
  return comm_->allreduce_sum(forest_.tree().num_local());
}

void Simulation::set_mesh(Mesh m) {
  mesh_ = std::move(m);
  amg_cache_.bump_epoch();  // new mesh: every cached AMG structure is stale
  quad_weights_.clear();
}

void Simulation::initialize(
    const std::function<double(const std::array<double, 3>&)>& t0) {
  set_mesh(mesh::extract_mesh(*comm_, forest_));
  temperature_ = fem::interpolate(mesh_, t0);

  // Resolve the initial condition: a few mark/adapt/extract rounds where
  // the temperature is re-sampled analytically on the new mesh.
  for (int round = 0; round < cfg_.initial_adapt_rounds; ++round) {
    const std::vector<double> eta =
        gradient_indicator(mesh_, forest_.connectivity(), temperature_);
    octree::MarkOptions mopt;
    mopt.target_elements =
        cfg_.target_elements > 0 ? cfg_.target_elements : global_elements();
    mopt.tolerance = cfg_.mark_tolerance;
    mopt.coarsen_ratio = cfg_.coarsen_ratio;
    mopt.min_level = cfg_.min_level;
    mopt.max_level = cfg_.max_level;
    const std::vector<std::int8_t> flags =
        octree::mark_elements(*comm_, forest_.tree(), eta, mopt);
    forest_.tree().adapt(flags, cfg_.min_level, cfg_.max_level);
    forest_.balance(*comm_);
    forest_.partition(*comm_);
    set_mesh(mesh::extract_mesh(*comm_, forest_));
    temperature_ = fem::interpolate(mesh_, t0);
  }
  solution_.assign(static_cast<std::size_t>(mesh_.n_local) * 4, 0.0);
  update_velocity();
}

void Simulation::update_velocity() {
  if (cfg_.prescribed_velocity) {
    energy_.reset();
    for (std::int64_t d = 0; d < mesh_.n_local; ++d) {
      const auto v = cfg_.prescribed_velocity(
          mesh_.dof_coords[static_cast<std::size_t>(d)], time_);
      for (int c = 0; c < 3; ++c)
        solution_[static_cast<std::size_t>(d) * 4 + static_cast<std::size_t>(c)] =
            v[static_cast<std::size_t>(c)];
      solution_[static_cast<std::size_t>(d) * 4 + 3] = 0.0;
    }
    return;
  }
  energy_.reset();  // velocity changes invalidate the SUPG operator
  // StokesSolver accumulates the stokes.assemble / amg.setup / amg.apply /
  // stokes.minres obs phases itself; the PicardResult timings are only for
  // callers outside a rank context.
  last_stokes_ = stokes::solve_nonlinear_stokes(
      *comm_, mesh_, forest_.connectivity(), cfg_.law, temperature_,
      solution_, cfg_.picard, &amg_cache_);
}

void Simulation::extract_and_rebuild(std::span<const double> element_temps) {
  {
    OBS_PHASE_SPAN("amr.extract_mesh");
    // One ghost layer per adaptation, shared with the extractor. The
    // incremental path reuses the previous mesh's corner constraints when
    // ownership ranges are unchanged (no repartition since the last
    // extraction) and falls back to a full rebuild otherwise.
    std::vector<octree::Octant> ghosts =
        mesh::ghost_layer(*comm_, forest_.tree(), forest_.connectivity());
    mesh::ExtractStats stats;
    set_mesh(mesh::extract_mesh_incremental(*comm_, forest_, std::move(ghosts),
                                            mesh_, &stats));
    last_extract_ = stats;
  }
  temperature_ = mesh::from_element_values(*comm_, mesh_, element_temps);
  solution_.assign(static_cast<std::size_t>(mesh_.n_local) * 4, 0.0);
  energy_.reset();
}

void Simulation::adapt_once() {
  AdaptationStats stats;
  octree::LinearOctree& tree = forest_.tree();

  // MARKELEMENTS.
  std::vector<std::int8_t> flags;
  {
    OBS_PHASE_SPAN("amr.mark_elements");
    std::vector<double> eta;
    if (cfg_.goal_region) {
      eta = adjoint_indicator(*comm_, mesh_, forest_.connectivity(),
                              temperature_, solution_, cfg_.goal_region,
                              cfg_.energy.kappa, cfg_.adjoint_pseudo_steps);
    } else if (cfg_.strain_weight > 0.0) {
      eta = yielding_indicator(mesh_, forest_.connectivity(), temperature_,
                               solution_, cfg_.strain_weight);
    } else {
      eta = gradient_indicator(mesh_, forest_.connectivity(), temperature_);
    }
    octree::MarkOptions mopt;
    mopt.target_elements =
        cfg_.target_elements > 0 ? cfg_.target_elements : global_elements();
    mopt.tolerance = cfg_.mark_tolerance;
    mopt.coarsen_ratio = cfg_.coarsen_ratio;
    mopt.min_level = cfg_.min_level;
    mopt.max_level = cfg_.max_level;
    flags = octree::mark_elements(*comm_, tree, eta, mopt);
  }

  // Snapshot old state and element-value field.
  std::vector<double> ev = mesh::to_element_values(mesh_, temperature_);
  const std::vector<octree::Octant> old_leaves = tree.leaves();

  // COARSENTREE + REFINETREE.
  {
    OBS_PHASE_SPAN("amr.coarsen_refine");
    tree.adapt(flags, cfg_.min_level, cfg_.max_level);
  }
  const std::int64_t n_after_adapt = comm_->allreduce_sum(tree.num_local());

  // Fig. 5 statistics: what marking alone did (balance additions are
  // counted separately, matching the paper's categories).
  {
    const octree::Correspondence corr_adapt =
        octree::compute_correspondence(old_leaves, tree.leaves());
    std::int64_t refined = 0, coarsened = 0, unchanged = 0;
    std::int64_t last_refined_old = -1;
    for (const auto& en : corr_adapt.entries) {
      switch (en.kind) {
        case octree::Correspondence::Kind::kSame:
          unchanged++;
          break;
        case octree::Correspondence::Kind::kRefined:
          if (en.old_begin != last_refined_old) {
            refined++;
            last_refined_old = en.old_begin;
          }
          break;
        case octree::Correspondence::Kind::kCoarsened:
          coarsened += en.old_end - en.old_begin;
          break;
      }
    }
    stats.refined = comm_->allreduce_sum(refined);
    stats.coarsened = comm_->allreduce_sum(coarsened);
    stats.unchanged = comm_->allreduce_sum(unchanged);
  }

  // BALANCETREE.
  {
    OBS_PHASE_SPAN("amr.balance");
    forest_.balance(*comm_);
  }
  stats.balance_added =
      comm_->allreduce_sum(tree.num_local()) - n_after_adapt;

  // INTERPOLATEFIELDS.
  {
    OBS_PHASE_SPAN("amr.interpolate_fields");
    const octree::Correspondence corr =
        octree::compute_correspondence(old_leaves, tree.leaves());
    ev = mesh::interpolate_element_values(old_leaves, tree.leaves(), corr, ev);
  }

  // PARTITIONTREE + TRANSFERFIELDS. octree::partition accumulates the two
  // stages into the amr.partition / amr.transfer_fields phases itself.
  // With a partition_threshold set, adaptations that keep the element
  // distribution balanced enough skip both stages; ownership ranges then
  // stay fixed and EXTRACTMESH below runs incrementally.
  bool repartition = true;
  if (cfg_.partition_threshold > 0.0) {
    const std::int64_t total = comm_->allreduce_sum(tree.num_local());
    const std::int64_t mx = comm_->allreduce_max(tree.num_local());
    const double imbalance =
        total > 0 ? static_cast<double>(mx) * comm_->size() /
                        static_cast<double>(total)
                  : 1.0;
    repartition = imbalance > cfg_.partition_threshold;
  }
  if (repartition) {
    octree::LeafPayload payload{8, std::move(ev)};
    octree::LeafPayload* ps[] = {&payload};
    forest_.partition(*comm_, ps);
    ev = std::move(payload.data);
  }

  // EXTRACTMESH + nodal rebuild.
  extract_and_rebuild(ev);

  // Level histogram and totals, in one reduction.
  using Hist = std::array<std::int64_t, 20>;
  Hist hist{};
  for (const auto& o : tree.leaves())
    hist[static_cast<std::size_t>(o.level)]++;
  stats.per_level = comm_->allreduce(hist, [](const Hist& a, const Hist& b) {
    Hist r;
    for (std::size_t l = 0; l < r.size(); ++l) r[l] = a[l] + b[l];
    return r;
  });
  for (const std::int64_t n : stats.per_level) stats.total_elements += n;
  adapt_history_.push_back(stats);
}

void Simulation::run(int steps) {
  const obs::CounterId vcycles_id = obs::wellknown::amg_vcycles();
  for (int s = 0; s < steps; ++s) {
    const std::uint64_t vc0 = obs::counter_value(comm_->rank(), vcycles_id);
    const PhaseTimers phases0 = timers();
    bool adapted = false;
    // True only when a Stokes solve ran THIS step: last_stokes_ persists
    // across steps, and neither the telemetry record nor the endpoint's
    // stagnation tracker may report a stale result on energy-only steps.
    bool stokes_solved = false;
    if (steps_ > 0 && cfg_.adapt_every > 0 && steps_ % cfg_.adapt_every == 0) {
      adapt_once();
      update_velocity();
      adapted = true;
      stokes_solved = !cfg_.prescribed_velocity;
    } else if (!cfg_.prescribed_velocity && cfg_.stokes_every > 0 &&
               steps_ % cfg_.stokes_every == 0 && steps_ > 0) {
      update_velocity();
      stokes_solved = true;
    } else if (cfg_.prescribed_velocity && cfg_.time_dependent_velocity) {
      update_velocity();  // analytic refresh for time-dependent fields
    }

    double dt = 0.0;
    {
      OBS_PHASE_SPAN("energy.time_integration");
      if (!energy_)
        energy_ = std::make_unique<energy::EnergySolver>(
            *comm_, mesh_, forest_.connectivity(), solution_, cfg_.energy);
      dt = energy_->stable_dt(*comm_);
      // Slow-rank test hook: stable_dt's allreduce just synchronized all
      // ranks, so sleeping here delays this rank's halo sends inside the
      // energy step — the other ranks' blocked receives must show up as
      // late-sender time attributed to cfg_.slow_rank.
      if (comm_->rank() == cfg_.slow_rank && cfg_.slow_rank_us > 0)
        std::this_thread::sleep_for(
            std::chrono::microseconds(cfg_.slow_rank_us));
      energy_->step(*comm_, temperature_, dt);
      time_ += dt;
      steps_++;
    }

    if (steps_ == cfg_.nan_inject_step && comm_->rank() == 0 &&
        !temperature_.empty())
      temperature_[0] = std::numeric_limits<double>::quiet_NaN();

    // The step report's one exchange: every cross-rank fact it needs
    // travels as a gauge in the analysis blob. Both consumers' flags are
    // process-global, so every rank takes the same branch.
    const bool report = obs::telemetry_enabled() || obs::serve_active();
    obs::analysis::StepRecord arec;
    if (report) {
      set_step_gauges(obs::counter_value(comm_->rank(), vcycles_id) - vc0);
      arec = obs::analysis::analyze_step(*comm_, steps_);
    }

    // Memory accounting + aggregation every step (decoupled from the
    // report gate: the drift detector must run even without telemetry).
    // analyze_memory is collective; mem_enabled() is process-global.
    obs::analysis::MemRecord mrec;
    std::string drift_json;
    const bool mem_on = obs::mem_enabled();
    if (mem_on) {
      account_memory();
      mrec = obs::analysis::analyze_memory(*comm_, steps_);
      drift_json = update_mem_drift(mrec, adapted);
    }

    if (report)
      report_step(dt, adapted, stokes_solved, timers() - phases0, arec,
                  mem_on ? &mrec : nullptr, drift_json);
    // The flight recorder's memory.json carries this step's memory record
    // and reason.txt the drift verdict; the drift block itself is in the
    // telemetry tail only when telemetry is on (no record is emitted
    // otherwise). The trip is computed from allgathered data, so every
    // rank reaches this together.
    if (mem_drift_trip_) mem_drift_panic();
    if (cfg_.sentinels) check_sentinels();
  }
}

void Simulation::account_memory() {
  const mesh::Mesh::MemoryBytes mb = mesh_.memory_bytes();
  amg::DistAmg::MemoryBytes ab;
  for (const auto& a : amg_cache_.amg) {
    if (!a) continue;
    const amg::DistAmg::MemoryBytes m = a->memory_bytes();
    ab.operators += m.operators;
    ab.interpolation += m.interpolation;
    ab.rap += m.rap;
    ab.coarse += m.coarse;
    ab.scratch += m.scratch;
  }
  // Synthetic linear leak for the drift-detector acceptance test.
  const std::uint64_t inject =
      (comm_->rank() == cfg_.mem_drift_inject_rank &&
       cfg_.mem_drift_inject_bytes > 0)
          ? static_cast<std::uint64_t>(steps_) *
                static_cast<std::uint64_t>(cfg_.mem_drift_inject_bytes)
          : 0;
  obs::mem_report({
      {"forest.octants", forest_.memory_bytes()},
      {"mesh.topology", mb.topology},
      {"mesh.dofs", mb.dofs},
      {"mesh.halo", mb.halo},
      {"fem.plan", energy_ ? energy_->op().memory_bytes() : 0},
      {"energy.fields", energy_ ? energy_->memory_bytes() : 0},
      {"rhea.fields", obs::vec_bytes(temperature_) + obs::vec_bytes(solution_)},
      {"rhea.quad_weights", obs::vec_bytes(quad_weights_)},
      {"amg.operators", ab.operators},
      {"amg.interpolation", ab.interpolation},
      {"amg.rap_plan", ab.rap},
      {"amg.coarse", ab.coarse},
      // What reuse keeps alive beyond the operators: the cycle workspaces.
      {"amg.cache", ab.scratch},
      {"par.mailbox", comm_->pending_recv_bytes()},
      {"obs.self", obs::self_memory_bytes()},
      {"obs.telemetry", obs::telemetry_tail_bytes()},
      {"test.drift_inject", inject},
  });
}

std::string Simulation::update_mem_drift(const obs::analysis::MemRecord& mrec,
                                         bool adapted) {
  if (adapted) {
    // Footprint discontinuities across an adaptation are expected; start
    // a fresh window on the new mesh.
    mem_window_.clear();
    mem_window_rss_.clear();
  }
  mem_window_.push_back(mrec.acc_by_rank);
  mem_window_rss_.push_back(mrec.rss_available ? mrec.rss_max : 0);
  const std::size_t w =
      static_cast<std::size_t>(std::max(3, cfg_.mem_drift_window));
  while (mem_window_.size() > w) {
    mem_window_.erase(mem_window_.begin());
    mem_window_rss_.erase(mem_window_rss_.begin());
  }
  if (mem_window_.size() < w) return {};

  // Least-squares slope of y over sample index 0..n-1.
  const std::size_t n = mem_window_.size();
  const auto slope_of = [n](const std::function<double(std::size_t)>& y) {
    const double xbar = static_cast<double>(n - 1) / 2.0;
    double ybar = 0.0;
    for (std::size_t i = 0; i < n; ++i) ybar += y(i);
    ybar /= static_cast<double>(n);
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double dx = static_cast<double>(i) - xbar;
      num += dx * (y(i) - ybar);
      den += dx * dx;
    }
    return num / den;
  };

  const std::size_t ranks = mem_window_.front().size();
  double max_slope = 0.0;
  int arg = -1;
  for (std::size_t r = 0; r < ranks; ++r) {
    const double s = slope_of([this, r](std::size_t i) {
      return static_cast<double>(mem_window_[i][r]);
    });
    if (arg < 0 || s > max_slope) {
      max_slope = s;
      arg = static_cast<int>(r);
    }
  }
  const double rss_slope = slope_of([this](std::size_t i) {
    return static_cast<double>(mem_window_rss_[i]);
  });

  const bool warn = max_slope > cfg_.mem_drift_warn_bytes_per_step;
  const bool panic = cfg_.mem_drift_panic_bytes_per_step > 0.0 &&
                     max_slope > cfg_.mem_drift_panic_bytes_per_step;
  if (panic && !mem_drift_trip_) {
    mem_drift_trip_ = true;
    std::ostringstream os;
    os << "memory drift: rank " << arg << " accounted bytes growing ~"
       << static_cast<long long>(max_slope) << " bytes/step over last " << n
       << " steps";
    mem_drift_reason_ = os.str();
  }

  obs::TelemetryRecord drift;
  return drift.field("window", w)
      .field("samples", n)
      .field("slope_bytes_per_step", max_slope)
      .field("rank", arg)
      .field("rss_slope_bytes_per_step", rss_slope)
      .field("warn", warn)
      .field("panic", panic)
      .json();
}

void Simulation::mem_drift_panic() {
  // Mirrors check_sentinels: the trip was derived from allgathered data,
  // so every rank arrives here together and the barriers keep the other
  // rank threads quiescent while rank 0 reads their obs slots.
  comm_->barrier();
  if (comm_->rank() == 0) {
    obs::metrics_mark_unhealthy(mem_drift_reason_);
    obs::panic_dump(mem_drift_reason_);
  }
  comm_->barrier();
  throw SentinelError(mem_drift_reason_);
}

void Simulation::set_step_gauges(std::uint64_t step_vcycles) {
  std::array<std::int64_t, kLevelElements.size()> hist{};
  for (const auto& o : forest_.tree().leaves())
    hist[static_cast<std::size_t>(o.level)]++;
  for (std::size_t l = 0; l < hist.size(); ++l)
    obs::gauge_set(kLevelElements[l], static_cast<double>(hist[l]));
  obs::gauge_set(kLocalElements,
                 static_cast<double>(forest_.tree().num_local()));
  obs::gauge_set(kStepVcycles, static_cast<double>(step_vcycles));
}

void Simulation::report_step(double dt, bool adapted, bool stokes_solved,
                             const PhaseTimers& step_phases,
                             const obs::analysis::StepRecord& arec,
                             const obs::analysis::MemRecord* mem,
                             const std::string& drift_json) {
  const bool telemetry = obs::telemetry_enabled();
  PhysicsDiagnostics phys;
  if (telemetry) {
    if (quad_weights_.empty())
      quad_weights_ = fem::element_quad_weights(mesh_, forest_.connectivity());
    phys = compute_physics_diagnostics(*comm_, mesh_, quad_weights_,
                                       temperature_, solution_,
                                       cfg_.energy.kappa);
  }
  if (comm_->rank() != 0) return;

  const obs::analysis::GaugeStat elems = gauge(arec, kLocalElements);
  const auto elements = static_cast<std::int64_t>(elems.sum);
  const double imbalance =
      elems.sum > 0 ? elems.max * comm_->size() / elems.sum : 1.0;
  // Solver fields describe this step's Stokes solve only.
  const std::vector<obs::SolveRow> solves =
      stokes_solved ? solve_rows(last_stokes_.solves)
                    : std::vector<obs::SolveRow>{};

  if (telemetry) {
    std::array<std::int64_t, kLevelElements.size()> hist{};
    std::size_t levels = 1;
    for (std::size_t l = 0; l < hist.size(); ++l) {
      hist[l] = static_cast<std::int64_t>(gauge(arec, kLevelElements[l]).sum);
      if (hist[l] > 0) levels = l + 1;
    }
    obs::TelemetryRecord rec;
    rec.field("step", steps_)
        .field("time", time_)
        .field("dt", dt)
        .field("ranks", comm_->size())
        .field("elements", elements)
        .field("dofs", mesh_.n_global)
        .field("partition_imbalance", imbalance)
        .field("per_level",
               std::span<const std::int64_t>(hist.data(), levels));
    if (!solves.empty()) {
      // Every rank runs the same V-cycles in lockstep: the per-solve
      // count is the max over ranks, not the rank sum.
      rec.field("picard_iterations", last_stokes_.iterations)
          .field("amg_vcycles",
                 static_cast<std::uint64_t>(gauge(arec, kStepVcycles).max));
      obs::json_solves(rec, "solves", solves);
    }
    rec.field("nusselt", phys.nusselt)
        .field("v_rms", phys.v_rms)
        .field("t_min", phys.t_min)
        .field("t_max", phys.t_max)
        .field("t_mean", phys.t_mean);
    // Rank 0's per-phase seconds for this step: the AMR cycle stages (all
    // ~0 on non-adapting steps), the extraction reuse statistics of the
    // most recent EXTRACTMESH, and the solver phases so consumers can
    // compute the AMR share of the step (Fig. 10).
    rec.obj_open("timings")
        .field("adapted", adapted)
        .field("mark", step_phases.mark_elements)
        .field("coarsen_refine", step_phases.coarsen_refine)
        .field("balance", step_phases.balance)
        .field("partition", step_phases.partition)
        .field("extract", step_phases.extract_mesh)
        .field("interpolate", step_phases.interpolate_fields)
        .field("transfer", step_phases.transfer_fields)
        .field("time_integration", step_phases.time_integration)
        .field("stokes", step_phases.minres + step_phases.amg_setup +
                             step_phases.amg_apply +
                             step_phases.stokes_assemble);
    if (adapted)
      rec.field("extract_reused", last_extract_.reused)
          .field("extract_recomputed", last_extract_.recomputed)
          .field("extract_fallback", last_extract_.fallback);
    rec.obj_close()
        .field_json("critical_path", obs::analysis::critical_path_json(arec))
        .field_json("wait_states", obs::analysis::wait_states_json(arec))
        .field_json("latency", obs::analysis::latency_json(arec));
    if (mem != nullptr)
      rec.field_json("memory", obs::analysis::memory_json(*mem, mesh_.n_global,
                                                          drift_json));
    obs::telemetry_emit(rec);
  }

  if (obs::serve_active()) {
    obs::MetricsSnapshot snap;
    snap.step = steps_;
    snap.sim_time = time_;
    snap.dt = dt;
    snap.dofs = mesh_.n_global;
    snap.ranks = comm_->size();
    snap.elements = elements;
    snap.partition_imbalance = imbalance;
    snap.cp_imbalance = arec.cp_imbalance;
    snap.solves = solves;
    if (!solves.empty()) snap.picard_iterations = last_stokes_.iterations;
    snap.counters = arec.counters;
    snap.hists = obs::analysis::merged_histograms();
    for (const obs::analysis::PhaseWaits& w : arec.waits)
      snap.wait_blocked_s += w.w.blocked_s();
    if (mem != nullptr && mem->enabled) {
      snap.mem_available = true;
      snap.mem_accounted_total = mem->acc_total;
      snap.mem_rss_max = mem->rss_available ? mem->rss_max : 0;
    }
    obs::metrics_publish(snap);
  }
}

void Simulation::check_sentinels() {
  bool bad = false;
  for (std::int64_t i = 0; i < mesh_.n_owned && !bad; ++i)
    bad = !std::isfinite(temperature_[static_cast<std::size_t>(i)]);
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(mesh_.n_owned) * 4 && !bad; ++i)
    bad = !std::isfinite(solution_[i]);
  if (!comm_->allreduce_or(bad)) return;

  // Every rank reaches this point together (collective trip), so the
  // collective snapshot and the barriers below are safe.
  const std::string reason =
      "sentinel: non-finite temperature/solution after step " +
      std::to_string(steps_) + " (t = " + std::to_string(time_) + ")";
  const std::string dir = obs::dump_dir();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (!ec) {
    // Field snapshot: temperature plus the three velocity components.
    // NaNs are written as-is; ParaView renders them as holes.
    std::vector<io::VtkField> fields;
    fields.push_back(
        {"temperature", mesh::to_element_values(mesh_, temperature_)});
    std::vector<double> comp(static_cast<std::size_t>(mesh_.n_local));
    const char* names[3] = {"vx", "vy", "vz"};
    for (int c = 0; c < 3; ++c) {
      for (std::int64_t i = 0; i < mesh_.n_local; ++i)
        comp[static_cast<std::size_t>(i)] =
            solution_[static_cast<std::size_t>(i) * 4 +
                      static_cast<std::size_t>(c)];
      fields.push_back({names[c], mesh::to_element_values(mesh_, comp)});
    }
    io::write_vtk(*comm_, forest_.connectivity(), mesh_, dir + "/snapshot.vtk",
                  fields);
  }
  // Rank 0 reads every rank's obs slot in panic_dump; the surrounding
  // barriers keep the other rank threads quiescent (and provide the
  // happens-before edges) while it does.
  comm_->barrier();
  if (comm_->rank() == 0) {
    obs::metrics_mark_unhealthy(reason);
    obs::panic_dump(reason);
  }
  comm_->barrier();
  throw SentinelError(reason);
}

}  // namespace alps::rhea
