// rheabench: the program behind perfbench/run.py. It runs one benchmark
// workload of rhea::Simulation in this process (ranks are threads) and
// prints one JSON object per line on stdout:
//
//   {"kind":"episode",...}  one untraced episode: repeated set-ups, then
//                           the pinned closed loop of timesteps, with
//                           per-step wall times, element counts, MINRES
//                           outcomes and the output checks;
//   {"kind":"traced",...}   (--trace 1) the same episode driven step by
//                           step through the modules' public functions,
//                           with the spans written to <out>/spans.jsonl;
//   {"kind":"host",...}     host facts, computed working sets, peak RSS.
//
// run.py turns these records into the benchmark's metrics; see README.md.
//
// Usage:
//   rheabench --workload convection|transport
//             --seconds S --trace 0|1 --out DIR
//             [--phase-x A --phase-y B] [--front-angle C]

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "energy/energy.hpp"
#include "mesh/fields.hpp"
#include "obs/analysis.hpp"
#include "obs/mem.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "octree/mark.hpp"
#include "par/runtime.hpp"
#include "rhea/diagnostics.hpp"
#include "rhea/indicator.hpp"
#include "rhea/simulation.hpp"
#include "rhea/viscosity.hpp"
#include "stokes/picard.hpp"

using namespace alps;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

using Field = std::function<double(const std::array<double, 3>&)>;

// ---------------------------------------------------------------------------
// Workloads

struct Options {
  std::string workload;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".";
  double phase_x = 0.0, phase_y = 0.0;  // convection perturbation phases
  double front_angle = 0.0;             // transport front start angle
};

struct Workload {
  int ranks = 4;
  int steps = 8;
  // Set-ups per episode; setup_s is the median over all of a run's.
  int setups = 2;
  rhea::SimConfig cfg;
  Field t0;
  bool telemetry = false;
  // Stated band for every element count after set-up and after each step.
  std::int64_t elements_lo = 0, elements_hi = 0;
  // transport: the front's centroid must stay within this distance of the
  // analytic rotation of its start point.
  double centroid_tol = 0.0;
  double front_angle = 0.0;
};

// The rhea_main default configuration (8x4x1 bricks, levels 1-4, 5000
// elements, adapt every 2 steps, Ra 1e5, yielding sigma_y = 1, 2 Picard
// iterations, MINRES rtol 1e-5 / maxit 150).
rhea::SimConfig rhea_main_config() {
  rhea::SimConfig c;
  c.conn = forest::Connectivity::brick(8, 4, 1);
  c.init_level = 1;
  c.min_level = 1;
  c.max_level = 4;
  c.initial_adapt_rounds = 2;
  c.adapt_every = 2;
  c.target_elements = 5000;
  c.strain_weight = 0.5;
  c.picard.rayleigh = 1e5;
  c.picard.max_iterations = 2;
  c.picard.stokes.krylov.rtol = 1e-5;
  c.picard.stokes.krylov.max_iterations = 150;
  rhea::YieldingLawOptions y;
  y.sigma_y = 1.0;
  c.law = rhea::three_layer_yielding(y);
  return c;
}

// Conductive profile plus one seeded convective mode (the rhea_main
// perturbation with its x and y phases drawn from the seed).
Field convection_field(double phase_x, double phase_y) {
  return [phase_x, phase_y](const std::array<double, 3>& p) {
    const double conductive = 1.0 - p[2];
    const double pert = 0.08 * std::cos(M_PI * p[0] / 4.0 + phase_x) *
                        std::cos(M_PI * p[1] / 2.0 + phase_y) *
                        std::sin(M_PI * p[2]);
    return std::clamp(conductive + pert, 0.0, 1.0);
  };
}

Workload make_workload(const Options& o) {
  Workload w;
  if (o.workload == "convection") {
    // One rank: every collective waits for the slowest rank, so on the
    // shared 4-core host two busy co-tenant threads made P=4 runs 3x
    // slower and left P=1 runs unchanged.
    w.ranks = 1;
    w.steps = 8;
    w.cfg = rhea_main_config();
    w.t0 = convection_field(o.phase_x, o.phase_y);
    w.elements_lo = 3500;
    w.elements_hi = 7500;
  } else if (o.workload == "transport") {
    // The paper's Sec. V rotating front (examples/amr_transport.cpp) at
    // production resolution, with per-step telemetry on.
    w.ranks = 2;
    w.steps = 40;
    w.telemetry = true;
    rhea::SimConfig& c = w.cfg;
    c.init_level = 4;
    c.min_level = 2;
    c.max_level = 8;
    c.initial_adapt_rounds = 4;
    c.adapt_every = 2;
    c.target_elements = 40000;
    c.partition_threshold = 1.5;
    c.energy.kappa = 1e-6;
    c.energy.dirichlet_faces = 0b111111;
    c.prescribed_velocity = [](const std::array<double, 3>& p, double) {
      return std::array<double, 3>{-(p[1] - 0.5), (p[0] - 0.5), 0.0};
    };
    const double cx = 0.5 + 0.25 * std::cos(o.front_angle);
    const double cy = 0.5 + 0.25 * std::sin(o.front_angle);
    w.t0 = [cx, cy](const std::array<double, 3>& p) {
      const double dx = p[0] - cx, dy = p[1] - cy, dz = p[2] - 0.5;
      return std::exp(-100.0 * (dx * dx + dy * dy + dz * dz));
    };
    w.elements_lo = 28000;
    w.elements_hi = 56000;
    w.centroid_tol = 0.03;
    w.front_angle = o.front_angle;
  } else {
    throw std::runtime_error("unknown workload '" + o.workload + "'");
  }
  return w;
}

// ---------------------------------------------------------------------------
// JSON output

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <class T, class F>
std::string array(const std::vector<T>& v, F&& fmt) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) s += ",";
    s += fmt(v[i]);
  }
  return s + "]";
}

std::string nums(const std::vector<double>& v) {
  return array(v, [](double x) { return num(x); });
}

// ---------------------------------------------------------------------------
// Records shared by the untraced and the traced episode

struct SolveRec {
  int iters = 0;
  double relres = 0.0;
  bool converged = false;
};

std::string to_json(const SolveRec& s) {
  return "{\"iters\":" + std::to_string(s.iters) +
         ",\"relres\":" + num(s.relres) +
         ",\"converged\":" + (s.converged ? "true" : "false") + "}";
}

struct StepRec {
  double wall_s = 0.0;
  bool adapted = false;
  std::int64_t elements = 0;
  std::vector<SolveRec> solves;
};

std::string to_json(const StepRec& s) {
  return "{\"wall_s\":" + num(s.wall_s) +
         ",\"adapted\":" + (s.adapted ? "true" : "false") +
         ",\"elements\":" + std::to_string(s.elements) + ",\"solves\":" +
         array(s.solves, [](const SolveRec& r) { return to_json(r); }) + "}";
}

void append_solves(std::vector<SolveRec>& out,
                   const std::vector<la::SolveResult>& solves) {
  for (const la::SolveResult& r : solves)
    out.push_back({r.iterations, r.relative_residual,
                   r.status == la::SolveStatus::kConverged});
}

/// Output checks run on every rank after set-up and after every step
/// (collective). Failures are recorded on rank 0 only.
struct Checker {
  const Workload* w = nullptr;
  std::vector<std::string> failures;

  void fail(par::Comm& comm, const std::string& what) {
    if (comm.rank() == 0 && failures.size() < 20) failures.push_back(what);
  }

  void after_step(par::Comm& comm, const std::string& where,
                  const mesh::Mesh& m, std::span<const double> t,
                  std::span<const double> sol, std::int64_t elements) {
    bool bad = false;
    double tmax = -1e300;
    for (std::int64_t i = 0; i < m.n_owned; ++i) {
      const double v = t[static_cast<std::size_t>(i)];
      bad = bad || !std::isfinite(v);
      tmax = std::max(tmax, v);
    }
    for (std::size_t i = 0; i < static_cast<std::size_t>(m.n_owned) * 4; ++i)
      bad = bad || !std::isfinite(sol[i]);
    if (comm.allreduce_or(bad))
      fail(comm, where + ": non-finite temperature or solution");
    tmax = comm.allreduce_max(tmax);
    if (elements < w->elements_lo || elements > w->elements_hi)
      fail(comm, where + ": " + std::to_string(elements) +
                     " elements, outside [" + std::to_string(w->elements_lo) +
                     ", " + std::to_string(w->elements_hi) + "]");
    if (w->cfg.prescribed_velocity && !(tmax <= 1.0))
      fail(comm, where + ": T_max " + num(tmax) + " > 1");
  }

  /// End of an episode: 2:1 balance, and for transport the front's
  /// temperature-weighted centroid against the analytic rotation.
  void at_end(par::Comm& comm, const forest::Forest& f, const mesh::Mesh& m,
              std::span<const double> t, double time) {
    if (!f.is_balanced(comm)) fail(comm, "forest is not 2:1 balanced");
    if (!w->cfg.prescribed_velocity) return;
    double cx = 0, cy = 0, mass = 0;
    for (std::int64_t d = 0; d < m.n_owned; ++d) {
      const double tv = t[static_cast<std::size_t>(d)];
      const auto& p = m.dof_coords[static_cast<std::size_t>(d)];
      cx += tv * p[0];
      cy += tv * p[1];
      mass += tv;
    }
    cx = comm.allreduce_sum(cx);
    cy = comm.allreduce_sum(cy);
    mass = comm.allreduce_sum(mass);
    const double ax = 0.5 + 0.25 * std::cos(time + w->front_angle);
    const double ay = 0.5 + 0.25 * std::sin(time + w->front_angle);
    const double dist = std::hypot(cx / mass - ax, cy / mass - ay);
    if (!(dist <= w->centroid_tol))
      fail(comm, "front centroid " + num(dist) + " from the analytic rotation");
  }
};

std::string failures_json(const std::vector<std::string>& f) {
  return array(f, [](const std::string& s) {
    std::string q = "\"";
    for (char c : s) q += (c == '"' || c == '\\') ? '_' : c;
    return q + "\"";
  });
}

// ---------------------------------------------------------------------------
// Unit costs and working sets on the final mesh

struct Units {
  double fem_bytes = 0, fem_plan_bytes = 0, amg_bytes = 0, amg_nnz = 0;
  double mesh_bytes = 0, n_global = 0, amg_levels = 0, amg_complexity = 0;
  std::vector<double> apply_s, vcycle_s, amg_setup_s, amg_refresh_s;
};

/// Builds the Stokes solver of the final mesh (fresh hierarchies) and
/// reads its computed working set; with `timed`, also samples of repeated
/// microcalls: the 4-component operator apply, one velocity V-cycle, a
/// fresh DistAmg setup and a numeric refresh. Collective.
Units measure_units(par::Comm& comm, const mesh::Mesh& m,
                    const forest::Connectivity& conn,
                    std::span<const double> eta,
                    const stokes::StokesOptions& opt, bool timed) {
  amg::HierarchyCache hc;
  const stokes::StokesSolver solver(comm, m, conn, eta, opt, &hc);
  const fem::ElementOperator& op = solver.op();
  const amg::DistAmg& a0 = *hc.amg[0];
  Units u;
  const auto sum = [&comm](double v) { return comm.allreduce_sum(v); };
  u.fem_bytes = sum(static_cast<double>(op.memory_bytes()));
  u.fem_plan_bytes = sum(8.0 * static_cast<double>(op.plan_matrix_doubles()));
  double amg = 0;
  for (const auto& a : hc.amg) amg += static_cast<double>(a->memory_bytes().total());
  u.amg_bytes = sum(amg);
  u.amg_nnz = sum(static_cast<double>(a0.local_nnz()));
  const mesh::Mesh::MemoryBytes mb = m.memory_bytes();
  u.mesh_bytes = sum(static_cast<double>(mb.topology + mb.dofs + mb.halo));
  u.n_global = static_cast<double>(m.n_global);
  u.amg_levels = a0.num_levels();
  u.amg_complexity = a0.operator_complexity();
  if (!timed) return u;

  // Seconds per call of `f`, over `n` back-to-back calls between two
  // barriers (a batch amortizes the barrier's wake-up latency).
  const auto per_call = [&comm](int n, auto&& f) {
    comm.barrier();
    const double t0 = now_s();
    for (int i = 0; i < n; ++i) f();
    comm.barrier();
    return (now_s() - t0) / n;
  };
  const std::size_t nl = static_cast<std::size_t>(m.n_local);
  std::vector<double> x(4 * nl), y(4 * nl);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::sin(0.001 * static_cast<double>(i));
  for (int r = 0; r < 5; ++r)
    u.apply_s.push_back(per_call(10, [&] { op.apply(comm, x, y); }));
  const std::size_t no = static_cast<std::size_t>(m.n_owned);
  std::vector<double> b(no, 1.0), xc(no);
  for (int r = 0; r < 5; ++r)
    u.vcycle_s.push_back(per_call(10, [&] {
      std::fill(xc.begin(), xc.end(), 0.0);
      a0.vcycle(comm, b, xc);
    }));
  for (int r = 0; r < 3; ++r) {
    la::DistCsr copy = a0.finest();
    std::unique_ptr<amg::DistAmg> fresh;
    u.amg_setup_s.push_back(per_call(1, [&] {
      fresh = std::make_unique<amg::DistAmg>(comm, std::move(copy), opt.amg);
    }));
  }
  for (int r = 0; r < 3; ++r) {
    la::DistCsr copy = a0.finest();
    u.amg_refresh_s.push_back(
        per_call(1, [&] { hc.amg[0]->refresh_numeric(comm, std::move(copy)); }));
  }
  return u;
}

std::vector<double> final_viscosity(const Workload& w, const mesh::Mesh& m,
                                    const forest::Connectivity& conn,
                                    std::span<const double> t,
                                    std::span<const double> sol) {
  if (w.cfg.prescribed_velocity)  // transport: isoviscous
    return std::vector<double>(m.elements.size() * 8, 1.0);
  return stokes::evaluate_viscosity(m, conn, w.cfg.law, t, sol);
}

/// The computed working set the workload's solver streams on the final
/// mesh: the Stokes operator and velocity AMG hierarchies in convection
/// mode, the SUPG energy operator (and no AMG) in transport. Collective.
Units working_set(par::Comm& comm, const Workload& w, const mesh::Mesh& m,
                  const forest::Connectivity& conn, std::span<const double> t,
                  std::span<const double> sol) {
  if (!w.cfg.prescribed_velocity)
    return measure_units(comm, m, conn, final_viscosity(w, m, conn, t, sol),
                         w.cfg.picard.stokes, false);
  const energy::EnergySolver es(comm, m, conn, sol, w.cfg.energy);
  Units u;
  u.fem_bytes = comm.allreduce_sum(static_cast<double>(es.op().memory_bytes()));
  u.fem_plan_bytes =
      comm.allreduce_sum(8.0 * static_cast<double>(es.op().plan_matrix_doubles()));
  const mesh::Mesh::MemoryBytes mb = m.memory_bytes();
  u.mesh_bytes =
      comm.allreduce_sum(static_cast<double>(mb.topology + mb.dofs + mb.halo));
  u.n_global = static_cast<double>(m.n_global);
  return u;
}

double peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return 1024.0 * static_cast<double>(ru.ru_maxrss);
}

std::string to_json(const Units& u) {
  return "{\"fem_bytes\":" + num(u.fem_bytes) +
         ",\"fem_plan_bytes\":" + num(u.fem_plan_bytes) +
         ",\"amg_bytes\":" + num(u.amg_bytes) +
         ",\"amg_nnz\":" + num(u.amg_nnz) +
         ",\"mesh_bytes\":" + num(u.mesh_bytes) +
         ",\"n_global\":" + num(u.n_global) +
         ",\"amg_levels\":" + num(u.amg_levels) +
         ",\"amg_complexity\":" + num(u.amg_complexity) +
         ",\"apply_s\":" + nums(u.apply_s) + ",\"vcycle_s\":" + nums(u.vcycle_s) +
         ",\"amg_setup_s\":" + nums(u.amg_setup_s) +
         ",\"amg_refresh_s\":" + nums(u.amg_refresh_s) + "}";
}

// ---------------------------------------------------------------------------
// Untraced episode: rhea::Simulation itself, timed from outside.

struct Episode {
  std::vector<double> setup_s;
  std::vector<SolveRec> setup_solves;  // Picard solves inside initialize()
  std::vector<StepRec> steps;
  std::vector<std::string> failures;
  std::uint64_t telemetry_bytes = 0;
  // Filled by the last episode of a run: peak RSS after its steps, then
  // the working set of its final mesh.
  bool last = false;
  double peak_rss_bytes = 0;
  Units working_set;
};

/// One episode: `setups` set-ups (the last one is kept), then the pinned
/// steps. `is_last` is asked on rank 0 after the steps.
Episode run_untraced(const Workload& w, const Options& o, int setups,
                     const std::function<bool()>& is_last) {
  Episode ep;
  const std::string tel = o.out + "/telemetry.jsonl";
  obs::set_telemetry(w.telemetry);
  if (w.telemetry) obs::set_telemetry_path(tel);
  Checker chk{&w, {}};
  par::run(w.ranks, [&](par::Comm& comm) {
    std::unique_ptr<rhea::Simulation> sim;
    for (int k = 0; k < setups; ++k) {
      sim.reset();
      comm.barrier();
      const double t0 = now_s();
      sim = std::make_unique<rhea::Simulation>(comm, w.cfg);
      sim->initialize(w.t0);
      comm.barrier();
      const double t1 = now_s();
      if (comm.rank() == 0) ep.setup_s.push_back(t1 - t0);
    }
    if (comm.rank() == 0) append_solves(ep.setup_solves, sim->last_stokes().solves);
    chk.after_step(comm, "setup", sim->mesh(), sim->temperature(),
                   sim->solution(), sim->global_elements());
    for (int s = 0; s < w.steps; ++s) {
      const std::size_t adapts = sim->adapt_history().size();
      comm.barrier();
      const double t0 = now_s();
      sim->run(1);
      comm.barrier();
      const double t1 = now_s();
      StepRec rec;
      rec.wall_s = t1 - t0;
      rec.adapted = sim->adapt_history().size() > adapts;
      rec.elements = sim->global_elements();
      // Every step after the first solves Stokes in convection mode.
      if (!w.cfg.prescribed_velocity && s > 0)
        append_solves(rec.solves, sim->last_stokes().solves);
      chk.after_step(comm, "step " + std::to_string(s + 1), sim->mesh(),
                     sim->temperature(), sim->solution(), rec.elements);
      if (comm.rank() == 0) ep.steps.push_back(rec);
    }
    chk.at_end(comm, sim->forest(), sim->mesh(), sim->temperature(),
               sim->time());
    if (!comm.allreduce_or(comm.rank() == 0 && is_last())) return;
    if (comm.rank() == 0) {
      ep.last = true;
      ep.peak_rss_bytes = peak_rss_bytes();
    }
    comm.barrier();  // no rank allocates the probe before the RSS read
    const Units u = working_set(comm, w, sim->mesh(), sim->forest().connectivity(),
                                sim->temperature(), sim->solution());
    if (comm.rank() == 0) ep.working_set = u;
  });
  obs::set_telemetry(false);
  if (w.telemetry) {
    obs::set_telemetry_path("");  // closes the sink
    std::error_code ec;
    ep.telemetry_bytes = std::filesystem::file_size(tel, ec);
  }
  ep.failures = chk.failures;
  return ep;
}

std::string to_json(const Episode& ep) {
  return "{\"kind\":\"episode\",\"setup_s\":" + nums(ep.setup_s) +
         ",\"setup_solves\":" +
         array(ep.setup_solves, [](const SolveRec& r) { return to_json(r); }) +
         ",\"steps\":" +
         array(ep.steps, [](const StepRec& r) { return to_json(r); }) +
         ",\"telemetry_bytes\":" + std::to_string(ep.telemetry_bytes) +
         ",\"failures\":" + failures_json(ep.failures) + "}";
}

// ---------------------------------------------------------------------------
// Traced episode: the same steps driven through the modules' public
// functions, in the order Simulation::run / adapt_once call them, with a
// span around every call and a barrier after it.

struct SpanRec {
  int id = 0;
  int parent = -1;
  const char* name = "";
  int step = 0;  // 0 = set-up, 1.. = timesteps, -1 = unit-cost microcalls
  double start = 0.0, end = 0.0;
};

class Tracer {
 public:
  explicit Tracer(par::Comm& comm) : comm_(&comm) {}

  bool enabled = true;
  int step = 0;
  std::vector<SpanRec> spans;

  void open(const char* name) {
    if (!enabled) return;
    SpanRec s;
    s.id = static_cast<int>(spans.size());
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.name = name;
    s.step = step;
    s.start = now_s();
    spans.push_back(s);
    stack_.push_back(s.id);
  }
  void close() {
    if (!enabled) return;
    spans[static_cast<std::size_t>(stack_.back())].end = now_s();
    stack_.pop_back();
  }
  /// Time this rank waits for the others after a layer call.
  void wait() {
    if (!enabled) return;
    open("par.barrier");
    comm_->barrier();
    close();
  }
  template <class F>
  auto call(const char* name, F&& f) {
    open(name);
    auto r = f();
    close();
    wait();
    return r;
  }
  template <class F>
  void run(const char* name, F&& f) {
    open(name);
    f();
    close();
    wait();
  }

 private:
  par::Comm* comm_;
  std::vector<int> stack_;
};

class TracedSim {
 public:
  TracedSim(par::Comm& comm, const Workload& w, Tracer& tr)
      : comm_(comm), w_(w), cfg_(w.cfg), tr_(tr),
        forest_(forest::Forest::new_uniform(comm, cfg_.conn, cfg_.init_level)) {}

  const forest::Forest& forest() const { return forest_; }
  const mesh::Mesh& mesh() const { return mesh_; }
  const std::vector<double>& temperature() const { return temperature_; }
  const std::vector<double>& solution() const { return solution_; }
  double time() const { return time_; }
  amg::HierarchyCache& cache() { return cache_; }
  std::vector<SolveRec> solves;  // MINRES outcomes of the latest velocity update
  std::int64_t balance_added = 0, partitions = 0;
  mesh::ExtractStats extract_total;

  std::int64_t global_elements() {
    return comm_.allreduce_sum(forest_.tree().num_local());
  }

  void initialize() {
    mesh_ = mesh::extract_mesh(comm_, forest_);
    cache_.bump_epoch();
    temperature_ = fem::interpolate(mesh_, w_.t0);
    for (int round = 0; round < cfg_.initial_adapt_rounds; ++round) {
      const std::vector<double> eta = rhea::gradient_indicator(
          mesh_, forest_.connectivity(), temperature_);
      const std::vector<std::int8_t> flags =
          octree::mark_elements(comm_, forest_.tree(), eta, mark_options());
      forest_.tree().adapt(flags, cfg_.min_level, cfg_.max_level);
      forest_.balance(comm_);
      forest_.partition(comm_);
      mesh_ = mesh::extract_mesh(comm_, forest_);
      cache_.bump_epoch();
      temperature_ = fem::interpolate(mesh_, w_.t0);
    }
    solution_.assign(static_cast<std::size_t>(mesh_.n_local) * 4, 0.0);
    update_velocity();
  }

  /// One timestep, mirroring Simulation::run(1).
  bool step() {
    bool adapted = false;
    solves.clear();
    if (steps_ > 0 && cfg_.adapt_every > 0 && steps_ % cfg_.adapt_every == 0) {
      adapt_once();
      update_velocity();
      adapted = true;
    } else if (!cfg_.prescribed_velocity && cfg_.stokes_every > 0 &&
               steps_ % cfg_.stokes_every == 0 && steps_ > 0) {
      update_velocity();
    } else if (cfg_.prescribed_velocity && cfg_.time_dependent_velocity) {
      update_velocity();
    }
    if (!energy_)
      energy_ = tr_.call("energy.setup", [&] {
        return std::make_unique<energy::EnergySolver>(
            comm_, mesh_, forest_.connectivity(), solution_, cfg_.energy);
      });
    const double dt =
        tr_.call("energy.dt", [&] { return energy_->stable_dt(comm_); });
    tr_.run("energy.step", [&] { energy_->step(comm_, temperature_, dt); });
    time_ += dt;
    steps_++;

    obs::analysis::StepRecord arec;
    const bool analyzed = obs::analysis_enabled() && obs::telemetry_enabled();
    if (analyzed) {
      obs::gauge_set("mesh.local_elements",
                     static_cast<double>(forest_.tree().num_local()));
      arec = tr_.call("obs.analyze_step", [&] {
        return obs::analysis::analyze_step(comm_, steps_);
      });
    }
    obs::analysis::MemRecord mrec;
    if (obs::mem_enabled())
      mrec = tr_.call("obs.analyze_memory", [&] {
        return obs::analysis::analyze_memory(comm_, steps_);
      });
    last_mem_ = mrec;
    if (obs::telemetry_enabled())
      tr_.run("obs.telemetry", [&] {
        emit_telemetry(dt, analyzed ? &arec : nullptr,
                       obs::mem_enabled() ? &mrec : nullptr);
      });
    if (cfg_.sentinels)
      tr_.run("rhea.sentinels", [&] {
        bool bad = false;
        for (std::int64_t i = 0; i < mesh_.n_owned && !bad; ++i)
          bad = !std::isfinite(temperature_[static_cast<std::size_t>(i)]);
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(mesh_.n_owned) * 4 && !bad; ++i)
          bad = !std::isfinite(solution_[i]);
        if (comm_.allreduce_or(bad))
          throw std::runtime_error("traced run: non-finite field");
      });
    return adapted;
  }

  /// Picard loop of stokes::solve_nonlinear_stokes, one span per call.
  void picard(const stokes::ViscosityLaw& law, std::span<double> x,
              int max_iterations, amg::HierarchyCache& cache) {
    const stokes::PicardOptions& opt = cfg_.picard;
    const std::size_t nl = static_cast<std::size_t>(mesh_.n_local);
    std::vector<double> prev(x.begin(), x.end());
    const forest::Connectivity& conn = forest_.connectivity();
    for (int it = 0; it < max_iterations; ++it) {
      tr_.open("stokes.picard");
      const std::vector<double> eta = tr_.call("stokes.viscosity", [&] {
        return stokes::evaluate_viscosity(mesh_, conn, law, temperature_, x);
      });
      std::unique_ptr<stokes::StokesSolver> solver =
          tr_.call("stokes.setup", [&] {
            return std::make_unique<stokes::StokesSolver>(
                comm_, mesh_, conn, eta, opt.stokes, &cache);
          });
      const std::vector<double> rhs = tr_.call("stokes.rhs", [&] {
        return stokes::StokesSolver::buoyancy_rhs(
            comm_, mesh_, conn, temperature_, opt.rayleigh, opt.buoyancy_dir,
            opt.stokes);
      });
      const la::SolveResult r =
          tr_.call("stokes.solve", [&] { return solver->solve(comm_, rhs, x); });
      append_solves(solves, {r});
      solver.reset();
      double diff = 0.0, norm = 0.0;
      for (std::int64_t d = 0; d < mesh_.n_owned; ++d)
        for (int c = 0; c < 3; ++c) {
          const std::size_t i =
              static_cast<std::size_t>(d) * 4 + static_cast<std::size_t>(c);
          diff += (x[i] - prev[i]) * (x[i] - prev[i]);
          norm += x[i] * x[i];
        }
      diff = comm_.allreduce_sum(diff);
      norm = comm_.allreduce_sum(norm);
      tr_.close();
      const double change = norm > 0 ? std::sqrt(diff / norm) : 0.0;
      if (change < opt.tolerance) break;
      std::copy(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(4 * nl),
                prev.begin());
    }
  }

  const obs::analysis::MemRecord& last_mem() const { return last_mem_; }
  /// PARTITIONTREE on the final forest (the mesh is left as it is).
  void partition() { forest_.partition(comm_); }

 private:
  octree::MarkOptions mark_options() {
    octree::MarkOptions mopt;
    mopt.target_elements =
        cfg_.target_elements > 0 ? cfg_.target_elements : global_elements();
    mopt.tolerance = cfg_.mark_tolerance;
    mopt.coarsen_ratio = cfg_.coarsen_ratio;
    mopt.min_level = cfg_.min_level;
    mopt.max_level = cfg_.max_level;
    return mopt;
  }

  void update_velocity() {
    energy_.reset();
    if (cfg_.prescribed_velocity) {
      for (std::int64_t d = 0; d < mesh_.n_local; ++d) {
        const auto v = cfg_.prescribed_velocity(
            mesh_.dof_coords[static_cast<std::size_t>(d)], time_);
        for (std::size_t c = 0; c < 3; ++c)
          solution_[static_cast<std::size_t>(d) * 4 + c] = v[c];
        solution_[static_cast<std::size_t>(d) * 4 + 3] = 0.0;
      }
      return;
    }
    picard(cfg_.law, solution_, cfg_.picard.max_iterations, cache_);
  }

  void adapt_once() {
    octree::LinearOctree& tree = forest_.tree();
    const forest::Connectivity& conn = forest_.connectivity();
    const std::vector<double> eta = tr_.call("rhea.indicator", [&] {
      return cfg_.strain_weight > 0.0
                 ? rhea::yielding_indicator(mesh_, conn, temperature_,
                                            solution_, cfg_.strain_weight)
                 : rhea::gradient_indicator(mesh_, conn, temperature_);
    });
    const std::vector<std::int8_t> flags = tr_.call("octree.mark", [&] {
      return octree::mark_elements(comm_, tree, eta, mark_options());
    });
    std::vector<double> ev = tr_.call(
        "mesh.fields", [&] { return mesh::to_element_values(mesh_, temperature_); });
    const std::vector<octree::Octant> old_leaves = tree.leaves();
    tr_.run("octree.adapt",
            [&] { tree.adapt(flags, cfg_.min_level, cfg_.max_level); });
    const std::int64_t n_after_adapt = global_elements();
    {
      // Simulation's Fig. 5 statistics (unattributed remainder here).
      const octree::Correspondence corr =
          octree::compute_correspondence(old_leaves, tree.leaves());
      std::int64_t counts[3] = {0, 0, 0};
      for (const auto& en : corr.entries) counts[static_cast<int>(en.kind)]++;
      for (std::int64_t c : counts) comm_.allreduce_sum(c);
    }
    tr_.run("forest.balance", [&] { forest_.balance(comm_); });
    balance_added += global_elements() - n_after_adapt;
    ev = tr_.call("mesh.interpolate", [&] {
      const octree::Correspondence corr =
          octree::compute_correspondence(old_leaves, tree.leaves());
      return mesh::interpolate_element_values(old_leaves, tree.leaves(), corr,
                                              ev);
    });
    bool repartition = true;
    if (cfg_.partition_threshold > 0.0) {
      const std::int64_t total = comm_.allreduce_sum(tree.num_local());
      const std::int64_t mx = comm_.allreduce_max(tree.num_local());
      const double imbalance =
          total > 0 ? static_cast<double>(mx) * comm_.size() /
                          static_cast<double>(total)
                    : 1.0;
      repartition = imbalance > cfg_.partition_threshold;
    }
    if (repartition) {
      tr_.run("forest.partition", [&] {
        octree::LeafPayload payload{8, std::move(ev)};
        octree::LeafPayload* ps[] = {&payload};
        forest_.partition(comm_, ps);
        ev = std::move(payload.data);
      });
      ++partitions;
    }
    std::vector<octree::Octant> ghosts = tr_.call(
        "mesh.ghost", [&] { return mesh::ghost_layer(comm_, tree, conn); });
    mesh::ExtractStats stats;
    mesh_ = tr_.call("mesh.extract", [&] {
      return mesh::extract_mesh_incremental(comm_, forest_, std::move(ghosts),
                                            mesh_, &stats);
    });
    extract_total.reused += stats.reused;
    extract_total.recomputed += stats.recomputed;
    cache_.bump_epoch();
    tr_.run("mesh.fields", [&] {
      temperature_ = mesh::from_element_values(comm_, mesh_, ev);
      solution_.assign(static_cast<std::size_t>(mesh_.n_local) * 4, 0.0);
      energy_.reset();
    });
    // Simulation's level histogram (unattributed remainder here).
    std::array<std::int64_t, 20> hist{};
    for (const auto& o : tree.leaves()) hist[static_cast<std::size_t>(o.level)]++;
    for (std::int64_t h : hist) comm_.allreduce_sum(h);
    global_elements();
  }

  /// The collectives and the record of Simulation::emit_step_telemetry.
  void emit_telemetry(double dt, const obs::analysis::StepRecord* arec,
                      const obs::analysis::MemRecord* mrec) {
    const std::int64_t local = forest_.tree().num_local();
    const std::int64_t total = comm_.allreduce_sum(local);
    const std::int64_t mx = comm_.allreduce_max(local);
    std::array<std::int64_t, 20> hist{};
    for (const auto& o : forest_.tree().leaves())
      hist[static_cast<std::size_t>(o.level)]++;
    hist = comm_.allreduce(hist, [](const std::array<std::int64_t, 20>& a,
                                    const std::array<std::int64_t, 20>& b) {
      std::array<std::int64_t, 20> r;
      for (std::size_t i = 0; i < r.size(); ++i) r[i] = a[i] + b[i];
      return r;
    });
    const std::uint64_t vcycles = comm_.allreduce_sum(std::uint64_t{0});
    const rhea::PhysicsDiagnostics phys = rhea::compute_physics_diagnostics(
        comm_, mesh_, forest_.connectivity(), temperature_, solution_,
        cfg_.energy.kappa);
    if (comm_.rank() != 0) return;
    obs::TelemetryRecord rec;
    rec.field("step", static_cast<std::int64_t>(steps_))
        .field("time", time_)
        .field("dt", dt)
        .field("elements", total)
        .field("dofs", mesh_.n_global)
        .field("partition_imbalance",
               total > 0 ? static_cast<double>(mx) * comm_.size() /
                               static_cast<double>(total)
                         : 1.0)
        .field("per_level", std::span<const std::int64_t>(hist.data(), 10))
        .field("amg_vcycles", vcycles)
        .field("nusselt", phys.nusselt)
        .field("v_rms", phys.v_rms)
        .field("t_max", phys.t_max);
    if (arec != nullptr)
      rec.field_json("critical_path", obs::analysis::critical_path_json(*arec))
          .field_json("wait_states", obs::analysis::wait_states_json(*arec))
          .field_json("latency", obs::analysis::latency_json(*arec));
    if (mrec != nullptr)
      rec.field_json("memory", obs::analysis::memory_json(*mrec, mesh_.n_global));
    obs::telemetry_emit(rec);
  }

  par::Comm& comm_;
  const Workload& w_;
  const rhea::SimConfig& cfg_;
  Tracer& tr_;
  forest::Forest forest_;
  mesh::Mesh mesh_;
  std::vector<double> temperature_, solution_;
  double time_ = 0.0;
  int steps_ = 0;
  amg::HierarchyCache cache_;
  std::unique_ptr<energy::EnergySolver> energy_;
  obs::analysis::MemRecord last_mem_;
};

// ---------------------------------------------------------------------------
// Traced run

struct CommDelta {
  double p2p_msgs = 0, p2p_bytes = 0, collectives = 0;
};

struct Traced {
  std::vector<SolveRec> setup_solves, unit_solves;
  std::vector<StepRec> steps;
  std::vector<CommDelta> comm;
  std::vector<std::string> failures;
  Units units;
  std::int64_t balance_added = 0, partitions = 0, adapts = 0;
  std::int64_t reused = 0, recomputed = 0;
  double unaccounted_bytes = 0;
  std::uint64_t telemetry_bytes = 0;
};

Traced run_traced(const Workload& w, const Options& o) {
  Traced out;
  const std::string tel = o.out + "/telemetry_traced.jsonl";
  obs::set_telemetry(w.telemetry);
  if (w.telemetry) obs::set_telemetry_path(tel);
  Checker chk{&w, {}};
  std::vector<std::vector<SpanRec>> spans(static_cast<std::size_t>(w.ranks));
  par::run(w.ranks, [&](par::Comm& comm) {
    Tracer tr(comm);
    TracedSim sim(comm, w, tr);
    tr.enabled = false;
    sim.initialize();
    tr.enabled = true;
    if (comm.rank() == 0) out.setup_solves = sim.solves;
    const int P = comm.size();
    for (int s = 0; s < w.steps; ++s) {
      // Each counter snapshot sits between two barriers, so no rank is
      // inside a collective or a send while rank 0 reads the counters.
      comm.barrier();
      const par::CommStats c0 = par::snapshot(comm.stats());
      comm.barrier();
      tr.step = s + 1;
      const std::size_t span_id = tr.spans.size();
      tr.open("step");
      const bool adapted = sim.step();
      tr.close();
      comm.barrier();
      const par::CommStats c1 = par::snapshot(comm.stats());
      comm.barrier();
      StepRec rec;
      rec.wall_s = tr.spans[span_id].end - tr.spans[span_id].start;
      rec.adapted = adapted;
      rec.elements = sim.global_elements();
      rec.solves = sim.solves;
      // Barriers are left out: the tracer adds its own after every call.
      CommDelta d;
      d.p2p_msgs = static_cast<double>(c1.p2p_messages - c0.p2p_messages);
      d.p2p_bytes = static_cast<double>(c1.p2p_bytes - c0.p2p_bytes);
      d.collectives =
          static_cast<double>((c1.allreduce_calls - c0.allreduce_calls) +
                              (c1.allgather_calls - c0.allgather_calls) +
                              (c1.alltoall_calls - c0.alltoall_calls)) / P;
      chk.after_step(comm, "traced step " + std::to_string(s + 1), sim.mesh(),
                     sim.temperature(), sim.solution(), rec.elements);
      if (comm.rank() == 0) {
        out.steps.push_back(rec);
        out.comm.push_back(d);
        out.adapts += adapted ? 1 : 0;
      }
    }
    chk.at_end(comm, sim.forest(), sim.mesh(), sim.temperature(), sim.time());
    const obs::analysis::MemRecord& mrec = sim.last_mem();
    const double unaccounted =
        mrec.enabled && mrec.rss_available
            ? static_cast<double>(mrec.rss_max) - static_cast<double>(mrec.acc_total)
            : 0.0;

    // Unit costs on the final mesh, and one call of each layer the steps
    // may never reach: transport never solves Stokes (one isoviscous
    // Picard iteration stands in) and may never repartition, and the
    // convection workloads run no step analysis.
    tr.step = -1;
    tr.open("units");
    const forest::Connectivity& conn = sim.forest().connectivity();
    tr.run("forest.partition", [&] { sim.partition(); });
    tr.call("obs.analyze_step",
            [&] { return obs::analysis::analyze_step(comm, w.steps + 1); });
    if (w.cfg.prescribed_velocity) {
      sim.solves.clear();
      std::vector<double> x(sim.solution().size(), 0.0);
      amg::HierarchyCache hc;
      sim.picard([](const std::array<double, 3>&, double, double) { return 1.0; },
                 x, 1, hc);
    }
    const std::vector<double> eta = final_viscosity(
        w, sim.mesh(), conn, sim.temperature(), sim.solution());
    Units u = measure_units(comm, sim.mesh(), conn, eta, w.cfg.picard.stokes,
                            true);
    tr.close();
    if (comm.rank() == 0) {
      if (w.cfg.prescribed_velocity) out.unit_solves = sim.solves;
      out.units = u;
      out.balance_added = sim.balance_added;
      out.partitions = sim.partitions;
      out.reused = sim.extract_total.reused;
      out.recomputed = sim.extract_total.recomputed;
      out.unaccounted_bytes = unaccounted;
    }
    spans[static_cast<std::size_t>(comm.rank())] = std::move(tr.spans);
  });
  obs::set_telemetry(false);
  if (w.telemetry) {
    obs::set_telemetry_path("");
    std::error_code ec;
    out.telemetry_bytes = std::filesystem::file_size(tel, ec);
  }
  out.failures = chk.failures;

  std::ofstream f(o.out + "/spans.jsonl", std::ios::trunc);
  for (std::size_t r = 0; r < spans.size(); ++r)
    for (const SpanRec& s : spans[r])
      f << "{\"rank\":" << r << ",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"name\":\"" << s.name << "\",\"step\":" << s.step
        << ",\"start\":" << num(s.start) << ",\"end\":" << num(s.end) << "}\n";
  return out;
}

std::string to_json(const Traced& t) {
  const auto solves = [](const std::vector<SolveRec>& v) {
    return array(v, [](const SolveRec& r) { return to_json(r); });
  };
  return "{\"kind\":\"traced\",\"setup_solves\":" + solves(t.setup_solves) +
         ",\"unit_solves\":" + solves(t.unit_solves) + ",\"steps\":" +
         array(t.steps, [](const StepRec& r) { return to_json(r); }) +
         ",\"comm\":" +
         array(t.comm,
               [](const CommDelta& d) {
                 return "{\"p2p_msgs\":" + num(d.p2p_msgs) +
                        ",\"p2p_bytes\":" + num(d.p2p_bytes) +
                        ",\"collectives\":" + num(d.collectives) + "}";
               }) +
         ",\"units\":" + to_json(t.units) +
         ",\"balance_added\":" + std::to_string(t.balance_added) +
         ",\"partitions\":" + std::to_string(t.partitions) +
         ",\"adapts\":" + std::to_string(t.adapts) +
         ",\"extract_reused\":" + std::to_string(t.reused) +
         ",\"extract_recomputed\":" + std::to_string(t.recomputed) +
         ",\"unaccounted_bytes\":" + num(t.unaccounted_bytes) +
         ",\"telemetry_bytes\":" + std::to_string(t.telemetry_bytes) +
         ",\"failures\":" + failures_json(t.failures) + "}";
}

// ---------------------------------------------------------------------------

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--trace") o.trace = v != "0";
    else if (k == "--out") o.out = v;
    else if (k == "--phase-x") o.phase_x = std::stod(v);
    else if (k == "--phase-y") o.phase_y = std::stod(v);
    else if (k == "--front-angle") o.front_angle = std::stod(v);
    else throw std::runtime_error("unknown option " + k);
  }
  if (argc % 2 != 1) throw std::runtime_error("options come in pairs");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    const Workload w = make_workload(o);
    std::filesystem::create_directories(o.out);
    // A sentinel trip writes its flight-recorder bundle here.
    setenv("ALPS_DUMP_DIR", (o.out + "/dump").c_str(), 1);
    std::setvbuf(stdout, nullptr, _IOLBF, 0);

    const double t_start = now_s();
    bool failed = false;
    Episode last;
    if (o.trace) {
      last = run_untraced(w, o, 1, [] { return true; });
      std::printf("%s\n", to_json(last).c_str());
      const Traced t = run_traced(w, o);
      std::printf("%s\n", to_json(t).c_str());
      failed = !last.failures.empty() || !t.failures.empty();
    } else {
      // Closed loop of episodes until the next one would overrun the
      // measuring time (always at least one).
      while (!last.last) {
        const double e0 = now_s();
        last = run_untraced(w, o, w.setups, [&] {
          const double t = now_s();
          return (t - t_start) + (t - e0) > o.seconds;
        });
        std::printf("%s\n", to_json(last).c_str());
        if (!last.failures.empty()) {
          failed = true;
          break;
        }
      }
    }
    std::printf(
        "{\"kind\":\"host\",\"nproc\":%ld,\"l3_bytes\":%ld,\"ranks\":%d,"
        "\"peak_rss_bytes\":%s,\"working_set\":%s}\n",
        sysconf(_SC_NPROCESSORS_ONLN), sysconf(_SC_LEVEL3_CACHE_SIZE), w.ranks,
        num(last.peak_rss_bytes).c_str(), to_json(last.working_set).c_str());
    return failed ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rheabench: %s\n", e.what());
    return 2;
  }
}
