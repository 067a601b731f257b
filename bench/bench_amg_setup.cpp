// AMG setup-cost scaling: per-octree-level distributed hierarchy setup on
// the adapted variable-viscosity Poisson operator, normalized to
// nanoseconds per fine-grid nonzero. With the two-pass Galerkin product
// the setup is linear in nnz, so setup_ns_per_nnz must stay flat as the
// problem grows (scripts/check_bench.py gates CI on the highest-vs-lowest
// level ratio). Also measures the numeric-only hierarchy refresh
// (DistAmg::refresh_numeric), the path Picard iterations and non-adapting
// timesteps take, which must be a small fraction of the full setup.
// Results are emitted to BENCH_amg_setup.json.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>

#include "amg/dist_amg.hpp"
#include "bench_common.hpp"
#include "fem/operators.hpp"
#include "la/dist_csr.hpp"

using namespace alps;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
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

}  // namespace

int main(int argc, char** argv) {
  const int max_level = argc > 1 ? std::atoi(argv[1]) : 5;
  bench::header(
      "Distributed AMG setup cost per fine-grid nonzero (linear-time "
      "two-pass Galerkin) and numeric-only hierarchy refresh",
      "setup scaling");
  std::printf("%-8s %6s %10s %12s %10s %14s %10s %10s\n", "level", "ranks",
              "#dof", "fine nnz", "setup(s)", "setup ns/nnz", "refresh(s)",
              "refr/setup");

  bench::Reporter report("amg_setup");
  alps::obs::TelemetryRecord& json = report.json();
  json.arr_open("cases");

  for (int level = 3; level <= max_level; ++level) {
    const int p = std::min(4, 1 << (level - 2));
    double setup_s = 0, refresh_s = 0;
    std::int64_t n_dof = 0, fine_nnz = 0;
    const par::CommStats cs = alps::par::run(p, [&](par::Comm& c) {
      forest::Forest f = forest::Forest::new_uniform(
          c, forest::Connectivity::unit_cube(), level);
      bench::adapt_toward_point(c, f, {0.5, 0.5, 0.5}, 1, level + 1);
      mesh::Mesh m = mesh::extract_mesh(c, f);
      fem::ElementOperator op = poisson_operator(f, m);
      la::DistCsr a = op.assemble_dist(c);
      const std::int64_t nnz = c.allreduce_sum(a.local_nnz());
      double t0 = now_s();
      amg::DistAmg amg(c, std::move(a), {});
      const double ts = now_s() - t0;
      // The numeric refresh path: re-assemble (viscosity would have
      // changed) and replay the cached RAP plans.
      la::DistCsr a2 = op.assemble_dist(c);
      t0 = now_s();
      amg.refresh_numeric(c, std::move(a2));
      const double tr = now_s() - t0;
      if (c.rank() == 0) {
        n_dof = amg.finest().global_rows();
        fine_nnz = nnz;
        setup_s = ts;
        refresh_s = tr;
      }
    });
    const double ns_per_nnz =
        1e9 * setup_s / static_cast<double>(std::max<std::int64_t>(1, fine_nnz));
    const double refresh_ratio = refresh_s / std::max(1e-12, setup_s);
    std::printf("L%-7d %6d %10lld %12lld %10.3f %14.1f %10.3f %10.3f\n",
                level, p, static_cast<long long>(n_dof),
                static_cast<long long>(fine_nnz), setup_s, ns_per_nnz,
                refresh_s, refresh_ratio);
    json.obj_open()
        .field("level", level)
        .field("ranks", p)
        .field("n_dof", n_dof)
        .field("fine_nnz", fine_nnz)
        .field("setup_s", setup_s)
        .field("setup_ns_per_nnz", ns_per_nnz)
        .field("refresh_s", refresh_s)
        .field("refresh_over_setup", refresh_ratio);
    bench::json_comm_stats(json, cs);
    json.obj_close();
    report.snapshot_obs("amg_setup_level" + std::to_string(level));
  }

  json.arr_close();
  report.save("BENCH_amg_setup.json");

  std::printf(
      "\nShape check: setup_ns_per_nnz flat across levels (linear-time "
      "setup);\nrefresh a small fraction of setup (the amortized path "
      "between mesh\nadaptations). scripts/check_bench.py enforces the "
      "flatness ratio in CI.\n");
  return 0;
}
