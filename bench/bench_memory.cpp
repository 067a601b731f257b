// Memory-per-dof scaling: per-subsystem accounted bytes on the adapted
// variable-viscosity Poisson stack (forest -> mesh -> element operator ->
// distributed AMG hierarchy) across refinement levels at a fixed rank
// count. The paper's claim is that AMR + AMG keep memory per core bounded
// as the mesh grows, so bytes/dof must stay flat with level: the dominant
// subsystems are volume terms (operator nnz, dof tables, element
// matrices), while surface terms (halo, ghost plans) shrink per dof.
// scripts/check_bench.py gates CI on the highest-vs-lowest bytes/dof
// ratio of the total and of every subsystem that carries a significant
// share of the footprint. Results go to BENCH_memory.json, one case per
// level carrying the telemetry memory block (analysis::memory_json).

#include <cmath>
#include <cstdlib>

#include "amg/dist_amg.hpp"
#include "bench_common.hpp"
#include "fem/operators.hpp"
#include "la/dist_csr.hpp"
#include "obs/analysis.hpp"
#include "obs/mem.hpp"

using namespace alps;

namespace {

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
  const int p = 4;  // fixed rank count: bytes/dof vs level, not vs P
  obs::set_mem_enabled(true);
  bench::header(
      "Accounted memory per degree of freedom across refinement levels "
      "(per-subsystem byte accounting, obs/mem.hpp)",
      "memory-bounded AMR + AMG (Sec. III-IV)");
  std::printf("%-8s %6s %10s %10s %14s %12s %10s\n", "level", "ranks", "#elem",
              "#dof", "accounted", "bytes/dof", "imbalance");

  bench::Reporter report("memory", p);
  alps::obs::TelemetryRecord& json = report.json();
  json.arr_open("cases");

  for (int level = 3; level <= max_level; ++level) {
    obs::analysis::MemRecord mrec;
    std::int64_t n_elements = 0, n_dof = 0;
    alps::par::run(p, [&](par::Comm& c) {
      forest::Forest f = forest::Forest::new_uniform(
          c, forest::Connectivity::unit_cube(), level);
      bench::adapt_toward_point(c, f, {0.5, 0.5, 0.5}, 1, level + 1);
      mesh::Mesh m = mesh::extract_mesh(c, f);
      fem::ElementOperator op = poisson_operator(f, m);
      amg::DistAmg amg(c, op.assemble_dist(c), {});

      // Pull-model accounting, same scopes rhea::Simulation reports.
      const mesh::Mesh::MemoryBytes mb = m.memory_bytes();
      const amg::DistAmg::MemoryBytes ab = amg.memory_bytes();
      obs::mem_report({
          {"forest.octants", f.memory_bytes()},
          {"mesh.topology", mb.topology},
          {"mesh.dofs", mb.dofs},
          {"mesh.halo", mb.halo},
          {"fem.plan", op.memory_bytes()},
          {"amg.operators", ab.operators},
          {"amg.interpolation", ab.interpolation},
          {"amg.rap_plan", ab.rap},
          {"amg.coarse", ab.coarse},
          {"amg.cache", ab.scratch},
          {"par.mailbox", c.pending_recv_bytes()},
          {"obs.self", obs::self_memory_bytes()},
      });

      const obs::analysis::MemRecord rec =
          obs::analysis::analyze_memory(c, level);
      const std::int64_t ne = c.allreduce_sum(f.tree().num_local());
      if (c.rank() == 0) {
        mrec = rec;
        n_elements = ne;
        n_dof = amg.finest().global_rows();
      }
    });

    const double bpd = n_dof > 0 ? static_cast<double>(mrec.acc_total) /
                                       static_cast<double>(n_dof)
                                 : 0.0;
    std::printf("L%-7d %6d %10lld %10lld %14llu %12.1f %10.3f\n", level, p,
                static_cast<long long>(n_elements),
                static_cast<long long>(n_dof),
                static_cast<unsigned long long>(mrec.acc_total), bpd,
                mrec.acc_imbalance);

    json.obj_open()
        .field("level", level)
        .field("n_elements", n_elements)
        .field("n_dof", n_dof)
        .field_json("memory", obs::analysis::memory_json(mrec, n_dof))
        .obj_close();
    report.snapshot_obs("memory_level" + std::to_string(level));
  }

  json.arr_close();
  report.save("BENCH_memory.json");

  std::printf(
      "\nShape check: total and dominant-subsystem bytes/dof flat across "
      "levels\n(memory per core bounded as the mesh grows); surface terms "
      "(mesh.halo)\nmay shrink per dof. scripts/check_bench.py enforces the "
      "flatness ratio in CI.\n");
  return 0;
}
