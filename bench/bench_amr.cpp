// AMR pipeline overhead: hashed vs per-corner reference mesh extraction
// across refinement levels at a fixed rank count, the incremental
// (Correspondence-driven) re-extraction after a local adaptation that
// does not repartition, and the AMR share of the full step time in a
// short transport run. The paper's claim is that the AMR machinery stays
// a small fraction of solve time (Fig. 5 / Fig. 10); the extraction
// rewrite is the enabling optimization, so scripts/check_bench.py gates
// CI on the hashed-vs-reference speedup at the largest level and on a
// strictly positive element-reuse fraction whenever no repartition
// happened. Results go to BENCH_amr.json.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>

#include "bench_common.hpp"
#include "mesh/ghost.hpp"
#include "oracles/oracles.hpp"
#include "rhea/simulation.hpp"

using namespace alps;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Cross-rank time of one collective region: everyone enters together
/// (barrier), the slowest rank defines the cost.
template <class Fn>
double timed(par::Comm& c, Fn&& fn) {
  c.barrier();
  const double t0 = now_s();
  fn();
  return c.allreduce_max(now_s() - t0);
}

/// Refine a thin shell around `center` that the initial adaptation did
/// not touch, WITHOUT repartitioning afterwards — the situation the
/// incremental extraction is built for (ownership ranges unchanged).
void adapt_local_front(par::Comm& c, forest::Forest& f,
                       const std::array<double, 3>& center, int max_level) {
  using octree::octant_len;
  const auto& conn = f.connectivity();
  std::vector<std::int8_t> flags(f.tree().leaves().size(), 0);
  for (std::size_t e = 0; e < flags.size(); ++e) {
    const auto& o = f.tree().leaves()[e];
    const auto h = octant_len(o.level);
    const auto p = conn.map_point(o.tree, o.x + h / 2, o.y + h / 2, o.z + h / 2);
    const double d2 = (p[0] - center[0]) * (p[0] - center[0]) +
                      (p[1] - center[1]) * (p[1] - center[1]) +
                      (p[2] - center[2]) * (p[2] - center[2]);
    if (d2 < 0.05 && o.level < max_level) flags[e] = 1;
  }
  f.tree().adapt(flags, 0, max_level);
  f.balance(c);  // no partition: range_begins() stays fixed
}

}  // namespace

int main(int argc, char** argv) {
  const int max_level = argc > 1 ? std::atoi(argv[1]) : 5;
  const int p = 4;
  const int reps = 3;
  bench::header(
      "Mesh extraction cost: hashed node table vs per-corner reference, "
      "and incremental re-extraction after a non-repartitioning adapt",
      "AMR overhead (Fig. 5 / Fig. 10: AMR a small fraction of solve)");
  std::printf("%-8s %6s %10s %12s %12s %9s %12s %8s\n", "level", "ranks",
              "#elem", "reference", "hashed", "speedup", "incremental",
              "reuse");

  bench::Reporter report("amr", p);
  alps::obs::TelemetryRecord& json = report.json();
  json.arr_open("cases");

  for (int level = 3; level <= max_level; ++level) {
    double ref_s = 0, hashed_s = 0, incr_s = 0, reuse_frac = 0;
    std::int64_t n_elements = 0;
    bool fallback = false, fallback_after_partition = false;
    alps::par::run(p, [&](par::Comm& c) {
      forest::Forest f = forest::Forest::new_uniform(
          c, forest::Connectivity::unit_cube(), level);
      bench::adapt_toward_point(c, f, {0.5, 0.5, 0.5}, 1, level + 1);

      // The ghost layer is an input both paths share (hoisted out of
      // extraction since this PR), so it is computed outside the timers.
      const std::vector<octree::Octant> ghosts =
          mesh::ghost_layer(c, f.tree(), f.connectivity());

      double best_ref = 1e30, best_hashed = 1e30;
      mesh::Mesh prev;
      for (int r = 0; r < reps; ++r) {
        best_ref = std::min(
            best_ref, timed(c, [&] {
              mesh::Mesh m = oracle::extract_mesh_reference(c, f, ghosts);
            }));
        best_hashed = std::min(best_hashed, timed(c, [&] {
                                 prev = mesh::extract_mesh(c, f, ghosts);
                               }));
      }

      // Incremental re-extraction: a thin front refines locally, no
      // repartition, so untouched elements keep their constraint rows.
      adapt_local_front(c, f, {0.2, 0.7, 0.4}, level + 1);
      mesh::ExtractStats stats;
      double best_incr = 1e30;
      for (int r = 0; r < reps; ++r) {
        std::vector<octree::Octant> g2 =
            mesh::ghost_layer(c, f.tree(), f.connectivity());
        mesh::Mesh next;
        best_incr = std::min(best_incr, timed(c, [&] {
                               next = mesh::extract_mesh_incremental(
                                   c, f, std::move(g2), prev, &stats);
                             }));
      }
      const std::int64_t reused = c.allreduce_sum(stats.reused);
      const std::int64_t recomputed = c.allreduce_sum(stats.recomputed);
      const bool fell_back = c.allreduce_or(stats.fallback);

      // After a repartition the ownership ranges moved, so incremental
      // extraction must detect it and fall back to a full rebuild.
      f.partition(c);
      std::vector<octree::Octant> g3 =
          mesh::ghost_layer(c, f.tree(), f.connectivity());
      mesh::ExtractStats post;
      mesh::Mesh after =
          mesh::extract_mesh_incremental(c, f, std::move(g3), prev, &post);
      const bool post_fellback = c.allreduce_or(post.fallback);

      const std::int64_t ne = c.allreduce_sum(f.tree().num_local());
      if (c.rank() == 0) {
        ref_s = best_ref;
        hashed_s = best_hashed;
        incr_s = best_incr;
        reuse_frac = reused + recomputed > 0
                         ? static_cast<double>(reused) /
                               static_cast<double>(reused + recomputed)
                         : 0.0;
        fallback = fell_back;
        fallback_after_partition = post_fellback;
        n_elements = ne;
      }
    });

    const double speedup = ref_s / std::max(1e-12, hashed_s);
    std::printf("L%-7d %6d %10lld %10.1fms %10.1fms %8.2fx %10.1fms %7.1f%%\n",
                level, p, static_cast<long long>(n_elements), ref_s * 1e3,
                hashed_s * 1e3, speedup, incr_s * 1e3, reuse_frac * 1e2);
    if (!fallback_after_partition)
      std::printf("WARNING: incremental extraction did NOT fall back after "
                  "a repartition at level %d\n", level);

    json.obj_open()
        .field("level", level)
        .field("ranks", p)
        .field("elements", n_elements)
        .field("reference_s", ref_s)
        .field("hashed_s", hashed_s)
        .field("extract_speedup", speedup)
        .field("incremental_s", incr_s)
        .field("reuse_fraction", reuse_frac)
        .field("repartitioned", false)
        .field("fallback", fallback)
        .field("fallback_after_partition", fallback_after_partition)
        .obj_close();
    report.snapshot_obs("amr_level" + std::to_string(level));
  }
  json.arr_close();

  // AMR share of the full step time: a short transport-only run with a
  // partition threshold, so balanced adaptations skip PARTITIONTREE and
  // take the incremental extraction path.
  {
    double amr_s = 0, step_s = 0;
    std::int64_t reused = 0, recomputed = 0;
    alps::par::run(p, [&](par::Comm& c) {
      rhea::SimConfig cfg;
      cfg.init_level = 3;
      cfg.min_level = 2;
      cfg.max_level = 5;
      cfg.initial_adapt_rounds = 1;
      cfg.adapt_every = 2;
      cfg.partition_threshold = 1.5;
      cfg.prescribed_velocity = [](const std::array<double, 3>& x, double) {
        return std::array<double, 3>{0.5 - x[1], x[0] - 0.5, 0.05};
      };
      rhea::Simulation sim(c, cfg);
      sim.initialize([](const std::array<double, 3>& x) {
        const double dx = x[0] - 0.3, dy = x[1] - 0.5, dz = x[2] - 0.5;
        return std::exp(-40.0 * (dx * dx + dy * dy + dz * dz));
      });
      sim.run(8);
      const rhea::PhaseTimers t = sim.timers();
      const std::int64_t ru = c.allreduce_sum(sim.last_extract().reused);
      const std::int64_t rc = c.allreduce_sum(sim.last_extract().recomputed);
      if (c.rank() == 0) {
        amr_s = t.amr_total();
        step_s = t.total();
        reused = ru;
        recomputed = rc;
      }
    });
    const double share = step_s > 0 ? amr_s / step_s : 0.0;
    std::printf("\nAMR share of step time (transport run, threshold-gated "
                "partition): %.3fs of %.3fs = %.1f%%\n",
                amr_s, step_s, share * 1e2);
    std::printf("last adaptation's extraction: %lld reused / %lld recomputed "
                "elements\n", static_cast<long long>(reused),
                static_cast<long long>(recomputed));
    json.obj_open("amr_share")
        .field("amr_s", amr_s)
        .field("step_s", step_s)
        .field("share", share)
        .field("last_extract_reused", reused)
        .field("last_extract_recomputed", recomputed)
        .obj_close();
  }

  report.save("BENCH_amr.json");
  std::printf(
      "\nShape check: hashed extraction beats the per-corner reference "
      "(>= 2x at\nthe largest level) and non-repartitioning adapts reuse a "
      "positive fraction\nof elements. scripts/check_bench.py enforces both "
      "in CI.\n");
  return 0;
}
