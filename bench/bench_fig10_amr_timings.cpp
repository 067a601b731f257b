// Fig. 10 (table): per-AMR-function timings for the full mantle
// convection solve, per mesh adaptation step (= per 16 time steps in the
// paper). Paper: AMR time is < 1% of solve time at every scale. Runs at
// P = 2 and reports the cross-rank min/median/max/imbalance of every
// phase from the obs aggregator — the per-rank spread is exactly what the
// paper's per-function tables condense.

#include <cmath>

#include "bench_common.hpp"
#include "rhea/simulation.hpp"

using namespace alps;

namespace {

const obs::PhaseBreakdown* find_phase(
    const std::vector<obs::PhaseBreakdown>& phases, const char* name) {
  for (const auto& p : phases)
    if (p.name == name) return &p;
  return nullptr;
}

double median_of(const std::vector<obs::PhaseBreakdown>& phases,
                 const char* name) {
  const obs::PhaseBreakdown* p = find_phase(phases, name);
  return p ? p->median_s : 0.0;
}

}  // namespace

int main() {
  bench::header("AMR function timings within the full mantle convection code",
                "Fig. 10 (paper: AMR/solve < 1% from 1 to 16,384 cores)");

  bench::Reporter report("fig10_amr_timings");
  report.json().arr_open("cases");

  for (int level : {2, 3}) {
    const int steps = level == 2 ? 6 : 5;
    const int p = 2;
    long long elements = 0;
    int adapts = 0;
    alps::par::run(p, [&](par::Comm& c) {
      rhea::SimConfig cfg;
      cfg.init_level = level;
      cfg.min_level = 2;
      cfg.max_level = level + 2;
      cfg.initial_adapt_rounds = 1;
      cfg.adapt_every = 4;
      cfg.picard.rayleigh = 1e5;
      cfg.picard.max_iterations = 2;
      cfg.picard.stokes.krylov.max_iterations = 120;
      cfg.picard.stokes.krylov.rtol = 1e-5;
      rhea::YieldingLawOptions yopt;
      cfg.law = rhea::three_layer_yielding(yopt);
      rhea::Simulation sim(c, cfg);
      sim.initialize([](const std::array<double, 3>& p) {
        return (1.0 - p[2]) +
               0.08 * std::cos(M_PI * p[0]) * std::sin(M_PI * p[2]);
      });
      sim.run(steps);
      const long long ne = sim.global_elements();  // collective: all ranks
      if (c.rank() == 0) {
        elements = ne;
        adapts = static_cast<int>(sim.adapt_history().size());
      }
    });
    // Cross-rank phase statistics of the run that just finished.
    const std::vector<obs::PhaseBreakdown> phases = obs::aggregate_phases();
    const double na = std::max(1, adapts);
    const double solve = median_of(phases, "stokes.minres") +
                         median_of(phases, "amg.setup") +
                         median_of(phases, "stokes.assemble") +
                         median_of(phases, "energy.time_integration");
    std::printf("\n-- mesh level %d, %lld elements, %d adaptation steps, "
                "P = %d --\n",
                level, elements, adapts, p);
    std::printf("%-16s %10s %10s %10s %10s\n", "function", "min/adapt",
                "med/adapt", "max/adapt", "imbalance");
    const struct {
      const char* label;
      const char* phase;
    } rows[] = {{"NewTree", "amr.new_tree"},
                {"Coarsen/Refine", "amr.coarsen_refine"},
                {"BalanceTree", "amr.balance"},
                {"PartitionTree", "amr.partition"},
                {"ExtractMesh", "amr.extract_mesh"},
                {"InterpolateF", "amr.interpolate_fields"},
                {"TransferFields", "amr.transfer_fields"},
                {"MarkElements", "amr.mark_elements"}};
    double amr_median = 0.0;
    for (const auto& row : rows) {
      const obs::PhaseBreakdown* pb = find_phase(phases, row.phase);
      if (!pb) continue;
      // NewTree happens once per simulation, not once per adaptation.
      const double div = std::string(row.phase) == "amr.new_tree" ? 1.0 : na;
      std::printf("%-16s %10.4f %10.4f %10.4f %10.2f\n", row.label,
                  pb->min_s / div, pb->median_s / div, pb->max_s / div,
                  pb->imbalance);
      if (div == na) amr_median += pb->median_s;
    }
    std::printf("%-16s %10s %10.4f\n", "Solve time", "", solve / na);
    std::printf("AMR time / solve time = %.2f%%   (paper: < 1%%)\n",
                100.0 * amr_median / solve);
    report.json()
        .obj_open()
        .field("level", level)
        .field("ranks", p)
        .field("elements", elements)
        .field("adaptations", adapts)
        .field("amr_over_solve", amr_median / solve)
        .obj_close();
    report.snapshot_obs("level" + std::to_string(level) + "_p" +
                        std::to_string(p));
  }

  report.json().arr_close();
  report.save("BENCH_fig10_amr.json");

  std::printf(
      "\nPaper reference (Fig. 10, seconds per adaptation step at 1 core):\n"
      "  NewTree 0.16 (once), Coarsen/Refine 0.01, Balance 0.03, Partition "
      "0.00,\n  ExtractMesh 0.48, Interp+Transfer 0.05, MarkElements 0.04, "
      "Solve 269.0,\n  AMR/solve 0.23%%.\n"
      "Shape check: ExtractMesh dominates the AMR share; everything is "
      "dwarfed by\nthe implicit Stokes solve.\n");
  return 0;
}
