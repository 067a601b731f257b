#pragma once
// Shared helpers for the paper-reproduction benches: fixed-width table
// printing and common workload builders. Each bench binary regenerates
// one table or figure of the paper (see DESIGN.md experiment index) and
// prints the paper's reported values alongside for comparison.

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "forest/forest.hpp"
#include "mesh/mesh.hpp"
#include "obs/analysis.hpp"
#include "obs/histogram.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "par/runtime.hpp"

namespace bench {

/// Append the communication counters as a nested object.
inline void json_comm_stats(alps::obs::TelemetryRecord& j,
                            const alps::par::CommStats& s) {
  j.obj_open("comm")
      .field("p2p_messages", s.p2p_messages)
      .field("p2p_bytes", s.p2p_bytes)
      .field("allreduce_calls", s.allreduce_calls)
      .field("allreduce_bytes", s.allreduce_bytes)
      .field("allgather_calls", s.allgather_calls)
      .field("allgather_bytes", s.allgather_bytes)
      .field("alltoall_calls", s.alltoall_calls)
      .field("alltoall_bytes", s.alltoall_bytes)
      .field("barrier_calls", s.barrier_calls)
      .obj_close();
}

/// Every bench emits its BENCH_*.json through one Reporter so all result
/// files share a schema: the bench's own fields, plus an "obs" array of
/// labeled snapshots (cross-rank phase breakdowns + merged counters) taken
/// after each par::run of interest. Write bench fields through json()
/// (the obs JSON writer), snapshot after runs, and save() once at the end.
class Reporter {
 public:
  /// Starts the record with a "meta" block (git SHA and
  /// build type captured at configure time, wall-clock date — overridable
  /// via ALPS_BENCH_DATE for reproducible CI artifacts — plus ranks /
  /// problem_size when the bench passes them) so every BENCH_*.json is
  /// attributable to the build that produced it.
  explicit Reporter(const std::string& bench_name, int ranks = 0,
                    std::int64_t problem_size = 0);

  alps::obs::TelemetryRecord& json() { return j_; }

  /// Capture the obs aggregates of the most recent par::run under `label`:
  /// phase breakdowns, merged counters, cross-rank latency histograms
  /// (per-phase count / sum / p50 / p95 / p99 / max rows), and the memory
  /// block of the run's last analyze_memory record ({"available":false}
  /// when the run made none).
  void snapshot_obs(const std::string& label);

  /// Append the obs snapshots and write the file.
  void save(const std::string& path);

 private:
  struct Snapshot {
    std::string label;
    std::vector<alps::obs::PhaseBreakdown> phases;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    // Cross-rank merged duration histograms (obs/histogram.hpp): one
    // percentile row per recorded phase in the JSON output.
    std::vector<std::pair<std::string, alps::obs::Histogram>> latency;
    std::string memory;  // analysis::memory_json of the run's last record
  };
  alps::obs::TelemetryRecord j_;
  std::vector<Snapshot> snaps_;
};

inline void header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

inline void note(const std::string& text) { std::printf("NOTE: %s\n", text.c_str()); }

/// Refine toward a Gaussian front to produce a realistically adapted mesh.
inline void adapt_toward_point(alps::par::Comm& comm, alps::forest::Forest& f,
                               const std::array<double, 3>& center, int rounds,
                               int max_level) {
  using alps::octree::octant_len;
  for (int round = 0; round < rounds; ++round) {
    const auto& conn = f.connectivity();
    std::vector<std::int8_t> flags(f.tree().leaves().size(), 0);
    for (std::size_t e = 0; e < flags.size(); ++e) {
      const auto& o = f.tree().leaves()[e];
      const auto h = octant_len(o.level);
      const auto p = conn.map_point(o.tree, o.x + h / 2, o.y + h / 2, o.z + h / 2);
      const double d2 = (p[0] - center[0]) * (p[0] - center[0]) +
                        (p[1] - center[1]) * (p[1] - center[1]) +
                        (p[2] - center[2]) * (p[2] - center[2]);
      if (d2 < 0.15 && o.level < max_level) flags[e] = 1;
    }
    f.tree().adapt(flags, 0, max_level);
    f.tree().update_ranges(comm);
  }
  f.balance(comm);
  f.partition(comm);
}

/// Measured per-element host rates of the advection-AMR pipeline phases,
/// obtained from a real single-rank calibration run. These feed the
/// performance model (src/perf) that synthesizes the paper's large-P
/// curves; see DESIGN.md (substitutions).
struct AmrRates {
  double time_integration = 0;  // s / element / time step
  double mark = 0;              // s / element / adaptation
  double coarsen_refine = 0;
  double balance = 0;
  double interpolate = 0;
  double partition = 0;
  double extract = 0;
  long long elements = 0;
  int steps = 0;
  int adapts = 0;
};

AmrRates calibrate_advection_rates(int init_level = 4, int steps = 24,
                                   int adapt_every = 8);

}  // namespace bench
