#pragma once
// obs::analysis — cross-rank wait-state attribution and critical-path
// profiling over the span/counter/wait streams (DESIGN.md §11).
//
// The raw instrumentation (obs.hpp wait-state section) is strictly
// rank-local: each rank accumulates, per innermost phase, how long it was
// blocked and why (late sender / transfer / collective staging), plus the
// split-phase halo overlap marks. This module adds the collective step:
// analyze_step() is called by every rank at a synchronization point (the
// rhea timestep loop calls it once per step), exchanges each rank's
// per-phase deltas since the previous call, and stitches them into
//
//  * a step-level critical path: for each phase, the slowest rank and its
//    time; the chain of per-phase maxima bounds the step (phase-additive —
//    nested phases like stokes.minres/amg.apply are reported as-is, so
//    the total is an upper bound when phases overlap);
//  * per-phase wait-state totals with the most-blamed late sender;
//  * the achieved-overlap ratio covered/(covered+waited) of the
//    split-phase halo exchanges, which is in [0, 1] by construction.
//
// The analyzer's own collectives run under wait_suppress so they never
// appear in the buckets they are measuring. Step records are returned,
// not retained: the caller embeds them in its per-step telemetry blocks
// (validated by scripts/check_telemetry.py). Rank 0 keeps only what is
// bounded by the number of names: the run-cumulative histograms behind
// /metrics and the last memory record (last_memory).
//
// The same exchange is the one carrier of per-step cross-rank facts: it
// also ships each rank's cumulative counters, gauges (obs::gauge_set —
// rhea's element and per-level counts and step V-cycles) and latency
// histogram deltas, so the telemetry record and the metrics endpoint need
// no collectives of their own.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/obs.hpp"

namespace alps::par {
class Comm;
}

namespace alps::obs::analysis {

/// One phase on the step's critical path.
struct PhaseCritical {
  std::string phase;
  double cp_s = 0;       // max over ranks of this step's phase time
  double mean_s = 0;     // mean over ranks
  int rank = -1;         // argmax rank (who bounded the step here)
  double imbalance = 1;  // cp_s / mean_s (1 when balanced or empty)
};

/// One phase's wait-state totals, summed over ranks for this step.
struct PhaseWaits {
  std::string phase;
  WaitBuckets w;              // rank-summed buckets
  double wall_s = 0;          // rank-summed phase seconds (for validation)
  double max_blocked_s = 0;   // worst single-rank blocked time
  double overlap = -1;        // covered/(covered+waited); -1 = no halo ops
  int blamed_rank = -1;       // sender with the most attributed late time
  double blamed_s = 0;
};

/// One phase's all-rank duration histogram for this step's window (the
/// exact bucket merge of every rank's delta since the previous step).
struct PhaseLatency {
  std::string phase;
  Histogram hist;
};

/// One per-rank gauge reduced over ranks (obs::gauge_set values).
struct GaugeStat {
  std::string name;
  double sum = 0;
  double max = 0;
};

/// Everything analyze_step derives for one timestep; identical on every
/// rank (built from the same allgathered data).
struct StepRecord {
  int step = 0;
  double cp_length_s = 0;    // sum of per-phase maxima
  double mean_length_s = 0;  // sum of per-phase means
  double cp_imbalance = 1;   // cp_length_s / mean_length_s
  std::vector<PhaseCritical> critical;  // sorted by cp_s, descending
  std::vector<PhaseWaits> waits;        // sorted by blocked time, descending
  std::vector<PhaseLatency> latency;    // sorted by name
  // Rank-summed *cumulative* counter values (monotone; Prometheus-ready).
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<GaugeStat> gauges;  // sorted by name
};

/// Collective: exchange this rank's per-phase time and wait deltas since
/// the previous analyze_step (or world start) and return the stitched
/// step record. Every rank of `comm` must call it together; rank 0 also
/// merges the record's latency into merged_histograms(). The exchange
/// runs whether or not wait-state accounting is on: with ALPS_ANALYSIS=0
/// no waits were recorded, so `waits` is empty, while the critical path,
/// counters, gauges and latency are still produced.
StepRecord analyze_step(par::Comm& comm, int step);

/// JSON object fragments (no surrounding key) for telemetry embedding:
/// {"length_s":..,"phases":[{"phase":..,"cp_s":..,"rank":..},..]}
/// and {"phases":[{"phase":..,"late_sender_s":..,..,"overlap":..},..]}.
std::string critical_path_json(const StepRecord& rec);
std::string wait_states_json(const StepRecord& rec);

/// The telemetry "latency" block for one step's merged histograms:
/// {"phases":[{"phase":..,"count":..,"sum_s":..,"p50_s":..,"p95_s":..,
/// "p99_s":..,"max_s":..},..]}. Quantiles carry the histogram's ~4%
/// relative-error bound (DESIGN.md §14).
std::string latency_json(const StepRecord& rec);

/// Run-cumulative cross-rank histograms: every step's merged deltas
/// accumulated by rank 0's analyze_step calls in the current world —
/// the source of the Prometheus histogram series. One entry per name;
/// sorted by name; copied under the analysis lock.
std::vector<std::pair<std::string, Histogram>> merged_histograms();

// ---- memory aggregation (obs/mem.hpp across ranks) ---------------------

/// One memory scope reduced over ranks.
struct MemScopeStat {
  std::string scope;        // full "subsystem.detail" name
  std::uint64_t total = 0;  // summed over ranks
  std::uint64_t max = 0;    // worst single rank
  int argmax = -1;
};

/// Everything analyze_memory derives for one timestep; identical on every
/// rank. `enabled` is false (and nothing else valid) when obs::mem is off.
struct MemRecord {
  int step = 0;
  bool enabled = false;
  int ranks = 0;
  // Accounted (mem_report) bytes per rank.
  std::uint64_t acc_min = 0, acc_max = 0, acc_total = 0;
  double acc_median = 0, acc_mean = 0, acc_imbalance = 1;
  int acc_argmax = -1;
  std::vector<std::uint64_t> acc_by_rank;  // drift detector input
  std::uint64_t acc_hwm_max = 0;  // worst rank's accounted high-water mark
  // Process RSS (identical across in-process ranks; kept per rank so the
  // schema survives a real-MPI backend).
  bool rss_available = false;
  std::uint64_t rss_min = 0, rss_max = 0;
  double rss_mean = 0, rss_imbalance = 1;
  int rss_argmax = -1;
  std::uint64_t rss_hwm_max = 0;  // max over ranks of sampled-peak RSS
  std::string rss_hwm_phase;
  std::vector<MemScopeStat> scopes;       // full names, sorted
  std::vector<MemScopeStat> subsystems;   // grouped by prefix before '.'
};

/// Collective: allgather every rank's accounted bytes, HWMs, RSS sample,
/// and scope snapshot, and return the stitched record. Every rank of
/// `comm` must call it together; rank 0 also keeps the record as
/// last_memory(). When obs::mem is disabled no communication happens
/// (the gate is process-global, so all ranks branch the same way).
MemRecord analyze_memory(par::Comm& comm, int step);

/// Rank 0's most recent analyze_memory record in the current world —
/// what the flight recorder's memory.json and each BENCH_*.json obs
/// snapshot encode with memory_json. A world that made none (or an
/// earlier world's record, once a new world has begun) reads as a default
/// record, whose `enabled` is false. Read from rank 0 or after par::run
/// has joined.
MemRecord last_memory();

/// The telemetry "memory" block: {"available":..,"accounted":{..},
/// "rss":{..},"subsystems":[..],"scopes":[..]}. Subsystems group scopes
/// by the name prefix before the first '.'; bytes_per_dof fields are
/// emitted when `dofs` > 0. When RSS is unavailable its object is exactly
/// {"available":false} — no numeric fields (check_telemetry.py rejects
/// mixtures). `drift_json`, when non-empty, is embedded verbatim as the
/// "drift" member (rhea's detector state).
std::string memory_json(const MemRecord& rec, std::int64_t dofs,
                        const std::string& drift_json = {});

}  // namespace alps::obs::analysis
