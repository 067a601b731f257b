#pragma once
// obs::serve — the per-step report and the rank-0 in-situ metrics
// endpoint (DESIGN.md §14).
//
// rhea::Simulation fills one StepReport per step on rank 0 while
// telemetry or the endpoint is on. Its three encodings: the telemetry
// line (json_step_report's members), /status (those members followed by
// the serving ones) and /metrics (a Prometheus projection of it).
//
// The endpoint is a dependency-free blocking HTTP server on a background
// thread, enabled with ALPS_METRICS_PORT (0 binds an ephemeral port) on
// 127.0.0.1 or ALPS_METRICS_BIND. Endpoints:
//
//   /metrics   run gauges, cumulative counters, and one histogram series
//              per phase (alps_latency_seconds{phase=...}).
//   /status    the step's telemetry record, then "healthy",
//              "health_reason", "target_steps", "step_rate_per_s",
//              "eta_s" (sliding-window wall clock), "telemetry_records".
//   /healthz   200 "ok" while stepping; 503 after a sentinel trip or
//              >= N consecutive steps whose last solve did not converge.
//
// Concurrency: rank 0 renders each report into one of two pre-allocated
// response buffers and atomically publishes it; the server thread pins a
// buffer with a per-slot reader count before reading and the publisher
// never rewrites a slot that still has readers — lock-free on the read
// side, the protocol TSan is pointed at in CI. All cross-rank data in
// the report arrives via the per-step obs::analysis exchange: serving
// adds zero collectives.

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/histogram.hpp"
#include "obs/telemetry.hpp"

namespace alps::obs {

/// One Krylov solve of a Picard iteration.
struct SolveRow {
  std::string status;  // la::to_string token
  int iterations = 0;
  double relres = 0;
};

/// Rank 0's facts about one timestep: the one record behind the
/// telemetry line, /status and /metrics.
struct StepReport {
  int step = 0;
  double time = 0;
  double dt = 0;
  int ranks = 0;
  std::int64_t elements = 0;
  std::int64_t dofs = 0;
  double partition_imbalance = 1;
  std::vector<std::int64_t> per_level;  // global elements per level
  // This step's Stokes solves, one row per Picard iteration; empty on
  // steps that only advanced energy, which then carry no solver fields.
  std::vector<SolveRow> solves;
  int picard_iterations = 0;
  std::uint64_t amg_vcycles = 0;
  // Physics diagnostics: computed only with telemetry on (their allreduce
  // is not spent on /status alone); NaN, written as null, otherwise.
  double nusselt = std::numeric_limits<double>::quiet_NaN();
  double v_rms = std::numeric_limits<double>::quiet_NaN();
  double t_min = std::numeric_limits<double>::quiet_NaN();
  double t_max = std::numeric_limits<double>::quiet_NaN();
  double t_mean = std::numeric_limits<double>::quiet_NaN();
  // Rank 0's phase seconds for this step (the "timings" block).
  struct Timings {
    bool adapted = false;
    double mark = 0, coarsen_refine = 0, balance = 0, partition = 0,
           extract = 0, interpolate = 0, transfer = 0, time_integration = 0,
           stokes = 0;
    // The most recent EXTRACTMESH's reuse statistics (adapting steps).
    std::int64_t extract_reused = 0, extract_recomputed = 0;
    bool extract_fallback = false;
  } timings;
  analysis::StepRecord analysis;
  analysis::MemRecord memory;  // reported only when memory.enabled
  std::string drift_json;      // the memory block's "drift" member
};

/// Write the report's members into `w`: the telemetry record's keys, in
/// their order. Every telemetry key is spelled here and nowhere else.
void json_step_report(TelemetryRecord& w, const StepReport& r);

/// Start the server on `port` (0 = ephemeral) at ALPS_METRICS_BIND or
/// 127.0.0.1. Returns the bound port, or -1 with `*err` set. No-op
/// (returns the current port) when already running.
int serve_start(int port, std::string* err = nullptr);
/// Start from ALPS_METRICS_PORT when set; returns the bound port or -1
/// (unset, empty, or failed — failure is reported on stderr, never fatal:
/// monitoring must not take down the run).
int serve_maybe_start();
/// Stop the server thread and release the socket. Safe when not running.
void serve_stop();
/// True between a successful serve_start and serve_stop. Process-global,
/// so every rank branches identically on it around collectives.
bool serve_active();
/// Bound port of the running server (-1 when inactive).
int serve_port();

/// Render and atomically publish `r`; the server thread picks it up on
/// the next request. Also feeds the ETA window and the convergence
/// tracker, and reads the run-cumulative histograms. Call from one thread
/// (rank 0 of the step loop).
void metrics_publish(const StepReport& r);
/// Total steps this run intends to take (-1 = unknown): the ETA target.
void metrics_set_target_steps(long steps);
/// Consecutive steps whose last solve did not converge (any status but
/// "converged": "max_iterations", "stagnated", "diverged", "non_finite")
/// after which /healthz flips to 503. Returns the previous limit.
int metrics_set_stagnation_limit(int n);
/// Sticky kill switch: flips /healthz to 503 immediately (sentinel and
/// drift trips call this before the SentinelError propagates).
void metrics_mark_unhealthy(const std::string& reason);
/// When the server is active and unhealthy has been marked, keep serving
/// for ALPS_METRICS_LINGER seconds (default 2) so an external prober can
/// observe the 503 before the process exits. Returns immediately
/// otherwise.
void metrics_linger_if_unhealthy();
/// Clear the sticky unhealthy mark, the unconverged run, the ETA window
/// and any published report. Tests only: real runs never recover.
void metrics_reset_for_testing();

/// The renderers, exposed for tests: exactly what /metrics and /status
/// serve for `r`. `hists` are the run-cumulative latency histograms; an
/// unknown target (< 0), rate (<= 0) or ETA (< 0) is written as null.
std::string prometheus_text(
    const StepReport& r, bool healthy,
    const std::vector<std::pair<std::string, Histogram>>& hists);
std::string status_text(const StepReport& r, bool healthy,
                        const std::string& health_reason, long target_steps,
                        double step_rate_per_s, double eta_s);

}  // namespace alps::obs
