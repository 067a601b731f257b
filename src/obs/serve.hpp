#pragma once
// obs::serve — rank-0 in-situ metrics endpoint (DESIGN.md §14).
//
// A tiny dependency-free blocking HTTP server on a background thread,
// off by default and enabled with ALPS_METRICS_PORT (port number; 0
// binds an ephemeral port). It binds 127.0.0.1 unless ALPS_METRICS_BIND
// overrides the address. Endpoints:
//
//   /metrics         Prometheus text exposition: run gauges, cumulative
//                    counters, and one histogram series per phase
//                    (alps_latency_seconds{phase=...}).
//   /status          JSON run manifest: step, sim time, dt, dofs,
//                    elements, health, the step's solver rows, and a
//                    wall-clock ETA from a sliding-window step rate.
//   /healthz         200 "ok" while stepping; 503 after a sentinel trip
//                    or >= N consecutive stagnated/failed solves.
//
// Concurrency: the simulation thread (rank 0, once per step) renders a
// MetricsSnapshot into one of two pre-allocated response buffers and
// atomically publishes it; the server thread pins a buffer with a
// per-slot reader count before reading and the publisher never rewrites
// a slot that still has readers. No locks on the read side, no
// allocation races — the protocol TSan is pointed at in CI. All
// cross-rank data in the snapshot arrives via the per-step obs::analysis
// exchange: serving metrics adds zero collectives.
//
// Compiled out (inline no-op stubs) under -DALPS_OBS_DISABLE.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/telemetry.hpp"

namespace alps::obs {

/// Everything one /metrics + /status render needs, filled by the
/// simulation loop on rank 0 from the step's analysis record.
struct MetricsSnapshot {
  int step = 0;
  double sim_time = 0;
  double dt = 0;
  std::int64_t dofs = 0;
  std::int64_t elements = 0;
  int ranks = 0;
  double partition_imbalance = 1;
  double cp_imbalance = 1;
  // This step's Stokes solves, one row per Picard iteration; empty on
  // steps that only advanced energy (convergence tracking ignores those,
  // and the Prometheus solver gauges report the last row).
  std::vector<SolveRow> solves;
  int picard_iterations = 0;
  bool healthy = true;
  std::string health_reason;  // "" while healthy
  // Rank-summed cumulative counters (analysis::StepRecord::counters).
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  // Run-cumulative cross-rank histograms (analysis::merged_histograms).
  std::vector<std::pair<std::string, Histogram>> hists;
  // Step wait-state total over ranks (late_sender + transfer + collective).
  double wait_blocked_s = 0;
  bool mem_available = false;
  std::uint64_t mem_accounted_total = 0;
  std::uint64_t mem_rss_max = 0;
};

#ifndef ALPS_OBS_DISABLE

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

/// Render and atomically publish `snap`; the server thread picks it up
/// on the next request. Also feeds the ETA window and the convergence
/// tracker. Call from one thread (rank 0 of the step loop).
void metrics_publish(const MetricsSnapshot& snap);
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
/// and any published snapshot. Tests only: real runs never recover.
void metrics_reset_for_testing();

/// Pure renderers, exposed for tests (exactly what /metrics and /status
/// serve for `snap`).
std::string prometheus_text(const MetricsSnapshot& snap);
std::string status_json(const MetricsSnapshot& snap, double eta_s,
                        double step_rate_per_s, long target_steps);

#else  // ALPS_OBS_DISABLE: observability is compiled out entirely.

inline int serve_start(int, std::string* = nullptr) { return -1; }
inline int serve_maybe_start() { return -1; }
inline void serve_stop() {}
inline bool serve_active() { return false; }
inline int serve_port() { return -1; }
inline void metrics_publish(const MetricsSnapshot&) {}
inline void metrics_set_target_steps(long) {}
inline int metrics_set_stagnation_limit(int) { return 0; }
inline void metrics_mark_unhealthy(const std::string&) {}
inline void metrics_linger_if_unhealthy() {}
inline void metrics_reset_for_testing() {}
inline std::string prometheus_text(const MetricsSnapshot&) { return {}; }
inline std::string status_json(const MetricsSnapshot&, double, double, long) {
  return {};
}

#endif

}  // namespace alps::obs
