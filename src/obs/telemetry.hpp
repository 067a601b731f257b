#pragma once
// alps::obs telemetry — the per-timestep health stream (DESIGN.md §8).
//
// While spans answer "where did the time go", telemetry answers "is the
// simulation healthy and converging": one JSONL record per time step
// (step, time, dt, mesh statistics, solver iterations and residuals,
// physics diagnostics), appended to ALPS_TELEMETRY_OUT by rank 0 of the
// rhea timestep loop. The stream reproduces the paper's Fig. 5 (mesh
// statistics per adaptation) and Fig. 6 (long-horizon convection
// diagnostics) data directly; scripts/check_telemetry.py validates the
// schema and step monotonicity in CI.
//
// The sink also keeps an in-memory tail ring of the last emitted records
// and a registry of recent solver residual histories — both are written
// into the flight-recorder bundle (obs/dump.hpp) when a run dies. The
// tail holds only what was emitted: rhea::Simulation builds and emits a
// record only while telemetry is on, so a run without ALPS_TELEMETRY
// dumps an empty tail.
//
// The record builder is also the repository's one JSON writer, and the
// facts several outputs report (counters, phases, latency rows, solver
// rows) each have one encoder here; the memory block's encoder is
// obs::analysis::memory_json.
//
// Enablement: ALPS_TELEMETRY=1 (or any non-empty value but "0") turns the
// stream on; ALPS_TELEMETRY_OUT overrides the output path (default
// "alps_telemetry.jsonl"). set_telemetry()/set_telemetry_path() override
// the environment programmatically (tests). Emission is mutex-guarded —
// it is a once-per-timestep cold path.

#include <concepts>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/obs.hpp"

namespace alps::obs {

// ---- enablement -------------------------------------------------------

/// True when ALPS_TELEMETRY is set (and not "0"/"") or set_telemetry(true)
/// was called.
bool telemetry_enabled();
void set_telemetry(bool on);  // overrides ALPS_TELEMETRY

/// Output path: ALPS_TELEMETRY_OUT, or the set_telemetry_path override,
/// or "alps_telemetry.jsonl".
std::string telemetry_path();
/// Override the output path (takes precedence over the environment;
/// empty string restores the default resolution). Closes any open sink.
void set_telemetry_path(const std::string& path);

// ---- record builder: the one JSON writer -------------------------------

/// One JSON object, built member by member — the only JSON writer in the
/// repository: telemetry records, the obs::analysis blocks, /status, the
/// flight-recorder files and BENCH_*.json all go through it, so they
/// share one number policy and one separator style. Finite doubles print
/// as %.9g, non-finite ones as null (JSON has no NaN/Inf literal, and a
/// dying run must still produce parseable lines), integers exactly;
/// members are compact "k":v. Keys are emitted in call order. A null key
/// writes a bare value: an array element, or the top-level value when
/// the caller reads str() instead of json(). No escaping is performed
/// (keys and string values are ASCII identifiers or quote-free text).
/// Callers balance the open/close calls.
class TelemetryRecord {
 public:
  TelemetryRecord& field(const char* key, double v);
  template <std::integral T>
  TelemetryRecord& field(const char* key, T v) {
    return field_json(key, std::to_string(v));
  }
  TelemetryRecord& field(const char* key, bool v);
  TelemetryRecord& field(const char* key, std::string_view v);
  // Without this overload a string literal would convert to bool.
  TelemetryRecord& field(const char* key, const char* v) {
    return field(key, std::string_view(v));
  }
  /// Integer array value, e.g. per-level element counts.
  TelemetryRecord& field(const char* key, std::span<const std::int64_t> v);
  /// Pre-serialized JSON value emitted verbatim (obs::analysis blocks).
  TelemetryRecord& field_json(const char* key, std::string_view raw);

  /// Nested containers: the member `key` (or a bare value for null).
  TelemetryRecord& obj_open(const char* key = nullptr) {
    return open(key, '{');
  }
  TelemetryRecord& obj_close() { return close('}'); }
  TelemetryRecord& arr_open(const char* key = nullptr) {
    return open(key, '[');
  }
  TelemetryRecord& arr_close() { return close(']'); }

  /// The record as a single JSON object line (no trailing newline).
  std::string json() const { return "{" + body_ + "}"; }
  /// The members (or the one bare top-level value) without the braces.
  const std::string& str() const { return body_; }

 private:
  void key(const char* key);
  TelemetryRecord& open(const char* key, char c);
  TelemetryRecord& close(char c);
  std::string body_;
};

// ---- one encoder per fact ---------------------------------------------
//
// Facts that several outputs report are encoded once, here. Each writes
// one value under `key` (a bare value for a null key).

/// {"name":count,...} — the merged counter table (counters.json and the
/// BENCH_*.json "counters" block).
void json_counters(
    TelemetryRecord& w, const char* key,
    const std::vector<std::pair<std::string, std::uint64_t>>& counters);
/// [{"name","min_s","median_s","max_s","mean_s","total_s","imbalance",
/// "ranks"},...] — the cross-rank phase table (phases.json and the
/// BENCH_*.json "phases" block).
void json_phases(TelemetryRecord& w, const char* key,
                 const std::vector<PhaseBreakdown>& phases);
/// One percentile row {"phase","count","sum_s","p50_s","p95_s","p99_s",
/// "max_s"} as an array element (the telemetry latency block and the
/// BENCH_*.json latency rows).
void json_latency_row(TelemetryRecord& w, const std::string& phase,
                      const Histogram& h);

/// One Krylov solve of a Picard iteration.
struct SolveRow {
  std::string status;  // la::to_string token
  int iterations = 0;
  double relres = 0;
};
/// [{"status","iterations","relres"},...] — one row per Picard
/// iteration's solve, in order (the telemetry "solves" field and the
/// /status solver block).
void json_solves(TelemetryRecord& w, const char* key,
                 const std::vector<SolveRow>& rows);

// ---- sink -------------------------------------------------------------

/// Append `rec` to the in-memory tail ring and, while telemetry is on, as
/// one line to the telemetry file (lazily opened, truncated on the first
/// write of the process). Call from one rank per record — by convention
/// rank 0 of the simulation loop. Thread-safe.
void telemetry_emit(const TelemetryRecord& rec);

/// The most recent emitted lines, oldest first (bounded ring; also fed by
/// emits that happened while the file sink was disabled — but callers
/// that skip building a record when telemetry is off, as rhea does, feed
/// it nothing).
std::vector<std::string> telemetry_tail();

/// Number of records emitted since process start (monotonic).
std::uint64_t telemetry_records();

/// Bytes held by the in-memory tail ring and history registry — what the
/// "obs.telemetry" memory scope reports (see obs/mem.hpp).
std::uint64_t telemetry_tail_bytes();

// ---- solver history registry ------------------------------------------

/// Keep `values` as the most recent history under `name` (per-iteration
/// Krylov residuals, AMG convergence factors, ...). A bounded number of
/// histories per name is retained, newest last. Thread-safe; cold path.
void record_history(const char* name, std::span<const double> values);

/// Snapshot of all recorded histories, sorted by name; each name carries
/// its retained histories, oldest first.
std::vector<std::pair<std::string, std::vector<std::vector<double>>>>
histories();

/// Drop all recorded histories and the telemetry tail (tests).
void telemetry_reset_for_testing();

}  // namespace alps::obs
