#pragma once
// alps::obs — unified per-rank tracing and metrics (DESIGN.md §8).
//
// Three pieces, shared by the whole stack:
//
//  1. Scoped spans (OBS_SPAN / OBS_PHASE_SPAN) recorded into per-rank
//     ring buffers. Each simulated rank (par::run thread) owns its buffer
//     and is its only writer, so recording takes no locks; the main
//     thread reads the buffers only after par::run has joined the rank
//     threads. Buffers export as Chrome trace-event JSON — one track per
//     rank — loadable in Perfetto or chrome://tracing.
//  2. A counter registry (interned name -> small integer id, per-rank
//     value slots) absorbing solver metrics: MINRES/CG iterations, AMG
//     V-cycles, per-level hierarchy nnz, ghost-exchange payload bytes.
//  3. Per-rank phase accumulators (name -> cumulative seconds) feeding a
//     cross-rank aggregator that reduces each phase to min / median /
//     max / mean / imbalance — the single source for the paper's
//     Fig. 7/8/10 breakdown tables and for perf::MachineModel inputs.
//
// Kill switches: tracing is off unless ALPS_TRACE is set (=1 enables
// phase + solver spans; =comm/all additionally records per-collective
// spans) or set_enabled() is called; a disabled span is one relaxed
// atomic load. Phase accumulation and counters stay on regardless of the
// runtime switches — they replace the old hand-threaded rhea::PhaseTimers
// bookkeeping and cost one thread-local add on paths that are never
// per-element hot. Compiling with -DALPS_OBS_DISABLE removes the span
// macros entirely, OBS_PHASE_SPAN included, so in that build the phase
// accumulators (and rhea::PhaseTimers) read zero; counters stay.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace alps::obs {

// ---- enablement -------------------------------------------------------

enum class Cat : std::uint8_t { kPhase = 0, kSolver = 1, kComm = 2 };

namespace detail {
// Bit 0: record phase/solver spans. Bit 1: record comm spans.
// Initialized from ALPS_TRACE on first use; see ensure_init().
extern std::atomic<int> g_mask;
int init_mask();
inline int mask() {
  int m = g_mask.load(std::memory_order_relaxed);
  return m >= 0 ? m : init_mask();
}
}  // namespace detail

inline bool enabled() { return (detail::mask() & 1) != 0; }
inline bool category_enabled(Cat c) {
  const int m = detail::mask();
  return c == Cat::kComm ? (m & 2) != 0 : (m & 1) != 0;
}
void set_enabled(bool on);       // overrides ALPS_TRACE
void set_comm_tracing(bool on);  // overrides ALPS_TRACE=comm/all

// ---- world / rank lifecycle (called by par::run) ----------------------

/// Reset all per-rank state for a world of `nranks` and restart the
/// trace clock. Must be called while no rank thread is running.
void world_begin(int nranks);
/// Bind the calling thread to rank slot `rank`; spans/counters/phases
/// recorded by this thread go there. Unbound threads record nothing.
void rank_bind(int rank);
void rank_unbind();
int world_size();
/// Monotone counter bumped by every world_begin; obs::analysis uses it to
/// invalidate its per-world baselines without a reverse link dependency.
std::uint64_t world_generation();
/// Nanoseconds since the current world's trace epoch.
std::uint64_t trace_now_ns();

/// Ring capacity (span events per rank) for subsequent world_begin calls;
/// also settable via ALPS_TRACE_BUF. Returns the previous value.
std::size_t set_ring_capacity(std::size_t events_per_rank);

// ---- spans ------------------------------------------------------------

struct SpanEvent {
  const char* name;  // string literal or interned counter name
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  Cat cat = Cat::kSolver;
};

/// RAII scoped span. `accumulate_phase` additionally adds the elapsed
/// seconds to this rank's phase accumulator under `name` (always, even
/// with tracing disabled — this is what powers rhea::PhaseTimers).
/// `name` must outlive the trace session: pass a string literal.
class Span {
 public:
  explicit Span(const char* name, Cat cat = Cat::kSolver,
                bool accumulate_phase = false);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t t0_ = 0;
  Cat cat_;
  bool record_ = false;  // emit a trace event on close
  bool phase_ = false;   // add to the phase accumulator on close
};

#ifndef ALPS_OBS_DISABLE
#define ALPS_OBS_CONCAT2(a, b) a##b
#define ALPS_OBS_CONCAT(a, b) ALPS_OBS_CONCAT2(a, b)
/// Trace-only scoped span (solver category).
#define OBS_SPAN(name) \
  ::alps::obs::Span ALPS_OBS_CONCAT(obs_span_, __LINE__)(name)
/// Scoped span that also accumulates into the named phase.
#define OBS_PHASE_SPAN(name)                             \
  ::alps::obs::Span ALPS_OBS_CONCAT(obs_span_, __LINE__)( \
      name, ::alps::obs::Cat::kPhase, true)
/// Communication-category span (recorded only with ALPS_TRACE=comm/all).
#define OBS_COMM_SPAN(name)                              \
  ::alps::obs::Span ALPS_OBS_CONCAT(obs_span_, __LINE__)( \
      name, ::alps::obs::Cat::kComm)
#else
#define OBS_SPAN(name) ((void)0)
#define OBS_PHASE_SPAN(name) ((void)0)
#define OBS_COMM_SPAN(name) ((void)0)
#endif

/// Completed span events of `rank`, in completion order. Call only after
/// par::run has returned (the rank threads are the only writers).
std::vector<SpanEvent> events(int rank);
/// Events that did not fit in the ring and were dropped.
std::uint64_t dropped(int rank);

/// Innermost open OBS_PHASE_SPAN name on the calling thread, or nullptr
/// outside any phase. Wait-state classification keys its buckets on this.
const char* current_phase();

/// Approximate bytes held by the calling rank's own obs state (span ring,
/// flow buffer, counter/phase tables) — what the "obs.self" memory scope
/// reports, so the observer shows up in its own accounting.
std::uint64_t self_memory_bytes();

// ---- wait-state instrumentation (consumed by obs::analysis) -----------
//
// The par::Comm runtime stamps every message envelope with its send time
// and reports each blocked receive and collective barrier here, so per
// phase and per rank the blocked time decomposes Scalasca-style:
//   late_sender_s    waited before the matching send was even posted
//                    (attributed to the sending rank),
//   transfer_s       waited after the send was posted (delivery/wakeup),
//   late_receiver_s  messages sat queued before this rank entered the
//                    receive — comm time that WAS hidden by local work,
//   collective_s     blocked in collective staging barriers (imbalance).
// The split-phase halo marks (overlap_mark_*) additionally measure, per
// phase, how much of the halo round-trip the caller covered with local
// compute between *_start and *_finish — the achieved-overlap metric of
// the PR 5 split apply. Everything here is a relaxed-atomic no-op unless
// ALPS_ANALYSIS is on (default: on; set ALPS_ANALYSIS=0 to remove the
// two clock reads per receive).

struct WaitBuckets {
  double late_sender_s = 0, transfer_s = 0, late_receiver_s = 0,
         collective_s = 0;
  double overlap_covered_s = 0;  // compute between halo start and finish
  double overlap_waited_s = 0;   // blocked inside halo finish
  std::uint64_t recvs = 0, waited_recvs = 0, collectives = 0, halo_ops = 0;

  /// Seconds this rank was stalled: late sender + transfer + collective.
  double blocked_s() const { return late_sender_s + transfer_s + collective_s; }
  /// Field-wise sum and difference (rank merges, per-step deltas).
  WaitBuckets& operator+=(const WaitBuckets& o);
  WaitBuckets& operator-=(const WaitBuckets& o);
};

/// True when wait-state accounting is active (ALPS_ANALYSIS, default on).
bool analysis_enabled();
void set_analysis_enabled(bool on);  // overrides ALPS_ANALYSIS

/// trace_now_ns() when accounting is active on a bound rank thread, else
/// 0 — the sentinel the recorders use to skip disabled call sites.
std::uint64_t wait_now();
/// Thread-local recursion guard: while suppressed, the calling thread's
/// waits are not recorded (obs::analysis uses it so the analyzer's own
/// collectives do not pollute the buckets it is measuring).
void wait_suppress(bool on);
void wait_record_recv(int src, std::uint64_t enter_ns, std::uint64_t sent_ns,
                      std::uint64_t got_ns);
void wait_record_collective(std::uint64_t enter_ns, std::uint64_t resume_ns,
                            bool count_call = true);
/// Split-phase halo markers: start = sends posted, finish_begin = caller
/// done with overlapped compute, finish_end = ghost data consumed.
void overlap_mark_start();
void overlap_mark_finish_begin();
void overlap_mark_finish_end();

/// One phase's wait buckets on one rank, with the per-source-rank
/// late-sender attribution (who this rank waited for, and how long).
struct PhaseWaitSample {
  std::string phase;
  WaitBuckets w;
  std::vector<std::pair<int, double>> late_sender_by_rank;  // sorted by rank
};
/// Wait buckets of `rank`, one entry per phase that recorded any wait.
/// Safe from the owning rank thread or after par::run has joined.
std::vector<PhaseWaitSample> wait_samples(int rank);
/// Same, for the calling thread's bound rank (empty when unbound).
std::vector<PhaseWaitSample> wait_samples();
/// All phase accumulators of the calling thread's rank.
std::vector<std::pair<std::string, double>> phase_snapshot();

// ---- cross-rank flow events -------------------------------------------
//
// Perfetto flow arrows linking the split-phase halo: the sender records a
// flow start ("s") inside its *_start span, the receiver records the
// matching finish ("f") inside its *_finish span. Ids are derived from a
// per-(channel, src, dst) sequence counter on both sides — the mailbox
// delivers same-channel messages FIFO, so the k-th send matches the k-th
// receive and both ends compute the same id without shipping it.

struct FlowEvent {
  std::uint64_t id = 0;
  std::uint64_t ns = 0;
  bool start = false;
};

/// Flow channels (part of the flow id, so arrows of different operations
/// can never cross-link).
enum : int {
  kFlowHaloAccumulate = 0,
  kFlowHaloExchange = 1,
  kFlowGhostForward = 2,
  kFlowGhostReverse = 3,
};

/// Record one flow endpoint with `peer` on `channel`. `outgoing` is true
/// on the sending side. The sequence counter always advances so both
/// sides stay matched even when tracing toggles mid-run; the event itself
/// is recorded only while tracing is enabled.
void flow_emit(int peer, int channel, bool outgoing);
std::vector<FlowEvent> flows(int rank);
std::uint64_t flow_dropped(int rank);

// ---- counters ---------------------------------------------------------

using CounterId = std::uint32_t;

/// Intern `name` into the registry (thread-safe; cache the id in a
/// function-local static on hot paths).
CounterId counter(const char* name);
/// Add to this rank's slot for `id`; no-op on unbound threads.
void counter_add(CounterId id, std::uint64_t delta);
std::uint64_t counter_value(int rank, CounterId id);

/// Pre-interned ids for the hot instrumentation sites.
namespace wellknown {
CounterId ghost_exchange_bytes();
CounterId minres_iterations();
CounterId cg_iterations();
CounterId amg_vcycles();
/// Hierarchy-reuse outcomes per StokesSolver construction (see
/// amg::HierarchyCache): full symbolic setup / numeric-only RAP refresh.
CounterId amg_setup_full();
CounterId amg_setup_numeric();
/// Global synchronization rounds (fused multi-value allreduces) issued by
/// the Krylov iterations ("comm.sync.minres" / "comm.sync.cg"). Divided
/// by the matching *_iterations counter this yields the per-iteration
/// sync count the reduced-synchronization solvers must keep <= 2.
CounterId minres_syncs();
CounterId cg_syncs();
}  // namespace wellknown

/// Sum each counter across all rank slots; sorted by name, zero-valued
/// counters omitted.
std::vector<std::pair<std::string, std::uint64_t>> aggregate_counters();

/// The calling thread's rank's nonzero counters, sorted by name (empty
/// when unbound). Single-rank view of aggregate_counters(); safe to call
/// from a running rank thread — obs::analysis ships it in the per-step
/// exchange so cross-rank totals never require reading foreign slots.
std::vector<std::pair<std::string, std::uint64_t>> counter_snapshot();

// ---- gauges ------------------------------------------------------------
//
// Instantaneous per-rank values (local element count, owned dofs, queue
// depths): set-overwrite semantics, shipped in the per-step analysis
// exchange and reduced to {sum, max} across ranks — how the telemetry
// record and the metrics endpoint learn global mesh and solver statistics
// without any extra collective.

/// Overwrite this rank's gauge `name` (string literal; no-op unbound).
void gauge_set(const char* name, double value);
/// All gauges of the calling thread's rank, sorted by name.
std::vector<std::pair<std::string, double>> gauge_snapshot();

// ---- phases -----------------------------------------------------------

/// Add `seconds` to this rank's accumulator for `name` (no-op unbound).
void phase_add(const char* name, double seconds);
/// Cumulative seconds of `name` on the calling thread's rank (0 unbound).
double phase_seconds(const char* name);
double phase_seconds(int rank, const char* name);

/// Cross-rank reduction of one phase: the Fig. 7/8/10 statistics.
struct PhaseBreakdown {
  std::string name;
  double min_s = 0, median_s = 0, max_s = 0, mean_s = 0;
  double total_s = 0;    // sum over ranks (total work)
  double imbalance = 1;  // max / mean; 1 when the phase is balanced
  int ranks = 0;
};

/// Reduce every recorded phase across ranks (call after par::run; ranks
/// that never entered a phase contribute 0). Sorted by name.
std::vector<PhaseBreakdown> aggregate_phases();

// ---- trace export -----------------------------------------------------

/// All ranks' spans as Chrome trace-event JSON ("X" complete events,
/// pid 0, tid = rank, ts/dur in microseconds) plus thread-name metadata
/// and a top-level "alpsDropped" array (per-rank dropped-event counts,
/// checked by scripts/check_trace.py).
std::string chrome_trace_json();
void write_chrome_trace(const std::string& path);
/// If tracing is enabled, write the trace to ALPS_TRACE_OUT (or
/// `default_path` when unset) and return the path; else return "".
std::string maybe_write_trace(const std::string& default_path);

}  // namespace alps::obs
