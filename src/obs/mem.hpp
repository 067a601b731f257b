#pragma once
// alps::obs memory observability — per-subsystem byte accounting and
// process-level RSS sampling (DESIGN.md §12).
//
// The paper's scalability claim is that AMR + AMG keep memory per core
// bounded as the mesh adapts; this module makes that claim measurable.
// Two complementary views, deliberately kept apart:
//
//  1. *Accounted* bytes: once per step each rank hands mem_report() one
//     table of named scopes ("amg.operators", "mesh.halo", ...) built
//     from the memory_bytes() accessors of the big owners (mesh/forest,
//     la::DistCsr, amg::DistAmg, par mailboxes, obs itself). The table
//     replaces the rank's previous one in its own slot. Scope names use
//     a "subsystem.detail" convention; aggregation by the prefix before
//     the first '.' yields the per-subsystem breakdown and the bytes/dof
//     figures gated by bench_memory. The accounted high-water mark is the
//     running maximum of the reported totals.
//  2. *RSS*: what the OS actually charges the process, sampled from
//     /proc/self/statm + /proc/self/status (VmHWM). Off-Linux or when
//     /proc is unreadable the sample degrades to available:false rather
//     than fabricating zeros.
//
// The RSS peak is sampled on every 16th phase-span close (RSS only moves
// when allocations happen, and those sit inside phases) and attributed
// to the phase that closed, so a spike names the phase that caused it.
//
// Enablement: ALPS_MEM (default ON — accounting is one table per
// timestep, never per-element) or set_mem_enabled(). -DALPS_OBS_DISABLE
// pins mem_enabled() to false.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace alps::obs {

// ---- enablement -------------------------------------------------------

/// True unless ALPS_MEM is "0" or set_mem_enabled(false) was called.
/// Process-global, so collective code may branch on it symmetrically.
bool mem_enabled();
void set_mem_enabled(bool on);  // overrides ALPS_MEM

// ---- per-rank scope table --------------------------------------------

/// Heap bytes a vector holds — capacity-based, i.e. what the allocator
/// actually charges, not just what is in use. The owners' memory_bytes()
/// accessors are built from this.
template <typename T>
std::uint64_t vec_bytes(const std::vector<T>& v) {
  return static_cast<std::uint64_t>(v.capacity()) * sizeof(T);
}

/// One rank's accounted bytes by "subsystem.detail" scope name.
using MemTable = std::vector<std::pair<std::string, std::uint64_t>>;

/// Replace the calling rank's whole scope table: a scope left out reads
/// zero from now on. Raises the rank's accounted HWM to the new total
/// when it is higher. No-op on unbound threads or when disabled.
void mem_report(MemTable table);

/// The calling rank's table (non-zero scopes, sorted by name) and its
/// accounted HWM; empty / 0 on unbound threads or before any report.
/// This is the per-rank blob obs::analysis::analyze_memory exchanges.
MemTable mem_snapshot();
std::uint64_t mem_hwm();

// ---- process RSS ------------------------------------------------------

/// One /proc sample. available is false off-Linux, when /proc is
/// unreadable, or under set_rss_unavailable_for_testing — consumers must
/// then omit the numeric fields entirely (checked by check_telemetry.py).
struct RssSample {
  bool available = false;
  std::uint64_t rss_bytes = 0;  // VmRSS right now
  std::uint64_t hwm_bytes = 0;  // VmHWM: kernel-tracked lifetime peak
};
RssSample sample_rss();
/// Force the unavailable path regardless of /proc (tests).
void set_rss_unavailable_for_testing(bool forced);

/// Highest RSS seen by the cadence sampler since world_begin, with the
/// phase whose close took that sample. The process address space is
/// shared by every in-process rank, so this is per-world, not per-rank.
struct RssPeak {
  std::uint64_t bytes = 0;
  const char* phase = nullptr;
};
RssPeak rss_peak();

namespace memdetail {
// Called by the obs world/rank lifecycle (obs.cpp).
void world_begin(int nranks);
void rank_bind(int rank);
void rank_unbind();
/// Called on every phase-span close; samples RSS every 16th call and
/// folds the result into rss_peak().
void phase_close_tick(const char* phase);
}  // namespace memdetail

}  // namespace alps::obs
