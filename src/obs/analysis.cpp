#include "obs/analysis.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <mutex>
#include <type_traits>
#include <utility>

#include "obs/mem.hpp"
#include "obs/telemetry.hpp"
#include "par/comm.hpp"

namespace alps::obs::analysis {

namespace {

// ---- per-rank baselines ------------------------------------------------
//
// analyze_step reports *deltas* since the previous call, so each rank
// keeps the cumulative phase seconds and wait buckets it last reported.
// Baselines are invalidated when obs::world_generation() changes (a new
// par::run world reset all the underlying accumulators).

struct WaitCum {
  WaitBuckets w;
  std::map<int, double> late_by_rank;
};

struct RankBaseline {
  std::map<std::string, double> phases;
  std::map<std::string, WaitCum> waits;
  std::map<std::string, Histogram> hists;  // cumulative as of last report
};

// Everything kept across calls is bounded by the number of names
// (phases, histograms, scopes), never by the number of steps.
struct AnalysisState {
  std::mutex mtx;
  std::uint64_t generation = 0;
  std::vector<RankBaseline> baselines;
  // Run-cumulative cross-rank histograms: every step's merged deltas
  // added in (rank 0 only). Exact because bucket merging is.
  std::map<std::string, Histogram> cum_hists;
  MemRecord last_mem;  // rank 0's most recent analyze_memory record
};

AnalysisState& state() {
  static AnalysisState s;
  return s;
}

/// Drop the previous world's state once a new world has begun. Called
/// with s.mtx held.
void sync_world(AnalysisState& s) {
  const std::uint64_t gen = world_generation();
  if (s.generation == gen) return;
  s.generation = gen;
  s.baselines.clear();
  s.cum_hists.clear();
  s.last_mem = MemRecord{};
}

/// Fetch this rank's baseline, resetting everything on a new world. The
/// lock is only contended at world boundaries and analyze_step entry.
RankBaseline& baseline_for(int rank, int nranks) {
  AnalysisState& s = state();
  std::lock_guard<std::mutex> lock(s.mtx);
  sync_world(s);
  if (s.baselines.size() < static_cast<std::size_t>(nranks))
    s.baselines.resize(static_cast<std::size_t>(nranks));
  return s.baselines[static_cast<std::size_t>(rank)];
}

// ---- wire codec --------------------------------------------------------
//
// Both exchanges (analyze_step's RankDelta, analyze_memory's MemDelta)
// use one codec. Each wire type lists its fields once, in a wire(io, v)
// overload, and the same overload encodes (Writer) and decodes (Reader),
// so the two directions cannot drift apart. Scalars travel as native
// bytes (the exchange is in-process), strings and sequences carry a u32
// length prefix, and a truncated blob decodes the missing tail to
// defaults. Histograms travel as sparse buckets plus sum/min/max; for
// analyze_step they are step deltas (bucket counts subtract exactly),
// while counters are cumulative (monotone, so rank sums are directly
// Prometheus-exposable) and gauges are instantaneous.

struct Writer {
  static constexpr bool kReading = false;
  std::vector<std::byte> b;
  template <typename T>
  void raw(T& v) {
    const std::size_t off = b.size();
    b.resize(off + sizeof v);
    std::memcpy(b.data() + off, &v, sizeof v);
  }
  void chars(std::string& s, std::uint32_t) {
    const std::size_t off = b.size();
    b.resize(off + s.size());
    std::memcpy(b.data() + off, s.data(), s.size());
  }
};

struct Reader {
  static constexpr bool kReading = true;
  const std::byte* p;
  const std::byte* end;
  std::size_t remaining() const { return static_cast<std::size_t>(end - p); }
  template <typename T>
  void raw(T& v) {
    v = T{};
    if (remaining() < sizeof v) {
      p = end;
      return;
    }
    std::memcpy(&v, p, sizeof v);
    p += sizeof v;
  }
  void chars(std::string& s, std::uint32_t n) {
    if (n > remaining()) {
      s.clear();
      p = end;
      return;
    }
    s.assign(reinterpret_cast<const char*>(p), n);
    p += n;
  }
};

struct RankDelta {
  std::map<std::string, double> phases;
  std::map<std::string, WaitCum> waits;
  std::vector<std::pair<std::string, std::uint64_t>> counters;  // cumulative
  std::vector<std::pair<std::string, double>> gauges;  // instantaneous
  std::map<std::string, Histogram> hists;  // step-window deltas
};

// One rank's contribution to the memory exchange.
struct MemDelta {
  std::uint64_t accounted = 0;
  std::uint64_t acc_hwm = 0;
  bool rss_available = false;
  std::uint64_t rss = 0;
  std::uint64_t rss_hwm = 0;
  std::string rss_peak_phase;
  std::vector<std::pair<std::string, std::uint64_t>> scopes;
};

// The overloads below reach each other by argument-dependent lookup on
// IO (Writer and Reader live in this namespace), so their order is free.
template <typename IO, typename... T>
void wire_all(IO& io, T&... fields) {
  (wire(io, fields), ...);
}

template <typename IO, typename T>
  requires std::is_arithmetic_v<T>
void wire(IO& io, T& v) {
  io.raw(v);
}

template <typename IO>
void wire(IO& io, std::string& s) {
  std::uint32_t n = static_cast<std::uint32_t>(s.size());
  io.raw(n);
  io.chars(s, n);
}

template <typename IO, typename A, typename B>
void wire(IO& io, std::pair<A, B>& p) {
  wire_all(io, p.first, p.second);
}

template <typename IO, typename T>
void wire(IO& io, std::vector<T>& v) {
  std::uint32_t n = static_cast<std::uint32_t>(v.size());
  io.raw(n);
  // Every element occupies at least one byte, which bounds a corrupt n.
  if constexpr (IO::kReading) v.resize(std::min<std::size_t>(n, io.remaining()));
  for (T& e : v) wire(io, e);
}

template <typename IO, typename K, typename V>
void wire(IO& io, std::map<K, V>& m) {
  std::uint32_t n = static_cast<std::uint32_t>(m.size());
  io.raw(n);
  if constexpr (IO::kReading) {
    for (std::uint32_t i = 0; i < n && io.remaining() > 0; ++i) {
      K key{};
      wire(io, key);
      wire(io, m[key]);
    }
  } else {
    for (auto& [k, v] : m) {
      K key = k;
      wire_all(io, key, v);
    }
  }
}

template <typename IO>
void wire(IO& io, Histogram& h) {
  double sum = h.sum(), mn = h.min(), mx = h.max();
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;
  if constexpr (!IO::kReading)
    for (int i = 0; i < Histogram::kBucketCount; ++i)
      if (h.bucket(i) > 0)
        buckets.emplace_back(static_cast<std::uint32_t>(i), h.bucket(i));
  wire_all(io, sum, mn, mx, buckets);
  if constexpr (IO::kReading) {
    // Range before buckets: expand_range seeds min/max only while the
    // histogram is still empty.
    h.expand_range(mn, mx);
    h.add_sum(sum);
    for (const auto& [i, count] : buckets)
      h.add_bucket(static_cast<int>(i), count);
  }
}

template <typename IO>
void wire(IO& io, WaitCum& c) {
  WaitBuckets& w = c.w;
  wire_all(io, w.late_sender_s, w.transfer_s, w.late_receiver_s,
           w.collective_s, w.overlap_covered_s, w.overlap_waited_s, w.recvs,
           w.waited_recvs, w.collectives, w.halo_ops, c.late_by_rank);
}

template <typename IO>
void wire(IO& io, RankDelta& d) {
  wire_all(io, d.phases, d.waits, d.counters, d.gauges, d.hists);
}

template <typename IO>
void wire(IO& io, MemDelta& d) {
  wire_all(io, d.accounted, d.acc_hwm, d.rss_available,
           d.rss, d.rss_hwm, d.rss_peak_phase, d.scopes);
}

/// Collective: every rank contributes `mine`; returns all contributions
/// in rank order on every rank (a size allgather, then one allgatherv of
/// the encoded blobs). The analyzer's own collectives run under
/// wait_suppress so they never land in the buckets being measured.
template <typename T>
std::vector<T> exchange(par::Comm& comm, T& mine) {
  Writer w;
  wire(w, mine);
  wait_suppress(true);
  const std::vector<std::uint64_t> sizes =
      comm.allgather(static_cast<std::uint64_t>(w.b.size()));
  const std::vector<std::byte> all = comm.allgatherv(w.b);
  wait_suppress(false);
  std::vector<T> out(sizes.size());
  const std::byte* p = all.data();
  for (std::size_t r = 0; r < sizes.size(); ++r) {
    Reader rd{p, p + sizes[r]};
    wire(rd, out[r]);
    p += sizes[r];
  }
  return out;
}

/// This rank's cumulative state minus its baseline; updates the baseline.
RankDelta local_delta(int rank, int nranks) {
  RankBaseline& base = baseline_for(rank, nranks);
  RankDelta d;

  for (const auto& [name, sec] : phase_snapshot()) {
    const double prev = base.phases.count(name) ? base.phases[name] : 0.0;
    if (sec - prev > 0) d.phases[name] = sec - prev;
    base.phases[name] = sec;
  }

  // wait_samples() excludes the analyzer's own suppressed waits already;
  // the "(unphased)" bucket (waits outside any OBS_PHASE_SPAN) is kept
  // out of the per-step record because it has no wall time to validate
  // against.
  for (const PhaseWaitSample& s : wait_samples()) {
    if (s.phase == "(unphased)") continue;
    WaitCum& prev = base.waits[s.phase];
    WaitCum cur;
    cur.w = s.w;
    for (const auto& [src, sec] : s.late_sender_by_rank)
      cur.late_by_rank[src] = sec;

    WaitCum delta;
    delta.w = cur.w;
    delta.w -= prev.w;
    for (const auto& [src, sec] : cur.late_by_rank) {
      const auto it = prev.late_by_rank.find(src);
      const double ds = sec - (it != prev.late_by_rank.end() ? it->second : 0);
      if (ds > 0) delta.late_by_rank[src] = ds;
    }
    if (delta.w.recvs > 0 || delta.w.collectives > 0 || delta.w.halo_ops > 0 ||
        delta.w.collective_s > 0)
      d.waits[s.phase] = delta;
    prev = cur;
  }

  // Counters ship cumulative (monotone, no baseline needed); histograms
  // ship the step window against the cumulative baseline.
  d.counters = counter_snapshot();
  d.gauges = gauge_snapshot();
  for (auto& [name, cur] : hist_samples()) {
    Histogram& prev = base.hists[name];
    Histogram delta = cur.delta_since(prev);
    if (!delta.empty()) d.hists[name] = std::move(delta);
    prev = std::move(cur);
  }
  return d;
}

/// Achieved overlap covered/(covered+waited); 1 when the halo finished
/// with zero wait, -1 when the phase ran no halo ops.
double overlap_of(const WaitBuckets& w) {
  if (w.halo_ops == 0) return -1;
  const double cov = w.overlap_covered_s + w.overlap_waited_s;
  return cov > 0 ? w.overlap_covered_s / cov : 1.0;
}

StepRecord stitch(const std::vector<RankDelta>& deltas, int step) {
  StepRecord rec;
  rec.step = step;
  const int nranks = static_cast<int>(deltas.size());

  // Critical path: per phase, max and mean over ranks with argmax.
  std::map<std::string, PhaseCritical> crit;
  for (int r = 0; r < nranks; ++r) {
    for (const auto& [name, sec] : deltas[static_cast<std::size_t>(r)].phases) {
      PhaseCritical& c = crit[name];
      c.phase = name;
      c.mean_s += sec;
      if (sec > c.cp_s) {
        c.cp_s = sec;
        c.rank = r;
      }
    }
  }
  for (auto& [name, c] : crit) {
    c.mean_s /= nranks > 0 ? nranks : 1;
    c.imbalance = c.mean_s > 0 ? c.cp_s / c.mean_s : 1.0;
    rec.cp_length_s += c.cp_s;
    rec.mean_length_s += c.mean_s;
    rec.critical.push_back(c);
  }
  std::sort(rec.critical.begin(), rec.critical.end(),
            [](const PhaseCritical& a, const PhaseCritical& b) {
              return a.cp_s > b.cp_s;
            });
  rec.cp_imbalance =
      rec.mean_length_s > 0 ? rec.cp_length_s / rec.mean_length_s : 1.0;

  // Wait states: rank-summed buckets with the worst-blamed sender.
  std::map<std::string, PhaseWaits> waits;
  std::map<std::string, std::map<int, double>> blame;
  std::map<std::string, double> max_blocked;
  for (int r = 0; r < nranks; ++r) {
    const RankDelta& d = deltas[static_cast<std::size_t>(r)];
    for (const auto& [name, c] : d.waits) {
      PhaseWaits& w = waits[name];
      w.phase = name;
      w.w += c.w;
      max_blocked[name] = std::max(max_blocked[name], c.w.blocked_s());
      for (const auto& [src, sec] : c.late_by_rank) blame[name][src] += sec;
    }
  }
  // Wall seconds in a second pass: the waits map must already hold every
  // phase any rank waited in, else early ranks' wall time is dropped.
  for (int r = 0; r < nranks; ++r)
    for (const auto& [name, sec] : deltas[static_cast<std::size_t>(r)].phases)
      if (waits.count(name)) waits[name].wall_s += sec;
  for (auto& [name, w] : waits) {
    w.max_blocked_s = max_blocked[name];
    w.overlap = overlap_of(w.w);
    for (const auto& [src, sec] : blame[name])
      if (sec > w.blamed_s) {
        w.blamed_s = sec;
        w.blamed_rank = src;
      }
    rec.waits.push_back(w);
  }
  std::sort(rec.waits.begin(), rec.waits.end(),
            [](const PhaseWaits& a, const PhaseWaits& b) {
              return a.w.blocked_s() > b.w.blocked_s();
            });

  // Latency: exact elementwise merge of every rank's step-window
  // histogram, and rank-summed cumulative counters.
  std::map<std::string, Histogram> lat;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeStat> gauges;
  for (int r = 0; r < nranks; ++r) {
    const RankDelta& d = deltas[static_cast<std::size_t>(r)];
    for (const auto& [name, h] : d.hists) lat[name].merge(h);
    for (const auto& [name, v] : d.counters) counters[name] += v;
    for (const auto& [name, v] : d.gauges) {
      GaugeStat& g = gauges[name];
      g.name = name;
      g.sum += v;
      g.max = std::max(g.max, v);
    }
  }
  for (auto& [name, h] : lat)
    rec.latency.push_back(PhaseLatency{name, std::move(h)});
  rec.counters.assign(counters.begin(), counters.end());
  for (auto& [name, g] : gauges) rec.gauges.push_back(std::move(g));
  return rec;
}

}  // namespace

StepRecord analyze_step(par::Comm& comm, int step) {
  RankDelta mine = local_delta(comm.rank(), comm.size());
  StepRecord rec = stitch(exchange(comm, mine), step);
  if (comm.rank() == 0) {
    AnalysisState& s = state();
    std::lock_guard<std::mutex> lock(s.mtx);
    for (const PhaseLatency& l : rec.latency) s.cum_hists[l.phase].merge(l.hist);
  }
  return rec;
}

std::vector<std::pair<std::string, Histogram>> merged_histograms() {
  AnalysisState& s = state();
  std::lock_guard<std::mutex> lock(s.mtx);
  return {s.cum_hists.begin(), s.cum_hists.end()};
}

std::string critical_path_json(const StepRecord& rec) {
  TelemetryRecord w;
  w.field("length_s", rec.cp_length_s)
      .field("mean_s", rec.mean_length_s)
      .field("imbalance", rec.cp_imbalance)
      .arr_open("phases");
  const std::size_t limit = std::min<std::size_t>(rec.critical.size(), 12);
  for (std::size_t i = 0; i < limit; ++i) {
    const PhaseCritical& c = rec.critical[i];
    w.obj_open()
        .field("phase", c.phase)
        .field("cp_s", c.cp_s)
        .field("mean_s", c.mean_s)
        .field("rank", c.rank)
        .field("imbalance", c.imbalance)
        .obj_close();
  }
  return w.arr_close().json();
}

std::string wait_states_json(const StepRecord& rec) {
  TelemetryRecord w;
  w.arr_open("phases");
  const std::size_t limit = std::min<std::size_t>(rec.waits.size(), 12);
  for (std::size_t i = 0; i < limit; ++i) {
    const PhaseWaits& p = rec.waits[i];
    w.obj_open()
        .field("phase", p.phase)
        .field("wall_s", p.wall_s)
        .field("late_sender_s", p.w.late_sender_s)
        .field("transfer_s", p.w.transfer_s)
        .field("late_receiver_s", p.w.late_receiver_s)
        .field("collective_s", p.w.collective_s)
        .field("max_blocked_s", p.max_blocked_s)
        .field("recvs", p.w.recvs)
        .field("waited_recvs", p.w.waited_recvs)
        .field("collectives", p.w.collectives)
        .field("halo_ops", p.w.halo_ops);
    if (p.overlap >= 0) w.field("overlap", p.overlap);
    if (p.blamed_rank >= 0)
      w.field("blamed_rank", p.blamed_rank).field("blamed_s", p.blamed_s);
    w.obj_close();
  }
  return w.arr_close().json();
}

std::string latency_json(const StepRecord& rec) {
  TelemetryRecord w;
  w.arr_open("phases");
  for (const PhaseLatency& l : rec.latency)
    if (!l.hist.empty()) json_latency_row(w, l.phase, l.hist);
  return w.arr_close().json();
}

// ---- memory aggregation ------------------------------------------------

namespace {

/// The scope-name prefix before the first '.' — the subsystem key.
std::string subsystem_of(const std::string& scope) {
  const std::size_t dot = scope.find('.');
  return dot == std::string::npos ? scope : scope.substr(0, dot);
}

MemRecord gather_memory(par::Comm& comm, int step) {
  MemRecord rec;
  rec.step = step;
  rec.ranks = comm.size();
  if (!mem_enabled()) return rec;  // process-global: symmetric on all ranks
  rec.enabled = true;

  MemDelta mine;
  mine.scopes = mem_snapshot();
  for (const auto& [name, bytes] : mine.scopes) mine.accounted += bytes;
  mine.acc_hwm = mem_hwm();
  const RssSample rss = sample_rss();
  const RssPeak peak = rss_peak();
  mine.rss_available = rss.available;
  mine.rss = rss.rss_bytes;
  // Report the larger of the kernel lifetime peak (VmHWM, monotone) and
  // the cadence sampler's observed peak; the phase comes from the latter.
  mine.rss_hwm = std::max(rss.hwm_bytes, peak.bytes);
  if (peak.phase != nullptr) mine.rss_peak_phase = peak.phase;

  const std::vector<MemDelta> deltas = exchange(comm, mine);

  // Accounted stats.
  std::vector<std::uint64_t> acc;
  for (const MemDelta& d : deltas) acc.push_back(d.accounted);
  rec.acc_by_rank = acc;
  std::vector<std::uint64_t> sorted = acc;
  std::sort(sorted.begin(), sorted.end());
  rec.acc_min = sorted.front();
  rec.acc_max = sorted.back();
  const std::size_t n = sorted.size();
  rec.acc_median =
      (n % 2 == 1) ? static_cast<double>(sorted[n / 2])
                   : 0.5 * (static_cast<double>(sorted[n / 2 - 1]) +
                            static_cast<double>(sorted[n / 2]));
  for (std::uint64_t v : acc) rec.acc_total += v;
  rec.acc_mean = static_cast<double>(rec.acc_total) / static_cast<double>(n);
  rec.acc_imbalance =
      rec.acc_mean > 0 ? static_cast<double>(rec.acc_max) / rec.acc_mean : 1.0;
  for (int r = 0; r < rec.ranks; ++r)
    if (acc[static_cast<std::size_t>(r)] == rec.acc_max) {
      rec.acc_argmax = r;
      break;
    }
  for (const MemDelta& d : deltas)
    rec.acc_hwm_max = std::max(rec.acc_hwm_max, d.acc_hwm);

  // RSS stats — only when every rank had a live sample (a mixed world
  // would make the min/mean meaningless).
  rec.rss_available = true;
  for (const MemDelta& d : deltas) rec.rss_available &= d.rss_available;
  if (rec.rss_available) {
    std::uint64_t total = 0;
    rec.rss_min = deltas.front().rss;
    for (int r = 0; r < rec.ranks; ++r) {
      const MemDelta& d = deltas[static_cast<std::size_t>(r)];
      total += d.rss;
      rec.rss_min = std::min(rec.rss_min, d.rss);
      if (d.rss > rec.rss_max) {
        rec.rss_max = d.rss;
        rec.rss_argmax = r;
      }
      if (d.rss_hwm >= rec.rss_hwm_max) {
        rec.rss_hwm_max = d.rss_hwm;
        rec.rss_hwm_phase = d.rss_peak_phase;
      }
    }
    rec.rss_mean = static_cast<double>(total) / static_cast<double>(rec.ranks);
    rec.rss_imbalance =
        rec.rss_mean > 0 ? static_cast<double>(rec.rss_max) / rec.rss_mean
                         : 1.0;
  }

  // Scope and subsystem reductions.
  std::map<std::string, MemScopeStat> scopes, subs;
  std::map<std::string, std::map<int, std::uint64_t>> sub_by_rank;
  for (int r = 0; r < rec.ranks; ++r) {
    const MemDelta& d = deltas[static_cast<std::size_t>(r)];
    for (const auto& [name, bytes] : d.scopes) {
      MemScopeStat& s = scopes[name];
      s.scope = name;
      s.total += bytes;
      if (bytes > s.max) {
        s.max = bytes;
        s.argmax = r;
      }
      sub_by_rank[subsystem_of(name)][r] += bytes;
    }
  }
  for (const auto& [name, by_rank] : sub_by_rank) {
    MemScopeStat& s = subs[name];
    s.scope = name;
    for (const auto& [r, bytes] : by_rank) {
      s.total += bytes;
      if (bytes > s.max) {
        s.max = bytes;
        s.argmax = r;
      }
    }
  }
  for (auto& [name, s] : scopes) rec.scopes.push_back(std::move(s));
  for (auto& [name, s] : subs) rec.subsystems.push_back(std::move(s));
  return rec;
}

}  // namespace

MemRecord analyze_memory(par::Comm& comm, int step) {
  MemRecord rec = gather_memory(comm, step);
  if (comm.rank() == 0) {
    AnalysisState& s = state();
    std::lock_guard<std::mutex> lock(s.mtx);
    sync_world(s);
    s.last_mem = rec;
  }
  return rec;
}

MemRecord last_memory() {
  AnalysisState& s = state();
  std::lock_guard<std::mutex> lock(s.mtx);
  return s.generation == world_generation() ? s.last_mem : MemRecord{};
}

std::string memory_json(const MemRecord& rec, std::int64_t dofs,
                        const std::string& drift_json) {
  TelemetryRecord w;
  w.field("available", rec.enabled);
  if (!rec.enabled) return w.json();
  const auto per_dof = [dofs](std::uint64_t bytes) {
    return static_cast<double>(bytes) / static_cast<double>(dofs);
  };
  w.field("ranks", rec.ranks)
      .obj_open("accounted")
      .field("min_bytes", rec.acc_min)
      .field("median_bytes", rec.acc_median)
      .field("max_bytes", rec.acc_max)
      .field("mean_bytes", rec.acc_mean)
      .field("total_bytes", rec.acc_total)
      .field("imbalance", rec.acc_imbalance)
      .field("argmax_rank", rec.acc_argmax)
      .field("hwm_bytes", rec.acc_hwm_max)
      .obj_close();
  // Exactly {"available":false} without a sample: check_telemetry.py
  // fails records that mix available:false with numeric RSS fields.
  w.obj_open("rss").field("available", rec.rss_available);
  if (rec.rss_available)
    w.field("min_bytes", rec.rss_min)
        .field("max_bytes", rec.rss_max)
        .field("mean_bytes", rec.rss_mean)
        .field("imbalance", rec.rss_imbalance)
        .field("argmax_rank", rec.rss_argmax)
        .field("hwm_bytes", rec.rss_hwm_max)
        .field("hwm_phase", rec.rss_hwm_phase);
  w.obj_close().arr_open("subsystems");
  for (const MemScopeStat& s : rec.subsystems) {
    w.obj_open()
        .field("name", s.scope)
        .field("bytes", s.total)
        .field("max_bytes", s.max)
        .field("argmax_rank", s.argmax);
    if (dofs > 0) w.field("bytes_per_dof", per_dof(s.total));
    w.obj_close();
  }
  w.arr_close().arr_open("scopes");
  for (const MemScopeStat& s : rec.scopes)
    w.obj_open().field("name", s.scope).field("bytes", s.total).obj_close();
  w.arr_close();
  if (dofs > 0) w.field("bytes_per_dof", per_dof(rec.acc_total));
  if (!drift_json.empty()) w.field_json("drift", drift_json);
  return w.json();
}

}  // namespace alps::obs::analysis
