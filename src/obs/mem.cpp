#include "obs/mem.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "obs/obs.hpp"

#ifdef __linux__
#include <unistd.h>
#endif

namespace alps::obs {

namespace {

// -1 = not yet initialized from ALPS_MEM (default: on).
std::atomic<int> g_mem{-1};

[[maybe_unused]] int mem_init() {  // unused under ALPS_OBS_DISABLE
  int on = 1;
  if (const char* env = std::getenv("ALPS_MEM")) {
    const std::string v(env);
    if (v == "0" || v.empty()) on = 0;
  }
  g_mem.store(on, std::memory_order_relaxed);
  return on;
}

// RSS sampling cadence: every N-th phase-span close (ALPS_MEM_SAMPLE).
std::atomic<int> g_sample_every{-1};

int sample_every() {
  int v = g_sample_every.load(std::memory_order_relaxed);
  if (v > 0) return v;
  v = 16;
  if (const char* env = std::getenv("ALPS_MEM_SAMPLE")) {
    const long e = std::atol(env);
    if (e > 0) v = static_cast<int>(e);
  }
  g_sample_every.store(v, std::memory_order_relaxed);
  return v;
}

std::atomic<bool> g_rss_forced_unavailable{false};

// One slot per rank; the owning rank thread is the only writer, the main
// thread reads after par::run joins (same contract as obs RankSlot).
struct MemRankSlot {
  int rank = -1;
  std::vector<std::uint64_t> bytes;  // indexed by MemScopeId
  std::uint64_t accounted = 0;       // sum over scopes
  std::uint64_t accounted_hwm = 0;
  const char* hwm_phase = nullptr;   // innermost phase when hwm was set
};

struct MemState {
  std::mutex mtx;  // guards slots layout, scope registry, rss peak
  std::vector<std::unique_ptr<MemRankSlot>> slots;
  std::vector<std::string> scope_names;
  std::unordered_map<std::string, MemScopeId> scope_ids;
  // Process-wide RSS peak seen by the cadence sampler (all in-process
  // ranks share one address space).
  std::uint64_t rss_peak_bytes = 0;
  const char* rss_peak_phase = nullptr;
};

MemState& state() {
  static MemState s;
  return s;
}

thread_local MemRankSlot* tl_mem_slot = nullptr;
thread_local int tl_tick = 0;

MemRankSlot& checked_slot(int rank) {
  MemState& s = state();
  if (rank < 0 || static_cast<std::size_t>(rank) >= s.slots.size())
    throw std::out_of_range("obs::mem: rank out of range");
  return *s.slots[static_cast<std::size_t>(rank)];
}

void bump_hwm(MemRankSlot& slot) {
  if (slot.accounted > slot.accounted_hwm) {
    slot.accounted_hwm = slot.accounted;
    slot.hwm_phase = current_phase();
  }
}

}  // namespace

bool mem_enabled() {
#ifdef ALPS_OBS_DISABLE
  return false;
#else
  const int v = g_mem.load(std::memory_order_relaxed);
  return (v >= 0 ? v : mem_init()) != 0;
#endif
}

void set_mem_enabled(bool on) {
  g_mem.store(on ? 1 : 0, std::memory_order_relaxed);
}

MemScopeId mem_scope(const char* name) {
  MemState& s = state();
  std::lock_guard<std::mutex> lock(s.mtx);
  const auto it = s.scope_ids.find(name);
  if (it != s.scope_ids.end()) return it->second;
  const MemScopeId id = static_cast<MemScopeId>(s.scope_names.size());
  s.scope_names.emplace_back(name);
  s.scope_ids.emplace(name, id);
  return id;
}

void mem_set(MemScopeId id, std::uint64_t bytes) {
  MemRankSlot* slot = tl_mem_slot;
  if (slot == nullptr || !mem_enabled()) return;
  if (slot->bytes.size() <= id) slot->bytes.resize(id + 1, 0);
  const std::uint64_t prev = slot->bytes[id];
  slot->bytes[id] = bytes;
  slot->accounted += bytes;
  slot->accounted -= prev;
  bump_hwm(*slot);
}

void mem_add(MemScopeId id, std::int64_t delta) {
  MemRankSlot* slot = tl_mem_slot;
  if (slot == nullptr || !mem_enabled()) return;
  if (slot->bytes.size() <= id) slot->bytes.resize(id + 1, 0);
  std::uint64_t& cur = slot->bytes[id];
  // Clamp at zero: a mismatched release must not wrap the scope (or the
  // accounted sum) around to 2^64.
  const std::uint64_t sub =
      delta < 0 ? std::min(cur, static_cast<std::uint64_t>(-delta)) : 0;
  const std::uint64_t add =
      delta > 0 ? static_cast<std::uint64_t>(delta) : 0;
  cur += add;
  cur -= sub;
  slot->accounted += add;
  slot->accounted -= sub;
  bump_hwm(*slot);
}

std::uint64_t mem_bytes(int rank, MemScopeId id) {
  const MemRankSlot& slot = checked_slot(rank);
  return id < slot.bytes.size() ? slot.bytes[id] : 0;
}

std::uint64_t mem_accounted(int rank) { return checked_slot(rank).accounted; }

std::uint64_t mem_accounted() {
  const MemRankSlot* slot = tl_mem_slot;
  return slot != nullptr ? slot->accounted : 0;
}

MemHwm mem_hwm(int rank) {
  const MemRankSlot& slot = checked_slot(rank);
  return MemHwm{slot.accounted_hwm, slot.hwm_phase};
}

std::vector<std::pair<std::string, std::uint64_t>> aggregate_mem() {
  MemState& s = state();
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(s.mtx);
    names = s.scope_names;
  }
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (std::size_t id = 0; id < names.size(); ++id) {
    std::uint64_t sum = 0;
    for (const auto& slot : s.slots)
      if (id < slot->bytes.size()) sum += slot->bytes[id];
    if (sum > 0) out.emplace_back(names[id], sum);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, std::uint64_t>> mem_snapshot() {
  const MemRankSlot* slot = tl_mem_slot;
  if (slot == nullptr) return {};
  MemState& s = state();
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(s.mtx);
    names = s.scope_names;
  }
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (std::size_t id = 0; id < names.size() && id < slot->bytes.size(); ++id)
    if (slot->bytes[id] > 0) out.emplace_back(names[id], slot->bytes[id]);
  std::sort(out.begin(), out.end());
  return out;
}

MemScope::MemScope(MemScopeId id, std::uint64_t bytes)
    : id_(id), bytes_(bytes) {
  mem_add(id_, static_cast<std::int64_t>(bytes_));
}

MemScope::~MemScope() { mem_add(id_, -static_cast<std::int64_t>(bytes_)); }

void MemScope::resize(std::uint64_t bytes) {
  mem_add(id_, static_cast<std::int64_t>(bytes) -
                   static_cast<std::int64_t>(bytes_));
  bytes_ = bytes;
}

// ---- process RSS ------------------------------------------------------

RssSample sample_rss() {
  RssSample s;
  if (g_rss_forced_unavailable.load(std::memory_order_relaxed)) return s;
#ifdef __linux__
  // statm field 2 is resident pages — cheaper to parse than status and
  // always present; VmHWM only lives in status.
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0, resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) return s;
  const long page = sysconf(_SC_PAGESIZE);
  if (page <= 0) return s;
  s.rss_bytes = resident_pages * static_cast<std::uint64_t>(page);
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, 6, "VmHWM:") != 0) continue;
    std::istringstream ls(line.substr(6));
    std::uint64_t kib = 0;
    if (ls >> kib) s.hwm_bytes = kib * 1024;
    break;
  }
  // VmHWM can lag VmRSS within a scheduling tick; keep the invariant
  // hwm >= rss that check_telemetry.py enforces.
  s.hwm_bytes = std::max(s.hwm_bytes, s.rss_bytes);
  s.available = true;
#endif
  return s;
}

void set_rss_unavailable_for_testing(bool forced) {
  g_rss_forced_unavailable.store(forced, std::memory_order_relaxed);
}

RssPeak rss_peak() {
  MemState& s = state();
  std::lock_guard<std::mutex> lock(s.mtx);
  return RssPeak{s.rss_peak_bytes, s.rss_peak_phase};
}

RunMemory run_memory() {
  RunMemory m;
  m.available = mem_enabled();
  if (!m.available) return m;
  for (std::size_t r = 0; r < state().slots.size(); ++r) {
    const int rank = static_cast<int>(r);
    m.by_rank.push_back(mem_accounted(rank));
    const MemHwm h = mem_hwm(rank);
    if (h.bytes >= m.hwm.bytes) m.hwm = h;
  }
  m.rss = sample_rss();
  m.peak = rss_peak();
  m.scopes = aggregate_mem();
  return m;
}

namespace memdetail {

void world_begin(int nranks) {
  MemState& s = state();
  std::lock_guard<std::mutex> lock(s.mtx);
  s.slots.clear();
  for (int r = 0; r < nranks; ++r) {
    auto slot = std::make_unique<MemRankSlot>();
    slot->rank = r;
    s.slots.push_back(std::move(slot));
  }
  s.rss_peak_bytes = 0;
  s.rss_peak_phase = nullptr;
}

void rank_bind(int rank) {
  tl_mem_slot = &checked_slot(rank);
  tl_tick = 0;
}

void rank_unbind() { tl_mem_slot = nullptr; }

void phase_close_tick(const char* phase) {
  if (tl_mem_slot == nullptr || !mem_enabled()) return;
  if (++tl_tick < sample_every()) return;
  tl_tick = 0;
  const RssSample r = sample_rss();
  if (!r.available) return;
  MemState& s = state();
  std::lock_guard<std::mutex> lock(s.mtx);
  if (r.rss_bytes > s.rss_peak_bytes) {
    s.rss_peak_bytes = r.rss_bytes;
    s.rss_peak_phase = phase;
  }
}

}  // namespace memdetail

}  // namespace alps::obs
