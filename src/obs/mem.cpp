#include "obs/mem.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>

#ifdef __linux__
#include <unistd.h>
#endif

namespace alps::obs {

namespace {

// -1 = not yet initialized from ALPS_MEM (default: on).
std::atomic<int> g_mem{-1};

int mem_init() {
  int on = 1;
  if (const char* env = std::getenv("ALPS_MEM")) {
    const std::string v(env);
    if (v == "0" || v.empty()) on = 0;
  }
  g_mem.store(on, std::memory_order_relaxed);
  return on;
}

// RSS sampling cadence: every N-th phase-span close.
constexpr int kSampleEvery = 16;

std::atomic<bool> g_rss_forced_unavailable{false};

// One slot per rank; the owning rank thread is its only reader and
// writer (analyze_memory ships it to the other ranks).
struct MemRankSlot {
  MemTable table;  // last mem_report: non-zero scopes, sorted by name
  std::uint64_t accounted_hwm = 0;
};

struct MemState {
  std::mutex mtx;  // guards slots layout and the rss peak
  std::vector<std::unique_ptr<MemRankSlot>> slots;
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

}  // namespace

bool mem_enabled() {
  const int v = g_mem.load(std::memory_order_relaxed);
  return (v >= 0 ? v : mem_init()) != 0;
}

void set_mem_enabled(bool on) {
  g_mem.store(on ? 1 : 0, std::memory_order_relaxed);
}

void mem_report(MemTable table) {
  MemRankSlot* slot = tl_mem_slot;
  if (slot == nullptr || !mem_enabled()) return;
  std::erase_if(table, [](const auto& e) { return e.second == 0; });
  std::sort(table.begin(), table.end());
  std::uint64_t total = 0;
  for (const auto& [name, bytes] : table) total += bytes;
  slot->accounted_hwm = std::max(slot->accounted_hwm, total);
  slot->table = std::move(table);
}

MemTable mem_snapshot() {
  const MemRankSlot* slot = tl_mem_slot;
  return slot != nullptr ? slot->table : MemTable{};
}

std::uint64_t mem_hwm() {
  const MemRankSlot* slot = tl_mem_slot;
  return slot != nullptr ? slot->accounted_hwm : 0;
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

namespace memdetail {

void world_begin(int nranks) {
  MemState& s = state();
  std::lock_guard<std::mutex> lock(s.mtx);
  s.slots.clear();
  for (int r = 0; r < nranks; ++r)
    s.slots.push_back(std::make_unique<MemRankSlot>());
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
  if (++tl_tick < kSampleEvery) return;
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
