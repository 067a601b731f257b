#include "obs/telemetry.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>

namespace alps::obs {

namespace {

constexpr std::size_t kTailCapacity = 256;   // lines kept for the dump
constexpr std::size_t kHistoriesPerName = 4; // residual histories kept

// -1 = not yet read from ALPS_TELEMETRY.
std::atomic<int> g_telemetry{-1};

int telemetry_init() {
  int on = 0;
  if (const char* env = std::getenv("ALPS_TELEMETRY")) {
    const std::string v(env);
    if (!v.empty() && v != "0") on = 1;
  }
  g_telemetry.store(on, std::memory_order_relaxed);
  return on;
}

struct Sink {
  std::mutex mtx;
  std::string path_override;
  std::ofstream file;
  bool opened = false;
  std::deque<std::string> tail;
  std::uint64_t records = 0;
  std::map<std::string, std::deque<std::vector<double>>> histories;
};

Sink& sink() {
  static Sink s;
  return s;
}

/// The override, else ALPS_TELEMETRY_OUT, else the default. Caller holds
/// s.mtx.
std::string path_locked(const Sink& s) {
  if (!s.path_override.empty()) return s.path_override;
  if (const char* env = std::getenv("ALPS_TELEMETRY_OUT"))
    if (*env != '\0') return env;
  return "alps_telemetry.jsonl";
}

}  // namespace

bool telemetry_enabled() {
  const int v = g_telemetry.load(std::memory_order_relaxed);
  return (v >= 0 ? v : telemetry_init()) != 0;
}

void set_telemetry(bool on) {
  g_telemetry.store(on ? 1 : 0, std::memory_order_relaxed);
}

std::string telemetry_path() {
  Sink& s = sink();
  std::lock_guard<std::mutex> lock(s.mtx);
  return path_locked(s);
}

void set_telemetry_path(const std::string& path) {
  Sink& s = sink();
  std::lock_guard<std::mutex> lock(s.mtx);
  s.path_override = path;
  if (s.opened) {
    s.file.close();
    s.opened = false;
  }
}

// ---- record builder ---------------------------------------------------

void TelemetryRecord::key(const char* key) {
  // A value never ends in an open bracket, so one look back tells whether
  // this is the first member of its container.
  if (!body_.empty() && body_.back() != '{' && body_.back() != '[')
    body_ += ',';
  if (key == nullptr) return;
  body_ += '"';
  body_ += key;
  body_ += "\":";
}

TelemetryRecord& TelemetryRecord::open(const char* key, char c) {
  this->key(key);
  body_ += c;
  return *this;
}

TelemetryRecord& TelemetryRecord::close(char c) {
  body_ += c;
  return *this;
}

TelemetryRecord& TelemetryRecord::field_json(const char* key,
                                             std::string_view raw) {
  this->key(key);
  body_ += raw;
  return *this;
}

TelemetryRecord& TelemetryRecord::field(const char* key, double v) {
  char buf[32] = "null";
  if (std::isfinite(v)) std::snprintf(buf, sizeof buf, "%.9g", v);
  return field_json(key, buf);
}

TelemetryRecord& TelemetryRecord::field(const char* key, bool v) {
  return field_json(key, v ? "true" : "false");
}

TelemetryRecord& TelemetryRecord::field(const char* key, std::string_view v) {
  this->key(key);
  body_ += '"';
  body_ += v;
  body_ += '"';
  return *this;
}

TelemetryRecord& TelemetryRecord::field(const char* key,
                                        std::span<const std::int64_t> v) {
  arr_open(key);
  for (const std::int64_t x : v) field(nullptr, x);
  return arr_close();
}

// ---- fact encoders ------------------------------------------------------

void json_counters(
    TelemetryRecord& w, const char* key,
    const std::vector<std::pair<std::string, std::uint64_t>>& counters) {
  w.obj_open(key);
  for (const auto& [name, value] : counters) w.field(name.c_str(), value);
  w.obj_close();
}

void json_phases(TelemetryRecord& w, const char* key,
                 const std::vector<PhaseBreakdown>& phases) {
  w.arr_open(key);
  for (const PhaseBreakdown& p : phases)
    w.obj_open()
        .field("name", p.name)
        .field("min_s", p.min_s)
        .field("median_s", p.median_s)
        .field("max_s", p.max_s)
        .field("mean_s", p.mean_s)
        .field("total_s", p.total_s)
        .field("imbalance", p.imbalance)
        .field("ranks", p.ranks)
        .obj_close();
  w.arr_close();
}

void json_latency_row(TelemetryRecord& w, const std::string& phase,
                      const Histogram& h) {
  w.obj_open()
      .field("phase", phase)
      .field("count", h.count())
      .field("sum_s", h.sum())
      .field("p50_s", h.quantile(0.50))
      .field("p95_s", h.quantile(0.95))
      .field("p99_s", h.quantile(0.99))
      .field("max_s", h.max())
      .obj_close();
}

void json_solves(TelemetryRecord& w, const char* key,
                 const std::vector<SolveRow>& rows) {
  w.arr_open(key);
  for (const SolveRow& r : rows)
    w.obj_open()
        .field("status", r.status)
        .field("iterations", r.iterations)
        .field("relres", r.relres)
        .obj_close();
  w.arr_close();
}

// ---- sink -------------------------------------------------------------

void telemetry_emit(const TelemetryRecord& rec) {
  const std::string line = rec.json();
  Sink& s = sink();
  std::lock_guard<std::mutex> lock(s.mtx);
  s.records++;
  s.tail.push_back(line);
  if (s.tail.size() > kTailCapacity) s.tail.pop_front();
  // The tail records every emit, file sink or not; whether a record is
  // built at all is the caller's choice (rhea emits only with telemetry
  // on, so without it the dump's tail is empty).
  if (!telemetry_enabled()) return;
  if (!s.opened) {
    const std::string path = path_locked(s);
    s.file.open(path, std::ios::trunc);
    if (!s.file)
      throw std::runtime_error("obs: cannot open telemetry output " + path);
    s.opened = true;
  }
  s.file << line << '\n';
  s.file.flush();  // a crashed run must keep its telemetry
}

std::vector<std::string> telemetry_tail() {
  Sink& s = sink();
  std::lock_guard<std::mutex> lock(s.mtx);
  return {s.tail.begin(), s.tail.end()};
}

std::uint64_t telemetry_records() {
  Sink& s = sink();
  std::lock_guard<std::mutex> lock(s.mtx);
  return s.records;
}

std::uint64_t telemetry_tail_bytes() {
  Sink& s = sink();
  std::lock_guard<std::mutex> lock(s.mtx);
  std::uint64_t b = 0;
  for (const std::string& line : s.tail) b += line.capacity() + sizeof line;
  for (const auto& [name, q] : s.histories) {
    b += name.capacity() + sizeof(std::string);
    for (const auto& h : q) b += h.capacity() * sizeof(double) + sizeof h;
  }
  return b;
}

// ---- solver history registry ------------------------------------------

void record_history(const char* name, std::span<const double> values) {
  if (values.empty()) return;
  Sink& s = sink();
  std::lock_guard<std::mutex> lock(s.mtx);
  auto& q = s.histories[name];
  q.emplace_back(values.begin(), values.end());
  if (q.size() > kHistoriesPerName) q.pop_front();
}

std::vector<std::pair<std::string, std::vector<std::vector<double>>>>
histories() {
  Sink& s = sink();
  std::lock_guard<std::mutex> lock(s.mtx);
  std::vector<std::pair<std::string, std::vector<std::vector<double>>>> out;
  out.reserve(s.histories.size());
  for (const auto& [name, q] : s.histories)
    out.emplace_back(name, std::vector<std::vector<double>>(q.begin(), q.end()));
  return out;
}

void telemetry_reset_for_testing() {
  Sink& s = sink();
  std::lock_guard<std::mutex> lock(s.mtx);
  s.tail.clear();
  s.histories.clear();
  s.records = 0;
  if (s.opened) {
    s.file.close();
    s.opened = false;
  }
}

}  // namespace alps::obs
