#include "obs/dump.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "obs/analysis.hpp"
#include "obs/telemetry.hpp"

namespace alps::obs {

namespace {

void write_file(const std::filesystem::path& path, const std::string& body) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "obs::panic_dump: cannot write %s\n",
                 path.string().c_str());
    return;
  }
  f << body;
  if (!body.empty() && body.back() != '\n') f << '\n';
}

std::string residuals_json() {
  TelemetryRecord w;
  for (const auto& [name, hists] : histories()) {
    w.arr_open(name.c_str());
    for (const std::vector<double>& h : hists) {
      w.arr_open();
      // Histories of a diverged solve routinely hold NaN/Inf; the writer
      // turns them into null.
      for (const double v : h) w.field(nullptr, v);
      w.arr_close();
    }
    w.arr_close();
  }
  return w.json();
}

}  // namespace

std::string dump_dir() {
  if (const char* env = std::getenv("ALPS_DUMP_DIR"))
    if (*env != '\0') return env;
  return "alps_dump";
}

std::string panic_dump(const std::string& reason) noexcept {
  try {
    const std::filesystem::path dir = dump_dir();
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      std::fprintf(stderr, "obs::panic_dump: cannot create %s: %s\n",
                   dir.string().c_str(), ec.message().c_str());
      return {};
    }
    write_file(dir / "reason.txt", reason);
    write_file(dir / "trace.json", chrome_trace_json());
    TelemetryRecord counters, phases;
    json_counters(counters, nullptr, aggregate_counters());
    write_file(dir / "counters.json", counters.str());
    json_phases(phases, nullptr, aggregate_phases());
    write_file(dir / "phases.json", phases.str());
    write_file(dir / "residuals.json", residuals_json());
    write_file(dir / "memory.json",
               analysis::memory_json(analysis::last_memory(), 0));
    std::string tail;
    for (const std::string& line : telemetry_tail()) tail += line + "\n";
    write_file(dir / "telemetry_tail.jsonl", tail);
    std::fprintf(stderr, "obs::panic_dump: flight-recorder bundle in %s (%s)\n",
                 dir.string().c_str(), reason.c_str());
    return dir.string();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obs::panic_dump: failed: %s\n", e.what());
    return {};
  }
}

}  // namespace alps::obs
