#include "bench_common.hpp"

#include <cmath>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "rhea/simulation.hpp"

namespace bench {

namespace {

std::string bench_date() {
  // ALPS_BENCH_DATE pins the stamp for byte-reproducible CI artifacts.
  if (const char* env = std::getenv("ALPS_BENCH_DATE"))
    if (*env != '\0') return env;
  const std::time_t now = std::time(nullptr);
  char buf[32];
  std::tm tm{};
  gmtime_r(&now, &tm);
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (line.compare(0, 10, "model name") == 0) {
      std::size_t b = line.find_first_not_of(" \t", colon + 1);
      return b != std::string::npos ? line.substr(b) : "";
    }
  }
  return "unknown";
}

/// The SIMD level target_clones actually dispatches to on this host —
/// the highest entry of the ("avx512f", "avx2", "default") clone lists
/// the CPU supports. BENCH_*.json from different machines are only
/// comparable when this matches.
std::string simd_level() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx512f")) return "avx512f";
  if (__builtin_cpu_supports("avx2")) return "avx2";
#endif
  return "default";
}

}  // namespace

#ifndef ALPS_GIT_SHA
#define ALPS_GIT_SHA "unknown"
#endif
#ifndef ALPS_BUILD_TYPE
#define ALPS_BUILD_TYPE "unknown"
#endif

Reporter::Reporter(const std::string& bench_name, int ranks,
                   std::int64_t problem_size) {
  j_.field("bench", bench_name);
  j_.obj_open("meta")
      .field("git_sha", std::string(ALPS_GIT_SHA))
      .field("build_type", std::string(ALPS_BUILD_TYPE))
      .field("date", bench_date());
  if (ranks > 0) j_.field("ranks", ranks);
  if (problem_size > 0) j_.field("problem_size", problem_size);
  j_.obj_open("host")
      .field("cpu", cpu_model())
      .field("cores",
             static_cast<std::int64_t>(std::thread::hardware_concurrency()))
      .field("simd", simd_level())
      .obj_close();
  j_.obj_close();
}

void Reporter::snapshot_obs(const std::string& label) {
  Snapshot s;
  s.label = label;
  s.phases = alps::obs::aggregate_phases();
  s.counters = alps::obs::aggregate_counters();
  s.latency = alps::obs::aggregate_hists();
  s.memory = alps::obs::analysis::memory_json(
      alps::obs::analysis::last_memory(), 0);
  snaps_.push_back(std::move(s));
}

void Reporter::save(const std::string& path) {
  j_.arr_open("obs");
  for (const Snapshot& s : snaps_) {
    j_.obj_open().field("label", s.label);
    alps::obs::json_phases(j_, "phases", s.phases);
    alps::obs::json_counters(j_, "counters", s.counters);
    if (!s.latency.empty()) {
      j_.arr_open("latency");
      for (const auto& [name, h] : s.latency)
        alps::obs::json_latency_row(j_, name, h);
      j_.arr_close();
    }
    j_.field_json("memory", s.memory);
    j_.obj_close();
  }
  j_.arr_close();
  std::ofstream f(path);
  if (!f) throw std::runtime_error("Reporter: cannot open " + path);
  f << j_.json() << '\n';
  std::printf("wrote %s\n", path.c_str());
}

AmrRates calibrate_advection_rates(int init_level, int steps,
                                   int adapt_every) {
  AmrRates rates;
  alps::par::run(1, [&](alps::par::Comm& c) {
    alps::rhea::SimConfig cfg;
    cfg.init_level = init_level;
    cfg.min_level = 2;
    cfg.max_level = init_level + 2;
    cfg.initial_adapt_rounds = 1;
    cfg.adapt_every = adapt_every;
    cfg.energy.kappa = 1e-6;
    cfg.energy.dirichlet_faces = 0b111111;
    cfg.prescribed_velocity = [](const std::array<double, 3>& p, double) {
      return std::array<double, 3>{-(p[1] - 0.5), (p[0] - 0.5), 0.1};
    };
    // In the full application the velocity changes every step, so the
    // SUPG operator is reassembled per step; calibrate with the same
    // per-step cost structure (see paper Sec. V: the transport problem
    // is the AMR stress test inside a time-dependent code).
    cfg.time_dependent_velocity = true;
    alps::rhea::Simulation sim(c, cfg);
    sim.initialize([](const std::array<double, 3>& p) {
      const double dx = p[0] - 0.7, dy = p[1] - 0.5, dz = p[2] - 0.5;
      return std::exp(-60.0 * (dx * dx + dy * dy + dz * dz));
    });
    sim.run(steps);
    const auto& t = sim.timers();
    const double ne = static_cast<double>(sim.global_elements());
    const int na = static_cast<int>(sim.adapt_history().size());
    rates.elements = static_cast<long long>(ne);
    rates.steps = steps;
    rates.adapts = na;
    rates.time_integration = t.time_integration / (ne * steps);
    const double per_adapt = ne * std::max(1, na);
    rates.mark = t.mark_elements / per_adapt;
    rates.coarsen_refine = t.coarsen_refine / per_adapt;
    rates.balance = t.balance / per_adapt;
    rates.interpolate = t.interpolate_fields / per_adapt;
    rates.partition = t.partition / per_adapt;
    rates.extract = t.extract_mesh / per_adapt;
  });
  return rates;
}

}  // namespace bench
