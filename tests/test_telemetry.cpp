// Telemetry sink, structured Krylov convergence reporting, AMG
// convergence-factor tracking, and the failure flight recorder
// (DESIGN.md §8): JSONL record building and round-trip, solver status
// classification (zero RHS, NaN operator, indefinite operator,
// stagnation), residual history rings, and the end-to-end sentinel ->
// panic_dump path through the RHEA driver.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <random>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "la/csr.hpp"
#include "la/krylov.hpp"
#include "obs/analysis.hpp"
#include "obs/dump.hpp"
#include "obs/mem.hpp"
#include "obs/obs.hpp"
#include "obs/serve.hpp"
#include "obs/telemetry.hpp"
#include "par/runtime.hpp"
#include "rhea/diagnostics.hpp"
#include "rhea/simulation.hpp"
#include "transport.hpp"

namespace {

using namespace alps;

/// Restore every telemetry/trace switch after each test.
class TelemetryTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::set_telemetry(false);
    obs::set_telemetry_path("");
    obs::telemetry_reset_for_testing();
    obs::set_enabled(false);
    obs::set_comm_tracing(false);
  }

  std::string temp_path(const std::string& name) {
    return (std::filesystem::path(::testing::TempDir()) / name).string();
  }
};

la::Csr laplace_1d(std::int64_t n) {
  std::vector<la::Triplet> t;
  for (std::int64_t i = 0; i < n; ++i) {
    t.push_back({i, i, 2.0});
    if (i > 0) t.push_back({i, i - 1, -1.0});
    if (i + 1 < n) t.push_back({i, i + 1, -1.0});
  }
  return la::Csr::from_triplets(n, n, std::move(t));
}

la::DotFn serial_dot() {
  return [](std::span<const double> a, std::span<const double> b) {
    return la::local_dot(a, b);
  };
}

la::LinOp matrix_op(const la::Csr& m) {
  return [&m](std::span<const double> x, std::span<double> y) {
    m.matvec(x, y);
  };
}

}  // namespace

// ---- record builder ---------------------------------------------------

TEST_F(TelemetryTest, RecordBuildsValidJson) {
  const std::int64_t levels[] = {4, 8, 0};
  obs::TelemetryRecord rec;
  rec.field("step", std::int64_t{3})
      .field("dt", 0.25)
      .field("status", std::string("converged"))
      .field("per_level", std::span<const std::int64_t>(levels, 3));
  EXPECT_EQ(rec.json(),
            "{\"step\":3,\"dt\":0.25,\"status\":\"converged\","
            "\"per_level\":[4,8,0]}");
}

TEST_F(TelemetryTest, NonFiniteDoublesBecomeNull) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  obs::TelemetryRecord rec;
  rec.field("a", kNan)
      .field("b", kInf)
      .field("c", 1.5);
  // Nested objects and arrays go through the same writer.
  rec.obj_open("o").field("x", -kInf).field("y", kNan).obj_close();
  rec.arr_open("v").field(nullptr, kNan).field(nullptr, kInf);
  rec.field(nullptr, -kInf).field(nullptr, 2.0).arr_close();
  EXPECT_EQ(rec.json(),
            "{\"a\":null,\"b\":null,\"c\":1.5,"
            "\"o\":{\"x\":null,\"y\":null},"
            "\"v\":[null,null,null,2]}");
  // So do the analysis blocks.
  obs::analysis::StepRecord step;
  step.cp_length_s = kNan;
  step.critical.push_back({"p", kInf, kNan, 0, -kInf});
  const std::string cp = obs::analysis::critical_path_json(step);
  EXPECT_EQ(cp.find("nan"), std::string::npos) << cp;
  EXPECT_EQ(cp.find("inf"), std::string::npos) << cp;
}

TEST_F(TelemetryTest, TailRecordsEvenWhenFileSinkDisabled) {
  obs::set_telemetry(false);
  const std::uint64_t before = obs::telemetry_records();
  obs::TelemetryRecord rec;
  rec.field("step", 1);
  obs::telemetry_emit(rec);
  EXPECT_EQ(obs::telemetry_records(), before + 1);
  const std::vector<std::string> tail = obs::telemetry_tail();
  ASSERT_FALSE(tail.empty());
  EXPECT_EQ(tail.back(), "{\"step\":1}");
}

TEST_F(TelemetryTest, FileRoundTrip) {
  const std::string path = temp_path("telemetry_roundtrip.jsonl");
  obs::set_telemetry_path(path);
  obs::set_telemetry(true);
  for (int s = 1; s <= 3; ++s) {
    obs::TelemetryRecord rec;
    rec.field("step", s).field("dt", 0.5 * s);
    obs::telemetry_emit(rec);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int count = 0;
  while (std::getline(in, line)) {
    ++count;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"step\":" + std::to_string(count)),
              std::string::npos);
  }
  EXPECT_EQ(count, 3);
}

TEST_F(TelemetryTest, HistoryRegistryIsBoundedPerName) {
  for (int h = 0; h < 7; ++h) {
    const std::vector<double> v = {1.0, 0.5, 0.1 * h};
    obs::record_history("test.hist", v);
  }
  for (const auto& [name, hists] : obs::histories()) {
    if (name != "test.hist") continue;
    EXPECT_EQ(hists.size(), 4u);  // bounded, newest kept
    // FIFO eviction: inserts 0..6 keep exactly 3,4,5,6 in order.
    for (std::size_t h = 0; h < hists.size(); ++h)
      EXPECT_DOUBLE_EQ(hists[h][2], 0.1 * (3.0 + static_cast<double>(h)));
    return;
  }
  FAIL() << "history name not found";
}

// ---- structured Krylov convergence ------------------------------------

TEST_F(TelemetryTest, ZeroRhsSolvesReportConvergedWithNoIterations) {
  la::Csr a = laplace_1d(16);
  const std::vector<double> b(16, 0.0);
  la::KrylovOptions opt;
  opt.history_capacity = 8;
  for (const bool use_cg : {true, false}) {
    std::vector<double> x(16, 0.0);
    const la::SolveResult r =
        use_cg ? la::cg(matrix_op(a), b, x, la::identity_op(), serial_dot(),
                        opt)
               : la::minres(matrix_op(a), b, x, la::identity_op(),
                            serial_dot(), opt);
    EXPECT_EQ(r.status, la::SolveStatus::kConverged);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.iterations, 0);
    EXPECT_TRUE(r.residual_history.empty());
    for (double v : x) EXPECT_EQ(v, 0.0);
  }
}

TEST_F(TelemetryTest, NanOperatorReportsNonFinite) {
  const la::LinOp nan_op = [](std::span<const double>, std::span<double> y) {
    for (double& v : y) v = std::numeric_limits<double>::quiet_NaN();
  };
  const std::vector<double> b(8, 1.0);
  la::KrylovOptions opt;
  for (const bool use_cg : {true, false}) {
    std::vector<double> x(8, 0.0);
    const la::SolveResult r =
        use_cg ? la::cg(nan_op, b, x, la::identity_op(), serial_dot(), opt)
               : la::minres(nan_op, b, x, la::identity_op(), serial_dot(),
                            opt);
    EXPECT_EQ(r.status, la::SolveStatus::kNonFinite);
    EXPECT_FALSE(r.converged);
  }
}

TEST_F(TelemetryTest, CgOnNegativeDefiniteOperatorReportsDiverged) {
  la::Csr a = laplace_1d(16);
  const la::LinOp neg = [&a](std::span<const double> x, std::span<double> y) {
    a.matvec(x, y);
    for (double& v : y) v = -v;
  };
  const std::vector<double> b(16, 1.0);
  std::vector<double> x(16, 0.0);
  const la::SolveResult r =
      la::cg(neg, b, x, la::identity_op(), serial_dot(), la::KrylovOptions{});
  EXPECT_EQ(r.status, la::SolveStatus::kDiverged);
  EXPECT_FALSE(r.converged);
}

TEST_F(TelemetryTest, UnreachableToleranceReportsStagnation) {
  // Random RHS on a system large enough that round-off keeps the residual
  // from ever reaching exactly zero (smooth RHS on the 1d Laplacian lets
  // CG terminate with an exact zero residual).
  la::Csr a = laplace_1d(400);
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  std::vector<double> b(400);
  for (double& v : b) v = val(rng);
  std::vector<double> x(400, 0.0);
  la::KrylovOptions opt;
  opt.rtol = 1e-300;  // unreachable: the solve bottoms out at round-off
  opt.max_iterations = 5000;
  opt.stagnation_window = 25;
  const la::SolveResult r =
      la::cg(matrix_op(a), b, x, la::identity_op(), serial_dot(), opt);
  EXPECT_EQ(r.status, la::SolveStatus::kStagnated);
  EXPECT_FALSE(r.converged);
  EXPECT_GT(r.iterations, opt.stagnation_window);
  EXPECT_LT(r.iterations, opt.max_iterations);  // bailed early, not budget
  EXPECT_LT(r.relative_residual, 1.0);  // it did make progress first
}

TEST_F(TelemetryTest, ResidualHistoryRingKeepsMostRecent) {
  la::Csr a = laplace_1d(64);
  const std::vector<double> b(64, 1.0);
  std::vector<double> x(64, 0.0);
  la::KrylovOptions opt;
  opt.rtol = 1e-10;
  opt.history_capacity = 5;
  const la::SolveResult r =
      la::cg(matrix_op(a), b, x, la::identity_op(), serial_dot(), opt);
  ASSERT_TRUE(r.converged);
  ASSERT_GT(r.iterations, 5);  // 1d Laplace needs ~n iterations
  ASSERT_EQ(r.residual_history.size(), 5u);
  // Chronological: the last entry is the final residual.
  EXPECT_DOUBLE_EQ(r.residual_history.back(), r.relative_residual);
}

TEST_F(TelemetryTest, StatusTokensAreStable) {
  EXPECT_STREQ(la::to_string(la::SolveStatus::kConverged), "converged");
  EXPECT_STREQ(la::to_string(la::SolveStatus::kMaxIterations),
               "max_iterations");
  EXPECT_STREQ(la::to_string(la::SolveStatus::kStagnated), "stagnated");
  EXPECT_STREQ(la::to_string(la::SolveStatus::kDiverged), "diverged");
  EXPECT_STREQ(la::to_string(la::SolveStatus::kNonFinite), "non_finite");
}

namespace {

/// A small P-rank transport run (prescribed velocity, no adaptation).
using test_util::parabola;
using test_util::transport_config;

/// World-total CommStats spent by `fn` on every rank, fenced by barriers
/// so both snapshots see every rank's calls (barriers are not counted as
/// allreduce or allgather calls).
par::CommStats measure(par::Comm& c, const std::function<void()>& fn) {
  c.barrier();
  const par::CommStats s0 = par::snapshot(c.stats());
  c.barrier();
  fn();
  c.barrier();
  const par::CommStats s1 = par::snapshot(c.stats());
  c.barrier();
  par::CommStats d;
  d.allreduce_calls = s1.allreduce_calls - s0.allreduce_calls;
  d.allgather_calls = s1.allgather_calls - s0.allgather_calls;
  return d;
}

/// The integer value of the first "key" in a JSON line (-1 when absent).
long long json_int(const std::string& line, const std::string& key) {
  const std::string quoted = "\"" + key + "\":";
  const std::size_t at = line.find(quoted);
  if (at == std::string::npos) return -1;
  return std::atoll(line.c_str() + at + quoted.size());
}

}  // namespace

// ---- flight recorder --------------------------------------------------

TEST_F(TelemetryTest, SentinelTripWritesFlightRecorderBundle) {
  const std::string dump_dir = temp_path("alps_dump_test");
  std::filesystem::remove_all(dump_dir);
  ASSERT_EQ(setenv("ALPS_DUMP_DIR", dump_dir.c_str(), 1), 0);
  obs::set_telemetry_path(temp_path("telemetry_nan.jsonl"));
  obs::set_telemetry(true);

  auto run = [] {
    par::run(2, [](par::Comm& c) {
      rhea::SimConfig cfg = transport_config();
      cfg.nan_inject_step = 2;
      rhea::Simulation sim(c, cfg);
      sim.initialize(parabola);
      sim.run(6);  // must die at step 2
    });
  };
  EXPECT_THROW(run(), rhea::SentinelError);
  unsetenv("ALPS_DUMP_DIR");

  // The bundle exists and has every artifact of the documented layout.
  for (const char* name :
       {"reason.txt", "trace.json", "counters.json", "phases.json",
        "residuals.json", "memory.json", "telemetry_tail.jsonl",
        "snapshot.vtk"}) {
    EXPECT_TRUE(
        std::filesystem::exists(std::filesystem::path(dump_dir) / name))
        << name;
  }
  std::ifstream reason(std::filesystem::path(dump_dir) / "reason.txt");
  std::stringstream ss;
  ss << reason.rdbuf();
  EXPECT_NE(ss.str().find("sentinel"), std::string::npos);
  EXPECT_NE(ss.str().find("step 2"), std::string::npos);
  // Telemetry was on, so the tail carries the pre-crash records.
  std::ifstream tail(std::filesystem::path(dump_dir) /
                     "telemetry_tail.jsonl");
  std::string line, last_line;
  while (std::getline(tail, line)) last_line = line;
  ASSERT_FALSE(last_line.empty());
  EXPECT_EQ(last_line.front(), '{');
  // memory.json is the crash step's telemetry memory block, less the
  // per-dof figures and the drift state that need the driver's context;
  // with accounting off the record has no block and memory.json is
  // unavailable.
  std::string block = "{\"available\":false}";
  const std::size_t at = last_line.find("\"memory\":{");
  ASSERT_EQ(at != std::string::npos, obs::mem_enabled());
  if (at != std::string::npos) {
    std::size_t end = at + 9, depth = 0;
    do {
      if (last_line[end] == '{') ++depth;
      if (last_line[end] == '}') --depth;
      ++end;
    } while (depth > 0 && end < last_line.size());
    block = std::regex_replace(
        last_line.substr(at + 9, end - at - 9),
        std::regex(R"(,"bytes_per_dof":[^,}\]]*|,"drift":\{[^}]*\})"), "");
  }
  std::ifstream mem(std::filesystem::path(dump_dir) / "memory.json");
  std::string memory_json;
  std::getline(mem, memory_json);
  EXPECT_EQ(memory_json, block);
  std::filesystem::remove_all(dump_dir);
}

// ---- per-step report ----------------------------------------------------

TEST_F(TelemetryTest, StepReportAddsNoCollectivesBeyondPhysicsDiagnostics) {
  // One non-adapting step at P=2: telemetry and the metrics endpoint off,
  // then telemetry on, then the endpoint alone. Everything the report
  // carries across ranks travels in the analysis exchange (a size
  // allgather plus one allgatherv), so telemetry adds exactly those two
  // allgathers and the physics diagnostics' one allreduce, and serving
  // adds the two allgathers only.
  obs::set_telemetry_path(temp_path("telemetry_collectives.jsonl"));
  constexpr int kRanks = 2;
  auto step_cost = [](bool telemetry, bool serve, par::CommStats* diag) {
    obs::set_telemetry(telemetry);
    if (serve) obs::serve_start(0);
    par::CommStats cost;
    par::run(kRanks, [&](par::Comm& c) {
      const rhea::SimConfig cfg = transport_config();
      rhea::Simulation sim(c, cfg);
      sim.initialize(parabola);
      const par::CommStats d = measure(c, [&] { sim.run(1); });
      const par::CommStats dd = measure(c, [&] {
        (void)rhea::compute_physics_diagnostics(
            c, sim.mesh(), sim.forest().connectivity(), sim.temperature(),
            sim.solution(), cfg.energy.kappa);
      });
      if (c.rank() == 0) {
        cost = d;
        if (diag != nullptr) *diag = dd;
      }
    });
    obs::serve_stop();
    obs::metrics_reset_for_testing();
    return cost;
  };
  par::CommStats diag;
  const std::uint64_t records0 = obs::telemetry_records();
  const par::CommStats off = step_cost(false, false, nullptr);
  const par::CommStats on = step_cost(true, false, &diag);
  ASSERT_EQ(obs::telemetry_records(), records0 + 1);
  const par::CommStats served = step_cost(false, true, nullptr);
  EXPECT_EQ(obs::telemetry_records(), records0 + 1);
  // Per rank: stats count every participating rank once. The diagnostics
  // themselves make exactly one allreduce.
  EXPECT_EQ(diag.allreduce_calls / kRanks, 1u);
  EXPECT_EQ((on.allreduce_calls - off.allreduce_calls) / kRanks,
            diag.allreduce_calls / kRanks);
  EXPECT_EQ((on.allgather_calls - off.allgather_calls) / kRanks,
            2 + diag.allgather_calls / kRanks);
  EXPECT_EQ(served.allreduce_calls, off.allreduce_calls);
  EXPECT_EQ((served.allgather_calls - off.allgather_calls) / kRanks, 2u);
}

TEST_F(TelemetryTest, DiagnosticsFollowEveryMeshChange) {
  // The step report reads the physics diagnostics from quadrature weights
  // cached per mesh. Across adaptations, including one that changes the
  // mesh but keeps a rank's element count, each step's record must equal
  // a fresh computation on the current mesh.
  obs::set_telemetry_path(temp_path("telemetry_weights.jsonl"));
  obs::set_telemetry(true);
  par::run(2, [](par::Comm& c) {
    rhea::SimConfig cfg = transport_config();
    cfg.init_level = 3;
    cfg.min_level = 2;
    cfg.max_level = 4;
    cfg.initial_adapt_rounds = 1;
    cfg.adapt_every = 4;
    rhea::Simulation sim(c, cfg);
    sim.initialize([](const std::array<double, 3>& p) {
      const double dx = p[0] - 0.35, dy = p[1] - 0.5, dz = p[2] - 0.5;
      return std::exp(-60.0 * (dx * dx + dy * dy + dz * dz));
    });
    bool same_count_new_mesh = false;
    for (int s = 0; s < 16; ++s) {
      const std::vector<octree::Octant> before = sim.forest().tree().leaves();
      sim.run(1);
      const std::vector<octree::Octant>& after = sim.forest().tree().leaves();
      same_count_new_mesh |= after.size() == before.size() && after != before;
      const rhea::PhysicsDiagnostics d = rhea::compute_physics_diagnostics(
          c, sim.mesh(), sim.forest().connectivity(), sim.temperature(),
          sim.solution(), cfg.energy.kappa);
      if (c.rank() != 0) continue;
      obs::TelemetryRecord fresh;
      fresh.field("nusselt", d.nusselt)
          .field("v_rms", d.v_rms)
          .field("t_min", d.t_min)
          .field("t_max", d.t_max)
          .field("t_mean", d.t_mean);
      const std::string line = obs::telemetry_tail().back();
      EXPECT_EQ(json_int(line, "step"), s + 1);
      EXPECT_NE(line.find(fresh.str()), std::string::npos)
          << "step " << s + 1 << ": " << fresh.str();
    }
    EXPECT_EQ(sim.adapt_history().size(), 3u);
    EXPECT_TRUE(c.allreduce_or(same_count_new_mesh));
  });
}

TEST_F(TelemetryTest, SolverFieldsCoverOnlyThisStepsSolve) {
  obs::set_telemetry_path(temp_path("telemetry_solves.jsonl"));
  obs::set_telemetry(true);
  par::run(2, [](par::Comm& c) {
    rhea::SimConfig cfg;
    cfg.init_level = 2;
    cfg.min_level = 1;
    cfg.max_level = 3;
    cfg.initial_adapt_rounds = 0;
    cfg.adapt_every = 0;
    cfg.energy.kappa = 1.0;
    cfg.picard.rayleigh = 1e4;
    cfg.picard.max_iterations = 2;
    cfg.picard.stokes.krylov.max_iterations = 60;
    cfg.picard.stokes.krylov.rtol = 1e-4;
    cfg.law = rhea::three_layer_yielding(rhea::YieldingLawOptions{});
    rhea::Simulation sim(c, cfg);
    sim.initialize([](const std::array<double, 3>& p) {
      return (1.0 - p[2]) + 0.1 * std::cos(M_PI * p[0]) * std::sin(M_PI * p[2]);
    });

    // Step 1 solves nothing (initialize() did): no solver fields at all.
    sim.run(1);
    if (c.rank() == 0) {
      const std::string line = obs::telemetry_tail().back();
      EXPECT_EQ(json_int(line, "step"), 1);
      for (const char* key :
           {"solves", "picard_iterations", "amg_vcycles", "minres_status"})
        EXPECT_EQ(line.find(key), std::string::npos) << key;
    }

    // Step 2 solves: one solves entry per Picard iteration, and the
    // V-cycle count is what rank 0 ran, not a sum over ranks.
    const obs::CounterId vc = obs::wellknown::amg_vcycles();
    const std::uint64_t vc0 = obs::counter_value(c.rank(), vc);
    sim.run(1);
    const std::uint64_t vcycles = obs::counter_value(c.rank(), vc) - vc0;
    if (c.rank() == 0) {
      const std::string line = obs::telemetry_tail().back();
      EXPECT_EQ(json_int(line, "step"), 2);
      ASSERT_GT(vcycles, 0u);
      EXPECT_EQ(json_int(line, "amg_vcycles"),
                static_cast<long long>(vcycles));
      const stokes::PicardResult& pr = sim.last_stokes();
      EXPECT_EQ(json_int(line, "picard_iterations"), pr.iterations);
      const std::size_t solves = line.find("\"solves\":[");
      ASSERT_NE(solves, std::string::npos);
      const std::string arr =
          line.substr(solves, line.find(']', solves) - solves);
      std::size_t entries = 0;
      for (std::size_t at = arr.find("\"status\":"); at != std::string::npos;
           at = arr.find("\"status\":", at + 1))
        ++entries;
      EXPECT_EQ(entries, pr.solves.size());
      EXPECT_EQ(json_int(arr, "iterations"), pr.solves.front().iterations);
      EXPECT_EQ(line.find("minres_"), std::string::npos);
    }
  });
}

TEST_F(TelemetryTest, TraceExportReportsDroppedEventsPerRank) {
  const std::size_t old_cap = obs::set_ring_capacity(4);
  obs::set_enabled(true);
  par::run(2, [](par::Comm&) {
    for (int i = 0; i < 32; ++i) OBS_SPAN("overflow.span");
  });
  obs::set_ring_capacity(old_cap);
  EXPECT_GT(obs::dropped(0), 0u);
  const std::string json = obs::chrome_trace_json();
  const std::size_t pos = json.find("\"alpsDropped\": [");
  ASSERT_NE(pos, std::string::npos);
  // Both ranks overflowed: the array holds two non-zero counts.
  EXPECT_EQ(json.find("\"alpsDropped\": [0, 0]"), std::string::npos);
}
