// Memory observability (DESIGN.md §12): the per-rank obs::mem scope
// table (whole-table replacement, running-maximum HWM, per-rank slots and
// merge), the RSS sampler's clean unavailable fallback, the
// analyze_memory cross-rank aggregation and its per-world last record,
// and the rhea drift detector's injection hook tripping the flight
// recorder with the leaking rank named in the bundle.

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/mem.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "par/runtime.hpp"
#include "rhea/simulation.hpp"

namespace {

using namespace alps;

/// Restore every obs::mem switch after each test.
class MemRegistryTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::set_mem_enabled(true);
    obs::set_rss_unavailable_for_testing(false);
    obs::set_telemetry(false);
    obs::set_telemetry_path("");
    obs::telemetry_reset_for_testing();
    obs::set_enabled(false);
  }

  std::string temp_path(const std::string& name) {
    return (std::filesystem::path(::testing::TempDir()) / name).string();
  }
};

using MemHwmTest = MemRegistryTest;
using MemRssTest = MemRegistryTest;
using MemAnalysisTest = MemRegistryTest;
using MemDriftTest = MemRegistryTest;

}  // namespace

// ---- per-rank scope table ---------------------------------------------

#ifndef ALPS_OBS_DISABLE  // the accounting registry is compiled out
TEST_F(MemRegistryTest, ScopeLeftOutOfNextReportReadsZero) {
  obs::set_mem_enabled(true);
  par::run(1, [&](par::Comm& c) {
    obs::mem_report({{"test.kept", 10}, {"test.dropped", 20}});
    obs::mem_report({{"test.kept", 5}});  // replaces the whole table
    const obs::MemTable t = obs::mem_snapshot();
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].first, "test.kept");
    EXPECT_EQ(t[0].second, 5u);
    (void)obs::analysis::analyze_memory(c, 1);
  });
  // Readable after the join.
  const obs::analysis::MemRecord m = obs::analysis::last_memory();
  ASSERT_EQ(m.acc_by_rank.size(), 1u);
  EXPECT_EQ(m.acc_by_rank[0], 5u);
  ASSERT_EQ(m.scopes.size(), 1u);
  EXPECT_EQ(m.scopes[0].scope, "test.kept");
}

TEST_F(MemRegistryTest, ReportIsNoOpOnUnboundThread) {
  obs::set_mem_enabled(true);
  par::run(1, [&](par::Comm& c) {
    obs::mem_report({{"test.unbound", 11}});
    // That thread is not a rank thread: the report must not land anywhere.
    std::thread([] {
      obs::mem_report({{"test.unbound", 999}});
      EXPECT_TRUE(obs::mem_snapshot().empty());
    }).join();
    (void)obs::analysis::analyze_memory(c, 1);
  });
  obs::mem_report({{"test.unbound", 999}});  // nor does the main thread's
  EXPECT_TRUE(obs::mem_snapshot().empty());
  const obs::analysis::MemRecord m = obs::analysis::last_memory();
  EXPECT_EQ(m.acc_by_rank[0], 11u);
  EXPECT_EQ(m.acc_hwm_max, 11u);
}
#endif  // ALPS_OBS_DISABLE

TEST_F(MemRegistryTest, VecBytesTracksCapacity) {
  std::vector<double> v;
  EXPECT_EQ(obs::vec_bytes(v), 0u);
  v.reserve(100);
  EXPECT_EQ(obs::vec_bytes(v), v.capacity() * sizeof(double));
  EXPECT_GE(obs::vec_bytes(v), 100u * sizeof(double));
}

#ifndef ALPS_OBS_DISABLE  // the accounting registry is compiled out
TEST_F(MemRegistryTest, RankSlotsMergeAcrossFourRanks) {
  obs::set_mem_enabled(true);
  par::run(4, [&](par::Comm& c) {
    obs::mem_report(
        {{"test.merge", static_cast<std::uint64_t>(c.rank() + 1) * 1000}});
    (void)obs::analysis::analyze_memory(c, 1);
  });
  const obs::analysis::MemRecord m = obs::analysis::last_memory();
  ASSERT_EQ(m.acc_by_rank.size(), 4u);
  for (int r = 0; r < 4; ++r)
    EXPECT_EQ(m.acc_by_rank[static_cast<std::size_t>(r)],
              static_cast<std::uint64_t>(r + 1) * 1000);
  ASSERT_EQ(m.scopes.size(), 1u);
  EXPECT_EQ(m.scopes[0].scope, "test.merge");
  EXPECT_EQ(m.scopes[0].total, 10000u);  // 1000 + 2000 + 3000 + 4000
}

TEST_F(MemRegistryTest, SlotsResetAtWorldBegin) {
  obs::set_mem_enabled(true);
  par::run(2, [&](par::Comm& c) {
    obs::mem_report({{"test.reset", 777}});
    (void)obs::analysis::analyze_memory(c, 1);
  });
  EXPECT_EQ(obs::analysis::last_memory().acc_by_rank[0], 777u);
  par::run(2, [&](par::Comm&) {
    // A fresh world starts from a clean slate — no stale carry-over.
    EXPECT_TRUE(obs::mem_snapshot().empty());
    EXPECT_EQ(obs::mem_hwm(), 0u);
  });
}
#endif  // ALPS_OBS_DISABLE

TEST_F(MemRegistryTest, DisabledRegistryIgnoresWrites) {
  obs::set_mem_enabled(false);
  par::run(1, [&](par::Comm& c) {
    obs::mem_report({{"test.disabled", 123}});
    EXPECT_TRUE(obs::mem_snapshot().empty());
    EXPECT_EQ(obs::mem_hwm(), 0u);
    EXPECT_FALSE(obs::analysis::analyze_memory(c, 1).enabled);
  });
  EXPECT_FALSE(obs::analysis::last_memory().enabled);
}

// ---- high-water marks --------------------------------------------------

#ifndef ALPS_OBS_DISABLE  // the accounting registry is compiled out
TEST_F(MemHwmTest, HwmIsRunningMaxOfReportedTotals) {
  obs::set_mem_enabled(true);
  par::run(1, [&](par::Comm& c) {
    obs::mem_report({{"test.a", 60}, {"test.b", 40}});
    EXPECT_EQ(obs::mem_hwm(), 100u);
    obs::mem_report({{"test.a", 1u << 20}});
    EXPECT_EQ(obs::mem_hwm(), 1u << 20);
    obs::mem_report({{"test.a", 100}});  // dropping back keeps the HWM
    EXPECT_EQ(obs::mem_hwm(), 1u << 20);
    (void)obs::analysis::analyze_memory(c, 1);
  });
  const obs::analysis::MemRecord m = obs::analysis::last_memory();
  EXPECT_EQ(m.acc_by_rank[0], 100u);
  EXPECT_EQ(m.acc_hwm_max, 1u << 20);
}
#endif  // ALPS_OBS_DISABLE

// ---- RSS sampling ------------------------------------------------------

TEST_F(MemRssTest, ForcedUnavailableDegradesCleanly) {
  obs::set_rss_unavailable_for_testing(true);
  const obs::RssSample s = obs::sample_rss();
  EXPECT_FALSE(s.available);
  EXPECT_EQ(s.rss_bytes, 0u);  // no fabricated numbers
  EXPECT_EQ(s.hwm_bytes, 0u);
}

TEST_F(MemRssTest, LinuxSampleIsOrderedWhenAvailable) {
  const obs::RssSample s = obs::sample_rss();
  if (!s.available) GTEST_SKIP() << "/proc not readable here";
  EXPECT_GT(s.rss_bytes, 0u);
  EXPECT_GE(s.hwm_bytes, s.rss_bytes);  // lifetime peak >= current
}

// ---- cross-rank aggregation --------------------------------------------

#ifndef ALPS_OBS_DISABLE  // the accounting registry is compiled out
TEST_F(MemAnalysisTest, AnalyzeMemoryGathersRankStats) {
  obs::set_mem_enabled(true);
  obs::analysis::MemRecord rec;
  par::run(4, [&](par::Comm& c) {
    obs::mem_report(
        {{"alpha.main", static_cast<std::uint64_t>(c.rank() + 1) * 100},
         {"beta.detail", 50}});
    obs::analysis::MemRecord r = obs::analysis::analyze_memory(c, 7);
    if (c.rank() == 0) rec = r;
    // The record is identical on every rank (drift decisions are made
    // from it without further communication).
    EXPECT_EQ(r.acc_total, 1000u + 200u);
    EXPECT_EQ(r.acc_argmax, 3);
  });
  EXPECT_TRUE(rec.enabled);
  EXPECT_EQ(rec.step, 7);
  EXPECT_EQ(rec.ranks, 4);
  EXPECT_EQ(rec.acc_min, 150u);   // rank 0: 100 + 50
  EXPECT_EQ(rec.acc_max, 450u);   // rank 3: 400 + 50
  EXPECT_EQ(rec.acc_total, 1200u);
  EXPECT_DOUBLE_EQ(rec.acc_mean, 300.0);
  EXPECT_GE(rec.acc_imbalance, 1.0);
  ASSERT_EQ(rec.acc_by_rank.size(), 4u);
  EXPECT_EQ(rec.acc_by_rank[0], 150u);
  EXPECT_EQ(rec.acc_by_rank[3], 450u);
  EXPECT_EQ(rec.acc_hwm_max, 450u);  // worst rank's running maximum
  // Scope stats: "alpha.main" summed over ranks with the argmax rank.
  bool found_alpha = false;
  for (const auto& s : rec.scopes) {
    if (s.scope != "alpha.main") continue;
    EXPECT_EQ(s.total, 1000u);
    EXPECT_EQ(s.max, 400u);
    EXPECT_EQ(s.argmax, 3);
    found_alpha = true;
  }
  EXPECT_TRUE(found_alpha);
  // Subsystem grouping by the prefix before '.'.
  ASSERT_EQ(rec.subsystems.size(), 2u);
  EXPECT_EQ(rec.subsystems[0].scope, "alpha");
  EXPECT_EQ(rec.subsystems[1].scope, "beta");
  EXPECT_EQ(rec.subsystems[1].total, 200u);
}
#endif  // ALPS_OBS_DISABLE

TEST_F(MemAnalysisTest, DisabledAnalyzeReturnsInertRecord) {
  obs::set_mem_enabled(false);
  par::run(2, [&](par::Comm& c) {
    const obs::analysis::MemRecord r = obs::analysis::analyze_memory(c, 1);
    EXPECT_FALSE(r.enabled);
  });
}

#ifndef ALPS_OBS_DISABLE  // the accounting registry is compiled out
TEST_F(MemAnalysisTest, SnapshotAfterWorldWithoutRecordIsUnavailable) {
  // What bench::Reporter::snapshot_obs writes for a run's memory block.
  const auto snapshot = [] {
    return obs::analysis::memory_json(obs::analysis::last_memory(), 0);
  };
  obs::set_mem_enabled(true);
  par::run(2, [](par::Comm& c) {
    obs::mem_report({{"test.earlier", 64}});
    (void)obs::analysis::analyze_memory(c, 1);
  });
  EXPECT_NE(snapshot().find("\"total_bytes\":128"), std::string::npos)
      << snapshot();
  // Neither a silent world nor one that only analyzes steps may report
  // the earlier world's record.
  par::run(2, [](par::Comm&) { obs::mem_report({{"test.later", 32}}); });
  EXPECT_EQ(snapshot(), "{\"available\":false}");
  par::run(2, [](par::Comm& c) { (void)obs::analysis::analyze_step(c, 1); });
  EXPECT_EQ(snapshot(), "{\"available\":false}");
}

TEST_F(MemAnalysisTest, MemoryJsonEmitsBlockAndCleanRssFallback) {
  obs::set_mem_enabled(true);
  obs::set_rss_unavailable_for_testing(true);
  obs::analysis::MemRecord rec;
  par::run(2, [&](par::Comm& c) {
    obs::mem_report({{"gamma.data", 1 << 10}});
    obs::analysis::MemRecord r = obs::analysis::analyze_memory(c, 3);
    if (c.rank() == 0) rec = r;
  });
  EXPECT_FALSE(rec.rss_available);
  const std::string json =
      obs::analysis::memory_json(rec, /*dofs=*/512, "{\"warn\":false}");
  EXPECT_NE(json.find("\"accounted\""), std::string::npos);
  EXPECT_NE(json.find("\"gamma\""), std::string::npos);
  EXPECT_NE(json.find("\"drift\":{\"warn\":false}"), std::string::npos);
  // Unavailable RSS is exactly {"available":false} — no fabricated zeros.
  const std::size_t rss_pos = json.find("\"rss\":{");
  ASSERT_NE(rss_pos, std::string::npos);
  const std::size_t rss_end = json.find('}', rss_pos);
  const std::string rss_obj = json.substr(rss_pos, rss_end - rss_pos + 1);
  EXPECT_NE(rss_obj.find("\"available\":false"), std::string::npos);
  EXPECT_EQ(rss_obj.find("bytes"), std::string::npos);
}
#endif  // ALPS_OBS_DISABLE

// ---- drift detector ----------------------------------------------------

#ifndef ALPS_OBS_DISABLE  // the accounting registry is compiled out
TEST_F(MemDriftTest, InjectTripsPanicAndNamesLeakingRank) {
  const std::string dump_dir = temp_path("alps_mem_drift_dump");
  std::filesystem::remove_all(dump_dir);
  ASSERT_EQ(setenv("ALPS_DUMP_DIR", dump_dir.c_str(), 1), 0);
  obs::set_mem_enabled(true);

  auto run = [] {
    par::run(2, [](par::Comm& c) {
      rhea::SimConfig cfg;
      cfg.init_level = 2;
      cfg.min_level = 1;
      cfg.max_level = 3;
      cfg.initial_adapt_rounds = 0;
      cfg.adapt_every = 0;  // non-adapting: the window never resets
      cfg.energy.kappa = 1e-6;
      cfg.energy.dirichlet_faces = 0b111111;
      cfg.prescribed_velocity = [](const std::array<double, 3>&, double) {
        return std::array<double, 3>{1.0, 0.0, 0.0};
      };
      cfg.mem_drift_window = 3;
      cfg.mem_drift_panic_bytes_per_step = 1e6;
      cfg.mem_drift_inject_rank = 1;  // rank 1 "leaks" 2 MB per step
      cfg.mem_drift_inject_bytes = 2'000'000;
      rhea::Simulation sim(c, cfg);
      sim.initialize([](const std::array<double, 3>& p) {
        return p[0] * (1.0 - p[0]);
      });
      sim.run(8);  // must die once the window fills at step 3
    });
  };
  EXPECT_THROW(run(), rhea::SentinelError);
  unsetenv("ALPS_DUMP_DIR");

  // The bundle names the leaking rank and carries the memory snapshot.
  std::ifstream reason(std::filesystem::path(dump_dir) / "reason.txt");
  std::stringstream ss;
  ss << reason.rdbuf();
  EXPECT_NE(ss.str().find("memory drift"), std::string::npos);
  EXPECT_NE(ss.str().find("rank 1"), std::string::npos);
  std::ifstream mem(std::filesystem::path(dump_dir) / "memory.json");
  ASSERT_TRUE(mem.good());
  std::stringstream ms;
  ms << mem.rdbuf();
  EXPECT_TRUE(std::regex_search(
      ms.str(), std::regex(R"("accounted":\{[^}]*"argmax_rank":1[,}])")))
      << ms.str();
  std::filesystem::remove_all(dump_dir);
}
#endif  // ALPS_OBS_DISABLE

TEST_F(MemDriftTest, SteadyFootprintDoesNotTrip) {
  const std::string dump_dir = temp_path("alps_mem_steady_dump");
  std::filesystem::remove_all(dump_dir);
  ASSERT_EQ(setenv("ALPS_DUMP_DIR", dump_dir.c_str(), 1), 0);
  obs::set_mem_enabled(true);

  par::run(2, [](par::Comm& c) {
    rhea::SimConfig cfg;
    cfg.init_level = 2;
    cfg.min_level = 1;
    cfg.max_level = 3;
    cfg.initial_adapt_rounds = 0;
    cfg.adapt_every = 0;
    cfg.energy.kappa = 1e-6;
    cfg.energy.dirichlet_faces = 0b111111;
    cfg.prescribed_velocity = [](const std::array<double, 3>&, double) {
      return std::array<double, 3>{1.0, 0.0, 0.0};
    };
    cfg.mem_drift_window = 3;
    cfg.mem_drift_panic_bytes_per_step = 1e6;  // same threshold, no inject
    rhea::Simulation sim(c, cfg);
    sim.initialize([](const std::array<double, 3>& p) {
      return p[0] * (1.0 - p[0]);
    });
    sim.run(6);  // a steady footprint must survive the whole run
  });
  unsetenv("ALPS_DUMP_DIR");
  EXPECT_FALSE(std::filesystem::exists(dump_dir));
}
