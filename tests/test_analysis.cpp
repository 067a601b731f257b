// obs::analysis: Scalasca-style wait-state classification (late-sender
// blame, collective imbalance, achieved overlap), per-step critical-path
// stitching via analyze_step, and Perfetto flow-event pairing across
// ranks.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/obs.hpp"
#include "par/runtime.hpp"

using namespace alps;

namespace {

/// Restore every analysis/tracing switch so test ordering never leaks.
class AnalysisTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::set_analysis_enabled(true); }
  void TearDown() override {
    obs::set_enabled(false);
    obs::set_analysis_enabled(true);  // default-on
  }
};

}  // namespace

#ifndef ALPS_OBS_DISABLE  // phase spans and waits are compiled out

namespace {

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

const obs::PhaseWaitSample* find_phase(
    const std::vector<obs::PhaseWaitSample>& samples, const char* phase) {
  for (const auto& s : samples)
    if (s.phase == phase) return &s;
  return nullptr;
}

}  // namespace

TEST_F(AnalysisTest, LateSenderBlockedTimeIsAttributedToTheSlowSender) {
  par::run(2, [](par::Comm& c) {
    OBS_PHASE_SPAN("test.late_sender");
    if (c.rank() == 1) {
      sleep_ms(30);  // the receiver is already blocked when this posts
      c.send(0, 7, std::vector<double>{1.0});
    } else {
      (void)c.recv<double>(1, 7);
    }
  });
  const auto samples = obs::wait_samples(0);
  const obs::PhaseWaitSample* s = find_phase(samples, "test.late_sender");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->w.recvs, 1u);
  EXPECT_EQ(s->w.waited_recvs, 1u);
  // Most of the ~30ms block predates the send: late-sender, blamed on 1.
  EXPECT_GT(s->w.late_sender_s, 0.005);
  ASSERT_EQ(s->late_sender_by_rank.size(), 1u);
  EXPECT_EQ(s->late_sender_by_rank[0].first, 1);
  EXPECT_GT(s->late_sender_by_rank[0].second, 0.005);
}

TEST_F(AnalysisTest, LateReceiverCountsQueuedTimeWithoutBlocking) {
  par::run(2, [](par::Comm& c) {
    OBS_PHASE_SPAN("test.late_receiver");
    if (c.rank() == 1) {
      c.send(0, 7, std::vector<double>{1.0});
    } else {
      sleep_ms(30);  // the message sits queued while this rank "computes"
      (void)c.recv<double>(1, 7);
    }
  });
  const auto samples = obs::wait_samples(0);
  const obs::PhaseWaitSample* s = find_phase(samples, "test.late_receiver");
  ASSERT_NE(s, nullptr);
  // Queue time was hidden by local work: no late-sender blame, and the
  // hidden-communication bucket carries roughly the sleep.
  EXPECT_LT(s->w.late_sender_s, 0.005);
  EXPECT_GT(s->w.late_receiver_s, 0.005);
}

TEST_F(AnalysisTest, CollectiveImbalanceLandsInTheCollectiveBucket) {
  par::run(2, [](par::Comm& c) {
    OBS_PHASE_SPAN("test.collective");
    if (c.rank() == 0) sleep_ms(30);
    c.barrier();
  });
  const auto fast = obs::wait_samples(1);
  const obs::PhaseWaitSample* s = find_phase(fast, "test.collective");
  ASSERT_NE(s, nullptr);
  EXPECT_GE(s->w.collectives, 1u);
  EXPECT_GT(s->w.collective_s, 0.005);  // blocked on the sleeping rank
  const auto slow = obs::wait_samples(0);
  const obs::PhaseWaitSample* t = find_phase(slow, "test.collective");
  ASSERT_NE(t, nullptr);
  EXPECT_LT(t->w.collective_s, 0.02);  // the straggler barely waits
}

TEST_F(AnalysisTest, OverlapMarksMeasureCoveredVersusWaitedHaloTime) {
  par::run(2, [](par::Comm& c) {
    OBS_PHASE_SPAN("test.overlap");
    if (c.rank() == 1) {
      sleep_ms(20);
      c.send(0, 9, std::vector<double>{2.0});
    } else {
      // Split-phase halo shape: post (start), compute, consume (finish).
      obs::overlap_mark_start();
      sleep_ms(5);  // overlapped local compute
      obs::overlap_mark_finish_begin();
      (void)c.recv<double>(1, 9);  // still waits: sender is slower
      obs::overlap_mark_finish_end();
    }
  });
  const auto samples = obs::wait_samples(0);
  const obs::PhaseWaitSample* s = find_phase(samples, "test.overlap");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->w.halo_ops, 1u);
  EXPECT_GT(s->w.overlap_covered_s, 0.002);  // the 5ms compute
  EXPECT_GT(s->w.overlap_waited_s, 0.002);   // the residual block
  const double cov = s->w.overlap_covered_s /
                     (s->w.overlap_covered_s + s->w.overlap_waited_s);
  EXPECT_GE(cov, 0.0);
  EXPECT_LE(cov, 1.0);
}

TEST_F(AnalysisTest, AnalyzeStepStitchesCriticalPathToTheSlowestRank) {
  obs::analysis::StepRecord recs[4];
  par::run(4, [&](par::Comm& c) {
    {
      OBS_PHASE_SPAN("test.stitch");
      sleep_ms(2 + 10 * c.rank());  // rank 3 is the straggler
    }
    recs[c.rank()] = obs::analysis::analyze_step(c, 1);
  });
  const obs::analysis::StepRecord& rec = recs[0];
  EXPECT_EQ(rec.step, 1);
  const obs::analysis::PhaseCritical* c3 = nullptr;
  for (const auto& p : rec.critical)
    if (p.phase == "test.stitch") c3 = &p;
  ASSERT_NE(c3, nullptr);
  EXPECT_EQ(c3->rank, 3);
  EXPECT_GE(c3->cp_s, c3->mean_s);
  EXPECT_GT(c3->imbalance, 1.0);
  EXPECT_GE(rec.cp_length_s, rec.mean_length_s);
  // Every rank computed the same stitched record (it is a collective).
  for (int r = 1; r < 4; ++r) {
    EXPECT_EQ(recs[r].step, 1);
    EXPECT_DOUBLE_EQ(recs[r].cp_length_s, rec.cp_length_s);
  }
}

TEST_F(AnalysisTest, AnalyzeStepBucketsRespectWallTimeAndBlameSlowRank) {
  obs::analysis::StepRecord rec;
  par::run(2, [&](par::Comm& c) {
    {
      OBS_PHASE_SPAN("test.blame");
      if (c.rank() == 1) {
        sleep_ms(25);
        c.send(0, 3, std::vector<double>{1.0});
      } else {
        (void)c.recv<double>(1, 3);
      }
    }
    const auto r = obs::analysis::analyze_step(c, 1);
    if (c.rank() == 0) rec = r;
  });
  const obs::analysis::PhaseWaits* w = nullptr;
  for (const auto& p : rec.waits)
    if (p.phase == "test.blame") w = &p;
  ASSERT_NE(w, nullptr);
  // The locally-exact buckets can never exceed the rank-summed wall time.
  EXPECT_LE(w->w.late_sender_s + w->w.transfer_s + w->w.collective_s,
            w->wall_s * 1.01 + 1e-9);
  EXPECT_EQ(w->blamed_rank, 1);
  EXPECT_GT(w->blamed_s, 0.005);
  // A second analyze_step reports only new activity (delta semantics).
  par::run(2, [&](par::Comm& c) {
    const auto r = obs::analysis::analyze_step(c, 2);
    if (c.rank() == 0) rec = r;
  });
  for (const auto& p : rec.waits) EXPECT_LT(p.w.late_sender_s, 0.005);
}

TEST_F(AnalysisTest, JsonBlocksCarryTheAnalysisFields) {
  obs::analysis::StepRecord rec;
  par::run(2, [&](par::Comm& c) {
    {
      OBS_PHASE_SPAN("test.json");
      if (c.rank() == 1) c.send(0, 4, std::vector<double>{1.0});
      else (void)c.recv<double>(1, 4);
    }
    const auto r = obs::analysis::analyze_step(c, 5);
    if (c.rank() == 0) rec = r;
  });
  const std::string cp = obs::analysis::critical_path_json(rec);
  EXPECT_NE(cp.find("\"length_s\":"), std::string::npos);
  EXPECT_NE(cp.find("\"phases\":["), std::string::npos);
  EXPECT_NE(cp.find("test.json"), std::string::npos);
  const std::string ws = obs::analysis::wait_states_json(rec);
  EXPECT_NE(ws.find("\"wall_s\":"), std::string::npos);
  EXPECT_NE(ws.find("\"late_sender_s\":"), std::string::npos);
}

TEST_F(AnalysisTest, AnalyzeStepRecordsNoWaitsWhenAnalysisIsDisabled) {
  // ALPS_ANALYSIS=0 only stops the wait-state clock reads: the exchange
  // still runs, so the critical path (phase times) is produced while the
  // wait lists stay empty.
  obs::set_analysis_enabled(false);
  obs::analysis::StepRecord rec;
  par::run(2, [&](par::Comm& c) {
    {
      OBS_PHASE_SPAN("test.disabled");
      if (c.rank() == 1) c.send(0, 2, std::vector<double>{1.0});
      else (void)c.recv<double>(1, 2);
    }
    const auto r = obs::analysis::analyze_step(c, 1);
    if (c.rank() == 0) rec = r;
  });
  EXPECT_TRUE(rec.waits.empty());
  EXPECT_TRUE(obs::wait_samples(0).empty());
  EXPECT_TRUE(obs::wait_samples(1).empty());
  bool found = false;
  for (const obs::analysis::PhaseCritical& cp : rec.critical)
    found |= cp.phase == "test.disabled";
  EXPECT_TRUE(found);
  EXPECT_GT(rec.cp_length_s, 0.0);
}
#endif  // ALPS_OBS_DISABLE

TEST_F(AnalysisTest, FlowEventsPairAcrossRanksWithMatchingIds) {
  obs::set_enabled(true);
  par::run(2, [](par::Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 11, std::vector<double>{1.0});
      obs::flow_emit(1, obs::kFlowHaloExchange, true);
    } else {
      obs::flow_emit(0, obs::kFlowHaloExchange, false);
      (void)c.recv<double>(0, 11);
    }
  });
  const std::vector<obs::FlowEvent> f0 = obs::flows(0);
  const std::vector<obs::FlowEvent> f1 = obs::flows(1);
  ASSERT_EQ(f0.size(), 1u);
  ASSERT_EQ(f1.size(), 1u);
  EXPECT_TRUE(f0[0].start);
  EXPECT_FALSE(f1[0].start);
  // Both sides derived the same id from their local sequence counters.
  EXPECT_EQ(f0[0].id, f1[0].id);
  EXPECT_EQ(obs::flow_dropped(0), 0u);
  EXPECT_EQ(obs::flow_dropped(1), 0u);
  const std::string json = obs::chrome_trace_json();
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(json.find("\"alpsFlowDropped\""), std::string::npos);
}

TEST_F(AnalysisTest, FlowSequencesStayMatchedWhenTracingTogglesMidRun) {
  obs::set_enabled(false);
  par::run(2, [](par::Comm& c) {
    // First pair invisible (tracing off), second pair visible: the ids
    // still match because the sequence advances regardless. The toggle is
    // global, so barriers fence it from both emits.
    obs::flow_emit(1 - c.rank(), obs::kFlowGhostForward, c.rank() == 0);
    c.barrier();
    if (c.rank() == 0) obs::set_enabled(true);
    c.barrier();
    obs::flow_emit(1 - c.rank(), obs::kFlowGhostForward, c.rank() == 0);
  });
  const std::vector<obs::FlowEvent> f0 = obs::flows(0);
  const std::vector<obs::FlowEvent> f1 = obs::flows(1);
  ASSERT_EQ(f0.size(), 1u);
  ASSERT_EQ(f1.size(), 1u);
  EXPECT_EQ(f0[0].id, f1[0].id);
}

TEST_F(AnalysisTest, RetainedStateIsBoundedByNameCount) {
  // Rank 0 keeps run-cumulative histograms, one per name, and no
  // per-step records: after the first step, more steps over the same
  // names add samples but no entries.
  constexpr int kSteps = 50;
  std::size_t names_after_first_step = 0;
  par::run(2, [&](par::Comm& c) {
    for (int step = 1; step <= kSteps; ++step) {
      obs::hist_record("test.bounded.a", 1e-3);
      obs::hist_record("test.bounded.b", 2e-3);
      (void)obs::analysis::analyze_step(c, step);
      if (c.rank() == 0 && step == 1)
        names_after_first_step = obs::analysis::merged_histograms().size();
    }
  });
  const auto hists = obs::analysis::merged_histograms();
  EXPECT_EQ(hists.size(), names_after_first_step);
  int found = 0;
  for (const auto& [name, h] : hists)
    if (name.rfind("test.bounded.", 0) == 0) {
      EXPECT_EQ(h.count(), 2u * kSteps) << name;  // both ranks, every step
      ++found;
    }
  EXPECT_EQ(found, 2);
}
