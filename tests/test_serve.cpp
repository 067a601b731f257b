// obs::Histogram + obs::serve: log-bucket boundary exactness, the <= 4%
// quantile error bound against sorted references (random and adversarial
// inputs), exact cross-rank merge associativity through the analyze_step
// piggyback at P in {1, 2, 4}, the Prometheus / status renderers, and a
// live HTTP smoke test of all four endpoints (the test TSan points at:
// concurrent publisher + server + client). Every test also compiles (and
// the guards assert the no-op behavior) under -DALPS_OBS_DISABLE.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/histogram.hpp"
#include "obs/obs.hpp"
#include "obs/serve.hpp"
#include "par/runtime.hpp"
#include "rhea/simulation.hpp"

#ifndef ALPS_OBS_DISABLE
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

using namespace alps;
using obs::Histogram;

namespace {

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A sentinel trip in an earlier test of the same process (the flight
    // recorder tests) leaves the sticky unhealthy mark set.
    obs::metrics_reset_for_testing();
    obs::set_analysis_enabled(true);
  }
  void TearDown() override {
    obs::serve_stop();
    obs::metrics_reset_for_testing();
    obs::set_analysis_enabled(true);  // default-on
  }
};

/// Nearest-rank reference quantile: the floor(q*n)-th (0-based) element
/// of the sorted sample — exactly the rank Histogram::quantile targets.
double ref_quantile(std::vector<double> sorted, double q) {
  std::sort(sorted.begin(), sorted.end());
  std::size_t idx = static_cast<std::size_t>(
      std::floor(q * static_cast<double>(sorted.size())));
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

void expect_quantiles_within_4pct(const Histogram& h,
                                  const std::vector<double>& samples) {
  for (const double q : {0.5, 0.9, 0.95, 0.99}) {
    const double ref = ref_quantile(samples, q);
    const double got = h.quantile(q);
    EXPECT_LE(std::abs(got - ref), 0.04 * ref)
        << "q=" << q << " ref=" << ref << " got=" << got;
  }
}

}  // namespace

// ---- bucket scheme -----------------------------------------------------

TEST_F(ServeTest, BucketBoundariesMapExactly) {
  // upper(i) itself belongs to bucket i (buckets are (lower, upper]); one
  // ulp above it belongs to bucket i+1. The log-estimate in bucket_index
  // settles against the cumulative-product boundary table, so this holds
  // at every boundary, not just away from FP rounding trouble.
  EXPECT_EQ(Histogram::bucket_index(Histogram::first_upper()), 0);
  for (const int i : {0, 1, 7, 57, 133, 200, 317, Histogram::kBucketCount - 2,
                      Histogram::kBucketCount - 1}) {
    const double up = Histogram::bucket_upper(i);
    EXPECT_EQ(Histogram::bucket_index(up), i) << "at boundary " << i;
    if (i + 1 < Histogram::kBucketCount) {
      const double above =
          std::nextafter(up, std::numeric_limits<double>::infinity());
      EXPECT_EQ(Histogram::bucket_index(above), i + 1) << "above " << i;
    }
    if (i > 0) {
      EXPECT_DOUBLE_EQ(Histogram::bucket_lower(i),
                       Histogram::bucket_upper(i - 1));
    }
  }
  // Below the first bound and beyond the last: clamped, never out of range.
  EXPECT_EQ(Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(Histogram::bucket_index(Histogram::first_upper() / 2), 0);
  EXPECT_EQ(Histogram::bucket_index(1e12), Histogram::kBucketCount - 1);
}

TEST_F(ServeTest, RecordTracksExactCountSumMinMax) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.quantile(0.5), 0.0);
  h.record(1e-3);
  h.record(2e-3);
  h.record(4e-3);
  h.record(std::nan(""));  // dropped
  h.record(-1.0);          // dropped
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 7e-3);
  EXPECT_DOUBLE_EQ(h.min(), 1e-3);
  EXPECT_DOUBLE_EQ(h.max(), 4e-3);
}

// ---- quantile error bound ----------------------------------------------

TEST_F(ServeTest, QuantilesWithin4PercentOnRandomInput) {
  std::mt19937 rng(12345);
  std::uniform_real_distribution<double> logu(std::log(1e-6), std::log(1.0));
  std::vector<double> samples;
  Histogram h;
  for (int i = 0; i < 10000; ++i) {
    const double v = std::exp(logu(rng));
    samples.push_back(v);
    h.record(v);
  }
  expect_quantiles_within_4pct(h, samples);
}

TEST_F(ServeTest, QuantilesExactWhenAllSamplesShareOneBucket) {
  // Adversarial: every sample identical. The bucket midpoint would be off
  // by up to 3.92%, but clamping to the exact [min, max] makes every
  // quantile exact.
  Histogram h;
  std::vector<double> samples(1000, 3.3e-4);
  for (const double v : samples) h.record(v);
  for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(h.quantile(q), 3.3e-4);
}

TEST_F(ServeTest, QuantilesWithin4PercentOnBimodalInput) {
  // Adversarial: two modes four decades apart; nearest-rank must jump
  // cleanly from one mode to the other with no interpolation artifacts.
  Histogram h;
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i) samples.push_back(1.1e-5);
  for (int i = 0; i < 500; ++i) samples.push_back(0.9e-1);
  for (const double v : samples) h.record(v);
  expect_quantiles_within_4pct(h, samples);
  // p25 sits in the low mode, exactly (clamp to min on the low side).
  const double p25 = h.quantile(0.25);
  EXPECT_LE(std::abs(p25 - 1.1e-5), 0.04 * 1.1e-5);
}

// ---- merging -----------------------------------------------------------

TEST_F(ServeTest, MergeIsExactAndAssociative) {
  std::mt19937 rng(99);
  std::uniform_real_distribution<double> logu(std::log(1e-7), std::log(1e1));
  Histogram a, b, c, all;
  for (int i = 0; i < 3000; ++i) {
    const double v = std::exp(logu(rng));
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).record(v);
    all.record(v);
  }
  Histogram ab_c = a;   // (a + b) + c
  ab_c.merge(b);
  ab_c.merge(c);
  Histogram bc = b;     // a + (b + c)
  bc.merge(c);
  Histogram a_bc = a;
  a_bc.merge(bc);
  EXPECT_EQ(ab_c.count(), all.count());
  // Bucket counts are exact integers; the sum is FP and only order-stable
  // to rounding.
  EXPECT_NEAR(ab_c.sum(), all.sum(), 1e-12 * all.sum());
  for (int i = 0; i < Histogram::kBucketCount; ++i) {
    EXPECT_EQ(ab_c.bucket(i), all.bucket(i)) << "bucket " << i;
    EXPECT_EQ(a_bc.bucket(i), ab_c.bucket(i)) << "bucket " << i;
  }
  EXPECT_DOUBLE_EQ(ab_c.min(), all.min());
  EXPECT_DOUBLE_EQ(ab_c.max(), all.max());
}

TEST_F(ServeTest, DeltaSinceIsolatesTheStepWindow) {
  Histogram cum;
  cum.record(1e-4);
  cum.record(2e-4);
  const Histogram base = cum;
  cum.record(5e-2);
  cum.record(6e-2);
  const Histogram d = cum.delta_since(base);
  EXPECT_EQ(d.count(), 2u);
  EXPECT_NEAR(d.sum(), 0.11, 1e-12);
  // Window min/max are bucket-midpoint estimates; the quantile invariant
  // p50 <= max must survive re-estimation.
  EXPECT_GT(d.min(), 0.04);
  EXPECT_LE(d.quantile(0.5), d.max());
  // Nearest-rank at q=0.5 over {5e-2, 6e-2} targets index floor(0.5*2)=1,
  // i.e. the 6e-2 sample.
  EXPECT_LE(std::abs(d.quantile(0.5) - 6e-2), 0.04 * 6e-2);

  // A lone sample near the top of its bucket: the window's estimated max
  // must still bound the exact sum (max <= sum <= count * max).
  const Histogram base2 = cum;
  cum.record(0.999 * Histogram::bucket_upper(Histogram::bucket_index(0.03)));
  const Histogram d2 = cum.delta_since(base2);
  ASSERT_EQ(d2.count(), 1u);
  EXPECT_LE(d2.max(), d2.sum());
  EXPECT_LE(d2.sum(), static_cast<double>(d2.count()) * d2.max());
}

TEST_F(ServeTest, CrossRankMergeThroughAnalyzeStepMatchesDirectRecording) {
  // The same fixed sample set, dealt round-robin to P ranks, must stitch
  // into bucket-identical histograms for every P: ship-as-sparse-delta +
  // elementwise add is exact, so grouping cannot matter.
  std::mt19937 rng(2024);
  std::uniform_real_distribution<double> logu(std::log(1e-6), std::log(1e-1));
  std::vector<double> samples;
  for (int i = 0; i < 2000; ++i) samples.push_back(std::exp(logu(rng)));
  Histogram direct;
  for (const double v : samples) direct.record(v);

  for (const int nranks : {1, 2, 4}) {
    obs::analysis::StepRecord rec;
    par::run(nranks, [&samples, &rec](par::Comm& comm) {
      for (std::size_t i = 0; i < samples.size(); ++i)
        if (static_cast<int>(i % static_cast<std::size_t>(comm.size())) ==
            comm.rank())
          obs::hist_record("test.serve.merge", samples[i]);
      const obs::analysis::StepRecord r =
          obs::analysis::analyze_step(comm, 1);
      if (comm.rank() == 0) rec = r;
    });
    const obs::analysis::PhaseLatency* found = nullptr;
    for (const auto& l : rec.latency)
      if (l.phase == "test.serve.merge") found = &l;
    // hist_record is a plain call, so this holds with observability
    // compiled out too.
    ASSERT_NE(found, nullptr) << "P=" << nranks;
    EXPECT_EQ(found->hist.count(), direct.count()) << "P=" << nranks;
    EXPECT_NEAR(found->hist.sum(), direct.sum(), 1e-9 * direct.sum());
    for (int i = 0; i < Histogram::kBucketCount; ++i)
      ASSERT_EQ(found->hist.bucket(i), direct.bucket(i))
          << "P=" << nranks << " bucket " << i;
    expect_quantiles_within_4pct(found->hist, samples);
  }
}

// ---- renderers ---------------------------------------------------------

namespace {

obs::MetricsSnapshot sample_snapshot() {
  obs::MetricsSnapshot snap;
  snap.step = 7;
  snap.sim_time = 0.125;
  snap.dt = 0.015;
  snap.dofs = 40000;
  snap.elements = 9000;
  snap.ranks = 4;
  snap.partition_imbalance = 1.08;
  snap.cp_imbalance = 1.3;
  snap.solves = {{"max_iterations", 60, 2e-4}, {"converged", 42, 3e-6}};
  snap.picard_iterations = 2;
  snap.counters.emplace_back("amg.vcycles", 12u);
  Histogram h;
  h.record(1e-3);
  h.record(2e-3);
  h.record(8e-3);
  snap.hists.emplace_back("fem.apply", h);
  snap.wait_blocked_s = 0.02;
  return snap;
}

}  // namespace

TEST_F(ServeTest, PrometheusTextExposesGaugesCountersAndHistogram) {
  const std::string text = obs::prometheus_text(sample_snapshot());
#ifndef ALPS_OBS_DISABLE
  EXPECT_NE(text.find("alps_up 1"), std::string::npos);
  EXPECT_NE(text.find("alps_step 7"), std::string::npos);
  EXPECT_NE(text.find("alps_dofs 40000"), std::string::npos);
  EXPECT_NE(text.find("alps_healthy 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE alps_amg_vcycles_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("alps_amg_vcycles_total 12"), std::string::npos);
  EXPECT_NE(text.find("# TYPE alps_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("alps_latency_seconds_bucket{phase=\"fem.apply\",le="),
            std::string::npos);
  EXPECT_NE(
      text.find("alps_latency_seconds_bucket{phase=\"fem.apply\",le=\"+Inf\"} "
                "3"),
      std::string::npos);
  EXPECT_NE(text.find("alps_latency_seconds_count{phase=\"fem.apply\"} 3"),
            std::string::npos);
  // Bucket series are cumulative: counts must be monotone down the text.
  std::uint64_t prev = 0;
  std::size_t pos = 0;
  while ((pos = text.find("le=\"", pos)) != std::string::npos) {
    const std::size_t sp = text.find("} ", pos);
    ASSERT_NE(sp, std::string::npos);
    const std::uint64_t n = std::strtoull(text.c_str() + sp + 2, nullptr, 10);
    EXPECT_GE(n, prev);
    prev = n;
    pos = sp;
  }
#else
  EXPECT_TRUE(text.empty());
#endif
}

TEST_F(ServeTest, StatusJsonCarriesSolverEtaAndHealth) {
  obs::MetricsSnapshot snap = sample_snapshot();
  std::string j = obs::status_json(snap, 12.5, 0.8, 100);
#ifndef ALPS_OBS_DISABLE
  EXPECT_NE(j.find("\"step\":7"), std::string::npos);
  EXPECT_NE(j.find("\"healthy\":true"), std::string::npos);
  EXPECT_NE(j.find("\"status\":\"converged\""), std::string::npos);
  // Every Picard solve of the step, in order, not just the last one.
  EXPECT_NE(j.find("\"solves\":[{\"status\":\"max_iterations\","
                   "\"iterations\":60,\"relres\":0.0002},"
                   "{\"status\":\"converged\",\"iterations\":42,"
                   "\"relres\":3e-06}]"),
            std::string::npos)
      << j;
  EXPECT_NE(j.find("\"target_steps\":100"), std::string::npos);
  EXPECT_NE(j.find("\"eta_s\":12.5"), std::string::npos);
  EXPECT_NE(j.find("\"step_rate_per_s\":0.8"), std::string::npos);
  // Unknown rate/ETA and a never-ran solver render as nulls, not garbage.
  snap.solves.clear();
  j = obs::status_json(snap, -1, 0, -1);
  EXPECT_NE(j.find("\"status\":null"), std::string::npos);
  EXPECT_NE(j.find("\"eta_s\":null"), std::string::npos);
  EXPECT_NE(j.find("\"target_steps\":null"), std::string::npos);
#else
  EXPECT_TRUE(j.empty());
#endif
}

// ---- live endpoint -----------------------------------------------------

#ifndef ALPS_OBS_DISABLE
namespace {

/// Minimal blocking HTTP GET against 127.0.0.1:port; returns the full
/// response (headers + body), empty on connect failure.
std::string http_get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    ::close(fd);
    return {};
  }
  const std::string req =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  std::size_t off = 0;
  while (off < req.size()) {
    const ssize_t n = ::send(fd, req.data() + off, req.size() - off, 0);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

}  // namespace

TEST_F(ServeTest, LiveServerServesAllFourEndpoints) {
  std::string err;
  const int port = obs::serve_start(0, &err);
  ASSERT_GT(port, 0) << err;
  EXPECT_TRUE(obs::serve_active());
  EXPECT_EQ(obs::serve_port(), port);

  // Before any publish: up, but explicitly empty-handed.
  EXPECT_NE(http_get(port, "/metrics").find("no snapshot published yet"),
            std::string::npos);
  EXPECT_NE(http_get(port, "/status").find("{\"step\":null}"),
            std::string::npos);
  EXPECT_NE(http_get(port, "/healthz").find("200 OK"), std::string::npos);

  obs::metrics_publish(sample_snapshot());
  const std::string metrics = http_get(port, "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("alps_step 7"), std::string::npos);
  EXPECT_NE(metrics.find("alps_latency_seconds_bucket{phase=\"fem.apply\""),
            std::string::npos);
  const std::string status = http_get(port, "/status");
  EXPECT_NE(status.find("\"step\":7"), std::string::npos);
  EXPECT_NE(status.find("\"healthy\":true"), std::string::npos);
  EXPECT_NE(http_get(port, "/telemetry/tail").find("404"),
            std::string::npos);
  EXPECT_NE(http_get(port, "/nope").find("404"), std::string::npos);

  // Concurrent scrape vs publish: what TSan watches. The publisher spins
  // on the retired slot's reader count, the reader pins before reading.
  for (int i = 0; i < 50; ++i) {
    obs::MetricsSnapshot snap = sample_snapshot();
    snap.step = 100 + i;
    obs::metrics_publish(snap);
    const std::string m = http_get(port, "/metrics");
    EXPECT_NE(m.find("alps_step "), std::string::npos);
  }

  obs::serve_stop();
  EXPECT_FALSE(obs::serve_active());
  EXPECT_EQ(obs::serve_port(), -1);
}

TEST_F(ServeTest, HealthzFlipsTo503OnStagnationAndStickyMark) {
  const int port = obs::serve_start(0);
  ASSERT_GT(port, 0);
  obs::metrics_set_stagnation_limit(3);

  obs::MetricsSnapshot snap = sample_snapshot();
  snap.solves.back().status = "stagnated";
  for (int i = 0; i < 2; ++i) obs::metrics_publish(snap);
  EXPECT_NE(http_get(port, "/healthz").find("200 OK"), std::string::npos);
  obs::metrics_publish(snap);  // third consecutive: trip
  const std::string r = http_get(port, "/healthz");
  EXPECT_NE(r.find("503"), std::string::npos);
  EXPECT_NE(r.find("unconverged_solves=3"), std::string::npos);

  // One good solve clears the run...
  snap.solves.back().status = "converged";
  obs::metrics_publish(snap);
  EXPECT_NE(http_get(port, "/healthz").find("200 OK"), std::string::npos);

  // ...but the sentinel mark is sticky, even before the next publish.
  obs::metrics_mark_unhealthy("sentinel: test NaN");
  const std::string dead = http_get(port, "/healthz");
  EXPECT_NE(dead.find("503"), std::string::npos);
  EXPECT_NE(dead.find("sentinel: test NaN"), std::string::npos);
  obs::metrics_publish(snap);  // publishing cannot resurrect it
  EXPECT_NE(http_get(port, "/healthz").find("503"), std::string::npos);
  EXPECT_NE(http_get(port, "/metrics").find("alps_healthy 0"),
            std::string::npos);
}

TEST_F(ServeTest, HealthzCountsEveryUnconvergedStatus) {
  // la::to_string's tokens: every status but "converged" counts toward
  // the limit, and a converged last solve resets the run.
  const int port = obs::serve_start(0);
  ASSERT_GT(port, 0);
  obs::metrics_set_stagnation_limit(3);
  obs::MetricsSnapshot snap = sample_snapshot();
  for (const char* status : {la::to_string(la::SolveStatus::kNonFinite),
                             la::to_string(la::SolveStatus::kMaxIterations)}) {
    SCOPED_TRACE(status);
    snap.solves.back().status = status;
    for (int i = 0; i < 2; ++i) obs::metrics_publish(snap);
    EXPECT_NE(http_get(port, "/healthz").find("200 OK"), std::string::npos);
    obs::metrics_publish(snap);  // third consecutive: trip
    const std::string r = http_get(port, "/healthz");
    EXPECT_NE(r.find("503"), std::string::npos);
    EXPECT_NE(r.find("unconverged_solves=3"), std::string::npos);

    // A converged last solve resets the count.
    snap.solves.back().status = la::to_string(la::SolveStatus::kConverged);
    obs::metrics_publish(snap);
    EXPECT_NE(http_get(port, "/healthz").find("200 OK"), std::string::npos);
  }
  // Only the last row counts: earlier unconverged Picard solves of a
  // step whose last solve converged do not.
  snap.solves.front().status = "max_iterations";
  for (int i = 0; i < 3; ++i) obs::metrics_publish(snap);
  EXPECT_NE(http_get(port, "/healthz").find("200 OK"), std::string::npos);
}

TEST_F(ServeTest, StatusPublishesStepsWhenWaitAnalysisIsOff) {
  // ALPS_ANALYSIS=0 only turns off the wait-state clock reads; the step
  // report's exchange still runs for the endpoint, so /status advances.
  const int port = obs::serve_start(0);
  ASSERT_GT(port, 0);
  obs::set_analysis_enabled(false);
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
    rhea::Simulation sim(c, cfg);
    sim.initialize(
        [](const std::array<double, 3>& p) { return p[0] * (1.0 - p[0]); });
    sim.run(2);
  });
  const std::string status = http_get(port, "/status");
  EXPECT_NE(status.find("200 OK"), std::string::npos);
  EXPECT_NE(status.find("\"step\":2"), std::string::npos) << status;
  EXPECT_NE(status.find("\"elements\":64"), std::string::npos) << status;
}
#endif  // ALPS_OBS_DISABLE

// ---- compiled-out guard ------------------------------------------------

TEST_F(ServeTest, DisabledBuildCompilesMacrosAndStubsToNoOps) {
  // Must compile in BOTH modes; the assertions flip with the macro.
  { OBS_HIST_SPAN("test.serve.macro"); }
#ifdef ALPS_OBS_DISABLE
  EXPECT_EQ(obs::serve_start(0), -1);
  EXPECT_EQ(obs::serve_maybe_start(), -1);
  EXPECT_FALSE(obs::serve_active());
  EXPECT_EQ(obs::serve_port(), -1);
  obs::MetricsSnapshot snap;
  obs::metrics_publish(snap);  // all no-ops, nothing to observe
  obs::metrics_mark_unhealthy("x");
  obs::metrics_linger_if_unhealthy();
  EXPECT_TRUE(obs::prometheus_text(snap).empty());
  EXPECT_TRUE(obs::status_json(snap, 0, 0, 0).empty());
#else
  SUCCEED();  // the live tests above cover the enabled half
#endif
}
