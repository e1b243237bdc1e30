// Stage profiler: the fixed stage table, obs::Scope recording, the stage-sum
// accounting guarantee (single-threaded stage totals track the wall clock
// of the instrumented region), peak-RSS sampling, and graceful hardware
// counter fallback in containers that deny perf_event_open.
//
// Recording assertions are guarded on DPCOPULA_OBS_ENABLED so the suite
// also exercises the no-op stubs under -DDPCOPULA_OBS=OFF.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "copula/sampler.h"
#include "data/generator.h"
#include "data/schema.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/scope.h"
#include "stats/empirical_cdf.h"

namespace dpcopula::obs {
namespace {

class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ObsConfig config;
    config.metrics = true;
    SetObsConfig(config);
    MetricsRegistry::Global().ResetAll();
  }
  void TearDown() override { SetObsConfig(ObsConfig{}); }
};

Histogram* StageHistogram(Stage stage) {
  return MetricsRegistry::Global().GetHistogram(InfoOf(stage).histogram);
}

TEST_F(ProfileTest, StageTableIsStableAndDistinct) {
  std::set<std::string> names;
  std::set<std::string> histograms;
  for (const StageInfo& info : kStageTable) {
    EXPECT_TRUE(names.insert(info.name).second)
        << "duplicate stage name " << info.name;
    if (info.histogram != nullptr) {
      EXPECT_TRUE(histograms.insert(info.histogram).second) << info.histogram;
    }
  }
  // The twelve leaves, kCsvRead..kInverseCdf, are exactly the
  // profile.<snake_case>_seconds histograms.
  EXPECT_EQ(static_cast<int>(Stage::kInverseCdf), 11);
  for (int i = 0; i < kNumStages; ++i) {
    const std::string histogram =
        kStageTable[i].histogram == nullptr ? "" : kStageTable[i].histogram;
    const bool profile = histogram.rfind("profile.", 0) == 0;
    EXPECT_EQ(profile, i <= static_cast<int>(Stage::kInverseCdf))
        << histogram;
    if (!profile) continue;
    const std::string stem = histogram.substr(8, histogram.size() - 16);
    EXPECT_EQ(histogram, "profile." + stem + "_seconds");
    for (char c : stem) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || c == '_') << histogram;
    }
  }
  EXPECT_STREQ(StageName(Stage::kCsvRead), "csv_read");
  EXPECT_STREQ(StageName(Stage::kTauPairs), "tau_pairs");
  EXPECT_STREQ(StageName(Stage::kInverseCdf), "inverse_cdf");
  EXPECT_STREQ(StageName(Stage::kMlePartitionFit), "mle.partition_fit");
  EXPECT_STREQ(InfoOf(Stage::kMlePartitionFit).histogram,
               "profile.mle_partition_fit_seconds");
  // The inclusive histograms keep their module names.
  EXPECT_STREQ(InfoOf(Stage::kSynthesize).histogram, "core.synthesize_seconds");
  EXPECT_STREQ(InfoOf(Stage::kHybridPartition).histogram,
               "hybrid.partition_seconds");
  EXPECT_STREQ(InfoOf(Stage::kServeRequest).histogram,
               "serve.request_seconds");
  // Tile- and pair-grain stages are never traced.
  for (Stage s : {Stage::kGaussianFill, Stage::kCholeskyApply,
                  Stage::kInverseCdf, Stage::kTauPairs, Stage::kLaplaceNoise,
                  Stage::kRankCacheBuild}) {
    EXPECT_FALSE(InfoOf(s).traced) << StageName(s);
  }
}

TEST_F(ProfileTest, ScopeRecordsIntoRegistryHistogram) {
  {
    Scope scope(Stage::kTauPairs);
    // Spin a little so the recorded duration is visibly non-zero.
    volatile double sink = 0.0;
    for (int i = 0; i < 1000; ++i) sink = sink + static_cast<double>(i);
  }
  Histogram* h =
      MetricsRegistry::Global().GetHistogram("profile.tau_pairs_seconds");
#if DPCOPULA_OBS_ENABLED
  EXPECT_EQ(h->Count(), 1);
  EXPECT_GE(h->Sum(), 0.0);
#else
  // The registry hands out real (no-op) histogram objects either way.
  EXPECT_EQ(h->Count(), 0);
#endif
}

TEST_F(ProfileTest, ScopeIsInertWhenObsDisabled) {
  SetObsConfig(ObsConfig{});
  {
    Scope scope(Stage::kCholesky);
    EXPECT_EQ(scope.id(), kNoSpan);
  }
  EXPECT_EQ(StageHistogram(Stage::kCholesky)->Count(), 0);
  EXPECT_TRUE(Tracer::Global().Snapshot().empty());
}

#if DPCOPULA_OBS_ENABLED
TEST_F(ProfileTest, ScopeSwitchesAreIndependent) {
  Tracer::Global().Reset();
  {
    Scope scope(Stage::kCholesky);  // Metrics only: histogram, no span.
    EXPECT_EQ(scope.id(), kNoSpan);
  }
  EXPECT_EQ(StageHistogram(Stage::kCholesky)->Count(), 1);
  EXPECT_TRUE(Tracer::Global().Snapshot().empty());

  ObsConfig trace_only;
  trace_only.trace = true;
  SetObsConfig(trace_only);
  {
    Scope scope(Stage::kCholesky);  // Trace only: span, no histogram.
    EXPECT_NE(scope.id(), kNoSpan);
  }
  { Scope tile(Stage::kGaussianFill); }  // Never traced.
  EXPECT_EQ(StageHistogram(Stage::kCholesky)->Count(), 1);
  const std::vector<SpanRecord> spans = Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "cholesky");
  Tracer::Global().Reset();
}
#endif  // DPCOPULA_OBS_ENABLED

TEST_F(ProfileTest, RegistryResetZeroesStageHistograms) {
  { Scope scope(Stage::kPsdRepair); }
  MetricsRegistry::Global().ResetAll();
  EXPECT_EQ(StageHistogram(Stage::kPsdRepair)->Count(), 0);
}

#if DPCOPULA_OBS_ENABLED
// The accounting guarantee behind the per-stage report tables: stages are
// leaf-level and disjoint, so on one thread their totals cover the wall
// time of the instrumented region, minus only unscoped glue (shard setup,
// table allocation). Run a sampling workload large enough that glue is
// noise and check both directions of the bound.
TEST_F(ProfileTest, SingleThreadStageSumsTrackWallClock) {
  constexpr std::size_t kRows = 200000;
  constexpr std::size_t kDims = 8;
  data::Schema schema = [] {
    std::vector<data::Attribute> attrs;
    for (std::size_t j = 0; j < kDims; ++j) {
      attrs.push_back({std::string("x").append(std::to_string(j)), 64});
    }
    return data::Schema(attrs);
  }();
  std::vector<stats::EmpiricalCdf> cdfs;
  for (std::size_t j = 0; j < kDims; ++j) {
    std::vector<double> counts(64);
    for (std::size_t v = 0; v < counts.size(); ++v) {
      counts[v] = static_cast<double>(v + 1);
    }
    cdfs.push_back(*stats::EmpiricalCdf::FromCounts(counts));
  }
  linalg::Matrix corr = *data::Equicorrelation(kDims, 0.4);

  MetricsRegistry::Global().ResetAll();
  Rng rng(1234);
  const auto wall_start = std::chrono::steady_clock::now();
  auto table = copula::SampleSyntheticData(schema, cdfs, corr, kRows, &rng,
                                           /*num_threads=*/1);
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();
  ASSERT_TRUE(table.ok()) << table.status().message();

  const Stage kSamplerStages[] = {Stage::kCholesky, Stage::kGaussianFill,
                                  Stage::kCholeskyApply, Stage::kInverseCdf};
  double stage_sum = 0.0;
  for (Stage s : kSamplerStages) {
    stage_sum += StageHistogram(s)->Sum();
  }
  // Tile-grain stages fire once per tile; the fill and apply tilings match.
  EXPECT_EQ(StageHistogram(Stage::kGaussianFill)->Count(),
            StageHistogram(Stage::kCholeskyApply)->Count());
  EXPECT_EQ(StageHistogram(Stage::kCholesky)->Count(), 1);
  // Disjoint scopes can never exceed the wall clock that contains them
  // (2% slack for clock-read jitter at tile granularity)...
  EXPECT_LE(stage_sum, wall * 1.02)
      << "stage scopes overlap or leak: sum=" << stage_sum
      << "s wall=" << wall << "s";
  // ...and at this workload size the unscoped glue is bounded, so they
  // must also cover most of it. 80% keeps the test robust to allocator
  // hiccups under sanitizers while still catching a dropped stage scope.
  EXPECT_GE(stage_sum, wall * 0.80)
      << "stage coverage too low: sum=" << stage_sum << "s wall=" << wall
      << "s";
}
#endif  // DPCOPULA_OBS_ENABLED

TEST_F(ProfileTest, PeakRssIsPositiveOnLinux) {
  const std::int64_t rss = PeakRssBytes();
#if defined(__linux__)
  EXPECT_GT(rss, 0);
  // A process running this test suite holds at least a megabyte.
  EXPECT_GE(rss, std::int64_t{1} << 20);
#else
  EXPECT_GE(rss, 0);
#endif
}

TEST_F(ProfileTest, HwCountersDegradeGracefully) {
  // Probe is cached and consistent with what a fresh group reports.
  const bool probed = HwCounterGroup::Probe();
  HwCounterGroup group;
  EXPECT_EQ(group.available(), probed);
  group.Start();
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i) * 1.5;
  const HwCounterSample sample = group.Stop();
  if (group.available()) {
    EXPECT_TRUE(sample.available);
    EXPECT_GT(sample.cycles, 0);
    EXPECT_GT(sample.instructions, 0);
  } else {
    // The container denies perf_event_open: everything must be a harmless
    // zeroed no-op, never an error.
    EXPECT_FALSE(sample.available);
    EXPECT_EQ(sample.cycles, 0);
    EXPECT_EQ(sample.instructions, 0);
    EXPECT_EQ(sample.cache_misses, 0);
  }
  // Stop() twice stays harmless.
  (void)group.Stop();
}

TEST_F(ProfileTest, ProfileSessionPublishesGauges) {
  { ProfileSession session; }
#if DPCOPULA_OBS_ENABLED
  Gauge* rss = MetricsRegistry::Global().GetGauge("profile.peak_rss_bytes");
  Gauge* hw = MetricsRegistry::Global().GetGauge("profile.hw_available");
#if defined(__linux__)
  EXPECT_GT(rss->Value(), 0.0);
#else
  EXPECT_GE(rss->Value(), 0.0);
#endif
  EXPECT_TRUE(hw->Value() == 0.0 || hw->Value() == 1.0);
  if (hw->Value() == 0.0) {
    EXPECT_EQ(
        MetricsRegistry::Global().GetGauge("profile.hw_cycles")->Value(), 0.0);
  }
#endif
}

TEST_F(ProfileTest, ProfileSessionIsInertWhenMetricsDisabled) {
  SetObsConfig(ObsConfig{});
  MetricsRegistry::Global().ResetAll();
  { ProfileSession session; }
  // No gauges published; with obs fully off Value() is 0 regardless.
  EXPECT_EQ(MetricsRegistry::Global()
                .GetGauge("profile.peak_rss_bytes")
                ->Value(),
            0.0);
}

}  // namespace
}  // namespace dpcopula::obs
