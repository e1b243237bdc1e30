// End-to-end integration tests: the full DPCopula pipeline against the
// baselines on generated datasets, exercising the same code paths the
// experiment harness uses.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/php.h"
#include "baselines/privelet.h"
#include "baselines/psd.h"
#include "common/rng.h"
#include "core/dpcopula.h"
#include "core/hybrid.h"
#include "data/census.h"
#include "data/generator.h"
#include "query/evaluator.h"
#include "query/metrics.h"
#include "query/workload.h"
#include "stats/kendall.h"

namespace dpcopula {
namespace {

data::Table Synthetic2D(std::size_t n, Rng* rng, std::int64_t domain = 256) {
  std::vector<data::MarginSpec> specs = {
      data::MarginSpec::Gaussian("x", domain),
      data::MarginSpec::Gaussian("y", domain)};
  return *data::GenerateGaussianDependent(
      specs, *data::Equicorrelation(2, 0.5), n, rng);
}

TEST(IntegrationTest, DpcopulaPipelineAnswersQueries) {
  Rng rng(501);
  data::Table t = Synthetic2D(5000, &rng);
  core::DpCopulaOptions opts;
  opts.epsilon = 1.0;
  auto res = core::Synthesize(t, opts, &rng);
  ASSERT_TRUE(res.ok());
  baselines::TableEstimator est(res->synthetic, "DPCopula");
  const auto workload = query::RandomWorkload(t.schema(), 100, &rng);
  auto eval = query::EvaluateWorkload(t, est, workload, 1.0);
  ASSERT_TRUE(eval.ok());
  EXPECT_TRUE(std::isfinite(eval->mean_relative_error));
  EXPECT_GT(eval->mean_relative_error, 0.0);  // DP noise exists.
}

TEST(IntegrationTest, AccuracyImprovesWithBudget) {
  // Average over several runs to keep the comparison stable.
  double err_low = 0.0, err_high = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    Rng rng(static_cast<std::uint64_t>(600 + rep));
    data::Table t = Synthetic2D(5000, &rng);
    const auto workload = query::RandomWorkload(t.schema(), 100, &rng);
    for (double eps : {0.05, 5.0}) {
      core::DpCopulaOptions opts;
      opts.epsilon = eps;
      auto res = core::Synthesize(t, opts, &rng);
      ASSERT_TRUE(res.ok());
      baselines::TableEstimator est(res->synthetic, "DPCopula");
      auto eval = query::EvaluateWorkload(t, est, workload, 1.0);
      ASSERT_TRUE(eval.ok());
      (eps < 1.0 ? err_low : err_high) += eval->mean_relative_error;
    }
  }
  EXPECT_LT(err_high, err_low);
}

TEST(IntegrationTest, DpcopulaCompetitiveWithPsdAt2D) {
  // Fig. 8's qualitative claim: DPCopula outperforms PSD on 2-D synthetic
  // data at small epsilon. We assert the weaker, stable property that
  // DPCopula's error is not dramatically worse (within 3x) and typically
  // better, averaged over seeds.
  double dpc_total = 0.0, psd_total = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    Rng rng(static_cast<std::uint64_t>(700 + rep));
    data::Table t = Synthetic2D(8000, &rng);
    const auto workload = query::RandomWorkload(t.schema(), 150, &rng);
    core::DpCopulaOptions opts;
    opts.epsilon = 0.1;
    auto res = core::Synthesize(t, opts, &rng);
    ASSERT_TRUE(res.ok());
    baselines::TableEstimator dpc(res->synthetic, "DPCopula");
    auto psd = baselines::PsdTree::Build(t, 0.1, &rng);
    ASSERT_TRUE(psd.ok());
    auto e1 = query::EvaluateWorkload(t, dpc, workload, 1.0);
    auto e2 = query::EvaluateWorkload(t, **psd, workload, 1.0);
    ASSERT_TRUE(e1.ok());
    ASSERT_TRUE(e2.ok());
    dpc_total += e1->mean_relative_error;
    psd_total += e2->mean_relative_error;
  }
  EXPECT_LT(dpc_total, 3.0 * psd_total);
}

TEST(IntegrationTest, HybridOnUsCensusBeatsNothingBaseline) {
  Rng rng(801);
  auto t = data::GenerateUsCensus(8000, &rng);
  ASSERT_TRUE(t.ok());
  core::HybridOptions opts;
  opts.epsilon = 1.0;
  auto res = core::SynthesizeHybrid(*t, opts, &rng);
  ASSERT_TRUE(res.ok());
  baselines::TableEstimator est(res->synthetic, "DPCopula-Hybrid");
  const auto workload = query::RandomWorkload(t->schema(), 100, &rng);
  const double sanity = query::UsCensusSanityBound(8000);
  auto eval = query::EvaluateWorkload(*t, est, workload, sanity);
  ASSERT_TRUE(eval.ok());
  // "Answer 0 always" would give RE ~1 for every non-trivial query;
  // DPCopula must do clearly better on average.
  EXPECT_LT(eval->mean_relative_error, 0.9);
}

TEST(IntegrationTest, EightDimensionalLargeDomainEndToEnd) {
  // The headline capability: 8 attributes with domain 1000 (10^24 cells).
  Rng rng(803);
  std::vector<data::MarginSpec> specs;
  for (int j = 0; j < 8; ++j) {
    specs.push_back(data::MarginSpec::Gaussian(
        std::string("x").append(std::to_string(j)), 1000));
  }
  auto t = data::GenerateGaussianDependent(
      specs, data::Ar1Correlation(8, 0.5), 5000, &rng);
  ASSERT_TRUE(t.ok());
  core::DpCopulaOptions opts;
  opts.epsilon = 1.0;
  auto res = core::Synthesize(*t, opts, &rng);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->synthetic.Validate().ok());
  EXPECT_EQ(res->synthetic.num_columns(), 8u);
  // Dense-histogram baselines must refuse this domain.
  EXPECT_FALSE(baselines::PriveletMechanism::Release(*t, 1.0, &rng).ok());
  EXPECT_FALSE(baselines::PhpMechanism::Release(*t, 1.0, &rng).ok());
  // PSD still works.
  EXPECT_TRUE(baselines::PsdTree::Build(*t, 1.0, &rng).ok());
}

TEST(IntegrationTest, SyntheticDataPreservesPairwiseDependenceStructure) {
  Rng rng(805);
  std::vector<data::MarginSpec> specs;
  for (int j = 0; j < 4; ++j) {
    specs.push_back(data::MarginSpec::Gaussian(
        std::string("x").append(std::to_string(j)), 500));
  }
  auto t = data::GenerateGaussianDependent(
      specs, data::Ar1Correlation(4, 0.7), 20000, &rng);
  ASSERT_TRUE(t.ok());
  core::DpCopulaOptions opts;
  opts.epsilon = 20.0;  // Low noise so structure is testable.
  opts.kendall.subsample = false;
  auto res = core::Synthesize(*t, opts, &rng);
  ASSERT_TRUE(res.ok());
  // Adjacent pairs should stay more dependent than distant pairs.
  auto tau01 =
      stats::KendallTau(res->synthetic.column(0), res->synthetic.column(1));
  auto tau03 =
      stats::KendallTau(res->synthetic.column(0), res->synthetic.column(3));
  ASSERT_TRUE(tau01.ok());
  ASSERT_TRUE(tau03.ok());
  EXPECT_GT(*tau01, *tau03 + 0.1);
}

TEST(IntegrationTest, SkewedMarginsSurviveSynthesis) {
  Rng rng(807);
  std::vector<data::MarginSpec> specs = {
      data::MarginSpec::Zipf("z", 500, 1.2),
      data::MarginSpec::Gaussian("g", 500)};
  auto t = data::GenerateGaussianDependent(
      specs, *data::Equicorrelation(2, 0.4), 20000, &rng);
  ASSERT_TRUE(t.ok());
  core::DpCopulaOptions opts;
  opts.epsilon = 10.0;
  auto res = core::Synthesize(*t, opts, &rng);
  ASSERT_TRUE(res.ok());
  // Zipf margin: value 0 dominates in both original and synthetic data.
  auto count_zero = [](const std::vector<double>& col) {
    double c = 0.0;
    for (double v : col) c += (v == 0.0) ? 1.0 : 0.0;
    return c / static_cast<double>(col.size());
  };
  const double orig_frac = count_zero(t->column(0));
  const double synth_frac = count_zero(res->synthetic.column(0));
  EXPECT_GT(orig_frac, 0.2);
  EXPECT_NEAR(synth_frac, orig_frac, 0.1);
}

}  // namespace
}  // namespace dpcopula
