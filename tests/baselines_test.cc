#include <gtest/gtest.h>

#include <cmath>

#include "baselines/barak.h"
#include "baselines/dpcube.h"
#include "baselines/filter_priority.h"
#include "baselines/grids.h"
#include "baselines/php.h"
#include "baselines/privelet.h"
#include "baselines/psd.h"
#include "baselines/range_estimator.h"
#include "common/rng.h"
#include "data/generator.h"

namespace dpcopula::baselines {
namespace {

data::Table MakeData(std::size_t n, std::size_t m, Rng* rng,
                     std::int64_t domain = 64) {
  std::vector<data::MarginSpec> specs;
  for (std::size_t j = 0; j < m; ++j) {
    specs.push_back(data::MarginSpec::Gaussian(
        std::string("x").append(std::to_string(j)), domain));
  }
  auto corr = data::Equicorrelation(m, 0.3);
  return *data::GenerateGaussianDependent(specs, *corr, n, rng);
}

std::vector<std::int64_t> FullLo(std::size_t m) {
  return std::vector<std::int64_t>(m, 0);
}
std::vector<std::int64_t> FullHi(const data::Table& t) {
  std::vector<std::int64_t> hi(t.num_columns());
  for (std::size_t j = 0; j < hi.size(); ++j) {
    hi[j] = t.schema().attribute(j).domain_size - 1;
  }
  return hi;
}

TEST(TableEstimatorTest, CountsExactly) {
  Rng rng(301);
  data::Table t = MakeData(500, 2, &rng);
  TableEstimator est(t, "exact");
  EXPECT_DOUBLE_EQ(est.EstimateRangeCount(FullLo(2), FullHi(t)), 500.0);
  EXPECT_EQ(est.name(), "exact");
}

TEST(PsdTest, BuildsAndCountsTotal) {
  Rng rng(303);
  data::Table t = MakeData(2000, 2, &rng);
  auto tree = PsdTree::Build(t, 10.0, &rng);
  ASSERT_TRUE(tree.ok());
  EXPECT_GT((*tree)->num_nodes(), 1u);
  const double total =
      (*tree)->EstimateRangeCount(FullLo(2), FullHi(t));
  EXPECT_NEAR(total, 2000.0, 50.0);
}

TEST(PsdTest, AccurateOnLargeBudget) {
  Rng rng(305);
  data::Table t = MakeData(5000, 2, &rng);
  auto tree = PsdTree::Build(t, 20.0, &rng);
  ASSERT_TRUE(tree.ok());
  // A handful of half-domain queries should be within a few percent.
  for (int q = 0; q < 5; ++q) {
    std::vector<std::int64_t> lo = {0, 0};
    std::vector<std::int64_t> hi = {31 + q, 63};
    std::vector<double> dlo(lo.begin(), lo.end());
    std::vector<double> dhi(hi.begin(), hi.end());
    const double truth = static_cast<double>(t.RangeCount(dlo, dhi));
    const double est = (*tree)->EstimateRangeCount(lo, hi);
    EXPECT_NEAR(est, truth, std::max(100.0, 0.1 * truth)) << "q=" << q;
  }
}

TEST(PsdTest, DisjointQueryReturnsZero) {
  Rng rng(307);
  data::Table t = MakeData(100, 2, &rng, 8);
  auto tree = PsdTree::Build(t, 1.0, &rng);
  ASSERT_TRUE(tree.ok());
  // Query outside the domain box intersects nothing.
  EXPECT_DOUBLE_EQ((*tree)->EstimateRangeCount({100, 100}, {200, 200}), 0.0);
}

TEST(PsdTest, WorksOnHugeDomainsWithoutHistogram) {
  // The core PSD property: 8 dimensions x domain 1000 (10^24 cells) is
  // impossible for histogram methods but fine for PSD.
  Rng rng(309);
  data::Table t = MakeData(500, 8, &rng, 1000);
  auto tree = PsdTree::Build(t, 1.0, &rng);
  ASSERT_TRUE(tree.ok());
  const double total = (*tree)->EstimateRangeCount(FullLo(8), FullHi(t));
  EXPECT_NEAR(total, 500.0, 200.0);
}

TEST(PsdTest, ValidatesInput) {
  Rng rng(311);
  data::Table t = MakeData(100, 2, &rng);
  EXPECT_FALSE(PsdTree::Build(t, 0.0, &rng).ok());
  PsdOptions opts;
  opts.median_budget_fraction = 1.0;
  EXPECT_FALSE(PsdTree::Build(t, 1.0, &rng, opts).ok());
}

TEST(PsdTest, RespectsDepthOption) {
  Rng rng(313);
  data::Table t = MakeData(1000, 2, &rng);
  PsdOptions opts;
  opts.depth = 3;
  auto tree = PsdTree::Build(t, 1.0, &rng, opts);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ((*tree)->depth(), 3);
  // A complete binary tree of depth 3 has at most 15 nodes.
  EXPECT_LE((*tree)->num_nodes(), 15u);
}

TEST(PriveletTest, SensitivityFormula) {
  // L = 0: only the scaling coefficient => 1.
  EXPECT_NEAR(PriveletMechanism::HaarL1Sensitivity(1), 1.0, 1e-12);
  // L = 1: 2^{-1/2} + 2^{-1/2} = sqrt(2).
  EXPECT_NEAR(PriveletMechanism::HaarL1Sensitivity(2), std::sqrt(2.0), 1e-12);
  // Monotone growth, bounded by 1/(sqrt(2)-1) + eps.
  double prev = 0.0;
  for (std::size_t n = 1; n <= 1 << 16; n <<= 1) {
    const double d = PriveletMechanism::HaarL1Sensitivity(n);
    EXPECT_GE(d, prev - 1e-12);
    EXPECT_LT(d, 1.0 / (std::sqrt(2.0) - 1.0) + 1.0);
    prev = d;
  }
}

TEST(PriveletTest, UnbiasedAndAccurateAtHighBudget) {
  Rng rng(315);
  data::Table t = MakeData(3000, 2, &rng, 32);
  auto est = PriveletMechanism::Release(t, 20.0, &rng);
  ASSERT_TRUE(est.ok());
  const double total = (*est)->EstimateRangeCount(FullLo(2), FullHi(t));
  EXPECT_NEAR(total, 3000.0, 60.0);
}

TEST(PriveletTest, RangeQueriesSeeSubLinearNoise) {
  // The wavelet property: error of a large range query grows polylog, not
  // linearly, in the range size. Compare against per-cell Laplace (Dwork)
  // noise which grows as sqrt(|range|).
  Rng rng(317);
  data::Table t = MakeData(0, 1, &rng, 1024);  // Empty data: pure noise.
  auto est = PriveletMechanism::Release(t, 1.0, &rng);
  ASSERT_TRUE(est.ok());
  double err_full = 0.0;
  for (int rep = 0; rep < 30; ++rep) {
    Rng rep_rng(static_cast<std::uint64_t>(400 + rep));
    auto rep_est = PriveletMechanism::Release(t, 1.0, &rep_rng);
    ASSERT_TRUE(rep_est.ok());
    err_full +=
        std::fabs((*rep_est)->EstimateRangeCount({0}, {1023}));
  }
  err_full /= 30.0;
  // Dwork noise on 1024 cells: sum of 1024 Lap(1) ~ E|sum| ≈ sqrt(2/pi) *
  // sqrt(2*1024) ≈ 36. Privelet's full-domain query touches only the
  // scaling coefficient chain => error should be far below that.
  EXPECT_LT(err_full, 20.0);
}

TEST(PriveletTest, HugeDomainRejected) {
  Rng rng(319);
  data::Table t = MakeData(10, 4, &rng, 1000);  // 10^12 cells.
  EXPECT_EQ(PsdTree::Build(t, 1.0, &rng).ok(), true);  // PSD fine.
  EXPECT_EQ(PriveletMechanism::Release(t, 1.0, &rng).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(FilterPriorityTest, SummarySizeControlled) {
  Rng rng(321);
  data::Table t = MakeData(2000, 2, &rng, 1000);  // Sparse in 10^6 cells.
  FilterPriorityOptions opts;
  opts.size_factor = 2.0;
  auto fp = FilterPrioritySummary::Build(t, 1.0, &rng, opts);
  ASSERT_TRUE(fp.ok());
  // Summary should be within a small factor of the target, not the domain.
  EXPECT_LT((*fp)->summary_size(), 20000u);
  EXPECT_GT((*fp)->summary_size(), 100u);
  EXPECT_GT((*fp)->threshold(), 0.0);
}

TEST(FilterPriorityTest, TotalCountRoughlyPreservedAtHighBudget) {
  Rng rng(323);
  data::Table t = MakeData(3000, 2, &rng, 100);
  auto fp = FilterPrioritySummary::Build(t, 5.0, &rng);
  ASSERT_TRUE(fp.ok());
  const double total = (*fp)->EstimateRangeCount(FullLo(2), FullHi(t));
  // Thresholding biases the total upward (kept cells) and drops small
  // cells; allow a generous band but require the right order of magnitude.
  EXPECT_GT(total, 1500.0);
  EXPECT_LT(total, 6000.0);
}

TEST(FilterPriorityTest, ValidatesInput) {
  Rng rng(325);
  data::Table t = MakeData(100, 2, &rng);
  EXPECT_FALSE(FilterPrioritySummary::Build(t, 0.0, &rng).ok());
}

TEST(FilterPriorityTest, AllValuesNonNegative) {
  Rng rng(327);
  data::Table t = MakeData(500, 2, &rng, 50);
  auto fp = FilterPrioritySummary::Build(t, 0.5, &rng);
  ASSERT_TRUE(fp.ok());
  // Any sub-range estimate is a sum of non-negative retained cells.
  EXPECT_GE((*fp)->EstimateRangeCount({0, 0}, {10, 10}), 0.0);
}

TEST(PhpTest, ReconstructsTotalMass) {
  Rng rng(329);
  data::Table t = MakeData(2000, 2, &rng, 32);
  auto est = PhpMechanism::Release(t, 5.0, &rng);
  ASSERT_TRUE(est.ok());
  const double total = (*est)->EstimateRangeCount(FullLo(2), FullHi(t));
  EXPECT_NEAR(total, 2000.0, 200.0);
}

TEST(PhpTest, SmoothRegionsWellApproximated) {
  Rng rng(331);
  // Uniform data: a few buckets suffice, so P-HP should do very well.
  std::vector<data::MarginSpec> specs = {data::MarginSpec::Uniform("u", 256)};
  auto t = data::GenerateGaussianDependent(
      specs, linalg::Matrix::Identity(1), 5000, &rng);
  ASSERT_TRUE(t.ok());
  auto est = PhpMechanism::Release(*t, 1.0, &rng);
  ASSERT_TRUE(est.ok());
  const double half = (*est)->EstimateRangeCount({0}, {127});
  EXPECT_NEAR(half, 2500.0, 300.0);
}

TEST(PhpTest, ValidatesInput) {
  Rng rng(333);
  data::Table t = MakeData(100, 2, &rng);
  EXPECT_FALSE(PhpMechanism::Release(t, 0.0, &rng).ok());
  PhpOptions opts;
  opts.structure_budget_fraction = 0.0;
  EXPECT_FALSE(PhpMechanism::Release(t, 1.0, &rng, opts).ok());
}

TEST(PhpTest, HugeDomainRejected) {
  Rng rng(335);
  data::Table t = MakeData(10, 4, &rng, 1000);
  EXPECT_EQ(PhpMechanism::Release(t, 1.0, &rng).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(DpCubeTest, ReconstructsTotalMass) {
  Rng rng(341);
  data::Table t = MakeData(2000, 2, &rng, 32);
  auto est = DpCubeMechanism::Release(t, 5.0, &rng);
  ASSERT_TRUE(est.ok());
  const double total = (*est)->EstimateRangeCount(FullLo(2), FullHi(t));
  EXPECT_NEAR(total, 2000.0, 200.0);
}

TEST(DpCubeTest, UniformRegionsCollapseToFewPartitions) {
  Rng rng(343);
  // Uniform data: the split test should stop early, and half-domain
  // queries should be accurate thanks to the phase-2 refresh.
  std::vector<data::MarginSpec> specs = {data::MarginSpec::Uniform("u", 64)};
  auto t = data::GenerateGaussianDependent(
      specs, linalg::Matrix::Identity(1), 4000, &rng);
  ASSERT_TRUE(t.ok());
  auto est = DpCubeMechanism::Release(*t, 1.0, &rng);
  ASSERT_TRUE(est.ok());
  const double half = (*est)->EstimateRangeCount({0}, {31});
  EXPECT_NEAR(half, 2000.0, 300.0);
}

TEST(DpCubeTest, ValidatesInput) {
  Rng rng(347);
  data::Table t = MakeData(100, 2, &rng);
  EXPECT_FALSE(DpCubeMechanism::Release(t, 0.0, &rng).ok());
}

TEST(DpCubeTest, HugeDomainRejected) {
  Rng rng(349);
  data::Table t = MakeData(10, 4, &rng, 1000);
  EXPECT_EQ(DpCubeMechanism::Release(t, 1.0, &rng).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(DpCubeTest, ComparableToPsdOn2D) {
  // The paper's claim from [9]: DPCube and PSD are comparable. Check they
  // land within a generous factor of each other on 2-D data.
  Rng rng(353);
  data::Table t = MakeData(4000, 2, &rng, 64);
  double cube_err = 0.0, psd_err = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    auto cube = DpCubeMechanism::Release(t, 1.0, &rng);
    auto psd = PsdTree::Build(t, 1.0, &rng);
    ASSERT_TRUE(cube.ok());
    ASSERT_TRUE(psd.ok());
    for (int q = 0; q < 20; ++q) {
      std::vector<std::int64_t> lo(2), hi(2);
      for (std::size_t j = 0; j < 2; ++j) {
        std::int64_t a = rng.NextInt64InRange(0, 63);
        std::int64_t b = rng.NextInt64InRange(0, 63);
        if (a > b) std::swap(a, b);
        lo[j] = a;
        hi[j] = b;
      }
      std::vector<double> dlo(lo.begin(), lo.end());
      std::vector<double> dhi(hi.begin(), hi.end());
      const double truth = static_cast<double>(t.RangeCount(dlo, dhi));
      cube_err += std::fabs((*cube)->EstimateRangeCount(lo, hi) - truth);
      psd_err += std::fabs((*psd)->EstimateRangeCount(lo, hi) - truth);
    }
  }
  EXPECT_LT(cube_err, 5.0 * psd_err);
  EXPECT_LT(psd_err, 5.0 * cube_err);
}

data::Table BinaryTable(std::size_t m, std::size_t n, Rng* rng) {
  std::vector<data::MarginSpec> specs;
  for (std::size_t j = 0; j < m; ++j) {
    specs.push_back(data::MarginSpec::Bernoulli(
        std::string("b").append(std::to_string(j)),
        0.3 + 0.05 * static_cast<double>(j)));
  }
  auto corr = data::Equicorrelation(m, 0.3);
  return *data::GenerateGaussianDependent(specs, *corr, n, rng);
}

TEST(BarakTest, WalshHadamardSelfInverseAndParseval) {
  Rng rng(381);
  std::vector<double> x(64);
  for (double& v : x) v = rng.NextGaussian();
  std::vector<double> t = x;
  BarakMechanism::WalshHadamard(&t);
  double ex = 0.0, et = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    ex += x[i] * x[i];
    et += t[i] * t[i];
  }
  EXPECT_NEAR(ex, et, 1e-9);
  BarakMechanism::WalshHadamard(&t);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(t[i], x[i], 1e-9);
  }
}

TEST(BarakTest, RetainedCoefficientCount) {
  // C(5,0)+C(5,1)+C(5,2) = 1+5+10.
  EXPECT_EQ(BarakMechanism::NumRetainedCoefficients(5, 2), 16u);
  EXPECT_EQ(BarakMechanism::NumRetainedCoefficients(3, 3), 8u);
  EXPECT_EQ(BarakMechanism::NumRetainedCoefficients(10, 0), 1u);
}

TEST(BarakTest, ValidatesInput) {
  Rng rng(383);
  data::Table binary = BinaryTable(3, 50, &rng);
  EXPECT_FALSE(BarakMechanism::Release(binary, 0.0, &rng).ok());
  data::Table wide = MakeData(50, 2, &rng, 8);  // Non-binary domains.
  EXPECT_FALSE(BarakMechanism::Release(wide, 1.0, &rng).ok());
}

TEST(BarakTest, PreservesLowOrderMarginalsAtHighBudget) {
  Rng rng(387);
  data::Table t = BinaryTable(5, 4000, &rng);
  BarakOptions opts;
  opts.order = 2;
  auto est = BarakMechanism::Release(t, 20.0, &rng, opts);
  ASSERT_TRUE(est.ok());
  // 1-way marginals: P(b_j = 1) must match.
  for (std::size_t j = 0; j < 5; ++j) {
    std::vector<std::int64_t> lo(5, 0), hi(5, 1);
    lo[j] = 1;
    double truth = 0.0;
    for (double v : t.column(j)) truth += v;
    EXPECT_NEAR((*est)->EstimateRangeCount(lo, hi), truth, 150.0)
        << "attr " << j;
  }
  // A 2-way marginal cell.
  std::vector<std::int64_t> lo(5, 0), hi(5, 1);
  lo[0] = 1;
  lo[1] = 1;
  std::vector<double> dlo(lo.begin(), lo.end());
  std::vector<double> dhi(hi.begin(), hi.end());
  const double truth = static_cast<double>(t.RangeCount(dlo, dhi));
  EXPECT_NEAR((*est)->EstimateRangeCount(lo, hi), truth, 200.0);
}

TEST(BarakTest, TotalMassPreserved) {
  Rng rng(389);
  data::Table t = BinaryTable(4, 2000, &rng);
  auto est = BarakMechanism::Release(t, 2.0, &rng);
  ASSERT_TRUE(est.ok());
  const double total = (*est)->EstimateRangeCount(
      std::vector<std::int64_t>(4, 0), std::vector<std::int64_t>(4, 1));
  EXPECT_NEAR(total, 2000.0, 300.0);
}

TEST(UniformGridTest, Requires2D) {
  Rng rng(361);
  data::Table t3 = MakeData(100, 3, &rng);
  EXPECT_FALSE(UniformGrid::Build(t3, 1.0, &rng).ok());
  data::Table t2 = MakeData(100, 2, &rng);
  EXPECT_FALSE(UniformGrid::Build(t2, 0.0, &rng).ok());
}

TEST(UniformGridTest, GranularityGrowsWithDataAndBudget) {
  Rng rng(363);
  data::Table small = MakeData(100, 2, &rng, 1000);
  data::Table large = MakeData(10000, 2, &rng, 1000);
  auto g_small = UniformGrid::Build(small, 1.0, &rng);
  auto g_large = UniformGrid::Build(large, 1.0, &rng);
  ASSERT_TRUE(g_small.ok());
  ASSERT_TRUE(g_large.ok());
  EXPECT_GT((*g_large)->granularity_x(), (*g_small)->granularity_x());
}

TEST(UniformGridTest, TotalMassPreserved) {
  Rng rng(367);
  data::Table t = MakeData(5000, 2, &rng, 256);
  auto grid = UniformGrid::Build(t, 5.0, &rng);
  ASSERT_TRUE(grid.ok());
  const double total = (*grid)->EstimateRangeCount({0, 0}, {255, 255});
  EXPECT_NEAR(total, 5000.0, 300.0);
}

TEST(UniformGridTest, HalfDomainAccurate) {
  Rng rng(369);
  std::vector<data::MarginSpec> specs = {
      data::MarginSpec::Uniform("x", 256),
      data::MarginSpec::Uniform("y", 256)};
  auto t = data::GenerateGaussianDependent(
      specs, linalg::Matrix::Identity(2), 8000, &rng);
  ASSERT_TRUE(t.ok());
  auto grid = UniformGrid::Build(*t, 1.0, &rng);
  ASSERT_TRUE(grid.ok());
  EXPECT_NEAR((*grid)->EstimateRangeCount({0, 0}, {127, 255}), 4000.0,
              400.0);
}

TEST(AdaptiveGridTest, BuildsAndAnswers) {
  Rng rng(371);
  data::Table t = MakeData(5000, 2, &rng, 256);
  auto ag = AdaptiveGrid::Build(t, 2.0, &rng);
  ASSERT_TRUE(ag.ok());
  EXPECT_GT((*ag)->num_level2_regions(), 0u);
  const double total = (*ag)->EstimateRangeCount({0, 0}, {255, 255});
  EXPECT_NEAR(total, 5000.0, 500.0);
}

TEST(AdaptiveGridTest, ValidatesOptions) {
  Rng rng(373);
  data::Table t = MakeData(100, 2, &rng);
  AdaptiveGridOptions opts;
  opts.alpha = 1.0;
  EXPECT_FALSE(AdaptiveGrid::Build(t, 1.0, &rng, opts).ok());
  EXPECT_FALSE(AdaptiveGrid::Build(t, 0.0, &rng).ok());
}

TEST(AdaptiveGridTest, DenseRegionsGetFinerSubgrids) {
  // Clustered data: AG should be at least roughly as accurate as UG on
  // cluster-aligned queries at equal budget (its adaptive refinement is the
  // whole point). Averaged over repetitions.
  Rng rng(379);
  std::vector<data::MarginSpec> specs = {
      data::MarginSpec::Gaussian("x", 512),
      data::MarginSpec::Gaussian("y", 512)};
  auto t = data::GenerateGaussianDependent(
      specs, *data::Equicorrelation(2, 0.5), 10000, &rng);
  ASSERT_TRUE(t.ok());
  double ug_err = 0.0, ag_err = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    auto ug = UniformGrid::Build(*t, 0.5, &rng);
    auto ag = AdaptiveGrid::Build(*t, 0.5, &rng);
    ASSERT_TRUE(ug.ok());
    ASSERT_TRUE(ag.ok());
    for (int q = 0; q < 40; ++q) {
      std::vector<std::int64_t> lo(2), hi(2);
      for (std::size_t j = 0; j < 2; ++j) {
        std::int64_t a = rng.NextInt64InRange(128, 383);
        std::int64_t b = rng.NextInt64InRange(128, 383);
        if (a > b) std::swap(a, b);
        lo[j] = a;
        hi[j] = b;
      }
      std::vector<double> dlo(lo.begin(), lo.end());
      std::vector<double> dhi(hi.begin(), hi.end());
      const double truth = static_cast<double>(t->RangeCount(dlo, dhi));
      ug_err += std::fabs((*ug)->EstimateRangeCount(lo, hi) - truth);
      ag_err += std::fabs((*ag)->EstimateRangeCount(lo, hi) - truth);
    }
  }
  EXPECT_LT(ag_err, 2.0 * ug_err);  // Comparable or better.
}

class BaselineEpsilonSweep : public ::testing::TestWithParam<double> {};

TEST_P(BaselineEpsilonSweep, AllMechanismsProduceFiniteAnswers) {
  Rng rng(337);
  const double eps = GetParam();
  data::Table t = MakeData(800, 2, &rng, 32);
  auto psd = PsdTree::Build(t, eps, &rng);
  auto pvl = PriveletMechanism::Release(t, eps, &rng);
  auto fp = FilterPrioritySummary::Build(t, eps, &rng);
  auto php = PhpMechanism::Release(t, eps, &rng);
  ASSERT_TRUE(psd.ok());
  ASSERT_TRUE(pvl.ok());
  ASSERT_TRUE(fp.ok());
  ASSERT_TRUE(php.ok());
  const auto lo = FullLo(2);
  const auto hi = FullHi(t);
  EXPECT_TRUE(std::isfinite((*psd)->EstimateRangeCount(lo, hi)));
  EXPECT_TRUE(std::isfinite((*pvl)->EstimateRangeCount(lo, hi)));
  EXPECT_TRUE(std::isfinite((*fp)->EstimateRangeCount(lo, hi)));
  EXPECT_TRUE(std::isfinite((*php)->EstimateRangeCount(lo, hi)));
}

INSTANTIATE_TEST_SUITE_P(Budgets, BaselineEpsilonSweep,
                         ::testing::Values(0.05, 0.1, 0.5, 1.0));

}  // namespace
}  // namespace dpcopula::baselines
