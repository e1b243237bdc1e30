// Property suite for the PSD baseline: structural tree invariants, query
// consistency, and convergence to truth as the budget grows.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/psd.h"
#include "common/rng.h"
#include "data/generator.h"

namespace dpcopula::baselines {
namespace {

data::Table RandomTable(std::size_t n, std::size_t m, std::int64_t domain,
                        Rng* rng) {
  std::vector<data::MarginSpec> specs;
  for (std::size_t j = 0; j < m; ++j) {
    specs.push_back(data::MarginSpec::Gaussian(
        std::string("x").append(std::to_string(j)), domain));
  }
  return *data::GenerateGaussianDependent(
      specs, data::Ar1Correlation(m, 0.4), n, rng);
}

class PsdShapeTest : public ::testing::TestWithParam<int> {};

TEST_P(PsdShapeTest, HighBudgetQueriesTrackTruth) {
  Rng rng(static_cast<std::uint64_t>(4000 + GetParam()));
  const std::size_t m = 1 + static_cast<std::size_t>(GetParam()) % 4;
  const std::int64_t domain = 16 << (GetParam() % 3);  // 16 / 32 / 64.
  data::Table t = RandomTable(3000, m, domain, &rng);
  auto tree = PsdTree::Build(t, 50.0, &rng);
  ASSERT_TRUE(tree.ok());
  // Aggregate over a batch of queries: near-noiseless PSD must land close
  // to the truth on average (uniformity error only).
  double total_err = 0.0, total_truth = 0.0;
  for (int q = 0; q < 40; ++q) {
    std::vector<std::int64_t> lo(m), hi(m);
    std::vector<double> dlo(m), dhi(m);
    for (std::size_t j = 0; j < m; ++j) {
      std::int64_t a = rng.NextInt64InRange(0, domain - 1);
      std::int64_t b = rng.NextInt64InRange(0, domain - 1);
      if (a > b) std::swap(a, b);
      lo[j] = a;
      hi[j] = b;
      dlo[j] = static_cast<double>(a);
      dhi[j] = static_cast<double>(b);
    }
    const double truth = static_cast<double>(t.RangeCount(dlo, dhi));
    total_err += std::fabs((*tree)->EstimateRangeCount(lo, hi) - truth);
    total_truth += truth;
  }
  // At high budget the residual error is PSD's within-leaf uniformity
  // error, which grows with dimensionality (the depth-limited tree covers
  // an exponentially larger domain): allow a tighter bound in low m.
  const double factor = (m <= 2) ? 0.3 : 1.0;
  EXPECT_LT(total_err, factor * total_truth + 200.0)
      << "m=" << m << " domain=" << domain;
}

INSTANTIATE_TEST_SUITE_P(Shapes, PsdShapeTest, ::testing::Range(0, 12));

TEST(PsdPropertyTest, DisjointQueriesAddUpToUnion) {
  // The tree answers are additive for a partition of the domain along one
  // axis: sum of the halves equals the full-domain answer exactly (both
  // reduce to the same node counts).
  Rng rng(4101);
  data::Table t = RandomTable(2000, 2, 64, &rng);
  auto tree = PsdTree::Build(t, 1.0, &rng);
  ASSERT_TRUE(tree.ok());
  const double whole =
      (*tree)->EstimateRangeCount({0, 0}, {63, 63});
  const double left = (*tree)->EstimateRangeCount({0, 0}, {31, 63});
  const double right = (*tree)->EstimateRangeCount({32, 0}, {63, 63});
  // Not exactly equal in general (different node covers), but any gap
  // comes only from the uniformity interpolation of partially covered
  // leaves; with cuts at the tree's own split values the decomposition is
  // close.
  EXPECT_NEAR(left + right, whole, std::fabs(whole) * 0.25 + 50.0);
}

TEST(PsdPropertyTest, MonotoneInQueryExtent) {
  // Enlarging a query box can only increase a nonnegative-count estimate
  // when counts are nonnegative; noisy counts may be negative, so instead
  // check outer box vs inner box differ by at most the outer total.
  Rng rng(4103);
  data::Table t = RandomTable(2000, 2, 64, &rng);
  auto tree = PsdTree::Build(t, 20.0, &rng);
  ASSERT_TRUE(tree.ok());
  const double inner = (*tree)->EstimateRangeCount({16, 16}, {47, 47});
  const double outer = (*tree)->EstimateRangeCount({0, 0}, {63, 63});
  EXPECT_LT(inner, outer + 100.0);
  EXPECT_NEAR(outer, 2000.0, 100.0);
}

TEST(PsdPropertyTest, DepthZeroDataStillWorks) {
  // Degenerate: all records identical. Medians collapse; the tree must
  // still build and answer.
  Rng rng(4105);
  data::Table t{data::Schema({{"a", 8}, {"b", 8}})};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.AppendRow({3, 5}).ok());
  }
  auto tree = PsdTree::Build(t, 5.0, &rng);
  ASSERT_TRUE(tree.ok());
  // Point queries are smeared by the uniformity assumption (by design);
  // the full-domain total must still be right.
  EXPECT_NEAR((*tree)->EstimateRangeCount({0, 0}, {7, 7}), 100.0, 60.0);
  EXPECT_GE((*tree)->EstimateRangeCount({3, 5}, {3, 5}), 0.0);
}

TEST(PsdPropertyTest, SingleDimensionDomain) {
  Rng rng(4107);
  data::Table t = RandomTable(1000, 1, 64, &rng);
  auto tree = PsdTree::Build(t, 10.0, &rng);
  ASSERT_TRUE(tree.ok());
  const double total = (*tree)->EstimateRangeCount({0}, {63});
  EXPECT_NEAR(total, 1000.0, 100.0);
}

TEST(PsdPropertyTest, ErrorShrinksWithBudget) {
  Rng rng(4109);
  data::Table t = RandomTable(4000, 2, 64, &rng);
  auto workload_error = [&](double epsilon) {
    double err = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      auto tree = PsdTree::Build(t, epsilon, &rng);
      for (int q = 0; q < 20; ++q) {
        std::vector<std::int64_t> lo(2), hi(2);
        std::vector<double> dlo(2), dhi(2);
        Rng qrng(static_cast<std::uint64_t>(900 + q));  // Same queries.
        for (std::size_t j = 0; j < 2; ++j) {
          std::int64_t a = qrng.NextInt64InRange(0, 63);
          std::int64_t b = qrng.NextInt64InRange(0, 63);
          if (a > b) std::swap(a, b);
          lo[j] = a;
          hi[j] = b;
          dlo[j] = static_cast<double>(a);
          dhi[j] = static_cast<double>(b);
        }
        const double truth = static_cast<double>(t.RangeCount(dlo, dhi));
        err += std::fabs((*tree)->EstimateRangeCount(lo, hi) - truth);
      }
    }
    return err;
  };
  EXPECT_LT(workload_error(10.0), workload_error(0.05));
}

TEST(PsdPropertyTest, MedianBudgetFractionSweep) {
  // Any fraction in (0,1) must produce a working tree.
  Rng rng(4111);
  data::Table t = RandomTable(1000, 2, 32, &rng);
  for (double fraction : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    PsdOptions opts;
    opts.median_budget_fraction = fraction;
    auto tree = PsdTree::Build(t, 1.0, &rng, opts);
    ASSERT_TRUE(tree.ok()) << fraction;
    EXPECT_TRUE(std::isfinite(
        (*tree)->EstimateRangeCount({0, 0}, {31, 31})));
  }
}

}  // namespace
}  // namespace dpcopula::baselines
