// Estimator trade-off: DPCopula-Kendall vs DPCopula-MLE (§4.1 vs §4.2).
// Shows the two private correlation estimators side by side on the same
// data: estimated matrices, their distance to the true dependence, and
// wall-clock cost.
//
//   $ ./build/examples/estimator_tradeoff
#include <chrono>
#include <cstdio>

#include "common/rng.h"
#include "copula/kendall_estimator.h"
#include "copula/mle_estimator.h"
#include "data/generator.h"

int main() {
  using namespace dpcopula;  // NOLINT(build/namespaces) — example binary.

  Rng rng(11);
  const std::size_t m = 4;
  const linalg::Matrix truth = data::Ar1Correlation(m, 0.6);
  std::vector<data::MarginSpec> margins;
  for (std::size_t j = 0; j < m; ++j) {
    margins.push_back(data::MarginSpec::Gaussian(
        std::string("x").append(std::to_string(j)), 1000));
  }
  auto table = data::GenerateGaussianDependent(margins, truth, 100000, &rng);
  if (!table.ok()) return 1;

  std::printf("true correlation (AR(1), rho=0.6):\n%s\n",
              truth.ToString(3).c_str());

  for (double epsilon2 : {0.1, 1.0}) {
    std::printf("--- epsilon2 = %.1f ---\n", epsilon2);
    {
      auto start = std::chrono::steady_clock::now();
      auto est = copula::EstimateKendallCorrelation(*table, epsilon2, &rng);
      const double secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      if (!est.ok()) return 1;
      std::printf(
          "Kendall (subsampled to %lld rows, %.3f s, repaired=%s):\n%s",
          static_cast<long long>(est->rows_used), secs,
          est->repaired ? "yes" : "no",
          est->correlation.ToString(3).c_str());
      std::printf("  max |error| = %.3f\n\n",
                  est->correlation.MaxAbsDiff(truth));
    }
    {
      auto start = std::chrono::steady_clock::now();
      auto est = copula::EstimateMleCorrelation(*table, epsilon2, &rng);
      const double secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      if (!est.ok()) return 1;
      std::printf("MLE (%lld partitions of %lld rows, %.3f s):\n%s",
                  static_cast<long long>(est->num_partitions),
                  static_cast<long long>(est->rows_per_partition), secs,
                  est->correlation.ToString(3).c_str());
      std::printf("  max |error| = %.3f\n\n",
                  est->correlation.MaxAbsDiff(truth));
    }
  }
  std::printf(
      "takeaway (paper Fig. 6): Kendall's lower per-coefficient sensitivity "
      "4/(n+1) gives a more accurate private correlation matrix than the "
      "sample-and-aggregate MLE at equal budget.\n");
  return 0;
}
