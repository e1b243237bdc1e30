// High-dimensional pipeline benchmark for ROADMAP item 2 (m = 100-500):
// estimate -> PSD repair -> Cholesky -> sample, swept over the attribute
// count m. The fixture keeps n small (64 rows, 8-value domains) and the
// Kendall budget tiny, so the noisy tau matrix is far from PSD and the
// m x m eigenvalue repair dominates at large m -- the regime this
// benchmark exists to track. Rows/sec is reported via SetItemsProcessed
// so `dpcopula_report ingest` extracts items_per_second into
// BENCH_highdim.json.
//
// The acceptance pair is BM_HighDimEstimateRepair_{TridiagQL,Jacobi}/200:
// the tridiagonal QL kernel must hold >= 5x the Jacobi kernel's rate on
// the m = 200 estimate->repair leg. Jacobi is not swept past m = 200
// (its per-solve cost is O(m^3) per sweep with a large constant; the
// m = 500 leg alone would dominate the bench-smoke wall clock).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "copula/kendall_estimator.h"
#include "copula/sampler.h"
#include "data/generator.h"
#include "data/table.h"
#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "stats/empirical_cdf.h"

namespace {

using dpcopula::Rng;
using dpcopula::copula::EstimateKendallCorrelation;
using dpcopula::copula::KendallEstimatorOptions;
using dpcopula::copula::SampleSyntheticData;
using dpcopula::linalg::EigenKernel;

constexpr std::size_t kRows = 64;
constexpr std::int64_t kDomain = 8;
// Tiny total budget: per-pair epsilon is kEpsilon2 / C(m,2), so the
// Laplace noise on each tau grows with m and the noisy matrix is
// strongly indefinite at every swept m -- repair always fires.
constexpr double kEpsilon2 = 0.5;
// Single thread, like the other hot-path acceptance configurations: the
// figure of merit is the eigensolver kernel, not pool scheduling.
constexpr int kThreads = 1;

struct Fixture {
  dpcopula::data::Table table;
  std::vector<dpcopula::stats::EmpiricalCdf> cdfs;
};

/// m equicorrelated (rho = 0.3) Gaussian-shaped marginals over 16-value
/// domains, plus skewed per-column CDFs for the sampling stage. Built
/// once per m and shared by every leg at that m.
const Fixture& GetFixture(std::size_t m) {
  static std::map<std::size_t, Fixture>* cache =
      new std::map<std::size_t, Fixture>();
  auto it = cache->find(m);
  if (it != cache->end()) return it->second;

  Rng rng(42);
  std::vector<dpcopula::data::MarginSpec> specs;
  specs.reserve(m);
  for (std::size_t j = 0; j < m; ++j) {
    std::string name = "a";
    name += std::to_string(j);
    specs.push_back(
        dpcopula::data::MarginSpec::Gaussian(std::move(name), kDomain));
  }
  auto corr = dpcopula::data::Equicorrelation(m, 0.3);
  Fixture fx{*dpcopula::data::GenerateGaussianDependent(specs, *corr, kRows,
                                                        &rng),
             {}};
  fx.cdfs.reserve(m);
  for (std::size_t j = 0; j < m; ++j) {
    std::vector<double> counts(static_cast<std::size_t>(kDomain));
    for (std::size_t v = 0; v < counts.size(); ++v) {
      counts[v] = (j % 2 == 0) ? static_cast<double>(v + 1)
                               : static_cast<double>(counts.size() - v);
    }
    fx.cdfs.push_back(*dpcopula::stats::EmpiricalCdf::FromCounts(counts));
  }
  return cache->emplace(m, std::move(fx)).first->second;
}

KendallEstimatorOptions PipelineOptions(EigenKernel kernel) {
  KendallEstimatorOptions options;
  options.subsample = false;  // n is already small; measure the full table.
  options.num_threads = kThreads;
  options.eigen_kernel = kernel;
  return options;
}

/// Full synthesis pipeline: DP Kendall estimation (repair included) ->
/// Cholesky factorization -> synthetic sampling at n rows.
void RunPipeline(benchmark::State& state, EigenKernel kernel) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const Fixture& fx = GetFixture(m);
  const KendallEstimatorOptions options = PipelineOptions(kernel);
  for (auto _ : state) {
    Rng rng(7);
    auto est = EstimateKendallCorrelation(fx.table, kEpsilon2, &rng, options);
    if (!est.ok()) {
      state.SkipWithError(est.status().ToString().c_str());
      break;
    }
    auto chol = dpcopula::linalg::CholeskyDecompose(est->correlation);
    if (!chol.ok()) {
      state.SkipWithError(chol.status().ToString().c_str());
      break;
    }
    auto rows = SampleSyntheticData(fx.table.schema(), fx.cdfs,
                                    est->correlation, kRows, &rng, kThreads);
    if (!rows.ok()) {
      state.SkipWithError(rows.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRows));
}

/// Estimation + repair only -- the acceptance leg comparing the two
/// eigensolver kernels on identical noisy input.
void RunEstimateRepair(benchmark::State& state, EigenKernel kernel) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const Fixture& fx = GetFixture(m);
  const KendallEstimatorOptions options = PipelineOptions(kernel);
  for (auto _ : state) {
    Rng rng(7);
    auto est = EstimateKendallCorrelation(fx.table, kEpsilon2, &rng, options);
    if (!est.ok()) {
      state.SkipWithError(est.status().ToString().c_str());
      break;
    }
    if (!est->repaired) {
      state.SkipWithError("PSD repair did not fire; fixture noise too low");
      break;
    }
    benchmark::DoNotOptimize(est);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRows));
}

void BM_HighDimPipeline_TridiagQL(benchmark::State& state) {
  RunPipeline(state, EigenKernel::kTridiagQL);
}
BENCHMARK(BM_HighDimPipeline_TridiagQL)
    ->Arg(10)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Arg(500)
    ->Unit(benchmark::kMillisecond);

void BM_HighDimPipeline_Jacobi(benchmark::State& state) {
  RunPipeline(state, EigenKernel::kJacobi);
}
BENCHMARK(BM_HighDimPipeline_Jacobi)
    ->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_HighDimEstimateRepair_TridiagQL(benchmark::State& state) {
  RunEstimateRepair(state, EigenKernel::kTridiagQL);
}
BENCHMARK(BM_HighDimEstimateRepair_TridiagQL)
    ->Arg(100)
    ->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_HighDimEstimateRepair_Jacobi(benchmark::State& state) {
  RunEstimateRepair(state, EigenKernel::kJacobi);
}
BENCHMARK(BM_HighDimEstimateRepair_Jacobi)
    ->Arg(100)
    ->Arg(200)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
