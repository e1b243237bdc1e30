// Hot-path benchmark for DPCopula-Kendall estimation (Alg. 4/5): the
// legacy one-comparator-sort-per-pair kernel (the Knight's-algorithm
// reference estimator in tests/reference) against the rank-cache
// production kernel (per-column rank structures built once; contingency
// table or counting-sort + merge-count per pair, reusable per-thread
// workspaces). Rows/sec is reported via SetItemsProcessed, the figure
// `dpcopula_report ingest` extracts into BENCH_kendall.json.
// The acceptance configuration is m = 10, N = 1M, single thread: the
// rank-cache kernel must hold >= 3x the legacy kernel's rows/sec.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.h"
#include "copula/kendall_estimator.h"
#include "data/generator.h"
#include "data/table.h"
#include "reference/kendall.h"
#include "stats/kendall.h"

namespace {

using dpcopula::Rng;
using dpcopula::copula::EstimateKendallCorrelation;
using dpcopula::copula::KendallEstimatorOptions;
using dpcopula::reference::EstimateKendallCorrelationKnight;

constexpr std::size_t kRows = 1'000'000;
constexpr std::size_t kDims = 10;
// Discrete fixture: 64-value domains — every pair lands on the
// contingency kernel (64 * 64 cells << 2n), the common case for the
// paper's census-style attributes.
constexpr std::int64_t kDomain = 64;
// Wide fixture: 1M-value domains make nearly every value distinct, so
// every pair falls back to the counting-sort + merge-count kernel.
constexpr std::int64_t kWideDomain = 1'000'000;

/// m equicorrelated (rho = 0.4) Gaussian-shaped discrete marginals — the
/// same shape bench_sampler_hot uses. Built once per domain and shared by
/// every benchmark (generation at N = 1M is itself seconds of work).
const dpcopula::data::Table& Fixture(std::int64_t domain) {
  auto make = [](std::int64_t d) {
    Rng rng(42);
    std::vector<dpcopula::data::MarginSpec> specs;
    specs.reserve(kDims);
    for (std::size_t j = 0; j < kDims; ++j) {
      specs.push_back(dpcopula::data::MarginSpec::Gaussian(
          std::string("a").append(std::to_string(j)), d));
    }
    auto corr = dpcopula::data::Equicorrelation(kDims, 0.4);
    return *dpcopula::data::GenerateGaussianDependent(specs, *corr, kRows,
                                                      &rng);
  };
  static const dpcopula::data::Table* discrete =
      new dpcopula::data::Table(make(kDomain));
  static const dpcopula::data::Table* wide =
      new dpcopula::data::Table(make(kWideDomain));
  return domain == kDomain ? *discrete : *wide;
}

void RunEstimator(benchmark::State& state, std::int64_t domain,
                  auto* estimate, int threads) {
  const auto& table = Fixture(domain);
  KendallEstimatorOptions options;
  options.subsample = false;  // Measure the full-n estimation cost.
  options.num_threads = threads;
  for (auto _ : state) {
    Rng rng(7);
    auto est = estimate(table, 1.0, &rng, options);
    if (!est.ok()) state.SkipWithError(est.status().ToString().c_str());
    benchmark::DoNotOptimize(est);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRows));
}

void BM_KendallHot_Legacy(benchmark::State& state) {
  RunEstimator(state, kDomain, &EstimateKendallCorrelationKnight, 1);
}
BENCHMARK(BM_KendallHot_Legacy)->Unit(benchmark::kMillisecond);

void BM_KendallHot_RankCache(benchmark::State& state) {
  RunEstimator(state, kDomain, &EstimateKendallCorrelation,
               static_cast<int>(state.range(0)));
}
BENCHMARK(BM_KendallHot_RankCache)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_KendallHotWide_Legacy(benchmark::State& state) {
  RunEstimator(state, kWideDomain, &EstimateKendallCorrelationKnight, 1);
}
BENCHMARK(BM_KendallHotWide_Legacy)->Unit(benchmark::kMillisecond);

void BM_KendallHotWide_RankCache(benchmark::State& state) {
  RunEstimator(state, kWideDomain, &EstimateKendallCorrelation,
               static_cast<int>(state.range(0)));
}
BENCHMARK(BM_KendallHotWide_RankCache)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

// Micro views of the kernel stages at N = 1M: one rank-cache build and one
// pairwise tau through each pair kernel.
void BM_RankColumnBuild(benchmark::State& state) {
  const auto& table = Fixture(kDomain);
  for (auto _ : state) {
    auto col = dpcopula::stats::BuildRankColumn(table.column(0));
    benchmark::DoNotOptimize(col);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRows));
}
BENCHMARK(BM_RankColumnBuild)->Unit(benchmark::kMillisecond);

void BM_TauPair(benchmark::State& state) {
  const std::int64_t domain = state.range(0) == 0 ? kDomain : kWideDomain;
  const auto& table = Fixture(domain);
  const auto x = *dpcopula::stats::BuildRankColumn(table.column(0));
  const auto y = *dpcopula::stats::BuildRankColumn(table.column(1));
  dpcopula::stats::TauWorkspace ws;
  for (auto _ : state) {
    auto tau = dpcopula::stats::KendallTauFromRanks(x, y, &ws);
    benchmark::DoNotOptimize(tau);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRows));
}
BENCHMARK(BM_TauPair)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"wide"})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
