// Hot-path benchmark for Algorithm 3's sampling kernel: the legacy scalar
// pipeline (polar Gaussian + per-row triangular multiply + per-cell
// std::lower_bound inversion; the reference sampler in tests/reference)
// against the tiled production pipeline
// (ziggurat fill + blocked Cholesky + guide-table inversion). Rows/sec is
// reported via SetItemsProcessed, so google-benchmark's items_per_second
// field is the figure of merit that `dpcopula_report ingest` extracts
// into BENCH_sampler.json. The acceptance configuration is m = 10, N = 1M,
// single thread.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.h"
#include "copula/sampler.h"
#include "data/generator.h"
#include "data/schema.h"
#include "reference/rng.h"
#include "reference/sampler.h"
#include "stats/empirical_cdf.h"

namespace {

using dpcopula::Rng;
using dpcopula::copula::SampleSyntheticData;
using dpcopula::copula::SampleSyntheticDataT;

struct Fixture {
  dpcopula::data::Schema schema;
  std::vector<dpcopula::stats::EmpiricalCdf> cdfs;
  dpcopula::linalg::Matrix corr;
};

/// m skewed marginals over `domain` values, equicorrelated at 0.4 — the
/// same shape the paper's experiments use (non-uniform counts so the
/// inversion cannot degenerate to an affine map).
Fixture MakeFixture(std::size_t m, std::int64_t domain) {
  Fixture fx;
  std::vector<dpcopula::data::Attribute> attrs;
  attrs.reserve(m);
  for (std::size_t j = 0; j < m; ++j) {
    std::string name = "a";
    name += std::to_string(j);
    attrs.push_back({std::move(name), domain});
    std::vector<double> counts(static_cast<std::size_t>(domain));
    for (std::size_t v = 0; v < counts.size(); ++v) {
      counts[v] = (j % 2 == 0) ? static_cast<double>(v + 1)
                               : static_cast<double>(counts.size() - v);
    }
    fx.cdfs.push_back(*dpcopula::stats::EmpiricalCdf::FromCounts(counts));
  }
  fx.schema = dpcopula::data::Schema(attrs);
  fx.corr = *dpcopula::data::Equicorrelation(m, 0.4);
  return fx;
}

constexpr std::size_t kRows = 1'000'000;
constexpr std::size_t kDims = 10;
constexpr std::int64_t kDomain = 64;

void BM_SamplerHot_Legacy(benchmark::State& state) {
  const auto fx = MakeFixture(kDims, kDomain);
  for (auto _ : state) {
    Rng rng(42);
    auto out = dpcopula::reference::SampleSyntheticDataPerRow(
        fx.schema, fx.cdfs, fx.corr, kRows, &rng, 1);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRows));
}
BENCHMARK(BM_SamplerHot_Legacy)->Unit(benchmark::kMillisecond);

void BM_SamplerHot_Tiled(benchmark::State& state) {
  const auto fx = MakeFixture(kDims, kDomain);
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Rng rng(42);
    auto out = SampleSyntheticData(fx.schema, fx.cdfs, fx.corr, kRows, &rng,
                                   threads);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRows));
}
BENCHMARK(BM_SamplerHot_Tiled)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_SamplerHotT_Tiled(benchmark::State& state) {
  const auto fx = MakeFixture(kDims, kDomain);
  for (auto _ : state) {
    Rng rng(42);
    auto out = SampleSyntheticDataT(fx.schema, fx.cdfs, fx.corr, 6.0,
                                    kRows / 4, &rng, 1);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRows / 4));
}
BENCHMARK(BM_SamplerHotT_Tiled)->Unit(benchmark::kMillisecond);

// polar:0 is Rng's ziggurat, polar:1 the reference polar method.
void BM_GaussianDraw(benchmark::State& state) {
  Rng rng(7);
  dpcopula::reference::PolarGaussian polar(&rng);
  const bool use_polar = state.range(0) != 0;
  double acc = 0.0;
  for (auto _ : state) {
    acc += use_polar ? polar.Next() : rng.NextGaussian();
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GaussianDraw)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"polar"});

}  // namespace

BENCHMARK_MAIN();
