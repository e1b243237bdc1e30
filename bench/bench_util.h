#ifndef DPCOPULA_BENCH_BENCH_UTIL_H_
#define DPCOPULA_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/range_estimator.h"
#include "common/rng.h"
#include "data/generator.h"
#include "data/table.h"
#include "query/evaluator.h"
#include "query/experiment_config.h"
#include "query/workload.h"

namespace dpcopula::bench {

/// Wall-clock stopwatch in seconds.
class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Prints the standard experiment banner: which figure/table, which profile.
inline void PrintBanner(const std::string& title,
                        const query::ExperimentConfig& cfg) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf(
      "profile=%s  n=%lld  queries/run=%zu  runs=%zu  seed=%llu  "
      "(DPCOPULA_BENCH_FULL=1 for paper scale)\n",
      cfg.ProfileName().c_str(), static_cast<long long>(cfg.num_tuples),
      cfg.queries_per_run, cfg.num_runs,
      static_cast<unsigned long long>(cfg.seed));
}

/// One row of a printed series: x value plus one y value per method.
inline void PrintSeriesHeader(const std::string& x_name,
                              const std::vector<std::string>& methods) {
  std::printf("%-14s", x_name.c_str());
  for (const auto& m : methods) std::printf("%16s", m.c_str());
  std::printf("\n");
}

inline void PrintSeriesRow(double x, const std::vector<double>& ys) {
  std::printf("%-14.4g", x);
  for (double y : ys) {
    if (std::isnan(y)) {
      std::printf("%16s", "n/a");
    } else {
      std::printf("%16.4g", y);
    }
  }
  std::printf("\n");
}

inline void PrintSeriesRowLabel(const std::string& x,
                                const std::vector<double>& ys) {
  std::printf("%-14s", x.c_str());
  for (double y : ys) {
    if (std::isnan(y)) {
      std::printf("%16s", "n/a");
    } else {
      std::printf("%16.4g", y);
    }
  }
  std::printf("\n");
}

/// Gaussian-margin synthetic table with AR(1) Gaussian dependence — the
/// default synthetic dataset of §5.4.
inline data::Table MakeGaussianTable(std::size_t n, std::size_t m,
                                     std::int64_t domain, Rng* rng) {
  std::vector<data::MarginSpec> specs;
  specs.reserve(m);
  for (std::size_t j = 0; j < m; ++j) {
    specs.push_back(data::MarginSpec::Gaussian(
        std::string("x").append(std::to_string(j)), domain));
  }
  return *data::GenerateGaussianDependent(specs, data::Ar1Correlation(m, 0.5),
                                          n, rng);
}

/// Coarsens every attribute of `table` by integer factors so the product
/// domain fits `max_cells` — the substitution that lets dense-histogram
/// baselines run on domains they could not otherwise materialize (noted in
/// bench output wherever used). Returns the coarsened table and per-column
/// factors.
struct CoarsenedTable {
  data::Table table;
  std::vector<std::int64_t> factors;
};

inline CoarsenedTable CoarsenTable(const data::Table& table,
                                   std::uint64_t max_cells) {
  const std::size_t m = table.num_columns();
  std::vector<std::int64_t> factors(m, 1);
  auto cells = [&]() {
    double prod = 1.0;
    for (std::size_t j = 0; j < m; ++j) {
      const auto d = table.schema().attribute(j).domain_size;
      prod *= std::ceil(static_cast<double>(d) /
                        static_cast<double>(factors[j]));
    }
    return prod;
  };
  // Repeatedly double the factor of the largest effective domain.
  while (cells() > static_cast<double>(max_cells)) {
    std::size_t worst = 0;
    double worst_domain = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      const double eff =
          std::ceil(static_cast<double>(
                        table.schema().attribute(j).domain_size) /
                    static_cast<double>(factors[j]));
      if (eff > worst_domain) {
        worst_domain = eff;
        worst = j;
      }
    }
    factors[worst] *= 2;
  }
  std::vector<data::Attribute> attrs;
  for (std::size_t j = 0; j < m; ++j) {
    const auto d = table.schema().attribute(j).domain_size;
    attrs.push_back({table.schema().attribute(j).name,
                     (d + factors[j] - 1) / factors[j]});
  }
  data::Table out = data::Table::Zeros(data::Schema(attrs), table.num_rows());
  for (std::size_t j = 0; j < m; ++j) {
    const auto& src = table.column(j);
    auto& dst = out.mutable_column(j);
    for (std::size_t r = 0; r < src.size(); ++r) {
      dst[r] = std::floor(src[r] / static_cast<double>(factors[j]));
    }
  }
  return {std::move(out), std::move(factors)};
}

/// Adapts an estimator built on a coarsened domain back to original-domain
/// queries by dividing the query bounds by the coarsening factors.
class CoarsenedEstimator : public baselines::RangeCountEstimator {
 public:
  CoarsenedEstimator(const baselines::RangeCountEstimator* inner,
                     std::vector<std::int64_t> factors)
      : inner_(inner), factors_(std::move(factors)) {}

  double EstimateRangeCount(const std::vector<std::int64_t>& lo,
                            const std::vector<std::int64_t>& hi) const override {
    std::vector<std::int64_t> clo(lo.size()), chi(hi.size());
    for (std::size_t j = 0; j < lo.size(); ++j) {
      clo[j] = lo[j] / factors_[j];
      chi[j] = hi[j] / factors_[j];
    }
    return inner_->EstimateRangeCount(clo, chi);
  }

  std::string name() const override { return inner_->name() + "(coarse)"; }

 private:
  const baselines::RangeCountEstimator* inner_;
  std::vector<std::int64_t> factors_;
};

}  // namespace dpcopula::bench

#endif  // DPCOPULA_BENCH_BENCH_UTIL_H_
