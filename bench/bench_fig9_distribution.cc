// Reproduces Figure 9: relative error vs epsilon for 8-D data with Gaussian
// dependence and margins drawn from (a) Gaussian, (b) uniform, and (c) zipf
// distributions. Paper findings: DPCopula beats PSD under every margin, the
// more so when margins are skewed; DPCopula does best on uniform/zipf
// because EFPA compresses those margins well.
#include <cstdio>

#include "baselines/psd.h"
#include "bench/bench_util.h"
#include "core/dpcopula.h"

using namespace dpcopula;  // NOLINT(build/namespaces) — bench binary.

namespace {

data::Table MakeTable(const std::string& family, std::size_t n, std::size_t m,
                      std::int64_t domain, Rng* rng) {
  std::vector<data::MarginSpec> specs;
  for (std::size_t j = 0; j < m; ++j) {
    const std::string name = std::string("x").append(std::to_string(j));
    if (family == "gaussian") {
      specs.push_back(data::MarginSpec::Gaussian(name, domain));
    } else if (family == "uniform") {
      specs.push_back(data::MarginSpec::Uniform(name, domain));
    } else {
      specs.push_back(data::MarginSpec::Zipf(name, domain, 1.0));
    }
  }
  return *data::GenerateGaussianDependent(specs, data::Ar1Correlation(m, 0.5),
                                          n, rng);
}

}  // namespace

int main() {
  auto cfg = query::ExperimentConfig::FromEnvironment();
  bench::PrintBanner(
      "Figure 9: relative error vs epsilon by marginal distribution (8D)",
      cfg);
  Rng master(cfg.seed);

  for (const std::string family : {"gaussian", "uniform", "zipf"}) {
    data::Table table =
        MakeTable(family, static_cast<std::size_t>(cfg.num_tuples),
                  cfg.num_dimensions, cfg.domain_size, &master);
    std::printf("\nmargins: %s\n", family.c_str());
    bench::PrintSeriesHeader("epsilon", {"DPCopula", "PSD"});
    for (double epsilon : {0.1, 0.25, 0.5, 0.75, 1.0}) {
      double dpc_total = 0.0, psd_total = 0.0;
      for (std::size_t run = 0; run < cfg.num_runs; ++run) {
        Rng rng = master.Split();
        const auto workload = query::RandomWorkload(
            table.schema(), cfg.queries_per_run, &rng);
        const auto truth = query::ComputeTrueAnswers(table, workload);
        core::DpCopulaOptions opts;
        opts.epsilon = epsilon;
        opts.budget_ratio_k = cfg.budget_ratio_k;
        auto res = core::Synthesize(table, opts, &rng);
        baselines::TableEstimator est(res->synthetic, "DPCopula");
        dpc_total += query::EvaluateWorkloadWithTruth(*truth, est, workload,
                                                      cfg.sanity_bound)
                         ->mean_relative_error;
        auto psd = baselines::PsdTree::Build(table, epsilon, &rng);
        psd_total += query::EvaluateWorkloadWithTruth(*truth, **psd,
                                                      workload,
                                                      cfg.sanity_bound)
                         ->mean_relative_error;
      }
      bench::PrintSeriesRow(
          epsilon, {dpc_total / static_cast<double>(cfg.num_runs),
                    psd_total / static_cast<double>(cfg.num_runs)});
    }
  }
  std::printf(
      "\nexpected shape: DPCopula < PSD at every epsilon and margin; the "
      "gap is largest for skewed (zipf) margins.\n");
  return 0;
}
