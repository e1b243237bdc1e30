// Workload accuracy: the paper's evaluation loop as a library consumer
// would run it — generate a range-count workload, answer it from a DP
// synthetic dataset and from the PSD baseline, and report relative error
// per privacy budget.
//
//   $ ./build/examples/workload_accuracy
#include <cstdio>

#include "baselines/psd.h"
#include "common/rng.h"
#include "core/dpcopula.h"
#include "data/generator.h"
#include "query/evaluator.h"
#include "query/workload.h"

int main() {
  using namespace dpcopula;  // NOLINT(build/namespaces) — example binary.

  Rng rng(99);
  // 4-D data, domain 500 each: a 6.25 * 10^10-cell domain — far beyond any
  // dense histogram, routine for DPCopula and PSD.
  std::vector<data::MarginSpec> margins;
  for (int j = 0; j < 4; ++j) {
    margins.push_back(data::MarginSpec::Gaussian(
        std::string("x").append(std::to_string(j)), 500));
  }
  auto table = data::GenerateGaussianDependent(
      margins, data::Ar1Correlation(4, 0.5), 30000, &rng);
  if (!table.ok()) return 1;

  const auto workload = query::RandomWorkload(table->schema(), 300, &rng);

  std::printf("%-10s%16s%16s\n", "epsilon", "DPCopula RE", "PSD RE");
  for (double epsilon : {0.1, 0.5, 1.0, 2.0}) {
    core::DpCopulaOptions options;
    options.epsilon = epsilon;
    auto synth = core::Synthesize(*table, options, &rng);
    if (!synth.ok()) return 1;
    baselines::TableEstimator dpc(synth->synthetic, "DPCopula");
    auto dpc_eval = query::EvaluateWorkload(*table, dpc, workload, 1.0);

    auto psd = baselines::PsdTree::Build(*table, epsilon, &rng);
    if (!psd.ok()) return 1;
    auto psd_eval = query::EvaluateWorkload(*table, **psd, workload, 1.0);

    std::printf("%-10.2f%16.3f%16.3f\n", epsilon,
                dpc_eval->mean_relative_error, psd_eval->mean_relative_error);
  }
  std::printf(
      "\nlower is better; DPCopula holds accuracy on large-domain data "
      "where dense-histogram methods cannot run at all.\n");
  return 0;
}
