// bench_parallel_scaling — rows/sec and speedup of the deterministic
// parallel execution layer at 1/2/4/8 threads, for the four pooled hot
// paths: Algorithm 3 sampling, the Kendall estimator, the MLE estimator,
// and Algorithm 6 hybrid synthesis.
//
// Every configuration also cross-checks that the multi-threaded output is
// byte-identical to the single-threaded one (the RNG-split sharding
// contract), so this doubles as a stress test of the determinism
// guarantee. The default profile is sized for CI; DPCOPULA_BENCH_FULL=1
// runs the acceptance workload (10 attributes x 1M rows for sampling).
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "copula/kendall_estimator.h"
#include "copula/mle_estimator.h"
#include "copula/sampler.h"
#include "core/hybrid.h"
#include "data/census.h"
#include "data/generator.h"
#include "stats/empirical_cdf.h"

namespace {

using namespace dpcopula;  // NOLINT(build/namespaces) — bench binary.

bool TablesEqual(const data::Table& a, const data::Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (std::size_t j = 0; j < a.num_columns(); ++j) {
    if (a.column(j) != b.column(j)) return false;
  }
  return true;
}

void PrintHeader(const char* name, const char* unit, bool deterministic) {
  std::printf("\n%s (determinism vs 1 thread: %s)\n", name,
              deterministic ? "OK" : "VIOLATED");
  std::printf("%-10s%16s%16s%12s\n", "threads", "seconds", unit, "speedup");
}

void PrintRow(int threads, double secs, double work, double base_secs) {
  std::printf("%-10d%16.4f%16.4g%12.2fx\n", threads, secs, work / secs,
              base_secs / secs);
}

}  // namespace

int main() {
  const bool full = std::getenv("DPCOPULA_BENCH_FULL") != nullptr;
  const std::size_t sample_rows = full ? 1000000 : 100000;
  const std::size_t data_rows = full ? 20000 : 5000;
  const std::size_t hybrid_rows = full ? 50000 : 10000;
  const std::size_t m = 10;
  const std::vector<int> thread_counts = {1, 2, 4, 8};

  std::printf("=== parallel scaling: sampler / Kendall / MLE / hybrid ===\n");
  std::printf(
      "hardware threads: %d   profile: %s   "
      "(DPCOPULA_BENCH_FULL=1 for the 1M-row acceptance workload)\n",
      HardwareThreads(), full ? "full" : "quick");

  Rng data_rng(17);
  const data::Table table =
      bench::MakeGaussianTable(data_rows, m, 256, &data_rng);

  // --- Path 1: Algorithm 3 sampling, 10 attributes x sample_rows rows. ---
  {
    std::vector<stats::EmpiricalCdf> cdfs;
    std::vector<data::Attribute> attrs;
    for (std::size_t j = 0; j < m; ++j) {
      std::vector<double> counts(256, 1.0);
      cdfs.push_back(*stats::EmpiricalCdf::FromCounts(counts));
      attrs.push_back({std::string("x").append(std::to_string(j)), 256});
    }
    const data::Schema schema(attrs);
    const linalg::Matrix corr = data::Ar1Correlation(m, 0.5);

    data::Table reference{data::Schema()};
    bool deterministic = true;
    std::vector<double> secs(thread_counts.size(), 0.0);
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      Rng rng(99);  // Same seed per config: outputs must be identical.
      bench::Timer timer;
      auto out = copula::SampleSyntheticData(schema, cdfs, corr, sample_rows,
                                             &rng, thread_counts[i]);
      secs[i] = timer.Seconds();
      if (!out.ok()) {
        std::fprintf(stderr, "sampling failed: %s\n",
                     out.status().ToString().c_str());
        return 1;
      }
      if (i == 0) {
        reference = std::move(*out);
      } else if (!TablesEqual(reference, *out)) {
        deterministic = false;
      }
    }
    PrintHeader("Alg. 3 sampling (Gaussian copula)", "rows/sec",
                deterministic);
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      PrintRow(thread_counts[i], secs[i],
               static_cast<double>(sample_rows), secs[0]);
    }
  }

  // --- Path 2: Kendall correlation estimator (C(m,2) pairwise taus). ---
  {
    copula::KendallEstimatorOptions opts;
    opts.subsample = false;  // Use all rows: the tau merge sorts dominate.
    linalg::Matrix reference(0, 0);
    bool deterministic = true;
    std::vector<double> secs(thread_counts.size(), 0.0);
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      opts.num_threads = thread_counts[i];
      Rng rng(7);
      bench::Timer timer;
      auto est = copula::EstimateKendallCorrelation(table, 0.1, &rng, opts);
      secs[i] = timer.Seconds();
      if (!est.ok()) {
        std::fprintf(stderr, "kendall failed: %s\n",
                     est.status().ToString().c_str());
        return 1;
      }
      if (i == 0) {
        reference = est->correlation;
      } else if (reference.MaxAbsDiff(est->correlation) != 0.0) {
        deterministic = false;
      }
    }
    const double pairs = static_cast<double>(m) * (m - 1) / 2.0;
    PrintHeader("Kendall estimator", "pairs/sec", deterministic);
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      PrintRow(thread_counts[i], secs[i], pairs, secs[0]);
    }
  }

  // --- Path 3: MLE estimator (l disjoint partition fits). ---
  {
    copula::MleEstimatorOptions opts;
    opts.num_partitions = 64;
    linalg::Matrix reference(0, 0);
    bool deterministic = true;
    std::vector<double> secs(thread_counts.size(), 0.0);
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      opts.num_threads = thread_counts[i];
      Rng rng(13);
      bench::Timer timer;
      auto est = copula::EstimateMleCorrelation(table, 0.1, &rng, opts);
      secs[i] = timer.Seconds();
      if (!est.ok()) {
        std::fprintf(stderr, "mle failed: %s\n",
                     est.status().ToString().c_str());
        return 1;
      }
      if (i == 0) {
        reference = est->correlation;
      } else if (reference.MaxAbsDiff(est->correlation) != 0.0) {
        deterministic = false;
      }
    }
    PrintHeader("MLE estimator", "partitions/sec", deterministic);
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      PrintRow(thread_counts[i], secs[i], 64.0, secs[0]);
    }
  }

  // --- Path 4: Algorithm 6 hybrid (per-partition DPCopula runs). ---
  {
    Rng census_rng(3);
    auto census = data::GenerateUsCensus(hybrid_rows, &census_rng);
    if (!census.ok()) {
      std::fprintf(stderr, "census generation failed\n");
      return 1;
    }
    core::HybridOptions opts;
    opts.epsilon = 1.0;
    data::Table reference{data::Schema()};
    bool deterministic = true;
    std::vector<double> secs(thread_counts.size(), 0.0);
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      opts.num_threads = thread_counts[i];
      Rng rng(5);
      bench::Timer timer;
      auto res = core::SynthesizeHybrid(*census, opts, &rng);
      secs[i] = timer.Seconds();
      if (!res.ok()) {
        std::fprintf(stderr, "hybrid failed: %s\n",
                     res.status().ToString().c_str());
        return 1;
      }
      if (i == 0) {
        reference = std::move(res->synthetic);
      } else if (!TablesEqual(reference, res->synthetic)) {
        deterministic = false;
      }
    }
    PrintHeader("Hybrid synthesis (Alg. 6)", "rows/sec", deterministic);
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      PrintRow(thread_counts[i], secs[i],
               static_cast<double>(hybrid_rows), secs[0]);
    }
  }

  return 0;
}
