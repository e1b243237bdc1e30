#ifndef DPCOPULA_TESTS_REFERENCE_KENDALL_H_
#define DPCOPULA_TESTS_REFERENCE_KENDALL_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "copula/kendall_estimator.h"
#include "data/table.h"

namespace dpcopula::reference {

/// Kendall's tau-a by Knight's algorithm, one comparator sort per pair:
/// sort by (x, y), count discordant pairs as merge-sort inversions on y,
/// correct for ties. O(n log n) per pair; the estimator kernel that
/// stats::RankColumn caches replaced. Same statuses as stats::KendallTau.
Result<double> KendallTauKnight(const std::vector<double>& x,
                                const std::vector<double>& y);

/// O(n^2) pair-by-pair count. Same statuses as stats::KendallTau.
Result<double> KendallTauBruteForce(const std::vector<double>& x,
                                    const std::vector<double>& y);

/// Inversions in `values`, counted by merge sort (Knight's inner step).
std::uint64_t CountInversions(std::vector<double> values);

/// copula::EstimateKendallCorrelation with every pair's tau computed by
/// KendallTauKnight (O(m^2 n log n)); the subsample, noise and repair are
/// the production code's. Releases the same matrix bit for bit.
/// `contingency_pairs` is always 0.
Result<copula::KendallEstimate> EstimateKendallCorrelationKnight(
    const data::Table& table, double epsilon2, Rng* rng,
    const copula::KendallEstimatorOptions& options = {});

}  // namespace dpcopula::reference

#endif  // DPCOPULA_TESTS_REFERENCE_KENDALL_H_
