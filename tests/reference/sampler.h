#ifndef DPCOPULA_TESTS_REFERENCE_SAMPLER_H_
#define DPCOPULA_TESTS_REFERENCE_SAMPLER_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "data/table.h"
#include "linalg/matrix.h"
#include "stats/empirical_cdf.h"

namespace dpcopula::reference {

/// Algorithm 3 one row at a time, the loop copula::SampleSyntheticData's
/// tiled kernel replaced: m polar Gaussians, a per-row triangular multiply
/// by the Cholesky factor, then NormalCdf and EmpiricalCdf::InverseCdf per
/// cell. Sharded exactly like the production sampler (kSamplerShardRows,
/// one split RNG and one PolarGaussian per shard), so its output is
/// identical for every `num_threads`. Same arguments as
/// copula::SampleSyntheticData; no fail points, no metrics.
Result<data::Table> SampleSyntheticDataPerRow(
    const data::Schema& schema,
    const std::vector<stats::EmpiricalCdf>& marginal_cdfs,
    const linalg::Matrix& correlation, std::size_t num_rows, Rng* rng,
    int num_threads = 1);

/// The t-copula counterpart (copula::SampleSyntheticDataT's per-row
/// predecessor). The chi-squared mixing variable comes from
/// stats::SampleChiSquared, whose Gaussians are ziggurat draws, so unlike
/// the Gaussian sampler this does not replay the pre-ziggurat stream bit
/// for bit; it is a distributional reference.
Result<data::Table> SampleSyntheticDataTPerRow(
    const data::Schema& schema,
    const std::vector<stats::EmpiricalCdf>& marginal_cdfs,
    const linalg::Matrix& correlation, double dof, std::size_t num_rows,
    Rng* rng, int num_threads = 1);

}  // namespace dpcopula::reference

#endif  // DPCOPULA_TESTS_REFERENCE_SAMPLER_H_
