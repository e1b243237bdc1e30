#ifndef DPCOPULA_COPULA_SAMPLER_H_
#define DPCOPULA_COPULA_SAMPLER_H_

#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "data/table.h"
#include "linalg/matrix.h"
#include "stats/empirical_cdf.h"

namespace dpcopula::copula {

/// Fixed row-shard size for parallel sampling. The shard decomposition
/// (and therefore the per-shard RNG split sequence) depends only on
/// `num_rows`, never on the thread count, so sampled tables are
/// bit-identical for any `num_threads`.
inline constexpr std::size_t kSamplerShardRows = 4096;

/// Rows per tile of the blocked sampling kernel. A tile's working set is
/// 2 * m * kSamplerTileRows doubles (the Gaussian block and the correlated
/// block), ~40 KB at m = 10 — sized to stay cache-resident while keeping
/// the per-tile loop overhead negligible. Divides kSamplerShardRows so only
/// the final shard ever sees a partial tile.
inline constexpr std::size_t kSamplerTileRows = 256;

/// Algorithm 3 — sampling DP synthetic data:
///  1a. draw z ~ N(0, correlation) (Cholesky of the DP correlation matrix);
///  1b. map to the unit cube via the standard normal CDF, t = Phi(z);
///  2.  map through the inverse DP empirical marginal CDFs,
///      x_j = F~_j^{-1}(t_j), landing in the original attribute domains.
/// `schema` supplies names/domains of the output columns; `marginal_cdfs`
/// must contain one CDF per attribute (built from the DP marginal
/// histograms). This is pure post-processing of DP outputs, so it consumes
/// no privacy budget.
///
/// The row loop runs on the shared thread pool: rows are cut into
/// kSamplerShardRows-sized shards, each with its own RNG split off `*rng`
/// in shard order (1 thread and N threads give byte-identical tables).
/// Within a shard, rows are processed kSamplerTileRows at a time: a
/// ziggurat-filled Gaussian block, the Cholesky factor applied as a blocked
/// lower-triangular mat-mul over contiguous columns, and guide-table CDF
/// inversion (InverseCdfTable). The pre-tile per-row loop it replaced lives
/// in tests/reference as the oracle for distributional-equivalence tests
/// and the bench_sampler_hot baseline.
/// `num_threads`: 0 = hardware concurrency, <= 1 = sequential.
Result<data::Table> SampleSyntheticData(
    const data::Schema& schema,
    const std::vector<stats::EmpiricalCdf>& marginal_cdfs,
    const linalg::Matrix& correlation, std::size_t num_rows, Rng* rng,
    int num_threads = 1);

/// t-copula variant of Algorithm 3 (the paper's future-work extension):
/// draws x ~ t_dof(0, correlation), maps through the univariate t CDF, then
/// through the inverse DP marginal CDFs. Captures symmetric tail dependence
/// the Gaussian copula cannot express. Parallelized identically to
/// SampleSyntheticData (thread-count invariant output).
Result<data::Table> SampleSyntheticDataT(
    const data::Schema& schema,
    const std::vector<stats::EmpiricalCdf>& marginal_cdfs,
    const linalg::Matrix& correlation, double dof, std::size_t num_rows,
    Rng* rng, int num_threads = 1);

}  // namespace dpcopula::copula

#endif  // DPCOPULA_COPULA_SAMPLER_H_
