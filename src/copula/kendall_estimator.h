#ifndef DPCOPULA_COPULA_KENDALL_ESTIMATOR_H_
#define DPCOPULA_COPULA_KENDALL_ESTIMATOR_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "data/table.h"
#include "linalg/eigen_sym.h"
#include "linalg/matrix.h"
#include "stats/kendall.h"

namespace dpcopula::copula {

/// Options for the DP Kendall's-tau correlation estimator (Algorithm 5).
struct KendallEstimatorOptions {
  /// If true and the data is larger than the adequate sample size n_hat >
  /// 50 m (m-1) / epsilon2 - 1 (paper §4.2, complexity discussion), the tau
  /// coefficients are computed on a random subsample of that size with the
  /// noise enlarged from 4/(n+1) to 4/(n_hat+1).
  bool subsample = true;

  /// Overrides the automatic n_hat when > 0 (must still be <= n).
  std::int64_t subsample_size_override = 0;

  /// Worker threads (shared ThreadPool) for the rank-cache builds and the
  /// C(m,2) pairwise tau computations — the dominant cost at high m. Each
  /// pair derives its own RNG stream from the caller's generator by pair
  /// index, so results are bit-identical regardless of thread count. 0 =
  /// hardware concurrency, <= 1 = sequential.
  int num_threads = 1;

  /// Eigensolver kernel for the PSD-repair step (see linalg::EigenKernel).
  /// kTridiagQL is the high-dimension production path; kJacobi is the
  /// verbatim legacy solver kept for agreement tests. The repair also
  /// inherits `num_threads` above.
  linalg::EigenKernel eigen_kernel = linalg::EigenKernel::kTridiagQL;
};

/// Diagnostics reported alongside the private correlation matrix.
struct KendallEstimate {
  linalg::Matrix correlation;     // The DP correlation matrix P~ (valid).
  std::int64_t rows_used = 0;     // n or n_hat.
  double per_pair_epsilon = 0.0;  // epsilon2 / C(m,2).
  double laplace_scale = 0.0;     // Noise scale applied to each tau.
  bool repaired = false;          // True if eigenvalue PSD repair fired.
  /// Pairs served by the contingency-table kernel (the rest took the
  /// merge-count path).
  std::int64_t contingency_pairs = 0;
};

/// Computes the differentially private correlation matrix of Algorithm 5:
/// noisy pairwise Kendall's tau (sensitivity 4/(n+1), Lemma 4.1), the
/// sin(pi/2 * tau) transform (Eq. 4), and the Rousseeuw–Molenberghs
/// eigenvalue repair when the noisy matrix is not positive definite.
/// Consumes `epsilon2` in total across all C(m,2) coefficients.
///
/// The exact taus come from per-column rank caches (stats::RankColumn):
/// one O(n log n) sort per column, shared by every pair touching it, for
/// O(m n log n) in total. The per-pair Knight's-algorithm estimator these
/// replaced lives in tests/reference and must release the same matrix bit
/// for bit.
Result<KendallEstimate> EstimateKendallCorrelation(
    const data::Table& table, double epsilon2, Rng* rng,
    const KendallEstimatorOptions& options = {});

namespace internal {

/// Exact tau of every column pair of Algorithm 5's working sample: `cols`
/// are its columns (the subsample, or the table's own columns at full
/// size) and the result holds one tau per entry of `pairs`, in order.
using PairTausFn = std::function<Result<std::vector<double>>(
    const std::vector<const std::vector<double>*>& cols,
    const std::vector<std::pair<std::size_t, std::size_t>>& pairs)>;

/// EstimateKendallCorrelation with the exact-tau kernel supplied by the
/// caller; the subsample, Laplace noise, sine transform and PSD repair are
/// shared. Lets tests run the estimator on a reference tau kernel.
/// `contingency_pairs` is left at 0.
Result<KendallEstimate> EstimateKendallCorrelation(
    const data::Table& table, double epsilon2, Rng* rng,
    const KendallEstimatorOptions& options, const PairTausFn& pair_taus);

}  // namespace internal

/// The paper's adequate subsample size: ceil(50 m (m-1) / epsilon2).
std::int64_t AdequateKendallSampleSize(std::size_t m, double epsilon2);

}  // namespace dpcopula::copula

#endif  // DPCOPULA_COPULA_KENDALL_ESTIMATOR_H_
