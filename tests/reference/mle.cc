#include "reference/mle.h"

#include <cstdint>

#include "common/failpoint.h"
#include "common/parallel.h"
#include "copula/gaussian_copula.h"
#include "copula/pseudo_obs.h"

namespace dpcopula::reference {

Result<copula::MleEstimate> EstimateMleCorrelationPerPartition(
    const data::Table& table, double epsilon2, Rng* rng,
    const copula::MleEstimatorOptions& options) {
  auto fit_partitions = [&](const data::Table& t, std::int64_t l,
                            std::int64_t b)
      -> Result<copula::internal::PartitionFits> {
    copula::internal::PartitionFits fits(
        static_cast<std::size_t>(l),
        Result<linalg::PackedSymmetric>(
            Status::Internal("partition not fitted")));
    ParallelFor(
        0, static_cast<std::size_t>(l), /*grain=*/1,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t ti = begin; ti < end; ++ti) {
            if (DPC_FAILPOINT_AT("mle.partition_fit", ti)) {
              fits[ti] = failpoint::InjectedFault("mle.partition_fit");
              continue;
            }
            const auto rows = static_cast<std::size_t>(b);
            data::Table part = data::Table::Zeros(t.schema(), rows);
            for (std::size_t j = 0; j < t.num_columns(); ++j) {
              const auto& col = t.column(j);
              auto& dst = part.mutable_column(j);
              for (std::size_t i = 0; i < rows; ++i) {
                dst[i] = col[ti * rows + i];
              }
            }
            auto pseudo = copula::PseudoObservations(part);
            if (!pseudo.ok()) {
              fits[ti] = pseudo.status();
              continue;
            }
            Result<linalg::Matrix> fit = copula::NormalScoresCorrelation(
                copula::NormalScores(*pseudo));
            fits[ti] = fit.ok() ? Result<linalg::PackedSymmetric>(
                                      linalg::PackedSymmetric::
                                          FromLowerTriangleOf(*fit))
                                : Result<linalg::PackedSymmetric>(
                                      fit.status());
          }
        },
        options.num_threads);
    return fits;
  };
  return copula::internal::EstimateMleCorrelation(table, epsilon2, rng,
                                                  options, fit_partitions);
}

}  // namespace dpcopula::reference
