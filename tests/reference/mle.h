#ifndef DPCOPULA_TESTS_REFERENCE_MLE_H_
#define DPCOPULA_TESTS_REFERENCE_MLE_H_

#include "common/result.h"
#include "common/rng.h"
#include "copula/mle_estimator.h"
#include "data/table.h"

namespace dpcopula::reference {

/// copula::EstimateMleCorrelation with each partition fitted the
/// straightforward way: copy the partition's rows into a Table::Zeros
/// slice, then PseudoObservations + NormalScores + NormalScoresCorrelation
/// (a domain-sized histogram per partition per column). Honors the
/// mle.partition_fit fail point at the same site as production. The
/// averaging, noise and repair are the production code's, so the released
/// matrix is the same bit for bit. Unlike production it does not reject
/// non-finite input up front: keep NaN out of its tables.
Result<copula::MleEstimate> EstimateMleCorrelationPerPartition(
    const data::Table& table, double epsilon2, Rng* rng,
    const copula::MleEstimatorOptions& options = {});

}  // namespace dpcopula::reference

#endif  // DPCOPULA_TESTS_REFERENCE_MLE_H_
