#include "reference/sampler.h"

#include <cmath>

#include "common/parallel.h"
#include "copula/sampler.h"
#include "linalg/cholesky.h"
#include "reference/rng.h"
#include "stats/distributions.h"
#include "stats/normal.h"

namespace dpcopula::reference {

namespace {

Status CheckShapes(const data::Schema& schema,
                   const std::vector<stats::EmpiricalCdf>& marginal_cdfs,
                   const linalg::Matrix& correlation) {
  const std::size_t m = schema.num_attributes();
  if (m == 0 || marginal_cdfs.size() != m || correlation.rows() != m ||
      correlation.cols() != m) {
    return Status::InvalidArgument("reference sampler: shape mismatch");
  }
  return Status::OK();
}

}  // namespace

Result<data::Table> SampleSyntheticDataPerRow(
    const data::Schema& schema,
    const std::vector<stats::EmpiricalCdf>& marginal_cdfs,
    const linalg::Matrix& correlation, std::size_t num_rows, Rng* rng,
    int num_threads) {
  DPC_RETURN_NOT_OK(CheckShapes(schema, marginal_cdfs, correlation));
  DPC_ASSIGN_OR_RETURN(const linalg::Matrix chol,
                       linalg::CholeskyDecompose(correlation));
  const std::size_t m = schema.num_attributes();
  data::Table out = data::Table::Zeros(schema, num_rows);
  ParallelForSharded(
      0, num_rows, copula::kSamplerShardRows, rng,
      [&](std::size_t row_begin, std::size_t row_end, Rng* shard_rng) {
        PolarGaussian gaussian(shard_rng);
        std::vector<double> z(m), corr_z(m);
        for (std::size_t r = row_begin; r < row_end; ++r) {
          for (std::size_t j = 0; j < m; ++j) z[j] = gaussian.Next();
          for (std::size_t i = 0; i < m; ++i) {
            double acc = 0.0;
            for (std::size_t k = 0; k <= i; ++k) acc += chol(i, k) * z[k];
            corr_z[i] = acc;
          }
          for (std::size_t j = 0; j < m; ++j) {
            const double t = stats::NormalCdf(corr_z[j]);
            out.set(r, j, static_cast<double>(marginal_cdfs[j].InverseCdf(t)));
          }
        }
      },
      num_threads);
  return out;
}

Result<data::Table> SampleSyntheticDataTPerRow(
    const data::Schema& schema,
    const std::vector<stats::EmpiricalCdf>& marginal_cdfs,
    const linalg::Matrix& correlation, double dof, std::size_t num_rows,
    Rng* rng, int num_threads) {
  DPC_RETURN_NOT_OK(CheckShapes(schema, marginal_cdfs, correlation));
  if (!(dof > 0.0)) {
    return Status::InvalidArgument("reference t sampler: dof must be > 0");
  }
  DPC_ASSIGN_OR_RETURN(const linalg::Matrix chol,
                       linalg::CholeskyDecompose(correlation));
  const std::size_t m = schema.num_attributes();
  data::Table out = data::Table::Zeros(schema, num_rows);
  ParallelForSharded(
      0, num_rows, copula::kSamplerShardRows, rng,
      [&](std::size_t row_begin, std::size_t row_end, Rng* shard_rng) {
        PolarGaussian gaussian(shard_rng);
        std::vector<double> z(m);
        for (std::size_t r = row_begin; r < row_end; ++r) {
          for (std::size_t j = 0; j < m; ++j) z[j] = gaussian.Next();
          // One chi-squared mixing variable per record gives the joint t.
          const double w = stats::SampleChiSquared(shard_rng, dof);
          const double scale = std::sqrt(dof / w);
          for (std::size_t i = 0; i < m; ++i) {
            double acc = 0.0;
            for (std::size_t k = 0; k <= i; ++k) acc += chol(i, k) * z[k];
            const double t = stats::StudentTCdf(acc * scale, dof);
            out.set(r, i, static_cast<double>(marginal_cdfs[i].InverseCdf(t)));
          }
        }
      },
      num_threads);
  return out;
}

}  // namespace dpcopula::reference
