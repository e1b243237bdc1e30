#include "copula/sampler.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/failpoint.h"
#include "common/parallel.h"
#include "linalg/cholesky.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "stats/distributions.h"

namespace dpcopula::copula {

namespace {

// Rows emitted across both samplers: with the three tile-stage histograms
// (profile.gaussian_fill/cholesky_apply/inverse_cdf_seconds) this gives the
// rows/sec of Algorithm 3. Updated once per shard, never per row.
obs::Counter* RowsEmittedCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().GetCounter("sampler.rows_emitted");
  return counter;
}

obs::Counter* TRowsEmittedCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().GetCounter("sampler.t_rows_emitted");
  return counter;
}

Status ValidateSamplerInputs(
    const data::Schema& schema,
    const std::vector<stats::EmpiricalCdf>& marginal_cdfs,
    const linalg::Matrix& correlation) {
  const std::size_t m = schema.num_attributes();
  if (m == 0) return Status::InvalidArgument("empty schema");
  if (marginal_cdfs.size() != m) {
    return Status::InvalidArgument("need one marginal CDF per attribute");
  }
  if (correlation.rows() != m || correlation.cols() != m) {
    return Status::InvalidArgument("correlation shape mismatch");
  }
  for (std::size_t j = 0; j < m; ++j) {
    if (marginal_cdfs[j].domain_size() != schema.attribute(j).domain_size) {
      return Status::InvalidArgument("CDF domain mismatch for attribute '" +
                                     schema.attribute(j).name + "'");
    }
  }
  return Status::OK();
}

/// One inversion table per marginal, built once before the row loop and
/// shared read-only by every shard.
std::vector<stats::InverseCdfTable> BuildInverseTables(
    const std::vector<stats::EmpiricalCdf>& marginal_cdfs) {
  std::vector<stats::InverseCdfTable> tables;
  tables.reserve(marginal_cdfs.size());
  for (const auto& cdf : marginal_cdfs) tables.emplace_back(cdf);
  return tables;
}

/// Scratch buffers for one tile: the raw Gaussian block and the correlated
/// block, both column-major (column j of the tile at [j * tile_rows]), so
/// the triangular mat-mul and the output stores run over contiguous runs of
/// kSamplerTileRows doubles.
struct TileScratch {
  explicit TileScratch(std::size_t m)
      : z(m * kSamplerTileRows), w(m * kSamplerTileRows) {}
  std::vector<double> z;
  std::vector<double> w;
};

/// w[i][:] = sum_{k <= i} L(i,k) * z[k][:] — the Cholesky factor applied as
/// a blocked lower-triangular mat-mul. Each (i, k) pair is one axpy over a
/// contiguous tile column, which the compiler vectorizes.
void ApplyCholeskyTile(const linalg::Matrix& chol, std::size_t m,
                       std::size_t tile_rows, const double* z, double* w) {
  for (std::size_t i = 0; i < m; ++i) {
    double* wi = w + i * kSamplerTileRows;
    const double l0 = chol(i, 0);
    const double* z0 = z;
    for (std::size_t r = 0; r < tile_rows; ++r) wi[r] = l0 * z0[r];
    for (std::size_t k = 1; k <= i; ++k) {
      const double lk = chol(i, k);
      const double* zk = z + k * kSamplerTileRows;
      for (std::size_t r = 0; r < tile_rows; ++r) wi[r] += lk * zk[r];
    }
  }
}

}  // namespace

Result<data::Table> SampleSyntheticData(
    const data::Schema& schema,
    const std::vector<stats::EmpiricalCdf>& marginal_cdfs,
    const linalg::Matrix& correlation, std::size_t num_rows, Rng* rng,
    int num_threads) {
  const std::size_t m = schema.num_attributes();
  DPC_RETURN_NOT_OK(ValidateSamplerInputs(schema, marginal_cdfs, correlation));
  // The factorization is profiled here rather than inside linalg: PSD
  // repair also runs CholeskyDecompose internally (the PD probe), and
  // stages must stay disjoint.
  DPC_ASSIGN_OR_RETURN(linalg::Matrix chol, [&] {
    obs::Scope stage(obs::Stage::kCholesky);
    return linalg::CholeskyDecompose(correlation);
  }());

  const std::vector<stats::InverseCdfTable> tables =
      BuildInverseTables(marginal_cdfs);

  data::Table out = data::Table::Zeros(schema, num_rows);
  // Fail-closed flag: a row-level fault anywhere aborts the whole sample —
  // a partially-filled table must never be released.
  std::atomic<bool> injected_failure{false};
  // Rows are sharded with a fixed grain and one split RNG per shard, so the
  // output is bit-identical for every thread count (including 1). Each shard
  // writes a disjoint row range of the column vectors — no synchronization
  // needed.
  ParallelForSharded(
      0, num_rows, kSamplerShardRows, rng,
      [&](std::size_t row_begin, std::size_t row_end, Rng* shard_rng) {
        RowsEmittedCounter()->Add(
            static_cast<std::int64_t>(row_end - row_begin));
        TileScratch scratch(m);
        for (std::size_t tile = row_begin; tile < row_end;
             tile += kSamplerTileRows) {
          const std::size_t tile_rows =
              std::min(kSamplerTileRows, row_end - tile);
          for (std::size_t r = 0; r < tile_rows; ++r) {
            if (DPC_FAILPOINT_AT("sampler.row", tile + r)) {
              injected_failure.store(true, std::memory_order_relaxed);
              return;
            }
          }
          {
            obs::Scope stage(obs::Stage::kGaussianFill);
            shard_rng->FillGaussian(scratch.z.data(), m * tile_rows);
          }
          {
            obs::Scope stage(obs::Stage::kCholeskyApply);
            ApplyCholeskyTile(chol, m, tile_rows, scratch.z.data(),
                              scratch.w.data());
          }
          obs::Scope stage(obs::Stage::kInverseCdf);
          for (std::size_t j = 0; j < m; ++j) {
            double* col = out.mutable_column(j).data() + tile;
            const double* wj = scratch.w.data() + j * kSamplerTileRows;
            const stats::InverseCdfTable& table = tables[j];
            for (std::size_t r = 0; r < tile_rows; ++r) {
              col[r] = static_cast<double>(table.LookupGaussian(wj[r]));
            }
          }
        }
      },
      num_threads);
  if (injected_failure.load(std::memory_order_relaxed)) {
    return failpoint::InjectedFault("sampler.row");
  }
  return out;
}

Result<data::Table> SampleSyntheticDataT(
    const data::Schema& schema,
    const std::vector<stats::EmpiricalCdf>& marginal_cdfs,
    const linalg::Matrix& correlation, double dof, std::size_t num_rows,
    Rng* rng, int num_threads) {
  const std::size_t m = schema.num_attributes();
  DPC_RETURN_NOT_OK(ValidateSamplerInputs(schema, marginal_cdfs, correlation));
  if (!(dof > 0.0)) {
    return Status::InvalidArgument("t sampler: dof must be > 0");
  }
  DPC_ASSIGN_OR_RETURN(linalg::Matrix chol, [&] {
    obs::Scope stage(obs::Stage::kCholesky);
    return linalg::CholeskyDecompose(correlation);
  }());

  const std::vector<stats::InverseCdfTable> tables =
      BuildInverseTables(marginal_cdfs);

  data::Table out = data::Table::Zeros(schema, num_rows);
  std::atomic<bool> injected_failure{false};
  ParallelForSharded(
      0, num_rows, kSamplerShardRows, rng,
      [&](std::size_t row_begin, std::size_t row_end, Rng* shard_rng) {
        RowsEmittedCounter()->Add(
            static_cast<std::int64_t>(row_end - row_begin));
        TRowsEmittedCounter()->Add(
            static_cast<std::int64_t>(row_end - row_begin));
        TileScratch scratch(m);
        std::vector<double> scale(kSamplerTileRows);
        for (std::size_t tile = row_begin; tile < row_end;
             tile += kSamplerTileRows) {
          const std::size_t tile_rows =
              std::min(kSamplerTileRows, row_end - tile);
          for (std::size_t r = 0; r < tile_rows; ++r) {
            if (DPC_FAILPOINT_AT("sampler.row", tile + r)) {
              injected_failure.store(true, std::memory_order_relaxed);
              return;
            }
          }
          {
            // Draw order within a tile is fixed: the Gaussian block first,
            // then one chi-squared mixing variable per record.
            obs::Scope stage(obs::Stage::kGaussianFill);
            shard_rng->FillGaussian(scratch.z.data(), m * tile_rows);
            for (std::size_t r = 0; r < tile_rows; ++r) {
              const double w = stats::SampleChiSquared(shard_rng, dof);
              scale[r] = std::sqrt(dof / w);
            }
          }
          {
            obs::Scope stage(obs::Stage::kCholeskyApply);
            ApplyCholeskyTile(chol, m, tile_rows, scratch.z.data(),
                              scratch.w.data());
          }
          obs::Scope stage(obs::Stage::kInverseCdf);
          for (std::size_t j = 0; j < m; ++j) {
            double* col = out.mutable_column(j).data() + tile;
            const double* wj = scratch.w.data() + j * kSamplerTileRows;
            const stats::InverseCdfTable& table = tables[j];
            for (std::size_t r = 0; r < tile_rows; ++r) {
              const double t = stats::StudentTCdf(wj[r] * scale[r], dof);
              col[r] = static_cast<double>(table.Lookup(t));
            }
          }
        }
      },
      num_threads);
  if (injected_failure.load(std::memory_order_relaxed)) {
    return failpoint::InjectedFault("sampler.row");
  }
  return out;
}

}  // namespace dpcopula::copula
