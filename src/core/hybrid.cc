#include "core/hybrid.h"

#include <algorithm>
#include <cmath>

#include "common/failpoint.h"
#include "common/parallel.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "stats/distributions.h"

namespace dpcopula::core {

namespace {

// Advances a mixed-radix counter over the small-attribute domains; returns
// false when exhausted.
bool AdvanceCombo(std::vector<std::int64_t>* combo,
                  const std::vector<std::int64_t>& radix) {
  for (std::size_t t = combo->size(); t-- > 0;) {
    if (++(*combo)[t] < radix[t]) return true;
    (*combo)[t] = 0;
  }
  return false;
}

}  // namespace

Result<HybridResult> SynthesizeHybrid(const data::Table& table,
                                      const HybridOptions& options, Rng* rng) {
  static obs::Counter* const partitions_synthesized =
      obs::MetricsRegistry::Global().GetCounter(
          "hybrid.partitions_synthesized");
  static obs::Counter* const partitions_skipped =
      obs::MetricsRegistry::Global().GetCounter("hybrid.partitions_skipped");
  static obs::Gauge* const noisy_count_gauge =
      obs::MetricsRegistry::Global().GetGauge("hybrid.last_noisy_count");
  obs::Scope run_scope(obs::Stage::kHybridSynthesize);

  if (!(options.epsilon > 0.0)) {
    return Status::InvalidArgument("hybrid: epsilon must be > 0");
  }
  if (!(options.partition_count_fraction > 0.0 &&
        options.partition_count_fraction < 1.0)) {
    return Status::InvalidArgument(
        "hybrid: partition_count_fraction must be in (0, 1)");
  }
  const auto& schema = table.schema();

  std::vector<std::size_t> small_cols, large_cols;
  for (std::size_t j = 0; j < schema.num_attributes(); ++j) {
    if (schema.attribute(j).domain_size < options.small_domain_threshold) {
      small_cols.push_back(j);
    } else {
      large_cols.push_back(j);
    }
  }

  // No small-domain attributes: plain DPCopula with the full budget.
  if (small_cols.empty()) {
    obs::Log(obs::LogLevel::kInfo, "hybrid.degenerate_plain_dpcopula")
        .Field("epsilon", options.epsilon);
    DpCopulaOptions inner = options.inner;
    inner.epsilon = options.epsilon;
    inner.num_synthetic_rows = 0;
    inner.allow_degraded_correlation = options.allow_degraded_partitions;
    DPC_ASSIGN_OR_RETURN(SynthesisResult res, Synthesize(table, inner, rng));
    HybridResult out;
    out.synthetic = std::move(res.synthetic);
    out.num_partitions = 1;
    out.degraded_partitions = res.correlation_degraded ? 1 : 0;
    out.epsilon_copula = options.epsilon;
    out.budget = std::move(res.budget);
    return out;
  }

  std::vector<std::int64_t> radix;
  std::int64_t num_partitions = 1;
  for (std::size_t c : small_cols) {
    const std::int64_t d = schema.attribute(c).domain_size;
    if (num_partitions > options.max_partitions / d) {
      return Status::ResourceExhausted(
          "hybrid: small-domain partition count exceeds max_partitions");
    }
    num_partitions *= d;
    radix.push_back(d);
  }

  const double eps_counts = options.epsilon * options.partition_count_fraction;
  const double eps_copula = options.epsilon - eps_counts;

  HybridResult out;
  out.num_partitions = num_partitions;
  out.epsilon_counts = eps_counts;
  out.epsilon_copula = eps_copula;
  out.synthetic = data::Table(schema);

  // Top-level audit under parallel composition (Theorem 3.2): the
  // partitions are disjoint, so the noisy counts cost eps_counts once
  // overall (Laplace on a count, sensitivity 1) and the per-partition
  // DPCopula runs cost eps_copula once overall (each run keeps its own
  // sequential log internally and verifies it against eps_copula).
  out.budget = dp::BudgetAccountant(options.epsilon, "dpcopula-hybrid");
  DPC_RETURN_NOT_OK(out.budget.ChargeParallel(
      eps_counts, "hybrid:partition-counts", /*sensitivity=*/1.0));
  DPC_RETURN_NOT_OK(
      out.budget.ChargeParallel(eps_copula, "hybrid:partition-copula"));

  obs::Log(obs::LogLevel::kInfo, "hybrid.start")
      .Field("partitions", num_partitions)
      .Field("epsilon_counts", eps_counts)
      .Field("epsilon_copula", eps_copula)
      .Field("threads", options.num_threads);

  // Enumerate every small-attribute combination up front, then pre-split
  // one RNG per partition (in combo order). Each partition's noise draws
  // and inner DPCopula run consume only its own stream, so the release is
  // bit-identical for any thread count — and for num_threads == 1.
  std::vector<std::vector<std::int64_t>> combos;
  combos.reserve(static_cast<std::size_t>(num_partitions));
  std::vector<std::int64_t> combo(small_cols.size(), 0);
  do {
    combos.push_back(combo);
  } while (AdvanceCombo(&combo, radix));
  std::vector<Rng> part_rngs;
  part_rngs.reserve(combos.size());
  for (std::size_t i = 0; i < combos.size(); ++i) {
    part_rngs.push_back(rng->Split());
  }

  struct PartitionOutput {
    Status status = Status::OK();
    bool skipped = false;
    bool degraded = false;
    data::Table synth;
  };
  std::vector<PartitionOutput> parts(combos.size());
  static obs::Counter* const partitions_degraded =
      obs::MetricsRegistry::Global().GetCounter(
          "hybrid.partitions_degraded");

  // Workers run on pool threads, so they attach their spans to the run
  // span through an explicit handle rather than the thread-local stack.
  const obs::SpanId run_span_id = run_scope.id();
  ParallelFor(
      0, combos.size(), /*grain=*/1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t p = begin; p < end; ++p) {
          obs::Scope part_scope(obs::Stage::kHybridPartition,
                                static_cast<std::int64_t>(p), run_span_id);
          // Key any fail point evaluated inside this partition's work —
          // including generic sites deep in the inner Synthesize — to the
          // partition index, so a fault schedule fires on the same
          // partitions for every thread count.
          failpoint::ScopedContext failpoint_ctx(p);
          if (DPC_FAILPOINT_AT("hybrid.partition.synthesize", p)) {
            parts[p].status =
                failpoint::InjectedFault("hybrid.partition.synthesize");
            continue;
          }
          const std::vector<std::int64_t>& c = combos[p];
          Rng* part_rng = &part_rngs[p];
          PartitionOutput& po = parts[p];

          // Filter rows matching this small-attribute combination.
          data::Table part = table;
          for (std::size_t t = 0; t < small_cols.size(); ++t) {
            part = part.Filter(small_cols[t], static_cast<double>(c[t]));
          }

          // Step 2: noisy partition count (Lap(1/eps_counts); partitions
          // are disjoint, so parallel composition charges eps_counts once
          // overall).
          const double noisy =
              static_cast<double>(part.num_rows()) +
              stats::SampleLaplace(part_rng, 1.0 / eps_counts);
          const auto n_synth =
              static_cast<std::int64_t>(std::llround(noisy));
          noisy_count_gauge->Set(noisy);
          if (n_synth <= 0) {
            po.skipped = true;
            partitions_skipped->Increment();
            continue;
          }
          partitions_synthesized->Increment();

          data::Table part_synth;
          if (large_cols.empty()) {
            // Degenerate: all attributes are small-domain — this is a
            // noisy contingency table; emit n_synth copies of the combo.
            part_synth =
                data::Table::Zeros(schema, static_cast<std::size_t>(n_synth));
            for (std::size_t t = 0; t < small_cols.size(); ++t) {
              auto& col = part_synth.mutable_column(small_cols[t]);
              std::fill(col.begin(), col.end(), static_cast<double>(c[t]));
            }
          } else {
            // Step 3: DPCopula on the large-domain projection of this
            // partition.
            auto projected = part.Project(large_cols);
            if (!projected.ok()) {
              po.status = projected.status();
              continue;
            }
            DpCopulaOptions inner = options.inner;
            inner.epsilon = eps_copula;
            inner.num_synthetic_rows = static_cast<std::size_t>(n_synth);
            inner.allow_degraded_correlation =
                options.allow_degraded_partitions;
            auto res = Synthesize(*projected, inner, part_rng);
            if (!res.ok()) {
              po.status = res.status();
              continue;
            }
            if (res->correlation_degraded) {
              po.degraded = true;
              partitions_degraded->Increment();
              obs::Log(obs::LogLevel::kWarn, "hybrid.partition_degraded")
                  .Field("partition", p);
            }

            // Reassemble in original column order.
            part_synth =
                data::Table::Zeros(schema, static_cast<std::size_t>(n_synth));
            for (std::size_t t = 0; t < small_cols.size(); ++t) {
              auto& col = part_synth.mutable_column(small_cols[t]);
              std::fill(col.begin(), col.end(), static_cast<double>(c[t]));
            }
            for (std::size_t t = 0; t < large_cols.size(); ++t) {
              part_synth.mutable_column(large_cols[t]) =
                  res->synthetic.column(t);
            }
          }
          po.synth = std::move(part_synth);
        }
      },
      options.num_threads);

  // Stitch partitions back together in combo order (deterministic output
  // row order, independent of scheduling).
  for (PartitionOutput& po : parts) {
    DPC_RETURN_NOT_OK(po.status);
    if (po.skipped) {
      ++out.num_skipped_partitions;
      continue;
    }
    if (po.degraded) ++out.degraded_partitions;
    DPC_RETURN_NOT_OK(out.synthetic.Concat(po.synth));
  }
  obs::Log(obs::LogLevel::kInfo, "hybrid.done")
      .Field("partitions", out.num_partitions)
      .Field("skipped", out.num_skipped_partitions)
      .Field("degraded", out.degraded_partitions)
      .Field("rows", out.synthetic.num_rows());
  return out;
}

}  // namespace dpcopula::core
