#ifndef DPCOPULA_OBS_SCOPE_H_
#define DPCOPULA_OBS_SCOPE_H_

#include <cstdint>
#include <iterator>
#include <string_view>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"

namespace dpcopula::obs {

/// Every instrumented stage of the library, the CLI tools and the serving
/// daemon. kStageTable below gives each one its span name, its histogram
/// and whether it is traced, so an instrumentation site names nothing but
/// the enumerator.
enum class Stage : int {
  // Leaf stages, timed into profile.<stage>_seconds. They are *disjoint*:
  // no leaf scope executes inside another (the stage-sum test in
  // profile_test enforces the consequence — with one thread, the leaf
  // totals sum to the wall time of the pipeline, minus only unscoped
  // glue). Scopes on ParallelFor workers accumulate worker time, so with T
  // threads the totals approach CPU seconds, not wall seconds.
  kCsvRead = 0,      // data::ReadCsv / ReadCsvTolerant.
  kCsvWrite,         // data::WriteCsv.
  kMarginPublish,    // One DP marginal: histogram + noise + CDF rebuild.
  kRankCacheBuild,   // stats::BuildRankColumn per column (Kendall).
  kTauPairs,         // One pairwise tau kernel invocation.
  kLaplaceNoise,     // Noise + clamp + sin transform of one tau.
  kMlePartitionFit,  // One MLE partition fit; indexed by partition.
  kPsdRepair,        // linalg::EnsureCorrelationMatrix.
  kCholesky,         // Cholesky decomposition ahead of sampling.
  kGaussianFill,     // Ziggurat Gaussian fill of one sampler tile.
  kCholeskyApply,    // Blocked triangular mat-mul over one tile.
  kInverseCdf,       // Guide-table inverse-CDF lookups of one tile.
  // Phases: inclusive spans that enclose leaf stages.
  kSynthesize,        // core::Synthesize; core.synthesize_seconds.
  kBudgetSplit,       // epsilon1 / epsilon2 split.
  kMargins,           // All m marginal releases.
  kCorrelation,       // Correlation estimate (or the empirical copula).
  kKendallEstimate,   // Algorithms 4/5.
  kKendallRankBuild,  // The per-column rank caches, all columns.
  kMleEstimate,       // Algorithms 1/2.
  kMlePseudoObs,      // Normal scores of every partition, all columns.
  kFamilySelection,   // Private t-dof / AIC votes.
  kSampling,          // Algorithm 3.
  kHybridSynthesize,  // Algorithm 6.
  kHybridPartition,   // One partition; hybrid.partition_seconds, indexed.
  kServeRequest,      // One protocol request; serve.request_seconds.
  kEvalWorkload,      // dpcopula_eval range-query workload.
  kEvalFidelity,      // dpcopula_eval fidelity metrics.
  kEvalDcr,           // dpcopula_eval distance to closest record.
  kNumStages,         // Sentinel, not a stage.
};

inline constexpr int kNumStages = static_cast<int>(Stage::kNumStages);

struct StageInfo {
  const char* name;       // Span name.
  const char* histogram;  // MetricsRegistry histogram, or nullptr.
  bool traced;            // False for tile- and pair-grain stages.
};

inline constexpr StageInfo kStageTable[] = {
    {"csv_read", "profile.csv_read_seconds", true},
    {"csv_write", "profile.csv_write_seconds", true},
    {"margin_publish", "profile.margin_publish_seconds", true},
    {"rank_cache_build", "profile.rank_cache_build_seconds", false},
    {"tau_pairs", "profile.tau_pairs_seconds", false},
    {"laplace_noise", "profile.laplace_noise_seconds", false},
    {"mle.partition_fit", "profile.mle_partition_fit_seconds", true},
    {"psd_repair", "profile.psd_repair_seconds", true},
    {"cholesky", "profile.cholesky_seconds", true},
    {"gaussian_fill", "profile.gaussian_fill_seconds", false},
    {"cholesky_apply", "profile.cholesky_apply_seconds", false},
    {"inverse_cdf", "profile.inverse_cdf_seconds", false},
    {"synthesize", "core.synthesize_seconds", true},
    {"budget_split", nullptr, true},
    {"margins", nullptr, true},
    {"correlation", nullptr, true},
    {"kendall.estimate", nullptr, true},
    {"kendall.rank_build", nullptr, true},
    {"mle.estimate", nullptr, true},
    {"mle.pseudo_obs", nullptr, true},
    {"family_selection", nullptr, true},
    {"sampling", nullptr, true},
    {"hybrid.synthesize", nullptr, true},
    {"hybrid.partition", "hybrid.partition_seconds", true},
    {"serve.request", "serve.request_seconds", true},
    {"eval.workload", nullptr, true},
    {"eval.fidelity", nullptr, true},
    {"eval.dcr", nullptr, true},
};
static_assert(std::size(kStageTable) == kNumStages,
              "one kStageTable row per Stage");

inline const StageInfo& InfoOf(Stage stage) {
  return kStageTable[static_cast<int>(stage)];
}
inline const char* StageName(Stage stage) { return InfoOf(stage).name; }

/// Identifier of a recorded span; 0 means "no span".
using SpanId = std::uint64_t;
inline constexpr SpanId kNoSpan = 0;
/// Index of a scope that is not one of many (partition number otherwise).
inline constexpr std::int64_t kNoIndex = -1;

/// One finished span. start_ns is relative to the tracer epoch (the last
/// Reset(), steady clock); wall_start_unix_ms anchors that epoch to wall
/// time for human consumption.
struct SpanRecord {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  std::string_view name;  // A kStageTable name: static storage.
  std::int64_t index = kNoIndex;
  std::int64_t start_ns = 0;
  std::int64_t duration_ns = 0;
  std::int64_t wall_start_unix_ms = 0;
  int thread_index = 0;
};

/// Process-wide collector of finished spans. Span records are appended
/// under a mutex when a traced Scope ends; the volume is phases and
/// partitions, not rows, so the lock is nowhere near any hot loop. The
/// buffer is capped (kMaxSpans) so a pathological run cannot grow without
/// bound — overflow is counted and reported instead of recorded.
class Tracer {
 public:
  static constexpr std::size_t kMaxSpans = 1 << 16;

  static Tracer& Global();

  /// Drops all recorded spans and restarts the epoch.
  void Reset();

  /// Copies out every finished span (in finish order).
  std::vector<SpanRecord> Snapshot() const;

  /// Spans dropped because the buffer was full.
  std::int64_t dropped() const;

 private:
  friend class Scope;
  Tracer();

  SpanId NextId();
  std::int64_t EpochNanos() const;
  void Record(const SpanRecord& record);

  struct Impl;
  Impl* impl_;
};

/// RAII instrumentation of one stage. When metrics are on it times the
/// stage into the stage's histogram; when tracing is on and the stage is
/// traced it records a span. Spans nest via a thread-local "current span":
/// a traced Scope constructed while another is active on the same thread
/// becomes its child. Work fanned out to pool workers does not inherit the
/// caller's thread-local, so cross-thread children pass the parent handle
/// explicitly:
///
///   obs::Scope run(obs::Stage::kHybridSynthesize);
///   const obs::SpanId parent = run.id();
///   ParallelFor(..., [&](std::size_t b, std::size_t e) {
///     for (std::size_t p = b; p < e; ++p) {
///       obs::Scope part(obs::Stage::kHybridPartition, p, parent);
///       ...
///     }
///   });
///
/// Disarmed (both switches off, or compiled out) construction is one
/// relaxed atomic load: no clock is read and nothing is allocated. Armed
/// updates are lock-free except the span append at the end.
class Scope {
 public:
  explicit Scope(Stage stage, std::int64_t index = kNoIndex)
      : Scope(stage, index, kThreadParent) {}
  Scope(Stage stage, std::int64_t index, SpanId parent) {
#if DPCOPULA_OBS_ENABLED
    const unsigned switches = internal::Switches();
    if (switches != 0) armed_ = Arm(stage, index, parent, switches);
#else
    (void)stage;
    (void)index;
    (void)parent;
#endif
  }
  ~Scope() {
#if DPCOPULA_OBS_ENABLED
    if (armed_) Finish();
#endif
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Handle for explicit cross-thread parenting; kNoSpan when no span is
  /// being recorded.
  SpanId id() const { return id_; }

 private:
  // Sentinel distinguishing "use the thread-local current span" from a
  // real (possibly kNoSpan) explicit parent.
  static constexpr SpanId kThreadParent = ~SpanId{0};

  /// Starts the timer and, for a traced stage under the trace switch, the
  /// span. False when `switches` arm neither for this stage.
  bool Arm(Stage stage, std::int64_t index, SpanId parent, unsigned switches);
  void Finish();

  bool armed_ = false;
  SpanId id_ = kNoSpan;
  // Written by Arm() and read only by an armed scope: leaving them
  // uninitialized keeps the disarmed path down to the switch load.
  Histogram* histogram_;
  SpanId parent_;
  SpanId saved_current_;
  Stage stage_;
  std::int64_t index_;
  std::int64_t wall_start_unix_ms_;
  std::int64_t start_ns_;  // steady_clock, nanoseconds since its epoch.
};

}  // namespace dpcopula::obs

#endif  // DPCOPULA_OBS_SCOPE_H_
