#include "obs/scope.h"

#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <utility>

namespace dpcopula::obs {

namespace {

// Innermost traced scope on this thread (kNoSpan outside any).
thread_local SpanId t_current_span = kNoSpan;

std::int64_t SteadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The registry histogram of every stage that has one, registered together
/// by the first scope armed with metrics on, so every report lists the same
/// stage set.
Histogram* StageHistogram(Stage stage) {
  static const std::array<Histogram*, kNumStages> histograms = [] {
    std::array<Histogram*, kNumStages> h{};
    for (int i = 0; i < kNumStages; ++i) {
      if (kStageTable[i].histogram == nullptr) continue;
      h[i] = MetricsRegistry::Global().GetHistogram(kStageTable[i].histogram);
    }
    return h;
  }();
  return histograms[static_cast<int>(stage)];
}

}  // namespace

struct Tracer::Impl {
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::int64_t> dropped{0};
  // Steady-clock nanos of the current epoch; atomic so Reset() can race
  // with span creation without a TSan report (observability tolerates a
  // torn epoch, the release never depends on it).
  std::atomic<std::int64_t> epoch_nanos{SteadyNowNanos()};
  mutable std::mutex mu;
  std::vector<SpanRecord> records;
};

Tracer::Tracer() : impl_(new Impl) {}

Tracer& Tracer::Global() {
  // Leaked on purpose, like the thread pool: spans may finish during
  // static destruction.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->records.clear();
  impl_->dropped.store(0, std::memory_order_relaxed);
  impl_->next_id.store(1, std::memory_order_relaxed);
  impl_->epoch_nanos.store(SteadyNowNanos(), std::memory_order_relaxed);
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->records;
}

std::int64_t Tracer::dropped() const {
  return impl_->dropped.load(std::memory_order_relaxed);
}

SpanId Tracer::NextId() {
  return impl_->next_id.fetch_add(1, std::memory_order_relaxed);
}

std::int64_t Tracer::EpochNanos() const {
  return impl_->epoch_nanos.load(std::memory_order_relaxed);
}

void Tracer::Record(const SpanRecord& record) {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->records.size() < kMaxSpans) {
      impl_->records.push_back(record);
      return;
    }
    impl_->dropped.fetch_add(1, std::memory_order_relaxed);
  }
  // Surface the overflow where dashboards already look. Outside the span
  // lock: GetCounter takes the registry mutex on first use.
  static Counter* dropped_counter =
      MetricsRegistry::Global().GetCounter("trace.spans_dropped");
  dropped_counter->Increment();
}

bool Scope::Arm(Stage stage, std::int64_t index, SpanId parent,
                unsigned switches) {
  const StageInfo& info = InfoOf(stage);
  histogram_ = (switches & internal::kMetricsSwitch) != 0
                   ? StageHistogram(stage)
                   : nullptr;
  if ((switches & internal::kTraceSwitch) != 0 && info.traced) {
    id_ = Tracer::Global().NextId();
    parent_ = parent == kThreadParent ? t_current_span : parent;
    saved_current_ = std::exchange(t_current_span, id_);
    stage_ = stage;
    index_ = index;
    wall_start_unix_ms_ =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
  }
  if (histogram_ == nullptr && id_ == kNoSpan) return false;
  start_ns_ = SteadyNowNanos();
  return true;
}

void Scope::Finish() {
  const std::int64_t elapsed_ns = SteadyNowNanos() - start_ns_;
  if (histogram_ != nullptr) {
    histogram_->Observe(static_cast<double>(elapsed_ns) / 1e9);
  }
  if (id_ == kNoSpan) return;
  t_current_span = saved_current_;
  Tracer& tracer = Tracer::Global();
  SpanRecord record;
  record.id = id_;
  record.parent = parent_;
  record.name = StageName(stage_);
  record.index = index_;
  record.start_ns = start_ns_ - tracer.EpochNanos();
  record.duration_ns = elapsed_ns;
  record.wall_start_unix_ms = wall_start_unix_ms_;
  record.thread_index = internal::ThreadIndex();
  tracer.Record(record);
}

}  // namespace dpcopula::obs
