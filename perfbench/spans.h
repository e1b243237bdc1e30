// In-memory span recorder for the benchmark's traced runs.
//
// A span is one call from the benchmark into a layer's public function:
// name, layer, start, end, the enclosing span and the run it belongs to.
// Spans are kept in memory and written as JSON when the benchmark ends.
// A span's self time is its duration minus the time its direct children
// cover; the benchmark is single-threaded where it records spans, so
// children never overlap.
#ifndef DPCOPULA_PERFBENCH_SPANS_H_
#define DPCOPULA_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string layer;
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    int run = 0;
  };

  /// Opens a span under the innermost open one; returns its index.
  int Open(const std::string& layer, const std::string& name, int run) {
    Span span;
    span.layer = layer;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.run = run;
    span.start_ns = NowNs();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void Close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  double DurationSeconds(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  /// Self time of every span, in seconds, indexed like spans().
  std::vector<double> SelfSeconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = DurationSeconds(static_cast<int>(i));
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        self[static_cast<std::size_t>(spans_[i].parent)] -=
            DurationSeconds(static_cast<int>(i));
      }
    }
    return self;
  }

  /// Sum of self time per span name over the spans of `run` that descend
  /// from the span `root` (the root itself excluded).
  std::map<std::string, double> SelfByName(int run, int root) const {
    const std::vector<double> self = SelfSeconds();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].run != run || !Descends(static_cast<int>(i), root)) {
        continue;
      }
      out[spans_[i].name] += self[i];
    }
    return out;
  }

  /// Writes every span as a JSON array of objects. Returns false on I/O
  /// failure.
  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"layer\": \"%s\", \"name\": \"%s\", "
                   "\"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %d, "
                   "\"run\": %d}%s\n",
                   i, s.layer.c_str(), s.name.c_str(),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent, s.run,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  static std::int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool Descends(int id, int root) const {
    for (int p = spans_[static_cast<std::size_t>(id)].parent; p >= 0;
         p = spans_[static_cast<std::size_t>(p)].parent) {
      if (p == root) return true;
    }
    return false;
  }

  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Closes its span when it goes out of scope.
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, const std::string& layer,
            const std::string& name, int run)
      : recorder_(recorder), id_(recorder->Open(layer, name, run)) {}
  ~SpanScope() { recorder_->Close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace perfbench

#endif  // DPCOPULA_PERFBENCH_SPANS_H_
