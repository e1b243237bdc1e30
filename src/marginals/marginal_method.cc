#include "marginals/marginal_method.h"

#include "marginals/dwork.h"
#include "marginals/efpa.h"
#include "marginals/noisefirst.h"
#include "marginals/structurefirst.h"
#include "obs/metrics.h"

namespace dpcopula::marginals {

namespace {

// One publish counter per method, created lazily on the first publish and
// cached for the process lifetime. Indexed by the enum so the hot path never
// builds a metric-name string. Publish latency is core::Synthesize's
// margin_publish stage.
obs::Counter* PublishesFor(MarginalMethod method) {
  static obs::Counter* const efpa =
      obs::MetricsRegistry::Global().GetCounter("marginals.efpa.publishes");
  static obs::Counter* const dwork =
      obs::MetricsRegistry::Global().GetCounter("marginals.dwork.publishes");
  static obs::Counter* const noisefirst =
      obs::MetricsRegistry::Global().GetCounter(
          "marginals.noisefirst.publishes");
  static obs::Counter* const structurefirst =
      obs::MetricsRegistry::Global().GetCounter(
          "marginals.structurefirst.publishes");
  switch (method) {
    case MarginalMethod::kDwork:
      return dwork;
    case MarginalMethod::kNoiseFirst:
      return noisefirst;
    case MarginalMethod::kStructureFirst:
      return structurefirst;
    case MarginalMethod::kEfpa:
      break;
  }
  return efpa;
}

}  // namespace

const char* MarginalMethodName(MarginalMethod method) {
  switch (method) {
    case MarginalMethod::kEfpa:
      return "efpa";
    case MarginalMethod::kDwork:
      return "dwork";
    case MarginalMethod::kNoiseFirst:
      return "noisefirst";
    case MarginalMethod::kStructureFirst:
      return "structurefirst";
  }
  return "unknown";
}

Result<std::vector<double>> PublishMarginal(MarginalMethod method,
                                            const std::vector<double>& counts,
                                            double epsilon, Rng* rng) {
  PublishesFor(method)->Increment();
  switch (method) {
    case MarginalMethod::kEfpa:
      return PublishEfpaHistogram(counts, epsilon, rng);
    case MarginalMethod::kDwork:
      return PublishDworkHistogram(counts, epsilon, rng);
    case MarginalMethod::kNoiseFirst:
      return PublishNoiseFirstHistogram(counts, epsilon, rng);
    case MarginalMethod::kStructureFirst:
      return PublishStructureFirstHistogram(counts, epsilon, rng);
  }
  return Status::InvalidArgument("unknown marginal method");
}

}  // namespace dpcopula::marginals
