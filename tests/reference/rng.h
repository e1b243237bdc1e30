#ifndef DPCOPULA_TESTS_REFERENCE_RNG_H_
#define DPCOPULA_TESTS_REFERENCE_RNG_H_

#include <cmath>

#include "common/rng.h"

namespace dpcopula::reference {

/// Standard normal deviates by the Marsaglia polar method, caching the
/// second deviate of each accepted pair: the Gaussian stream Rng produced
/// before the ziggurat. Draws its uniforms from `rng`, which it does not
/// own and which must outlive it. Use one instance per generator (e.g. per
/// shard RNG) to reproduce the old per-Rng cache.
class PolarGaussian {
 public:
  explicit PolarGaussian(Rng* rng) : rng_(rng) {}

  // Defined here so the reference samplers' per-cell calls inline, as
  // they did when this was an Rng member.
  double Next() {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    double u, v, s;
    do {
      u = 2.0 * rng_->NextDouble() - 1.0;
      v = 2.0 * rng_->NextDouble() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    cached_ = v * factor;
    has_cached_ = true;
    return u * factor;
  }

 private:
  Rng* rng_;
  double cached_ = 0.0;
  bool has_cached_ = false;
};

}  // namespace dpcopula::reference

#endif  // DPCOPULA_TESTS_REFERENCE_RNG_H_
