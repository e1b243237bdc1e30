#include "reference/dct.h"

#include <cmath>

namespace dpcopula::reference {

std::vector<double> ForwardDctDirect(const std::vector<double>& x) {
  const std::size_t n = x.size();
  std::vector<double> out(n, 0.0);
  if (n == 0) return out;
  const double pi_over_n = M_PI / static_cast<double>(n);
  const double s0 = std::sqrt(1.0 / static_cast<double>(n));
  const double sk = std::sqrt(2.0 / static_cast<double>(n));
  for (std::size_t k = 0; k < n; ++k) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += x[i] * std::cos(pi_over_n * (static_cast<double>(i) + 0.5) *
                             static_cast<double>(k));
    }
    out[k] = (k == 0 ? s0 : sk) * acc;
  }
  return out;
}

std::vector<double> InverseDctDirect(const std::vector<double>& coeffs) {
  const std::size_t n = coeffs.size();
  std::vector<double> out(n, 0.0);
  if (n == 0) return out;
  const double pi_over_n = M_PI / static_cast<double>(n);
  const double s0 = std::sqrt(1.0 / static_cast<double>(n));
  const double sk = std::sqrt(2.0 / static_cast<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    double acc = s0 * coeffs[0];
    for (std::size_t k = 1; k < n; ++k) {
      acc += sk * coeffs[k] *
             std::cos(pi_over_n * (static_cast<double>(i) + 0.5) *
                      static_cast<double>(k));
    }
    out[i] = acc;
  }
  return out;
}

}  // namespace dpcopula::reference
