#ifndef DPCOPULA_TESTS_REFERENCE_DCT_H_
#define DPCOPULA_TESTS_REFERENCE_DCT_H_

#include <vector>

namespace dpcopula::reference {

/// Orthonormal DCT-II and DCT-III by direct O(N^2) evaluation of the
/// defining sums, with cos() in the inner loop: the transform that
/// hist::ForwardDct / hist::InverseDct's FFT path replaced, kept as their
/// accuracy oracle and as the speedup denominator in the micro benches.
std::vector<double> ForwardDctDirect(const std::vector<double>& x);
std::vector<double> InverseDctDirect(const std::vector<double>& coeffs);

}  // namespace dpcopula::reference

#endif  // DPCOPULA_TESTS_REFERENCE_DCT_H_
