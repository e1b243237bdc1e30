#include "hist/dct.h"

#include <cmath>
#include <cstdint>
#include <utility>

namespace dpcopula::hist {

namespace {

struct Complex {
  double re;
  double im;
};

Complex Mul(Complex a, Complex b) {
  return {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
}

Complex Conj(Complex a) { return {a.re, -a.im}; }

/// The first quadrant of the 4q-th roots of unity: w[j] = e^{-2 pi i j / 4q}
/// for j = 0..q. Only j <= q/2 calls cos/sin; the rest follow from the
/// reflection w[q - j] = -i conj(w[j]).
std::vector<Complex> QuarterRoots(std::size_t q) {
  std::vector<Complex> w(q + 1);
  const double step = M_PI / (2.0 * static_cast<double>(q));
  for (std::size_t j = 0; 2 * j <= q; ++j) {
    const double c = std::cos(step * static_cast<double>(j));
    const double s = std::sin(step * static_cast<double>(j));
    w[j] = {c, -s};
    w[q - j] = {s, -c};
  }
  return w;
}

/// e^{-2 pi i j / 4q} for any j, from the first quadrant by rotating
/// through multiples of -i.
Complex Root(const std::vector<Complex>& quarter, std::size_t j) {
  const std::size_t q = quarter.size() - 1;
  const Complex w = quarter[j % q];
  switch ((j / q) % 4) {
    case 0: return w;
    case 1: return {w.im, -w.re};
    case 2: return {-w.re, -w.im};
    default: return {-w.im, w.re};
  }
}

/// The radix-2 twiddles e^{-2 pi i j / m}, j < m / 2, for m = 4q / step,
/// read from the 4q-th roots of unity in `quarter`.
std::vector<Complex> Radix2Twiddles(const std::vector<Complex>& quarter,
                                    std::size_t step) {
  std::vector<Complex> twiddles(2 * (quarter.size() - 1) / step);
  for (std::size_t j = 0; j < twiddles.size(); ++j) {
    twiddles[j] = Root(quarter, j * step);
  }
  return twiddles;
}

/// In-place forward DFT (sign -1, unnormalised) of power-of-two length
/// a.size(): iterative radix-2 decimation in time. `twiddles[j]` holds
/// e^{-2 pi i j / a.size()} for j < a.size() / 2.
void Radix2Fft(std::vector<Complex>& a,
               const std::vector<Complex>& twiddles) {
  const std::size_t m = a.size();
  for (std::size_t i = 1, j = 0; i < m; ++i) {
    std::size_t bit = m >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= m; len <<= 1) {
    const std::size_t half = len >> 1;
    const std::size_t stride = m / len;
    for (std::size_t start = 0; start < m; start += len) {
      for (std::size_t j = 0; j < half; ++j) {
        const Complex u = a[start + j];
        const Complex v = Mul(a[start + j + half], twiddles[j * stride]);
        a[start + j] = {u.re + v.re, u.im + v.im};
        a[start + j + half] = {u.re - v.re, u.im - v.im};
      }
    }
  }
}

/// In-place forward DFT (sign -1, unnormalised) of any length N = a.size()
/// >= 1; `quarter` is QuarterRoots(N). Powers of two go straight to the
/// radix-2 core; other lengths use Bluestein's chirp-z identity
/// nk = (n^2 + k^2 - (k - n)^2) / 2, which turns the DFT into a circular
/// convolution of power-of-two length >= 2N - 1. The chirp
/// e^{-i pi k^2 / N} is the 4N-th root of index 2 (k^2 mod 2N), reduced in
/// integers so it stays exact for large k.
void Dft(std::vector<Complex>& a, const std::vector<Complex>& quarter) {
  const std::size_t n = a.size();
  if (n == 1) return;
  if ((n & (n - 1)) == 0) {
    Radix2Fft(a, Radix2Twiddles(quarter, 4));
    return;
  }
  std::size_t m = 1;
  while (m < 2 * n - 1) m <<= 1;
  const std::vector<Complex> twiddles = Radix2Twiddles(QuarterRoots(m / 4), 1);

  std::vector<Complex> chirp(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t k64 = k;
    chirp[k] = Root(quarter, 2 * (k64 * k64 % (2 * n)));
  }
  std::vector<Complex> x(m, Complex{0.0, 0.0});
  std::vector<Complex> kernel(m, Complex{0.0, 0.0});
  for (std::size_t k = 0; k < n; ++k) x[k] = Mul(a[k], chirp[k]);
  kernel[0] = Conj(chirp[0]);
  for (std::size_t k = 1; k < n; ++k) {
    kernel[k] = kernel[m - k] = Conj(chirp[k]);
  }
  Radix2Fft(x, twiddles);
  Radix2Fft(kernel, twiddles);
  // Inverse transform as conj(DFT(conj(.))) / m.
  for (std::size_t k = 0; k < m; ++k) x[k] = Conj(Mul(x[k], kernel[k]));
  Radix2Fft(x, twiddles);
  const double inv_m = 1.0 / static_cast<double>(m);
  for (std::size_t k = 0; k < n; ++k) {
    const Complex c = Mul(Conj(x[k]), chirp[k]);
    a[k] = {c.re * inv_m, c.im * inv_m};
  }
}

}  // namespace

// Makhoul (1980): with v the even-indexed samples followed by the
// odd-indexed ones reversed, the unnormalised DCT-II is
// X_k = Re(e^{-i pi k / 2N} V_k), where V = DFT(v).
std::vector<double> ForwardDct(const std::vector<double>& x) {
  const std::size_t n = x.size();
  std::vector<double> out(n, 0.0);
  if (n == 0) return out;
  const std::vector<Complex> quarter = QuarterRoots(n);
  std::vector<Complex> v(n);
  for (std::size_t i = 0; 2 * i < n; ++i) v[i] = {x[2 * i], 0.0};
  for (std::size_t i = 0; 2 * i + 1 < n; ++i) {
    v[n - 1 - i] = {x[2 * i + 1], 0.0};
  }
  Dft(v, quarter);
  const double s0 = std::sqrt(1.0 / static_cast<double>(n));
  const double sk = std::sqrt(2.0 / static_cast<double>(n));
  for (std::size_t k = 0; k < n; ++k) {
    const Complex w = Mul(quarter[k], v[k]);  // e^{-i pi k / 2N} V_k
    out[k] = (k == 0 ? s0 : sk) * w.re;
  }
  return out;
}

// The same reordering run backwards: since v is real, V is Hermitian and
// e^{-i pi k / 2N} V_k = X_k - i X_{N-k} (X_N = 0), so V is rebuilt from
// the coefficients and v = IDFT(V), taken as conj(DFT(conj(V))) / N with
// the 1/N folded into the coefficient scale.
std::vector<double> InverseDct(const std::vector<double>& coeffs) {
  const std::size_t n = coeffs.size();
  std::vector<double> out(n, 0.0);
  if (n == 0) return out;
  // X_k / N of the unnormalised pair, in terms of the orthonormal c_k.
  const double s0 = std::sqrt(1.0 / static_cast<double>(n));
  const double sk = std::sqrt(0.5 / static_cast<double>(n));
  auto scaled = [&](std::size_t k) {
    return k == 0 ? s0 * coeffs[0] : k == n ? 0.0 : sk * coeffs[k];
  };
  const std::vector<Complex> quarter = QuarterRoots(n);
  std::vector<Complex> v(n);
  for (std::size_t k = 0; k < n; ++k) {
    // conj(e^{+i pi k / 2N} (X_k - i X_{N-k})), ready for the forward DFT.
    v[k] = Mul(quarter[k], Complex{scaled(k), scaled(n - k)});
  }
  Dft(v, quarter);
  for (std::size_t i = 0; 2 * i < n; ++i) out[2 * i] = v[i].re;
  for (std::size_t i = 0; 2 * i + 1 < n; ++i) {
    out[2 * i + 1] = v[n - 1 - i].re;
  }
  return out;
}

}  // namespace dpcopula::hist
