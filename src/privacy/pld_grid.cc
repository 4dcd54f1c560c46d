#include "privacy/pld_grid.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <utility>

namespace plp::privacy::pld_grid {

double StdNormalCdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

void BitReversePermute(double* data, size_t n) {
  for (size_t i = 1, j = NextBitReversed(0, n); i < n;
       ++i, j = NextBitReversed(j, n)) {
    if (i < j) std::swap(data[i], data[j]);
  }
}

void FillTwiddles(size_t n, bool inverse, double* re, double* im) {
  for (size_t half = 1; half < n; half <<= 1) {
    const double angle =
        (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(2 * half);
    const std::complex<double> root(std::cos(angle), std::sin(angle));
    std::complex<double> w(1.0, 0.0);
    for (size_t k = 0; k < half; ++k) {
      re[half - 1 + k] = w.real();
      im[half - 1 + k] = w.imag();
      w *= root;
    }
  }
}

void Fft(size_t n, double* re, double* im, const double* twiddle_re,
         const double* twiddle_im) {
  for (size_t half = 1; half < n; half <<= 1) {
    const double* w_re = twiddle_re + (half - 1);
    const double* w_im = twiddle_im + (half - 1);
    for (size_t block = 0; block < n; block += 2 * half) {
      double* even_re = re + block;
      double* even_im = im + block;
      double* odd_re = even_re + half;
      double* odd_im = even_im + half;
      for (size_t k = 0; k < half; ++k) {
        const double a = odd_re[k];
        const double b = odd_im[k];
        const double c = w_re[k];
        const double d = w_im[k];
        const double t_re = a * c - b * d;
        const double t_im = a * d + b * c;
        const double e_re = even_re[k];
        const double e_im = even_im[k];
        even_re[k] = e_re + t_re;
        even_im[k] = e_im + t_im;
        odd_re[k] = e_re - t_re;
        odd_im[k] = e_im - t_im;
      }
    }
  }
}

Grid::Grid(const PldOptions& options)
    : range_(options.grid_range),
      width_(2.0 * options.grid_range /
             static_cast<double>(size_t{1} << options.log2_grid_size)) {
  const size_t n = size_t{1} << options.log2_grid_size;
  inverse_twiddle_re_.resize(n - 1);
  inverse_twiddle_im_.resize(n - 1);
  FillTwiddles(n, /*inverse=*/true, inverse_twiddle_re_.data(),
               inverse_twiddle_im_.data());
  exp_neg_edge_.resize(n);
  for (size_t j = 0; j < n; ++j) {
    const double edge = -range_ + static_cast<double>(j + 1) * width_;
    exp_neg_edge_[j] = std::exp(-edge);
  }
}

void Grid::InverseFft(double* re, double* im) const {
  Fft(size(), re, im, inverse_twiddle_re_.data(),
      inverse_twiddle_im_.data());
}

double DeltaAtEpsilon(const std::vector<double>& pmf, double inf_mass,
                      double range, double epsilon) {
  const size_t n = pmf.size();
  const double width = 2.0 * range / static_cast<double>(n);
  double tail = 0.0;
  // Iterate from the top of the grid down to the first edge ≤ ε; the
  // integrand (1 − e^{ε−s}) is positive only for s > ε.
  for (size_t j = n; j-- > 0;) {
    const double edge = -range + static_cast<double>(j + 1) * width;
    if (edge <= epsilon) break;
    tail += pmf[j] * (1.0 - std::exp(epsilon - edge));
  }
  return std::min(1.0, inf_mass + tail);
}

double Grid::EpsilonForDelta(const std::vector<double>& pmf, double inf_mass,
                             double delta, double* suffix_mass,
                             double* suffix_weighted) const {
  const size_t n = size();
  const double range = range_;
  const double width = width_;
  // For bins above a cut index c, δ = Σ_{j≥c} pmf[j] − e^ε Σ_{j≥c}
  // pmf[j]·e^{−s_j}. The sums run serially from the top bin down.
  double mass = 0.0;
  double weighted = 0.0;
  for (size_t j = n; j-- > 0;) {
    mass += pmf[j];
    weighted += pmf[j] * exp_neg_edge_[j];
    suffix_mass[j] = mass;
    suffix_weighted[j] = weighted;
  }
  const auto delta_at = [&](double eps) {
    // First bin whose right edge exceeds eps.
    const double position = (eps + range) / width;
    size_t cut = 0;
    if (position >= static_cast<double>(n)) {
      cut = n;
    } else if (position > 0.0) {
      cut = static_cast<size_t>(position);
      // Edges are s_j = −R + (j+1)Δ; bin j participates iff s_j > eps.
      const double edge = -range + static_cast<double>(cut + 1) * width;
      if (edge <= eps) ++cut;
    }
    if (cut >= n) return std::min(1.0, inf_mass);
    const double tail =
        suffix_mass[cut] - std::exp(eps) * suffix_weighted[cut];
    return std::min(1.0, inf_mass + std::max(0.0, tail));
  };
  if (delta_at(range) > delta) {
    return std::numeric_limits<double>::infinity();
  }
  double lo = 0.0;
  double hi = range;
  if (delta_at(lo) <= delta) return 0.0;
  for (int iter = 0; iter < 100; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (delta_at(mid) <= delta) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace plp::privacy::pld_grid
