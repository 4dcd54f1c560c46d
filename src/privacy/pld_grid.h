#ifndef PLP_PRIVACY_PLD_GRID_H_
#define PLP_PRIVACY_PLD_GRID_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace plp::privacy {

/// Discretization of a privacy-loss distribution (Koskela et al.,
/// "Computing Tight Differential Privacy Guarantees Using FFT",
/// arXiv:1906.03049). Losses are binned on a uniform grid over
/// (−grid_range, grid_range]; n-fold composition is a pointwise power in
/// the Fourier domain. Mass falling past either end of the grid is
/// handled pessimistically: the right tail contributes to δ in full, the
/// left tail is rounded up into the lowest bin. Accuracy degrades (toward
/// over-estimating ε, never under the discretization's control knobs)
/// when the composed loss mass approaches ±grid_range — pick grid_range
/// comfortably above the target ε.
///
/// PldAccountant, the one PLD accountant (the "pld_fft" stage),
/// discretizes, composes and inverts δ(ε) with the helpers below.
struct PldOptions {
  int32_t log2_grid_size = 15;  ///< n = 2^15 loss bins
  double grid_range = 32.0;     ///< losses discretized on (−R, R]
};

namespace pld_grid {

/// Φ(x), the standard normal CDF.
double StdNormalCdf(double x);

/// FFT wrap-around storage index of loss-ordered bin `t`: the bin is
/// stored at (t + n/2 + 1) mod n so that array index i represents loss
/// i·Δ (negative losses in the top half). With that convention index sums
/// equal loss sums and circular convolution composes losses with no
/// origin offset; binning losses at −R + (t+1)·Δ directly by t would
/// instead shift every composition's origin by (k−1)·(R − Δ) (mod 2R)
/// after k steps.
inline size_t WrapIndex(size_t t, size_t n) { return (t + n / 2 + 1) % n; }

/// The bit reversal of i + 1 in log2(n) bits, given j, that of i: the
/// counter an in-place radix-2 FFT's swap pass walks. Wraps to 0 after
/// n − 1.
inline size_t NextBitReversed(size_t j, size_t n) {
  size_t bit = n >> 1;
  for (; j & bit; bit >>= 1) j ^= bit;
  return j ^ bit;
}

/// Reorders data[0, n) into bit-reversed index order (n a power of two).
void BitReversePermute(double* data, size_t n);

/// Tabulates the twiddle factors of every stage of an n-point radix-2 FFT
/// in one direction (inverse: e^{+2πi/n} roots) into re[0, n−1) and
/// im[0, n−1): the stage that combines half-blocks of `half` values gets
/// its `half` factors from offset half − 1. They are the textbook in-place
/// loop's own recurrence over std::complex<double>, w ← w·root from w = 1.
void FillTwiddles(size_t n, bool inverse, double* re, double* im);

/// In-place iterative radix-2 FFT of n values held as split real and
/// imaginary arrays, whose input is already in bit-reversed index order
/// (see BitReversePermute), with the twiddles of FillTwiddles. The
/// inverse does not divide by n; the caller scales what it reads.
/// Bit-identical to the textbook in-place loop over std::complex<double>:
/// the tabulated twiddles are that loop's, and each butterfly forms odd·w
/// as (ac − bd, ad + bc), which is what std::complex multiplication
/// returns for finite operands. ISO C++ builds keep FMA contraction off,
/// so no product is fused.
void Fft(size_t n, double* re, double* im, const double* twiddle_re,
         const double* twiddle_im);

/// δ(ε) of a loss-ascending pmf over (−R, R] with bin right edges
/// s_j = −R + (j+1)·Δ, plus the truncated mass (which contributes to δ in
/// full): Σ_{s_j > ε} pmf[j]·(1 − e^{ε−s_j}) + inf_mass, clamped to 1.
double DeltaAtEpsilon(const std::vector<double>& pmf, double inf_mass,
                      double range, double epsilon);

/// One loss grid of PldOptions and the tables every evaluation on it
/// shares, filled once: the inverse FFT's twiddles, and e^{−s_j} at every
/// bin's right edge s_j = −R + (j+1)·Δ.
class Grid {
 public:
  explicit Grid(const PldOptions& options);

  size_t size() const { return exp_neg_edge_.size(); }

  /// Fft in the inverse direction, unscaled.
  void InverseFft(double* re, double* im) const;

  /// Smallest grid-resolvable ε such that DeltaAtEpsilon(ε) <= delta, via
  /// suffix sums (each δ(ε) probe is O(1)) and bisection over [0, R].
  /// Returns +infinity when even ε = R cannot meet delta (the grid is too
  /// small for the spend). The suffix sums are written to the caller's
  /// scratch arrays of size() values each.
  double EpsilonForDelta(const std::vector<double>& pmf, double inf_mass,
                         double delta, double* suffix_mass,
                         double* suffix_weighted) const;

 private:
  double range_;
  double width_;  ///< Δ = 2R / n
  std::vector<double> inverse_twiddle_re_;  ///< see FillTwiddles
  std::vector<double> inverse_twiddle_im_;
  std::vector<double> exp_neg_edge_;
};

}  // namespace pld_grid

}  // namespace plp::privacy

#endif  // PLP_PRIVACY_PLD_GRID_H_
