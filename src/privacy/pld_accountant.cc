#include "privacy/pld_accountant.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>

#include "common/check.h"
#include "privacy/pld_grid.h"

namespace plp::privacy {
namespace {

using pld_grid::NextBitReversed;
using pld_grid::StdNormalCdf;
using pld_grid::WrapIndex;

constexpr uint32_t kBlobMagic = 0x31444C50;      // "PLD1" little-endian
constexpr uint32_t kMog1BlobMagic = 0x31474F4D;  // "MOG1" little-endian
constexpr uint64_t kMaxEntries = 1u << 20;

/// MOG1 entry scheme bytes.
constexpr uint8_t kMog1Poisson = 1;
constexpr uint8_t kMog1FixedBatch = 2;

/// CDF of the dominating distribution P = (1−p)N(0,σ²) + pN(1,σ²).
double UpperCdf(double p, double sigma, double x) {
  return (1.0 - p) * StdNormalCdf(x / sigma) +
         p * StdNormalCdf((x - 1.0) / sigma);
}

/// x achieving privacy loss s: the inverse of the strictly increasing
/// L(x) = log(1−p+p·e^{(2x−1)/(2σ²)}). −infinity when no x reaches s
/// (s ≤ log(1−p), the loss function's infimum).
double LossInverse(double p, double sigma, double s) {
  const double shifted = std::exp(s) - (1.0 - p);
  if (shifted <= 0.0) return -std::numeric_limits<double>::infinity();
  return 0.5 + sigma * sigma * std::log(shifted / p);
}

/// Calls emit(i, re, im) with z_i^k for every bin i of a polar DFT, in
/// bin order: exp(k·log|z|) times (cos kθ, sin kθ), the libm calls the
/// complex form z^k = r^k·e^{ikθ} makes, on the same arguments. Where the
/// magnitude underflows to exactly 0 (always where z = 0, log|z| = −∞),
/// emits (0, 0) and skips cos and sin. The product would be a zero of
/// either sign there, and the sign of a zero never reaches the pmf: every
/// later step is +, − or a product with a finite factor, which keeps each
/// value bit-equal or zero on both sides, and the rotation out of the
/// inverse FFT maps either zero to +0.
template <typename Emit>
void ForEachPower(const std::vector<double>& log_magnitude,
                  const std::vector<double>& phase, int64_t steps,
                  Emit&& emit) {
  const double k = static_cast<double>(steps);
  for (size_t i = 0; i < log_magnitude.size(); ++i) {
    const double magnitude = std::exp(k * log_magnitude[i]);
    if (magnitude == 0.0) {
      emit(i, 0.0, 0.0);
      continue;
    }
    const double angle = k * phase[i];
    emit(i, magnitude * std::cos(angle), magnitude * std::sin(angle));
  }
}

Status ValidateEntry(const PldEntry& entry) {
  if (!(entry.participation_probability > 0.0) ||
      entry.participation_probability > 1.0) {
    return InvalidArgumentError("sampling probability must be in (0, 1]");
  }
  if (!(entry.noise_multiplier > 0.0)) {
    return InvalidArgumentError("noise multiplier must be > 0");
  }
  if (entry.steps <= 0) return InvalidArgumentError("steps must be > 0");
  return Status::Ok();
}

/// One PLD1 entry: (p, σ, steps).
Result<PldEntry> ReadPld1Entry(ByteReader& reader) {
  PldEntry entry;
  PLP_ASSIGN_OR_RETURN(entry.participation_probability, reader.F64());
  PLP_ASSIGN_OR_RETURN(entry.noise_multiplier, reader.F64());
  PLP_ASSIGN_OR_RETURN(entry.steps, reader.I64());
  return entry;
}

/// One MOG1 entry: (scheme, ratio, B, N, σ, ω, steps). p is the ratio q
/// of a Poisson entry and B/N of a fixed-batch one, whose recorded ratio
/// is informational only. ω does not enter ε; it is range-checked as the
/// mog accountant always did.
Result<PldEntry> ReadMog1Entry(ByteReader& reader) {
  PLP_ASSIGN_OR_RETURN(const uint8_t scheme, reader.U8());
  if (scheme != kMog1Poisson && scheme != kMog1FixedBatch) {
    return InvalidArgumentError("MOG1 blob: unknown sampling scheme");
  }
  PldEntry entry;
  PLP_ASSIGN_OR_RETURN(const double ratio, reader.F64());
  PLP_ASSIGN_OR_RETURN(const int64_t batch_size, reader.I64());
  PLP_ASSIGN_OR_RETURN(const int64_t population, reader.I64());
  PLP_ASSIGN_OR_RETURN(entry.noise_multiplier, reader.F64());
  PLP_ASSIGN_OR_RETURN(const int32_t split_factor, reader.I32());
  PLP_ASSIGN_OR_RETURN(entry.steps, reader.I64());
  if (split_factor < 1 || split_factor > kMogMaxSplitFactor) {
    return InvalidArgumentError("MOG1 blob: split factor must be in [1, 64]");
  }
  if (scheme == kMog1Poisson) {
    entry.participation_probability = ratio;
    return entry;
  }
  if (population < 1 || batch_size < 1 || batch_size > population) {
    return InvalidArgumentError(
        "MOG1 blob: fixed batch requires 1 <= batch_size <= population");
  }
  entry.participation_probability =
      static_cast<double>(batch_size) / static_cast<double>(population);
  return entry;
}

}  // namespace

PldAccountant::PldAccountant(double delta, const PldOptions& options)
    : delta_(delta), options_(options) {
  PLP_CHECK_GT(delta_, 0.0);
  PLP_CHECK_LT(delta_, 1.0);
  PLP_CHECK_GE(options_.log2_grid_size, 4);
  PLP_CHECK_LE(options_.log2_grid_size, 24);
  PLP_CHECK_GT(options_.grid_range, 0.0);
}

Status PldAccountant::AddSteps(double p, double sigma, int64_t steps) {
  PLP_RETURN_IF_ERROR(ValidateEntry({p, sigma, steps}));
  if (!entries_.empty() && entries_.back().participation_probability == p &&
      entries_.back().noise_multiplier == sigma) {
    entries_.back().steps += steps;
  } else {
    entries_.push_back({p, sigma, steps});
  }
  total_steps_ += steps;
  return Status::Ok();
}

pld_grid::Grid& PldAccountant::EnsureGrid() const {
  if (!eval_.grid) {
    eval_.grid.emplace(options_);
    const size_t n = eval_.grid->size();
    eval_.re.resize(n);
    eval_.im.resize(n);
    eval_.pmf.resize(n);
  }
  return *eval_.grid;
}

const PldAccountant::StepPld& PldAccountant::StepPldFor(double p,
                                                        double sigma) const {
  StepPld& step = eval_.step;
  if (step.p == p && step.sigma == sigma) return step;
  pld_grid::Grid& grid = EnsureGrid();
  const size_t n = grid.size();
  const double range = options_.grid_range;
  const double width = 2.0 * range / static_cast<double>(n);

  // The DFT is computed in the cache's own arrays: the real pmf goes into
  // log_magnitude, zeros into phase, and each bin is turned into polar
  // form in place. The forward transform runs once per distinct (p, σ),
  // so its twiddles go into the evaluation scratch, which holds nothing
  // between calls, instead of a second table kept beside the inverse one.
  std::vector<double>& re = step.log_magnitude;
  std::vector<double>& im = step.phase;
  re.assign(n, 0.0);
  im.assign(n, 0.0);
  // Loss-ordered bin t (t = 0 … n−1) holds the P-mass of losses in
  // (s_t − Δ, s_t] with right edge s_t = −R + (t+1)·Δ — mass rounds *up*
  // to the edge, so every bin's contribution to δ(ε) is over- rather than
  // under-counted. The running CDF starts at 0, so mass below the grid
  // lumps into bin t = 0 (also rounding up); mass above it is the
  // truncated tail that contributes to δ in full. Bins are stored at
  // their FFT wrap-around index (see pld_grid::WrapIndex).
  double previous_cdf = 0.0;
  for (size_t t = 0; t < n; ++t) {
    const double edge = -range + static_cast<double>(t + 1) * width;
    const double x = LossInverse(p, sigma, edge);
    const double cdf = std::isinf(x) ? 0.0 : UpperCdf(p, sigma, x);
    re[WrapIndex(t, n)] = std::max(0.0, cdf - previous_cdf);
    previous_cdf = std::max(cdf, previous_cdf);
  }
  step.inf_mass = std::max(0.0, 1.0 - previous_cdf);
  pld_grid::BitReversePermute(re.data(), n);
  pld_grid::FillTwiddles(n, /*inverse=*/false, eval_.re.data(),
                         eval_.im.data());
  pld_grid::Fft(n, re.data(), im.data(), eval_.re.data(), eval_.im.data());
  for (size_t i = 0; i < n; ++i) {
    const std::complex<double> z(re[i], im[i]);
    re[i] = std::log(std::abs(z));
    im[i] = std::arg(z);
  }
  step.p = p;
  step.sigma = sigma;
  return step;
}

void PldAccountant::FoldFrozenEntries() const {
  // The left fold a recomposition of every entry performs, from the empty
  // product: fold ← fold·z^steps bin by bin, and the finite fraction times
  // (1 − inf_mass)^steps.
  while (eval_.folded + 1 < entries_.size()) {
    const PldEntry& entry = entries_[eval_.folded];
    const StepPld& step =
        StepPldFor(entry.participation_probability, entry.noise_multiplier);
    std::vector<double>& fold_re = eval_.fold_re;
    std::vector<double>& fold_im = eval_.fold_im;
    if (eval_.folded == 0) {
      fold_re.assign(step.log_magnitude.size(), 1.0);
      fold_im.assign(step.log_magnitude.size(), 0.0);
    }
    ForEachPower(step.log_magnitude, step.phase, entry.steps,
                 [&](size_t i, double re, double im) {
                   const double a = fold_re[i];
                   const double b = fold_im[i];
                   fold_re[i] = a * re - b * im;
                   fold_im[i] = a * im + b * re;
                 });
    eval_.fold_finite *=
        std::pow(1.0 - step.inf_mass, static_cast<double>(entry.steps));
    ++eval_.folded;
  }
}

double PldAccountant::Compose() const {
  pld_grid::Grid& grid = EnsureGrid();
  const size_t n = grid.size();
  std::vector<double>& pmf = eval_.pmf;
  if (entries_.empty()) {
    // Empty composition: point mass at loss 0 — δ(ε) = 0 for ε >= 0.
    std::fill(pmf.begin(), pmf.end(), 0.0);
    pmf[n / 2 - 1] = 1.0;  // right edge closest to 0 from below
    return 0.0;
  }
  FoldFrozenEntries();
  const PldEntry& open = entries_.back();
  const StepPld& step =
      StepPldFor(open.participation_probability, open.noise_multiplier);

  // The open entry's powers, times the fold if there is one, written
  // straight into the bit-reversed order the inverse FFT takes. Without a
  // fold the powers go in as they are: 1·z differs from z at most in the
  // sign of a zero (see ForEachPower).
  double* re = eval_.re.data();
  double* im = eval_.im.data();
  const bool has_fold = eval_.folded > 0;
  const double* fold_re = eval_.fold_re.data();
  const double* fold_im = eval_.fold_im.data();
  size_t j = 0;  // bit reversal of the bin being emitted
  ForEachPower(step.log_magnitude, step.phase, open.steps,
               [&](size_t i, double z_re, double z_im) {
                 if (has_fold) {
                   re[j] = fold_re[i] * z_re - fold_im[i] * z_im;
                   im[j] = fold_re[i] * z_im + fold_im[i] * z_re;
                 } else {
                   re[j] = z_re;
                   im[j] = z_im;
                 }
                 j = NextBitReversed(j, n);
               });
  grid.InverseFft(re, im);

  // Rotate from FFT wrap-around order back to loss-ascending order:
  // loss bin t sits at index t + shift, less n once that passes the end.
  const double scale = static_cast<double>(n);
  const size_t shift = WrapIndex(0, n);
  for (size_t t = 0; t < n - shift; ++t) {
    pmf[t] = std::max(0.0, re[t + shift] / scale);
  }
  for (size_t t = n - shift; t < n; ++t) {
    pmf[t] = std::max(0.0, re[t + shift - n] / scale);
  }
  const double finite_fraction =
      eval_.fold_finite *
      std::pow(1.0 - step.inf_mass, static_cast<double>(open.steps));
  return std::max(0.0, 1.0 - finite_fraction);
}

double PldAccountant::DeltaAtEpsilon(double epsilon) const {
  const double inf_mass = Compose();
  return pld_grid::DeltaAtEpsilon(eval_.pmf, inf_mass, options_.grid_range,
                                  epsilon);
}

double PldAccountant::CumulativeEpsilon() const {
  if (total_steps_ == 0) return 0.0;
  const double inf_mass = Compose();
  // The FFT buffers are dead once the pmf is out of them.
  return eval_.grid->EpsilonForDelta(eval_.pmf, inf_mass, delta_,
                                     eval_.re.data(), eval_.im.data());
}

void PldAccountant::SaveState(ByteWriter& writer) const {
  writer.U32(kBlobMagic);
  writer.F64(delta_);
  writer.I32(options_.log2_grid_size);
  writer.F64(options_.grid_range);
  writer.U64(static_cast<uint64_t>(entries_.size()));
  for (const PldEntry& entry : entries_) {
    writer.F64(entry.participation_probability);
    writer.F64(entry.noise_multiplier);
    writer.I64(entry.steps);
  }
}

Result<PldAccountant> PldAccountant::Restore(ByteReader& reader) {
  // PLD1 and MOG1 share the header; only the entry layout differs.
  PLP_ASSIGN_OR_RETURN(const uint32_t magic, reader.U32());
  if (magic != kBlobMagic && magic != kMog1BlobMagic) {
    return InvalidArgumentError("not a PLD accountant blob");
  }
  PLP_ASSIGN_OR_RETURN(const double delta, reader.F64());
  if (delta <= 0.0 || delta >= 1.0) {
    return InvalidArgumentError("PLD blob: δ out of range");
  }
  PldOptions options;
  PLP_ASSIGN_OR_RETURN(options.log2_grid_size, reader.I32());
  PLP_ASSIGN_OR_RETURN(options.grid_range, reader.F64());
  if (options.log2_grid_size < 4 || options.log2_grid_size > 24 ||
      !(options.grid_range > 0.0)) {
    return InvalidArgumentError("PLD blob: degenerate grid options");
  }
  PLP_ASSIGN_OR_RETURN(const uint64_t count, reader.U64());
  if (count > kMaxEntries) {
    return InvalidArgumentError("PLD blob: entry count too large");
  }
  PldAccountant accountant(delta, options);
  for (uint64_t i = 0; i < count; ++i) {
    PLP_ASSIGN_OR_RETURN(const PldEntry entry, magic == kBlobMagic
                                                   ? ReadPld1Entry(reader)
                                                   : ReadMog1Entry(reader));
    PLP_RETURN_IF_ERROR(ValidateEntry(entry));
    // Verbatim, not coalesced: two MOG1 entries that differed only in ω
    // or scheme map to equal (p, σ), and merging their powers would move
    // ε's last bits.
    accountant.entries_.push_back(entry);
    accountant.total_steps_ += entry.steps;
  }
  return accountant;
}

}  // namespace plp::privacy
