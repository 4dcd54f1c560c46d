#include "privacy/pld_accountant.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "privacy/pld_grid.h"

namespace plp::privacy {
namespace {

using pld_grid::Fft;
using pld_grid::IntPow;
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

const PldAccountant::StepPld& PldAccountant::StepPldFor(double p,
                                                        double sigma) const {
  for (const StepPld& cached : step_cache_) {
    if (cached.p == p && cached.sigma == sigma) return cached;
  }
  const size_t n = static_cast<size_t>(1) << options_.log2_grid_size;
  const double range = options_.grid_range;
  const double width = 2.0 * range / static_cast<double>(n);

  StepPld pld;
  pld.p = p;
  pld.sigma = sigma;
  // Loss-ordered bin t (t = 0 … n−1) holds the P-mass of losses in
  // (s_t − Δ, s_t] with right edge s_t = −R + (t+1)·Δ — mass rounds *up*
  // to the edge, so every bin's contribution to δ(ε) is over- rather than
  // under-counted. The running CDF starts at 0, so mass below the grid
  // lumps into bin t = 0 (also rounding up); mass above it is the
  // truncated tail that contributes to δ in full. Bins are stored at
  // their FFT wrap-around index (see pld_grid::WrapIndex).
  std::vector<std::complex<double>> pmf(n, {0.0, 0.0});
  double previous_cdf = 0.0;
  for (size_t t = 0; t < n; ++t) {
    const double edge = -range + static_cast<double>(t + 1) * width;
    const double x = LossInverse(p, sigma, edge);
    const double cdf = std::isinf(x) ? 0.0 : UpperCdf(p, sigma, x);
    pmf[WrapIndex(t, n)] = {std::max(0.0, cdf - previous_cdf), 0.0};
    previous_cdf = std::max(cdf, previous_cdf);
  }
  pld.inf_mass = std::max(0.0, 1.0 - previous_cdf);
  Fft(pmf, /*inverse=*/false);
  pld.dft = std::move(pmf);
  step_cache_.push_back(std::move(pld));
  return step_cache_.back();
}

void PldAccountant::Compose(std::vector<double>& pmf,
                            double& inf_mass) const {
  const size_t n = static_cast<size_t>(1) << options_.log2_grid_size;
  std::vector<std::complex<double>> composed(n, {1.0, 0.0});
  double finite_fraction = 1.0;
  for (const PldEntry& entry : entries_) {
    const StepPld& step =
        StepPldFor(entry.participation_probability, entry.noise_multiplier);
    for (size_t i = 0; i < n; ++i) {
      composed[i] *= IntPow(step.dft[i], entry.steps);
    }
    finite_fraction *=
        std::pow(1.0 - step.inf_mass, static_cast<double>(entry.steps));
  }
  inf_mass = std::max(0.0, 1.0 - finite_fraction);
  if (entries_.empty()) {
    // Empty composition: point mass at loss 0 — δ(ε) = 0 for ε >= 0.
    pmf.assign(n, 0.0);
    const size_t zero_bin =
        n / 2 == 0 ? 0 : n / 2 - 1;  // right edge closest to 0 from below
    pmf[zero_bin] = 1.0;
    return;
  }
  Fft(composed, /*inverse=*/true);
  // Rotate from FFT wrap-around order back to loss-ascending order.
  pmf.resize(n);
  for (size_t t = 0; t < n; ++t) {
    pmf[t] = std::max(0.0, composed[WrapIndex(t, n)].real());
  }
}

double PldAccountant::DeltaAtEpsilon(double epsilon) const {
  std::vector<double> pmf;
  double inf_mass = 0.0;
  Compose(pmf, inf_mass);
  return pld_grid::DeltaAtEpsilon(pmf, inf_mass, options_.grid_range,
                                  epsilon);
}

double PldAccountant::CumulativeEpsilon() const {
  if (total_steps_ == 0) return 0.0;
  std::vector<double> pmf;
  double inf_mass = 0.0;
  Compose(pmf, inf_mass);
  return pld_grid::EpsilonForDelta(pmf, inf_mass, options_.grid_range,
                                   delta_);
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
