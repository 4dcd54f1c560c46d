#ifndef PLP_PRIVACY_PLD_ACCOUNTANT_H_
#define PLP_PRIVACY_PLD_ACCOUNTANT_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "privacy/pld_grid.h"

namespace plp::privacy {

/// One coalesced run of identical subsampled-Gaussian rounds.
struct PldEntry {
  double participation_probability = 0.0;  ///< p
  double noise_multiplier = 0.0;  ///< σ relative to the joint sensitivity
  int64_t steps = 0;
};

/// Privacy-loss-distribution accountant for the subsampled Gaussian
/// mechanism (Koskela et al., arXiv:1906.03049) under zero-out adjacency:
/// the neighbor replaces one user's records by none, the user's id stays
/// in the population, and N is public. The dominating pair is
///
///   P = (1−p)·N(0, σ²) + p·N(1, σ²)   vs   Q = N(0, σ²),
///
/// with p the protected user's per-round participation probability and σ
/// the noise multiplier relative to the joint sensitivity ω·C, so the
/// shift is 1 at every ω. The pipeline Poisson-samples whole users and
/// places all ω parts of every sampled user into the round, so
/// participation is all-or-nothing with p = q. The pair covers a round
/// only if the user's inclusion moves its own ≤ ω buckets by at most one
/// noise unit and leaves every other bucket alone; DESIGN.md ("Sensitivity
/// bounds, honestly stated") says where that does not yet hold at λ > 1.
/// The privacy loss at
/// sample x is L(x) = log(1−p+p·e^{(2x−1)/(2σ²)}). The PLD (the
/// distribution of L(x), x ~ P) is discretized once per distinct (p, σ)
/// on the pessimistic grid of privacy/pld_grid.h and composed across
/// rounds via DFT pointwise powers; δ(ε) is then the tail functional
/// Σ_{s>ε} PLD(s)·(1−e^{ε−s}) plus the truncated mass. Tighter than the
/// RDP moments accountant at equal (q, σ, δ) — typically by 25–40% in ε
/// over hundreds of steps.
///
/// One evaluation powers only the open (last) entry, whose step count may
/// still grow: every earlier entry is frozen and already multiplied into a
/// running product of DFT powers, so a noise schedule, where every step
/// is its own entry, costs one power per step rather than a recomposition
/// of the whole history. The result is bit-identical to composing all
/// entries afresh (see DESIGN.md). The evaluation state is a cache behind
/// const calls: an accountant is not safe for concurrent calls.
///
/// This backs the pipeline's "pld_fft" Accountant stage. The RDP ledger
/// remains the default.
class PldAccountant {
 public:
  /// `delta` is the fixed δ of the (ε, δ) guarantee, in (0, 1). Aborts on
  /// out-of-range δ or degenerate grid options.
  explicit PldAccountant(double delta, const PldOptions& options = {});

  /// Accumulates `steps` rounds with participation probability `p` in
  /// (0, 1] and noise multiplier `sigma` > 0. Consecutive identical
  /// (p, σ) runs coalesce into one entry.
  Status AddSteps(double p, double sigma, int64_t steps);

  /// Smallest grid-resolvable ε such that the composition so far is
  /// (ε, δ)-DP under this discretization. 0 before any step; +infinity if
  /// even ε = grid_range cannot meet δ (grid too small for the spend).
  /// Every call is a whole evaluation; no answer is kept between calls.
  double CumulativeEpsilon() const;

  /// δ(ε) of the composition so far (test/diagnostic surface).
  double DeltaAtEpsilon(double epsilon) const;

  double delta() const { return delta_; }
  int64_t total_steps() const { return total_steps_; }
  const std::vector<PldEntry>& entries() const { return entries_; }

  /// Serializes δ, the grid options, and the coalesced entries under the
  /// "PLD1" tag. The PLD discretizations are deterministic functions of
  /// those, so a restored accountant answers CumulativeEpsilon
  /// bit-identically. Restore takes the entries verbatim and also reads
  /// the "MOG1" blobs that the retired --accountant=mog spelling wrote:
  /// each Poisson MOG1 entry becomes one entry at p = q, so the restored ε
  /// is the one certified when the blob was written. A MOG1 blob with a
  /// fixed-batch entry fails, since the Poisson pair never bounded those
  /// rounds. Any other tag (an RDP ledger blob, say) fails instead of
  /// misparsing.
  void SaveState(ByteWriter& writer) const;
  static Result<PldAccountant> Restore(ByteReader& reader);

 private:
  /// One round's PLD at (p, σ), as the polar form of its DFT: z^k is then
  /// exp(k·log|z|)·(cos kθ, sin kθ) without a hypot, atan2 and log per
  /// bin per evaluation.
  struct StepPld {
    double p = 0.0;  ///< 0 until built (entries have p > 0)
    double sigma = 0.0;
    std::vector<double> log_magnitude;  ///< log|z| per bin; −∞ where z = 0
    std::vector<double> phase;          ///< arg z per bin
    double inf_mass = 0.0;              ///< P[L(x) > grid_range]
  };

  /// Derived from the entries and reused across evaluations.
  struct Evaluation {
    std::optional<pld_grid::Grid> grid;  ///< built on the first evaluation
    StepPld step;  ///< the one cached (p, σ): the open entry's after a call
    /// entries_[0, folded) are multiplied into fold_re/fold_im (natural
    /// bin order; allocated by the first fold) and fold_finite, the
    /// product of their (1 − inf_mass)^steps.
    size_t folded = 0;
    std::vector<double> fold_re;
    std::vector<double> fold_im;
    double fold_finite = 1.0;
    /// Scratch of one call: the forward twiddles while a round's PLD is
    /// transformed, the composed DFT and its inverse, then the tail's
    /// suffix sums.
    std::vector<double> re;
    std::vector<double> im;
    std::vector<double> pmf;  ///< the composed PLD, loss-ascending
  };

  /// The grid and workspaces, allocated on the first call.
  pld_grid::Grid& EnsureGrid() const;
  const StepPld& StepPldFor(double p, double sigma) const;
  /// Multiplies every entry but the open one into the fold, in order.
  void FoldFrozenEntries() const;
  /// Composed PLD over all entries into eval_.pmf; returns the total
  /// truncated mass. Empty composition → point mass at loss 0.
  double Compose() const;

  double delta_;
  PldOptions options_;
  std::vector<PldEntry> entries_;
  int64_t total_steps_ = 0;
  mutable Evaluation eval_;
};

}  // namespace plp::privacy

#endif  // PLP_PRIVACY_PLD_ACCOUNTANT_H_
