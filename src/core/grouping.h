#ifndef PLP_CORE_GROUPING_H_
#define PLP_CORE_GROUPING_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/config.h"
#include "data/corpus.h"

namespace plp::core {

/// One training bucket (H element): the sentences of up to λ users.
struct Bucket {
  /// Users contributing data to this bucket (a user appears in at most ω
  /// buckets across the whole step).
  std::vector<int32_t> users;
  /// The location-token sentences assigned to this bucket.
  std::vector<std::vector<int32_t>> sentences;

  int64_t num_tokens() const;
};

/// Poisson-samples users: each of the corpus's users independently enters
/// the sample with probability q (Section 4.1 "User Sampling"; the sample
/// size equals m = qN only in expectation, which the moments accountant
/// requires).
std::vector<int32_t> PoissonSampleUsers(int32_t num_users, double q,
                                        Rng& rng);

/// Fixed-batch sampling: exactly `batch_size` distinct users drawn
/// uniformly without replacement (ascending ids out, like the Poisson
/// sampler). Consumes exactly `batch_size` draws from `rng` regardless of
/// which users are selected, so the trainer's RNG stream stays
/// data-independent — the same alignment contract the Poisson sampler
/// satisfies with its N Bernoulli draws.
std::vector<int32_t> FixedBatchSampleUsers(int32_t num_users,
                                           int32_t batch_size, Rng& rng);

/// groupData(U_sample, λ) — pools the sampled users' data into buckets.
///
/// * GroupingKind::kRandom: random permutation chunked into groups of λ.
/// * GroupingKind::kEqualFrequency: greedy balancing of record counts
///   across ceil(n/λ) buckets without splitting a user.
///
/// With config.split_factor ω > 1, each user's token stream is cut into ω
/// contiguous parts which are assigned to ω *distinct* buckets (Section 4.2
/// Case 2; the trainer must then scale noise by ω).
std::vector<Bucket> BuildBuckets(const data::CorpusView& corpus,
                                 const std::vector<int32_t>& sampled_users,
                                 const PlpConfig& config, Rng& rng);

/// Largest number of distinct buckets any single user's data reaches —
/// the realized ω of Section 4.2. Used by tests and the trainer's noise
/// calibration assertions.
int32_t RealizedSplitFactor(const std::vector<Bucket>& buckets);

}  // namespace plp::core

#endif  // PLP_CORE_GROUPING_H_
