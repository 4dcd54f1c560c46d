#ifndef PLP_PIPELINE_STAGES_H_
#define PLP_PIPELINE_STAGES_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "common/status.h"
#include "core/grouping.h"
#include "data/corpus.h"
#include "sgns/model.h"
#include "sgns/sparse_delta.h"
#include "sgns/train_scratch.h"

namespace plp {
class ThreadPool;
}  // namespace plp

namespace plp::pipeline {

// The stage decomposition of the paper's Algorithm 1 (see DESIGN.md,
// "Pipeline architecture"). One TrainingEngine drives a StageSet through
// the step loop; PlpTrainer, DpSgdTrainer and NonPrivateTrainer are just
// different stage configurations of the same engine, and the ablation
// benches select implementations via config instead of forking the loop.
//
//   UserSampler      line 5   U_sample ~ Poisson(q)
//   Grouper          line 6   H = groupData(U_sample, λ, ω)
//   LocalUpdater     lines 7–8, 15–20   Δ_h = localUpdate(θ_t, h)
//   DeltaClipper     line 21  Δ_h ← Δ_h · min(1, C/‖Δ_h‖)
//   NoisyAggregator  line 9   ĝ_t = (ΣΔ_h + N(0, σ²ω²C²I)) / denom
//   Accountant       lines 3, 11–13   ε(δ) after each round + budget gate
//   ServerOptimizer  line 10  θ_{t+1} = serverUpdate(θ_t, ĝ_t)
//
// Determinism contract: a stage may only draw randomness from the Rng it
// is handed, in a data-independent *order* (the engine's RNG-stream
// alignment is what makes checkpoint resume and thread-count determinism
// bitwise). Stages that need no randomness must not touch the Rng at all.

/// Line 5: selects the users participating in this round.
class UserSampler {
 public:
  virtual ~UserSampler() = default;

  /// Returns the sampled user ids (ascending). Draws from `rng` only.
  virtual std::vector<int32_t> Sample(const data::CorpusView& corpus,
                                      Rng& rng) = 0;
};

/// Line 6: pools the sampled users' data into buckets of λ users.
class Grouper {
 public:
  virtual ~Grouper() = default;

  /// Builds the round's buckets. Implementations enforce their own split
  /// bound (no user's data may reach more than ω buckets — the ω·C
  /// sensitivity argument depends on it).
  virtual std::vector<core::Bucket> Group(const data::CorpusView& corpus,
                                          const std::vector<int32_t>& sampled,
                                          Rng& rng) = 0;
};

/// Lines 7–8 / 15–20: turns a bucket's data into an (unclipped) model
/// delta — or, for trainers whose update rule is not expressible as
/// independent per-bucket deltas (the non-private epoch trainer), runs the
/// whole round itself.
class LocalUpdater {
 public:
  virtual ~LocalUpdater() = default;

  /// Called once per Train() after model creation and before checkpoint
  /// resume. May precompute corpus-derived state (e.g. subsampling keep
  /// probabilities); must not consume `rng` unless that consumption is
  /// part of the trainer's pinned RNG stream.
  virtual Status Prepare(const data::CorpusView& corpus,
                         const sgns::SgnsModel& model, Rng& rng) {
    (void)corpus;
    (void)model;
    (void)rng;
    return Status::Ok();
  }

  /// True → the engine runs the bucket fan-out: per-bucket ComputeDelta on
  /// content-keyed RNGs, clip, reduce, noise, server apply. False → the
  /// engine calls WholeRound instead and skips aggregation entirely (the
  /// updater owns the model mutation and the main RNG stream).
  virtual bool BucketParallel() const = 0;

  /// Bucket-parallel mode: computes the raw (unclipped) delta of one
  /// bucket's local training at θ_t into `delta` (which is Clear()ed
  /// first — the engine hands each bucket a reusable slot so steady-state
  /// fan-out does not allocate). Must depend only on (θ_t, bucket,
  /// bucket_rng) so the engine may schedule buckets on any thread.
  /// `scratch` may be null.
  virtual void ComputeDelta(const sgns::SgnsModel& theta,
                            const core::Bucket& bucket,
                            int32_t num_locations, Rng& bucket_rng,
                            double* loss_out, sgns::TrainScratch* scratch,
                            sgns::SparseDelta& delta);

  /// Whole-round mode: one full round (epoch) mutating `model` in place,
  /// drawing from the trainer's main `rng`. Returns the round's mean loss.
  virtual Result<double> WholeRound(const data::CorpusView& corpus,
                                    sgns::SgnsModel& model, Rng& rng);
};

/// Line 21: bounds one bucket delta's contribution to the sum. Runs on the
/// same thread as the delta's ComputeDelta, immediately after it.
class DeltaClipper {
 public:
  virtual ~DeltaClipper() = default;

  /// Clips `delta` in place; returns true when the bound engaged (the
  /// engine aggregates this into StepMetrics::clip_fraction).
  virtual bool Clip(sgns::SparseDelta& delta) const = 0;
};

/// Round context handed to the aggregator's noise step.
struct AggregateContext {
  int64_t step = 0;            ///< 1-based round index
  uint64_t noise_seed = 0;     ///< counter-based noise stream key
  size_t num_buckets = 0;      ///< realized |H| this round
  ThreadPool* pool = nullptr;  ///< null → sequential
};

/// Line 9: the Gaussian sum query — Σ clipped deltas, dense noise
/// calibrated to the query's sensitivity, then averaging.
class NoisyAggregator {
 public:
  virtual ~NoisyAggregator() = default;

  /// Called once per Train() before the loop; may precompute
  /// corpus-derived constants (e.g. the fixed denominator q·N/λ).
  virtual void Prepare(const data::CorpusView& corpus) { (void)corpus; }

  /// Σ deltas into `sum` (already zeroed), in deterministic bucket order
  /// regardless of `pool` size.
  virtual void Reduce(std::span<const sgns::SparseDelta* const> deltas,
                      sgns::DenseUpdate& sum, ThreadPool* pool) = 0;

  /// Adds calibrated noise keyed on `ctx.noise_seed` and divides by the
  /// estimator's denominator, mutating `sum` into ĝ_t.
  virtual void NoiseAndAverage(const AggregateContext& ctx,
                               sgns::DenseUpdate& sum) = 0;
};

/// The accountant's verdict for one round.
struct BudgetDecision {
  double epsilon_after = 0.0;  ///< cumulative ε(δ) including this round
  bool exhausted = false;      ///< ε_after > budget → return θ_{t−1}
};

/// The mechanism parameters of one round, as the engine configured them —
/// the single source the Accountant stage consumes, so what the noise
/// stage released and what the accountant certifies can never drift apart.
/// The engine fills it from the EngineConfig's RoundPolicy every step;
/// benches fill it by hand for accounting-only sweeps.
struct RoundRecord {
  int64_t step = 0;  ///< 1-based round index
  /// Always Poisson; `scheme` and `population` stay only because the
  /// benchmark's workloads assign them. No accountant reads either.
  core::SamplingScheme scheme = core::SamplingScheme::kPoisson;
  double sampling_ratio = 0.0;  ///< q, the Poisson probability
  int64_t population = 0;       ///< N users in the corpus
  double noise_multiplier = 0.0;  ///< σ relative to joint sensitivity ω·C
  int32_t split_factor = 1;       ///< configured ω
};

/// Lines 3 and 11–13: tracks each round's privacy spend and gates on the
/// budget. Implementations own their conversion (RDP orders, PLD grid) of
/// the Poisson-subsampled Gaussian.
class Accountant {
 public:
  virtual ~Accountant() = default;

  /// Consumes one round's budget and returns the post-round ε and the
  /// budget verdict. The engine stops *before* executing an exhausted
  /// round, so an exhausted decision's ε is never observable in a result.
  virtual Result<BudgetDecision> TrackRound(const RoundRecord& round) = 0;

  /// Accounting-only fast path used by the accounting ablation: advances
  /// `count` rounds of `first`'s mechanism starting at `first.step` and
  /// returns the decision after the last one. No budget gate is applied
  /// mid-way. The default implementation loops TrackRound with the step
  /// advancing and every other field held constant; schedule-aware
  /// accountants override it to recompute σ_t per step.
  virtual Result<BudgetDecision> TrackRounds(const RoundRecord& first,
                                             int64_t count);

  /// ε spent so far (seeds TrainResult::epsilon_spent after a resume).
  virtual double EpsilonSpent() const = 0;

  /// The checkpoint ledger blob. Restoring from `blob` written by the same
  /// accountant type at step `step` must reproduce the accountant
  /// bit-identically; mismatched blobs (wrong type, wrong δ, wrong step
  /// count) are rejected with kInvalidArgument.
  virtual std::string SaveBlob() const = 0;
  virtual Status RestoreBlob(const std::string& blob, int64_t step) = 0;
};

/// Line 10: applies ĝ_t to the global model. Distinct from
/// optim::ServerOptimizer only by the Prepare hook (stage state that needs
/// the created model's shape) and by blob-style checkpointing symmetry
/// with Accountant.
class ServerOptimizer {
 public:
  virtual ~ServerOptimizer() = default;

  /// Called once per Train() after model creation, before resume.
  virtual Status Prepare(const sgns::SgnsModel& model) {
    (void)model;
    return Status::Ok();
  }

  virtual void Apply(const sgns::DenseUpdate& update,
                     sgns::SgnsModel& model) = 0;

  /// Name recorded in checkpoints; resume rejects a mismatch.
  virtual const char* name() const = 0;

  virtual void SaveState(ByteWriter& writer) const = 0;
  virtual Status LoadState(ByteReader& reader,
                           const sgns::SgnsModel& model) = 0;
};

/// One full stage configuration — everything the engine needs besides the
/// corpus and the loop bounds.
struct StageSet {
  std::unique_ptr<UserSampler> sampler;
  std::unique_ptr<Grouper> grouper;
  std::unique_ptr<LocalUpdater> updater;
  std::unique_ptr<DeltaClipper> clipper;
  std::unique_ptr<NoisyAggregator> aggregator;
  std::unique_ptr<Accountant> accountant;
  std::unique_ptr<ServerOptimizer> server;
};

}  // namespace plp::pipeline

#endif  // PLP_PIPELINE_STAGES_H_
