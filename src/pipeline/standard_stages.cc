#include "pipeline/standard_stages.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/bucket_update.h"
#include "optim/optimizers.h"
#include "privacy/ledger.h"
#include "privacy/pld_accountant.h"
#include "sgns/loss.h"
#include "sgns/pairs.h"

namespace plp::pipeline {
namespace {

// ---------------------------------------------------------------------------
// Algorithm 1 stages (PlpTrainer / DpSgdTrainer)

/// Line 5: U_sample ~ Poisson(q) over the user ids.
class PoissonSampler final : public UserSampler {
 public:
  explicit PoissonSampler(double q) : q_(q) {}

  std::vector<int32_t> Sample(const data::CorpusView& corpus,
                              Rng& rng) override {
    return core::PoissonSampleUsers(corpus.NumUsers(), q_, rng);
  }

 private:
  double q_;
};

/// Line 5, fixed-batch variant: exactly B = round(q·N) distinct users
/// every round. Only meaningful with the "mog" accountant (config
/// validation enforces the pairing).
class FixedBatchSampler final : public UserSampler {
 public:
  explicit FixedBatchSampler(double q) : q_(q) {}

  std::vector<int32_t> Sample(const data::CorpusView& corpus,
                              Rng& rng) override {
    return core::FixedBatchSampleUsers(
        corpus.NumUsers(), core::FixedBatchSize(corpus.NumUsers(), q_), rng);
  }

 private:
  double q_;
};

/// Line 6: groupData(U_sample, λ, ω) per the configured GroupingKind. The
/// split bound ω is enforced here — the ω·C sensitivity argument of the
/// aggregator is unsound without it, so violation aborts rather than
/// erroring.
class ConfiguredGrouper final : public Grouper {
 public:
  explicit ConfiguredGrouper(const core::PlpConfig& config)
      : config_(config) {}

  std::vector<core::Bucket> Group(const data::CorpusView& corpus,
                                  const std::vector<int32_t>& sampled,
                                  Rng& rng) override {
    std::vector<core::Bucket> buckets =
        core::BuildBuckets(corpus, sampled, config_, rng);
    PLP_CHECK_LE(core::RealizedSplitFactor(buckets), config_.split_factor);
    return buckets;
  }

 private:
  core::PlpConfig config_;
};

/// Lines 7–8 / 15–20: local SGD on a bucket from θ_t, raw delta out.
class BucketSgdUpdater final : public LocalUpdater {
 public:
  explicit BucketSgdUpdater(const core::PlpConfig& config)
      : config_(config) {}

  bool BucketParallel() const override { return true; }

  Status Prepare(const data::CorpusView& corpus, const sgns::SgnsModel& model,
                 Rng& rng) override {
    (void)model;
    (void)rng;  // table construction is deterministic — no draws
    if (config_.sgns.negative_sampling ==
        sgns::NegativeSamplingKind::kUnigram) {
      negative_table_.emplace(data::CountTokenFrequencies(corpus),
                              config_.sgns.unigram_power);
    }
    return Status::Ok();
  }

  void ComputeDelta(const sgns::SgnsModel& theta, const core::Bucket& bucket,
                    int32_t num_locations, Rng& bucket_rng, double* loss_out,
                    sgns::TrainScratch* scratch,
                    sgns::SparseDelta& delta) override {
    core::ComputeRawBucketDeltaInto(
        theta, bucket, config_, num_locations, bucket_rng, loss_out, scratch,
        delta, negative_table_.has_value() ? &*negative_table_ : nullptr);
  }

 private:
  core::PlpConfig config_;
  std::optional<sgns::UnigramTable> negative_table_;
};

/// Line 21 (per-layer form, Section 4.1): each tensor clipped to C/√|θ|.
class PerTensorClipper final : public DeltaClipper {
 public:
  explicit PerTensorClipper(double clip_norm) : clip_norm_(clip_norm) {}

  bool Clip(sgns::SparseDelta& delta) const override {
    return delta.ClipPerTensor(
        clip_norm_ / std::sqrt(static_cast<double>(sgns::kNumTensors)));
  }

 private:
  double clip_norm_;
};

/// Line 9: Σ + N(0, σ_t²·ω²·C²·I), then the fixed-denominator (or
/// realized-|H|) averaging of Section 4.1.
class GaussianAggregator final : public NoisyAggregator {
 public:
  explicit GaussianAggregator(const core::PlpConfig& config)
      : config_(config) {}

  void Prepare(const data::CorpusView& corpus) override {
    // Fixed-denominator estimator: E[|H|] = q·N/λ (never below 1).
    expected_buckets_ =
        std::max(1.0, config_.sampling_probability *
                          static_cast<double>(corpus.NumUsers()) /
                          static_cast<double>(config_.grouping_factor));
  }

  void Reduce(std::span<const sgns::SparseDelta* const> deltas,
              sgns::DenseUpdate& sum, ThreadPool* pool) override {
    sgns::AccumulateDeltas(deltas, 1.0, sum, pool);
  }

  void NoiseAndAverage(const AggregateContext& ctx,
                       sgns::DenseUpdate& sum) override {
    const double sigma_t = core::NoiseScaleAt(config_, ctx.step);
    const double sensitivity =
        static_cast<double>(config_.split_factor) * config_.clip_norm;
    if (config_.per_tensor_noise) {
      const double per_tensor_std =
          sigma_t * sensitivity /
          std::sqrt(static_cast<double>(sgns::kNumTensors));
      for (int ti = 0; ti < sgns::kNumTensors; ++ti) {
        sum.AddGaussianNoiseToTensor(static_cast<sgns::Tensor>(ti),
                                     ctx.noise_seed, per_tensor_std,
                                     ctx.pool);
      }
    } else {
      sum.AddGaussianNoise(ctx.noise_seed, sigma_t * sensitivity, ctx.pool);
    }
    const double denominator =
        config_.fixed_denominator
            ? expected_buckets_
            : std::max<double>(1.0, static_cast<double>(ctx.num_buckets));
    sum.Scale(1.0 / denominator, ctx.pool);
  }

 private:
  core::PlpConfig config_;
  double expected_buckets_ = 1.0;
};

/// Poisson-only accountants must refuse fixed-batch rounds — their
/// dominating pairs certify a different mechanism. Config validation
/// rejects the pairing up front; this is the stage-level backstop for
/// hand-assembled StageSets, and its message names the valid pairs.
Status RejectNonPoissonRound(const char* accountant_name,
                             const RoundRecord& round) {
  if (round.scheme == core::SamplingScheme::kPoisson) return Status::Ok();
  return InvalidArgumentError(
      std::string("accountant \"") + accountant_name +
      "\" models Poisson sampling only; valid (scheme, accountant) pairs "
      "are poisson x {rdp, pld_fft, mog} and fixed_batch x {mog}");
}

/// Checkpoint invariants every accountant blob must meet before it
/// replaces the live state: fully consumed, the configured δ, and — the
/// ledger-first invariant — exactly `step` tracked rounds, so the ledger
/// always covers the model's spends.
template <typename Ledger>
Result<Ledger> RestoreLedger(const std::string& blob, double delta,
                             int64_t step) {
  ByteReader reader(blob);
  PLP_ASSIGN_OR_RETURN(Ledger restored, Ledger::Restore(reader));
  if (!reader.AtEnd()) {
    return InvalidArgumentError("checkpoint: trailing ledger bytes");
  }
  if (restored.delta() != delta) {
    return InvalidArgumentError("checkpoint δ disagrees with config");
  }
  if (restored.total_steps() != step) {
    return InvalidArgumentError(
        "checkpoint ledger steps disagree with step counter");
  }
  return restored;
}

/// Lines 3 + 11–13 with the RDP moments-accountant ledger (the default).
class LedgerAccountant final : public Accountant {
 public:
  explicit LedgerAccountant(const core::PlpConfig& config)
      : config_(config), ledger_(config.delta) {}

  Result<BudgetDecision> TrackRound(const RoundRecord& round) override {
    PLP_RETURN_IF_ERROR(RejectNonPoissonRound("rdp", round));
    PLP_RETURN_IF_ERROR(
        ledger_.TrackStep(round.sampling_ratio, round.noise_multiplier));
    BudgetDecision decision;
    decision.epsilon_after =
        ledger_.CumulativeEpsilon(config_.rdp_conversion);
    decision.exhausted = decision.epsilon_after > config_.epsilon_budget;
    return decision;
  }

  Result<BudgetDecision> TrackRounds(const RoundRecord& first,
                                     int64_t count) override {
    // Bulk fast path: RDP accumulation is O(orders) per round; the
    // RDP → (ε, δ) conversion is done once at the end instead of per
    // round. σ_t is recomputed per step so the sweep stays exact under a
    // noise-decay schedule.
    PLP_RETURN_IF_ERROR(RejectNonPoissonRound("rdp", first));
    for (int64_t i = 0; i < count; ++i) {
      PLP_RETURN_IF_ERROR(ledger_.TrackStep(
          first.sampling_ratio,
          core::EffectiveNoiseMultiplier(config_, first.step + i)));
    }
    BudgetDecision decision;
    decision.epsilon_after =
        ledger_.CumulativeEpsilon(config_.rdp_conversion);
    decision.exhausted = decision.epsilon_after > config_.epsilon_budget;
    return decision;
  }

  double EpsilonSpent() const override {
    return ledger_.CumulativeEpsilon(config_.rdp_conversion);
  }

  std::string SaveBlob() const override {
    ByteWriter writer;
    ledger_.SaveState(writer);
    return writer.Take();
  }

  Status RestoreBlob(const std::string& blob, int64_t step) override {
    auto restored =
        RestoreLedger<privacy::PrivacyLedger>(blob, config_.delta, step);
    if (!restored.ok()) {
      // The RDP blob is untagged, so a foreign blob fails at whichever
      // field its bytes trip first. Name the PLD accountant's blobs; the
      // check runs only once the RDP parse has failed, so it can never
      // refuse a valid RDP blob.
      ByteReader reader(blob);
      if (privacy::PldAccountant::Restore(reader).ok()) {
        return InvalidArgumentError(
            "checkpoint ledger was written by the PLD accountant "
            "(pld_fft/mog), not rdp");
      }
      return restored.status();
    }
    ledger_ = std::move(restored).value();
    return Status::Ok();
  }

 private:
  core::PlpConfig config_;
  privacy::PrivacyLedger ledger_;
};

/// Lines 3 + 11–13 with the FFT privacy-loss-distribution accountant
/// (Koskela et al.) behind both of its spellings. "pld_fft" refuses
/// fixed-batch rounds; "mog" accounts them at p = B/N and keeps that
/// spelling's ω <= kMogMaxSplitFactor bound. Same tracking policy and
/// checkpoint invariants as the ledger, tighter ε oracle. Either spelling
/// restores the PLD1 blobs both write and the MOG1 blobs "mog" wrote
/// before it shared this accountant.
class PldStageAccountant final : public Accountant {
 public:
  explicit PldStageAccountant(const core::PlpConfig& config)
      : config_(config), mog_(config.accountant == "mog"),
        pld_(config.delta) {}

  Result<BudgetDecision> TrackRound(const RoundRecord& round) override {
    PLP_RETURN_IF_ERROR(AddRound(round));
    return Decide();
  }

  Result<BudgetDecision> TrackRounds(const RoundRecord& first,
                                     int64_t count) override {
    // Bulk fast path: appending entries is O(1) each and identical-σ runs
    // coalesce, so ε is composed once at the end (one FFT instead of
    // `count`). σ_t is recomputed per step so the sweep stays exact under
    // a noise-decay schedule.
    RoundRecord round = first;
    for (int64_t i = 0; i < count; ++i) {
      round.step = first.step + i;
      round.noise_multiplier =
          core::EffectiveNoiseMultiplier(config_, round.step);
      PLP_RETURN_IF_ERROR(AddRound(round));
    }
    return Decide();
  }

  double EpsilonSpent() const override { return pld_.CumulativeEpsilon(); }

  std::string SaveBlob() const override {
    ByteWriter writer;
    pld_.SaveState(writer);
    return writer.Take();
  }

  Status RestoreBlob(const std::string& blob, int64_t step) override {
    PLP_ASSIGN_OR_RETURN(pld_, RestoreLedger<privacy::PldAccountant>(
                                   blob, config_.delta, step));
    return Status::Ok();
  }

 private:
  /// One round at the protected user's participation probability: the
  /// pipeline samples whole users, so p = q under Poisson and p = B/N
  /// under fixed batch (see PldAccountant).
  Status AddRound(const RoundRecord& round) {
    if (!mog_) {
      PLP_RETURN_IF_ERROR(RejectNonPoissonRound("pld_fft", round));
    } else if (round.split_factor < 1 ||
               round.split_factor > privacy::kMogMaxSplitFactor) {
      return InvalidArgumentError("split factor must be in [1, 64]");
    }
    double p = round.sampling_ratio;
    if (round.scheme == core::SamplingScheme::kFixedBatch) {
      if (round.population < 1 || round.batch_size < 1 ||
          round.batch_size > round.population) {
        return InvalidArgumentError(
            "fixed batch requires 1 <= batch_size <= population");
      }
      p = static_cast<double>(round.batch_size) /
          static_cast<double>(round.population);
    }
    return pld_.AddSteps(p, round.noise_multiplier, 1);
  }

  BudgetDecision Decide() const {
    BudgetDecision decision;
    decision.epsilon_after = pld_.CumulativeEpsilon();
    decision.exhausted = decision.epsilon_after > config_.epsilon_budget;
    return decision;
  }

  core::PlpConfig config_;
  bool mog_;  ///< the "mog" spelling: fixed-batch rounds allowed
  privacy::PldAccountant pld_;
};

/// Line 10 through the optim::ServerOptimizer registry ("dp_adam" /
/// "fixed_step").
class OptimServerAdapter final : public ServerOptimizer {
 public:
  explicit OptimServerAdapter(std::unique_ptr<optim::ServerOptimizer> inner)
      : inner_(std::move(inner)) {}

  void Apply(const sgns::DenseUpdate& update,
             sgns::SgnsModel& model) override {
    inner_->ApplyUpdate(update, model);
  }
  const char* name() const override { return inner_->name(); }
  void SaveState(ByteWriter& writer) const override {
    inner_->SaveState(writer);
  }
  Status LoadState(ByteReader& reader,
                   const sgns::SgnsModel& model) override {
    return inner_->LoadState(reader, model);
  }

 private:
  std::unique_ptr<optim::ServerOptimizer> inner_;
};

// ---------------------------------------------------------------------------
// Non-private baseline stages: the same engine with sampling, clipping,
// noise and accounting all degenerate.

/// Samples nothing — the non-private round always uses the whole corpus.
class NullSampler final : public UserSampler {
 public:
  std::vector<int32_t> Sample(const data::CorpusView& corpus,
                              Rng& rng) override {
    (void)corpus;
    (void)rng;
    return {};
  }
};

/// Groups nothing — the whole-round updater reads the corpus directly.
class NullGrouper final : public Grouper {
 public:
  std::vector<core::Bucket> Group(const data::CorpusView& corpus,
                                  const std::vector<int32_t>& sampled,
                                  Rng& rng) override {
    (void)corpus;
    (void)sampled;
    (void)rng;
    return {};
  }
};

/// No bound on local updates.
class IdentityClipper final : public DeltaClipper {
 public:
  bool Clip(sgns::SparseDelta& delta) const override {
    (void)delta;
    return false;
  }
};

/// Sum only, σ = 0, denominator 1 — plain aggregation. Unused by the
/// whole-round updater but keeps the non-private StageSet total, so the
/// same StageSet also drives bucket-parallel updaters noise-free (the
/// sensitivity suite's pre-noise sum uses this shape).
class ZeroNoiseAggregator final : public NoisyAggregator {
 public:
  void Reduce(std::span<const sgns::SparseDelta* const> deltas,
              sgns::DenseUpdate& sum, ThreadPool* pool) override {
    sgns::AccumulateDeltas(deltas, 1.0, sum, pool);
  }
  void NoiseAndAverage(const AggregateContext& ctx,
                       sgns::DenseUpdate& sum) override {
    (void)ctx;
    (void)sum;
  }
};

/// ε = 0 forever; the checkpoint ledger blob is empty and must stay so.
class NullAccountant final : public Accountant {
 public:
  Result<BudgetDecision> TrackRound(const RoundRecord& round) override {
    (void)round;
    return BudgetDecision{};
  }
  double EpsilonSpent() const override { return 0.0; }
  std::string SaveBlob() const override { return {}; }
  Status RestoreBlob(const std::string& blob, int64_t step) override {
    (void)step;
    if (!blob.empty()) {
      return InvalidArgumentError(
          "checkpoint payload disagrees with the non-private trainer");
    }
    return Status::Ok();
  }
};

/// The non-private "server": checkpoint surface for the lazy sparse Adam
/// that the whole-round updater drives directly. Apply is a no-op — the
/// updater already folded every batch into the model.
class SparseAdamServer final : public ServerOptimizer {
 public:
  explicit SparseAdamServer(const optim::AdamConfig& config)
      : config_(config) {}

  Status Prepare(const sgns::SgnsModel& model) override {
    adam_.emplace(model, config_);
    return Status::Ok();
  }
  void Apply(const sgns::DenseUpdate& update,
             sgns::SgnsModel& model) override {
    (void)update;
    (void)model;
  }
  const char* name() const override { return "sparse_adam"; }
  void SaveState(ByteWriter& writer) const override {
    adam_->SaveState(writer);
  }
  Status LoadState(ByteReader& reader,
                   const sgns::SgnsModel& model) override {
    return adam_->LoadState(reader, model);
  }

  optim::SparseAdam* adam() { return &*adam_; }

 private:
  optim::AdamConfig config_;
  std::optional<optim::SparseAdam> adam_;
};

/// The whole non-private epoch as one round: subsample/regenerate pairs,
/// shuffle, per-batch sparse-Adam descent. Owns the main RNG stream for
/// the round; the engine draws no seeds in whole-round mode.
class EpochSgdUpdater final : public LocalUpdater {
 public:
  EpochSgdUpdater(const core::NonPrivateConfig& config,
                  SparseAdamServer* server)
      : config_(config), server_(server) {}

  bool BucketParallel() const override { return false; }

  Status Prepare(const data::CorpusView& corpus,
                 const sgns::SgnsModel& model, Rng& rng) override {
    (void)model;
    // One corpus scan feeds both the subsampling keep probabilities and
    // the unigram negative-sampling table (when either is enabled).
    const bool wants_unigram = config_.sgns.negative_sampling ==
                               sgns::NegativeSamplingKind::kUnigram;
    std::vector<int64_t> counts;
    if (wants_unigram || config_.subsample_threshold > 0.0) {
      counts = data::CountTokenFrequencies(corpus);
    }
    if (wants_unigram) {
      negative_table_.emplace(counts, config_.sgns.unigram_power);
    }
    // Per-token keep probabilities for word2vec-style subsampling of
    // frequent locations (non-private only; see the config comment).
    keep_probability_.clear();
    if (config_.subsample_threshold > 0.0) {
      int64_t total = 0;
      for (const int64_t c : counts) total += c;
      keep_probability_.resize(counts.size(), 1.0);
      for (size_t l = 0; l < counts.size(); ++l) {
        if (counts[l] == 0) continue;
        const double f =
            static_cast<double>(counts[l]) / static_cast<double>(total);
        const double ratio = config_.subsample_threshold / f;
        keep_probability_[l] = std::min(1.0, std::sqrt(ratio) + ratio);
      }
    }
    // Without subsampling the pair set is static: build it once (consuming
    // no randomness) and let every epoch shuffle a pristine-order copy.
    // With subsampling, every epoch builds a fresh pristine-order
    // subsample. Either way an epoch depends only on the RNG position at
    // its start, which is what lets a resumed run replay the remaining
    // epochs bit-identically.
    pristine_pairs_.clear();
    if (keep_probability_.empty()) {
      pristine_pairs_ = BuildPairs(corpus, rng);
      if (pristine_pairs_.empty()) {
        return InvalidArgumentError(
            "corpus produced no training pairs (sentences shorter than 2?)");
      }
    }
    return Status::Ok();
  }

  Result<double> WholeRound(const data::CorpusView& corpus,
                            sgns::SgnsModel& model, Rng& rng) override {
    all_pairs_ =
        keep_probability_.empty() ? pristine_pairs_ : BuildPairs(corpus, rng);
    rng.Shuffle(all_pairs_);
    double loss_sum = 0.0;
    int64_t pairs = 0;
    for (size_t start = 0; start < all_pairs_.size();
         start += static_cast<size_t>(config_.batch_size)) {
      const size_t end =
          std::min(all_pairs_.size(),
                   start + static_cast<size_t>(config_.batch_size));
      const std::span<const sgns::Pair> batch(all_pairs_.data() + start,
                                              end - start);
      sgns::SparseDelta gradient(config_.sgns.embedding_dim);
      const sgns::BatchStats stats = sgns::AccumulateBatchGradient(
          model, batch, config_.sgns, corpus.NumLocations(), rng, gradient,
          /*buffers=*/nullptr,
          negative_table_.has_value() ? &*negative_table_ : nullptr);
      server_->adam()->ApplyGradient(
          gradient, 1.0 / static_cast<double>(batch.size()), model);
      loss_sum += stats.loss_sum;
      pairs += stats.num_pairs;
    }
    return pairs == 0 ? 0.0 : loss_sum / static_cast<double>(pairs);
  }

 private:
  std::vector<sgns::Pair> BuildPairs(const data::CorpusView& corpus,
                                     Rng& pair_rng) const {
    std::vector<sgns::Pair> pairs;
    std::vector<std::span<const int32_t>> sentences;
    std::vector<int32_t> filtered;
    for (int32_t u = 0; u < corpus.NumUsers(); ++u) {
      sentences.clear();
      corpus.AppendUserSentences(u, sentences);
      for (const auto& s : sentences) {
        std::span<const int32_t> sentence = s;
        if (!keep_probability_.empty()) {
          filtered.clear();
          for (int32_t token : s) {
            if (pair_rng.Bernoulli(
                    keep_probability_[static_cast<size_t>(token)])) {
              filtered.push_back(token);
            }
          }
          sentence = filtered;
        }
        std::vector<sgns::Pair> p =
            sgns::GeneratePairs(sentence, config_.sgns.window);
        pairs.insert(pairs.end(), p.begin(), p.end());
      }
    }
    return pairs;
  }

  core::NonPrivateConfig config_;
  SparseAdamServer* server_;  ///< owned by the same StageSet
  std::optional<sgns::UnigramTable> negative_table_;
  std::vector<double> keep_probability_;
  std::vector<sgns::Pair> pristine_pairs_;
  std::vector<sgns::Pair> all_pairs_;
};

}  // namespace

std::unique_ptr<Accountant> MakeAccountant(const core::PlpConfig& config) {
  if (config.accountant == "rdp") {
    return std::make_unique<LedgerAccountant>(config);
  }
  PLP_CHECK(config.accountant == "pld_fft" || config.accountant == "mog");
  return std::make_unique<PldStageAccountant>(config);
}

StageSet MakePrivateStages(const core::PlpConfig& config) {
  StageSet stages;
  if (config.sampling_scheme == core::SamplingScheme::kFixedBatch) {
    stages.sampler =
        std::make_unique<FixedBatchSampler>(config.sampling_probability);
  } else {
    stages.sampler =
        std::make_unique<PoissonSampler>(config.sampling_probability);
  }
  stages.grouper = std::make_unique<ConfiguredGrouper>(config);
  stages.updater = std::make_unique<BucketSgdUpdater>(config);
  stages.clipper = std::make_unique<PerTensorClipper>(config.clip_norm);
  stages.aggregator = std::make_unique<GaussianAggregator>(config);
  stages.accountant = MakeAccountant(config);
  stages.server = std::make_unique<OptimServerAdapter>(
      optim::MakeServerOptimizer(config.server_optimizer, config.adam));
  return stages;
}

EngineConfig MakePrivateEngineConfig(const core::PlpConfig& config) {
  EngineConfig engine;
  engine.sgns = config.sgns;
  engine.max_steps = config.max_steps;
  engine.num_threads = config.num_threads;
  engine.kind = ckpt::TrainerKind::kPrivate;
  engine.policy.scheme = config.sampling_scheme;
  engine.policy.sampling_ratio = config.sampling_probability;
  engine.policy.split_factor = config.split_factor;
  engine.policy.enforce_split_bound = true;
  engine.policy.noise_multiplier_at = [config](int64_t step) {
    return core::EffectiveNoiseMultiplier(config, step);
  };
  return engine;
}

StageSet MakeNonPrivateStages(const core::NonPrivateConfig& config) {
  StageSet stages;
  auto server = std::make_unique<SparseAdamServer>(config.adam);
  stages.updater = std::make_unique<EpochSgdUpdater>(config, server.get());
  stages.server = std::move(server);
  stages.sampler = std::make_unique<NullSampler>();
  stages.grouper = std::make_unique<NullGrouper>();
  stages.clipper = std::make_unique<IdentityClipper>();
  stages.aggregator = std::make_unique<ZeroNoiseAggregator>();
  stages.accountant = std::make_unique<NullAccountant>();
  return stages;
}

EngineConfig MakeNonPrivateEngineConfig(const core::NonPrivateConfig& config) {
  EngineConfig engine;
  engine.sgns = config.sgns;
  engine.max_steps = config.epochs;
  engine.num_threads = 1;
  engine.kind = ckpt::TrainerKind::kNonPrivate;
  return engine;
}

std::string DescribeStages(const core::PlpConfig& config) {
  const auto grouping_name = [&] {
    return config.grouping == core::GroupingKind::kRandom ? "random"
                                                          : "equal_frequency";
  };
  const auto updater_name = [&] {
    return config.local_update == core::LocalUpdateMode::kMultiBatchSgd
               ? "multi_batch_sgd"
               : "single_gradient";
  };
  std::string out;
  out += "pipeline stages (Algorithm 1):\n";
  out += "  UserSampler      " +
         std::string(core::SamplingSchemeName(config.sampling_scheme)) +
         "(q=" + std::to_string(config.sampling_probability) + ")\n";
  out += "  Grouper          " + std::string(grouping_name()) +
         "(lambda=" + std::to_string(config.grouping_factor) +
         ", omega=" + std::to_string(config.split_factor) + ")\n";
  out += "  LocalUpdater     " + std::string(updater_name()) +
         "(batch=" + std::to_string(config.batch_size) +
         ", eta=" + std::to_string(config.local_learning_rate) +
         ", local_epochs=" + std::to_string(config.local_epochs) + ")\n";
  out += "  NegativeSampler  ";
  out += config.sgns.negative_sampling == sgns::NegativeSamplingKind::kUnigram
             ? "unigram(power=" + std::to_string(config.sgns.unigram_power) +
                   ", non-private)"
             : "uniform";
  out += "\n";
  out += "  DeltaClipper     per_tensor(C=" + std::to_string(config.clip_norm) + ")\n";
  out += "  NoisyAggregator  gaussian(sigma=" + std::to_string(config.noise_scale) +
         (config.noise_scale_final > 0.0
              ? "->" + std::to_string(config.noise_scale_final)
              : "") +
         ", " + (config.fixed_denominator ? "fixed" : "realized") +
         "_denominator" + (config.per_tensor_noise ? ", per_tensor" : "") +
         ")\n";
  out += "  Accountant       " + config.accountant +
         "(delta=" + std::to_string(config.delta) +
         ", budget=" + std::to_string(config.epsilon_budget) + ")\n";
  out += "  ServerOptimizer  " + config.server_optimizer + "\n";
  return out;
}

}  // namespace plp::pipeline
