#include "pipeline/engine.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/math_util.h"
#include "common/serialize.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/bucket_update.h"
#include "sgns/sparse_delta.h"
#include "sgns/train_scratch.h"

namespace plp::pipeline {
namespace {

/// Snapshots the full mutable training state after completed step `step`.
/// The accountant/optimizer states embed as opaque blobs: each stage
/// serializes itself, the checkpoint format stays ignorant of their layout.
/// The envelope's scheme byte keeps its default, Poisson.
ckpt::TrainerSnapshot MakeSnapshot(ckpt::TrainerKind kind, int64_t step,
                                   const Rng& rng, const Accountant& accountant,
                                   const ServerOptimizer& server,
                                   const sgns::SgnsModel& model) {
  ckpt::TrainerSnapshot snapshot;
  snapshot.kind = kind;
  snapshot.step = step;
  snapshot.rng = rng.SaveState();
  snapshot.ledger_blob = accountant.SaveBlob();
  snapshot.optimizer_name = server.name();
  ByteWriter optimizer_writer;
  server.SaveState(optimizer_writer);
  snapshot.optimizer_blob = optimizer_writer.Take();
  snapshot.model = model;
  return snapshot;
}

}  // namespace

Result<core::TrainResult> TrainingEngine::Train(
    const data::CorpusView& corpus, Rng& rng,
    const core::StepCallback& callback,
    const ckpt::CheckpointOptions& checkpoint) {
  if (corpus.NumUsers() == 0 || corpus.NumLocations() <= 0) {
    return InvalidArgumentError("empty training corpus");
  }
  // Build the bounded exp/sigmoid tables before any worker needs them, so
  // the one-time construction cost never lands inside a timed phase (and
  // never races the pool, magic statics notwithstanding).
  WarmFastMathTables();
  std::optional<ckpt::CheckpointManager> manager;
  if (checkpoint.enabled()) {
    if (checkpoint.every_steps <= 0) {
      return InvalidArgumentError("checkpoint every_steps must be > 0");
    }
    manager.emplace(checkpoint.dir, checkpoint.keep_last);
    PLP_RETURN_IF_ERROR(manager->Init());
  }

  Stopwatch stopwatch;
  PLP_ASSIGN_OR_RETURN(
      sgns::SgnsModel model,
      sgns::SgnsModel::Create(corpus.NumLocations(), config_.sgns, rng));
  PLP_RETURN_IF_ERROR(stages_.server->Prepare(model));
  PLP_RETURN_IF_ERROR(stages_.updater->Prepare(corpus, model, rng));
  stages_.aggregator->Prepare(corpus);

  // Resume overlays the freshly-initialized state: the snapshot's model,
  // accountant, optimizer moments and RNG position replace the fresh ones,
  // and the loop continues at the step after the snapshot. Every
  // cross-field consistency violation is rejected here, before any state
  // is mutated.
  int64_t start_step = 0;
  if (manager && checkpoint.resume) {
    auto loaded = manager->LoadLatest();
    if (loaded.ok()) {
      ckpt::TrainerSnapshot& snapshot = *loaded;
      if (snapshot.kind != config_.kind) {
        return InvalidArgumentError(
            "checkpoint was written by a different trainer kind");
      }
      // A fixed-batch run's ledger certified its rounds with the Poisson
      // pair, which does not bound a fixed batch's ε; refuse to continue
      // it. The refusal lives here, not in the decoder: LoadLatest skips
      // snapshots it cannot decode, so a decoder refusal would start a
      // fresh run whose pruning deletes the old checkpoints.
      if (snapshot.scheme != ckpt::SamplingScheme::kPoisson) {
        return InvalidArgumentError(
            "checkpoint was written under fixed-batch sampling, which is "
            "no longer supported; only Poisson-sampled runs resume");
      }
      if (snapshot.model.num_locations() != corpus.NumLocations() ||
          snapshot.model.dim() != config_.sgns.embedding_dim) {
        return InvalidArgumentError(
            "checkpoint model shape disagrees with corpus/config");
      }
      if (snapshot.optimizer_name != stages_.server->name()) {
        return InvalidArgumentError(
            "checkpoint optimizer disagrees with config");
      }
      PLP_RETURN_IF_ERROR(
          stages_.accountant->RestoreBlob(snapshot.ledger_blob,
                                          snapshot.step));
      ByteReader optimizer_reader(snapshot.optimizer_blob);
      PLP_RETURN_IF_ERROR(
          stages_.server->LoadState(optimizer_reader, snapshot.model));
      if (!optimizer_reader.AtEnd()) {
        return InvalidArgumentError("checkpoint: trailing optimizer bytes");
      }
      model = std::move(snapshot.model);
      rng.RestoreState(snapshot.rng);
      start_step = snapshot.step;
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    }
  }

  std::unique_ptr<ThreadPool> pool;
  if (config_.num_threads > 1) {
    pool =
        std::make_unique<ThreadPool>(static_cast<size_t>(config_.num_threads));
  }

  sgns::DenseUpdate update(model);
  core::TrainResult result;
  result.model = std::move(model);
  result.steps_executed = start_step;
  if (start_step > 0) {
    result.epsilon_spent = stages_.accountant->EpsilonSpent();
  }

  // Steady-state buffers reused across steps: one TrainScratch per pool
  // worker (workers index them via ThreadPool::CurrentWorkerIndex(), the
  // sequential path uses slot 0) and one SparseDelta slot per bucket
  // (grown lazily; Clear() keeps row-map capacity).
  const size_t num_workers = pool != nullptr ? pool->num_threads() : 1;
  std::vector<sgns::TrainScratch> scratches;
  scratches.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    scratches.emplace_back(config_.sgns.embedding_dim);
  }
  std::vector<sgns::SparseDelta> deltas;
  std::vector<const sgns::SparseDelta*> delta_ptrs;
  std::vector<double> losses;
  std::vector<uint8_t> clip_engaged;
  const bool bucket_parallel = stages_.updater->BucketParallel();

  // The round template every step's RoundRecord is stamped from.
  RoundRecord round_template;
  round_template.sampling_ratio = config_.policy.sampling_ratio;
  round_template.split_factor = config_.policy.split_factor;

  for (int64_t step = start_step + 1; step <= config_.max_steps; ++step) {
    // Consume this step's budget first; if it overruns, return θ_{t-1} —
    // the model *before* this step's update (Algorithm 1 lines 11–13).
    RoundRecord round = round_template;
    round.step = step;
    round.noise_multiplier = config_.policy.noise_multiplier_at
                                 ? config_.policy.noise_multiplier_at(step)
                                 : 0.0;
    Stopwatch phase;
    PLP_ASSIGN_OR_RETURN(const BudgetDecision decision,
                         stages_.accountant->TrackRound(round));
    result.phase_seconds.accounting += phase.ElapsedSeconds();
    if (decision.exhausted) {
      result.stop_reason = core::StopReason::kBudgetExhausted;
      break;
    }

    core::StepMetrics metrics;
    metrics.step = step;
    metrics.epsilon_spent = decision.epsilon_after;
    result.epsilon_spent = decision.epsilon_after;

    // Lines 5–6: user sample, then data grouping.
    phase.Reset();
    const std::vector<int32_t> sampled = stages_.sampler->Sample(corpus, rng);
    const std::vector<core::Bucket> buckets =
        stages_.grouper->Group(corpus, sampled, rng);
    metrics.sampled_users = static_cast<int64_t>(sampled.size());
    metrics.num_buckets = static_cast<int64_t>(buckets.size());
    metrics.realized_split_factor = core::RealizedSplitFactor(buckets);
    // A grouping that spreads one user past the configured ω breaks the
    // σ·ω·C sensitivity the aggregator noises for AND the ω the accountant
    // just certified — the step must not run. Structural stage bug, but
    // surfaced as a Status (not an abort) so embedding callers can see it.
    if (config_.policy.enforce_split_bound &&
        metrics.realized_split_factor > config_.policy.split_factor) {
      return InternalError(
          "grouper violated the split bound: realized omega " +
          std::to_string(metrics.realized_split_factor) +
          " > configured omega " +
          std::to_string(config_.policy.split_factor));
    }
    result.phase_seconds.sampling_grouping += phase.ElapsedSeconds();

    if (bucket_parallel) {
      // Lines 7–8 + 21: one clipped model delta per bucket. Buckets are
      // independent; every bucket's local training runs on an Rng derived
      // from the step seed and the bucket's content (BucketSeed), so the
      // result is bitwise-identical for any num_threads — the sequential
      // path is the same computation without the fan-out. Both seeds are
      // drawn even when no bucket exists so the streams stay aligned
      // across runs that sample differently.
      phase.Reset();
      update.Zero(pool.get());
      const uint64_t step_seed = rng.NextU64();
      const uint64_t noise_seed = rng.NextU64();
      while (deltas.size() < buckets.size()) {
        deltas.emplace_back(config_.sgns.embedding_dim);
      }
      losses.assign(buckets.size(), 0.0);
      clip_engaged.assign(buckets.size(), 0);
      const auto run_bucket = [&](size_t i, sgns::TrainScratch* scratch) {
        Rng bucket_rng(core::BucketSeed(step_seed, buckets[i]));
        stages_.updater->ComputeDelta(result.model, buckets[i],
                                      corpus.NumLocations(), bucket_rng,
                                      &losses[i], scratch, deltas[i]);
        clip_engaged[i] = stages_.clipper->Clip(deltas[i]) ? 1 : 0;
      };
      if (pool != nullptr && buckets.size() > 1) {
        pool->ParallelFor(buckets.size(), [&](size_t i) {
          const int worker = ThreadPool::CurrentWorkerIndex();
          run_bucket(i, worker >= 0 ? &scratches[static_cast<size_t>(worker)]
                                    : nullptr);
        });
      } else {
        for (size_t i = 0; i < buckets.size(); ++i) {
          run_bucket(i, &scratches[0]);
        }
      }
      result.phase_seconds.local_sgd += phase.ElapsedSeconds();

      // Sharded deterministic reduction of the bucket deltas (the Σ of the
      // Gaussian sum query) — bitwise equal to accumulating them serially
      // in bucket order.
      phase.Reset();
      delta_ptrs.clear();
      double loss_sum = 0.0;
      int64_t clipped = 0;
      for (size_t i = 0; i < buckets.size(); ++i) {
        delta_ptrs.push_back(&deltas[i]);
        loss_sum += losses[i];
        clipped += clip_engaged[i];
      }
      stages_.aggregator->Reduce(delta_ptrs, update, pool.get());
      metrics.mean_local_loss =
          buckets.empty() ? 0.0
                          : loss_sum / static_cast<double>(buckets.size());
      metrics.clip_fraction =
          buckets.empty() ? 0.0
                          : static_cast<double>(clipped) /
                                static_cast<double>(buckets.size());
      metrics.signal_norm = update.Norm(pool.get());
      result.phase_seconds.reduction += phase.ElapsedSeconds();

      // Line 9: noise calibrated to the sum's sensitivity, drawn from
      // counter-based per-block streams keyed on noise_seed — identical
      // output for any thread count — then the estimator's averaging.
      phase.Reset();
      AggregateContext ctx;
      ctx.step = step;
      ctx.noise_seed = noise_seed;
      ctx.num_buckets = buckets.size();
      ctx.pool = pool.get();
      stages_.aggregator->NoiseAndAverage(ctx, update);
      metrics.noisy_update_norm = update.Norm(pool.get());
      result.phase_seconds.noise += phase.ElapsedSeconds();
      PLP_FAULT_POINT("trainer.after_noise");

      // Line 10: model update.
      phase.Reset();
      stages_.server->Apply(update, result.model);
      result.phase_seconds.server_apply += phase.ElapsedSeconds();
    } else {
      // Whole-round updater (the non-private epoch trainer): the stage
      // owns the model mutation and the main RNG stream; nothing to clip,
      // aggregate or apply.
      phase.Reset();
      PLP_ASSIGN_OR_RETURN(metrics.mean_local_loss,
                           stages_.updater->WholeRound(corpus, result.model,
                                                       rng));
      result.phase_seconds.local_sgd += phase.ElapsedSeconds();
    }

    result.steps_executed = step;
    result.history.push_back(metrics);

    // Observe before committing: a crash between the callback and the
    // checkpoint replays the step (re-observing the identical metrics),
    // whereas the reverse order could persist a step no observer ever saw.
    const bool continue_training =
        !callback || callback(metrics, result.model);

    if (manager && step % checkpoint.every_steps == 0) {
      PLP_FAULT_POINT("trainer.before_checkpoint");
      phase.Reset();
      PLP_RETURN_IF_ERROR(manager->Save(
          MakeSnapshot(config_.kind, step, rng, *stages_.accountant,
                       *stages_.server, result.model)));
      result.phase_seconds.checkpoint += phase.ElapsedSeconds();
    }

    if (!continue_training) {
      result.stop_reason = core::StopReason::kCallback;
      break;
    }
    if (step == config_.max_steps) {
      result.stop_reason = core::StopReason::kMaxSteps;
    }
  }

  result.wall_seconds = stopwatch.ElapsedSeconds();
  return result;
}

}  // namespace plp::pipeline
