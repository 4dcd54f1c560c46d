#ifndef PLP_CORE_PLP_TRAINER_H_
#define PLP_CORE_PLP_TRAINER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "ckpt/checkpoint.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/config.h"
#include "core/grouping.h"
#include "data/corpus.h"
#include "privacy/ledger.h"
#include "sgns/model.h"

namespace plp::core {

/// Per-step diagnostics surfaced to callbacks and stored in the history.
struct StepMetrics {
  int64_t step = 0;                ///< 1-based step index
  int64_t sampled_users = 0;       ///< |U_sample| this step
  int64_t num_buckets = 0;         ///< |H| this step
  double mean_local_loss = 0.0;    ///< mean in-bucket training loss
  double epsilon_spent = 0.0;      ///< cumulative ε after this step
  double signal_norm = 0.0;        ///< ‖Σ clipped deltas‖ before noise
  double noisy_update_norm = 0.0;  ///< ‖ĝ_t‖ actually applied
  /// Fraction of this step's bucket deltas whose clip bound engaged (line
  /// 21 actually scaled them). Persistently ≈ 1 means C is throttling the
  /// signal; ≈ 0 means C is slack and the noise is larger than necessary.
  double clip_fraction = 0.0;
  /// Largest number of distinct buckets any single user's data reached
  /// this step (Section 4.2's realized ω). The engine asserts it never
  /// exceeds the configured ω — the noise calibration σ·ω·C and every
  /// accountant's group-level analysis are unsound past that bound.
  int32_t realized_split_factor = 0;
};

/// Why training stopped.
enum class StopReason {
  kBudgetExhausted,  ///< ε(δ) reached the budget (Algorithm 1 line 12)
  kMaxSteps,         ///< hit config.max_steps
  kCallback,         ///< a callback returned false
};

/// Wall-clock seconds per pipeline stage, summed over all executed steps.
/// The training-throughput bench reports this breakdown so regressions in
/// one stage don't hide inside the aggregate steps/sec.
struct TrainPhaseSeconds {
  double sampling_grouping = 0.0;  ///< Poisson sample + bucket grouping
  double local_sgd = 0.0;          ///< per-bucket local training (lines 7–8)
  double reduction = 0.0;          ///< Σ bucket deltas into the dense sum
  double noise = 0.0;              ///< Gaussian noise + averaging (line 9)
  double server_apply = 0.0;       ///< server optimizer (line 10)
  /// Budget check before each round (lines 3, 11–13), including the round
  /// that exhausts the budget.
  double accounting = 0.0;
  double checkpoint = 0.0;  ///< durable checkpoint commits
};

/// Output of a training run.
struct TrainResult {
  sgns::SgnsModel model;
  int64_t steps_executed = 0;
  double epsilon_spent = 0.0;     ///< at the configured δ
  StopReason stop_reason = StopReason::kMaxSteps;
  double wall_seconds = 0.0;
  TrainPhaseSeconds phase_seconds;
  std::vector<StepMetrics> history;
};

/// Observer invoked after every training step with the step metrics and the
/// current model; return false to stop training (e.g. benches evaluating a
/// validation metric). The model reference is only valid during the call.
using StepCallback =
    std::function<bool(const StepMetrics&, const sgns::SgnsModel&)>;

/// Private Location Prediction — Algorithm 1 with user-level (ε, δ)-DP.
///
/// Each step: Poisson-sample users with probability q, pool them into
/// buckets of λ, locally train a copy of the model on each bucket, clip
/// each bucket's model delta to C (per-tensor C/√3), sum, add Gaussian
/// noise N(0, σ²·ω²·C²·I), average, and apply via the server optimizer. A
/// privacy ledger tracks every step; training returns the last model whose
/// cumulative ε is within budget.
class PlpTrainer {
 public:
  /// Validates `config` eagerly; invalid configs surface at Train().
  explicit PlpTrainer(const PlpConfig& config) : config_(config) {}

  const PlpConfig& config() const { return config_; }

  /// Runs Algorithm 1 over `corpus`. Deterministic given `rng`'s state.
  /// `callback` may be null.
  ///
  /// When `checkpoint.dir` is set, a durable snapshot is committed every
  /// `checkpoint.every_steps` completed steps (ledger-first: the ledger has
  /// already tracked every step whose noised update the snapshot's model
  /// contains, so no restored run can under-account). With
  /// `checkpoint.resume`, training continues from the newest valid
  /// snapshot — and because every random draw of a step is a pure function
  /// of the saved RNG position, a run killed at any instant and resumed
  /// replays the *identical* noise and reaches a bit-identical final model
  /// at any thread count; replayed steps are the same mechanism draws, not
  /// a second privacy spend.
  Result<TrainResult> Train(
      const data::CorpusView& corpus, Rng& rng,
      const StepCallback& callback = nullptr,
      const ckpt::CheckpointOptions& checkpoint = {}) const;

 private:
  PlpConfig config_;
};

/// The state-of-the-art baseline the paper compares against (Section 5.2):
/// user-level DP-SGD [Abadi et al. / McMahan et al.] adapted to
/// user-partitioned data — exactly Algorithm 1 with no data grouping
/// (λ = 1), i.e. one clipped update per sampled user.
class DpSgdTrainer {
 public:
  /// Copies `config` with grouping disabled (λ = 1, ω = 1).
  explicit DpSgdTrainer(const PlpConfig& config);

  const PlpConfig& config() const { return trainer_.config(); }

  Result<TrainResult> Train(
      const data::CorpusView& corpus, Rng& rng,
      const StepCallback& callback = nullptr,
      const ckpt::CheckpointOptions& checkpoint = {}) const {
    return trainer_.Train(corpus, rng, callback, checkpoint);
  }

 private:
  PlpTrainer trainer_;
};

}  // namespace plp::core

#endif  // PLP_CORE_PLP_TRAINER_H_
