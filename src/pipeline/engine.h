#ifndef PLP_PIPELINE_ENGINE_H_
#define PLP_PIPELINE_ENGINE_H_

#include <cstdint>
#include <functional>

#include "ckpt/checkpoint.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/plp_trainer.h"
#include "data/corpus.h"
#include "pipeline/stages.h"
#include "sgns/model.h"

namespace plp::pipeline {

/// The per-round mechanism parameters the engine stamps into every step's
/// RoundRecord before handing it to the Accountant stage. Centralizing
/// them here (instead of letting each accountant re-derive them from its
/// own config copy) is what keeps the released mechanism and the certified
/// mechanism structurally identical.
struct RoundPolicy {
  double sampling_ratio = 0.0;  ///< q
  int32_t split_factor = 1;     ///< configured ω
  /// Private runs assert realized ω ≤ configured ω after every grouping —
  /// a violating Grouper invalidates the σ·ω·C noise calibration, so the
  /// step must not execute. Off for the non-private stage set.
  bool enforce_split_bound = false;
  /// σ_t relative to the joint sensitivity ω·C at the 1-based step
  /// (schedule-aware). Null for accountant-free runs → records carry 0.
  std::function<double(int64_t)> noise_multiplier_at;
};

/// Loop bounds and scheduling for one TrainingEngine run — everything
/// about *how* the step loop executes; the StageSet holds everything about
/// *what* each step computes.
struct EngineConfig {
  sgns::SgnsConfig sgns;  ///< model shape/init (θ_0 is engine-created)
  int64_t max_steps = 0;  ///< rounds (steps for PLP, epochs non-private)
  int32_t num_threads = 1;
  ckpt::TrainerKind kind = ckpt::TrainerKind::kPrivate;
  RoundPolicy policy;
};

/// The one step loop behind every trainer (Algorithm 1's outer for-loop):
/// owns model creation, the thread pool and per-worker scratch, the
/// content-keyed bucket fan-out, phase timing, step callbacks, and the
/// checkpoint/resume protocol. Trainers are thin facades that pick a
/// StageSet; the engine guarantees the run is bitwise thread-count
/// deterministic and crash-resumable as long as the stages respect the
/// randomness contract in stages.h.
class TrainingEngine {
 public:
  TrainingEngine(EngineConfig config, StageSet stages)
      : config_(std::move(config)), stages_(std::move(stages)) {}

  /// Runs the loop. Semantics (RNG draw order, reduction shape, budget
  /// gate returning θ_{t−1}, observe-before-commit checkpointing) are
  /// pinned by the golden equivalence suite against the pre-pipeline
  /// trainers — see tests/pipeline/golden_equivalence_test.cc.
  Result<core::TrainResult> Train(const data::CorpusView& corpus,
                                  Rng& rng, const core::StepCallback& callback,
                                  const ckpt::CheckpointOptions& checkpoint);

 private:
  EngineConfig config_;
  StageSet stages_;
};

}  // namespace plp::pipeline

#endif  // PLP_PIPELINE_ENGINE_H_
