#include "core/plp_trainer.h"

#include "pipeline/engine.h"
#include "pipeline/standard_stages.h"

namespace plp::core {

Result<TrainResult> PlpTrainer::Train(
    const data::CorpusView& corpus, Rng& rng, const StepCallback& callback,
    const ckpt::CheckpointOptions& checkpoint) const {
  PLP_RETURN_IF_ERROR(config_.Validate());
  // Algorithm 1 as a stage configuration of the shared engine: Poisson
  // sampler, λ-grouper, per-bucket local SGD, per-tensor clip, Gaussian
  // sum query, the configured accountant, the configured server optimizer.
  pipeline::TrainingEngine engine(pipeline::MakePrivateEngineConfig(config_),
                                  pipeline::MakePrivateStages(config_));
  return engine.Train(corpus, rng, callback, checkpoint);
}

DpSgdTrainer::DpSgdTrainer(const PlpConfig& config)
    : trainer_([&config] {
        PlpConfig c = config;
        c.grouping_factor = 1;
        c.split_factor = 1;
        c.local_update = LocalUpdateMode::kSingleGradient;
        return c;
      }()) {}

}  // namespace plp::core
