#include "core/config.h"

#include <cmath>
#include <string>
#include <vector>

namespace plp::core {
namespace {

/// Joins every violation into one kInvalidArgument status so a
/// misconfigured run reports all problems at once.
Status CollectViolations(const std::vector<std::string>& violations) {
  if (violations.empty()) return Status::Ok();
  std::string message = "invalid config: ";
  for (size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) message += "; ";
    message += violations[i];
  }
  return InvalidArgumentError(std::move(message));
}

}  // namespace

Status PlpConfig::Validate() const {
  std::vector<std::string> violations;
  const auto require = [&](bool ok, const char* message) {
    if (!ok) violations.emplace_back(message);
  };
  require(sgns.embedding_dim > 0, "embedding_dim must be > 0");
  require(sgns.window > 0, "window must be > 0");
  require(sgns.negatives > 0, "negatives must be > 0");
  require(sgns.unigram_power >= 0.0, "unigram_power must be >= 0");
  require(sampling_probability > 0.0 && sampling_probability <= 1.0,
          "sampling_probability must be in (0, 1]");
  require(grouping_factor >= 1, "grouping_factor must be >= 1");
  require(split_factor >= 1, "split_factor must be >= 1");
  require(noise_scale >= 0.0, "noise_scale must be >= 0");
  require(clip_norm > 0.0, "clip_norm must be > 0");
  require(epsilon_budget > 0.0, "epsilon_budget must be > 0");
  require(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
  require(batch_size > 0, "batch_size must be > 0");
  require(local_learning_rate > 0.0, "local_learning_rate must be > 0");
  require(local_epochs >= 1, "local_epochs must be >= 1");
  if (server_optimizer != "dp_adam" && server_optimizer != "fixed_step") {
    violations.push_back("unknown server_optimizer: " + server_optimizer);
  }
  if (accountant != "rdp" && accountant != "pld_fft") {
    violations.push_back("unknown accountant: " + accountant +
                         " (valid: rdp, pld_fft)");
  }
  require(max_steps > 0, "max_steps must be > 0");
  require(num_threads >= 1, "num_threads must be >= 1");
  require(noise_scale_final >= 0.0, "noise_scale_final must be >= 0");
  if (noise_scale_final > 0.0) {
    require(noise_scale_final <= noise_scale,
            "noise_scale_final must not exceed noise_scale");
    require(noise_decay_steps > 0,
            "noise_decay_steps must be > 0 when a schedule is set");
  }
  return CollectViolations(violations);
}

double NoiseScaleAt(const PlpConfig& config, int64_t step) {
  if (config.noise_scale_final <= 0.0) return config.noise_scale;
  if (step >= config.noise_decay_steps) return config.noise_scale_final;
  const double progress = static_cast<double>(step - 1) /
                          static_cast<double>(config.noise_decay_steps);
  return config.noise_scale +
         (config.noise_scale_final - config.noise_scale) * progress;
}

double EffectiveNoiseMultiplier(const PlpConfig& config, int64_t step) {
  const double sigma_t = NoiseScaleAt(config, step);
  return config.per_tensor_noise
             ? sigma_t / std::sqrt(static_cast<double>(sgns::kNumTensors))
             : sigma_t;
}

}  // namespace plp::core
