#ifndef PLP_TESTS_GOLDEN_GOLDEN_VARIANTS_H_
#define PLP_TESTS_GOLDEN_GOLDEN_VARIANTS_H_

// The frozen corpus and trainer configurations behind the golden
// equivalence pins. Shared between tools/plp_golden_gen (which runs them
// to *produce* tests/golden/golden_pins.h) and
// tests/pipeline/golden_equivalence_test.cc (which runs them to *assert*
// against the pins), so the two can never drift apart. Changing anything
// here invalidates the pins — regenerate them and say so in the commit.

#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "core/nonprivate_trainer.h"
#include "core/plp_trainer.h"
#include "data/fixtures.h"
#include "sgns/model.h"

namespace plp::golden {

inline constexpr uint64_t kGoldenSeed = 1234;

/// Version of the training stack's *numerics* the pins were generated
/// under. Bump this (and regenerate the pins) whenever an intentional
/// change alters the bit-exact training trajectory — e.g. a different
/// transcendental approximation or reduction order. plp_golden_gen stamps
/// the value into golden_pins.h, and the golden suite fails loudly when
/// the stamp disagrees: that means the pins predate the current numerics.
///
/// History: 1 = libm exp/LogSumExp softmax path (PR 5 and earlier);
/// 2 = fused max-shifted softmax over the bounded exp/sigmoid LUTs;
/// 3 = the MoG accountant (since retired; its ε is pld_fft's) composes
///     the all-or-nothing participation law (whole-user sampling), so its
///     ω = 2 ε trajectory equals ω = 1 instead of the unsound element-wise
///     Binomial mixture's.
inline constexpr int kGoldenNumericsVersion = 3;

/// CRC-64/XZ over the raw bytes of the three tensors in tensor order —
/// the "model fingerprint" every pin stores. Tensors are walked row-wise
/// over the logical dims, so the fingerprint is independent of the
/// in-memory row padding.
inline uint64_t ModelCrc64(const sgns::SgnsModel& model) {
  std::string bytes;
  auto append = [&bytes](std::span<const double> values) {
    bytes.append(reinterpret_cast<const char*>(values.data()),
                 values.size() * sizeof(double));
  };
  for (int32_t l = 0; l < model.num_locations(); ++l) append(model.InRow(l));
  for (int32_t l = 0; l < model.num_locations(); ++l) append(model.OutRow(l));
  append(model.TensorData(sgns::Tensor::kBias));
  return Crc64(bytes);
}

inline data::TrainingCorpus GoldenCorpus() {
  data::FixtureCorpusOptions options;
  options.num_users = 48;
  options.num_locations = 24;
  options.neighborhood = 4;
  return data::MakeFixtureCorpus(777, options);
}

inline core::PlpConfig GoldenPrivateBase() {
  core::PlpConfig config;
  config.sgns.embedding_dim = 8;
  config.sgns.negatives = 4;
  config.sampling_probability = 0.25;
  config.grouping_factor = 2;
  config.noise_scale = 1.2;
  config.clip_norm = 0.5;
  config.epsilon_budget = 1e9;
  config.batch_size = 8;
  config.max_steps = 12;
  return config;
}

struct PrivateVariant {
  const char* name;
  core::PlpConfig config;
  bool dpsgd_facade = false;
};

inline std::vector<PrivateVariant> PrivateVariants() {
  std::vector<PrivateVariant> variants;
  variants.push_back({"default", GoldenPrivateBase()});
  {
    core::PlpConfig c = GoldenPrivateBase();
    c.split_factor = 2;
    variants.push_back({"split2", c});
  }
  {
    core::PlpConfig c = GoldenPrivateBase();
    variants.push_back({"dpsgd", c, /*dpsgd_facade=*/true});
  }
  {
    core::PlpConfig c = GoldenPrivateBase();
    c.noise_scale = 2.0;
    c.noise_scale_final = 1.0;
    c.noise_decay_steps = 8;
    variants.push_back({"schedule", c});
  }
  {
    core::PlpConfig c = GoldenPrivateBase();
    c.server_optimizer = "fixed_step";
    variants.push_back({"fixed_step", c});
  }
  {
    core::PlpConfig c = GoldenPrivateBase();
    c.per_tensor_noise = true;
    variants.push_back({"per_tensor", c});
  }
  {
    core::PlpConfig c = GoldenPrivateBase();
    c.fixed_denominator = false;
    variants.push_back({"realized_denom", c});
  }
  {
    core::PlpConfig c = GoldenPrivateBase();
    c.epsilon_budget = 4.0;  // exhausts before max_steps at these (q, σ)
    variants.push_back({"budget", c});
  }
  {
    // Frequency-proportional negatives (non-private research option).
    // Appended LAST so every pre-existing pin keeps its position and
    // value; the uniform-path variants above must stay bit-identical.
    core::PlpConfig c = GoldenPrivateBase();
    c.sgns.negative_sampling = sgns::NegativeSamplingKind::kUnigram;
    variants.push_back({"unigram", c});
  }
  {
    // The FFT privacy-loss-distribution accountant that the
    // train_publish benchmark runs. Same sampling as "default", so the
    // model CRC equals that pin's.
    core::PlpConfig c = GoldenPrivateBase();
    c.accountant = "pld_fft";
    variants.push_back({"pld_fft", c});
  }
  return variants;
}

inline core::NonPrivateConfig GoldenNonPrivateBase() {
  core::NonPrivateConfig config;
  config.sgns.embedding_dim = 8;
  config.sgns.negatives = 4;
  config.batch_size = 16;
  config.epochs = 8;
  return config;
}

struct NonPrivateVariant {
  const char* name;
  core::NonPrivateConfig config;
};

inline std::vector<NonPrivateVariant> NonPrivateVariants() {
  std::vector<NonPrivateVariant> variants;
  variants.push_back({"np_default", GoldenNonPrivateBase()});
  {
    core::NonPrivateConfig c = GoldenNonPrivateBase();
    c.subsample_threshold = 0.05;
    c.epochs = 6;
    variants.push_back({"np_subsample", c});
  }
  return variants;
}

}  // namespace plp::golden

#endif  // PLP_TESTS_GOLDEN_GOLDEN_VARIANTS_H_
