/// Golden equivalence suite: the pipeline engine must reproduce the
/// pre-pipeline trainers' observable behavior *bitwise* — same model CRC at
/// every thread count, bit-equal ε trajectory, same stop reasons, and the
/// ability to resume checkpoint files the pre-refactor trainers wrote.
///
/// The pins in tests/golden/golden_pins.h were generated by
/// tools/plp_golden_gen from the loop as it existed before the pipeline
/// decomposition; the variant configurations are shared via
/// tests/golden/golden_variants.h. A failure here means the engine changed
/// an observable output (RNG draw order, reduction shape, accounting, or
/// the checkpoint envelope) — that is a behavior change, not a flake.

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.h"
#include "common/rng.h"
#include "core/nonprivate_trainer.h"
#include "core/plp_trainer.h"

#include "golden/golden_pins.h"
#include "golden/golden_variants.h"

#ifndef PLP_GOLDEN_DIR
#error "PLP_GOLDEN_DIR must point at tests/golden (set in tests/CMakeLists.txt)"
#endif

namespace plp::golden {
namespace {

const PrivatePin& FindPrivatePin(const std::string& name) {
  for (const PrivatePin& pin : PrivatePins()) {
    if (pin.name == name) return pin;
  }
  ADD_FAILURE() << "no private pin named " << name;
  static const PrivatePin missing{};
  return missing;
}

const NonPrivatePin& FindNonPrivatePin(const std::string& name) {
  for (const NonPrivatePin& pin : NonPrivatePins()) {
    if (pin.name == name) return pin;
  }
  ADD_FAILURE() << "no non-private pin named " << name;
  static const NonPrivatePin missing{};
  return missing;
}

core::TrainResult RunPrivate(const PrivateVariant& variant, int32_t threads,
                             const data::TrainingCorpus& corpus) {
  core::PlpConfig config = variant.config;
  config.num_threads = threads;
  Rng rng(kGoldenSeed);
  auto result = variant.dpsgd_facade
                    ? core::DpSgdTrainer(config).Train(corpus, rng)
                    : core::PlpTrainer(config).Train(corpus, rng);
  EXPECT_TRUE(result.ok()) << result.status().message();
  return *std::move(result);
}

/// Copies a committed fixture checkpoint directory into a fresh temp dir so
/// the resumed run (which writes new snapshots and prunes old ones) never
/// touches the source tree.
std::string StageFixture(const char* fixture, const char* tag) {
  const std::filesystem::path src =
      std::filesystem::path(PLP_GOLDEN_DIR) / fixture;
  const std::filesystem::path dst =
      std::filesystem::temp_directory_path() /
      (std::string("plp_golden_") + tag + "_" +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
  std::filesystem::remove_all(dst);
  std::filesystem::create_directories(dst);
  std::filesystem::copy(src, dst);
  return dst.string();
}

TEST(GoldenEquivalenceTest, PinsAreNotStale) {
  // golden_variants.h bumps kGoldenNumericsVersion on every intentional
  // numerics change; plp_golden_gen stamps the value it was built against
  // into golden_pins.h. A mismatch means the pins predate the current
  // numerics — every CRC/ε comparison below would fail with inscrutable
  // bit differences, so fail here first with the fix spelled out.
  ASSERT_EQ(kPinnedNumericsVersion, kGoldenNumericsVersion)
      << "STALE GOLDEN PINS: tests/golden/golden_pins.h was generated under "
         "numerics version " << kPinnedNumericsVersion
      << " but the tree is at version " << kGoldenNumericsVersion
      << ".\nRegenerate the pins and checkpoint fixtures from the repo "
         "root:\n"
         "  cmake --build build --target plp_golden_gen\n"
         "  ./build/tools/plp_golden_gen --out_dir=tests/golden "
         "> tests/golden/golden_pins.h\n"
         "and commit the result, noting the regeneration in the commit "
         "message.";
}

TEST(GoldenEquivalenceTest, PrivatePinsAtEveryThreadCount) {
  const data::TrainingCorpus corpus = GoldenCorpus();
  for (const PrivateVariant& variant : PrivateVariants()) {
    SCOPED_TRACE(variant.name);
    const PrivatePin& pin = FindPrivatePin(variant.name);
    for (int32_t threads : {1, 4, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const core::TrainResult result = RunPrivate(variant, threads, corpus);
      EXPECT_EQ(ModelCrc64(result.model), pin.model_crc64);
      EXPECT_EQ(result.steps_executed, pin.steps_executed);
      EXPECT_EQ(static_cast<int>(result.stop_reason), pin.stop_reason);
      ASSERT_EQ(result.history.size(), pin.epsilon.size());
      for (size_t i = 0; i < pin.epsilon.size(); ++i) {
        // Bit-equality: the accountant is deterministic, not approximate.
        EXPECT_EQ(result.history[i].epsilon_spent, pin.epsilon[i])
            << "step " << i + 1;
      }
    }
  }
}

TEST(GoldenEquivalenceTest, NonPrivatePins) {
  const data::TrainingCorpus corpus = GoldenCorpus();
  for (const NonPrivateVariant& variant : NonPrivateVariants()) {
    SCOPED_TRACE(variant.name);
    const NonPrivatePin& pin = FindNonPrivatePin(variant.name);
    Rng rng(kGoldenSeed);
    auto result = core::NonPrivateTrainer(variant.config).Train(corpus, rng);
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(ModelCrc64(result->model), pin.model_crc64);
    ASSERT_EQ(result->history.size(), pin.mean_loss.size());
    for (size_t i = 0; i < pin.mean_loss.size(); ++i) {
      EXPECT_EQ(result->history[i].mean_loss, pin.mean_loss[i])
          << "epoch " << i + 1;
    }
  }
}

TEST(GoldenEquivalenceTest, ResumesPreRefactorPrivateCheckpoint) {
  const data::TrainingCorpus corpus = GoldenCorpus();
  const PrivatePin& pin = FindPrivatePin("default");
  for (int32_t threads : {1, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string dir = StageFixture(
        "ckpt_private", ("t" + std::to_string(threads)).c_str());
    ckpt::CheckpointOptions options;
    options.dir = dir;
    options.every_steps = 3;
    options.resume = true;
    core::PlpConfig config = GoldenPrivateBase();
    config.num_threads = threads;
    Rng rng(kGoldenSeed);
    auto result = core::PlpTrainer(config).Train(corpus, rng, nullptr,
                                                 options);
    ASSERT_TRUE(result.ok()) << result.status().message();
    // Newest fixture snapshot is step 6 → the resumed run replays 7..12
    // and must land exactly on the uninterrupted run's pins.
    EXPECT_EQ(result->steps_executed, pin.steps_executed);
    EXPECT_EQ(ModelCrc64(result->model), pin.model_crc64);
    ASSERT_EQ(result->history.size(), 6u);
    for (const core::StepMetrics& metrics : result->history) {
      EXPECT_EQ(metrics.epsilon_spent,
                pin.epsilon[static_cast<size_t>(metrics.step) - 1])
          << "step " << metrics.step;
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(GoldenEquivalenceTest, ResumesPreRefactorNonPrivateCheckpoint) {
  const data::TrainingCorpus corpus = GoldenCorpus();
  const NonPrivatePin& pin = FindNonPrivatePin("np_default");
  const std::string dir = StageFixture("ckpt_nonprivate", "np");
  ckpt::CheckpointOptions options;
  options.dir = dir;
  options.every_steps = 2;
  options.resume = true;
  Rng rng(kGoldenSeed);
  auto result =
      core::NonPrivateTrainer(GoldenNonPrivateBase()).Train(corpus, rng,
                                                            nullptr, options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  // Newest fixture snapshot is epoch 2 → epochs 3..8 replay.
  EXPECT_EQ(ModelCrc64(result->model), pin.model_crc64);
  ASSERT_EQ(result->history.size(), 6u);
  for (const core::EpochMetrics& metrics : result->history) {
    EXPECT_EQ(metrics.mean_loss,
              pin.mean_loss[static_cast<size_t>(metrics.epoch) - 1])
        << "epoch " << metrics.epoch;
  }
  std::filesystem::remove_all(dir);
}

TEST(GoldenEquivalenceTest, RejectsResumingUnderDifferentAccountant) {
  const data::TrainingCorpus corpus = GoldenCorpus();
  const std::string dir = StageFixture("ckpt_private", "pld");
  ckpt::CheckpointOptions options;
  options.dir = dir;
  options.every_steps = 3;
  options.resume = true;
  core::PlpConfig config = GoldenPrivateBase();
  config.accountant = "pld_fft";  // fixture ledger blob is RDP
  Rng rng(kGoldenSeed);
  auto result = core::PlpTrainer(config).Train(corpus, rng, nullptr, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace plp::golden
