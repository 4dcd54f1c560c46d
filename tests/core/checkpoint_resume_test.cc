/// Crash/resume contract of both trainers: a run interrupted at any step
/// and resumed from its newest checkpoint finishes with the bit-identical
/// model and the identical privacy-accounting trajectory of the run that
/// was never interrupted — at any thread count. (The randomized SIGKILL
/// version of these properties lives in tools/plp_crashtest.)
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "core/nonprivate_trainer.h"
#include "core/plp_trainer.h"
#include "data/fixtures.h"

namespace plp::core {
namespace {

constexpr uint64_t kSeed = 1234;
constexpr int64_t kMaxSteps = 12;

data::TrainingCorpus MakeCorpus() {
  data::FixtureCorpusOptions options;
  options.num_users = 48;
  options.num_locations = 24;
  options.neighborhood = 4;
  return data::MakeFixtureCorpus(777, options);
}

PlpConfig MakePrivateConfig(int32_t threads = 1) {
  PlpConfig config;
  config.sgns.embedding_dim = 8;
  config.sgns.negatives = 4;
  config.sampling_probability = 0.25;
  config.grouping_factor = 2;
  config.noise_scale = 1.2;
  config.clip_norm = 0.5;
  config.epsilon_budget = 1e9;  // stop on max_steps, not the budget
  config.batch_size = 8;
  config.max_steps = kMaxSteps;
  config.num_threads = threads;
  return config;
}

bool ModelsBitwiseEqual(const sgns::SgnsModel& a, const sgns::SgnsModel& b) {
  if (a.num_locations() != b.num_locations() || a.dim() != b.dim()) {
    return false;
  }
  for (int t = 0; t < sgns::kNumTensors; ++t) {
    const auto ta = a.TensorData(static_cast<sgns::Tensor>(t));
    const auto tb = b.TensorData(static_cast<sgns::Tensor>(t));
    if (ta.size() != tb.size() ||
        std::memcmp(ta.data(), tb.data(), ta.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

class CheckpointResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("plp_resume_test_" + std::string(::testing::UnitTest::GetInstance()
                                                  ->current_test_info()
                                                  ->name())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    FaultInjection::Disarm();
    std::filesystem::remove_all(dir_);
  }

  ckpt::CheckpointOptions Options(bool resume, int64_t every_steps = 1) {
    ckpt::CheckpointOptions options;
    options.dir = dir_;
    options.every_steps = every_steps;
    options.resume = resume;
    return options;
  }

  std::string dir_;
};

TEST_F(CheckpointResumeTest, PrivateResumeIsBitIdentical) {
  const data::TrainingCorpus corpus = MakeCorpus();
  const PlpTrainer trainer(MakePrivateConfig());

  Rng reference_rng(kSeed);
  auto reference = trainer.Train(corpus, reference_rng);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(reference->steps_executed, kMaxSteps);

  // Interrupted run: the callback stops training after step 5; the step-5
  // checkpoint is still committed (observe-before-commit ordering).
  Rng interrupted_rng(kSeed);
  auto interrupted = trainer.Train(
      corpus, interrupted_rng,
      [](const StepMetrics& m, const sgns::SgnsModel&) { return m.step < 5; },
      Options(/*resume=*/false));
  ASSERT_TRUE(interrupted.ok());
  ASSERT_EQ(interrupted->steps_executed, 5);
  ASSERT_EQ(interrupted->stop_reason, StopReason::kCallback);

  // Resume with a *differently seeded* Rng: every bit of resumed state,
  // including the RNG position, must come from the checkpoint.
  Rng resumed_rng(kSeed + 999);
  auto resumed = trainer.Train(corpus, resumed_rng, nullptr,
                               Options(/*resume=*/true));
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed->steps_executed, kMaxSteps);
  EXPECT_TRUE(ModelsBitwiseEqual(resumed->model, reference->model));

  // Accounting trajectory: ε after every replayed step matches the
  // uninterrupted run bit-for-bit, and the final spend agrees.
  ASSERT_EQ(resumed->history.size(), static_cast<size_t>(kMaxSteps - 5));
  for (const StepMetrics& metrics : resumed->history) {
    const StepMetrics& expected =
        reference->history[static_cast<size_t>(metrics.step - 1)];
    EXPECT_EQ(metrics.epsilon_spent, expected.epsilon_spent)
        << "step " << metrics.step;
    EXPECT_EQ(metrics.noisy_update_norm, expected.noisy_update_norm)
        << "step " << metrics.step;
  }
  EXPECT_EQ(resumed->epsilon_spent, reference->epsilon_spent);
}

TEST_F(CheckpointResumeTest, PrivateResumeAfterInjectedFailure) {
  const data::TrainingCorpus corpus = MakeCorpus();
  const PlpTrainer trainer(MakePrivateConfig());

  Rng reference_rng(kSeed);
  auto reference = trainer.Train(corpus, reference_rng);
  ASSERT_TRUE(reference.ok());

  // The 4th checkpoint attempt fails hard mid-run; steps 1–3 are durable.
  FaultInjection::Arm("trainer.before_checkpoint", FaultMode::kFail,
                      /*trigger_hit=*/4);
  Rng interrupted_rng(kSeed);
  auto interrupted =
      trainer.Train(corpus, interrupted_rng, nullptr, Options(false));
  ASSERT_FALSE(interrupted.ok());
  FaultInjection::Disarm();
  ckpt::CheckpointManager manager(dir_);
  EXPECT_EQ(manager.LoadLatest()->step, 3);

  Rng resumed_rng(kSeed + 1);
  auto resumed = trainer.Train(corpus, resumed_rng, nullptr, Options(true));
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed->steps_executed, kMaxSteps);
  EXPECT_TRUE(ModelsBitwiseEqual(resumed->model, reference->model));
  EXPECT_EQ(resumed->epsilon_spent, reference->epsilon_spent);
}

TEST_F(CheckpointResumeTest, CrashAtOneThreadResumeAtFourThreads) {
  const data::TrainingCorpus corpus = MakeCorpus();

  Rng reference_rng(kSeed);
  auto reference = PlpTrainer(MakePrivateConfig(1)).Train(corpus,
                                                          reference_rng);
  ASSERT_TRUE(reference.ok());

  Rng interrupted_rng(kSeed);
  auto interrupted = PlpTrainer(MakePrivateConfig(1)).Train(
      corpus, interrupted_rng,
      [](const StepMetrics& m, const sgns::SgnsModel&) { return m.step < 4; },
      Options(false));
  ASSERT_TRUE(interrupted.ok());

  // Thread count is an execution detail, not model state: resuming the
  // 1-thread run on 4 threads must land on the same bytes.
  Rng resumed_rng(kSeed + 2);
  auto resumed = PlpTrainer(MakePrivateConfig(4)).Train(corpus, resumed_rng,
                                                        nullptr,
                                                        Options(true));
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE(ModelsBitwiseEqual(resumed->model, reference->model));
}

TEST_F(CheckpointResumeTest, SparseCheckpointCadenceReplaysTheGap) {
  const data::TrainingCorpus corpus = MakeCorpus();
  const PlpTrainer trainer(MakePrivateConfig());

  Rng reference_rng(kSeed);
  auto reference = trainer.Train(corpus, reference_rng);
  ASSERT_TRUE(reference.ok());

  // Checkpoint every 3 steps, stop after step 7: the newest snapshot is
  // step 6, so the resumed run re-executes step 7 (same draws, not a
  // second privacy spend) and continues.
  Rng interrupted_rng(kSeed);
  auto interrupted = trainer.Train(
      corpus, interrupted_rng,
      [](const StepMetrics& m, const sgns::SgnsModel&) { return m.step < 7; },
      Options(false, /*every_steps=*/3));
  ASSERT_TRUE(interrupted.ok());
  ckpt::CheckpointManager manager(dir_);
  ASSERT_EQ(manager.LoadLatest()->step, 6);

  Rng resumed_rng(kSeed + 3);
  auto resumed = trainer.Train(corpus, resumed_rng, nullptr,
                               Options(true, /*every_steps=*/3));
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE(ModelsBitwiseEqual(resumed->model, reference->model));
  EXPECT_EQ(resumed->epsilon_spent, reference->epsilon_spent);
}

TEST_F(CheckpointResumeTest, ResumeFromEmptyDirIsAFreshStart) {
  const data::TrainingCorpus corpus = MakeCorpus();
  const PlpTrainer trainer(MakePrivateConfig());

  Rng reference_rng(kSeed);
  auto reference = trainer.Train(corpus, reference_rng);
  ASSERT_TRUE(reference.ok());

  Rng rng(kSeed);
  auto fresh = trainer.Train(corpus, rng, nullptr, Options(true));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->steps_executed, kMaxSteps);
  // Checkpoint commits consume no randomness, so a checkpointed fresh run
  // matches the never-checkpointed reference exactly.
  EXPECT_TRUE(ModelsBitwiseEqual(fresh->model, reference->model));
}

/// The engine times the budget check and the checkpoint commits as phases
/// of their own, disjoint from the other five and from each other, so the
/// seven never add up to more than the run's wall time.
TEST_F(CheckpointResumeTest, PhaseSecondsTimeAccountingAndCheckpoints) {
  const data::TrainingCorpus corpus = MakeCorpus();
  const PlpTrainer trainer(MakePrivateConfig());
  Rng rng(kSeed);
  auto result = trainer.Train(corpus, rng, nullptr, Options(false));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->steps_executed, kMaxSteps);
  const TrainPhaseSeconds& phases = result->phase_seconds;
  EXPECT_GT(phases.accounting, 0.0);
  EXPECT_GT(phases.checkpoint, 0.0);
  const double phase_sum = phases.sampling_grouping + phases.local_sgd +
                           phases.reduction + phases.noise +
                           phases.server_apply + phases.accounting +
                           phases.checkpoint;
  EXPECT_LE(phase_sum, result->wall_seconds);
}

TEST_F(CheckpointResumeTest, ResumeRejectsWrongTrainerKind) {
  const data::TrainingCorpus corpus = MakeCorpus();

  NonPrivateConfig np_config;
  np_config.sgns.embedding_dim = 8;
  np_config.sgns.negatives = 4;
  np_config.batch_size = 16;
  np_config.epochs = 2;
  Rng np_rng(kSeed);
  ASSERT_TRUE(NonPrivateTrainer(np_config)
                  .Train(corpus, np_rng, nullptr, Options(false))
                  .ok());

  Rng rng(kSeed);
  auto resumed = PlpTrainer(MakePrivateConfig())
                     .Train(corpus, rng, nullptr, Options(true));
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CheckpointResumeTest, ResumeRejectsOptimizerMismatch) {
  const data::TrainingCorpus corpus = MakeCorpus();
  Rng rng(kSeed);
  ASSERT_TRUE(PlpTrainer(MakePrivateConfig())
                  .Train(corpus, rng,
                         [](const StepMetrics& m, const sgns::SgnsModel&) {
                           return m.step < 3;
                         },
                         Options(false))
                  .ok());

  PlpConfig fixed = MakePrivateConfig();
  fixed.server_optimizer = "fixed_step";
  Rng resumed_rng(kSeed);
  auto resumed =
      PlpTrainer(fixed).Train(corpus, resumed_rng, nullptr, Options(true));
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CheckpointResumeTest, ResumeRejectsModelShapeMismatch) {
  const data::TrainingCorpus corpus = MakeCorpus();
  Rng rng(kSeed);
  ASSERT_TRUE(PlpTrainer(MakePrivateConfig())
                  .Train(corpus, rng,
                         [](const StepMetrics& m, const sgns::SgnsModel&) {
                           return m.step < 3;
                         },
                         Options(false))
                  .ok());

  PlpConfig wider = MakePrivateConfig();
  wider.sgns.embedding_dim = 16;
  Rng resumed_rng(kSeed);
  auto resumed =
      PlpTrainer(wider).Train(corpus, resumed_rng, nullptr, Options(true));
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CheckpointResumeTest, ResumeRejectsDeltaMismatch) {
  const data::TrainingCorpus corpus = MakeCorpus();
  Rng rng(kSeed);
  ASSERT_TRUE(PlpTrainer(MakePrivateConfig())
                  .Train(corpus, rng,
                         [](const StepMetrics& m, const sgns::SgnsModel&) {
                           return m.step < 3;
                         },
                         Options(false))
                  .ok());

  // A ledger restored at a different δ would answer CumulativeEpsilon for
  // the wrong guarantee; the resume must refuse.
  PlpConfig other_delta = MakePrivateConfig();
  other_delta.delta = 1e-5;
  Rng resumed_rng(kSeed);
  auto resumed = PlpTrainer(other_delta)
                     .Train(corpus, resumed_rng, nullptr, Options(true));
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
}

/// Fixed-batch sampling is retired, and its ledgers certified rounds with
/// the Poisson pair, which does not bound a fixed batch's ε. A checkpoint
/// whose scheme byte says fixed batch must be refused by name, and left on
/// disk: a refusal that skipped the file would start a fresh run whose
/// pruning deletes the old checkpoints.
TEST_F(CheckpointResumeTest, ResumeRejectsFixedBatchCheckpoint) {
  const data::TrainingCorpus corpus = MakeCorpus();
  Rng rng(kSeed);
  ASSERT_TRUE(PlpTrainer(MakePrivateConfig())
                  .Train(corpus, rng,
                         [](const StepMetrics& m, const sgns::SgnsModel&) {
                           return m.step < 3;
                         },
                         Options(false))
                  .ok());

  const ckpt::CheckpointManager manager(dir_);
  auto newest = manager.LoadLatest();
  ASSERT_TRUE(newest.ok()) << newest.status().message();
  EXPECT_EQ(newest->scheme, ckpt::SamplingScheme::kPoisson);
  newest->scheme = ckpt::SamplingScheme::kFixedBatch;
  ASSERT_TRUE(manager.Save(*newest).ok());
  const std::string path = manager.PathForStep(newest->step);

  Rng resumed_rng(kSeed);
  auto resumed = PlpTrainer(MakePrivateConfig())
                     .Train(corpus, resumed_rng, nullptr, Options(true));
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(resumed.status().message().find("fixed-batch"),
            std::string::npos)
      << resumed.status().message();
  EXPECT_TRUE(std::filesystem::exists(path)) << path;
}

TEST_F(CheckpointResumeTest, ResumeRejectsCrossAccountantBlob) {
  const data::TrainingCorpus corpus = MakeCorpus();
  Rng rng(kSeed);
  ASSERT_TRUE(PlpTrainer(MakePrivateConfig())  // accountant = "rdp"
                  .Train(corpus, rng,
                         [](const StepMetrics& m, const sgns::SgnsModel&) {
                           return m.step < 3;
                         },
                         Options(false))
                  .ok());

  // An RDP ledger blob must not restore into the PLD accountant: the blob
  // magics differ and the resume fails instead of misparsing.
  PlpConfig pld = MakePrivateConfig();
  pld.accountant = "pld_fft";
  {
    Rng resumed_rng(kSeed);
    auto resumed =
        PlpTrainer(pld).Train(corpus, resumed_rng, nullptr, Options(true));
    ASSERT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
  }

  // The reverse direction: the RDP blob has no tag, so a PLD1 blob resumed
  // under rdp must be named as the PLD accountant's, not fail on whichever
  // RDP field its bytes happen to trip.
  std::filesystem::remove_all(dir_);
  Rng pld_rng(kSeed);
  ASSERT_TRUE(PlpTrainer(pld)
                  .Train(corpus, pld_rng,
                         [](const StepMetrics& m, const sgns::SgnsModel&) {
                           return m.step < 3;
                         },
                         Options(false))
                  .ok());
  Rng resumed_rng(kSeed);
  auto resumed = PlpTrainer(MakePrivateConfig())
                     .Train(corpus, resumed_rng, nullptr, Options(true));
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(resumed.status().message().find("PLD accountant"),
            std::string::npos)
      << resumed.status().message();
}

/// The full resume contract under the PLD accountant: the resumed run must
/// land on the uninterrupted run's model and ε trajectory bit-for-bit.
TEST_F(CheckpointResumeTest, PldResumeIsBitIdentical) {
  const data::TrainingCorpus corpus = MakeCorpus();
  PlpConfig config = MakePrivateConfig();
  config.accountant = "pld_fft";
  const PlpTrainer trainer(config);

  Rng reference_rng(kSeed);
  auto reference = trainer.Train(corpus, reference_rng);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(reference->steps_executed, kMaxSteps);

  Rng interrupted_rng(kSeed);
  auto interrupted = trainer.Train(
      corpus, interrupted_rng,
      [](const StepMetrics& m, const sgns::SgnsModel&) { return m.step < 5; },
      Options(/*resume=*/false));
  ASSERT_TRUE(interrupted.ok());
  ASSERT_EQ(interrupted->steps_executed, 5);

  Rng resumed_rng(kSeed + 999);
  auto resumed = trainer.Train(corpus, resumed_rng, nullptr,
                               Options(/*resume=*/true));
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  EXPECT_EQ(resumed->steps_executed, kMaxSteps);
  EXPECT_TRUE(ModelsBitwiseEqual(resumed->model, reference->model));
  for (const StepMetrics& metrics : resumed->history) {
    const StepMetrics& expected =
        reference->history[static_cast<size_t>(metrics.step - 1)];
    EXPECT_EQ(metrics.epsilon_spent, expected.epsilon_spent)
        << "step " << metrics.step;
  }
  EXPECT_EQ(resumed->epsilon_spent, reference->epsilon_spent);
}

TEST_F(CheckpointResumeTest, NonPrivateResumeIsBitIdentical) {
  const data::TrainingCorpus corpus = MakeCorpus();
  NonPrivateConfig config;
  config.sgns.embedding_dim = 8;
  config.sgns.negatives = 4;
  config.batch_size = 16;
  config.epochs = 8;
  const NonPrivateTrainer trainer(config);

  Rng reference_rng(kSeed);
  auto reference = trainer.Train(corpus, reference_rng);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(reference->history.size(), 8u);

  Rng interrupted_rng(kSeed);
  auto interrupted = trainer.Train(
      corpus, interrupted_rng,
      [](const EpochMetrics& m, const sgns::SgnsModel&) {
        return m.epoch < 3;
      },
      Options(false));
  ASSERT_TRUE(interrupted.ok());

  Rng resumed_rng(kSeed + 4);
  auto resumed = trainer.Train(corpus, resumed_rng, nullptr, Options(true));
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE(ModelsBitwiseEqual(resumed->model, reference->model));
  ASSERT_EQ(resumed->history.size(), 5u);
  for (size_t i = 0; i < resumed->history.size(); ++i) {
    EXPECT_EQ(resumed->history[i].mean_loss,
              reference->history[i + 3].mean_loss)
        << "epoch " << resumed->history[i].epoch;
  }
}

TEST_F(CheckpointResumeTest, NonPrivateSubsampledResumeIsBitIdentical) {
  // With frequent-token subsampling the pair set itself is a per-epoch
  // random draw; resume must replay both the draw and the shuffle.
  const data::TrainingCorpus corpus = MakeCorpus();
  NonPrivateConfig config;
  config.sgns.embedding_dim = 8;
  config.sgns.negatives = 4;
  config.batch_size = 16;
  config.epochs = 6;
  config.subsample_threshold = 0.05;
  const NonPrivateTrainer trainer(config);

  Rng reference_rng(kSeed);
  auto reference = trainer.Train(corpus, reference_rng);
  ASSERT_TRUE(reference.ok());

  Rng interrupted_rng(kSeed);
  auto interrupted = trainer.Train(
      corpus, interrupted_rng,
      [](const EpochMetrics& m, const sgns::SgnsModel&) {
        return m.epoch < 2;
      },
      Options(false));
  ASSERT_TRUE(interrupted.ok());

  Rng resumed_rng(kSeed + 5);
  auto resumed = trainer.Train(corpus, resumed_rng, nullptr, Options(true));
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE(ModelsBitwiseEqual(resumed->model, reference->model));
}

}  // namespace
}  // namespace plp::core
