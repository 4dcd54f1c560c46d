// Thread-count determinism regressions: for a fixed seed, training is
// bitwise-identical for ANY num_threads — including the sequential path —
// because every bucket trains on an Rng keyed by the step seed and the
// bucket's content, never by scheduling (see core/bucket_update.h).
// These tests pin that guarantee across the trainer's code paths (random
// grouping, ω-split, DP-SGD baseline), plus the clipping/grouping edge
// cases: steps whose Poisson sample is empty, a single giant user, and λ
// larger than the sampled user count.

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/bucket_update.h"
#include "core/config.h"
#include "core/grouping.h"
#include "core/plp_trainer.h"
#include "data/corpus.h"
#include "data/fixtures.h"
#include "sgns/model.h"
#include "support/fixtures.h"
#include "support/seeded_driver.h"

namespace plp::core {
namespace {

// Bitwise equality of every coordinate of every tensor. EXPECT_EQ on
// doubles is exact — that is the point.
void ExpectBitwiseEqual(const sgns::SgnsModel& a, const sgns::SgnsModel& b) {
  for (int t = 0; t < sgns::kNumTensors; ++t) {
    const auto xa = a.TensorData(static_cast<sgns::Tensor>(t));
    const auto xb = b.TensorData(static_cast<sgns::Tensor>(t));
    ASSERT_EQ(xa.size(), xb.size());
    int mismatches = 0;
    for (size_t i = 0; i < xa.size(); ++i) mismatches += xa[i] != xb[i];
    EXPECT_EQ(mismatches, 0) << "tensor " << t << " differs";
  }
}

PlpConfig DeterminismConfig() {
  PlpConfig config = test::FastTrainerConfig();
  config.sampling_probability = 0.3;
  config.grouping_factor = 2;
  config.epsilon_budget = 1e9;
  config.max_steps = 8;
  return config;
}

TrainResult TrainWithThreads(const data::TrainingCorpus& corpus,
                             PlpConfig config, int32_t threads,
                             uint64_t seed) {
  config.num_threads = threads;
  Rng rng(seed);
  auto result = PlpTrainer(config).Train(corpus, rng);
  EXPECT_TRUE(result.ok());
  return *std::move(result);
}

TEST(DeterminismTest, BitwiseIdenticalAcrossThreadCounts) {
  const data::TrainingCorpus corpus = test::ClusteredCorpus();
  const PlpConfig config = DeterminismConfig();
  test::ForEachSeed(2, /*base=*/0xDE7E12, [&](uint64_t seed) {
    const TrainResult sequential = TrainWithThreads(corpus, config, 1, seed);
    for (int32_t threads : {4, 8}) {
      const TrainResult parallel =
          TrainWithThreads(corpus, config, threads, seed);
      ASSERT_EQ(parallel.history.size(), sequential.history.size());
      ExpectBitwiseEqual(sequential.model, parallel.model);
      for (size_t i = 0; i < sequential.history.size(); ++i) {
        EXPECT_EQ(sequential.history[i].signal_norm,
                  parallel.history[i].signal_norm);
        EXPECT_EQ(sequential.history[i].noisy_update_norm,
                  parallel.history[i].noisy_update_norm);
      }
    }
  });
}

TEST(DeterminismTest, SplitPathBitwiseIdenticalAcrossThreadCounts) {
  const data::TrainingCorpus corpus = test::ClusteredCorpus();
  PlpConfig config = DeterminismConfig();
  config.split_factor = 2;
  const uint64_t seed = test::SeedAt(0x5B117D, 0);
  const TrainResult sequential = TrainWithThreads(corpus, config, 1, seed);
  for (int32_t threads : {4, 8}) {
    ExpectBitwiseEqual(sequential.model,
                       TrainWithThreads(corpus, config, threads, seed).model);
  }
}

TEST(DeterminismTest, DpSgdBaselineBitwiseIdenticalAcrossThreadCounts) {
  const data::TrainingCorpus corpus = test::ClusteredCorpus();
  PlpConfig config = DeterminismConfig();
  const uint64_t seed = test::SeedAt(0xD950D, 0);

  auto train = [&](int32_t threads) {
    PlpConfig c = config;
    c.num_threads = threads;
    Rng rng(seed);
    auto result = DpSgdTrainer(c).Train(corpus, rng);
    EXPECT_TRUE(result.ok());
    return *std::move(result);
  };
  const TrainResult sequential = train(1);
  for (int32_t threads : {4, 8}) {
    ExpectBitwiseEqual(sequential.model, train(threads).model);
  }
}

TEST(DeterminismTest, EmptySampleStepsKeepRunsAligned) {
  // With q = 0.02 over 20 users most steps sample nobody. Empty steps
  // must (a) run — pure noise is still applied, the budget is still
  // spent — and (b) not desynchronize the noise stream: the step seed is
  // drawn even when no bucket exists, so runs stay bitwise-aligned.
  const data::TrainingCorpus corpus = test::UniformCorpus(
      test::SeedAt(0xE5A, 0), /*num_users=*/20, /*num_locations=*/15);
  PlpConfig config = DeterminismConfig();
  config.sampling_probability = 0.02;
  config.max_steps = 15;

  const uint64_t seed = test::SeedAt(0xE5A, 1);
  const TrainResult a = TrainWithThreads(corpus, config, 1, seed);
  ASSERT_EQ(a.history.size(), 15u);
  int empty_steps = 0;
  for (const StepMetrics& m : a.history) {
    if (m.sampled_users == 0) {
      ++empty_steps;
      EXPECT_EQ(m.num_buckets, 0);
      EXPECT_EQ(m.signal_norm, 0.0);
      // Noise is added regardless — an observer cannot tell an empty
      // sample from a quiet one.
      EXPECT_GT(m.noisy_update_norm, 0.0);
    }
  }
  EXPECT_GT(empty_steps, 0) << "fixture no longer produces empty samples; "
                               "lower q or reseed";
  ExpectBitwiseEqual(a.model, TrainWithThreads(corpus, config, 4, seed).model);
}

TEST(DeterminismTest, GiantUserIsClippedLikeAnyOther) {
  // One user holds 2000 tokens, 200× the others. User-level DP demands
  // their influence on each step's sum is still ≤ ω·C = C; the per-step
  // signal norm is therefore bounded by |H|·C no matter how heavy the
  // bucket. Also a determinism check on a very lopsided workload.
  const data::TrainingCorpus corpus = data::MakeGiantUserCorpus(
      test::SeedAt(0x61A47, 0), /*num_users=*/10, /*num_locations=*/25,
      /*giant_tokens=*/2000);
  PlpConfig config = DeterminismConfig();
  config.sampling_probability = 0.8;
  config.grouping_factor = 1;
  config.local_learning_rate = 5.0;  // saturate the clip
  config.max_steps = 4;

  const uint64_t seed = test::SeedAt(0x61A47, 1);
  const TrainResult result = TrainWithThreads(corpus, config, 1, seed);
  for (const StepMetrics& m : result.history) {
    EXPECT_LE(m.signal_norm,
              static_cast<double>(m.num_buckets) * config.clip_norm + 1e-9);
  }
  ExpectBitwiseEqual(result.model,
                     TrainWithThreads(corpus, config, 8, seed).model);
}

TEST(DeterminismTest, LambdaExceedingSampleFormsOneBucket) {
  const data::TrainingCorpus corpus =
      test::UniformCorpus(test::SeedAt(0x1A3BDA, 0), 12, 15);
  PlpConfig config = DeterminismConfig();
  config.grouping_factor = 50;  // λ far above any possible sample

  // Direct grouping: every sampled user lands in the single bucket.
  const std::vector<int32_t> sampled = {1, 4, 9};
  {
    Rng rng(7);
    const std::vector<Bucket> buckets =
        BuildBuckets(corpus, sampled, config, rng);
    ASSERT_EQ(buckets.size(), 1u);
    EXPECT_EQ(buckets[0].users.size(), sampled.size());
  }

  // End to end: at most one bucket per step, and still deterministic.
  config.sampling_probability = 0.4;
  const uint64_t seed = test::SeedAt(0x1A3BDA, 1);
  const TrainResult result = TrainWithThreads(corpus, config, 1, seed);
  for (const StepMetrics& m : result.history) {
    EXPECT_LE(m.num_buckets, 1);
    EXPECT_EQ(m.num_buckets, m.sampled_users > 0 ? 1 : 0);
  }
  ExpectBitwiseEqual(result.model,
                     TrainWithThreads(corpus, config, 4, seed).model);
}

TEST(DeterminismTest, BucketSeedIsContentKeyed) {
  Bucket a;
  a.users = {3, 7};
  a.sentences = {{1, 2, 3}, {4, 5}};
  Bucket same = a;

  Bucket different_user = a;
  different_user.users = {3, 8};
  Bucket different_shape = a;
  different_shape.sentences = {{1, 2, 3, 4, 5}};

  const uint64_t step_seed = 0x1234;
  // Same content → same seed, regardless of where the bucket sits in the
  // step's bucket list (the function never sees an index).
  EXPECT_EQ(BucketSeed(step_seed, a), BucketSeed(step_seed, same));
  EXPECT_NE(BucketSeed(step_seed, a), BucketSeed(step_seed, different_user));
  EXPECT_NE(BucketSeed(step_seed, a), BucketSeed(step_seed, different_shape));
  EXPECT_NE(BucketSeed(step_seed, a), BucketSeed(step_seed ^ 1, a));
}

}  // namespace
}  // namespace plp::core
