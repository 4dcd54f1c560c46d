#include "core/grouping.h"

#include <numeric>
#include <set>

#include <gtest/gtest.h>

namespace plp::core {
namespace {

data::TrainingCorpus MakeCorpus(const std::vector<int>& tokens_per_user) {
  data::TrainingCorpus corpus;
  corpus.num_locations = 100;
  int32_t next_token = 0;
  for (int count : tokens_per_user) {
    std::vector<int32_t> sentence;
    for (int i = 0; i < count; ++i) {
      sentence.push_back(next_token++ % corpus.num_locations);
    }
    corpus.user_sentences.push_back({std::move(sentence)});
  }
  return corpus;
}

PlpConfig BaseConfig(int32_t lambda) {
  PlpConfig config;
  config.grouping_factor = lambda;
  return config;
}

TEST(PoissonSampleTest, ProbabilityZeroAndOne) {
  Rng rng(1);
  EXPECT_TRUE(PoissonSampleUsers(100, 0.0, rng).empty());
  EXPECT_EQ(PoissonSampleUsers(100, 1.0, rng).size(), 100u);
}

TEST(PoissonSampleTest, ExpectedSize) {
  Rng rng(2);
  int64_t total = 0;
  const int reps = 2000;
  for (int i = 0; i < reps; ++i) {
    total += static_cast<int64_t>(PoissonSampleUsers(100, 0.06, rng).size());
  }
  EXPECT_NEAR(static_cast<double>(total) / reps, 6.0, 0.3);
}

TEST(PoissonSampleTest, SampleSizeVaries) {
  // Poisson (Bernoulli-per-user) sampling: the size is a random variable,
  // not a constant — the moments accountant depends on this.
  Rng rng(3);
  std::set<size_t> sizes;
  for (int i = 0; i < 100; ++i) {
    sizes.insert(PoissonSampleUsers(200, 0.1, rng).size());
  }
  EXPECT_GT(sizes.size(), 3u);
}

TEST(RandomGroupingTest, BucketSizesAreLambda) {
  const data::TrainingCorpus corpus = MakeCorpus(std::vector<int>(20, 5));
  std::vector<int32_t> sampled(17);
  std::iota(sampled.begin(), sampled.end(), 0);
  Rng rng(4);
  const auto buckets = BuildBuckets(corpus, sampled, BaseConfig(4), rng);
  ASSERT_EQ(buckets.size(), 5u);  // ceil(17/4)
  for (size_t i = 0; i + 1 < buckets.size(); ++i) {
    EXPECT_EQ(buckets[i].users.size(), 4u);
  }
  EXPECT_EQ(buckets.back().users.size(), 1u);
}

TEST(RandomGroupingTest, EveryUserExactlyOnce) {
  const data::TrainingCorpus corpus = MakeCorpus(std::vector<int>(30, 3));
  std::vector<int32_t> sampled = {0, 3, 5, 7, 11, 13, 17, 19, 23, 29};
  Rng rng(5);
  const auto buckets = BuildBuckets(corpus, sampled, BaseConfig(3), rng);
  std::multiset<int32_t> seen;
  for (const Bucket& b : buckets) {
    seen.insert(b.users.begin(), b.users.end());
  }
  EXPECT_EQ(seen.size(), sampled.size());
  for (int32_t u : sampled) EXPECT_EQ(seen.count(u), 1u);
  EXPECT_EQ(RealizedSplitFactor(buckets), 1);
}

TEST(RandomGroupingTest, TokensPreserved) {
  const data::TrainingCorpus corpus = MakeCorpus({5, 7, 9, 11, 2});
  std::vector<int32_t> sampled = {0, 1, 2, 3, 4};
  Rng rng(6);
  const auto buckets = BuildBuckets(corpus, sampled, BaseConfig(2), rng);
  int64_t total = 0;
  for (const Bucket& b : buckets) total += b.num_tokens();
  EXPECT_EQ(total, 5 + 7 + 9 + 11 + 2);
}

TEST(RandomGroupingTest, LambdaOneIsOneBucketPerUser) {
  const data::TrainingCorpus corpus = MakeCorpus(std::vector<int>(8, 4));
  std::vector<int32_t> sampled = {1, 2, 5};
  Rng rng(7);
  const auto buckets = BuildBuckets(corpus, sampled, BaseConfig(1), rng);
  ASSERT_EQ(buckets.size(), 3u);
  for (const Bucket& b : buckets) EXPECT_EQ(b.users.size(), 1u);
}

TEST(RandomGroupingTest, EmptySample) {
  const data::TrainingCorpus corpus = MakeCorpus({3, 3});
  Rng rng(8);
  EXPECT_TRUE(BuildBuckets(corpus, {}, BaseConfig(2), rng).empty());
}

TEST(SplitFactorTest, OmegaTwoSplitsUsersAcrossTwoBuckets) {
  const data::TrainingCorpus corpus = MakeCorpus(std::vector<int>(12, 10));
  std::vector<int32_t> sampled;
  for (int i = 0; i < 12; ++i) sampled.push_back(i);
  PlpConfig config = BaseConfig(1);
  config.split_factor = 2;
  Rng rng(11);
  const auto buckets = BuildBuckets(corpus, sampled, config, rng);
  EXPECT_EQ(RealizedSplitFactor(buckets), 2);
  // All tokens preserved across parts.
  int64_t total = 0;
  for (const Bucket& b : buckets) total += b.num_tokens();
  EXPECT_EQ(total, 120);
}

TEST(SplitFactorTest, RealizedOmegaNeverExceedsConfigured) {
  const data::TrainingCorpus corpus = MakeCorpus(std::vector<int>(9, 12));
  std::vector<int32_t> sampled = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  for (int32_t omega : {2, 3}) {
    PlpConfig config = BaseConfig(2);
    config.split_factor = omega;
    Rng rng(12 + omega);
    const auto buckets = BuildBuckets(corpus, sampled, config, rng);
    EXPECT_LE(RealizedSplitFactor(buckets), omega);
    EXPECT_GE(RealizedSplitFactor(buckets), 2);
  }
}

TEST(SplitFactorTest, ShortUserDataYieldsFewerParts) {
  // A user with a single token cannot be split into two non-empty parts.
  const data::TrainingCorpus corpus = MakeCorpus({1});
  PlpConfig config = BaseConfig(1);
  config.split_factor = 2;
  Rng rng(14);
  const auto buckets = BuildBuckets(corpus, {0}, config, rng);
  int64_t total = 0;
  for (const Bucket& b : buckets) total += b.num_tokens();
  EXPECT_EQ(total, 1);
  EXPECT_EQ(RealizedSplitFactor(buckets), 1);
}

TEST(RealizedSplitFactorTest, EmptyBuckets) {
  EXPECT_EQ(RealizedSplitFactor({}), 0);
}

}  // namespace
}  // namespace plp::core
