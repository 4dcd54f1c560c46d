// End-to-end pipeline tests over the synthetic city: generate → filter →
// split → corpus → train (non-private and DP) → evaluate. Sized to run in
// seconds.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/nonprivate_trainer.h"
#include "core/plp_trainer.h"
#include "data/corpus.h"
#include "data/synthetic_generator.h"
#include "eval/hit_rate.h"
#include "eval/recommender.h"

namespace plp {
namespace {

struct Pipeline {
  data::CheckInDataset train;
  data::CheckInDataset test;
  data::TrainingCorpus corpus;
  std::vector<eval::EvalExample> examples;
};

Pipeline BuildPipeline(uint64_t seed) {
  Rng rng(seed);
  data::SyntheticConfig config = data::SmallSyntheticConfig();
  config.num_users = 250;
  config.num_locations = 120;
  config.num_clusters = 6;
  config.log_checkins_mean = 3.4;
  config.log_checkins_stddev = 0.5;
  auto dataset = data::GenerateSyntheticCheckIns(config, rng);
  EXPECT_TRUE(dataset.ok());
  data::CheckInDataset filtered = dataset->Filter(10, 2);
  auto split = filtered.SplitHoldout(30, rng);
  EXPECT_TRUE(split.ok());
  Pipeline p{.train = std::move(split->first),
             .test = std::move(split->second),
             .corpus = {},
             .examples = {}};
  auto corpus = data::BuildCorpus(p.train);
  EXPECT_TRUE(corpus.ok());
  p.corpus = std::move(corpus).value();
  p.examples = eval::BuildLeaveOneOutExamples(p.test);
  EXPECT_FALSE(p.examples.empty());
  return p;
}

double RandomFloorHr10(const Pipeline& p, uint64_t seed) {
  Rng rng(seed);
  sgns::SgnsConfig config;
  config.embedding_dim = 16;
  auto model = sgns::SgnsModel::Create(p.corpus.num_locations, config, rng);
  EXPECT_TRUE(model.ok());
  auto hr = eval::EvaluateHitRate(*model, p.examples, {10});
  EXPECT_TRUE(hr.ok());
  return hr->at(10);
}

TEST(EndToEndTest, NonPrivateTrainingBeatsRandomFloor) {
  const Pipeline p = BuildPipeline(404);
  const double floor = RandomFloorHr10(p, 1);

  core::NonPrivateConfig config;
  config.sgns.embedding_dim = 16;
  config.sgns.negatives = 8;
  config.epochs = 6;
  Rng rng(2);
  auto result = core::NonPrivateTrainer(config).Train(p.corpus, rng);
  ASSERT_TRUE(result.ok());
  auto hr = eval::EvaluateHitRate(result->model, p.examples, {5, 10, 20});
  ASSERT_TRUE(hr.ok());
  EXPECT_GT(hr->at(10), 2.0 * floor);
  EXPECT_LE(hr->at(5), hr->at(10));
  EXPECT_LE(hr->at(10), hr->at(20));
}

TEST(EndToEndTest, PrivateTrainingStaysWithinBudgetAndProducesUsableModel) {
  const Pipeline p = BuildPipeline(405);

  core::PlpConfig config;
  config.sgns.embedding_dim = 16;
  config.sgns.negatives = 8;
  config.sampling_probability = 0.2;
  config.grouping_factor = 4;
  config.noise_scale = 2.0;
  config.epsilon_budget = 3.0;
  config.max_steps = 40;
  Rng rng(3);
  auto result = core::PlpTrainer(config).Train(p.corpus, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->steps_executed, 0);
  EXPECT_LE(result->epsilon_spent, config.epsilon_budget);

  // The model is structurally usable downstream.
  auto hr = eval::EvaluateHitRate(result->model, p.examples, {10});
  ASSERT_TRUE(hr.ok());
  EXPECT_GE(hr->at(10), 0.0);
  EXPECT_LE(hr->at(10), 1.0);

  eval::Recommender rec(result->model);
  const std::vector<int32_t> top =
      rec.TopK(p.examples.front().history, 5);
  EXPECT_EQ(top.size(), 5u);
}

TEST(EndToEndTest, CsvRoundTripPreservesTraining) {
  // A filtered dataset has a fully-visited vocabulary, so save/load is an
  // identity (a user-split view would legitimately shrink the vocabulary).
  Rng rng(406);
  data::SyntheticConfig data_config = data::SmallSyntheticConfig();
  data_config.num_users = 150;
  data_config.num_locations = 80;
  auto generated = data::GenerateSyntheticCheckIns(data_config, rng);
  ASSERT_TRUE(generated.ok());
  const data::CheckInDataset dataset = generated->Filter(10, 2);

  const std::string path = testing::TempDir() + "/plp_e2e.csv";
  ASSERT_TRUE(dataset.SaveCsv(path).ok());
  auto loaded = data::CheckInDataset::LoadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_locations(), dataset.num_locations());
  auto corpus_a = data::BuildCorpus(dataset);
  auto corpus_b = data::BuildCorpus(*loaded);
  ASSERT_TRUE(corpus_a.ok());
  ASSERT_TRUE(corpus_b.ok());
  EXPECT_EQ(corpus_a->num_tokens(), corpus_b->num_tokens());
  // Identical corpora → identical training outcome for the same seed.
  core::NonPrivateConfig config;
  config.sgns.embedding_dim = 8;
  config.epochs = 1;
  Rng ra(7), rb(7);
  auto a = core::NonPrivateTrainer(config).Train(*corpus_a, ra);
  auto b = core::NonPrivateTrainer(config).Train(*corpus_b, rb);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->history.back().mean_loss, b->history.back().mean_loss);
  std::remove(path.c_str());
}

TEST(EndToEndTest, GroupingChangesTrainingDynamicsNotPrivacy) {
  // λ = 1 and λ = 6 must spend the identical privacy budget per step —
  // grouping is free privacy-wise; that is the paper's core insight.
  const Pipeline p = BuildPipeline(407);
  core::PlpConfig config;
  config.sgns.embedding_dim = 8;
  config.sgns.negatives = 4;
  config.sampling_probability = 0.2;
  config.noise_scale = 2.0;
  config.epsilon_budget = 10.0;
  config.max_steps = 5;

  auto run = [&](int32_t lambda, uint64_t seed) {
    core::PlpConfig c = config;
    c.grouping_factor = lambda;
    Rng rng(seed);
    auto r = core::PlpTrainer(c).Train(p.corpus, rng);
    EXPECT_TRUE(r.ok());
    return std::move(r).value();
  };
  const core::TrainResult a = run(1, 8);
  const core::TrainResult b = run(6, 8);
  EXPECT_EQ(a.steps_executed, b.steps_executed);
  EXPECT_DOUBLE_EQ(a.epsilon_spent, b.epsilon_spent);
}

}  // namespace
}  // namespace plp
