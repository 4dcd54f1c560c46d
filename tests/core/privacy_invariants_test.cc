// Cross-cutting differential-privacy invariants of the training loop.

#include <tuple>

#include <gtest/gtest.h>

#include "core/plp_trainer.h"
#include "data/corpus.h"
#include "support/fixtures.h"

namespace plp::core {
namespace {

data::TrainingCorpus MakeCorpus(uint64_t seed, int32_t num_users,
                                int32_t num_locations) {
  return test::UniformCorpus(seed, num_users, num_locations);
}

PlpConfig InvariantConfig() { return test::InvariantTrainerConfig(); }

TEST(PrivacyInvariantsTest, BudgetConsumptionIsDataIndependent) {
  // The ε trajectory depends only on (q, σ, δ, steps) — never on the data
  // content, user count, or model state. Radically different corpora must
  // produce identical privacy histories.
  const data::TrainingCorpus a = MakeCorpus(1, 60, 30);
  const data::TrainingCorpus b = MakeCorpus(999, 200, 80);
  Rng rng_a(5), rng_b(6);
  auto ra = PlpTrainer(InvariantConfig()).Train(a, rng_a);
  auto rb = PlpTrainer(InvariantConfig()).Train(b, rng_b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  ASSERT_EQ(ra->history.size(), rb->history.size());
  for (size_t i = 0; i < ra->history.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra->history[i].epsilon_spent,
                     rb->history[i].epsilon_spent);
  }
}

class BudgetSweepTest
    : public testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(BudgetSweepTest, EpsilonNeverExceedsBudgetAndStepsMatchAccountant) {
  const double q = std::get<0>(GetParam());
  const double sigma = std::get<1>(GetParam());
  PlpConfig config = InvariantConfig();
  config.sampling_probability = q;
  config.noise_scale = sigma;
  config.epsilon_budget = 1.5;
  config.max_steps = 100000;
  const data::TrainingCorpus corpus = MakeCorpus(2, 50, 25);
  Rng rng(7);
  auto result = PlpTrainer(config).Train(corpus, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->epsilon_spent, config.epsilon_budget);

  // Replaying the accountant must predict exactly the executed step count.
  privacy::RdpAccountant accountant;
  const std::vector<double> step = accountant.StepRdp(q, sigma);
  int64_t predicted = 0;
  while (predicted < 100000) {
    accountant.AddPrecomputedSteps(step, 1);
    if (accountant.GetEpsilon(config.delta).value() >
        config.epsilon_budget) {
      break;
    }
    ++predicted;
  }
  EXPECT_EQ(result->steps_executed, predicted);
}

INSTANTIATE_TEST_SUITE_P(
    QSigmaGrid, BudgetSweepTest,
    testing::Combine(testing::Values(0.1, 0.25, 0.5),
                     testing::Values(1.0, 2.0, 3.0)),
    [](const testing::TestParamInfo<std::tuple<double, double>>& info) {
      return "q" +
             std::to_string(static_cast<int>(std::get<0>(info.param) * 100)) +
             "_sigma" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 10));
    });

TEST(PrivacyInvariantsTest, EveryBucketDeltaWithinClipBound) {
  // signal_norm ≤ |H|·C at every step, for random and split grouping.
  for (const int32_t omega : {1, 2}) {
    PlpConfig config = InvariantConfig();
    config.split_factor = omega;
    config.grouping_factor = 3;
    const data::TrainingCorpus corpus = MakeCorpus(3, 70, 40);
    Rng rng(11);
    auto result = PlpTrainer(config).Train(corpus, rng);
    ASSERT_TRUE(result.ok());
    for (const StepMetrics& m : result->history) {
      EXPECT_LE(m.signal_norm,
                static_cast<double>(m.num_buckets) * config.clip_norm + 1e-9);
    }
  }
}

TEST(PrivacyInvariantsTest, LambdaDoesNotChangePrivacyCost) {
  // Identical (q, σ, steps): ε must be identical for every λ. This is
  // the formal content of "grouping is free, privacy-wise".
  const data::TrainingCorpus corpus = MakeCorpus(4, 80, 30);
  double reference = -1.0;
  for (const int32_t lambda : {1, 2, 5, 8}) {
    PlpConfig config = InvariantConfig();
    config.grouping_factor = lambda;
    Rng rng(13);
    auto result = PlpTrainer(config).Train(corpus, rng);
    ASSERT_TRUE(result.ok());
    if (reference < 0) {
      reference = result->epsilon_spent;
    } else {
      EXPECT_DOUBLE_EQ(result->epsilon_spent, reference);
    }
  }
}

}  // namespace
}  // namespace plp::core
