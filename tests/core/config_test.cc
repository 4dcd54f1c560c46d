#include "core/config.h"

#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace plp::core {
namespace {

TEST(PlpConfigTest, DefaultsAreValidAndMatchPaper) {
  PlpConfig config;
  EXPECT_TRUE(config.Validate().ok());
  // Section 5.1 defaults.
  EXPECT_EQ(config.sgns.embedding_dim, 50);
  EXPECT_EQ(config.sgns.window, 2);
  EXPECT_EQ(config.sgns.negatives, 16);
  EXPECT_EQ(config.batch_size, 32);
  EXPECT_EQ(config.sampling_probability, 0.06);
  EXPECT_EQ(config.noise_scale, 2.5);
  EXPECT_EQ(config.clip_norm, 0.5);
  EXPECT_EQ(config.grouping_factor, 4);
  EXPECT_EQ(config.delta, 2e-4);
  EXPECT_EQ(config.split_factor, 1);
}

struct BadConfigCase {
  const char* name;
  std::function<void(PlpConfig&)> mutate;
  const char* names = "";  ///< text the message must contain
};

// gtest prints a parameter it has no printer for as raw bytes, and the
// ctest name embeds that text; the name pointer's bytes would change with
// every process (ASLR). Print the case name instead.
void PrintTo(const BadConfigCase& c, std::ostream* os) { *os << c.name; }

class PlpConfigValidationTest : public testing::TestWithParam<BadConfigCase> {
};

TEST_P(PlpConfigValidationTest, Rejected) {
  PlpConfig config;
  GetParam().mutate(config);
  const Status status = config.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find(GetParam().names), std::string::npos)
      << status.message();
}

INSTANTIATE_TEST_SUITE_P(
    BadConfigs, PlpConfigValidationTest,
    testing::ValuesIn(std::vector<BadConfigCase>{
        {"zero_dim", [](PlpConfig& c) { c.sgns.embedding_dim = 0; }},
        {"zero_window", [](PlpConfig& c) { c.sgns.window = 0; }},
        {"zero_negatives", [](PlpConfig& c) { c.sgns.negatives = 0; }},
        {"zero_q", [](PlpConfig& c) { c.sampling_probability = 0.0; }},
        {"q_above_one", [](PlpConfig& c) { c.sampling_probability = 1.5; }},
        {"zero_lambda", [](PlpConfig& c) { c.grouping_factor = 0; }},
        {"zero_omega", [](PlpConfig& c) { c.split_factor = 0; }},
        {"negative_sigma", [](PlpConfig& c) { c.noise_scale = -1.0; }},
        {"zero_clip", [](PlpConfig& c) { c.clip_norm = 0.0; }},
        {"zero_budget", [](PlpConfig& c) { c.epsilon_budget = 0.0; }},
        {"zero_delta", [](PlpConfig& c) { c.delta = 0.0; }},
        {"delta_one", [](PlpConfig& c) { c.delta = 1.0; }},
        {"zero_batch", [](PlpConfig& c) { c.batch_size = 0; }},
        {"zero_lr", [](PlpConfig& c) { c.local_learning_rate = 0.0; }},
        {"bad_optimizer", [](PlpConfig& c) { c.server_optimizer = "sgd?"; }},
        {"zero_max_steps", [](PlpConfig& c) { c.max_steps = 0; }},
        // The retired "mog" spelling is an unknown accountant, and the
        // message names the PLD accountant's one spelling.
        {"mog_accountant", [](PlpConfig& c) { c.accountant = "mog"; },
         "pld_fft"},
    }),
    [](const testing::TestParamInfo<BadConfigCase>& info) {
      return info.param.name;
    });

/// Poisson sampling is the one scheme; both accountants accept it.
TEST(PlpConfigTest, AcceptsEverySupportedSchemeAccountantPair) {
  for (const char* accountant : {"rdp", "pld_fft"}) {
    PlpConfig config;
    config.accountant = accountant;
    EXPECT_TRUE(config.Validate().ok()) << accountant;
  }
}

/// Validation collects every violation into one message instead of
/// stopping at the first: an unknown accountant and a bad σ surface
/// together.
TEST(PlpConfigTest, CollectsPairingViolationWithOthers) {
  PlpConfig config;
  config.accountant = "mog";
  config.noise_scale = -1.0;
  const Status status = config.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unknown accountant: mog"),
            std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("noise_scale"), std::string::npos)
      << status.message();
}

TEST(PlpConfigTest, SigmaZeroIsAllowedByValidation) {
  // σ = 0 is a legal configuration value; the accountant then reports an
  // infinite per-step cost and training stops immediately.
  PlpConfig config;
  config.noise_scale = 0.0;
  EXPECT_TRUE(config.Validate().ok());
}

}  // namespace
}  // namespace plp::core
