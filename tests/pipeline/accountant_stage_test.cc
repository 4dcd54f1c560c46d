// The Accountant stages as the engine drives them: the PLD accountant
// behind "pld_fft" (participation probability, ε flat in ω, round checks),
// and the checkpoint-blob checks it shares with the rdp ledger.

#include <string>

#include <gtest/gtest.h>

#include "common/status.h"
#include "core/config.h"
#include "pipeline/standard_stages.h"

namespace plp::pipeline {
namespace {

constexpr double kDelta = 1e-5;

core::PlpConfig AccountantConfig(const char* accountant) {
  core::PlpConfig config;
  config.accountant = accountant;
  config.delta = kDelta;
  config.epsilon_budget = 1e9;
  config.sampling_probability = 0.06;
  config.noise_scale = 2.5;
  return config;
}

RoundRecord PoissonRound(double q, int32_t omega) {
  RoundRecord round;
  round.step = 1;
  round.sampling_ratio = q;
  round.noise_multiplier = 2.5;
  round.split_factor = omega;
  return round;
}

/// ε after `count` rounds of `first` through the named accountant stage.
double EpsilonAfter(const char* accountant, const RoundRecord& first,
                    int64_t count) {
  auto stage = MakeAccountant(AccountantConfig(accountant));
  auto decision = stage->TrackRounds(first, count);
  EXPECT_TRUE(decision.ok()) << decision.status().message();
  return decision.ok() ? decision->epsilon_after : -1.0;
}

/// The pipeline samples WHOLE users and the grouper places all ω parts of
/// every sampled user into the round, so participation is all-or-nothing:
/// the dominating pair in ω·C-normalized units is (1−q)N(0,σ²) + qN(1,σ²)
/// for every ω, and — σ being the multiplier relative to the joint
/// sensitivity ω·C — ε must be bit-identical across ω. (A law with ε
/// shrinking in ω, e.g. element-wise Binomial(ω, q) weights, would mean
/// the accountant certifies more steps than the released all-or-nothing
/// mechanism supports.)
TEST(AccountantStageTest, EpsilonInvariantInOmega) {
  const double reference =
      EpsilonAfter("pld_fft", PoissonRound(0.25, 1), 40);
  EXPECT_GT(reference, 0.0);
  for (const int32_t omega : {2, 4, 8}) {
    EXPECT_EQ(EpsilonAfter("pld_fft", PoissonRound(0.25, omega), 40),
              reference)
        << "omega=" << omega;
  }
}

/// The PLD stage's round checks: p in (0, 1] and σ > 0.
TEST(AccountantStageTest, RejectsInvalidRounds) {
  const auto rejected = [](const RoundRecord& round) {
    auto stage = MakeAccountant(AccountantConfig("pld_fft"));
    return !stage->TrackRound(round).ok();
  };
  EXPECT_TRUE(rejected(PoissonRound(0.0, 1)));
  EXPECT_TRUE(rejected(PoissonRound(1.1, 1)));
  RoundRecord no_noise = PoissonRound(0.5, 1);
  no_noise.noise_multiplier = 0.0;
  EXPECT_TRUE(rejected(no_noise));
  EXPECT_FALSE(rejected(PoissonRound(1.0, 1)));
  EXPECT_FALSE(rejected(PoissonRound(0.5, 8)));
}

/// Every accountant refuses a blob with trailing bytes, another δ, or a
/// step count other than the checkpoint's (the ledger-first invariant).
TEST(AccountantStageTest, RestoreChecksTrailingBytesDeltaAndSteps) {
  for (const char* accountant : {"rdp", "pld_fft"}) {
    auto stage = MakeAccountant(AccountantConfig(accountant));
    ASSERT_TRUE(stage->TrackRounds(PoissonRound(0.06, 1), 5).ok());
    const std::string blob = stage->SaveBlob();

    auto fresh = [&] { return MakeAccountant(AccountantConfig(accountant)); };
    EXPECT_TRUE(fresh()->RestoreBlob(blob, 5).ok()) << accountant;
    const Status trailing = fresh()->RestoreBlob(blob + '\0', 5);
    EXPECT_NE(trailing.message().find("trailing"), std::string::npos)
        << accountant << ": " << trailing.message();
    const Status steps = fresh()->RestoreBlob(blob, 4);
    EXPECT_NE(steps.message().find("steps disagree"), std::string::npos)
        << accountant << ": " << steps.message();
    core::PlpConfig other_delta = AccountantConfig(accountant);
    other_delta.delta = 2 * kDelta;
    const Status delta = MakeAccountant(other_delta)->RestoreBlob(blob, 5);
    EXPECT_NE(delta.message().find("δ disagrees"), std::string::npos)
        << accountant << ": " << delta.message();
  }
}

}  // namespace
}  // namespace plp::pipeline
