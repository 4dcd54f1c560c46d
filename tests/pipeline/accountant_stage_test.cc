// The Accountant stages as the engine drives them: the one PLD accountant
// behind the "pld_fft" and "mog" spellings (participation probability,
// scheme pairing, ω bound), and the checkpoint-blob checks it shares with
// the rdp ledger.

#include <string>

#include <gtest/gtest.h>

#include "common/status.h"
#include "core/config.h"
#include "pipeline/standard_stages.h"
#include "privacy/pld_accountant.h"

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
  round.population = 100;
  round.noise_multiplier = 2.5;
  round.split_factor = omega;
  return round;
}

RoundRecord FixedBatchRound(int64_t batch, int64_t population, int32_t omega) {
  RoundRecord round = PoissonRound(0.06, omega);
  round.scheme = core::SamplingScheme::kFixedBatch;
  round.batch_size = batch;
  round.population = population;
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
  const double reference = EpsilonAfter("mog", PoissonRound(0.25, 1), 40);
  EXPECT_GT(reference, 0.0);
  for (const int32_t omega : {2, 4, 8}) {
    EXPECT_EQ(EpsilonAfter("mog", PoissonRound(0.25, omega), 40), reference)
        << "omega=" << omega;
  }
}

/// Both spellings run the same accountant: under Poisson they agree bit
/// for bit at every ω.
TEST(AccountantStageTest, PoissonMatchesPldFftAtEveryOmega) {
  for (const int32_t omega : {1, 2, 4}) {
    EXPECT_EQ(EpsilonAfter("mog", PoissonRound(0.06, omega), 150),
              EpsilonAfter("pld_fft", PoissonRound(0.06, omega), 150))
        << "omega=" << omega;
  }
}

/// The fixed-batch marginal is p = B/N, so a fixed batch and a Poisson
/// round at q = B/N compose identically. The recorded ratio (the
/// configured q) plays no part.
TEST(AccountantStageTest, FixedBatchMatchesPoissonAtEqualRatio) {
  RoundRecord fixed = FixedBatchRound(6, 100, 2);
  fixed.sampling_ratio = 0.061;
  EXPECT_EQ(EpsilonAfter("mog", fixed, 100),
            EpsilonAfter("mog", PoissonRound(0.06, 2), 100));
}

/// Drawing all N of N users without replacement is a sure thing: fixed
/// batch at B = N must agree with Poisson at q = 1.
TEST(AccountantStageTest, FullBatchEqualsQOnePoisson) {
  EXPECT_EQ(EpsilonAfter("mog", FixedBatchRound(20, 20, 2), 10),
            EpsilonAfter("mog", PoissonRound(1.0, 2), 10));
}

/// The "mog" spelling's round checks: p in (0, 1], σ > 0, 1 <= B <= N,
/// and ω in [1, kMogMaxSplitFactor].
TEST(AccountantStageTest, RejectsInvalidRounds) {
  const auto rejected = [](const RoundRecord& round) {
    auto stage = MakeAccountant(AccountantConfig("mog"));
    return !stage->TrackRound(round).ok();
  };
  EXPECT_TRUE(rejected(PoissonRound(0.0, 1)));
  EXPECT_TRUE(rejected(PoissonRound(1.1, 1)));
  EXPECT_TRUE(rejected(PoissonRound(0.5, 0)));
  EXPECT_TRUE(rejected(PoissonRound(0.5, privacy::kMogMaxSplitFactor + 1)));
  RoundRecord no_noise = PoissonRound(0.5, 1);
  no_noise.noise_multiplier = 0.0;
  EXPECT_TRUE(rejected(no_noise));
  // Fixed batch requires 1 <= B <= N.
  EXPECT_TRUE(rejected(FixedBatchRound(0, 10, 1)));
  EXPECT_TRUE(rejected(FixedBatchRound(11, 10, 1)));
  EXPECT_FALSE(rejected(FixedBatchRound(10, 10, 1)));
  EXPECT_FALSE(rejected(PoissonRound(0.5, privacy::kMogMaxSplitFactor)));
}

/// Only the "mog" spelling accounts fixed-batch rounds; the Poisson-only
/// accountants refuse them and name the valid pairs.
TEST(AccountantStageTest, PoissonOnlySpellingsRefuseFixedBatchRounds) {
  for (const char* accountant : {"rdp", "pld_fft"}) {
    auto stage = MakeAccountant(AccountantConfig(accountant));
    const auto decision = stage->TrackRound(FixedBatchRound(6, 100, 1));
    ASSERT_FALSE(decision.ok()) << accountant;
    EXPECT_NE(decision.status().message().find(
                  "valid (scheme, accountant) pairs are poisson x {rdp, "
                  "pld_fft, mog} and fixed_batch x {mog}"),
              std::string::npos)
        << decision.status().message();
  }
}

/// Both spellings write the same PLD1 blob, so a checkpoint from one
/// resumes under the other with the same ε bits. RDP and PLD blobs stay
/// mutually unrestorable.
TEST(AccountantStageTest, PldSpellingsResumeEachOthersBlobs) {
  for (const char* writer : {"pld_fft", "mog"}) {
    auto stage = MakeAccountant(AccountantConfig(writer));
    ASSERT_TRUE(stage->TrackRounds(PoissonRound(0.06, 1), 7).ok());
    const std::string blob = stage->SaveBlob();
    for (const char* reader : {"pld_fft", "mog"}) {
      auto resumed = MakeAccountant(AccountantConfig(reader));
      ASSERT_TRUE(resumed->RestoreBlob(blob, 7).ok()) << writer << "->"
                                                      << reader;
      EXPECT_EQ(resumed->EpsilonSpent(), stage->EpsilonSpent());
      EXPECT_EQ(resumed->SaveBlob(), blob);
    }
    auto rdp = MakeAccountant(AccountantConfig("rdp"));
    EXPECT_FALSE(rdp->RestoreBlob(blob, 7).ok()) << writer;
  }
  auto rdp = MakeAccountant(AccountantConfig("rdp"));
  ASSERT_TRUE(rdp->TrackRounds(PoissonRound(0.06, 1), 7).ok());
  for (const char* reader : {"pld_fft", "mog"}) {
    auto pld = MakeAccountant(AccountantConfig(reader));
    EXPECT_FALSE(pld->RestoreBlob(rdp->SaveBlob(), 7).ok()) << reader;
  }
}

/// Every accountant refuses a blob with trailing bytes, another δ, or a
/// step count other than the checkpoint's (the ledger-first invariant).
TEST(AccountantStageTest, RestoreChecksTrailingBytesDeltaAndSteps) {
  for (const char* accountant : {"rdp", "pld_fft", "mog"}) {
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
