#include "privacy/pld_accountant.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serialize.h"
#include "core/config.h"
#include "core/plp_trainer.h"
#include "data/fixtures.h"
#include "privacy/ledger.h"

namespace plp::privacy {
namespace {

constexpr double kDelta = 1e-5;

TEST(PldAccountantTest, ZeroBeforeAnySteps) {
  PldAccountant pld(kDelta);
  EXPECT_EQ(pld.CumulativeEpsilon(), 0.0);
  EXPECT_EQ(pld.total_steps(), 0);
  EXPECT_LE(pld.DeltaAtEpsilon(0.0), kDelta);
}

TEST(PldAccountantTest, RejectsInvalidSteps) {
  PldAccountant pld(kDelta);
  EXPECT_FALSE(pld.AddSteps(0.0, 1.0, 1).ok());
  EXPECT_FALSE(pld.AddSteps(1.1, 1.0, 1).ok());
  EXPECT_FALSE(pld.AddSteps(0.5, 0.0, 1).ok());
  EXPECT_FALSE(pld.AddSteps(0.5, -1.0, 1).ok());
  EXPECT_FALSE(pld.AddSteps(0.5, 1.0, 0).ok());
  EXPECT_EQ(pld.total_steps(), 0);
}

TEST(PldAccountantTest, EpsilonIncreasesWithSteps) {
  PldAccountant pld(kDelta);
  double previous = 0.0;
  for (int round = 0; round < 6; ++round) {
    ASSERT_TRUE(pld.AddSteps(0.1, 1.5, 25).ok());
    const double eps = pld.CumulativeEpsilon();
    EXPECT_GT(eps, previous) << "after " << (round + 1) * 25 << " steps";
    EXPECT_TRUE(std::isfinite(eps));
    previous = eps;
  }
}

TEST(PldAccountantTest, EpsilonDecreasesInSigma) {
  double previous = std::numeric_limits<double>::infinity();
  for (double sigma : {1.0, 1.5, 2.0, 3.0}) {
    PldAccountant pld(kDelta);
    ASSERT_TRUE(pld.AddSteps(0.1, sigma, 50).ok());
    const double eps = pld.CumulativeEpsilon();
    EXPECT_LT(eps, previous) << "sigma=" << sigma;
    previous = eps;
  }
}

TEST(PldAccountantTest, DeltaDecreasesInEpsilon) {
  PldAccountant pld(kDelta);
  ASSERT_TRUE(pld.AddSteps(0.2, 1.2, 50).ok());
  double previous = 1.0;
  for (double eps = 0.0; eps <= 8.0; eps += 0.5) {
    const double d = pld.DeltaAtEpsilon(eps);
    EXPECT_LE(d, previous + 1e-15) << "eps=" << eps;
    EXPECT_GE(d, 0.0);
    previous = d;
  }
}

/// δ(ε) of a single unsubsampled Gaussian query (q = 1) has the closed
/// form Φ(1/(2σ) − εσ) − e^ε·Φ(−1/(2σ) − εσ) [Balle & Wang 2018]. The
/// grid discretization rounds mass pessimistically, so the accountant's ε
/// may exceed the analytic value slightly but must never undercut it.
TEST(PldAccountantTest, MatchesAnalyticGaussianAtQOne) {
  const double sigma = 2.0;
  const auto analytic_delta = [&](double eps) {
    const auto phi = [](double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); };
    return phi(1.0 / (2.0 * sigma) - eps * sigma) -
           std::exp(eps) * phi(-1.0 / (2.0 * sigma) - eps * sigma);
  };
  // Analytic ε at kDelta by bisection.
  double lo = 0.0, hi = 16.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    (analytic_delta(mid) > kDelta ? lo : hi) = mid;
  }
  const double analytic_eps = hi;

  PldAccountant pld(kDelta);
  ASSERT_TRUE(pld.AddSteps(1.0, sigma, 1).ok());
  const double pld_eps = pld.CumulativeEpsilon();
  EXPECT_GE(pld_eps, analytic_eps - 1e-6);
  EXPECT_LE(pld_eps, analytic_eps + 0.02);
}

/// The point of the FFT accountant: tighter ε than the RDP moments ledger
/// at the same (q, σ, δ, steps), never looser.
TEST(PldAccountantTest, TighterThanRdpLedger) {
  const double q = 0.06, sigma = 2.5;
  const int64_t steps = 200;
  PldAccountant pld(kDelta);
  ASSERT_TRUE(pld.AddSteps(q, sigma, steps).ok());
  PrivacyLedger ledger(kDelta);
  for (int64_t i = 0; i < steps; ++i) {
    ASSERT_TRUE(ledger.TrackStep(q, sigma).ok());
  }
  const double pld_eps = pld.CumulativeEpsilon();
  const double rdp_eps = ledger.CumulativeEpsilon(RdpConversion::kClassic);
  EXPECT_GT(pld_eps, 0.0);
  EXPECT_LT(pld_eps, rdp_eps);
}

TEST(PldAccountantTest, OverflowingGridReportsInfinity) {
  PldAccountant pld(kDelta);
  ASSERT_TRUE(pld.AddSteps(1.0, 0.05, 500).ok());
  EXPECT_TRUE(std::isinf(pld.CumulativeEpsilon()));
}

TEST(PldAccountantTest, CoalescesIdenticalRuns) {
  PldAccountant pld(kDelta);
  ASSERT_TRUE(pld.AddSteps(0.1, 1.5, 10).ok());
  ASSERT_TRUE(pld.AddSteps(0.1, 1.5, 5).ok());
  ASSERT_TRUE(pld.AddSteps(0.1, 1.0, 5).ok());
  ASSERT_EQ(pld.entries().size(), 2u);
  EXPECT_EQ(pld.entries()[0].steps, 15);
  EXPECT_EQ(pld.total_steps(), 20);
}

TEST(PldAccountantTest, SaveRestoreRoundTripsBitIdentically) {
  // Two coalesced runs, and a schedule whose every step is its own entry:
  // the restored accountant composes the entries it read, while the
  // original composed them one step at a time.
  PldAccountant runs(kDelta);
  ASSERT_TRUE(runs.AddSteps(0.06, 2.5, 120).ok());
  ASSERT_TRUE(runs.AddSteps(0.06, 1.8, 40).ok());
  PldAccountant schedule(kDelta);
  for (int step = 0; step < 12; ++step) {
    ASSERT_TRUE(schedule.AddSteps(0.06, 2.5 - 0.05 * step, 1).ok());
    ASSERT_TRUE(std::isfinite(schedule.CumulativeEpsilon()));
  }
  ASSERT_EQ(schedule.entries().size(), 12u);

  for (PldAccountant* pld : {&runs, &schedule}) {
    SCOPED_TRACE(pld->entries().size());
    ByteWriter writer;
    pld->SaveState(writer);
    const std::string blob = writer.Take();

    ByteReader reader(blob);
    auto restored = PldAccountant::Restore(reader);
    ASSERT_TRUE(restored.ok()) << restored.status().message();
    EXPECT_TRUE(reader.AtEnd());
    EXPECT_EQ(restored->delta(), pld->delta());
    EXPECT_EQ(restored->total_steps(), pld->total_steps());
    // Bit-identity, not approximation: the discretization is
    // deterministic.
    EXPECT_EQ(restored->CumulativeEpsilon(), pld->CumulativeEpsilon());

    ByteWriter writer2;
    restored->SaveState(writer2);
    EXPECT_EQ(writer2.Take(), blob);

    // The next steps, at new σ values and then a repeated one, give the
    // same bits on both sides.
    for (const double sigma : {1.7, 1.6, 1.6}) {
      ASSERT_TRUE(pld->AddSteps(0.06, sigma, 1).ok());
      ASSERT_TRUE(restored->AddSteps(0.06, sigma, 1).ok());
      EXPECT_EQ(restored->CumulativeEpsilon(), pld->CumulativeEpsilon())
          << "sigma=" << sigma;
    }
  }
}

/// Long-horizon ε bits at train_publish's mechanism (p = 0.06, σ = 2.5,
/// δ = 2e-4), generated by the direct composition (a complex FFT and one
/// polar power per bin per entry at every evaluation). Past step ~50 a
/// growing share of the powered DFT bins underflow to exactly 0 (93% by
/// step 388), which the golden trajectories, stopping at step 12, never
/// reach. ε(388) is the last step train_publish certifies
/// under ε = 2.
constexpr double kLongHorizonDelta = 2e-4;

struct EpsilonPin {
  int64_t steps;
  double epsilon;
};

constexpr EpsilonPin kPoissonPins[] = {
    {1, 0x1.47c39f8ab2413p-4},   {10, 0x1.ec16441d9462bp-3},
    {50, 0x1.2742029736bd7p-1},  {100, 0x1.b9f333dca542fp-1},
    {200, 0x1.505a4ab6d9407p+0}, {300, 0x1.b1b15b379157bp+0},
    {387, 0x1.fe7f4985bf4cp+0},  {388, 0x1.ff596f73fa821p+0},
    {389, 0x1.0019a1ce84259p+1}, {400, 0x1.04c235239a188p+1},
};

TEST(PldAccountantTest, LongHorizonPinsTrackedPerStep) {
  PldAccountant pld(kLongHorizonDelta);
  int64_t steps = 0;
  for (const EpsilonPin& pin : kPoissonPins) {
    double eps = 0.0;
    while (steps < pin.steps) {
      ASSERT_TRUE(pld.AddSteps(0.06, 2.5, 1).ok());
      ++steps;
      eps = pld.CumulativeEpsilon();
    }
    EXPECT_EQ(eps, pin.epsilon) << "step " << pin.steps;
  }
}

TEST(PldAccountantTest, LongHorizonPinsAddedInBulk) {
  for (const EpsilonPin& pin : kPoissonPins) {
    PldAccountant pld(kLongHorizonDelta);
    ASSERT_TRUE(pld.AddSteps(0.06, 2.5, pin.steps).ok());
    EXPECT_EQ(pld.CumulativeEpsilon(), pin.epsilon) << "steps " << pin.steps;
  }
}

/// A 40-step linear decay 2.5 → 1.5 from core::NoiseScaleAt, tracked per
/// step: steps 1–40 are 40 distinct entries, and step 41 coalesces into
/// step 40's entry at the final σ.
TEST(PldAccountantTest, NoiseSchedulePinsTrackedPerStep) {
  constexpr EpsilonPin kPins[] = {
      {1, 0x1.47c39f8ab2413p-4},  {2, 0x1.c4349844bc492p-4},
      {20, 0x1.9b17105c154bcp-2}, {39, 0x1.67ec253183b9p-1},
      {40, 0x1.725aa5d8609bdp-1}, {41, 0x1.7c6e06dcee132p-1},
  };
  core::PlpConfig config;
  config.noise_scale = 2.5;
  config.noise_scale_final = 1.5;
  config.noise_decay_steps = 40;
  PldAccountant pld(kLongHorizonDelta);
  int64_t steps = 0;
  for (const EpsilonPin& pin : kPins) {
    double eps = 0.0;
    while (steps < pin.steps) {
      ++steps;
      ASSERT_TRUE(
          pld.AddSteps(0.06, core::NoiseScaleAt(config, steps), 1).ok());
      eps = pld.CumulativeEpsilon();
    }
    EXPECT_EQ(eps, pin.epsilon) << "step " << pin.steps;
  }
  EXPECT_EQ(pld.entries().size(), 40u);
}

/// A Poisson pin at p = 276/4602 ≈ 0.05997, a hair under the default
/// q = 0.06, one step past the ε = 2 budget. (The ID names the retired
/// fixed-batch sampler, whose rounds were accounted at this p = B/N.)
TEST(PldAccountantTest, FixedBatchPinAtStep389) {
  PldAccountant pld(kLongHorizonDelta);
  ASSERT_TRUE(pld.AddSteps(276.0 / 4602.0, 2.5, 389).ok());
  EXPECT_EQ(pld.CumulativeEpsilon(), 0x1.fffde742a49b6p+0);
}

TEST(PldAccountantTest, RejectsForeignAndTruncatedBlobs) {
  {
    // The blob must outlive the reader (ByteReader is a view).
    const std::string blob("nonsense-bytes");
    ByteReader reader(blob);
    EXPECT_FALSE(PldAccountant::Restore(reader).ok());
  }
  {
    // An RDP ledger blob must not parse as a PLD blob.
    PrivacyLedger ledger(kDelta);
    ASSERT_TRUE(ledger.TrackStep(0.1, 1.5).ok());
    ByteWriter writer;
    ledger.SaveState(writer);
    const std::string blob = writer.Take();
    ByteReader reader(blob);
    EXPECT_FALSE(PldAccountant::Restore(reader).ok());
  }
  {
    PldAccountant pld(kDelta);
    ASSERT_TRUE(pld.AddSteps(0.1, 1.5, 3).ok());
    ByteWriter writer;
    pld.SaveState(writer);
    std::string blob = writer.Take();
    blob.resize(blob.size() / 2);  // truncate mid-entry
    ByteReader reader(blob);
    EXPECT_FALSE(PldAccountant::Restore(reader).ok());
  }
}

/// One entry of the MOG1 layout that the retired --accountant=mog spelling
/// wrote: scheme byte (1 Poisson, 2 fixed batch), recorded ratio, B, N, σ,
/// ω, steps.
struct Mog1Entry {
  uint8_t scheme = 1;
  double ratio = 0.0;
  int64_t batch_size = 0;
  int64_t population = 0;
  double sigma = 0.0;
  int32_t omega = 1;
  int64_t steps = 0;
};

std::string Mog1Blob(const std::vector<Mog1Entry>& entries) {
  ByteWriter writer;
  writer.U32(0x31474F4D);  // "MOG1" little-endian
  writer.F64(kDelta);
  writer.I32(PldOptions{}.log2_grid_size);
  writer.F64(PldOptions{}.grid_range);
  writer.U64(entries.size());
  for (const Mog1Entry& entry : entries) {
    writer.U8(entry.scheme);
    writer.F64(entry.ratio);
    writer.I64(entry.batch_size);
    writer.I64(entry.population);
    writer.F64(entry.sigma);
    writer.I32(entry.omega);
    writer.I64(entry.steps);
  }
  return writer.Take();
}

/// Two Poisson runs, at ω = 2 and at ω = 4 with another σ, as the mog
/// stage wrote them. The pinned ε is what the mog accountant certified for
/// the same (p, σ, steps) entries.
TEST(PldAccountantTest, RestoresMog1BlobToTheEpsilonItCertified) {
  const std::string blob = Mog1Blob({
      {.scheme = 1, .ratio = 0.06, .sigma = 2.5, .omega = 2, .steps = 120},
      {.scheme = 1, .ratio = 0.06, .sigma = 1.8, .omega = 4, .steps = 40},
  });
  ByteReader reader(blob);
  auto restored = PldAccountant::Restore(reader);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(restored->delta(), kDelta);
  EXPECT_EQ(restored->total_steps(), 160);
  EXPECT_EQ(restored->CumulativeEpsilon(), 0x1.a341f30e8b517p+0);

  // The same rounds tracked afresh: same bits.
  PldAccountant fresh(kDelta);
  ASSERT_TRUE(fresh.AddSteps(0.06, 2.5, 120).ok());
  ASSERT_TRUE(fresh.AddSteps(0.06, 1.8, 40).ok());
  EXPECT_EQ(fresh.CumulativeEpsilon(), restored->CumulativeEpsilon());

  // Re-saved, the blob is PLD1 and restores to the same ε again.
  ByteWriter writer;
  restored->SaveState(writer);
  const std::string pld1 = writer.Take();
  ByteReader pld1_reader(pld1);
  auto again = PldAccountant::Restore(pld1_reader);
  ASSERT_TRUE(again.ok()) << again.status().message();
  EXPECT_EQ(again->CumulativeEpsilon(), restored->CumulativeEpsilon());
}

TEST(PldAccountantTest, RejectsMalformedMog1Blobs) {
  const Mog1Entry poisson{.ratio = 0.1, .sigma = 1.5, .omega = 2, .steps = 3};
  const Mog1Entry other{.ratio = 0.2, .sigma = 2.0, .omega = 64, .steps = 5};
  {
    const std::string blob = Mog1Blob({poisson, other});
    ByteReader reader(blob);  // a view: the blob must outlive it
    ASSERT_TRUE(PldAccountant::Restore(reader).ok());
  }
  {
    std::string blob = Mog1Blob({poisson, other});
    blob.resize(blob.size() - 5);  // truncate mid-entry
    ByteReader reader(blob);
    EXPECT_FALSE(PldAccountant::Restore(reader).ok());
  }
  const auto rejected = [](const std::vector<Mog1Entry>& entries) {
    const std::string blob = Mog1Blob(entries);
    ByteReader reader(blob);
    const auto restored = PldAccountant::Restore(reader);
    return restored.ok() ? std::string() : restored.status().message();
  };
  Mog1Entry bad = poisson;
  bad.scheme = 3;
  EXPECT_NE(rejected({bad}), "") << "unknown scheme byte";
  for (const int32_t omega : {0, 65}) {
    bad = poisson;
    bad.omega = omega;
    EXPECT_NE(rejected({bad}), "") << "omega=" << omega;
  }
  // A fixed-batch entry, even a well-formed one after a Poisson entry: its
  // rounds were accounted with the Poisson pair at p = B/N, which does not
  // bound a fixed batch's ε, so the blob must not resume.
  const Mog1Entry fixed{.scheme = 2, .ratio = 0.1, .batch_size = 5,
                        .population = 50, .sigma = 1.5, .omega = 2,
                        .steps = 3};
  EXPECT_NE(rejected({poisson, fixed}).find("fixed-batch"),
            std::string::npos);
}

/// End-to-end through the trainer facade: selecting "pld_fft" must train
/// successfully, and its tighter accounting must fit at least as many
/// steps into the same ε budget as the RDP ledger.
TEST(PldAccountantTest, EngineFitsMoreStepsThanRdpInSameBudget) {
  data::FixtureCorpusOptions options;
  options.num_users = 48;
  options.num_locations = 24;
  options.neighborhood = 4;
  const data::TrainingCorpus corpus = data::MakeFixtureCorpus(777, options);

  core::PlpConfig config;
  config.sgns.embedding_dim = 8;
  config.sgns.negatives = 4;
  config.sampling_probability = 0.25;
  config.grouping_factor = 2;
  config.noise_scale = 1.2;
  config.clip_norm = 0.5;
  config.batch_size = 8;
  config.epsilon_budget = 4.0;
  config.max_steps = 64;

  core::PlpConfig rdp = config;
  rdp.accountant = "rdp";
  Rng rng_rdp(99);
  auto rdp_result = core::PlpTrainer(rdp).Train(corpus, rng_rdp);
  ASSERT_TRUE(rdp_result.ok()) << rdp_result.status().message();
  ASSERT_EQ(rdp_result->stop_reason, core::StopReason::kBudgetExhausted);

  core::PlpConfig pld = config;
  pld.accountant = "pld_fft";
  Rng rng_pld(99);
  auto pld_result = core::PlpTrainer(pld).Train(corpus, rng_pld);
  ASSERT_TRUE(pld_result.ok()) << pld_result.status().message();

  EXPECT_GT(pld_result->steps_executed, rdp_result->steps_executed);
  EXPECT_GT(pld_result->epsilon_spent, 0.0);
  EXPECT_LE(pld_result->epsilon_spent, config.epsilon_budget);
}

}  // namespace
}  // namespace plp::privacy
