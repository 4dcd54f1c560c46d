// Ablation A1 (Section 4.2, Case 2): splitting a user's data across
// ω buckets.
//
// The paper argues ω = 2 is harmful: a user can then influence two bucket
// gradients, the Gaussian sum query's sensitivity becomes ω·C, and the
// noise *variance* quadruples (∝ ω²) — which more than offsets the
// marginally improved per-bucket signal. ([21]'s evaluation split data
// without re-scaling noise, which silently weakens the guarantee.)
//
// Usage: ablation_split_factor [--scale=small|paper] [--seed=N]

#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "common/check.h"
#include "common/table_printer.h"
#include "pipeline/standard_stages.h"

namespace plp::bench {
namespace {

void Run(int argc, char** argv) {
  const BenchOptions options = ParseBenchOptions(argc, argv);
  const Workload workload = BuildWorkload(options);
  PrintBanner("Ablation A1: data split factor omega", options, workload);

  std::printf("eps=2 sigma=2.5 lambda=4, random floor HR@10=%.4f\n\n",
              RandomFloorHr10(workload, 50, options.seed));
  TablePrinter table({"omega", "noise_stddev_multiplier", "steps", "HR@10",
                      "eps_classic", "eps_mog"});
  for (int32_t omega : {1, 2, 3}) {
    // Stage selection by config: the ω bound lives in the Grouper stage;
    // the NoisyAggregator rescales its noise to the ω·C sensitivity.
    core::PlpConfig config = DefaultPlpConfig(options);
    config.split_factor = omega;
    const RunOutcome outcome = RunAndEvaluate(
        StageConfig::Private(config), workload, options.seed + 1);

    // The PLD accountant's ε (mog spelling) for the same rounds: the user's
    // ω bucket parts enter as one atom of sensitivity ω·C (participation
    // is all-or-nothing), and the exact dominating-pair PLD of that law
    // is strictly tighter than the classic RDP bound at every ω.
    double eps_mog = 0.0;
    if (outcome.steps > 0) {
      core::PlpConfig mog_config = config;
      mog_config.accountant = "mog";
      auto mog = pipeline::MakeAccountant(mog_config);
      pipeline::RoundRecord first;
      first.step = 1;
      first.scheme = mog_config.sampling_scheme;
      first.sampling_ratio = mog_config.sampling_probability;
      first.population = workload.corpus->NumUsers();
      if (first.scheme == core::SamplingScheme::kFixedBatch) {
        first.batch_size =
            core::FixedBatchSize(workload.corpus->NumUsers(),
                                 mog_config.sampling_probability);
      }
      first.noise_multiplier = core::EffectiveNoiseMultiplier(mog_config, 1);
      first.split_factor = omega;
      auto mog_decision = mog->TrackRounds(first, outcome.steps);
      PLP_CHECK_OK(mog_decision.status());
      eps_mog = mog_decision->epsilon_after;
    }

    table.NewRow()
        .AddCell(static_cast<int64_t>(omega))
        .AddCell(config.noise_scale * omega * config.clip_norm, 3)
        .AddCell(outcome.steps)
        .AddCell(outcome.hit_rate_at_10)
        .AddCell(outcome.epsilon_spent)
        .AddCell(eps_mog);
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\n\n");
  table.PrintAligned(std::cout);
  std::printf(
      "\nPaper claim: omega=1 is best; omega=2 quadruples noise variance "
      "and hurts accuracy (Section 4.2). The eps_mog column shows the "
      "group-level Mixture-of-Gaussians accountant certifying the same "
      "rounds at or below the classic eps_classic spend — splitting is "
      "still harmful, but less of the harm is accounting slack.\n");
}

}  // namespace
}  // namespace plp::bench

int main(int argc, char** argv) {
  plp::bench::Run(argc, argv);
  return 0;
}
