// Ablation A3 (Sections 2.3 and 6): moments accountant vs classic
// composition theorems — and the FFT privacy-loss-distribution accountant.
//
// For the paper's training regime (subsampled Gaussian mechanism with
// q ∈ {0.06, 0.10}, σ ∈ {1.5, 2.5}, δ = 2·10⁻⁴) this prints how many
// training steps each accounting method admits before a given ε budget is
// exceeded. The moments accountant (RDP) admits orders of magnitude more
// steps than naive composition and far more than advanced composition —
// the enabling observation of [Abadi et al. 2016] that PLP builds on. The
// pld_fft column (Koskela et al., arXiv:1906.03049) is tighter still.
//
// The accountant columns run the same pipeline::Accountant stages the
// training engine uses — selected by PlpConfig::accountant exactly as a
// training run would select them — so the numbers here are the step counts
// a real run admits, not a re-derivation. The composition-theorem columns
// stay closed-form (they are baselines no stage implements, on purpose).
//
// Usage: ablation_accounting [--seed=N] [--max_steps=N]
//        (pure math; scale-independent)

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>

#include "common/check.h"
#include "common/flags.h"
#include "common/table_printer.h"
#include "core/config.h"
#include "pipeline/standard_stages.h"
#include "privacy/gaussian_mechanism.h"
#include "privacy/rdp_accountant.h"

namespace plp::bench {
namespace {

constexpr double kDelta = 2e-4;

core::PlpConfig AccountingConfig(const std::string& accountant,
                                 privacy::RdpConversion conversion, double q,
                                 double sigma, double eps_budget) {
  core::PlpConfig config;
  config.accountant = accountant;
  config.rdp_conversion = conversion;
  config.sampling_probability = q;
  config.noise_scale = sigma;
  config.delta = kDelta;
  config.epsilon_budget = eps_budget;
  return config;
}

/// The round-1 RoundRecord a training run over `config` would stamp —
/// what the bulk TrackRounds sweep extends.
pipeline::RoundRecord FirstRound(const core::PlpConfig& config) {
  pipeline::RoundRecord round;
  round.step = 1;
  round.sampling_ratio = config.sampling_probability;
  round.noise_multiplier = core::EffectiveNoiseMultiplier(config, 1);
  round.split_factor = config.split_factor;
  return round;
}

/// Largest round count the configured Accountant stage admits inside the
/// budget, by binary search over [0, max_steps]. Each probe builds a fresh
/// accountant and advances it through the bulk TrackRounds path, so a
/// probe costs one ε conversion (one FFT composition for pld_fft) instead
/// of one per round.
int64_t StepsAdmitted(const core::PlpConfig& config, int64_t max_steps) {
  const pipeline::RoundRecord first = FirstRound(config);
  const auto exhausted = [&config, &first](int64_t rounds) {
    auto accountant = pipeline::MakeAccountant(config);
    auto decision = accountant->TrackRounds(first, rounds);
    PLP_CHECK_OK(decision.status());
    return decision->exhausted;
  };
  if (exhausted(1)) return 0;
  if (!exhausted(max_steps)) return max_steps;
  int64_t admitted = 1, over = max_steps;
  while (over - admitted > 1) {
    const int64_t mid = admitted + (over - admitted) / 2;
    (exhausted(mid) ? over : admitted) = mid;
  }
  return admitted;
}

int64_t StepsUnderNaive(double per_step_eps, double eps_budget,
                        int64_t max_steps) {
  return std::min(max_steps,
                  static_cast<int64_t>(eps_budget / per_step_eps));
}

int64_t StepsUnderAdvanced(double per_step_eps, double eps_budget,
                           int64_t max_steps) {
  int64_t steps = 0;
  while (steps < max_steps &&
         privacy::AdvancedCompositionEpsilon(per_step_eps, steps + 1,
                                             kDelta) <= eps_budget) {
    ++steps;
  }
  return steps;
}

void Run(int argc, char** argv) {
  auto flags = plp::FlagParser::Parse(argc, argv);
  PLP_CHECK_OK(flags.status());
  const int64_t max_steps = flags->GetInt("max_steps", 200000);
  std::printf(
      "== Ablation A3: steps admitted per accounting method "
      "(delta=%.0e, cap=%lld) ==\n\n",
      kDelta, static_cast<long long>(max_steps));

  TablePrinter table({"q", "sigma", "eps_budget", "naive", "advanced",
                      "rdp_classic", "rdp_improved", "pld_fft"});
  for (double q : {0.06, 0.10}) {
    for (double sigma : {1.5, 2.5}) {
      // Per-release ε of the subsampled Gaussian for the composition
      // baselines: classic bound amplified by sampling.
      const double eps0 = privacy::AmplifyBySampling(
          privacy::GaussianEpsilon(sigma, kDelta).value(), q);
      for (double eps : {1.0, 2.0, 4.0}) {
        table.NewRow()
            .AddCell(q, 2)
            .AddCell(sigma, 1)
            .AddCell(eps, 1)
            .AddCell(StepsUnderNaive(eps0, eps, max_steps))
            .AddCell(StepsUnderAdvanced(eps0, eps, max_steps))
            .AddCell(StepsAdmitted(
                AccountingConfig("rdp", privacy::RdpConversion::kClassic, q,
                                 sigma, eps),
                max_steps))
            .AddCell(StepsAdmitted(
                AccountingConfig("rdp", privacy::RdpConversion::kImproved,
                                 q, sigma, eps),
                max_steps))
            .AddCell(StepsAdmitted(
                AccountingConfig("pld_fft", privacy::RdpConversion::kClassic,
                                 q, sigma, eps),
                max_steps));
        std::printf(".");
        std::fflush(stdout);
      }
    }
  }
  std::printf("\n\n");
  table.PrintAligned(std::cout);

  std::printf(
      "\nClaim: the moments accountant admits far more training steps than "
      "either composition theorem at every budget — which is what makes "
      "iterative private learning feasible at all. pld_fft composes the "
      "exact privacy-loss distribution and beats the classic RDP "
      "conversion up to a few hundred steps; at large step counts its "
      "pessimistic grid rounding (error linear in steps) can concede the "
      "lead to the improved and even the classic RDP conversion (q=0.06, "
      "sigma=2.5, eps=4).\n");
}

}  // namespace
}  // namespace plp::bench

int main(int argc, char** argv) {
  plp::bench::Run(argc, argv);
  return 0;
}
