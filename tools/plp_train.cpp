// plp_train — train a next-location model from a check-in CSV and save it.
//
// Input CSV columns: user,location,timestamp,latitude,longitude (header
// row required; ids may be sparse — they are densified by ascending id).
//
//   plp_train --input=checkins.csv --output=model.plpm
//             [--embeddings_output=embeddings.plpe] [--dim=50]
//             [--negative_sampling=uniform|unigram] [--unigram_power=0.75]
//             [--min_user_checkins=10] [--min_location_users=2] [--seed=1]
//             [--checkpoint_dir=ckpts] [--checkpoint_every_steps=25]
//             [--resume] [--rss_cap_mb=0] [--stats] [--print_config]
//   private runs (--private=true, the default) also read:
//             [--eps=2] [--delta=2e-4] [--sigma=2.5] [--q=0.06] [--lambda=4]
//             [--clip=0.5] [--max_steps=N] [--accountant=rdp|pld_fft]
//             [--threads=1]
//   non-private runs (--private=false) also read:
//             [--epochs=100]
//
// Instead of a CSV, --corpus_dir=DIR trains straight from an on-disk PLPD
// corpus (see plp_corpus_gen): shards are memory-mapped and check-ins are
// read zero-copy, so corpus size does not bound resident memory. The two
// data sources are mutually exclusive and exactly one is required.
//
// With --private=true (default) this runs Algorithm 1 under user-level
// (ε, δ)-DP; with --private=false it runs plain Adam for --epochs passes.
//
// Configuration errors report *every* invalid field in one message, before
// any data is read. A flag the chosen mode does not read (a typo such as
// --epsilon, or --epochs on a private run) is one of those errors, never
// silently ignored. --print_config validates, dumps the resolved pipeline
// stage configuration (which implementation fills each Algorithm 1 stage),
// and exits without training.
//
// With --checkpoint_dir, training commits a durable, checksummed snapshot
// every --checkpoint_every_steps steps (epochs when --private=false);
// --resume continues from the newest valid one after a crash, replaying
// the interrupted run bit-identically.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault_injection.h"
#include "common/flags.h"
#include "common/resource_usage.h"
#include "common/rng.h"
#include "core/nonprivate_trainer.h"
#include "core/plp_trainer.h"
#include "data/corpus.h"
#include "data/statistics.h"
#include "data/store/checkin_store.h"
#include "data/store/mmap_corpus.h"
#include "pipeline/standard_stages.h"
#include "sgns/model_io.h"

namespace {

int Fail(const plp::Status& status) {
  std::cerr << "error: " << status << "\n";
  return 1;
}

plp::sgns::NegativeSamplingKind SamplingKindFromFlags(
    const plp::FlagParser& flags) {
  return flags.GetString("negative_sampling", "uniform") == "unigram"
             ? plp::sgns::NegativeSamplingKind::kUnigram
             : plp::sgns::NegativeSamplingKind::kUniform;
}

plp::core::PlpConfig PrivateConfigFromFlags(const plp::FlagParser& flags) {
  plp::core::PlpConfig config;
  config.epsilon_budget = flags.GetDouble("eps", 2.0);
  config.delta = flags.GetDouble("delta", 2e-4);
  config.noise_scale = flags.GetDouble("sigma", 2.5);
  config.sampling_probability = flags.GetDouble("q", 0.06);
  config.grouping_factor = static_cast<int32_t>(flags.GetInt("lambda", 4));
  config.clip_norm = flags.GetDouble("clip", 0.5);
  config.accountant = flags.GetString("accountant", "rdp");
  config.max_steps = flags.GetInt("max_steps", config.max_steps);
  config.sgns.embedding_dim = static_cast<int32_t>(flags.GetInt("dim", 50));
  config.sgns.negative_sampling = SamplingKindFromFlags(flags);
  config.sgns.unigram_power = flags.GetDouble("unigram_power", 0.75);
  config.num_threads = static_cast<int32_t>(flags.GetInt("threads", 1));
  return config;
}

plp::core::NonPrivateConfig NonPrivateConfigFromFlags(
    const plp::FlagParser& flags) {
  plp::core::NonPrivateConfig config;
  config.epochs = flags.GetInt("epochs", 100);
  config.sgns.embedding_dim = static_cast<int32_t>(flags.GetInt("dim", 50));
  config.sgns.negative_sampling = SamplingKindFromFlags(flags);
  config.sgns.unigram_power = flags.GetDouble("unigram_power", 0.75);
  return config;
}

/// The flags main() reads in both modes, then the ones only one mode
/// reads.
constexpr std::string_view kCommonFlags[] = {
    "private", "print_config", "input", "corpus_dir", "output",
    "embeddings_output", "min_user_checkins", "min_location_users", "stats",
    "rss_cap_mb", "checkpoint_dir", "checkpoint_every_steps", "resume",
    "seed", "dim", "negative_sampling", "unigram_power"};
constexpr std::string_view kPrivateFlags[] = {
    "eps", "delta", "sigma", "q", "lambda", "clip", "accountant",
    "max_steps", "threads"};
constexpr std::string_view kNonPrivateFlags[] = {"epochs"};

/// Appends one violation per flag the run mode does not read: a typo
/// (--epsilon) or a retired flag (--sampling_scheme) would otherwise train
/// at the defaults without a word.
void AppendUnreadFlagViolations(const plp::FlagParser& flags,
                                bool is_private,
                                std::vector<std::string>& violations) {
  const auto listed = [](std::span<const std::string_view> names,
                         const std::string& key) {
    return std::find(names.begin(), names.end(), key) != names.end();
  };
  const std::span<const std::string_view> mode_flags =
      is_private ? std::span<const std::string_view>(kPrivateFlags)
                 : std::span<const std::string_view>(kNonPrivateFlags);
  for (const std::string& key : flags.keys()) {
    if (listed(kCommonFlags, key) || listed(mode_flags, key)) continue;
    violations.push_back("unknown flag --" + key +
                         " (not read with --private=" +
                         (is_private ? "true" : "false") + ")");
  }
}

plp::Status JoinViolations(std::vector<std::string> violations) {
  if (violations.empty()) return plp::Status::Ok();
  std::string message;
  for (size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) message += "; ";
    message += violations[i];
  }
  return plp::InvalidArgumentError(std::move(message));
}

/// Validates the private-run flag set, collecting flag-level violations
/// (flags a private run does not read) together with every config-level
/// violation into one kInvalidArgument.
plp::Status ValidatePrivateFlags(const plp::FlagParser& flags) {
  std::vector<std::string> violations;
  AppendUnreadFlagViolations(flags, /*is_private=*/true, violations);
  if (auto s = PrivateConfigFromFlags(flags).Validate(); !s.ok()) {
    violations.emplace_back(s.message());
  }
  return JoinViolations(std::move(violations));
}

/// Validates the non-private flag set under the same collect-all contract.
plp::Status ValidateNonPrivateFlags(const plp::FlagParser& flags) {
  std::vector<std::string> violations;
  AppendUnreadFlagViolations(flags, /*is_private=*/false, violations);
  if (auto s = NonPrivateConfigFromFlags(flags).Validate(); !s.ok()) {
    violations.emplace_back(s.message());
  }
  return JoinViolations(std::move(violations));
}

/// Validates the data-source flag set, collecting every violation so one
/// run reports every mistake at once (same contract as config Validate()).
plp::Status ValidateDataFlags(const plp::FlagParser& flags) {
  const std::string input = flags.GetString("input", "");
  const std::string corpus_dir = flags.GetString("corpus_dir", "");
  std::vector<std::string> violations;
  if (input.empty() && corpus_dir.empty()) {
    violations.emplace_back(
        "one data source is required: --input=checkins.csv or "
        "--corpus_dir=DIR");
  }
  if (!input.empty() && !corpus_dir.empty()) {
    violations.emplace_back(
        "--input and --corpus_dir are mutually exclusive");
  }
  if (!corpus_dir.empty() &&
      (flags.Has("min_user_checkins") || flags.Has("min_location_users"))) {
    violations.emplace_back(
        "--min_user_checkins/--min_location_users apply only to --input "
        "(PLPD corpora are ingested as-is; filter at generation time)");
  }
  const std::string sampling =
      flags.GetString("negative_sampling", "uniform");
  if (sampling != "uniform" && sampling != "unigram") {
    violations.emplace_back(
        "unknown --negative_sampling (expected uniform or unigram): " +
        sampling);
  }
  if (flags.GetInt("rss_cap_mb", 0) < 0) {
    violations.emplace_back("--rss_cap_mb must be >= 0");
  }
  if (violations.empty()) return plp::Status::Ok();
  std::string message = "invalid flags: ";
  for (size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) message += "; ";
    message += violations[i];
  }
  return plp::InvalidArgumentError(std::move(message));
}

}  // namespace

int main(int argc, char** argv) {
  plp::FaultInjection::ArmFromEnv();  // PLP_FAULT=point[:mode][@hit]
  auto flags_or = plp::FlagParser::Parse(argc, argv);
  if (!flags_or.ok()) return Fail(flags_or.status());
  const plp::FlagParser& flags = flags_or.value();
  const bool is_private = flags.GetBool("private", true);

  // Validate eagerly — every invalid field is reported in one message, so
  // a misconfigured run never waits on data loading to learn about the
  // second problem.
  if (is_private) {
    if (auto s = ValidatePrivateFlags(flags); !s.ok()) {
      return Fail(s);
    }
  } else {
    if (auto s = ValidateNonPrivateFlags(flags); !s.ok()) {
      return Fail(s);
    }
  }

  if (flags.GetBool("print_config", false)) {
    if (is_private) {
      std::printf("%s", plp::pipeline::DescribeStages(
                            PrivateConfigFromFlags(flags)).c_str());
    } else {
      const plp::core::NonPrivateConfig config =
          NonPrivateConfigFromFlags(flags);
      std::printf(
          "pipeline stages (non-private baseline):\n"
          "  UserSampler      null (whole corpus every epoch)\n"
          "  Grouper          null\n"
          "  LocalUpdater     epoch_sgd(batch=%d, epochs=%lld)\n"
          "  DeltaClipper     identity\n"
          "  NoisyAggregator  zero_noise\n"
          "  Accountant       null (eps = 0)\n"
          "  ServerOptimizer  sparse_adam\n",
          config.batch_size, static_cast<long long>(config.epochs));
    }
    return 0;
  }

  const std::string input = flags.GetString("input", "");
  const std::string corpus_dir = flags.GetString("corpus_dir", "");
  const std::string output = flags.GetString("output", "");
  if (output.empty() || (input.empty() && corpus_dir.empty())) {
    std::cerr << "usage: plp_train {--input=checkins.csv | --corpus_dir=DIR}"
                 " --output=model.plpm"
                 " [--private=true --eps=2 | --private=false --epochs=100]\n";
    return 2;
  }
  if (auto s = ValidateDataFlags(flags); !s.ok()) return Fail(s);

  // Exactly one of these backs `corpus`: an in-RAM tokenization of the
  // CSV, or a zero-copy view over the memory-mapped PLPD shards.
  std::unique_ptr<plp::data::TrainingCorpus> ram_corpus;
  std::unique_ptr<plp::data::store::MmapCorpus> mmap_corpus;
  const plp::data::CorpusView* corpus = nullptr;
  if (!input.empty()) {
    auto dataset_or = plp::data::CheckInDataset::LoadCsv(input);
    if (!dataset_or.ok()) return Fail(dataset_or.status());
    const plp::data::CheckInDataset dataset = dataset_or->Filter(
        flags.GetInt("min_user_checkins", 10),
        flags.GetInt("min_location_users", 2));
    std::printf("loaded %s\n%s\n\n", input.c_str(),
                plp::data::ComputeStats(dataset).ToString().c_str());
    auto corpus_or = plp::data::BuildCorpus(dataset);
    if (!corpus_or.ok()) return Fail(corpus_or.status());
    ram_corpus = std::make_unique<plp::data::TrainingCorpus>(
        std::move(*corpus_or));
    corpus = ram_corpus.get();
  } else {
    auto store_or = plp::data::store::CheckInStore::Open(corpus_dir);
    if (!store_or.ok()) return Fail(store_or.status());
    mmap_corpus =
        std::make_unique<plp::data::store::MmapCorpus>(store_or.value());
    std::printf("mapped %s: %d users, %d locations, %lld check-ins\n\n",
                corpus_dir.c_str(), mmap_corpus->NumUsers(),
                mmap_corpus->NumLocations(),
                static_cast<long long>(mmap_corpus->NumTokens()));
    // Full statistics touch every shard page, which inflates peak RSS far
    // beyond what training needs — opt in explicitly.
    if (flags.GetBool("stats", false)) {
      std::printf("%s\n\n",
                  plp::data::ComputeStats(*mmap_corpus).ToString().c_str());
    }
    corpus = mmap_corpus.get();
  }

  plp::ckpt::CheckpointOptions checkpoint;
  checkpoint.dir = flags.GetString("checkpoint_dir", "");
  checkpoint.every_steps = flags.GetInt("checkpoint_every_steps", 25);
  checkpoint.resume = flags.GetBool("resume", false);

  plp::Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));
  plp::sgns::SgnsModel model;
  if (is_private) {
    const plp::core::PlpConfig config = PrivateConfigFromFlags(flags);
    auto result = plp::core::PlpTrainer(config).Train(
        *corpus, rng,
        [](const plp::core::StepMetrics& m, const plp::sgns::SgnsModel&) {
          if (m.step % 50 == 0) {
            std::printf(
                "  step %5lld  eps %.3f  local loss %.3f  clipped %3.0f%%\n",
                static_cast<long long>(m.step), m.epsilon_spent,
                m.mean_local_loss, 100.0 * m.clip_fraction);
          }
          return true;
        },
        checkpoint);
    if (!result.ok()) return Fail(result.status());
    std::printf("trained %lld private steps; spent eps=%.3f at "
                "delta=%.0e (user-level, %s accountant)\n",
                static_cast<long long>(result->steps_executed),
                result->epsilon_spent, config.delta,
                config.accountant.c_str());
    model = std::move(result->model);
  } else {
    auto result = plp::core::NonPrivateTrainer(NonPrivateConfigFromFlags(flags))
                      .Train(*corpus, rng, nullptr, checkpoint);
    if (!result.ok()) return Fail(result.status());
    std::printf("trained %zu non-private epochs (final loss %.4f)\n",
                result->history.size(), result->history.back().mean_loss);
    model = std::move(result->model);
  }

  if (auto s = plp::sgns::SaveModel(model, output); !s.ok()) return Fail(s);
  std::printf("model -> %s\n", output.c_str());
  const std::string embeddings = flags.GetString("embeddings_output", "");
  if (!embeddings.empty()) {
    if (auto s = plp::sgns::SaveEmbeddings(model, embeddings); !s.ok()) {
      return Fail(s);
    }
    std::printf("deployment embeddings -> %s\n", embeddings.c_str());
  }

  const int64_t peak_rss_mb = plp::PeakRssBytes() >> 20;
  std::printf("peak RSS: %lld MiB\n", static_cast<long long>(peak_rss_mb));
  const int64_t rss_cap_mb = flags.GetInt("rss_cap_mb", 0);
  if (rss_cap_mb > 0 && peak_rss_mb > rss_cap_mb) {
    std::cerr << "error: peak RSS " << peak_rss_mb << " MiB exceeds --rss_cap_mb="
              << rss_cap_mb << "\n";
    return 3;
  }
  return 0;
}
