#include "bench/bench_common.h"

#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "data/fixtures.h"
#include "data/store/checkin_store.h"
#include "data/store/mmap_corpus.h"
#include "data/store/store_writer.h"
#include "data/synthetic_generator.h"

namespace plp::bench {

BenchOptions ParseBenchOptions(int argc, char** argv) {
  auto flags = FlagParser::Parse(argc, argv);
  PLP_CHECK_OK(flags.status());
  BenchOptions options;
  options.scale = flags->GetString("scale", "small");
  PLP_CHECK(options.scale == "small" || options.scale == "paper" ||
            options.scale == "large");
  options.full = flags->GetBool("full", false);
  options.seed = static_cast<uint64_t>(flags->GetInt("seed", 42));
  options.max_steps = flags->GetInt("max_steps", 0);
  options.corpus_dir = flags->GetString("corpus_dir", "");
  options.users = static_cast<int32_t>(flags->GetInt("users", options.users));
  options.locations =
      static_cast<int32_t>(flags->GetInt("locations", options.locations));
  options.accountant = flags->GetString("accountant", "");
  return options;
}

namespace {

/// The large-scale workload: a PLPD corpus on disk, trained through the
/// mmap view. The corpus is generated once per (seed, users, locations)
/// into `corpus_dir` (or a seed-stamped temp directory) and reused on
/// later runs — an already-opening directory is trusted as-is, so sweeps
/// pay the generation cost once. The last 200 store users are held out:
/// [N-200, N-100) validation, [N-100, N) test, matching the paper's
/// 100 + 100 user-disjoint split.
Workload BuildLargeWorkload(const BenchOptions& options) {
  std::string dir = options.corpus_dir;
  if (dir.empty()) {
    dir = (std::filesystem::temp_directory_path() /
           ("plpd-bench-" + std::to_string(options.seed) + "-" +
            std::to_string(options.users) + "x" +
            std::to_string(options.locations)))
              .string();
  }
  auto store_or = data::store::CheckInStore::Open(dir);
  if (!store_or.ok()) {
    data::SyntheticConfig config;
    config.num_users = options.users;
    config.num_locations = options.locations;
    config.num_clusters = 64;
    auto writer_or = data::store::CheckInStoreWriter::Create(dir);
    PLP_CHECK_OK(writer_or.status());
    Rng gen_rng(options.seed);
    PLP_CHECK_OK(
        data::GenerateSyntheticCheckInsToStore(config, gen_rng, **writer_or));
    PLP_CHECK_OK((*writer_or)->Finish());
    store_or = data::store::CheckInStore::Open(dir);
    PLP_CHECK_OK(store_or.status());
  }
  std::shared_ptr<const data::store::CheckInStore> store = *store_or;
  const int32_t n = store->num_users();
  PLP_CHECK_GT(n, 400);

  Workload workload;
  workload.corpus =
      std::make_shared<data::store::MmapCorpus>(store, 0, n - 200);
  auto holdout_examples = [&store](int32_t begin, int32_t end) {
    std::vector<eval::EvalExample> examples;
    for (int32_t u = begin; u < end; ++u) {
      const auto span = store->User(u);
      eval::AppendLeaveOneOutExamples(span.locations, span.timestamps,
                                      examples);
    }
    return examples;
  };
  workload.validation = holdout_examples(n - 200, n - 100);
  workload.test = holdout_examples(n - 100, n);
  PLP_CHECK(!workload.validation.empty());
  PLP_CHECK(!workload.test.empty());
  return workload;
}

}  // namespace

Workload BuildWorkload(const BenchOptions& options) {
  if (options.scale == "large") return BuildLargeWorkload(options);
  // The corpus fixture is shared with the test suite (data/fixtures.h) so
  // every consumer of a given (seed, scale) sees the same dataset. The
  // holdout split below keeps drawing from a generator seeded identically.
  auto generated = data::MakeFixtureDataset(options.seed, options.scale);
  PLP_CHECK_OK(generated.status());
  data::CheckInDataset filtered = std::move(generated).value();
  Rng rng(options.seed);

  // Remove 100 validation then 100 test users (Section 5.1).
  auto validation_split = filtered.SplitHoldout(100, rng);
  PLP_CHECK_OK(validation_split.status());
  auto test_split = validation_split->first.SplitHoldout(100, rng);
  PLP_CHECK_OK(test_split.status());

  Workload workload;
  workload.train = std::move(test_split->first);
  auto corpus = data::BuildCorpus(workload.train);
  PLP_CHECK_OK(corpus.status());
  workload.corpus =
      std::make_shared<data::TrainingCorpus>(std::move(corpus).value());
  workload.validation =
      eval::BuildLeaveOneOutExamples(validation_split->second);
  workload.test = eval::BuildLeaveOneOutExamples(test_split->second);
  PLP_CHECK(!workload.validation.empty());
  PLP_CHECK(!workload.test.empty());
  return workload;
}

core::PlpConfig DefaultPlpConfig(const BenchOptions& options) {
  core::PlpConfig config;  // paper defaults
  if (options.scale == "small") {
    // Calibrated for the down-scaled city: a smaller server-Adam rate,
    // inside the paper's tested range [0.02, 0.07].
    config.adam.learning_rate = 0.03;
  }
  if (options.max_steps > 0) config.max_steps = options.max_steps;
  if (!options.accountant.empty()) config.accountant = options.accountant;
  PLP_CHECK_OK(config.Validate());
  return config;
}

StageConfig StageConfig::Private(core::PlpConfig config) {
  StageConfig stage;
  stage.is_private = true;
  stage.plp = std::move(config);
  return stage;
}

StageConfig StageConfig::NonPrivate(core::NonPrivateConfig config) {
  StageConfig stage;
  stage.is_private = false;
  stage.nonprivate = std::move(config);
  return stage;
}

namespace {

EvalPoint EvaluatePoint(const Workload& workload, const sgns::SgnsModel& model,
                        int64_t index, double mean_loss) {
  EvalPoint point;
  point.index = index;
  point.mean_loss = mean_loss;
  constexpr std::array<int32_t, 3> kRanks = {5, 10, 20};
  for (size_t i = 0; i < kRanks.size(); ++i) {
    point.validation_hr[i] = EvalHr(model, workload.validation, kRanks[i]);
    point.test_hr[i] = EvalHr(model, workload.test, kRanks[i]);
  }
  std::printf(".");
  std::fflush(stdout);
  return point;
}

}  // namespace

RunOutcome RunAndEvaluate(const StageConfig& config, const Workload& workload,
                          uint64_t seed) {
  Rng rng(seed);
  RunOutcome outcome;
  if (config.is_private) {
    core::StepCallback callback = nullptr;
    if (config.eval_every > 0) {
      callback = [&](const core::StepMetrics& metrics,
                     const sgns::SgnsModel& model) {
        if (metrics.step % config.eval_every == 0) {
          outcome.trajectory.push_back(EvaluatePoint(
              workload, model, metrics.step, metrics.mean_local_loss));
        }
        return true;
      };
    }
    auto result = core::PlpTrainer(config.plp).Train(*workload.corpus, rng,
                                                     callback);
    PLP_CHECK_OK(result.status());
    outcome.steps = result->steps_executed;
    outcome.epsilon_spent = result->epsilon_spent;
    outcome.wall_seconds = result->wall_seconds;
    // A final trajectory point when the run stopped off-cadence (budget
    // exhaustion between eval_every multiples).
    if (config.eval_every > 0 && !result->history.empty() &&
        (outcome.trajectory.empty() ||
         outcome.trajectory.back().index != result->steps_executed)) {
      outcome.trajectory.push_back(
          EvaluatePoint(workload, result->model, result->steps_executed,
                        result->history.back().mean_local_loss));
    }
    outcome.model = std::move(result->model);
  } else {
    core::EpochCallback callback = nullptr;
    if (config.eval_every > 0) {
      callback = [&](const core::EpochMetrics& metrics,
                     const sgns::SgnsModel& model) {
        if (metrics.epoch % config.eval_every == 0 ||
            metrics.epoch == config.nonprivate.epochs) {
          outcome.trajectory.push_back(EvaluatePoint(
              workload, model, metrics.epoch, metrics.mean_loss));
        }
        return true;
      };
    }
    auto result = core::NonPrivateTrainer(config.nonprivate)
                      .Train(*workload.corpus, rng, callback);
    PLP_CHECK_OK(result.status());
    outcome.steps = static_cast<int64_t>(result->history.size());
    outcome.wall_seconds = result->wall_seconds;
    outcome.model = std::move(result->model);
  }
  if (config.evaluate) {
    constexpr std::array<int32_t, 3> kRanks = {5, 10, 20};
    for (size_t i = 0; i < kRanks.size(); ++i) {
      outcome.validation_hr[i] =
          EvalHr(outcome.model, workload.validation, kRanks[i]);
    }
    outcome.hit_rate_at_10 = outcome.validation_hr[1];
  }
  return outcome;
}

RunOutcome RunPrivate(const core::PlpConfig& config,
                      const Workload& workload, uint64_t seed) {
  return RunAndEvaluate(StageConfig::Private(config), workload, seed);
}

double RandomFloorHr10(const Workload& workload, int32_t embedding_dim,
                       uint64_t seed) {
  Rng rng(seed);
  sgns::SgnsConfig config;
  config.embedding_dim = embedding_dim;
  auto model =
      sgns::SgnsModel::Create(workload.corpus->NumLocations(), config, rng);
  PLP_CHECK_OK(model.status());
  return EvalHr(*model, workload.validation, 10);
}

double EvalHr(const sgns::SgnsModel& model,
              const std::vector<eval::EvalExample>& examples, int32_t k) {
  auto hr = eval::EvaluateHitRate(model, examples, {k});
  PLP_CHECK_OK(hr.status());
  return hr->at(k);
}

void PrintBanner(const std::string& figure, const BenchOptions& options,
                 const Workload& workload) {
  std::printf("== %s  (scale=%s%s, seed=%llu) ==\n", figure.c_str(),
              options.scale.c_str(), options.full ? ", full grid" : "",
              static_cast<unsigned long long>(options.seed));
  std::printf(
      "workload: %d train users, %d locations, %lld check-ins; "
      "%zu validation / %zu test trajectories\n\n",
      workload.corpus->NumUsers(), workload.corpus->NumLocations(),
      static_cast<long long>(workload.corpus->NumTokens()),
      workload.validation.size(), workload.test.size());
}

}  // namespace plp::bench
