#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "ckpt/checkpoint.h"
#include "common/check.h"
#include "common/resource_usage.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/config.h"
#include "core/plp_trainer.h"
#include "data/corpus.h"
#include "data/fixtures.h"
#include "eval/hit_rate.h"
#include "pipeline/engine.h"
#include "pipeline/standard_stages.h"
#include "publish/supervisor.h"
#include "serve/model_snapshot.h"
#include "serve/recall_gate.h"
#include "serve/session_store.h"
#include "serve/sharded_engine.h"
#include "trace.h"
#include "traced_stages.h"

namespace plp::perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Set-up is repeated and the fastest repeat reported as setup_s. On a
/// shared host a repeat is slowed by whatever the co-tenants do meanwhile,
/// which only ever adds time; over ten seeds the median of twelve
/// train_publish repeats spread 28% between runs, their minimum 12-20%.
/// Repeat i runs its single-threaded part on the i-th allowed core (see
/// ScopedCpuPin), so both workloads' repeats cover every core of a 4-core
/// host.
constexpr int kTrainSetupRepeats = 12;
constexpr int kServeSetupRepeats = 4;

// ---- train_publish ------------------------------------------------------

constexpr int64_t kCheckpointEvery = 25;
constexpr int32_t kFleetShards = 2;
constexpr int32_t kTrainThreads = 4;

// ---- serve_steady / serve_overload --------------------------------------

constexpr int32_t kServeLocations = 20000;
constexpr int32_t kServeDim = 64;
constexpr int32_t kServeGroups = 50;
constexpr double kServeSpread = 0.08;
constexpr int64_t kServeUsers = 5000;
constexpr int kWarmCheckinsPerUser = 3;
constexpr int32_t kServeK = 10;
constexpr int64_t kTimeoutMicros = 50'000;
constexpr int64_t kSwapIntervalMillis = 750;

/// Open-loop arrival rates, frozen as absolute numbers so a faster or
/// slower build is measured at the same offered load. On the reference
/// host (4 shared cores, AVX2) the 2-shard fleet serves ~25k requests/s
/// closed-loop (bench/serving_throughput --shards=2), but the open loop's
/// async path (one worker per shard, futures, the generator and the
/// swapper on the same cores) saturates near 18k/s — and near 13k/s when
/// co-tenants slow the host by the ~40% seen over a few hours of runs.
/// The steady rates sit below the slow host's knee (about 25/50/75% of
/// 13k/s) so that which rate holds the SLO does not flip with host load;
/// the overload rate is 3x the fast host's knee.
constexpr double kRateLow = 3000.0;
constexpr double kRateMid = 6000.0;
constexpr double kRateHigh = 10000.0;
constexpr double kRateOverload = 54000.0;

/// serve_steady's SLO, applied by HoldsSlo.
constexpr double kSloP99Micros = 5000.0;
constexpr double kSloMaxFailFrac = 0.001;

/// Replayed requests per segment are capped near this many (every n-th
/// request index is sampled), so checking an overload run stays cheap.
constexpr int64_t kReplaySamples = 20000;

double MillisBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

/// Pins the calling thread to the index-th core it may run on (modulo
/// their count) for the scope's lifetime. On a shared host a
/// single-threaded job runs at a different speed on each core, and the
/// scheduler keeps a lone thread on whichever core it picked first; so
/// set-up repeat i runs its single-threaded part on core i, and setup_s
/// does not depend on the core a run happened to land on. Threads created
/// inside the scope would inherit the pin, so no scope creates one.
class ScopedCpuPin {
 public:
  explicit ScopedCpuPin(int index) {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    const int count = CPU_COUNT(&saved_);
    if (count < 2) return;
    int skip = index % count;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_) || skip-- > 0) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
      return;
    }
  }
  ~ScopedCpuPin() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  ScopedCpuPin(const ScopedCpuPin&) = delete;
  ScopedCpuPin& operator=(const ScopedCpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

double PeakRssMb() { return static_cast<double>(PeakRssBytes()) / 1e6; }

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Checks one OK answer: k distinct in-vocabulary ids, scores
/// non-increasing, scored by a version that was published.
bool WellFormed(const serve::Response& response, int32_t k,
                int32_t num_locations, const std::set<uint64_t>& versions) {
  if (static_cast<int32_t>(response.topk.size()) != k) return false;
  if (versions.count(response.model_version) == 0) return false;
  std::set<int32_t> seen;
  for (size_t i = 0; i < response.topk.size(); ++i) {
    const serve::ScoredLocation& s = response.topk[i];
    if (s.location < 0 || s.location >= num_locations) return false;
    if (!seen.insert(s.location).second) return false;
    if (i > 0 && s.score > response.topk[i - 1].score) return false;
    if (!std::isfinite(s.score)) return false;
  }
  return true;
}

void Put(std::vector<Metric>& metrics, const std::string& name,
         double value) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  std::fprintf(stderr, "per-layer metric %s is not in the catalog\n",
               name.c_str());
  std::abort();
}

/// Every fleet serves fp16 rows behind the IVF index. int8 rows measure
/// served recall@10 against the exact f32 scan of 0.966–0.98 on the
/// serving fixture and 0.9875 on some seeds' DP-trained city, below the
/// 0.99 the publisher gates on; fp16 measures >= 0.998 on both at the
/// same closed-loop capacity.
serve::SnapshotOptions FleetSnapshotOptions() {
  serve::SnapshotOptions options;
  options.format = serve::SnapshotFormat::kFloat16;
  options.build_ivf = true;
  return options;
}

/// A DP-trained 600-POI model has no cluster structure for the IVF index
/// to exploit (recall@10 ~0.72 at the default probe width), so the
/// train_publish fleet probes every cluster; the serving fixture is
/// clustered and uses the index's default width.
constexpr int32_t kProbeAllClusters = 1 << 30;  // clamped to the index size

serve::ShardedConfig FleetConfig(int32_t nprobe, size_t session_capacity) {
  serve::ShardedConfig config;
  config.num_shards = kFleetShards;
  config.shard.num_threads = 1;
  config.shard.sessions.capacity = session_capacity;
  config.shard.snapshot = FleetSnapshotOptions();
  config.shard.nprobe = nprobe;
  return config;
}

// =========================================================================
// train_publish
// =========================================================================

/// The bench small synthetic city: ~2.2k training users over 600 POIs,
/// with 100 user-disjoint validation users held out (Section 5.1).
struct City {
  std::shared_ptr<const data::TrainingCorpus> corpus;
  std::vector<eval::EvalExample> validation;
  int64_t checkins = 0;
};

City BuildCity(uint64_t seed, Tracer* tracer) {
  ScopedSpan span(tracer, "data.gen", -1, 0);
  auto generated = data::MakeFixtureDataset(seed, "small");
  PLP_CHECK_OK(generated.status());
  Rng rng(seed);
  auto validation_split = generated->SplitHoldout(100, rng);
  PLP_CHECK_OK(validation_split.status());
  auto test_split = validation_split->first.SplitHoldout(100, rng);
  PLP_CHECK_OK(test_split.status());
  auto corpus = data::BuildCorpus(test_split->first);
  PLP_CHECK_OK(corpus.status());
  City city;
  city.checkins = generated->num_checkins();
  city.corpus =
      std::make_shared<data::TrainingCorpus>(std::move(corpus).value());
  city.validation = eval::BuildLeaveOneOutExamples(validation_split->second);
  return city;
}

/// Paper defaults (q=0.06, σ=2.5, C=0.5, λ=4, δ=2e-4, dim 50, ε budget
/// 2) with the small city's server learning rate, the FFT PLD accountant
/// and four training threads.
core::PlpConfig TrainConfig() {
  core::PlpConfig config;
  config.adam.learning_rate = 0.03;
  config.accountant = "pld_fft";
  config.num_threads = kTrainThreads;
  PLP_CHECK_OK(config.Validate());
  return config;
}

/// Largest step count whose composed ε stays within the budget, found by
/// bisection over fresh accountants' bulk TrackRounds — independent of
/// the engine's one-round-at-a-time loop.
int64_t CertifiedSteps(const core::PlpConfig& config, int64_t population) {
  auto epsilon_after = [&](int64_t rounds) {
    auto accountant = pipeline::MakeAccountant(config);
    pipeline::RoundRecord first;
    first.step = 1;
    first.scheme = config.sampling_scheme;
    first.sampling_ratio = config.sampling_probability;
    first.population = population;
    first.noise_multiplier = core::EffectiveNoiseMultiplier(config, 1);
    first.split_factor = config.split_factor;
    auto decision = accountant->TrackRounds(first, rounds);
    PLP_CHECK_OK(decision.status());
    return decision->epsilon_after;
  };
  int64_t lo = 0;  // ε(lo) within budget (0 rounds: vacuous)
  int64_t hi = 1;
  while (epsilon_after(hi) <= config.epsilon_budget) {
    lo = hi;
    hi *= 2;
  }
  while (hi - lo > 1) {
    const int64_t mid = lo + (hi - lo) / 2;
    if (epsilon_after(mid) <= config.epsilon_budget) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// One training run to the budget, as the TrainFn runs it.
struct TrainRun {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<int64_t> step_end_ns;  ///< callback time of every step
  uint64_t crc = 0;
  core::TrainResult result;
  std::string checkpoint_dir;

  std::vector<double> Epsilons() const {
    std::vector<double> eps;
    for (const core::StepMetrics& m : result.history) {
      eps.push_back(m.epsilon_spent);
    }
    return eps;
  }
};

/// Trains to the ε budget with a checkpoint every kCheckpointEvery steps.
/// Untraced runs go through the PlpTrainer facade; traced runs build the
/// same engine from the same stages, each wrapped in a tracing decorator.
Result<TrainRun> TrainToBudget(const core::PlpConfig& config, const City& city,
                               uint64_t seed, const std::string& ckpt_dir,
                               StageTrace* trace) {
  TrainRun run;
  run.checkpoint_dir = ckpt_dir;
  run.start_ns = NowNanos();
  ckpt::CheckpointOptions checkpoint;
  checkpoint.dir = ckpt_dir;
  checkpoint.every_steps = kCheckpointEvery;
  checkpoint.keep_last = 3;
  const core::StepCallback callback = [&run, trace](const core::StepMetrics&,
                                                    const sgns::SgnsModel&) {
    if (trace == nullptr) {
      run.step_end_ns.push_back(NowNanos());
      return true;
    }
    // The callback is the last thing of a step before its checkpoint.
    const int64_t span = trace->tracer->Begin(
        "pipeline.callback", trace->step_span.load(), trace->step.load());
    run.step_end_ns.push_back(NowNanos());
    trace->tracer->End(span);
    return true;
  };
  Rng rng(seed);
  Result<core::TrainResult> result = InternalError("not trained");
  if (trace == nullptr) {
    result = core::PlpTrainer(config).Train(*city.corpus, rng, callback,
                                            checkpoint);
  } else {
    pipeline::TrainingEngine engine(
        pipeline::MakePrivateEngineConfig(config),
        TraceStages(pipeline::MakePrivateStages(config), trace));
    result = engine.Train(*city.corpus, rng, callback, checkpoint);
    trace->CloseStep(NowNanos());
  }
  PLP_RETURN_IF_ERROR(result.status());
  run.result = std::move(result).value();
  run.crc = ModelCrc64(run.result.model);
  run.end_ns = NowNanos();
  return run;
}

struct TrainSetup {
  City city;
  std::unique_ptr<serve::ShardedServingEngine> fleet;
  std::unique_ptr<publish::PublishSupervisor> supervisor;
};

TrainSetup SetUpTrainPublish(uint64_t seed, const std::string& publish_dir,
                             int repeat, Tracer* tracer) {
  TrainSetup setup;
  {
    const ScopedCpuPin pin(repeat);
    setup.city = BuildCity(seed, tracer);
  }
  setup.fleet = std::make_unique<serve::ShardedServingEngine>(
      FleetConfig(kProbeAllClusters,
                  static_cast<size_t>(setup.city.validation.size()) + 16));
  publish::SupervisorConfig config;
  config.publisher.publish_dir = publish_dir;
  config.publisher.snapshot = FleetSnapshotOptions();
  config.publisher.recall.nprobe = kProbeAllClusters;
  auto supervisor =
      publish::PublishSupervisor::Create(config, setup.fleet.get());
  PLP_CHECK_OK(supervisor.status());
  setup.supervisor = std::make_unique<publish::PublishSupervisor>(
      std::move(supervisor).value());
  return setup;
}

/// One retrain→validate→publish→fleet-swap→probe cycle, timed from outside.
struct CycleRun {
  TrainRun train;
  publish::CycleReport report;
  int64_t start_ns = 0;
  int64_t swap_ns = 0;  ///< newest shard swap stamp after the cycle
  int64_t end_ns = 0;
};

int64_t NewestSwapNanos(const serve::ShardedServingEngine& fleet) {
  int64_t newest = 0;
  for (size_t s = 0; s < fleet.num_shards(); ++s) {
    newest = std::max(
        newest, fleet.shard(s).metrics().last_swap_steady_micros.load());
  }
  return newest * 1000;
}

CycleRun RunOneCycle(TrainSetup& setup, const core::PlpConfig& config,
                     uint64_t seed, const std::string& ckpt_dir,
                     Tracer* tracer, Outcome& outcome) {
  CycleRun cycle;
  StageTrace stage_trace;
  stage_trace.tracer = tracer;
  cycle.start_ns = NowNanos();
  const int64_t cycle_span =
      tracer != nullptr ? tracer->Begin("publish.cycle", -1, 0) : -1;
  const publish::TrainFn train =
      [&](uint64_t) -> Result<publish::TrainedArtifact> {
    const int64_t train_span =
        tracer != nullptr ? tracer->Begin("publish.train", cycle_span, 0) : -1;
    stage_trace.parent = train_span;
    PLP_ASSIGN_OR_RETURN(
        cycle.train,
        TrainToBudget(config, setup.city, seed, ckpt_dir,
                      tracer != nullptr ? &stage_trace : nullptr));
    if (tracer != nullptr) tracer->End(train_span);
    publish::TrainedArtifact artifact;
    artifact.model = cycle.train.result.model;
    artifact.epsilon_spent = cycle.train.result.epsilon_spent;
    artifact.steps = cycle.train.result.steps_executed;
    return artifact;
  };
  auto report = setup.supervisor->RunCycle(train);
  cycle.end_ns = NowNanos();
  cycle.swap_ns = NewestSwapNanos(*setup.fleet);
  ++outcome.attempted;
  if (!report.ok() || !report->published || !report->failure.ok()) {
    ++outcome.failed;
    outcome.Check(false, "publish cycle failed: " +
                             (report.ok() ? report->failure.ToString()
                                          : report.status().ToString()));
    return cycle;
  }
  cycle.report = *report;
  if (tracer != nullptr) {
    tracer->EndAt(cycle_span, cycle.end_ns);
    tracer->Add("publish.stage_to_swap", cycle_span, 0, cycle.train.end_ns,
                cycle.swap_ns);
    tracer->Add("publish.probe", cycle_span, 0, cycle.swap_ns, cycle.end_ns);
  }
  return cycle;
}

struct ServedQuality {
  double hr10 = 0.0;
  double recall10 = 0.0;  ///< of the fleet's answers vs exact float32
};

/// HR@10 of the validation users, answered by the fleet from each
/// example's explicit history after the swap, and the recall@10 of those
/// same answers against an exact scan of the float32 snapshot.
ServedQuality ServedHr10(serve::ShardedServingEngine& fleet, const City& city,
                         uint64_t version, const serve::ModelSnapshot& exact,
                         Tracer* tracer, Outcome& outcome) {
  ScopedSpan eval_span(tracer, "eval.served_hr10", -1, 0);
  const std::set<uint64_t> versions = {version};
  int64_t hits = 0;
  int64_t bad = 0;
  int64_t recall_hits = 0;
  int64_t recall_total = 0;
  for (size_t i = 0; i < city.validation.size(); ++i) {
    const eval::EvalExample& example = city.validation[i];
    ScopedSpan query(tracer, "eval.query", eval_span.id(),
                     static_cast<int64_t>(i));
    serve::Request request;
    request.user_id = static_cast<int64_t>(i);
    request.history = example.history;
    request.k = 10;
    const serve::Response response = fleet.Recommend(request);
    ++outcome.attempted;
    if (!response.status.ok()) {
      ++outcome.failed;
      ++bad;
      continue;
    }
    if (!WellFormed(response, 10, exact.num_locations(), versions)) ++bad;
    for (const serve::ScoredLocation& s : response.topk) {
      if (s.location == example.label) ++hits;
    }
    for (const serve::ScoredLocation& truth : serve::TopKScores(
             exact, exact.Profile(example.history), request.k)) {
      for (const serve::ScoredLocation& got : response.topk) {
        recall_hits += got.location == truth.location ? 1 : 0;
      }
      ++recall_total;
    }
  }
  outcome.Check(bad == 0, "served HR@10 answers: " + std::to_string(bad) +
                              " failed or malformed");
  ServedQuality quality;
  if (!city.validation.empty()) {
    quality.hr10 = static_cast<double>(hits) /
                   static_cast<double>(city.validation.size());
  }
  if (recall_total > 0) {
    quality.recall10 = static_cast<double>(recall_hits) /
                       static_cast<double>(recall_total);
  }
  return quality;
}

/// Per-layer metrics of a traced train_publish run, derived from the span
/// file alone (plus the engine's own phase timers for reconciliation).
void DeriveTrainLayers(const SpanTree& tree, const std::vector<CycleRun>& traced,
                       Outcome& outcome) {
  auto& m = outcome.per_layer;
  const auto cycles = static_cast<double>(traced.size());
  std::map<std::string, double> busy;  // Σ duration per child name
  double local_sgd_wall = 0.0;
  double step_wall = 0.0;
  double untraced = 0.0;
  double track_rounds = 0.0;
  // Gap from a step's callback return to the next round's accounting:
  // the checkpoint save on checkpoint steps, bookkeeping otherwise.
  std::vector<double> ckpt_gaps;
  std::vector<double> plain_gaps;
  int64_t prev_callback_end = -1;
  int64_t prev_step = -1;
  for (int64_t id : tree.Named("pipeline.step")) {
    const Span& step = tree.spans()[static_cast<size_t>(id)];
    if (prev_callback_end >= 0 && step.key == prev_step + 1) {
      const double gap = MillisBetween(prev_callback_end, step.start_ns);
      (prev_step % kCheckpointEvery == 0 ? ckpt_gaps : plain_gaps)
          .push_back(gap);
    }
    prev_callback_end = -1;
    prev_step = step.key;
    step_wall += step.millis();
    untraced += static_cast<double>(tree.SelfNanos(id)) / 1e6;
    int64_t fan_begin = INT64_MAX;
    int64_t fan_end = INT64_MIN;
    for (int64_t child_id : tree.children(id)) {
      const Span& child = tree.spans()[static_cast<size_t>(child_id)];
      busy[child.name] += child.millis();
      if (child.name == "privacy.track_round") track_rounds += 1.0;
      if (child.name == "pipeline.callback") prev_callback_end = child.end_ns;
      if (child.name == "pipeline.compute_delta" ||
          child.name == "pipeline.clip") {
        fan_begin = std::min(fan_begin, child.start_ns);
        fan_end = std::max(fan_end, child.end_ns);
      }
    }
    if (fan_end > fan_begin) local_sgd_wall += MillisBetween(fan_begin, fan_end);
  }
  double ckpt_save = 0.0;
  const double plain = Quantile(plain_gaps, 0.5);
  for (double gap : ckpt_gaps) ckpt_save += gap - plain;

  int64_t steps = 0;
  int64_t buckets = 0;
  int64_t sampled = 0;
  double clipped = 0.0;
  double engine_local_sgd = 0.0;
  double engine_reduction = 0.0;
  double engine_noise = 0.0;
  double engine_apply = 0.0;
  double attempts = 0.0;
  double ckpt_bytes = 0.0;
  for (const CycleRun& c : traced) {
    const core::TrainResult& r = c.train.result;
    steps += r.steps_executed;
    for (const core::StepMetrics& sm : r.history) {
      buckets += sm.num_buckets;
      sampled += sm.sampled_users;
      clipped += sm.clip_fraction * static_cast<double>(sm.num_buckets);
    }
    engine_local_sgd += r.phase_seconds.local_sgd * 1e3;
    engine_reduction += r.phase_seconds.reduction * 1e3;
    engine_noise += r.phase_seconds.noise * 1e3;
    engine_apply += r.phase_seconds.server_apply * 1e3;
    attempts += 3.0 / static_cast<double>(c.report.train_attempts +
                                          c.report.publish_attempts +
                                          c.report.swap_attempts);
    const ckpt::CheckpointManager manager(c.train.checkpoint_dir);
    const std::vector<int64_t> saved = manager.ListSteps();
    const int64_t expected_last =
        r.steps_executed / kCheckpointEvery * kCheckpointEvery;
    outcome.Check(!saved.empty() && saved.back() == expected_last,
                  "newest checkpoint is step " + std::to_string(expected_last));
    if (!saved.empty()) {
      ckpt_bytes += static_cast<double>(r.steps_executed / kCheckpointEvery) *
                    static_cast<double>(
                        fs::file_size(manager.PathForStep(saved.back())));
    }
  }
  auto per_cycle = [cycles](double total) { return total / cycles; };
  Put(m, "pipeline.sample_ms", per_cycle(busy["pipeline.sample"]));
  Put(m, "pipeline.group_ms", per_cycle(busy["pipeline.group"]));
  Put(m, "pipeline.local_sgd_busy_ms",
      per_cycle(busy["pipeline.compute_delta"]));
  Put(m, "pipeline.local_sgd_wall_ms", per_cycle(local_sgd_wall));
  Put(m, "pipeline.clip_ms", per_cycle(busy["pipeline.clip"]));
  Put(m, "pipeline.reduce_ms", per_cycle(busy["pipeline.reduce"]));
  Put(m, "pipeline.noise_ms", per_cycle(busy["pipeline.noise"]));
  Put(m, "pipeline.server_apply_ms", per_cycle(busy["pipeline.server_apply"]));
  Put(m, "pipeline.untraced_ms", per_cycle(untraced));
  Put(m, "pipeline.steps", per_cycle(static_cast<double>(steps)));
  Put(m, "pipeline.buckets", per_cycle(static_cast<double>(buckets)));
  Put(m, "pipeline.sampled_users", per_cycle(static_cast<double>(sampled)));
  Put(m, "pipeline.clip_fraction",
      buckets > 0 ? clipped / static_cast<double>(buckets) : 0.0);
  Put(m, "privacy.accounting_ms", per_cycle(busy["privacy.track_round"]));
  Put(m, "privacy.accounting_ms_per_step",
      track_rounds > 0 ? busy["privacy.track_round"] / track_rounds : 0.0);
  Put(m, "ckpt.save_ms", per_cycle(ckpt_save));
  Put(m, "ckpt.saves", per_cycle(static_cast<double>(ckpt_gaps.size())));
  Put(m, "ckpt.bytes", per_cycle(ckpt_bytes));
  Put(m, "publish.attempts", attempts / cycles);

  std::vector<double> train_ms;
  std::vector<double> stage_to_swap_ms;
  std::vector<double> probe_ms;
  for (int64_t id : tree.Named("publish.train")) {
    train_ms.push_back(tree.spans()[static_cast<size_t>(id)].millis());
  }
  for (int64_t id : tree.Named("publish.stage_to_swap")) {
    stage_to_swap_ms.push_back(tree.spans()[static_cast<size_t>(id)].millis());
  }
  for (int64_t id : tree.Named("publish.probe")) {
    probe_ms.push_back(tree.spans()[static_cast<size_t>(id)].millis());
  }
  Put(m, "publish.train_ms", Quantile(train_ms, 0.5));
  Put(m, "publish.stage_to_swap_ms", Quantile(stage_to_swap_ms, 0.5));
  Put(m, "publish.probe_ms", Quantile(probe_ms, 0.5));

  // Reconciliation 1: the per-layer step shares add up to the step wall
  // time (children of one step never overlap except the bucket fan-out,
  // which is counted once, as its wall time).
  const double layered =
      busy["privacy.track_round"] + busy["pipeline.sample"] +
      busy["pipeline.group"] + local_sgd_wall + busy["pipeline.reduce"] +
      busy["pipeline.noise"] + busy["pipeline.server_apply"] +
      busy["pipeline.callback"] + untraced;
  outcome.Check(std::abs(layered - step_wall) <= 0.01 * step_wall + 1.0,
                "per-layer step time " + std::to_string(layered) +
                    " ms reconciles with step wall " +
                    std::to_string(step_wall) + " ms");
  // Reconciliation 2: a cycle is its train call, then stage→swap, then
  // the probe; steps cover most of the train call.
  for (int64_t id : tree.Named("publish.cycle")) {
    const Span& cycle = tree.spans()[static_cast<size_t>(id)];
    const double covered =
        static_cast<double>(tree.ChildCoverageNanos(id)) / 1e6;
    outcome.Check(covered >= 0.99 * cycle.millis() - 1.0,
                  "cycle spans cover the cycle wall time");
  }
  for (int64_t id : tree.Named("publish.train")) {
    const Span& train = tree.spans()[static_cast<size_t>(id)];
    const double covered =
        static_cast<double>(tree.ChildCoverageNanos(id)) / 1e6;
    outcome.Check(covered >= 0.9 * train.millis(),
                  "step spans cover >= 90% of the train call");
  }
  // Reconciliation 3: the decorator spans agree with the engine's own
  // phase timers. The engine's phases also hold the work between stage
  // calls (zeroing the update, norms), so they may only be larger.
  auto agree = [&outcome](const char* phase, double decorator,
                          double engine) {
    outcome.report.push_back(
        {std::string("engine_over_span.") + phase,
         decorator > 0.0 ? engine / decorator : 0.0, "ratio"});
    outcome.Check(decorator <= engine * 1.02 + 1.0 &&
                      decorator >= engine * 0.5,
                  std::string("decorator ") + phase + " " +
                      std::to_string(decorator) + " ms vs engine " +
                      std::to_string(engine) + " ms");
  };
  agree("local_sgd", local_sgd_wall, engine_local_sgd);
  agree("reduction", busy["pipeline.reduce"], engine_reduction);
  agree("noise", busy["pipeline.noise"], engine_noise);
  agree("server_apply", busy["pipeline.server_apply"], engine_apply);
}

}  // namespace

uint64_t ModelCrc64(const sgns::SgnsModel& model) {
  std::string bytes;
  auto append = [&bytes](std::span<const double> values) {
    bytes.append(reinterpret_cast<const char*>(values.data()),
                 values.size() * sizeof(double));
  };
  for (int32_t l = 0; l < model.num_locations(); ++l) append(model.InRow(l));
  for (int32_t l = 0; l < model.num_locations(); ++l) append(model.OutRow(l));
  append(model.TensorData(sgns::Tensor::kBias));
  return Crc64(bytes);
}

void Outcome::Check(bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
}

const std::vector<Metric>& PerLayerCatalog() {
  static const std::vector<Metric> catalog = {
      {"pipeline.sample_ms", 0, "ms"},
      {"pipeline.group_ms", 0, "ms"},
      {"pipeline.local_sgd_busy_ms", 0, "ms"},
      {"pipeline.local_sgd_wall_ms", 0, "ms"},
      {"pipeline.clip_ms", 0, "ms"},
      {"pipeline.reduce_ms", 0, "ms"},
      {"pipeline.noise_ms", 0, "ms"},
      {"pipeline.server_apply_ms", 0, "ms"},
      {"pipeline.untraced_ms", 0, "ms"},
      {"pipeline.steps", 0, "count"},
      {"pipeline.buckets", 0, "count"},
      {"pipeline.sampled_users", 0, "count"},
      {"pipeline.clip_fraction", 0, "ratio"},
      {"privacy.accounting_ms", 0, "ms"},
      {"privacy.accounting_ms_per_step", 0, "ms"},
      {"ckpt.save_ms", 0, "ms"},
      {"ckpt.saves", 0, "count"},
      {"ckpt.bytes", 0, "bytes"},
      {"publish.train_ms", 0, "ms"},
      {"publish.stage_to_swap_ms", 0, "ms"},
      {"publish.probe_ms", 0, "ms"},
      {"publish.attempts", 0, "ratio"},
      {"serve.snapshot_build_ms", 0, "ms"},
      {"serve.recall_gate_ms", 0, "ms"},
      {"serve.verify_ms", 0, "ms"},
      {"serve.fleet_swap_ms", 0, "ms"},
      {"serve.snapshot_bytes", 0, "bytes"},
      {"serve.session_us_p50", 0, "us"},
      {"serve.session_us_p99", 0, "us"},
      {"serve.profile_us_p50", 0, "us"},
      {"serve.profile_us_p99", 0, "us"},
      {"serve.scan_us_p50", 0, "us"},
      {"serve.scan_us_p99", 0, "us"},
      {"serve.service_us_p50", 0, "us"},
      {"serve.service_us_p99", 0, "us"},
      {"serve.queue_wait_us_p50", 0, "us"},
      {"serve.queue_wait_us_p99", 0, "us"},
      {"serve.batch_size_mean", 0, "count"},
      {"serve.ok", 0, "count"},
      {"serve.overloaded", 0, "count"},
      {"serve.deadline_exceeded", 0, "count"},
      {"serve.gen_lag_p99_us", 0, "us"},
      {"serve.swaps", 0, "count"},
      {"serve.swap_stall_us_max", 0, "us"},
      {"eval.queries", 0, "count"},
      {"eval.ms", 0, "ms"},
      {"data.gen_ms", 0, "ms"},
      {"data.checkins", 0, "count"},
      {"trace_overhead_pct", 0, "%"},
  };
  return catalog;
}

Outcome RunTrainPublish(const RunOptions& options) {
  Outcome outcome;
  Tracer tracer;
  Tracer* const t = options.trace ? &tracer : nullptr;
  const core::PlpConfig config = TrainConfig();

  // ---- set-up (repeated; the last one is kept) -------------------------
  std::vector<double> setup_s;
  TrainSetup setup;
  for (int i = 0; i < kTrainSetupRepeats; ++i) {
    setup = TrainSetup{};  // release the previous fleet first
    const int64_t start = NowNanos();
    setup = SetUpTrainPublish(
        options.seed,
        options.work_dir + "/publish-" + std::to_string(i), i,
        i == kTrainSetupRepeats - 1 ? t : nullptr);
    setup_s.push_back(MillisBetween(start, NowNanos()) / 1e3);
  }

  // ---- timed window ----------------------------------------------------
  // A fixed amount of work: two trainings to the budget (17–25 s on the
  // reference host), so the cycle count, and with it the peak RSS, does
  // not depend on how fast the host happens to be. Untraced: two publish
  // cycles. Traced: an untraced reference run — the bits the traced cycle
  // must reproduce and the base of trace_overhead_pct — then one traced
  // cycle.
  std::optional<TrainRun> reference;
  if (options.trace) {
    auto run = TrainToBudget(config, setup.city, options.seed,
                             options.work_dir + "/ckpt-reference", nullptr);
    PLP_CHECK_OK(run.status());
    reference = std::move(run).value();
  }
  const size_t num_cycles = options.trace ? 1 : 2;
  std::vector<CycleRun> cycles;
  while (cycles.size() < num_cycles) {
    CycleRun cycle = RunOneCycle(
        setup, config, options.seed,
        options.work_dir + "/ckpt-" + std::to_string(cycles.size()), t,
        outcome);
    if (!cycle.report.published) break;
    cycles.push_back(std::move(cycle));
  }
  if (cycles.empty()) return outcome;

  // ---- correctness -----------------------------------------------------
  const int64_t certified =
      CertifiedSteps(config, setup.city.corpus->NumUsers());
  const CycleRun& first = cycles.front();
  const std::vector<double> first_eps = first.train.Epsilons();
  for (const CycleRun& c : cycles) {
    const core::TrainResult& r = c.train.result;
    outcome.Check(r.stop_reason == core::StopReason::kBudgetExhausted,
                  "training stopped on the budget");
    outcome.Check(r.epsilon_spent <= config.epsilon_budget,
                  "epsilon " + std::to_string(r.epsilon_spent) +
                      " within the budget");
    outcome.Check(r.steps_executed == certified,
                  "steps to budget " + std::to_string(r.steps_executed) +
                      " equal the certified count " +
                      std::to_string(certified));
    outcome.Check(c.train.crc == first.train.crc &&
                      SameBits(c.train.Epsilons(), first_eps),
                  "every cycle trains the same model bits and epsilon");
    if (reference.has_value()) {
      outcome.Check(c.train.crc == reference->crc,
                    "traced model CRC-64 equals the untraced PlpTrainer's");
      outcome.Check(SameBits(c.train.Epsilons(), reference->Epsilons()),
                    "traced epsilon trajectory equals the untraced one");
    }
  }
  const publish::SnapshotPublisher& publisher = setup.supervisor->publisher();
  const uint64_t version = cycles.back().report.published_version;
  outcome.Check(publisher.VerifyCurrent().ok(), "VerifyCurrent passes");
  auto current = publisher.CurrentVersion();
  outcome.Check(current.ok() && *current == version,
                "CURRENT names the last published version");
  const publish::PublishRecord* record = publisher.ledger().last();
  outcome.Check(record != nullptr && record->version == version &&
                    record->epsilon_spent ==
                        setup.supervisor->cumulative_epsilon() &&
                    record->train_steps ==
                        setup.supervisor->cumulative_steps() &&
                    publisher.ledger().records().size() == cycles.size(),
                "the ledger holds every cycle's record");

  // Calls into the serve layer on the trained model, timed directly.
  const sgns::SgnsModel& model = first.train.result.model;
  std::shared_ptr<const serve::ModelSnapshot> candidate;
  {
    ScopedSpan span(t, "serve.snapshot_build", -1, 0);
    auto built = serve::ModelSnapshot::FromModel(model, version,
                                                 FleetSnapshotOptions());
    PLP_CHECK_OK(built.status());
    candidate = std::move(built).value();
  }
  auto reference_snapshot = serve::ModelSnapshot::FromModel(model, version);
  PLP_CHECK_OK(reference_snapshot.status());
  double gate_recall = 0.0;
  {
    ScopedSpan span(t, "serve.recall_gate", -1, 0);
    gate_recall = serve::MeasureRecallAtK(*candidate, **reference_snapshot,
                                          publisher.config().recall);
  }
  {
    ScopedSpan span(t, "serve.verify", -1, 0);
    outcome.Check(candidate->Verify().ok(), "snapshot Verify passes");
  }
  outcome.Check(record != nullptr &&
                    candidate->checksum() == record->snapshot_checksum,
                "rebuilt snapshot matches the ledger checksum");
  {
    ScopedSpan span(t, "serve.fleet_swap", -1, 0);
    outcome.Check(setup.fleet->PublishSnapshot(candidate).ok(),
                  "fleet swap of the rebuilt snapshot");
  }
  const ServedQuality served = ServedHr10(*setup.fleet, setup.city, version,
                                          **reference_snapshot, t, outcome);
  outcome.Check(served.recall10 >= 0.99,
                "served recall@10 of the fleet's answers vs f32 " +
                    std::to_string(served.recall10) + " >= 0.99");
  auto eval_hr = eval::EvaluateHitRate(model, setup.city.validation, {10});
  PLP_CHECK_OK(eval_hr.status());

  // ---- metrics ---------------------------------------------------------
  std::vector<double> cycle_ms;
  std::vector<double> train_s;
  std::vector<double> steps_per_s;
  std::vector<double> step_ms;
  for (const CycleRun& c : cycles) {
    cycle_ms.push_back(MillisBetween(c.start_ns, c.end_ns));
    const double train_seconds =
        MillisBetween(c.train.start_ns, c.train.end_ns) / 1e3;
    train_s.push_back(train_seconds);
    steps_per_s.push_back(
        static_cast<double>(c.train.result.steps_executed) / train_seconds);
    int64_t prev = c.train.start_ns;
    for (int64_t end : c.train.step_end_ns) {
      step_ms.push_back(MillisBetween(prev, end));
      prev = end;
    }
  }
  outcome.end_to_end = {
      {"setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"latency_ms", Quantile(cycle_ms, 0.5), "ms"},
      {"p50_ms", Quantile(step_ms, 0.5), "ms"},
  };
  outcome.report = {
      {"cycles", static_cast<double>(cycles.size()), "count"},
      {"publish_cycle_s", Quantile(cycle_ms, 0.5) / 1e3, "s"},
      {"train_to_budget_s", Quantile(train_s, 0.5), "s"},
      {"train_steps_per_s", Quantile(steps_per_s, 0.5), "1/s"},
      {"steps_to_budget", static_cast<double>(first.train.result.steps_executed),
       "count"},
      {"certified_steps", static_cast<double>(certified), "count"},
      {"epsilon_spent", first.train.result.epsilon_spent, "eps"},
      {"step_p99_ms", Quantile(step_ms, 0.99), "ms"},
      {"served_hr10", served.hr10, "ratio"},
      {"eval_hr10_f64", eval_hr->at(10), "ratio"},
      {"served_recall10", served.recall10, "ratio"},
      {"gate_recall10", gate_recall, "ratio"},
      {"model_crc64_low32",
       static_cast<double>(first.train.crc & 0xffffffffULL), "id"},
  };

  if (options.trace) {
    PLP_CHECK_OK(tracer.WriteTsv(options.trace_path));
    auto spans = ReadTsv(options.trace_path);
    PLP_CHECK_OK(spans.status());
    const SpanTree tree(std::move(spans).value());
    outcome.per_layer = PerLayerCatalog();
    DeriveTrainLayers(tree, cycles, outcome);
    auto one = [&tree](const char* name) {
      const auto ids = tree.Named(name);
      return ids.empty() ? 0.0 : tree.spans()[static_cast<size_t>(ids.back())].millis();
    };
    auto& m = outcome.per_layer;
    Put(m, "serve.snapshot_build_ms", one("serve.snapshot_build"));
    Put(m, "serve.recall_gate_ms", one("serve.recall_gate"));
    Put(m, "serve.verify_ms", one("serve.verify"));
    Put(m, "serve.fleet_swap_ms", one("serve.fleet_swap"));
    Put(m, "serve.snapshot_bytes", static_cast<double>(candidate->memory_bytes()));
    Put(m, "eval.ms", one("eval.served_hr10"));
    Put(m, "eval.queries",
        static_cast<double>(tree.Named("eval.query").size()));
    Put(m, "data.gen_ms", one("data.gen"));
    Put(m, "data.checkins", static_cast<double>(setup.city.checkins));
    const double untraced_train_ms =
        MillisBetween(reference->start_ns, reference->end_ns);
    double traced_train_ms = 0.0;
    for (const Metric& metric : m) {
      if (metric.name == "publish.train_ms") traced_train_ms = metric.value;
    }
    Put(m, "trace_overhead_pct",
        100.0 * (traced_train_ms - untraced_train_ms) / untraced_train_ms);
  }
  return outcome;
}

// =========================================================================
// serve_steady / serve_overload
// =========================================================================

namespace {

/// Clustered unit-norm vocabulary: rows scatter around `kServeGroups`
/// unit directions, the neighbourhood structure trained embeddings have
/// and the regime the IVF-pruned scan is specified for.
sgns::DeployedEmbeddings ServeFixture(uint64_t seed) {
  Rng rng(seed);
  std::vector<double> centers(static_cast<size_t>(kServeGroups) * kServeDim);
  for (int32_t g = 0; g < kServeGroups; ++g) {
    double* c = centers.data() + static_cast<size_t>(g) * kServeDim;
    double sq = 0.0;
    for (int32_t d = 0; d < kServeDim; ++d) {
      c[d] = rng.Gaussian();
      sq += c[d] * c[d];
    }
    for (int32_t d = 0; d < kServeDim; ++d) c[d] /= std::sqrt(sq);
  }
  sgns::DeployedEmbeddings deployed;
  deployed.num_locations = kServeLocations;
  deployed.dim = kServeDim;
  deployed.embeddings.resize(static_cast<size_t>(kServeLocations) *
                             kServeDim);
  for (int32_t r = 0; r < kServeLocations; ++r) {
    const double* c =
        centers.data() + static_cast<size_t>(r % kServeGroups) * kServeDim;
    double* row = deployed.embeddings.data() +
                  static_cast<size_t>(r) * kServeDim;
    double sq = 0.0;
    for (int32_t d = 0; d < kServeDim; ++d) {
      row[d] = c[d] + kServeSpread * rng.Gaussian();
      sq += row[d] * row[d];
    }
    for (int32_t d = 0; d < kServeDim; ++d) row[d] /= std::sqrt(sq);
  }
  return deployed;
}

/// A check-in of `user` at a uniformly drawn location.
serve::Request CheckinOf(int64_t user, Rng& rng) {
  serve::Request request;
  request.user_id = user;
  request.new_checkin = static_cast<int32_t>(
      rng.UniformInt(static_cast<uint64_t>(kServeLocations)));
  request.k = kServeK;
  return request;
}

/// The open-loop stream: independent users, chosen uniformly.
serve::Request StreamRequest(Rng& rng) {
  const auto user =
      static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(kServeUsers)));
  return CheckinOf(user, rng);
}

struct ServeSetup {
  /// Snapshot i is published as version i+1; steady swaps alternate them.
  std::vector<std::shared_ptr<const serve::ModelSnapshot>> snapshots;
  std::unique_ptr<serve::ShardedServingEngine> engine;
  std::vector<serve::Request> warm;  ///< warm-up stream, for the replay
};

ServeSetup SetUpServe(uint64_t seed, int repeat) {
  ServeSetup setup;
  {
    const ScopedCpuPin pin(repeat);
    for (uint64_t v = 1; v <= 2; ++v) {
      auto snapshot = serve::ModelSnapshot::FromDeployed(
          ServeFixture(seed * 2 + v), v, FleetSnapshotOptions());
      PLP_CHECK_OK(snapshot.status());
      setup.snapshots.push_back(std::move(snapshot).value());
    }
  }
  setup.engine = std::make_unique<serve::ShardedServingEngine>(
      FleetConfig(0, static_cast<size_t>(kServeUsers) + 16));
  PLP_CHECK_OK(setup.engine->PublishSnapshot(setup.snapshots[0]));
  Rng rng(seed ^ 0x5eed5eedULL);
  for (int j = 0; j < kWarmCheckinsPerUser; ++j) {
    for (int64_t u = 0; u < kServeUsers; ++u) {
      serve::Request request = CheckinOf(u, rng);
      PLP_CHECK(setup.engine->Recommend(request).status.ok());
      setup.warm.push_back(std::move(request));
    }
  }
  return setup;
}

enum class Fate : uint8_t { kOk, kOverloaded, kExpired, kError };

/// The engine's own outcome counters, summed over the shards.
struct EngineCounts {
  uint64_t ok = 0;
  uint64_t overloaded = 0;
  uint64_t deadline_exceeded = 0;
};

struct RequestRecord {
  int64_t arrival_ns = 0;  ///< scheduled send time
  int64_t user = 0;
  int32_t checkin = 0;
  int32_t lag_us = 0;      ///< generator lateness past the schedule
  int32_t latency_us = 0;  ///< engine-measured, from the scheduled time
  uint32_t version = 0;
  int32_t topk_slot = -1;  ///< index into Segment::topk when sampled
  Fate fate = Fate::kError;
  bool well_formed = true;
};

struct Segment {
  std::string name;
  double rate = 0.0;
  bool traced = false;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t submit_calls = 0;
  std::vector<RequestRecord> records;
  std::vector<std::vector<serve::ScoredLocation>> topk;
  EngineCounts before;  ///< engine counters at the segment's start
  EngineCounts after;

  std::vector<double> OkLatencies() const {
    std::vector<double> out;
    for (const RequestRecord& r : records) {
      if (r.fate == Fate::kOk) out.push_back(r.latency_us);
    }
    return out;
  }
  int64_t Count(Fate fate) const {
    return std::count_if(records.begin(), records.end(),
                         [fate](const RequestRecord& r) { return r.fate == fate; });
  }
  double FailFrac() const {
    return records.empty() ? 0.0
                           : 1.0 - static_cast<double>(Count(Fate::kOk)) /
                                       static_cast<double>(records.size());
  }
  double Seconds() const { return MillisBetween(start_ns, end_ns) / 1e3; }
  /// p99 of the OK latencies within each swap interval of arrivals, then
  /// the median over intervals: the tail a typical interval (one hot swap
  /// in steady) imposes, not the worst interval's.
  double IntervalP99() const {
    const int64_t window_ns = kSwapIntervalMillis * 1'000'000;
    std::vector<std::vector<double>> windows;
    for (const RequestRecord& r : records) {
      if (r.fate != Fate::kOk) continue;
      const auto w = static_cast<size_t>((r.arrival_ns - start_ns) / window_ns);
      if (windows.size() <= w) windows.resize(w + 1);
      windows[w].push_back(r.latency_us);
    }
    std::vector<double> p99s;
    for (const std::vector<double>& w : windows) {
      // A trailing partial interval with too few samples has no p99.
      if (w.size() >= 1000) p99s.push_back(Quantile(w, 0.99));
    }
    return Quantile(p99s, 0.5);
  }
  /// OK answers whose end-to-end latency, service included, stayed
  /// within the deadline, per second. The engine serves a request only if
  /// its deadline had not passed when scoring began, so every OK answer
  /// was admitted in time; under today's overload nearly all of them
  /// finish a few µs past the deadline, which makes this figure a
  /// knife-edge count and leaves goodput_qps (OK answers per second) the
  /// steady one.
  double WithinDeadline() const {
    int64_t good = 0;
    for (const RequestRecord& r : records) {
      if (r.fate == Fate::kOk && r.latency_us <= kTimeoutMicros) ++good;
    }
    return static_cast<double>(good) / Seconds();
  }
};

EngineCounts ReadCounts(const serve::ShardedServingEngine& engine) {
  serve::Metrics total;
  engine.AggregateMetrics(total);
  return {total.requests_ok.load(), total.requests_overloaded.load(),
          total.requests_deadline_exceeded.load()};
}

/// Fixed-rate open loop. Each request is stamped with its scheduled
/// arrival, which the engine measures latency from, so a stall is charged
/// to every request it delays; arrivals already due are submitted as one
/// batch. Every n-th request's answer is kept for the replay check.
void RunSegment(serve::ShardedServingEngine& engine, Segment& segment,
                double seconds, uint64_t stream_seed, Tracer* tracer,
                const std::set<uint64_t>& versions) {
  const auto total = static_cast<int64_t>(std::llround(segment.rate * seconds));
  const int64_t stride = std::max<int64_t>(1, total / kReplaySamples);
  const auto period = std::chrono::nanoseconds(
      static_cast<int64_t>(1e9 / segment.rate));
  segment.records.resize(static_cast<size_t>(total));
  Rng rng(stream_seed);
  std::deque<std::pair<int64_t, std::future<serve::Response>>> pending;
  auto harvest = [&](bool block) {
    while (!pending.empty() &&
           (block || pending.front().second.wait_for(std::chrono::seconds(0)) ==
                         std::future_status::ready)) {
      const int64_t i = pending.front().first;
      serve::Response response = pending.front().second.get();
      pending.pop_front();
      RequestRecord& r = segment.records[static_cast<size_t>(i)];
      r.latency_us = static_cast<int32_t>(response.latency_micros);
      r.version = static_cast<uint32_t>(response.model_version);
      switch (response.status.code()) {
        case StatusCode::kOk:
          r.fate = Fate::kOk;
          r.well_formed =
              WellFormed(response, kServeK, kServeLocations, versions);
          if (i % stride == 0) {
            r.topk_slot = static_cast<int32_t>(segment.topk.size());
            segment.topk.push_back(std::move(response.topk));
          }
          break;
        case StatusCode::kResourceExhausted:
          r.fate = Fate::kOverloaded;
          break;
        case StatusCode::kDeadlineExceeded:
          r.fate = Fate::kExpired;
          break;
        default:
          r.fate = Fate::kError;
          break;
      }
      if (tracer != nullptr && i % stride == 0) {
        tracer->Add("serve.request", -1, i, r.arrival_ns,
                    r.arrival_ns + response.latency_micros * 1000);
      }
    }
  };
  constexpr size_t kMaxSubmitBatch = 64;
  segment.before = ReadCounts(engine);
  const Clock::time_point start = Clock::now();
  segment.start_ns = NowNanos();
  std::vector<serve::Request> batch;
  for (int64_t i = 0; i < total;) {
    std::this_thread::sleep_until(start + period * i);
    const Clock::time_point now = Clock::now();
    batch.clear();
    const int64_t first = i;
    do {
      serve::Request request = StreamRequest(rng);
      request.arrival = start + period * i;
      request.timeout_micros = kTimeoutMicros;
      RequestRecord& r = segment.records[static_cast<size_t>(i)];
      // NowNanos reads the same steady clock, so spans and arrivals align.
      r.arrival_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         request.arrival.time_since_epoch())
                         .count();
      r.user = request.user_id;
      r.checkin = request.new_checkin;
      r.lag_us = static_cast<int32_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              now - request.arrival)
              .count());
      batch.push_back(std::move(request));
      ++i;
    } while (i < total && batch.size() < kMaxSubmitBatch &&
             start + period * i <= now);
    ScopedSpan submit(tracer, "serve.submit", -1, first);
    ++segment.submit_calls;
    int64_t index = first;
    for (auto& future : engine.SubmitAsyncBatch(std::move(batch))) {
      pending.emplace_back(index++, std::move(future));
    }
    batch = {};
    harvest(false);
  }
  harvest(true);
  segment.end_ns = NowNanos();
  segment.after = ReadCounts(engine);
}

/// Hot swaps between the prebuilt snapshots every kSwapIntervalMillis
/// while the segments run.
class Swapper {
 public:
  Swapper(serve::ShardedServingEngine& engine, const ServeSetup& setup,
          Tracer* tracer)
      : thread_([this, &engine, &setup, tracer] {
          size_t next = 1;
          while (!stop_.load(std::memory_order_acquire)) {
            std::unique_lock<std::mutex> lock(mu_);
            if (cv_.wait_for(lock,
                             std::chrono::milliseconds(kSwapIntervalMillis),
                             [this] { return stop_.load(); })) {
              break;
            }
            lock.unlock();
            const int64_t begin = NowNanos();
            const bool ok =
                engine.PublishSnapshot(setup.snapshots[next]).ok();
            const int64_t end = NowNanos();
            if (tracer != nullptr) {
              tracer->Add("serve.swap", -1, swaps_, begin, end);
            }
            failed_ += ok ? 0 : 1;
            stalls_us_.push_back(MillisBetween(begin, end) * 1e3);
            ++swaps_;
            next = 1 - next;
          }
        }) {}

  ~Swapper() { Join(); }
  Swapper(const Swapper&) = delete;
  Swapper& operator=(const Swapper&) = delete;

  /// Stops and joins; returns the swap durations in µs.
  std::vector<double> Stop(int64_t& failed) {
    Join();
    failed = failed_;
    return stalls_us_;
  }

 private:
  void Join() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_.store(true, std::memory_order_release);
    }
    cv_.notify_all();
    thread_.join();
  }

  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  int64_t swaps_ = 0;
  int64_t failed_ = 0;
  std::vector<double> stalls_us_;
  std::thread thread_;
};

/// Every n-th compared request also gets an exact float32 answer.
constexpr int64_t kRecallEvery = 10;

/// Replays the warm-up and every OK request, in order, through a fresh
/// SessionStore, ModelSnapshot::Profile and ApproxTopKScores — the calls
/// the engine makes per request — and checks each sampled answer against
/// the engine's. Shed and expired requests never reached the session
/// store, so they are skipped here too.
void Replay(const ServeSetup& setup,
            const std::vector<std::shared_ptr<const serve::ModelSnapshot>>&
                references,
            const std::vector<Segment>& segments, Tracer* tracer,
            double& recall, Outcome& outcome) {
  serve::SessionStore::Options options;
  options.capacity = static_cast<size_t>(kServeUsers) + 16;
  serve::SessionStore store(options);
  for (const serve::Request& r : setup.warm) {
    store.Append(r.user_id, r.new_checkin);
  }
  int64_t mismatches = 0;
  int64_t compared = 0;
  int64_t recall_hits = 0;
  int64_t recall_total = 0;
  for (const Segment& segment : segments) {
    for (size_t i = 0; i < segment.records.size(); ++i) {
      const RequestRecord& r = segment.records[i];
      if (r.fate != Fate::kOk) continue;
      if (r.topk_slot < 0) {
        store.Append(r.user, r.checkin);
        continue;
      }
      const serve::ModelSnapshot& snapshot =
          *setup.snapshots[static_cast<size_t>(r.version) - 1];
      const int64_t t0 = NowNanos();
      const std::vector<int32_t> history = store.Append(r.user, r.checkin);
      const int64_t t1 = NowNanos();
      const std::vector<float> profile = snapshot.Profile(history);
      const int64_t t2 = NowNanos();
      const std::vector<serve::ScoredLocation> topk =
          serve::ApproxTopKScores(snapshot, profile, kServeK, 0);
      const int64_t t3 = NowNanos();
      const auto& served = segment.topk[static_cast<size_t>(r.topk_slot)];
      ++compared;
      bool same = topk.size() == served.size();
      for (size_t j = 0; same && j < topk.size(); ++j) {
        same = topk[j].location == served[j].location &&
               topk[j].score == served[j].score;
      }
      mismatches += same ? 0 : 1;
      if (compared % kRecallEvery == 0) {
        const serve::ModelSnapshot& exact =
            *references[static_cast<size_t>(r.version) - 1];
        const std::vector<serve::ScoredLocation> truth = serve::TopKScores(
            exact, exact.Profile(history), kServeK);
        for (const serve::ScoredLocation& t : truth) {
          for (const serve::ScoredLocation& got : served) {
            recall_hits += got.location == t.location ? 1 : 0;
          }
        }
        recall_total += static_cast<int64_t>(truth.size());
      }
      if (segment.traced && tracer != nullptr) {
        const int64_t key = static_cast<int64_t>(i);
        const int64_t parent = tracer->Add("serve.replay", -1, key, t0, t3);
        tracer->Add("serve.session", parent, key, t0, t1);
        tracer->Add("serve.profile", parent, key, t1, t2);
        tracer->Add("serve.scan", parent, key, t2, t3);
      }
    }
  }
  recall = recall_total > 0 ? static_cast<double>(recall_hits) /
                                  static_cast<double>(recall_total)
                            : 0.0;
  outcome.Check(compared > 0 && mismatches == 0,
                "replayed top-k equals the engine's answer (" +
                    std::to_string(mismatches) + " of " +
                    std::to_string(compared) + " differ)");
}

/// A rate holds the SLO when its p99 (per swap interval, median over
/// intervals — see IntervalP99) is at most 5 ms, at most 0.1% of its
/// requests failed, and its backlog did not grow: the last quarter of
/// arrivals has a p50 within 2x + 1 ms of the first quarter's (a queue
/// that outgrows its workers climbs at the median; a hot-swap stall only
/// moves the tail).
bool HoldsSlo(const Segment& s) {
  const size_t n = s.records.size();
  auto quarter_p50 = [&s](size_t begin, size_t end) {
    std::vector<double> lat;
    for (size_t i = begin; i < end; ++i) {
      lat.push_back(s.records[i].latency_us);
    }
    return Quantile(lat, 0.5);
  };
  const bool growing =
      quarter_p50(3 * n / 4, n) > 2.0 * quarter_p50(0, n / 4) + 1000.0;
  return s.IntervalP99() <= kSloP99Micros &&
         s.FailFrac() <= kSloMaxFailFrac && !growing;
}

}  // namespace

Outcome RunServe(const RunOptions& options) {
  Outcome outcome;
  Tracer tracer;
  Tracer* const t = options.trace ? &tracer : nullptr;
  const bool steady = options.workload == "serve_steady";

  std::vector<double> setup_s;
  ServeSetup setup;
  for (int i = 0; i < kServeSetupRepeats; ++i) {
    setup = ServeSetup{};
    const int64_t start = NowNanos();
    setup = SetUpServe(options.seed, i);
    setup_s.push_back(MillisBetween(start, NowNanos()) / 1e3);
  }
  const std::set<uint64_t> versions = {1, 2};

  // ---- timed window ----------------------------------------------------
  // Untraced: steady runs three fixed rates for a third of the window
  // each; overload runs one rate for all of it. Traced: one untraced then
  // one traced segment at the mid (overload) rate, half the window each.
  std::vector<Segment> segments;
  auto add = [&segments](const char* name, double rate, bool traced) {
    segments.emplace_back();
    segments.back().name = name;
    segments.back().rate = rate;
    segments.back().traced = traced;
  };
  if (options.trace) {
    const double rate = steady ? kRateMid : kRateOverload;
    add("untraced", rate, false);
    add("traced", rate, true);
  } else if (steady) {
    add("low", kRateLow, false);
    add("mid", kRateMid, false);
    add("high", kRateHigh, false);
  } else {
    add("overload", kRateOverload, false);
  }
  const double per_segment =
      options.seconds / static_cast<double>(segments.size());
  std::optional<Swapper> swapper;
  if (steady) swapper.emplace(*setup.engine, setup, t);
  for (size_t i = 0; i < segments.size(); ++i) {
    RunSegment(*setup.engine, segments[i], per_segment,
               options.seed * 1000 + i, segments[i].traced ? t : nullptr,
               versions);
  }
  int64_t failed_swaps = 0;
  std::vector<double> swap_us;
  if (swapper.has_value()) swap_us = swapper->Stop(failed_swaps);

  // ---- correctness -----------------------------------------------------
  int64_t malformed = 0;
  for (const Segment& s : segments) {
    outcome.attempted += static_cast<int64_t>(s.records.size());
    outcome.failed += s.Count(Fate::kError);
    for (const RequestRecord& r : s.records) {
      malformed += r.fate == Fate::kOk && !r.well_formed ? 1 : 0;
    }
  }
  outcome.Check(malformed == 0,
                "every OK answer has k distinct valid ids in score order "
                "from a published version (" +
                    std::to_string(malformed) + " do not)");
  outcome.Check(outcome.failed == 0, "no request failed with an error");
  outcome.Check(failed_swaps == 0, "every hot swap succeeded");
  outcome.Check(!steady || swap_us.size() >= 2, "hot swaps ran");
  std::vector<std::shared_ptr<const serve::ModelSnapshot>> references;
  for (uint64_t v = 1; v <= 2; ++v) {
    auto exact = serve::ModelSnapshot::FromDeployed(
        ServeFixture(options.seed * 2 + v), v);
    PLP_CHECK_OK(exact.status());
    references.push_back(std::move(exact).value());
  }
  double recall = 0.0;
  Replay(setup, references, segments, t, recall, outcome);
  outcome.Check(recall >= 0.99, "served recall@10 vs f32 " +
                                    std::to_string(recall) + " >= 0.99");

  // ---- metrics ---------------------------------------------------------
  auto find = [&segments](const std::string& name) -> const Segment& {
    for (const Segment& s : segments) {
      if (s.name == name) return s;
    }
    return segments.front();
  };
  std::vector<double> gen_lag;
  for (const Segment& s : segments) {
    for (const RequestRecord& r : s.records) gen_lag.push_back(r.lag_us);
  }
  outcome.report.push_back({"served_recall10", recall, "ratio"});
  outcome.report.push_back(
      {"gen_lag_p99_us", Quantile(gen_lag, 0.99), "us"});
  for (const Segment& s : segments) {
    const std::vector<double> lat = s.OkLatencies();
    outcome.report.push_back({"offered_qps_" + s.name, s.rate, "1/s"});
    outcome.report.push_back(
        {"achieved_qps_" + s.name,
         static_cast<double>(s.Count(Fate::kOk)) / s.Seconds(), "1/s"});
    outcome.report.push_back({"p50_us_" + s.name, Quantile(lat, 0.5), "us"});
    outcome.report.push_back({"p99_us_" + s.name, Quantile(lat, 0.99), "us"});
    outcome.report.push_back({"ip99_us_" + s.name, s.IntervalP99(), "us"});
    outcome.report.push_back({"p90_us_" + s.name, Quantile(lat, 0.90), "us"});
    outcome.report.push_back({"fail_frac_" + s.name, s.FailFrac(), "ratio"});
    outcome.report.push_back(
        {"requests_" + s.name, static_cast<double>(s.records.size()), "count"});
  }
  if (!options.trace && steady) {
    double slo_qps = 0.0;
    for (const Segment& s : segments) {
      if (HoldsSlo(s)) {
        slo_qps = static_cast<double>(s.Count(Fate::kOk)) / s.Seconds();
      }
    }
    const Segment& mid = find("mid");
    double fail = 0.0;
    for (const Segment& s : segments) fail = std::max(fail, s.FailFrac());
    outcome.report.push_back({"slo_qps", slo_qps, "1/s"});
    outcome.report.push_back({"fail_frac", fail, "ratio"});
    outcome.report.push_back(
        {"swap_stall_us_max",
         swap_us.empty() ? 0.0 : *std::max_element(swap_us.begin(), swap_us.end()),
         "us"});
    outcome.end_to_end = {
        {"setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"latency_ms", Quantile(mid.OkLatencies(), 0.90) / 1e3, "ms"},
        {"p50_ms", Quantile(mid.OkLatencies(), 0.5) / 1e3, "ms"},
    };
  } else if (!options.trace) {
    const Segment& s = segments.front();
    const std::vector<double> lat = s.OkLatencies();
    const double served_qps =
        static_cast<double>(s.Count(Fate::kOk)) / s.Seconds();
    outcome.report.push_back({"goodput_qps", served_qps, "1/s"});
    outcome.report.push_back(
        {"within_deadline_qps", s.WithinDeadline(), "1/s"});
    outcome.report.push_back({"served_p99_us", Quantile(lat, 0.99), "us"});
    outcome.report.push_back({"fail_frac", s.FailFrac(), "ratio"});
    outcome.end_to_end = {
        {"setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"latency_ms", Quantile(lat, 0.99) / 1e3, "ms"},
        {"p50_ms", Quantile(lat, 0.5) / 1e3, "ms"},
    };
  }

  if (options.trace) {
    PLP_CHECK_OK(tracer.WriteTsv(options.trace_path));
    auto spans = ReadTsv(options.trace_path);
    PLP_CHECK_OK(spans.status());
    const SpanTree tree(std::move(spans).value());
    outcome.per_layer = PerLayerCatalog();
    auto& m = outcome.per_layer;
    auto durations_us = [&tree](const char* name) {
      std::vector<double> us;
      for (int64_t id : tree.Named(name)) {
        us.push_back(tree.spans()[static_cast<size_t>(id)].millis() * 1e3);
      }
      return us;
    };
    for (const char* layer : {"session", "profile", "scan"}) {
      const std::vector<double> us =
          durations_us((std::string("serve.") + layer).c_str());
      Put(m, std::string("serve.") + layer + "_us_p50", Quantile(us, 0.5));
      Put(m, std::string("serve.") + layer + "_us_p99", Quantile(us, 0.99));
    }
    const std::vector<double> service = durations_us("serve.replay");
    Put(m, "serve.service_us_p50", Quantile(service, 0.5));
    Put(m, "serve.service_us_p99", Quantile(service, 0.99));
    // Queue wait, estimated per sampled request: its end-to-end latency
    // in the engine minus its replayed service time.
    std::map<int64_t, double> request_us;
    for (int64_t id : tree.Named("serve.request")) {
      const Span& span = tree.spans()[static_cast<size_t>(id)];
      request_us[span.key] = span.millis() * 1e3;
    }
    std::vector<double> queue_wait;
    for (int64_t id : tree.Named("serve.replay")) {
      const Span& span = tree.spans()[static_cast<size_t>(id)];
      const auto it = request_us.find(span.key);
      if (it != request_us.end()) {
        queue_wait.push_back(std::max(0.0, it->second - span.millis() * 1e3));
      }
    }
    outcome.Check(!queue_wait.empty() && queue_wait.size() == service.size(),
                  "every replayed request has its engine-side span");
    Put(m, "serve.queue_wait_us_p50", Quantile(queue_wait, 0.5));
    Put(m, "serve.queue_wait_us_p99", Quantile(queue_wait, 0.99));
    const Segment& traced = segments.back();
    Put(m, "serve.batch_size_mean",
        static_cast<double>(traced.records.size()) /
            static_cast<double>(traced.submit_calls));
    Put(m, "serve.ok", static_cast<double>(traced.after.ok - traced.before.ok));
    Put(m, "serve.overloaded", static_cast<double>(traced.after.overloaded -
                                                   traced.before.overloaded));
    Put(m, "serve.deadline_exceeded",
        static_cast<double>(traced.after.deadline_exceeded -
                            traced.before.deadline_exceeded));
    std::vector<double> traced_lag;
    for (const RequestRecord& r : traced.records) traced_lag.push_back(r.lag_us);
    Put(m, "serve.gen_lag_p99_us", Quantile(traced_lag, 0.99));
    const std::vector<double> swaps = durations_us("serve.swap");
    Put(m, "serve.swaps", static_cast<double>(swaps.size()));
    Put(m, "serve.swap_stall_us_max",
        swaps.empty() ? 0.0 : *std::max_element(swaps.begin(), swaps.end()));
    Put(m, "serve.fleet_swap_ms", Quantile(swaps, 0.5) / 1e3);
    Put(m, "serve.snapshot_bytes",
        static_cast<double>(setup.snapshots[0]->memory_bytes()));
    // The engine's counters and the benchmark's own tally must agree.
    outcome.Check(
        traced.after.ok - traced.before.ok ==
            static_cast<uint64_t>(traced.Count(Fate::kOk)),
        "engine requests_ok equals the OK answers received");
    const double untraced_p50 = Quantile(segments.front().OkLatencies(), 0.5);
    const double traced_p50 = Quantile(traced.OkLatencies(), 0.5);
    Put(m, "trace_overhead_pct",
        untraced_p50 > 0.0 ? 100.0 * (traced_p50 - untraced_p50) / untraced_p50
                           : 0.0);
  }
  return outcome;
}

}  // namespace plp::perfbench
