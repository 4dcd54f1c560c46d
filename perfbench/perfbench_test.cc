// Self-test of the benchmark's own machinery:
//   * the traced stage decorators reproduce the untraced PlpTrainer's model
//     bits (CRC-64) and ε trajectory exactly, at 1 and 4 threads, under
//     both the rdp and the pld_fft accountant;
//   * span self time and interval unions are computed correctly;
//   * a trace file round-trips through WriteTsv / ReadTsv.
// Exits non-zero when any expectation fails.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/plp_trainer.h"
#include "data/fixtures.h"
#include "pipeline/engine.h"
#include "pipeline/standard_stages.h"
#include "trace.h"
#include "traced_stages.h"
#include "workloads.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

std::vector<double> Epsilons(const plp::core::TrainResult& result) {
  std::vector<double> eps;
  for (const auto& m : result.history) eps.push_back(m.epsilon_spent);
  return eps;
}

void TracedMatchesUntraced(const std::string& accountant, int32_t threads) {
  plp::data::FixtureCorpusOptions corpus_options;
  corpus_options.num_users = 300;
  corpus_options.num_locations = 60;
  corpus_options.neighborhood = 6;
  const plp::data::TrainingCorpus corpus =
      plp::data::MakeFixtureCorpus(11, corpus_options);
  plp::core::PlpConfig config;
  config.sgns.embedding_dim = 16;
  config.sampling_probability = 0.1;
  config.accountant = accountant;
  config.num_threads = threads;
  config.epsilon_budget = 0.6;
  const std::string label = accountant + "/" + std::to_string(threads);

  plp::Rng rng_a(5);
  auto untraced = plp::core::PlpTrainer(config).Train(corpus, rng_a);
  Expect(untraced.ok(), label + ": untraced run");

  plp::perfbench::Tracer tracer;
  plp::perfbench::StageTrace trace;
  trace.tracer = &tracer;
  plp::pipeline::TrainingEngine engine(
      plp::pipeline::MakePrivateEngineConfig(config),
      plp::perfbench::TraceStages(plp::pipeline::MakePrivateStages(config),
                                  &trace));
  plp::Rng rng_b(5);
  auto traced = engine.Train(corpus, rng_b, nullptr, {});
  trace.CloseStep(plp::perfbench::NowNanos());
  Expect(traced.ok(), label + ": traced run");
  if (!untraced.ok() || !traced.ok()) return;

  Expect(untraced->stop_reason == plp::core::StopReason::kBudgetExhausted,
         label + ": run ends on the budget");
  Expect(untraced->steps_executed > 1, label + ": several steps ran");
  Expect(plp::perfbench::ModelCrc64(untraced->model) ==
             plp::perfbench::ModelCrc64(traced->model),
         label + ": model CRC-64 equal");
  const std::vector<double> a = Epsilons(*untraced);
  const std::vector<double> b = Epsilons(*traced);
  Expect(a.size() == b.size() &&
             std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0,
         label + ": epsilon trajectory bit-identical");
  Expect(trace.epsilons.size() == b.size() &&
             std::memcmp(trace.epsilons.data(), b.data(),
                         b.size() * sizeof(double)) == 0,
         label + ": decorator saw the same epsilon values");

  // One step span per accounted round (the last one exhausts), each with
  // its accounting child; bucket counts seen at the grouper boundary.
  const std::filesystem::path path = "plp_perfbench_test.tsv";
  Expect(tracer.WriteTsv(path.string()).ok(), label + ": trace written");
  auto spans = plp::perfbench::ReadTsv(path.string());
  std::filesystem::remove(path);
  Expect(spans.ok(), label + ": trace read back");
  if (!spans.ok()) return;
  const plp::perfbench::SpanTree tree(std::move(spans).value());
  const auto steps = tree.Named("pipeline.step");
  Expect(static_cast<int64_t>(steps.size()) == traced->steps_executed + 1,
         label + ": one step span per accounted round");
  Expect(tree.Named("privacy.track_round").size() == steps.size(),
         label + ": one accounting span per round");
  int64_t buckets = 0;
  for (const auto& m : traced->history) buckets += m.num_buckets;
  Expect(trace.buckets.load() == buckets, label + ": bucket count");
  Expect(static_cast<int64_t>(tree.Named("pipeline.compute_delta").size()) ==
             buckets,
         label + ": one compute_delta span per bucket");
  for (int64_t id : steps) {
    Expect(tree.SelfNanos(id) >= 0, label + ": non-negative self time");
  }
}

void SelfTimeArithmetic() {
  using plp::perfbench::Span;
  std::vector<Span> spans = {
      {0, -1, 0, 0, 100, "root"},
      {1, 0, 0, 10, 40, "a"},
      {2, 0, 0, 30, 60, "b"},   // overlaps a (parallel children)
      {3, 0, 0, 90, 120, "c"},  // runs past the parent's end
      {4, 1, 0, 15, 20, "leaf"},
  };
  const plp::perfbench::SpanTree tree(spans);
  Expect(tree.ChildCoverageNanos(0) == 60, "union of children clipped");
  Expect(tree.SelfNanos(0) == 40, "root self time");
  Expect(tree.SelfNanos(1) == 25, "child self time");
  Expect(tree.SelfNanos(4) == 5, "leaf self time");
  Expect(plp::perfbench::UnionLength({{0, 5}, {5, 7}, {9, 10}}) == 8,
         "touching intervals merge");
  Expect(plp::perfbench::Quantile({3, 1, 2, 4}, 0.5) == 2.5, "median");
  Expect(plp::perfbench::Quantile({3, 1, 2}, 0.5) == 2, "odd median");
  Expect(std::abs(plp::perfbench::Quantile({1, 2, 3, 4}, 0.99) - 3.97) < 1e-12,
         "p99");
}

}  // namespace

int main() {
  SelfTimeArithmetic();
  for (const char* accountant : {"rdp", "pld_fft"}) {
    for (int32_t threads : {1, 4}) TracedMatchesUntraced(accountant, threads);
  }
  std::printf("%s (%d failures)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
