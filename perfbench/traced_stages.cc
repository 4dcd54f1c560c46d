#include "traced_stages.h"

#include <memory>
#include <utility>

namespace plp::perfbench {
namespace {

using pipeline::AggregateContext;
using pipeline::BudgetDecision;
using pipeline::RoundRecord;

int64_t StepParent(const StageTrace& t) {
  return t.step_span.load(std::memory_order_acquire);
}

int64_t StepKey(const StageTrace& t) {
  return t.step.load(std::memory_order_acquire);
}

class TracedSampler final : public pipeline::UserSampler {
 public:
  TracedSampler(std::unique_ptr<pipeline::UserSampler> inner, StageTrace* t)
      : inner_(std::move(inner)), t_(t) {}

  std::vector<int32_t> Sample(const data::CorpusView& corpus,
                              Rng& rng) override {
    ScopedSpan span(t_->tracer, "pipeline.sample", StepParent(*t_),
                    StepKey(*t_));
    std::vector<int32_t> sampled = inner_->Sample(corpus, rng);
    t_->sampled_users.fetch_add(static_cast<int64_t>(sampled.size()),
                                std::memory_order_relaxed);
    return sampled;
  }

 private:
  std::unique_ptr<pipeline::UserSampler> inner_;
  StageTrace* t_;
};

class TracedGrouper final : public pipeline::Grouper {
 public:
  TracedGrouper(std::unique_ptr<pipeline::Grouper> inner, StageTrace* t)
      : inner_(std::move(inner)), t_(t) {}

  std::vector<core::Bucket> Group(const data::CorpusView& corpus,
                                  const std::vector<int32_t>& sampled,
                                  Rng& rng) override {
    ScopedSpan span(t_->tracer, "pipeline.group", StepParent(*t_),
                    StepKey(*t_));
    std::vector<core::Bucket> buckets = inner_->Group(corpus, sampled, rng);
    t_->buckets.fetch_add(static_cast<int64_t>(buckets.size()),
                          std::memory_order_relaxed);
    return buckets;
  }

 private:
  std::unique_ptr<pipeline::Grouper> inner_;
  StageTrace* t_;
};

class TracedUpdater final : public pipeline::LocalUpdater {
 public:
  TracedUpdater(std::unique_ptr<pipeline::LocalUpdater> inner, StageTrace* t)
      : inner_(std::move(inner)), t_(t) {}

  Status Prepare(const data::CorpusView& corpus, const sgns::SgnsModel& model,
                 Rng& rng) override {
    return inner_->Prepare(corpus, model, rng);
  }

  bool BucketParallel() const override { return inner_->BucketParallel(); }

  void ComputeDelta(const sgns::SgnsModel& theta, const core::Bucket& bucket,
                    int32_t num_locations, Rng& bucket_rng, double* loss_out,
                    sgns::TrainScratch* scratch,
                    sgns::SparseDelta& delta) override {
    ScopedSpan span(t_->tracer, "pipeline.compute_delta", StepParent(*t_),
                    StepKey(*t_));
    inner_->ComputeDelta(theta, bucket, num_locations, bucket_rng, loss_out,
                         scratch, delta);
  }

  Result<double> WholeRound(const data::CorpusView& corpus,
                            sgns::SgnsModel& model, Rng& rng) override {
    return inner_->WholeRound(corpus, model, rng);
  }

 private:
  std::unique_ptr<pipeline::LocalUpdater> inner_;
  StageTrace* t_;
};

class TracedClipper final : public pipeline::DeltaClipper {
 public:
  TracedClipper(std::unique_ptr<pipeline::DeltaClipper> inner, StageTrace* t)
      : inner_(std::move(inner)), t_(t) {}

  bool Clip(sgns::SparseDelta& delta) const override {
    ScopedSpan span(t_->tracer, "pipeline.clip", StepParent(*t_),
                    StepKey(*t_));
    const bool engaged = inner_->Clip(delta);
    if (engaged) t_->clipped.fetch_add(1, std::memory_order_relaxed);
    return engaged;
  }

 private:
  std::unique_ptr<pipeline::DeltaClipper> inner_;
  StageTrace* t_;
};

class TracedAggregator final : public pipeline::NoisyAggregator {
 public:
  TracedAggregator(std::unique_ptr<pipeline::NoisyAggregator> inner,
                   StageTrace* t)
      : inner_(std::move(inner)), t_(t) {}

  void Prepare(const data::CorpusView& corpus) override {
    inner_->Prepare(corpus);
  }

  void Reduce(std::span<const sgns::SparseDelta* const> deltas,
              sgns::DenseUpdate& sum, ThreadPool* pool) override {
    ScopedSpan span(t_->tracer, "pipeline.reduce", StepParent(*t_),
                    StepKey(*t_));
    inner_->Reduce(deltas, sum, pool);
  }

  void NoiseAndAverage(const AggregateContext& ctx,
                       sgns::DenseUpdate& sum) override {
    ScopedSpan span(t_->tracer, "pipeline.noise", StepParent(*t_),
                    StepKey(*t_));
    inner_->NoiseAndAverage(ctx, sum);
  }

 private:
  std::unique_ptr<pipeline::NoisyAggregator> inner_;
  StageTrace* t_;
};

class TracedAccountant final : public pipeline::Accountant {
 public:
  TracedAccountant(std::unique_ptr<pipeline::Accountant> inner, StageTrace* t)
      : inner_(std::move(inner)), t_(t) {}

  Result<BudgetDecision> TrackRound(const RoundRecord& round) override {
    // The engine asks the accountant first in every step, so this is
    // where the previous step ends and the next one begins.
    const int64_t now = NowNanos();
    t_->CloseStep(now);
    const int64_t step_span =
        t_->tracer->Add("pipeline.step", t_->parent, round.step, now, now);
    t_->step.store(round.step, std::memory_order_release);
    t_->step_span.store(step_span, std::memory_order_release);

    const int64_t span =
        t_->tracer->Begin("privacy.track_round", step_span, round.step);
    Result<BudgetDecision> decision = inner_->TrackRound(round);
    t_->tracer->End(span);
    if (decision.ok() && !decision->exhausted) {
      t_->epsilons.push_back(decision->epsilon_after);
    }
    return decision;
  }

  Result<BudgetDecision> TrackRounds(const RoundRecord& first,
                                     int64_t count) override {
    return inner_->TrackRounds(first, count);
  }

  double EpsilonSpent() const override { return inner_->EpsilonSpent(); }
  std::string SaveBlob() const override { return inner_->SaveBlob(); }
  Status RestoreBlob(const std::string& blob, int64_t step) override {
    return inner_->RestoreBlob(blob, step);
  }

 private:
  std::unique_ptr<pipeline::Accountant> inner_;
  StageTrace* t_;
};

class TracedServer final : public pipeline::ServerOptimizer {
 public:
  TracedServer(std::unique_ptr<pipeline::ServerOptimizer> inner,
               StageTrace* t)
      : inner_(std::move(inner)), t_(t) {}

  Status Prepare(const sgns::SgnsModel& model) override {
    return inner_->Prepare(model);
  }

  void Apply(const sgns::DenseUpdate& update,
             sgns::SgnsModel& model) override {
    ScopedSpan span(t_->tracer, "pipeline.server_apply", StepParent(*t_),
                    StepKey(*t_));
    inner_->Apply(update, model);
  }

  const char* name() const override { return inner_->name(); }
  void SaveState(ByteWriter& writer) const override {
    inner_->SaveState(writer);
  }
  Status LoadState(ByteReader& reader,
                   const sgns::SgnsModel& model) override {
    return inner_->LoadState(reader, model);
  }

 private:
  std::unique_ptr<pipeline::ServerOptimizer> inner_;
  StageTrace* t_;
};

}  // namespace

void StageTrace::CloseStep(int64_t end_ns) {
  const int64_t open = step_span.exchange(-1, std::memory_order_acq_rel);
  if (open >= 0) tracer->EndAt(open, end_ns);
}

pipeline::StageSet TraceStages(pipeline::StageSet inner, StageTrace* trace) {
  pipeline::StageSet traced;
  traced.sampler =
      std::make_unique<TracedSampler>(std::move(inner.sampler), trace);
  traced.grouper =
      std::make_unique<TracedGrouper>(std::move(inner.grouper), trace);
  traced.updater =
      std::make_unique<TracedUpdater>(std::move(inner.updater), trace);
  traced.clipper =
      std::make_unique<TracedClipper>(std::move(inner.clipper), trace);
  traced.aggregator =
      std::make_unique<TracedAggregator>(std::move(inner.aggregator), trace);
  traced.accountant =
      std::make_unique<TracedAccountant>(std::move(inner.accountant), trace);
  traced.server =
      std::make_unique<TracedServer>(std::move(inner.server), trace);
  return traced;
}

}  // namespace plp::perfbench
