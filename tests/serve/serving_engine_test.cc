#include "serve/serving_engine.h"

#include <chrono>
#include <future>
#include <vector>

#include <gtest/gtest.h>
#include "common/fault_injection.h"
#include "common/rng.h"
#include "eval/recommender.h"
#include "sgns/model.h"

namespace plp::serve {
namespace {

sgns::SgnsModel MakeModel(uint64_t seed, int32_t locations = 50,
                          int32_t dim = 10) {
  Rng rng(seed);
  sgns::SgnsConfig config;
  config.embedding_dim = dim;
  config.init_scale = 1.0;
  auto model = sgns::SgnsModel::Create(locations, config, rng);
  EXPECT_TRUE(model.ok());
  return std::move(model).value();
}

ServingConfig SmallConfig() {
  ServingConfig config;
  config.num_threads = 2;
  config.sessions.capacity = 64;
  config.sessions.history_length = 8;
  return config;
}

TEST(ServingEngineTest, FailsClosedWithoutModel) {
  ServingEngine engine(SmallConfig());
  Request request;
  request.user_id = 1;
  request.new_checkin = 3;
  const Response response = engine.Recommend(request);
  EXPECT_EQ(response.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(response.topk.empty());
  EXPECT_EQ(engine.metrics().requests_no_model.load(), 1u);
}

TEST(ServingEngineTest, SessionFlowMatchesRecommender) {
  const sgns::SgnsModel model = MakeModel(3);
  const eval::Recommender recommender(model);
  ServingEngine engine(SmallConfig());
  ASSERT_TRUE(engine.PublishModel(model, 5).ok());

  // Three check-ins accumulate into the session; the third response must
  // score the full history exactly like the batch-eval recommender.
  Request request;
  request.user_id = 77;
  request.k = 8;
  request.new_checkin = 10;
  engine.Recommend(request);
  request.new_checkin = 20;
  engine.Recommend(request);
  request.new_checkin = 30;
  const Response response = engine.Recommend(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.model_version, 5u);
  ASSERT_EQ(response.topk.size(), 8u);

  const std::vector<int32_t> history = {10, 20, 30};
  const std::vector<double> scores = recommender.Scores(history);
  const std::vector<int32_t> expected = recommender.TopK(history, 8);
  for (size_t i = 0; i < response.topk.size(); ++i) {
    EXPECT_NEAR(response.topk[i].score,
                scores[static_cast<size_t>(expected[i])], 1e-4);
  }
  EXPECT_EQ(engine.metrics().requests_ok.load(), 3u);
  EXPECT_EQ(engine.sessions().size(), 1u);
}

TEST(ServingEngineTest, ExplicitHistoryBypassesSessions) {
  ServingEngine engine(SmallConfig());
  ASSERT_TRUE(engine.PublishModel(MakeModel(5), 1).ok());
  Request request;
  request.history = {1, 2, 3};
  request.k = 5;
  const Response response = engine.Recommend(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.topk.size(), 5u);
  EXPECT_EQ(engine.sessions().size(), 0u);
}

TEST(ServingEngineTest, PerRequestErrorsDontPoisonState) {
  ServingEngine engine(SmallConfig());
  ASSERT_TRUE(engine.PublishModel(MakeModel(7, 20, 6), 1).ok());

  // Unknown session.
  Request read_only;
  read_only.user_id = 404;
  EXPECT_EQ(engine.Recommend(read_only).status.code(),
            StatusCode::kNotFound);

  // Out-of-vocabulary check-in is rejected before touching the session.
  Request bad_checkin;
  bad_checkin.user_id = 1;
  bad_checkin.new_checkin = 999;
  EXPECT_EQ(engine.Recommend(bad_checkin).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.sessions().size(), 0u);

  // Bad explicit history and bad k.
  Request bad_history;
  bad_history.history = {0, -4};
  EXPECT_EQ(engine.Recommend(bad_history).status.code(),
            StatusCode::kInvalidArgument);
  Request bad_k;
  bad_k.history = {1};
  bad_k.k = 0;
  EXPECT_EQ(engine.Recommend(bad_k).status.code(),
            StatusCode::kInvalidArgument);
  // k beyond the vocabulary is rejected, not silently clamped.
  Request oversized_k;
  oversized_k.history = {1};
  oversized_k.k = 21;
  EXPECT_EQ(engine.Recommend(oversized_k).status.code(),
            StatusCode::kInvalidArgument);
  Request bad_exclude;
  bad_exclude.history = {1};
  bad_exclude.exclude = {50};
  EXPECT_EQ(engine.Recommend(bad_exclude).status.code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(engine.metrics().requests_invalid_argument.load(), 5u);
  EXPECT_EQ(engine.metrics().requests_not_found.load(), 1u);

  // The engine still serves.
  Request good;
  good.history = {1, 2};
  EXPECT_TRUE(engine.Recommend(good).status.ok());
}

TEST(ServingEngineTest, DeadlineShedsStaleRequests) {
  ServingEngine engine(SmallConfig());
  ASSERT_TRUE(engine.PublishModel(MakeModel(9), 1).ok());
  Request request;
  request.history = {1, 2};
  request.timeout_micros = 50;
  // Arrived 10 ms ago — far past its 50 µs budget.
  request.arrival = std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(10);
  const Response response = engine.Recommend(request);
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(response.topk.empty());
  EXPECT_EQ(engine.metrics().requests_deadline_exceeded.load(), 1u);

  // A fresh request with the same budget succeeds.
  request.arrival = {};
  EXPECT_TRUE(engine.Recommend(request).status.ok());
}

TEST(ServingEngineTest, BatchMatchesIndividualExecution) {
  const sgns::SgnsModel model = MakeModel(11);
  ServingEngine engine(SmallConfig());
  ASSERT_TRUE(engine.PublishModel(model, 2).ok());

  std::vector<Request> batch;
  Rng rng(13);
  for (int i = 0; i < 10; ++i) {
    Request request;
    request.history = {static_cast<int32_t>(rng.UniformInt(50u)),
                       static_cast<int32_t>(rng.UniformInt(50u))};
    request.k = 6;
    batch.push_back(request);
  }
  // One request in the middle is broken; only it may fail.
  batch[4].history = {-3};

  auto futures = engine.SubmitAsyncBatch(batch);
  ASSERT_EQ(futures.size(), batch.size());
  for (size_t i = 0; i < futures.size(); ++i) {
    const Response response = futures[i].get();
    if (i == 4) {
      EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
      continue;
    }
    ASSERT_TRUE(response.status.ok()) << "request " << i;
    const Response solo = engine.Recommend(batch[i]);
    ASSERT_EQ(response.topk.size(), solo.topk.size());
    for (size_t j = 0; j < solo.topk.size(); ++j) {
      EXPECT_EQ(response.topk[j].location, solo.topk[j].location);
      EXPECT_EQ(response.topk[j].score, solo.topk[j].score);
    }
  }
}

TEST(ServingEngineTest, QueuedExpiredRequestsAreRejectedUnderLoad) {
  // The queued-expired path under concurrent load: every worker is slowed
  // by an injected 5 ms of queue residency while a burst of requests with
  // 1 ms budgets lands on the pool. Each must come back DEADLINE_EXCEEDED
  // — never a stale answer — and be counted.
  ServingEngine engine(SmallConfig());
  ASSERT_TRUE(engine.PublishModel(MakeModel(21), 1).ok());
  FaultInjection::Arm("serve.execute", FaultMode::kDelay, /*trigger_hit=*/1,
                      /*delay_millis=*/5);

  constexpr int kBurst = 16;
  std::vector<Request> burst(kBurst);
  for (Request& request : burst) {
    request.history = {1, 2};
    request.timeout_micros = 1000;  // 1 ms budget vs 5 ms injected delay
  }
  for (auto& future : engine.SubmitAsyncBatch(std::move(burst))) {
    const Response response = future.get();
    EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(response.topk.empty());
  }
  FaultInjection::Disarm();
  EXPECT_EQ(engine.metrics().requests_deadline_exceeded.load(),
            static_cast<uint64_t>(kBurst));

  // With the congestion gone the same deadline is comfortable.
  Request fresh;
  fresh.history = {1, 2};
  fresh.timeout_micros = 1000000;
  EXPECT_TRUE(engine.SubmitAsyncBatch({fresh})[0].get().status.ok());
}

TEST(ServingEngineTest, DeadlineAppliesInBatchesToo) {
  ServingEngine engine(SmallConfig());
  ASSERT_TRUE(engine.PublishModel(MakeModel(23), 1).ok());
  std::vector<Request> batch(6);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].history = {1, 2, 3};
    batch[i].k = 4;
    if (i % 2 == 1) {
      batch[i].timeout_micros = 50;
      batch[i].arrival = std::chrono::steady_clock::now() -
                         std::chrono::milliseconds(10);
    }
  }
  auto futures = engine.SubmitAsyncBatch(std::move(batch));
  for (size_t i = 0; i < futures.size(); ++i) {
    const Response response = futures[i].get();
    if (i % 2 == 1) {
      EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
    } else {
      EXPECT_TRUE(response.status.ok()) << "request " << i;
    }
  }
  EXPECT_EQ(engine.metrics().requests_deadline_exceeded.load(), 3u);
}

TEST(ServingEngineTest, AsyncQueueBoundShedsWithOverloaded) {
  // One worker, each request delayed 20 ms, admission bound of 2: a burst
  // of 10 one-request submissions must complete at most 2 + pool-capacity
  // requests and shed the rest immediately with RESOURCE_EXHAUSTED.
  ServingConfig config = SmallConfig();
  config.num_threads = 1;
  config.max_queue = 2;
  ServingEngine engine(config);
  ASSERT_TRUE(engine.PublishModel(MakeModel(25), 1).ok());
  FaultInjection::Arm("serve.execute", FaultMode::kDelay, /*trigger_hit=*/1,
                      /*delay_millis=*/20);

  constexpr int kBurst = 10;
  std::vector<std::future<Response>> futures;
  futures.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    Request request;
    request.history = {1, 2};
    futures.push_back(std::move(engine.SubmitAsyncBatch({request})[0]));
  }
  int ok = 0, shed = 0;
  for (auto& future : futures) {
    const Response response = future.get();
    if (response.status.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(response.status.code(), StatusCode::kResourceExhausted);
      EXPECT_TRUE(response.topk.empty());
      ++shed;
    }
  }
  FaultInjection::Disarm();
  // The first two submissions are always admitted; with each execution
  // pinned at 20 ms, the burst outpaces completions and most of the rest
  // is shed (exact counts depend on scheduler timing between submits).
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GE(ok, 2);
  EXPECT_GE(shed, 1);
  EXPECT_EQ(engine.metrics().requests_overloaded.load(),
            static_cast<uint64_t>(shed));
  EXPECT_EQ(engine.metrics().requests_ok.load(), static_cast<uint64_t>(ok));
  // Shed requests count in the request total — they are finished requests.
  EXPECT_EQ(engine.metrics().TotalRequests(), static_cast<uint64_t>(kBurst));

  // The bound releases as requests finish: the engine accepts again.
  Request after;
  after.history = {3, 4};
  EXPECT_TRUE(engine.SubmitAsyncBatch({after})[0].get().status.ok());
}

TEST(ServingEngineTest, ZeroMaxQueueDisablesShedding) {
  ServingConfig config = SmallConfig();
  config.max_queue = 0;
  ServingEngine engine(config);
  ASSERT_TRUE(engine.PublishModel(MakeModel(27), 1).ok());
  std::vector<Request> requests(64);
  for (Request& request : requests) request.history = {1};
  for (auto& future : engine.SubmitAsyncBatch(std::move(requests))) {
    EXPECT_TRUE(future.get().status.ok());
  }
  EXPECT_EQ(engine.metrics().requests_overloaded.load(), 0u);
}

TEST(ServingEngineTest, SubmitAsyncBatchAnswersEachRequestInOrder) {
  ServingEngine engine(SmallConfig());
  ASSERT_TRUE(engine.PublishModel(MakeModel(31), 1).ok());

  // Distinct k per request proves future i answers request i, not merely
  // "some request" — the batch is the only thing submitted.
  std::vector<Request> requests(8);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].history = {static_cast<int32_t>(i), 5};
    requests[i].k = static_cast<int32_t>(i + 1);
  }
  auto futures = engine.SubmitAsyncBatch(std::move(requests));
  ASSERT_EQ(futures.size(), 8u);
  for (size_t i = 0; i < futures.size(); ++i) {
    const Response response = futures[i].get();
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.topk.size(), i + 1);
  }
  EXPECT_EQ(engine.metrics().requests_ok.load(), 8u);
}

TEST(ServingEngineTest, SubmitAsyncBatchShedsPastQueueBound) {
  // One worker pinned at 20 ms per request, bound of 2: a batch of 10
  // admits at most 2 + pool-capacity and sheds the rest immediately —
  // admission stays per request even though the pool push is batched.
  ServingConfig config = SmallConfig();
  config.num_threads = 1;
  config.max_queue = 2;
  ServingEngine engine(config);
  ASSERT_TRUE(engine.PublishModel(MakeModel(35), 1).ok());
  FaultInjection::Arm("serve.execute", FaultMode::kDelay, /*trigger_hit=*/1,
                      /*delay_millis=*/20);

  std::vector<Request> requests(10);
  for (auto& request : requests) request.history = {1, 2};
  auto futures = engine.SubmitAsyncBatch(std::move(requests));
  int ok = 0, shed = 0;
  for (auto& future : futures) {
    const Response response = future.get();
    if (response.status.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(response.status.code(), StatusCode::kResourceExhausted);
      ++shed;
    }
  }
  FaultInjection::Disarm();
  EXPECT_EQ(ok + shed, 10);
  // The whole batch is stamped before any task can run, so exactly
  // max_queue requests are admitted — no completion can race admission.
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(shed, 8);
  EXPECT_EQ(engine.metrics().requests_overloaded.load(),
            static_cast<uint64_t>(shed));
}

TEST(ServingEngineTest, RecommendIsNeverShed) {
  // The synchronous path applies backpressure by blocking its caller, so a
  // full admission bound must not shed it: health probes depend on that.
  ServingConfig config = SmallConfig();
  config.num_threads = 1;
  config.max_queue = 1;
  ServingEngine engine(config);
  ASSERT_TRUE(engine.PublishModel(MakeModel(39), 1).ok());
  FaultInjection::Arm("serve.execute", FaultMode::kDelay, /*trigger_hit=*/1,
                      /*delay_millis=*/20);

  std::vector<Request> requests(3);
  for (auto& request : requests) request.history = {1, 2};
  auto futures = engine.SubmitAsyncBatch(std::move(requests));
  // The admitted request holds the only slot for 20 ms; this call lands
  // while it is in flight.
  Request probe;
  probe.history = {3, 4};
  const Response direct = engine.Recommend(probe);
  EXPECT_TRUE(direct.status.ok()) << direct.status.message();

  ASSERT_EQ(futures.size(), 3u);
  EXPECT_TRUE(futures[0].get().status.ok());
  EXPECT_EQ(futures[1].get().status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(futures[2].get().status.code(), StatusCode::kResourceExhausted);
  FaultInjection::Disarm();
  EXPECT_EQ(engine.metrics().requests_overloaded.load(), 2u);
  EXPECT_EQ(engine.metrics().requests_ok.load(), 2u);
}

TEST(ServingEngineTest, SubmitAsyncBatchEmptyIsANoOp) {
  ServingEngine engine(SmallConfig());
  ASSERT_TRUE(engine.PublishModel(MakeModel(37), 1).ok());
  auto futures = engine.SubmitAsyncBatch({});
  EXPECT_TRUE(futures.empty());
}

TEST(ServingEngineTest, HotSwapChangesServingModelMidSession) {
  const sgns::SgnsModel model_a = MakeModel(17, 50, 10);
  const sgns::SgnsModel model_b = MakeModel(18, 50, 10);
  ServingEngine engine(SmallConfig());
  ASSERT_TRUE(engine.PublishModel(model_a, 1).ok());

  Request request;
  request.user_id = 9;
  request.new_checkin = 12;
  EXPECT_EQ(engine.Recommend(request).model_version, 1u);

  ASSERT_TRUE(engine.PublishModel(model_b, 2).ok());
  request.new_checkin = 13;
  const Response after = engine.Recommend(request);
  EXPECT_EQ(after.model_version, 2u);
  // The session survived the swap: both check-ins are in ζ.
  const eval::Recommender recommender(model_b);
  const std::vector<int32_t> history = {12, 13};
  const std::vector<double> scores = recommender.Scores(history);
  const std::vector<int32_t> expected = recommender.TopK(history, 10);
  ASSERT_EQ(after.topk.size(), 10u);
  for (size_t i = 0; i < after.topk.size(); ++i) {
    EXPECT_NEAR(after.topk[i].score,
                scores[static_cast<size_t>(expected[i])], 1e-4);
  }
  EXPECT_EQ(engine.metrics().model_swaps.load(), 2u);

  // A swap to a smaller vocabulary turns stale sessions into per-request
  // errors, not crashes.
  ASSERT_TRUE(engine.PublishModel(MakeModel(19, 10, 10), 3).ok());
  Request stale;
  stale.user_id = 9;
  EXPECT_EQ(engine.Recommend(stale).status.code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace plp::serve
