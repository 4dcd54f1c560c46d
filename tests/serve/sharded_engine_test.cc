#include "serve/sharded_engine.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include "common/fault_injection.h"
#include "common/rng.h"
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

ShardedConfig SmallShardedConfig(int32_t num_shards = 4) {
  ShardedConfig config;
  config.num_shards = num_shards;
  config.shard.num_threads = 1;  // one worker per shard — the deployment shape
  config.shard.sessions.capacity = 64;
  config.shard.sessions.history_length = 8;
  return config;
}

TEST(ShardedEngineTest, RoutingIsStableAndSpreads) {
  ShardedServingEngine engine(SmallShardedConfig(4));
  ASSERT_EQ(engine.num_shards(), 4u);

  std::set<int32_t> shards_hit;
  for (int64_t user = 0; user < 256; ++user) {
    const int32_t shard = engine.ShardFor(user);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 4);
    EXPECT_EQ(engine.ShardFor(user), shard);  // same user → same shard
    shards_hit.insert(shard);
  }
  // The multiplicative hash must not collapse sequential ids onto a
  // single shard.
  EXPECT_EQ(shards_hit.size(), 4u);
}

TEST(ShardedEngineTest, ShardCountFloorsAtOne) {
  ShardedServingEngine engine(SmallShardedConfig(0));
  EXPECT_EQ(engine.num_shards(), 1u);
  EXPECT_EQ(engine.ShardFor(12345), 0);
}

TEST(ShardedEngineTest, PublishReplicatesToEveryShard) {
  const sgns::SgnsModel model = MakeModel(3);
  ShardedServingEngine engine(SmallShardedConfig(3));
  ASSERT_TRUE(engine.PublishModel(model, 7).ok());

  std::set<const ModelSnapshot*> replicas;
  uint64_t checksum = 0;
  for (size_t s = 0; s < engine.num_shards(); ++s) {
    const auto snapshot = engine.shard(s).registry().Current();
    ASSERT_NE(snapshot, nullptr) << "shard " << s;
    EXPECT_EQ(snapshot->version(), 7u);
    if (s == 0) checksum = snapshot->checksum();
    EXPECT_EQ(snapshot->checksum(), checksum);  // same artifact…
    replicas.insert(snapshot.get());            // …different storage
  }
  EXPECT_EQ(replicas.size(), engine.num_shards());
}

TEST(ShardedEngineTest, SessionsStayOnTheOwningShard) {
  const sgns::SgnsModel model = MakeModel(3);
  ShardedServingEngine engine(SmallShardedConfig(4));
  ASSERT_TRUE(engine.PublishModel(model, 1).ok());

  Request request;
  request.user_id = 42;
  request.new_checkin = 10;
  ASSERT_TRUE(engine.Recommend(request).status.ok());
  request.new_checkin = 20;
  ASSERT_TRUE(engine.Recommend(request).status.ok());

  const size_t owner = static_cast<size_t>(engine.ShardFor(42));
  for (size_t s = 0; s < engine.num_shards(); ++s) {
    EXPECT_EQ(engine.shard(s).sessions().size(), s == owner ? 1u : 0u)
        << "shard " << s;
  }
}

TEST(ShardedEngineTest, ShardedAnswersMatchSingleEngine) {
  const sgns::SgnsModel model = MakeModel(5);
  ShardedServingEngine sharded(SmallShardedConfig(4));
  ASSERT_TRUE(sharded.PublishModel(model, 1).ok());
  ServingConfig single_config = SmallShardedConfig().shard;
  ServingEngine single(single_config);
  ASSERT_TRUE(single.PublishModel(model, 1).ok());

  // Stateless (explicit-history) requests must be shard-invariant.
  for (int64_t user = 0; user < 32; ++user) {
    Request request;
    request.user_id = user;
    request.history = {static_cast<int32_t>(user % 50),
                       static_cast<int32_t>((user * 7) % 50)};
    request.k = 5;
    const Response a = sharded.Recommend(request);
    const Response b = single.Recommend(request);
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    ASSERT_EQ(a.topk.size(), b.topk.size());
    for (size_t i = 0; i < a.topk.size(); ++i) {
      EXPECT_EQ(a.topk[i].location, b.topk[i].location);
      EXPECT_EQ(a.topk[i].score, b.topk[i].score);
    }
  }
}

TEST(ShardedEngineTest, AggregateMetricsSumsShards) {
  const sgns::SgnsModel model = MakeModel(3);
  ShardedServingEngine engine(SmallShardedConfig(4));
  ASSERT_TRUE(engine.PublishModel(model, 1).ok());

  const int64_t num_users = 64;
  for (int64_t user = 0; user < num_users; ++user) {
    Request request;
    request.user_id = user;
    request.new_checkin = static_cast<int32_t>(user % 50);
    ASSERT_TRUE(engine.Recommend(request).status.ok());
  }
  // One NOT_FOUND (session read for a user who never checked in).
  Request miss;
  miss.user_id = 9999;
  miss.new_checkin = -1;
  EXPECT_EQ(engine.Recommend(miss).status.code(), StatusCode::kNotFound);

  Metrics total;
  engine.AggregateMetrics(total);
  EXPECT_EQ(total.requests_ok.load(), static_cast<uint64_t>(num_users));
  EXPECT_EQ(total.requests_f32.load(), static_cast<uint64_t>(num_users));
  EXPECT_EQ(total.requests_not_found.load(), 1u);
  EXPECT_EQ(total.latency.count(), static_cast<uint64_t>(num_users) + 1);
  // One publish per shard.
  EXPECT_EQ(total.model_swaps.load(), engine.num_shards());
  // The aggregated swap stamp is the freshest shard's, so the age is real.
  const int64_t now = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now().time_since_epoch())
                          .count();
  const double age = total.SwapAgeSeconds(now);
  EXPECT_GE(age, 0.0);
  EXPECT_LT(age, 60.0);
}

TEST(ShardedEngineTest, SwapAgeIsMinusOneBeforeAnyPublish) {
  ShardedServingEngine engine(SmallShardedConfig(2));
  Metrics total;
  engine.AggregateMetrics(total);
  EXPECT_EQ(total.SwapAgeSeconds(123456789), -1.0);
}

TEST(ShardedEngineTest, AsyncSubmissionRoutesLikeSync) {
  const sgns::SgnsModel model = MakeModel(3);
  ShardedServingEngine engine(SmallShardedConfig(4));
  ASSERT_TRUE(engine.PublishModel(model, 1).ok());

  std::vector<Request> requests(16);
  for (size_t user = 0; user < requests.size(); ++user) {
    requests[user].user_id = static_cast<int64_t>(user);
    requests[user].new_checkin = static_cast<int32_t>(user % 50);
  }
  for (auto& f : engine.SubmitAsyncBatch(std::move(requests))) {
    EXPECT_TRUE(f.get().status.ok());
  }
  Metrics total;
  engine.AggregateMetrics(total);
  EXPECT_EQ(total.requests_ok.load(), 16u);
  // Each check-in landed in a session on its user's shard, as Recommend's
  // would.
  size_t sessions = 0;
  for (size_t s = 0; s < engine.num_shards(); ++s) {
    sessions += engine.shard(s).sessions().size();
  }
  EXPECT_EQ(sessions, 16u);
  for (int64_t user = 0; user < 16; ++user) {
    const size_t owner = static_cast<size_t>(engine.ShardFor(user));
    EXPECT_TRUE(engine.shard(owner).sessions().Get(user).has_value())
        << "user " << user;
  }
}

TEST(ShardedEngineTest, BatchSubmissionScattersAcrossShardsInOrder) {
  const sgns::SgnsModel model = MakeModel(7);
  ShardedServingEngine engine(SmallShardedConfig(4));
  ASSERT_TRUE(engine.PublishModel(model, 1).ok());

  // Users chosen to span all shards; distinct k per request proves the
  // per-shard futures scatter back into submission order.
  std::vector<Request> requests(32);
  std::set<int32_t> shards_hit;
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].user_id = static_cast<int64_t>(i * 13);
    requests[i].new_checkin = static_cast<int32_t>(i % 50);
    requests[i].k = static_cast<int32_t>(1 + i % 10);
    shards_hit.insert(engine.ShardFor(requests[i].user_id));
  }
  ASSERT_GT(shards_hit.size(), 1u);  // the batch genuinely fans out

  auto futures = engine.SubmitAsyncBatch(std::move(requests));
  ASSERT_EQ(futures.size(), 32u);
  for (size_t i = 0; i < futures.size(); ++i) {
    const Response response = futures[i].get();
    ASSERT_TRUE(response.status.ok()) << response.status.message();
    EXPECT_EQ(response.topk.size(), 1 + i % 10);
  }
  Metrics total;
  engine.AggregateMetrics(total);
  EXPECT_EQ(total.requests_ok.load(), 32u);
}

TEST(ShardedEngineTest, BatchSubmissionOnOneShard) {
  const sgns::SgnsModel model = MakeModel(9);
  ShardedServingEngine engine(SmallShardedConfig(1));
  ASSERT_TRUE(engine.PublishModel(model, 1).ok());
  std::vector<Request> requests(8);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].user_id = static_cast<int64_t>(i);
    requests[i].new_checkin = static_cast<int32_t>(i);
  }
  auto futures = engine.SubmitAsyncBatch(std::move(requests));
  ASSERT_EQ(futures.size(), 8u);
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
}

// The rollout scenario the serving tier exists for: a fleet hot-swaps
// between float32, fp16, and int8 snapshots while 8 reader threads hammer
// it. Must be TSan-clean; every response must come from a coherent
// snapshot (a version the publisher actually published).
TEST(ShardedEngineTest, CrossFormatHotSwapUnderConcurrentReaders) {
  const sgns::SgnsModel model = MakeModel(7, /*locations=*/80, /*dim=*/12);
  ShardedServingEngine engine(SmallShardedConfig(2));
  ASSERT_TRUE(engine.PublishModel(model, 1).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served{0};
  std::vector<std::thread> readers;
  readers.reserve(8);
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&engine, &stop, &served, t] {
      int64_t user = 1000 * (t + 1);
      while (!stop.load(std::memory_order_acquire)) {
        Request request;
        request.user_id = user++;
        request.history = {static_cast<int32_t>(user % 80),
                           static_cast<int32_t>((user * 3) % 80)};
        request.k = 5;
        const Response response = engine.Recommend(request);
        ASSERT_TRUE(response.status.ok()) << response.status.message();
        ASSERT_EQ(response.topk.size(), 5u);
        ASSERT_GE(response.model_version, 1u);
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Publisher: cycle f32 → fp16 → int8 snapshots of the same model.
  const SnapshotFormat cycle[] = {SnapshotFormat::kFloat16,
                                  SnapshotFormat::kInt8,
                                  SnapshotFormat::kFloat32};
  for (uint64_t swap = 0; swap < 30; ++swap) {
    SnapshotOptions options;
    options.format = cycle[swap % 3];
    auto snapshot = ModelSnapshot::FromModel(model, swap + 2, options);
    ASSERT_TRUE(snapshot.ok());
    ASSERT_TRUE(engine.PublishSnapshot(std::move(snapshot).value()).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_GT(served.load(), 0u);
  Metrics total;
  engine.AggregateMetrics(total);
  EXPECT_EQ(total.requests_ok.load(), served.load());
  // All three format counters saw traffic, and they partition requests_ok.
  EXPECT_EQ(total.requests_f32.load() + total.requests_fp16.load() +
                total.requests_int8.load(),
            total.requests_ok.load());
  EXPECT_GT(total.requests_fp16.load() + total.requests_int8.load(), 0u);
}

// A corrupt artifact arrives while readers are hammering the fleet: the
// publish must be rejected as a Status (no abort), no shard may swap, no
// reader may ever observe anything but a published version, and the next
// good publish must land normally.
TEST(ShardedEngineTest, CorruptPublishUnderReadersLeavesFleetUntouched) {
  const sgns::SgnsModel model_a = MakeModel(51);
  const sgns::SgnsModel model_b = MakeModel(52);
  ShardedServingEngine engine(SmallShardedConfig(4));
  ASSERT_TRUE(engine.PublishModel(model_a, 1).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad_responses{0};
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&engine, &stop, &bad_responses, t] {
      int64_t user = t * 1000;
      while (!stop.load(std::memory_order_relaxed)) {
        Request request;
        request.user_id = user++;
        request.history = {1, 2, 3};
        request.k = 3;
        const Response response = engine.Recommend(request);
        const bool version_ok =
            response.model_version == 1 || response.model_version == 2;
        if (!response.status.ok() || !version_ok) {
          bad_responses.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // The corrupt publish: the integrity gate fails, the call reports it,
  // and every shard keeps serving version 1.
  FaultInjection::Arm("snapshot.verify", FaultMode::kFail);
  const Status rejected = engine.PublishModel(model_b, 99);
  FaultInjection::Disarm();
  ASSERT_FALSE(rejected.ok());
  for (size_t s = 0; s < engine.num_shards(); ++s) {
    EXPECT_EQ(engine.shard(s).registry().generation(), 1u);
    ASSERT_NE(engine.shard(s).registry().Current(), nullptr);
    EXPECT_EQ(engine.shard(s).registry().Current()->version(), 1u);
  }

  // Recovery: the next good snapshot lands on every shard.
  ASSERT_TRUE(engine.PublishModel(model_b, 2).ok());
  stop.store(true);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(bad_responses.load(), 0u);
  for (size_t s = 0; s < engine.num_shards(); ++s) {
    EXPECT_EQ(engine.shard(s).registry().generation(), 2u);
    EXPECT_EQ(engine.shard(s).registry().Current()->version(), 2u);
  }
}

TEST(ShardedEngineTest, PublishSnapshotRejectsNull) {
  ShardedServingEngine engine(SmallShardedConfig(2));
  EXPECT_EQ(engine.PublishSnapshot(nullptr).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace plp::serve
