#include "serve/sharded_engine.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"

namespace plp::serve {

ShardedServingEngine::ShardedServingEngine(const ShardedConfig& config) {
  const int32_t n = std::max(config.num_shards, 1);
  shards_.reserve(static_cast<size_t>(n));
  for (int32_t s = 0; s < n; ++s) {
    shards_.push_back(std::make_unique<ServingEngine>(config.shard));
  }
}

int32_t ShardedServingEngine::ShardFor(int64_t user_id) const {
  // Same bit mixing as SessionStore::ShardFor so sequential user ids
  // spread evenly; reduced modulo the shard count (which need not be a
  // power of two).
  const uint64_t h = std::hash<int64_t>{}(user_id) * 0x9e3779b97f4a7c15ULL;
  return static_cast<int32_t>((h >> 32) % shards_.size());
}

Status ShardedServingEngine::PublishModel(const sgns::SgnsModel& model,
                                          uint64_t version) {
  // Build once (the expensive part: normalization, quantization, IVF
  // clustering), then hand each shard its own deep copy.
  PLP_ASSIGN_OR_RETURN(
      auto snapshot,
      ModelSnapshot::FromModel(model, version,
                               shards_.front()->config().snapshot));
  return PublishSnapshot(std::move(snapshot));
}

Status ShardedServingEngine::PublishFile(const std::string& path,
                                         uint64_t version) {
  PLP_ASSIGN_OR_RETURN(
      auto snapshot,
      ModelSnapshot::FromFile(path, version,
                              shards_.front()->config().snapshot));
  return PublishSnapshot(std::move(snapshot));
}

Status ShardedServingEngine::PublishSnapshot(
    std::shared_ptr<const ModelSnapshot> snapshot) {
  if (snapshot == nullptr) {
    return InvalidArgumentError("cannot publish a null snapshot");
  }
  // Verify the master copy and replicate for every shard BEFORE any shard
  // swaps, so a rejected artifact (or an injected fault) leaves the whole
  // fleet on the version it was already serving. A failure between the
  // per-shard swaps below can still leave shards briefly mixed across the
  // OLD and NEW versions — both validated, both published — which is the
  // documented consistency of a replicated fleet; an unvalidated snapshot
  // can never be one of them.
  PLP_RETURN_IF_ERROR(snapshot->Verify());
  std::vector<std::shared_ptr<const ModelSnapshot>> replicas;
  replicas.reserve(shards_.size());
  for (size_t s = 0; s + 1 < shards_.size(); ++s) {
    replicas.push_back(snapshot->Replicate());
  }
  replicas.push_back(std::move(snapshot));
  PLP_FAULT_POINT("publish.serve_swap");
  for (size_t s = 0; s < shards_.size(); ++s) {
    PLP_RETURN_IF_ERROR(shards_[s]->PublishSnapshot(std::move(replicas[s])));
  }
  return Status::Ok();
}

Response ShardedServingEngine::Recommend(const Request& request) {
  return shards_[static_cast<size_t>(ShardFor(request.user_id))]->Recommend(
      request);
}

std::vector<std::future<Response>> ShardedServingEngine::SubmitAsyncBatch(
    std::vector<Request> requests) {
  // Partition by owning shard, remembering where each request came from so
  // the per-shard futures can be scattered back into submission order.
  std::vector<std::vector<Request>> per_shard(shards_.size());
  std::vector<std::vector<size_t>> origin(shards_.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const auto s = static_cast<size_t>(ShardFor(requests[i].user_id));
    per_shard[s].push_back(std::move(requests[i]));
    origin[s].push_back(i);
  }
  std::vector<std::future<Response>> futures(requests.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (per_shard[s].empty()) continue;
    auto shard_futures = shards_[s]->SubmitAsyncBatch(std::move(per_shard[s]));
    for (size_t j = 0; j < shard_futures.size(); ++j) {
      futures[origin[s][j]] = std::move(shard_futures[j]);
    }
  }
  return futures;
}

void ShardedServingEngine::AggregateMetrics(Metrics& into) const {
  for (const auto& shard : shards_) {
    into.MergeFrom(shard->metrics());
  }
}

void ShardedServingEngine::PrintStats(std::ostream& os) const {
  Metrics total;
  AggregateMetrics(total);
  total.PrintTable(os);
}

}  // namespace plp::serve
