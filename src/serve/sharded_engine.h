#ifndef PLP_SERVE_SHARDED_ENGINE_H_
#define PLP_SERVE_SHARDED_ENGINE_H_

#include <cstdint>
#include <future>
#include <memory>
#include <ostream>
#include <vector>

#include "serve/serving_engine.h"

namespace plp::serve {

struct ShardedConfig {
  /// Engine shards (min 1). One per core is the intended deployment: each
  /// shard is a self-contained ServingEngine whose readers never touch
  /// another shard's registry, sessions, or metrics.
  int32_t num_shards = 4;
  /// Per-shard configuration. `num_threads` is the pool size *per shard*,
  /// so a typical sharded deployment uses num_threads = 1.
  ServingConfig shard;
};

/// Shared-nothing scale-out of ServingEngine across cores.
///
/// Every shard owns a full engine: its own ModelRegistry holding its own
/// immutable snapshot *replica* (deep copy — no shared refcount control
/// block, no shared cache lines between shards), its own SessionStore and
/// Metrics. Requests route by user id (the same multiplicative hash the
/// session store uses internally), so a user's session always lives on
/// exactly one shard and the per-shard LRU bound still holds.
///
/// Publishing builds the snapshot once, then replicates and swaps it into
/// each shard in turn. Each shard's swap is the same atomic
/// load-new/swap/drain-old it always was; during a publish, different
/// shards may briefly serve different versions — exactly the consistency
/// a replicated fleet of independent servers would give, made explicit.
class ShardedServingEngine {
 public:
  explicit ShardedServingEngine(const ShardedConfig& config);

  ShardedServingEngine(const ShardedServingEngine&) = delete;
  ShardedServingEngine& operator=(const ShardedServingEngine&) = delete;

  /// Builds one snapshot from `model` (per the shard config's
  /// SnapshotOptions) and publishes a replica to every shard.
  Status PublishModel(const sgns::SgnsModel& model, uint64_t version);

  /// Loads a model file of either format and publishes replicas.
  Status PublishFile(const std::string& path, uint64_t version);

  /// Publishes replicas of an already-built snapshot (any format — this
  /// is how a rollout moves a live fleet between quantization formats
  /// without reconstructing engines).
  Status PublishSnapshot(std::shared_ptr<const ModelSnapshot> snapshot);

  /// Synchronous execution on the owning shard (caller's thread); never shed.
  Response Recommend(const Request& request);

  /// Routes each request to its owning shard, then submits every shard's
  /// share as ONE batched pool push (one condvar wakeup per shard touched
  /// instead of one per request). Future i answers request i.
  std::vector<std::future<Response>> SubmitAsyncBatch(
      std::vector<Request> requests);

  size_t num_shards() const { return shards_.size(); }
  int32_t ShardFor(int64_t user_id) const;
  ServingEngine& shard(size_t i) { return *shards_[i]; }
  const ServingEngine& shard(size_t i) const { return *shards_[i]; }

  /// Sums every shard's counters and latency histogram into `into`
  /// (relaxed reads; a monitoring view, not a linearizable snapshot).
  void AggregateMetrics(Metrics& into) const;

  /// Aggregated STATS table across all shards.
  void PrintStats(std::ostream& os) const;

 private:
  std::vector<std::unique_ptr<ServingEngine>> shards_;
};

}  // namespace plp::serve

#endif  // PLP_SERVE_SHARDED_ENGINE_H_
