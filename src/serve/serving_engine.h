#ifndef PLP_SERVE_SERVING_ENGINE_H_
#define PLP_SERVE_SERVING_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "serve/metrics.h"
#include "serve/model_registry.h"
#include "serve/model_snapshot.h"
#include "serve/session_store.h"

namespace plp::serve {

/// One next-location request. The common wire shape is `(user_id,
/// new_checkin)` — the engine appends the check-in to the user's session
/// and scores the stored history. Stateless callers may instead pass an
/// explicit `history` (which bypasses the session store entirely).
struct Request {
  int64_t user_id = 0;
  int32_t new_checkin = -1;       ///< < 0: don't append, read the session
  std::vector<int32_t> history;   ///< non-empty: overrides the session
  int32_t k = 10;                 ///< how many locations to return
  std::vector<int32_t> exclude;   ///< ids never recommended (current POI…)
  /// Deadline budget from arrival; 0 disables deadline handling. Requests
  /// still queued when the budget lapses are failed without scoring, so an
  /// overloaded engine sheds load instead of serving stale answers.
  int64_t timeout_micros = 0;
  /// When the request entered the system. Default (epoch) means "stamp on
  /// submission"; tests pin it to exercise the deadline path.
  std::chrono::steady_clock::time_point arrival{};
};

/// The engine's answer. `status` is per-request: bad ids or an unknown
/// session fail that request only, never the process.
struct Response {
  Status status;
  std::vector<ScoredLocation> topk;  ///< best first; empty on error
  uint64_t model_version = 0;        ///< snapshot that scored the request
  int64_t latency_micros = 0;        ///< submission → completion
};

struct ServingConfig {
  int32_t num_threads = 4;      ///< worker pool size (min 1)
  /// Async admission bound: SubmitAsyncBatch sheds (ResourceExhausted,
  /// counted as requests_overloaded) once this many submissions are in
  /// flight instead of queueing without limit. 0 disables shedding.
  /// Synchronous Recommend applies caller backpressure by blocking, so it
  /// is never shed.
  int32_t max_queue = 1024;
  SessionStore::Options sessions;
  /// How PublishModel/PublishFile build snapshots (format, IVF index).
  /// Defaults are the exact float32 scan — the reference configuration.
  SnapshotOptions snapshot;
  /// IVF probe width when the published snapshot carries an index:
  /// 0 uses IvfIndex::default_nprobe() (the recall-gated default); any
  /// positive value overrides it (larger = more recall, more scan).
  /// Ignored on snapshots without an index.
  int32_t nprobe = 0;
};

/// Thread-pool-backed request execution over the registry's live snapshot.
///
/// Concurrency model: every request pins the current snapshot for exactly
/// the duration of its scoring, so `registry().Publish` hot-swaps take
/// effect at request granularity. Requests enter one of two ways, with one
/// body: `Recommend` runs a request on the caller's thread, and
/// `SubmitAsyncBatch` admits requests against `max_queue` and runs each
/// admitted one on the pool through `Recommend`.
class ServingEngine {
 public:
  explicit ServingEngine(const ServingConfig& config);

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Builds a snapshot from `model` and publishes it. `version` tags the
  /// snapshot in responses/metrics.
  Status PublishModel(const sgns::SgnsModel& model, uint64_t version);

  /// Loads a model file of either format (full or embeddings-only) and
  /// publishes it.
  Status PublishFile(const std::string& path, uint64_t version);

  /// Publishes an already-built snapshot (the sharded engine builds one
  /// and hands each shard its own replica).
  Status PublishSnapshot(std::shared_ptr<const ModelSnapshot> snapshot);

  /// Synchronous execution of one request on the caller's thread; never shed.
  Response Recommend(const Request& request);

  /// Enqueues every request in one pool push: one lock acquisition and one
  /// condvar wakeup for the whole batch instead of one signal per request
  /// (the open-loop bench submits arrivals that fell due together this
  /// way). Admission control is per request — response i answers request
  /// i, and any shed request resolves immediately with RESOURCE_EXHAUSTED
  /// without entering the pool. An admitted request runs `Recommend`.
  std::vector<std::future<Response>> SubmitAsyncBatch(
      std::vector<Request> requests);

  const ServingConfig& config() const { return config_; }
  ModelRegistry& registry() { return registry_; }
  SessionStore& sessions() { return sessions_; }
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }

 private:
  /// Scores one request against the snapshot it pinned.
  Response Execute(const Request& request,
                   const std::shared_ptr<const ModelSnapshot>& snapshot,
                   std::chrono::steady_clock::time_point now);
  /// Stamps latency and rolls the outcome into the metrics counters.
  Response Finish(Response response,
                  std::chrono::steady_clock::time_point start);

  ServingConfig config_;
  ModelRegistry registry_;
  SessionStore sessions_;
  Metrics metrics_;
  /// SubmitAsyncBatch requests admitted but not yet finished. Declared
  /// before pool_: the pool's destructor drains queued tasks, and each
  /// one still releases its slot here.
  std::atomic<int64_t> async_in_flight_{0};
  ThreadPool pool_;
};

}  // namespace plp::serve

#endif  // PLP_SERVE_SERVING_ENGINE_H_
