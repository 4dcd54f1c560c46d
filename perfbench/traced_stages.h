#ifndef PLP_PERFBENCH_TRACED_STAGES_H_
#define PLP_PERFBENCH_TRACED_STAGES_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "pipeline/stages.h"
#include "trace.h"

namespace plp::perfbench {

/// What the traced stages share: the tracer, the span the run nests under,
/// the currently open step span, and the counts and ε values observed at
/// the stage boundaries.
///
/// A step span opens when the engine asks the accountant about the round
/// (the first call of every step) and closes when the next round is asked
/// about, or when the caller ends the run with CloseStep. So a step span
/// covers accounting, sampling, grouping, the bucket fan-out, reduction,
/// noise, server apply, the step callback and the checkpoint save.
struct StageTrace {
  Tracer* tracer = nullptr;
  int64_t parent = -1;  ///< span of the surrounding train call

  std::atomic<int64_t> step_span{-1};
  std::atomic<int64_t> step{0};

  std::atomic<int64_t> sampled_users{0};
  std::atomic<int64_t> buckets{0};
  std::atomic<int64_t> clipped{0};

  /// ε after each round the accountant allowed, in round order.
  std::vector<double> epsilons;

  /// Closes the open step span at `end_ns` (end of the run).
  void CloseStep(int64_t end_ns);
};

/// Wraps each of the seven stages of `inner` in a forwarding decorator that
/// records one span per call ("privacy.track_round", "pipeline.sample",
/// "pipeline.group", "pipeline.compute_delta", "pipeline.clip",
/// "pipeline.reduce", "pipeline.noise", "pipeline.server_apply") under the
/// current step span. Every call, argument and return value passes through
/// unchanged and no decorator touches an Rng, so the traced run trains the
/// same model bits and ε trajectory as the undecorated stages.
pipeline::StageSet TraceStages(pipeline::StageSet inner, StageTrace* trace);

}  // namespace plp::perfbench

#endif  // PLP_PERFBENCH_TRACED_STAGES_H_
