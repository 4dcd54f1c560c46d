// serving_throughput — load generator for the plp::serve tier.
//
//   serving_throughput [--locations=20000] [--dim=64] [--groups=50]
//                      [--spread=0.08] [--users=5000]
//                      [--k=10] [--shards=4] [--format=int8] [--ivf=true]
//                      [--nprobe=0] [--capacity_requests=30000]
//                      [--duration_s=4] [--overload_s=1.5]
//                      [--rate=0] [--overload_factor=3]
//                      [--swap_interval_ms=750] [--timeout_ms=50]
//                      [--seed=42] [--json=BENCH_serving.json]
//                      [--min_qps=0] [--min_speedup=0]
//
// Two measurements over a synthetic fixture vocabulary:
//
//   1. capacity — closed-loop saturation (one caller thread per shard,
//      synchronous Recommend in a tight loop) of (a) the BASELINE tier:
//      one shard, exact float32 scan — the reference configuration every
//      other number is judged against; and (b) the OPTIMIZED tier:
//      --shards shards serving --format snapshots through the IVF-pruned
//      scan. `speedup` is (b)/(a) on the same host.
//
//   2. open loop — the honest load measurement. A generator thread fires
//      requests at a FIXED arrival rate (auto: --steady_frac of measured
//      optimized capacity) regardless of how fast the tier drains them,
//      stamping
//      each request with its *scheduled* arrival time, so reported
//      latency includes every microsecond a request waited because the
//      system was behind (no coordinated omission). Traffic is mixed:
//      session queries, periodic cross-shard hot swaps of prebuilt
//      snapshots, and a closing overload segment at overload_factor× the
//      steady rate to exercise admission control. Reports achieved
//      throughput, p50/p99/p999, and shed rate per segment.
//
// Results print as a table and are written as JSON (--json) so CI can
// archive BENCH_serving.json and trend the numbers across commits. A
// positive --min_qps (optimized capacity floor) or --min_speedup turns
// the run into a CI gate.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "serve/sharded_engine.h"
#include "sgns/model_io.h"

namespace {

using plp::serve::Request;
using plp::serve::Response;
using Clock = std::chrono::steady_clock;

struct Traffic {
  int64_t users = 0;
  int32_t locations = 0;
  int32_t k = 10;
};

struct OpenLoopResult {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;  ///< OK responses per wall second
  uint64_t submitted = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;      ///< overloaded + deadline-expired
  uint64_t errors = 0;    ///< anything else non-OK
  double shed_rate = 0.0;
  int64_t p50_us = 0;
  int64_t p99_us = 0;
  int64_t p999_us = 0;
};

/// Clustered unit-norm vocabulary: rows scatter (per-dim noise `spread`)
/// around `groups` unit directions — the neighborhood structure trained
/// embeddings actually have, and the regime the IVF-pruned scan is
/// specified for. An isotropic fixture would make approximate top-k look
/// either uselessly easy (any candidate is as good as another) or
/// impossibly hard (recall has no structure to exploit); neither is the
/// production workload.
plp::sgns::DeployedEmbeddings MakeFixture(int32_t locations, int32_t dim,
                                          int32_t groups, double spread,
                                          uint64_t seed) {
  plp::Rng rng(seed);
  std::vector<std::vector<double>> centers(
      static_cast<size_t>(groups), std::vector<double>(dim));
  for (auto& c : centers) {
    double sq = 0.0;
    for (double& v : c) {
      v = rng.Gaussian();
      sq += v * v;
    }
    const double inv = 1.0 / std::sqrt(sq);
    for (double& v : c) v *= inv;
  }
  plp::sgns::DeployedEmbeddings deployed;
  deployed.num_locations = locations;
  deployed.dim = dim;
  deployed.embeddings.resize(static_cast<size_t>(locations) * dim);
  for (int32_t r = 0; r < locations; ++r) {
    const auto& c = centers[static_cast<size_t>(r % groups)];
    double* row = deployed.embeddings.data() + static_cast<size_t>(r) * dim;
    double sq = 0.0;
    for (int32_t d = 0; d < dim; ++d) {
      row[d] = c[static_cast<size_t>(d)] + spread * rng.Gaussian();
      sq += row[d] * row[d];
    }
    const double inv = 1.0 / std::sqrt(sq);
    for (int32_t d = 0; d < dim; ++d) row[d] *= inv;
  }
  return deployed;
}

Request RandomRequest(plp::Rng& rng, const Traffic& traffic) {
  Request request;
  request.user_id = static_cast<int64_t>(
      rng.UniformInt(static_cast<uint64_t>(traffic.users)));
  request.new_checkin = static_cast<int32_t>(
      rng.UniformInt(static_cast<uint64_t>(traffic.locations)));
  request.k = traffic.k;
  return request;
}

void WarmSessions(plp::serve::ShardedServingEngine& engine, plp::Rng& rng,
                  const Traffic& traffic) {
  for (int64_t u = 0; u < traffic.users; ++u) {
    PLP_CHECK(engine.Recommend(RandomRequest(rng, traffic)).status.ok());
  }
}

/// Closed-loop saturation: one synchronous caller thread per shard, each
/// hammering its own user population. The aggregate rate is the tier's
/// capacity — the ceiling the open-loop phase then offers a fraction of.
double MeasureCapacity(plp::serve::ShardedServingEngine& engine,
                       const Traffic& traffic, int64_t requests,
                       uint64_t seed) {
  const size_t callers = engine.num_shards();
  const int64_t per_caller =
      std::max<int64_t>(requests / static_cast<int64_t>(callers), 1);
  std::vector<std::thread> threads;
  threads.reserve(callers);
  plp::Stopwatch watch;
  for (size_t c = 0; c < callers; ++c) {
    threads.emplace_back([&engine, &traffic, per_caller, seed, c] {
      plp::Rng rng(seed + 1000 * c);
      for (int64_t i = 0; i < per_caller; ++i) {
        PLP_CHECK(engine.Recommend(RandomRequest(rng, traffic)).status.ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed = watch.ElapsedSeconds();
  return static_cast<double>(per_caller * static_cast<int64_t>(callers)) /
         elapsed;
}

/// Open-loop segment: fixed-rate arrivals via SubmitAsyncBatch. Latency is
/// measured from each request's *scheduled* arrival (stamped into
/// Request::arrival, which Finish uses as the latency start), so a tier
/// that falls behind pays the queueing delay in its quantiles instead of
/// silently slowing the generator down.
OpenLoopResult RunOpenLoop(plp::serve::ShardedServingEngine& engine,
                           const Traffic& traffic, double rate_qps,
                           double seconds, int64_t timeout_micros,
                           uint64_t seed) {
  OpenLoopResult result;
  result.offered_qps = rate_qps;
  const auto total =
      static_cast<uint64_t>(std::llround(rate_qps * seconds));
  const auto period = std::chrono::nanoseconds(
      static_cast<int64_t>(1e9 / rate_qps));

  plp::Rng rng(seed);
  std::vector<int64_t> latencies;
  latencies.reserve(total);
  std::deque<std::future<Response>> pending;

  auto harvest = [&](bool block) {
    while (!pending.empty() &&
           (block || pending.front().wait_for(std::chrono::seconds(0)) ==
                         std::future_status::ready)) {
      const Response r = pending.front().get();
      pending.pop_front();
      if (r.status.ok()) {
        ++result.ok;
        latencies.push_back(r.latency_micros);
      } else if (r.status.code() ==
                     plp::StatusCode::kResourceExhausted ||
                 r.status.code() ==
                     plp::StatusCode::kDeadlineExceeded) {
        ++result.shed;
      } else {
        ++result.errors;
      }
    }
  };

  const Clock::time_point start = Clock::now();
  plp::Stopwatch watch;
  // Arrivals that have already fallen due are submitted together through
  // SubmitAsyncBatch — one pool lock and one condvar wakeup per batch
  // instead of one signal per request. In steady state (generator keeping
  // up) batches are size 1 and behavior is unchanged; under saturation —
  // exactly where per-request wakeups cost the most — the generator runs
  // behind schedule and the due backlog coalesces naturally. Capped so a
  // deeply backlogged generator still interleaves submission and harvest.
  constexpr size_t kMaxSubmitBatch = 64;
  std::vector<Request> batch;
  for (uint64_t i = 0; i < total;) {
    // Open loop: wait until the scheduled instant, but never skip an
    // arrival — if the host is behind, the request fires late with its
    // scheduled stamp and the lag shows up as latency. Sleeping (not
    // spinning) matters on small hosts: the generator shares cores with
    // the shard workers, and a spin-wait would starve them. Scheduler
    // wake-up jitter is fine — latency is measured from the scheduled
    // stamp, so late dispatch is *counted*, not hidden.
    std::this_thread::sleep_until(start + period * i);
    const Clock::time_point now = Clock::now();
    batch.clear();
    do {
      Request request = RandomRequest(rng, traffic);
      request.arrival = start + period * i;
      request.timeout_micros = timeout_micros;
      batch.push_back(std::move(request));
      ++i;
    } while (i < total && batch.size() < kMaxSubmitBatch &&
             start + period * i <= now);
    result.submitted += batch.size();
    for (auto& future : engine.SubmitAsyncBatch(std::move(batch))) {
      pending.push_back(std::move(future));
    }
    batch = {};
    harvest(/*block=*/false);
  }
  harvest(/*block=*/true);
  const double elapsed = watch.ElapsedSeconds();

  result.achieved_qps = static_cast<double>(result.ok) / elapsed;
  result.shed_rate =
      result.submitted == 0
          ? 0.0
          : static_cast<double>(result.shed) /
                static_cast<double>(result.submitted);
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    auto at = [&latencies](double q) {
      const size_t idx = std::min(
          latencies.size() - 1,
          static_cast<size_t>(q * static_cast<double>(latencies.size())));
      return latencies[idx];
    };
    result.p50_us = at(0.50);
    result.p99_us = at(0.99);
    result.p999_us = at(0.999);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags_or = plp::FlagParser::Parse(argc, argv);
  PLP_CHECK_OK(flags_or.status());
  const plp::FlagParser& flags = flags_or.value();

  Traffic traffic;
  traffic.locations = static_cast<int32_t>(flags.GetInt("locations", 20000));
  traffic.users = flags.GetInt("users", 5000);
  traffic.k = static_cast<int32_t>(flags.GetInt("k", 10));
  const int32_t dim = static_cast<int32_t>(flags.GetInt("dim", 64));
  const int32_t groups = static_cast<int32_t>(flags.GetInt("groups", 50));
  const double spread = flags.GetDouble("spread", 0.08);
  // --shards=0 (the default) sizes to the host: one shard per core, up
  // to 4. Sharding exists to scale across cores — each shard carries its
  // own snapshot replica, so more shards than cores just multiplies the
  // cache footprint and *loses* throughput on small hosts.
  int32_t shards = static_cast<int32_t>(flags.GetInt("shards", 0));
  if (shards <= 0) {
    const unsigned cores = std::thread::hardware_concurrency();
    shards = static_cast<int32_t>(
        std::clamp<unsigned>(cores == 0 ? 1 : cores, 1, 4));
  }
  const std::string format_name = flags.GetString("format", "int8");
  const bool build_ivf = flags.GetBool("ivf", true);
  const int32_t nprobe = static_cast<int32_t>(flags.GetInt("nprobe", 0));
  const int64_t capacity_requests = flags.GetInt("capacity_requests", 30000);
  const double duration_s = flags.GetDouble("duration_s", 4.0);
  const double overload_s = flags.GetDouble("overload_s", 1.5);
  const double rate_flag = flags.GetDouble("rate", 0.0);
  // Steady-rate auto-sizing: the capacity phase is closed-loop (the
  // submitter blocks, costing the workers nothing), but in the open loop
  // the generator and publisher threads bill against the same cores as
  // the shard workers. When there is no spare core for the generator,
  // 60% of closed-loop capacity sits on the saturation cliff and the
  // segment measures queueing collapse instead of steady-state latency —
  // back off to 50% there. --steady_frac overrides.
  const unsigned hw_cores = std::thread::hardware_concurrency();
  const double steady_frac_default =
      hw_cores > static_cast<unsigned>(shards) ? 0.6 : 0.5;
  const double steady_frac =
      flags.GetDouble("steady_frac", steady_frac_default);
  const double overload_factor = flags.GetDouble("overload_factor", 3.0);
  const int64_t swap_interval_ms = flags.GetInt("swap_interval_ms", 750);
  const int64_t timeout_ms = flags.GetInt("timeout_ms", 50);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const std::string json_path = flags.GetString("json", "BENCH_serving.json");
  const double min_qps = flags.GetDouble("min_qps", 0.0);
  const double min_speedup = flags.GetDouble("min_speedup", 0.0);

  auto format_or = plp::serve::ParseSnapshotFormat(format_name);
  PLP_CHECK_OK(format_or.status());

  std::printf(
      "serving_throughput: L=%d dim=%d users=%lld k=%d | optimized: "
      "shards=%d format=%s ivf=%d nprobe=%d\n",
      traffic.locations, dim, static_cast<long long>(traffic.users),
      traffic.k, shards, format_name.c_str(), build_ivf ? 1 : 0, nprobe);

  const plp::sgns::DeployedEmbeddings fixture_a =
      MakeFixture(traffic.locations, dim, groups, spread, seed);
  const plp::sgns::DeployedEmbeddings fixture_b =
      MakeFixture(traffic.locations, dim, groups, spread, seed + 1);

  // Baseline: one shard, exact float32 scan — the reference tier.
  double qps_baseline = 0.0;
  {
    plp::serve::ShardedConfig config;
    config.num_shards = 1;
    config.shard.num_threads = 1;
    config.shard.sessions.capacity = static_cast<size_t>(traffic.users) + 16;
    plp::serve::ShardedServingEngine engine(config);
    auto baseline_snapshot = plp::serve::ModelSnapshot::FromDeployed(
        fixture_a, 1, plp::serve::SnapshotOptions{});
    PLP_CHECK_OK(baseline_snapshot.status());
    PLP_CHECK_OK(engine.PublishSnapshot(std::move(baseline_snapshot).value()));
    plp::Rng rng(seed);
    WarmSessions(engine, rng, traffic);
    qps_baseline =
        MeasureCapacity(engine, traffic, capacity_requests, seed + 3);
    std::printf("capacity baseline (1 shard, f32 exact) : %.0f qps\n",
                qps_baseline);
  }

  // Optimized tier: sharded + quantized + IVF-pruned.
  plp::serve::ShardedConfig config;
  config.num_shards = shards;
  config.shard.num_threads = 1;  // one worker per shard
  config.shard.sessions.capacity = static_cast<size_t>(traffic.users) + 16;
  config.shard.snapshot.format = format_or.value();
  config.shard.snapshot.build_ivf = build_ivf;
  config.shard.nprobe = nprobe;
  plp::serve::ShardedServingEngine engine(config);
  auto optimized_snapshot = plp::serve::ModelSnapshot::FromDeployed(
      fixture_a, 1, config.shard.snapshot);
  PLP_CHECK_OK(optimized_snapshot.status());
  PLP_CHECK_OK(engine.PublishSnapshot(std::move(optimized_snapshot).value()));

  double qps_optimized = 0.0;
  {
    plp::Rng rng(seed);
    WarmSessions(engine, rng, traffic);
    qps_optimized =
        MeasureCapacity(engine, traffic, capacity_requests, seed + 5);
    std::printf("capacity optimized (%d shards, %s%s)   : %.0f qps\n",
                shards, format_name.c_str(), build_ivf ? "+ivf" : "",
                qps_optimized);
  }
  const double speedup =
      qps_baseline > 0.0 ? qps_optimized / qps_baseline : 0.0;
  std::printf("speedup over baseline: %.2fx\n", speedup);

  // Prebuild the swap target once — the publisher thread then measures
  // replicate+swap cost, not snapshot construction.
  auto snapshot_b_or = plp::serve::ModelSnapshot::FromDeployed(
      fixture_b, 2, config.shard.snapshot);
  PLP_CHECK_OK(snapshot_b_or.status());
  auto snapshot_a_or = plp::serve::ModelSnapshot::FromDeployed(
      fixture_a, 3, config.shard.snapshot);
  PLP_CHECK_OK(snapshot_a_or.status());

  // Open loop with mixed traffic: queries at a fixed rate + periodic hot
  // swaps, then an overload segment at overload_factor× the steady rate.
  const double steady_rate =
      rate_flag > 0.0 ? rate_flag : steady_frac * qps_optimized;
  std::atomic<bool> stop_swaps{false};
  double swap_stall_us_max = 0.0;
  uint64_t swaps_published = 0;
  std::thread publisher([&] {
    uint64_t version = 4;
    bool use_b = true;
    while (!stop_swaps.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(swap_interval_ms));
      if (stop_swaps.load(std::memory_order_acquire)) break;
      const auto& snapshot = use_b ? snapshot_b_or.value()
                                   : snapshot_a_or.value();
      use_b = !use_b;
      (void)version++;
      plp::Stopwatch swap_watch;
      PLP_CHECK_OK(engine.PublishSnapshot(snapshot));
      swap_stall_us_max =
          std::max(swap_stall_us_max, swap_watch.ElapsedMillis() * 1e3);
      ++swaps_published;
    }
  });

  const OpenLoopResult steady =
      RunOpenLoop(engine, traffic, steady_rate, duration_s,
                  timeout_ms * 1000, seed + 7);
  const OpenLoopResult overload =
      RunOpenLoop(engine, traffic, steady_rate * overload_factor,
                  overload_s, timeout_ms * 1000, seed + 11);
  stop_swaps.store(true, std::memory_order_release);
  publisher.join();

  auto print_segment = [](const char* name, const OpenLoopResult& r) {
    std::printf(
        "%s: offered %.0f qps, achieved %.0f qps, p50=%lld us, "
        "p99=%lld us, p999=%lld us, shed %.2f%%\n",
        name, r.offered_qps, r.achieved_qps,
        static_cast<long long>(r.p50_us), static_cast<long long>(r.p99_us),
        static_cast<long long>(r.p999_us), 100.0 * r.shed_rate);
  };
  print_segment("open-loop steady  ", steady);
  print_segment("open-loop overload", overload);
  std::printf("hot swaps during open loop: %llu (worst publish %.0f us)\n",
              static_cast<unsigned long long>(swaps_published),
              swap_stall_us_max);

  plp::TablePrinter table({"segment", "offered_qps", "achieved_qps",
                           "p50_us", "p99_us", "p999_us", "shed_pct"});
  auto add = [&table](const std::string& name, const OpenLoopResult& r) {
    table.NewRow();
    table.AddCell(name);
    table.AddCell(r.offered_qps, 0);
    table.AddCell(r.achieved_qps, 0);
    table.AddCell(r.p50_us);
    table.AddCell(r.p99_us);
    table.AddCell(r.p999_us);
    table.AddCell(100.0 * r.shed_rate, 2);
  };
  add("steady", steady);
  add("overload", overload);
  table.PrintAligned(std::cout);

  std::ofstream json(json_path);
  json << "{\n"
       << "  \"bench\": \"serving_throughput\",\n"
       << "  \"locations\": " << traffic.locations << ",\n"
       << "  \"dim\": " << dim << ",\n"
       << "  \"users\": " << traffic.users << ",\n"
       << "  \"k\": " << traffic.k << ",\n"
       << "  \"shards\": " << shards << ",\n"
       << "  \"format\": \"" << format_name << "\",\n"
       << "  \"ivf\": " << (build_ivf ? "true" : "false") << ",\n"
       << "  \"nprobe\": " << nprobe << ",\n"
       << "  \"qps_baseline_capacity\": " << qps_baseline << ",\n"
       << "  \"qps_optimized_capacity\": " << qps_optimized << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"open_loop_offered_qps\": " << steady.offered_qps << ",\n"
       << "  \"open_loop_achieved_qps\": " << steady.achieved_qps << ",\n"
       << "  \"open_loop_p50_us\": " << steady.p50_us << ",\n"
       << "  \"open_loop_p99_us\": " << steady.p99_us << ",\n"
       << "  \"open_loop_p999_us\": " << steady.p999_us << ",\n"
       << "  \"open_loop_shed_rate\": " << steady.shed_rate << ",\n"
       << "  \"overload_offered_qps\": " << overload.offered_qps << ",\n"
       << "  \"overload_achieved_qps\": " << overload.achieved_qps << ",\n"
       << "  \"overload_shed_rate\": " << overload.shed_rate << ",\n"
       << "  \"swaps_during_open_loop\": " << swaps_published << ",\n"
       << "  \"swap_stall_us_max\": " << swap_stall_us_max << "\n"
       << "}\n";
  if (!json) {
    std::cerr << "error: cannot write " << json_path << "\n";
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());

  if (min_qps > 0.0 && qps_optimized < min_qps) {
    std::cerr << "FAIL: optimized capacity " << qps_optimized
              << " qps below --min_qps=" << min_qps << "\n";
    return 1;
  }
  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::cerr << "FAIL: speedup " << speedup << "x below --min_speedup="
              << min_speedup << "\n";
    return 1;
  }
  return 0;
}
