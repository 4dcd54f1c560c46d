// plp_publish_chaos — randomized fault schedule for the continuous
// train→publish→serve loop.
//
// A fault-free reference run first executes N supervisor cycles against a
// deterministic trainer and captures the encoded ε ledger. The chaos run
// then repeats the same N cycles with a fail-mode fault armed at a random
// publish-path point each cycle (staging, validation gates, ledger
// append, promote, CURRENT swap, fleet swap, snapshot verify), under a
// randomized trigger (one-shot, every-nth, or per-hit probability).
// After every cycle the loop invariants are asserted:
//
//   1. the cycle still ends published, with CURRENT resolving to a
//      version that passes VerifyCurrent (never a torn or unvalidated
//      artifact);
//   2. every shard serves a snapshot whose version AND checksum match a
//      ledger record — shards never serve bytes that were not published;
//   3. at the end, the chaos ledger is bit-identical to the fault-free
//      reference ledger: no ε was lost, double-counted, or reordered by
//      any injected failure.
//
// Two forced-failure cycles close the run: a persistent validation-gate
// failure must degrade (shards keep serving the prior version, CURRENT
// unmoved, freshness SLO reported), and a persistent fleet-swap failure
// must roll back CURRENT and the fleet to the last good version. A final
// clean cycle proves the loop recovers.
//
//   plp_publish_chaos [--cycles=20] [--threads=2] [--seed=1]
//                     [--work_dir=publish-chaos-work] [--keep]
//
// Exits 0 iff every cycle and invariant passes.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>

#include "common/fault_injection.h"
#include "common/flags.h"
#include "common/rng.h"
#include "publish/supervisor.h"
#include "sgns/model.h"

namespace {

using plp::FaultInjection;
using plp::FaultMode;
using plp::FaultTrigger;

// Every fail-capable point on the publish path. (The atomic_file.* and
// ckpt.* kill points belong to plp_crashtest; this loop injects *errors*,
// the supervisor's retry/rollback machinery is what is under test.)
const char* const kFaultPoints[] = {
    "publish.stage",        "publish.validate",     "publish.ledger_append",
    "publish.promote",      "publish.current_swap", "publish.serve_swap",
    "snapshot.verify",
};

// Deterministic retrain stand-in: cycle c always yields the model seeded
// (seed, c) and a fixed per-round spend, so the reference and chaos runs
// produce byte-identical ledgers iff accounting survived the faults.
plp::publish::TrainFn MakeTrainer(uint64_t seed) {
  return [seed](uint64_t cycle) -> plp::Result<plp::publish::TrainedArtifact> {
    plp::Rng rng(seed * 1000003 + cycle);
    plp::sgns::SgnsConfig config;
    config.embedding_dim = 8;
    config.init_scale = 1.0;
    auto model = plp::sgns::SgnsModel::Create(48, config, rng);
    if (!model.ok()) return model.status();
    plp::publish::TrainedArtifact artifact;
    artifact.model = std::move(model).value();
    artifact.epsilon_spent = 0.125 * (1 + cycle % 3);
    artifact.steps = 10 + static_cast<int64_t>(cycle % 5);
    return artifact;
  };
}

plp::publish::SupervisorConfig MakeConfig(const std::string& dir) {
  plp::publish::SupervisorConfig config;
  config.publisher.publish_dir = dir;
  config.publisher.recall.num_queries = 32;
  // High attempt budget: every chaos cycle must eventually publish so the
  // ledger bit-compare stays meaningful; short backoff keeps it fast.
  config.max_attempts = 50;
  config.backoff_initial_millis = 1;
  config.backoff_max_millis = 8;
  return config;
}

plp::serve::ShardedConfig MakeShards(int shards) {
  plp::serve::ShardedConfig config;
  config.num_shards = static_cast<size_t>(shards);
  config.shard.num_threads = 1;
  return config;
}

// Invariant 2: every shard's installed snapshot must be one of the
// published versions, matched by version number AND checksum.
bool FleetServesPublishedBytes(plp::serve::ShardedServingEngine& engine,
                               const plp::publish::PublishLedger& ledger) {
  for (size_t s = 0; s < engine.num_shards(); ++s) {
    const auto snapshot = engine.shard(s).registry().Current();
    if (snapshot == nullptr) {
      std::fprintf(stderr, "FAIL: shard %zu serves nothing\n", s);
      return false;
    }
    bool matched = false;
    for (const auto& record : ledger.records()) {
      if (record.version == snapshot->version() &&
          record.snapshot_checksum == snapshot->checksum()) {
        matched = true;
        break;
      }
    }
    if (!matched) {
      std::fprintf(stderr,
                   "FAIL: shard %zu serves v%" PRIu64
                   " checksum %016" PRIx64 " matching no ledger record\n",
                   s, snapshot->version(), snapshot->checksum());
      return false;
    }
  }
  return true;
}

// One randomized arming per cycle. Triggers that would fail EVERY attempt
// (every-1st) are excluded here — persistent faults get their own forced
// phases below, where degraded mode and rollback are the expectation.
std::string ArmRandomFault(plp::Rng& rng) {
  const char* point = kFaultPoints[rng.UniformInt(std::size(kFaultPoints))];
  char label[96];
  switch (rng.UniformInt(3)) {
    case 0: {
      const int64_t hit = 1 + static_cast<int64_t>(rng.UniformInt(2));
      FaultInjection::Arm(point, FaultMode::kFail, FaultTrigger::Once(hit));
      std::snprintf(label, sizeof(label), "%s:fail@%" PRId64, point, hit);
      break;
    }
    case 1: {
      const int64_t period = 2 + static_cast<int64_t>(rng.UniformInt(2));
      FaultInjection::Arm(point, FaultMode::kFail,
                          FaultTrigger::EveryNth(period));
      std::snprintf(label, sizeof(label), "%s:fail@every%" PRId64, point,
                    period);
      break;
    }
    default: {
      const double p = 0.3 + 0.1 * static_cast<double>(rng.UniformInt(4));
      const uint64_t coin_seed = rng.UniformInt(1 << 20);
      FaultInjection::Arm(point, FaultMode::kFail,
                          FaultTrigger::WithProbability(p, coin_seed));
      std::snprintf(label, sizeof(label), "%s:fail@p%.1f/%" PRIu64, point, p,
                    coin_seed);
      break;
    }
  }
  return label;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags_or = plp::FlagParser::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "error: %s\n", flags_or.status().ToString().c_str());
    return 2;
  }
  const plp::FlagParser& flags = flags_or.value();
  const int cycles = static_cast<int>(flags.GetInt("cycles", 20));
  const int shards = static_cast<int>(flags.GetInt("threads", 2));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const std::string work_dir =
      flags.GetString("work_dir", "publish-chaos-work");
  const bool keep = flags.GetBool("keep", false);
  if (cycles < 1 || shards < 1) {
    std::fprintf(stderr, "--cycles and --threads must be >= 1\n");
    return 2;
  }

  const plp::publish::TrainFn trainer = MakeTrainer(seed);
  std::filesystem::remove_all(work_dir);
  std::filesystem::create_directories(work_dir);

  // ---- Fault-free reference: the ledger every chaos run must reproduce.
  std::string reference_ledger;
  {
    plp::serve::ShardedServingEngine engine(MakeShards(shards));
    auto supervisor = plp::publish::PublishSupervisor::Create(
        MakeConfig(work_dir + "/reference"), &engine);
    if (!supervisor.ok()) {
      std::fprintf(stderr, "reference supervisor: %s\n",
                   supervisor.status().ToString().c_str());
      return 2;
    }
    for (int c = 0; c < cycles; ++c) {
      auto report = supervisor->RunCycle(trainer);
      if (!report.ok() || !report->published) {
        std::fprintf(stderr, "reference cycle %d failed: %s\n", c,
                     (report.ok() ? report->failure : report.status())
                         .ToString()
                         .c_str());
        return 2;
      }
    }
    reference_ledger = supervisor->publisher().ledger().Encode();
  }

  // ---- Chaos run: same trainer, same cycle count, faults armed.
  const std::string chaos_dir = work_dir + "/chaos";
  plp::serve::ShardedServingEngine engine(MakeShards(shards));
  auto supervisor = plp::publish::PublishSupervisor::Create(
      MakeConfig(chaos_dir), &engine);
  if (!supervisor.ok()) {
    std::fprintf(stderr, "chaos supervisor: %s\n",
                 supervisor.status().ToString().c_str());
    return 2;
  }
  plp::Rng driver_rng(seed ^ 0xB7E151628AED2A6AULL);
  for (int c = 0; c < cycles; ++c) {
    const std::string armed = ArmRandomFault(driver_rng);
    auto report = supervisor->RunCycle(trainer);
    const int64_t fires = FaultInjection::FireCount();
    FaultInjection::Disarm();
    if (!report.ok()) {
      std::fprintf(stderr, "FAIL: cycle %d supervisor error: %s\n", c,
                   report.status().ToString().c_str());
      return 1;
    }
    // The bit-identity precondition: every cycle accounts its round's ε
    // exactly once, published or not. (A fault schedule CAN be
    // effectively persistent — e.g. snapshot.verify@every2 fires on
    // every multi-hit fleet-swap attempt — in which case rolling back or
    // degrading is the CORRECT outcome; losing or double-counting ε
    // never is.)
    const auto& ledger = supervisor->publisher().ledger();
    if (ledger.records().size() != static_cast<size_t>(c) + 1) {
      std::fprintf(stderr,
                   "FAIL: cycle %d under %s: ledger has %zu records, "
                   "want %d (ε lost or double-counted): %s\n",
                   c, armed.c_str(), ledger.records().size(), c + 1,
                   report->failure.ToString().c_str());
      return 1;
    }
    if (auto s = supervisor->publisher().VerifyCurrent(); !s.ok()) {
      std::fprintf(stderr, "FAIL: cycle %d CURRENT does not verify: %s\n", c,
                   s.ToString().c_str());
      return 1;
    }
    const char* outcome = "published";
    if (report->published) {
      auto current = supervisor->publisher().CurrentVersion();
      if (!current.ok() || *current != ledger.last()->version) {
        std::fprintf(stderr,
                     "FAIL: cycle %d CURRENT does not name the last "
                     "accounted version\n",
                     c);
        return 1;
      }
    } else {
      // Rolled back: CURRENT must sit on the last good version. Degraded
      // with no good version yet (a cycle-0 fleet-swap failure): CURRENT
      // stays on the accounted version — still validated, just unserved.
      outcome = report->rolled_back ? "rolled-back" : "degraded";
      const uint64_t expected = supervisor->last_good_version() != 0
                                    ? supervisor->last_good_version()
                                    : ledger.last()->version;
      auto current = supervisor->publisher().CurrentVersion();
      if (!current.ok() || *current != expected) {
        std::fprintf(stderr,
                     "FAIL: cycle %d %s but CURRENT is not v%" PRIu64 "\n",
                     c, outcome, expected);
        return 1;
      }
    }
    if (supervisor->last_good_version() != 0 &&
        !FleetServesPublishedBytes(engine, ledger)) {
      return 1;
    }
    std::printf("cycle %2d %s: v%" PRIu64 " armed=%s fired=%" PRId64
                " attempts=%d/%d/%d\n",
                c, outcome,
                report->published ? report->published_version
                                  : supervisor->last_good_version(),
                armed.c_str(), fires, report->train_attempts,
                report->publish_attempts, report->swap_attempts);
  }

  // Invariant 3: ε accounting is bit-identical to the fault-free run.
  if (supervisor->publisher().ledger().Encode() != reference_ledger) {
    std::fprintf(stderr,
                 "FAIL: chaos ledger differs from the fault-free "
                 "reference (ε lost, double-counted, or reordered)\n");
    return 1;
  }

  // ---- Forced persistent gate failure: degrade, don't break.
  const uint64_t good = supervisor->last_good_version();
  FaultInjection::Arm("publish.validate", FaultMode::kFail,
                      FaultTrigger::EveryNth(1));
  auto degraded = supervisor->RunCycle(trainer);
  FaultInjection::Disarm();
  if (!degraded.ok() || degraded->published || degraded->rolled_back ||
      degraded->serving_version != good ||
      *supervisor->publisher().CurrentVersion() != good ||
      degraded->swap_age_seconds < 0 || !degraded->within_slo) {
    std::fprintf(stderr, "FAIL: persistent gate failure did not degrade "
                 "cleanly on v%" PRIu64 "\n", good);
    return 1;
  }
  std::printf("gate-failure cycle ok: degraded on v%" PRIu64
              " (swap age %.3fs within SLO)\n",
              good, degraded->swap_age_seconds);

  // ---- Forced persistent fleet-swap failure: roll back to last good.
  FaultInjection::Arm("publish.serve_swap", FaultMode::kFail,
                      FaultTrigger::EveryNth(1));
  auto swap_failed = supervisor->RunCycle(trainer);
  FaultInjection::Disarm();
  if (!swap_failed.ok() || swap_failed->published ||
      !swap_failed->rolled_back || swap_failed->serving_version != good ||
      *supervisor->publisher().CurrentVersion() != good ||
      !FleetServesPublishedBytes(engine, supervisor->publisher().ledger())) {
    std::fprintf(stderr, "FAIL: persistent fleet-swap failure did not roll "
                 "back to v%" PRIu64 "\n", good);
    return 1;
  }
  std::printf("swap-failure cycle ok: rolled back to v%" PRIu64 "\n", good);

  // ---- And the loop recovers: one clean cycle publishes again.
  auto recovered = supervisor->RunCycle(trainer);
  if (!recovered.ok() || !recovered->published ||
      recovered->published_version <= good ||
      !supervisor->publisher().VerifyCurrent().ok()) {
    std::fprintf(stderr, "FAIL: loop did not recover after forced phases\n");
    return 1;
  }
  std::printf("recovery cycle ok: v%" PRIu64 " serving everywhere\n",
              recovered->published_version);

  std::printf("PASS: %d chaos cycles + forced gate/swap failures, "
              "shards=%d seed=%" PRIu64 ", ledger bit-identical to "
              "fault-free reference\n",
              cycles, shards, seed);
  if (!keep) std::filesystem::remove_all(work_dir);
  return 0;
}
