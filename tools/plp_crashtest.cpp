// plp_crashtest — randomized SIGKILL/resume crash loop for the durable
// checkpoint subsystem.
//
// Each cycle forks a child that trains with checkpointing enabled and a
// kill fault armed at a random durability point (mid checkpoint payload,
// after the temp write, after the rename, mid training step, ...). The
// parent SIGKILL-loops the child until a run finally completes, then
// asserts the recovery invariants:
//
//   1. the final model is byte-identical to an uninterrupted reference run
//      (crashes never change what is learned, at any thread count);
//   2. the privacy-accountant trajectory is monotone in the step index and
//      every replayed step reports the bit-identical ε of the reference —
//      a killed-and-replayed step is the same mechanism draw, not a second
//      budget spend;
//   3. recovery always succeeds: no torn artifact is ever loaded.
//
//   plp_crashtest [--cycles=20] [--threads=1] [--seed=1]
//                 [--trainer=private|nonprivate]
//                 [--work_dir=crashtest-work] [--model_out=path] [--keep]
//
// Exits 0 iff every cycle passes. Prints the CRC-64 of the final model so
// separate invocations (e.g. --threads=1 vs --threads=4) can be compared.

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "common/atomic_file.h"
#include "common/fault_injection.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/nonprivate_trainer.h"
#include "core/plp_trainer.h"
#include "data/fixtures.h"
#include "sgns/model_io.h"

namespace {

using plp::ckpt::CheckpointOptions;

// Kill points exercised by the loop, spanning the whole commit protocol
// and the training loop around it.
const char* const kKillPoints[] = {
    "atomic_file.mid_payload", "atomic_file.after_temp_write",
    "atomic_file.after_rename", "ckpt.before_save",
    "ckpt.after_save",          "trainer.after_noise",
    "trainer.before_checkpoint",
};

struct Scenario {
  bool is_private = true;
  plp::core::PlpConfig plp;
  plp::core::NonPrivateConfig nonprivate;
  plp::data::TrainingCorpus corpus;
  uint64_t train_seed = 0;
};

Scenario MakeScenario(const std::string& trainer, int threads,
                      uint64_t seed) {
  Scenario s;
  s.is_private = trainer == "private";
  s.train_seed = seed;
  plp::data::FixtureCorpusOptions corpus_options;
  corpus_options.num_users = 48;
  corpus_options.num_locations = 24;
  corpus_options.neighborhood = 4;
  s.corpus = plp::data::MakeFixtureCorpus(seed * 77 + 7, corpus_options);

  s.plp.sgns.embedding_dim = 8;
  s.plp.sgns.negatives = 4;
  s.plp.sampling_probability = 0.25;
  s.plp.grouping_factor = 2;
  s.plp.noise_scale = 1.2;
  s.plp.clip_norm = 0.5;
  s.plp.epsilon_budget = 1e9;  // stop on max_steps, not the budget
  s.plp.batch_size = 8;
  s.plp.max_steps = 24;
  s.plp.num_threads = threads;

  s.nonprivate.sgns.embedding_dim = 8;
  s.nonprivate.sgns.negatives = 4;
  s.nonprivate.batch_size = 16;
  s.nonprivate.epochs = 10;
  return s;
}

// One training run (reference or crash-loop child). Appends a line per
// step/epoch to `log_fd` (O_APPEND, single write(2) per line → atomic and
// SIGKILL-durable): "<step> <metric-as-%a>". Saves the final model to
// `model_path` on completion.
plp::Status RunTraining(const Scenario& s, const CheckpointOptions& ckpt,
                        int log_fd, const std::string& model_path) {
  auto log_line = [log_fd](int64_t step, double metric) {
    if (log_fd < 0) return;
    char line[96];
    const int n =
        std::snprintf(line, sizeof(line), "%" PRId64 " %a\n", step, metric);
    if (n > 0) {
      const ssize_t written = write(log_fd, line, static_cast<size_t>(n));
      (void)written;
    }
  };
  plp::Rng rng(s.train_seed);
  plp::sgns::SgnsModel model;
  if (s.is_private) {
    auto result = plp::core::PlpTrainer(s.plp).Train(
        s.corpus, rng,
        [&](const plp::core::StepMetrics& m, const plp::sgns::SgnsModel&) {
          log_line(m.step, m.epsilon_spent);
          return true;
        },
        ckpt);
    if (!result.ok()) return result.status();
    model = std::move(result->model);
  } else {
    auto result = plp::core::NonPrivateTrainer(s.nonprivate)
                      .Train(s.corpus, rng,
                             [&](const plp::core::EpochMetrics& m,
                                 const plp::sgns::SgnsModel&) {
                               log_line(m.epoch, m.mean_loss);
                               return true;
                             },
                             ckpt);
    if (!result.ok()) return result.status();
    model = std::move(result->model);
  }
  return plp::sgns::SaveModel(model, model_path);
}

// step → exact metric bits, parsed from a child trajectory log.
using Trajectory = std::map<int64_t, double>;

bool ParseTrajectory(const std::string& path, bool require_monotone,
                     Trajectory& out) {
  auto contents = plp::ReadFileToString(path);
  if (!contents.ok()) {
    std::fprintf(stderr, "FAIL: cannot read trajectory %s: %s\n",
                 path.c_str(), contents.status().ToString().c_str());
    return false;
  }
  size_t pos = 0;
  const std::string& text = *contents;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    int64_t step = 0;
    double metric = 0.0;
    if (std::sscanf(line.c_str(), "%" SCNd64 " %la", &step, &metric) != 2) {
      std::fprintf(stderr, "FAIL: bad trajectory line '%s'\n", line.c_str());
      return false;
    }
    const auto [it, inserted] = out.emplace(step, metric);
    // Replayed steps must reproduce the identical value: same mechanism
    // draw, not a fresh spend.
    if (!inserted && std::memcmp(&it->second, &metric, sizeof(double)) != 0) {
      std::fprintf(stderr,
                   "FAIL: step %" PRId64 " replayed with %a, first saw %a\n",
                   step, metric, it->second);
      return false;
    }
  }
  if (require_monotone) {
    double prev = -1.0;
    for (const auto& [step, eps] : out) {
      if (eps < prev) {
        std::fprintf(stderr,
                     "FAIL: eps regressed at step %" PRId64 " (%a < %a)\n",
                     step, eps, prev);
        return false;
      }
      prev = eps;
    }
  }
  return true;
}

bool BitwiseEqual(const Trajectory& a, const Trajectory& b) {
  if (a.size() != b.size()) return false;
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
    if (ia->first != ib->first ||
        std::memcmp(&ia->second, &ib->second, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
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
  const int threads = static_cast<int>(flags.GetInt("threads", 1));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const std::string trainer = flags.GetString("trainer", "private");
  const std::string work_dir =
      flags.GetString("work_dir", "crashtest-work");
  const std::string model_out = flags.GetString("model_out", "");
  const bool keep = flags.GetBool("keep", false);
  if (trainer != "private" && trainer != "nonprivate") {
    std::fprintf(stderr, "--trainer must be private or nonprivate\n");
    return 2;
  }

  const Scenario scenario = MakeScenario(trainer, threads, seed);
  std::filesystem::create_directories(work_dir);

  // Uninterrupted reference run (no checkpointing: the checkpoint path
  // must not perturb training, so the comparison is against a run that
  // never touches it).
  const std::string reference_model = work_dir + "/reference.plpm";
  const std::string reference_log = work_dir + "/reference.log";
  std::filesystem::remove(reference_log);
  int ref_fd = open(reference_log.c_str(),
                    O_WRONLY | O_APPEND | O_CREAT | O_TRUNC, 0644);
  if (ref_fd < 0) {
    std::perror("open reference log");
    return 2;
  }
  if (auto s = RunTraining(scenario, {}, ref_fd, reference_model); !s.ok()) {
    std::fprintf(stderr, "reference run failed: %s\n", s.ToString().c_str());
    return 2;
  }
  close(ref_fd);
  auto reference_bytes = plp::ReadFileToString(reference_model);
  if (!reference_bytes.ok()) {
    std::fprintf(stderr, "cannot read reference model\n");
    return 2;
  }
  Trajectory reference_trajectory;
  if (!ParseTrajectory(reference_log, scenario.is_private,
                       reference_trajectory)) {
    return 2;
  }

  plp::Rng driver_rng(seed ^ 0xC5A5C5A5C5A5C5A5ULL);
  int total_kills = 0;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    const std::string cycle_dir =
        work_dir + "/cycle" + std::to_string(cycle);
    std::filesystem::remove_all(cycle_dir);
    std::filesystem::create_directories(cycle_dir);
    const std::string log_path = cycle_dir + "/trajectory.log";
    const std::string model_path = cycle_dir + "/final.plpm";
    CheckpointOptions ckpt;
    ckpt.dir = cycle_dir + "/ckpts";
    ckpt.every_steps = 1 + static_cast<int64_t>(driver_rng.UniformInt(3));
    ckpt.resume = true;
    ckpt.keep_last = 2;

    // Kill the child a few times at random points, then let it finish.
    const int kill_budget = 1 + static_cast<int>(driver_rng.UniformInt(3));
    int kills = 0;
    bool done = false;
    for (int attempt = 0; !done && attempt < 64; ++attempt) {
      const bool arm = kills < kill_budget;
      const char* point =
          kKillPoints[driver_rng.UniformInt(std::size(kKillPoints))];
      const int64_t hit = 1 + static_cast<int64_t>(driver_rng.UniformInt(8));
      const pid_t pid = fork();
      if (pid < 0) {
        std::perror("fork");
        return 2;
      }
      if (pid == 0) {
        // Child: arm the fault, train with resume, report via exit code.
        if (arm) {
          plp::FaultInjection::Arm(point, plp::FaultMode::kKill, hit);
        }
        const int fd =
            open(log_path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
        if (fd < 0) _exit(4);
        const plp::Status status =
            RunTraining(scenario, ckpt, fd, model_path);
        if (!status.ok()) {
          std::fprintf(stderr, "child train error: %s\n",
                       status.ToString().c_str());
          _exit(3);
        }
        _exit(0);
      }
      int wstatus = 0;
      if (waitpid(pid, &wstatus, 0) != pid) {
        std::perror("waitpid");
        return 2;
      }
      if (WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL) {
        ++kills;  // killed mid-run; resume on the next attempt
        continue;
      }
      if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0) {
        done = true;
        continue;
      }
      std::fprintf(stderr, "FAIL: cycle %d child died unexpectedly "
                   "(status 0x%x, armed %s@%" PRId64 ")\n",
                   cycle, wstatus, arm ? point : "nothing", hit);
      return 1;
    }
    if (!done) {
      std::fprintf(stderr, "FAIL: cycle %d never completed\n", cycle);
      return 1;
    }
    total_kills += kills;

    auto final_bytes = plp::ReadFileToString(model_path);
    if (!final_bytes.ok() || *final_bytes != *reference_bytes) {
      std::fprintf(stderr,
                   "FAIL: cycle %d final model differs from reference\n",
                   cycle);
      return 1;
    }
    Trajectory trajectory;
    if (!ParseTrajectory(log_path, scenario.is_private, trajectory)) {
      return 1;
    }
    if (!BitwiseEqual(trajectory, reference_trajectory)) {
      std::fprintf(stderr,
                   "FAIL: cycle %d trajectory differs from reference\n",
                   cycle);
      return 1;
    }
    std::printf("cycle %2d ok (%d kill%s survived)\n", cycle, kills,
                kills == 1 ? "" : "s");
    if (!keep) std::filesystem::remove_all(cycle_dir);
  }

  if (!model_out.empty()) {
    if (auto s = plp::AtomicWriteFile(model_out, *reference_bytes); !s.ok()) {
      std::fprintf(stderr, "cannot write %s\n", model_out.c_str());
      return 2;
    }
  }
  std::printf("PASS: %d cycles, %d SIGKILLs survived, trainer=%s threads=%d "
              "final model crc64=%016" PRIx64 "\n",
              cycles, total_kills, trainer.c_str(), threads,
              plp::Crc64(*reference_bytes));
  if (!keep) {
    std::filesystem::remove_all(work_dir);
  }
  return 0;
}
