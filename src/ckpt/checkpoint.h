#ifndef PLP_CKPT_CHECKPOINT_H_
#define PLP_CKPT_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "sgns/model.h"

namespace plp::ckpt {

/// Trainer-facing checkpoint policy, shared by PlpTrainer and
/// NonPrivateTrainer. `every_steps` counts private steps for the former
/// and epochs for the latter.
struct CheckpointOptions {
  std::string dir;          ///< empty = checkpointing disabled
  int64_t every_steps = 1;  ///< snapshot cadence; must be > 0 when enabled
  bool resume = false;      ///< load the newest valid snapshot before training
  int keep_last = 3;        ///< retained snapshots (0 = keep all)

  bool enabled() const { return !dir.empty(); }
};

/// Which trainer wrote the snapshot; restoring into the wrong trainer is
/// rejected before any state is touched.
enum class TrainerKind : uint8_t {
  kPrivate = 1,     ///< core::PlpTrainer (Algorithm 1)
  kNonPrivate = 2,  ///< core::NonPrivateTrainer
};

/// The sampling scheme the run was accounted under — the PLPC v2 scheme
/// byte. Trainers write only kPoisson. kFixedBatch still decodes so that a
/// snapshot of a retired fixed-batch run is read, and then refused by the
/// engine by name, rather than skipped as undecodable.
enum class SamplingScheme : uint8_t {
  kPoisson = 1,
  kFixedBatch = 2,
};

/// Everything a trainer needs to continue bit-identically after a crash:
/// the model tensors, the optimizer moments, the privacy ledger (whose
/// accounted steps always cover every noised update already applied to the
/// model — "ledger-first"), the step counter, and the main RNG stream
/// position. The ledger and optimizer states are opaque blobs written by
/// the owning components, so this format never learns their layout.
struct TrainerSnapshot {
  TrainerKind kind = TrainerKind::kPrivate;
  /// Format v1 snapshots predate the field and decode as kPoisson (the
  /// only scheme that existed when they were written).
  SamplingScheme scheme = SamplingScheme::kPoisson;
  int64_t step = 0;  ///< completed private steps / completed epochs
  RngState rng;
  std::string ledger_blob;  ///< empty for the non-private trainer
  std::string optimizer_name;
  std::string optimizer_blob;
  sgns::SgnsModel model;
};

/// Serializes the snapshot into a self-validating envelope:
/// magic "PLPC", format version, payload size, CRC-64/XZ of the payload,
/// payload. Any torn or bit-flipped file fails the checksum before a
/// single field is parsed.
std::string EncodeSnapshot(const TrainerSnapshot& snapshot);

/// Inverse of EncodeSnapshot; InvalidArgument on bad magic/version/
/// checksum/field. Every length field is bounds-checked before allocation.
Result<TrainerSnapshot> DecodeSnapshot(std::string_view bytes);

/// Manages a directory of `ckpt-<step>.plpc` files with crash-safe commit:
/// each Save writes a temp file in the same directory, fsyncs it, renames
/// it over the final name, and fsyncs the directory — so at every instant
/// the directory holds only complete, checksummed snapshots (plus ignorable
/// temp debris from killed writers).
class CheckpointManager {
 public:
  /// `keep_last` > 0 prunes older checkpoints after each successful Save,
  /// always retaining the newest `keep_last`; 0 keeps everything.
  explicit CheckpointManager(std::string dir, int keep_last = 3);

  /// Creates the directory (and parents) if missing.
  Status Init() const;

  /// Atomically commits `snapshot` as ckpt-<step>.plpc. Fault points:
  /// "ckpt.before_save" (nothing written), "ckpt.after_save" (committed),
  /// plus the atomic_file.* points inside the commit itself.
  Status Save(const TrainerSnapshot& snapshot) const;

  /// Loads the newest decodable checkpoint, skipping (and reporting to
  /// stderr) any that fail validation — a torn newest file falls back to
  /// the previous good one. NotFound when the directory holds no valid
  /// checkpoint (fresh start).
  Result<TrainerSnapshot> LoadLatest() const;

  /// Steps of all well-named checkpoint files, ascending. Temp files and
  /// foreign names are ignored. An empty (or missing) directory yields {}.
  std::vector<int64_t> ListSteps() const;

  std::string PathForStep(int64_t step) const;
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  int keep_last_;
};

}  // namespace plp::ckpt

#endif  // PLP_CKPT_CHECKPOINT_H_
