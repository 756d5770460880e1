#ifndef CAUSER_CORE_CHECKPOINT_H_
#define CAUSER_CORE_CHECKPOINT_H_

#include <string>
#include <vector>

#include "models/recommender.h"

namespace causer::core {

/// Fault-tolerant training checkpoints (docs/ROBUSTNESS.md).
///
/// A checkpoint is one binary file bundling everything a resumed run needs
/// to be bit-identical to an uninterrupted one:
///   - model parameters (every registered tensor),
///   - model training state (RNG streams, optimizer moments and step
///     counts, the augmented-Lagrangian multipliers, epoch counters —
///     whatever SequentialRecommender::SaveTrainingState appends),
///   - the Fit() loop's resume state (epoch cursor, early-stopping
///     bookkeeping, best-parameter snapshot).
///
/// File format (native byte order; version bumps on layout change):
///   u32 magic, u32 version, u32 section_count
///   per section: u32 tag, u64 payload_size, u32 crc32(payload), payload
///   u32 crc32(everything before this field)
///
/// Every CRC is validated before any state is applied, so a torn,
/// truncated, or bit-flipped file is rejected without mutating the model.
/// Writes are atomic: the bytes go to `<path>.tmp`, are flushed and
/// fsync'd, and only then renamed over `path` (the directory is fsync'd
/// after the rename); a crash at any point leaves either the old
/// checkpoint or the new one, never a half-written file under `path`.

/// Checkpointing policy, wired into models::TrainConfig by
/// InstallCheckpointHooks.
struct CheckpointOptions {
  /// Directory for checkpoint files (created if missing).
  std::string dir;
  /// Epochs between checkpoints.
  int every = 1;
  /// Restore the newest loadable checkpoint before the first epoch.
  bool resume = false;
  /// Checkpoints retained after each save; older ones are pruned. Keeping
  /// two means a checkpoint torn exactly at the rename can still fall
  /// back to its predecessor.
  int keep = 2;
};

/// The canonical file name for the checkpoint written after `epoch` epochs:
/// `<dir>/ckpt-NNNNNN.causer`.
std::string CheckpointPath(const std::string& dir, int epoch);

/// Checkpoint files in `dir`, sorted by epoch ascending. Non-checkpoint
/// files are ignored; a missing directory yields an empty list.
std::vector<std::string> ListCheckpoints(const std::string& dir);

/// Atomically writes a checkpoint of `model` + `state` to `path`.
/// Returns false on any I/O failure, leaving a previous `path` (if any)
/// intact. Fault points: `ckpt.short_write`, `ckpt.rename_fail`,
/// `ckpt.torn_file`.
bool SaveTrainingCheckpoint(const models::SequentialRecommender& model,
                            const models::FitResumeState& state,
                            const std::string& path);

/// Loads a checkpoint written by SaveTrainingCheckpoint into `model` and
/// `*state`. All CRCs, the architecture guard (model name + parameter
/// shapes), and the section framing are validated before anything is
/// applied; on failure the model and `*state` are unchanged and the
/// function returns false.
bool LoadTrainingCheckpoint(models::SequentialRecommender& model,
                            models::FitResumeState* state,
                            const std::string& path);

/// Loads only the parameters of a checkpoint written by
/// SaveTrainingCheckpoint, for a model that serves rather than resumes
/// training: the same CRC, framing, architecture and shape validation as
/// LoadTrainingCheckpoint, but the optimizer moments and the fit state are
/// neither parsed nor restored. On failure the model is unchanged and the
/// function returns false. The caller runs OnParametersRestored().
bool LoadCheckpointParameters(models::SequentialRecommender& model,
                              const std::string& path);

/// Deletes all but the newest `keep` checkpoints in `dir`.
void PruneCheckpoints(const std::string& dir, int keep);

/// Wires checkpointing into a Fit() config: creates options.dir, installs
/// checkpoint_save (write + prune, counting trainer.checkpoint.writes_total)
/// and checkpoint_restore (newest loadable checkpoint wins — a corrupt
/// newest file falls back to its predecessor — counting
/// trainer.checkpoint.resumes_total), and copies `every`/`resume` into the
/// config. Returns false when the directory cannot be created.
bool InstallCheckpointHooks(const CheckpointOptions& options,
                            models::SequentialRecommender& model,
                            models::TrainConfig* config);

}  // namespace causer::core

#endif  // CAUSER_CORE_CHECKPOINT_H_
