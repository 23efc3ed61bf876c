#ifndef HETKG_CORE_CHECKPOINT_MANAGER_H_
#define HETKG_CORE_CHECKPOINT_MANAGER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "embedding/checkpoint.h"

namespace hetkg::core {

struct TrainerConfig;

/// One line of a checkpoint directory's MANIFEST.
struct ManifestEntry {
  uint64_t iteration = 0;
  std::string file;  // Relative to the checkpoint directory.
};

/// Rotation/retention bookkeeping of a checkpoint directory
/// (DESIGN.md §9):
///
///   <dir>/ck-000000000128.hetkg     HETKGCK2 snapshots, one per save
///   <dir>/MANIFEST                  "<iteration> <file>\n", oldest first
///
/// Snapshots and the manifest are both written atomically (temp +
/// rename), and the manifest is updated only after its snapshot is
/// durable, so the manifest never names a half-written file. Retention
/// keeps the newest `keep` entries and deletes the rest. A crash
/// between a snapshot's temp write and its rename leaves an orphaned
/// "*.tmp" behind; Prepare() sweeps those at startup.
class CheckpointManager {
 public:
  /// `keep` == 0 means keep every snapshot. `fsync` (the default)
  /// makes every manifest commit power-loss durable: the manifest temp
  /// file is fsync()ed before its rename and the directory after
  /// (common/fs_sync.h); callers writing snapshots pass the same flag
  /// to CheckpointWriter::WriteAtomic so the MANIFEST can never
  /// reference a snapshot whose bytes were not yet on stable storage.
  CheckpointManager(std::string dir, size_t keep, bool fsync = true);

  /// config.checkpoint_dir after Prepare(), its orphans counted in
  /// `recovery`; null when checkpointing is off.
  static Result<std::unique_ptr<CheckpointManager>> ForConfig(
      const TrainerConfig& config, MetricRegistry* recovery);

  /// Creates the directory (like mkdir -p) and removes orphaned "*.tmp"
  /// files left by a crashed writer. Returns the number of orphans
  /// removed.
  Result<size_t> Prepare();

  /// Path of the snapshot file for `iteration` (zero-padded so lexical
  /// and numeric order agree).
  std::string SnapshotPath(uint64_t iteration) const;

  /// Registers a durably written SnapshotPath(iteration) in the
  /// manifest and prunes entries beyond the retention limit.
  Status Commit(uint64_t iteration);

  /// Writes `snapshot` to SnapshotPath(iteration), then commits it.
  Status Save(uint64_t iteration,
              const embedding::CheckpointWriter& snapshot);

  /// Manifest entries, oldest first. Missing manifest = empty list.
  Result<std::vector<ManifestEntry>> ReadManifest() const;

  const std::string& dir() const { return dir_; }
  bool fsync_enabled() const { return fsync_; }

  /// Resolves a --resume_from argument into snapshot paths to try,
  /// newest first: a snapshot file resolves to itself; a checkpoint
  /// directory resolves to its manifest entries newest->oldest (so a
  /// corrupt latest snapshot falls back to the previous one).
  static Result<std::vector<std::string>> ResumeCandidates(
      const std::string& resume_from);

  /// Runs `try_one` on each ResumeCandidates(resume_from) until one
  /// returns OK, logging each rejection and counting each fallback to
  /// an older one in `recovery`. Returns the last error.
  static Status TryCandidates(
      const std::string& resume_from, MetricRegistry* recovery,
      const std::function<Status(const std::string& path)>& try_one);

 private:
  Status WriteManifest(const std::vector<ManifestEntry>& entries) const;

  std::string dir_;
  size_t keep_;
  bool fsync_;
};

}  // namespace hetkg::core

#endif  // HETKG_CORE_CHECKPOINT_MANAGER_H_
