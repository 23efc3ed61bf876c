#include "core/checkpoint_manager.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/fs_sync.h"
#include "common/logging.h"
#include "core/trainer.h"

namespace hetkg::core {

namespace fs = std::filesystem;

namespace {

constexpr char kManifestName[] = "MANIFEST";

std::string JoinPath(const std::string& dir, const std::string& file) {
  return (fs::path(dir) / file).string();
}

// Recognizes a cold-tier sidecar name "<base>.cold<digits>" (the layout
// CheckpointWriter::AddColdSidecar produces) and extracts the base
// container name. Anything else — including the sidecar temp files,
// whose extension is ".tmp" — is not a sidecar.
bool ParseColdSidecarName(const std::string& name, std::string* base) {
  const size_t pos = name.rfind(".cold");
  if (pos == std::string::npos) return false;
  const std::string digits = name.substr(pos + 5);
  if (digits.empty()) return false;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
  }
  *base = name.substr(0, pos);
  return true;
}

}  // namespace

CheckpointManager::CheckpointManager(std::string dir, size_t keep,
                                     bool fsync)
    : dir_(std::move(dir)), keep_(keep), fsync_(fsync) {}

Result<std::unique_ptr<CheckpointManager>> CheckpointManager::ForConfig(
    const TrainerConfig& config, MetricRegistry* recovery) {
  if (config.checkpoint_dir.empty()) {
    return std::unique_ptr<CheckpointManager>();
  }
  auto manager = std::make_unique<CheckpointManager>(
      config.checkpoint_dir, config.keep_checkpoints,
      config.checkpoint_fsync);
  HETKG_ASSIGN_OR_RETURN(const size_t orphans, manager->Prepare());
  if (orphans > 0) {
    recovery->Increment(metric::kCheckpointOrphanTemps, orphans);
  }
  return manager;
}

Result<size_t> CheckpointManager::Prepare() {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return Status::IoError("cannot create checkpoint dir " + dir_ + ": " +
                           ec.message());
  }
  // Sweep "*.tmp" orphans: a writer that crashed between its temp write
  // and the rename left one behind, and it would otherwise live
  // forever. Nothing references a temp file (the manifest only names
  // renamed snapshots), so removal is always safe. Directory iteration
  // order is filesystem-defined, which is fine here — removal is
  // per-file independent.
  size_t removed = 0;
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() == ".tmp") {
      std::error_code remove_ec;
      fs::remove(entry.path(), remove_ec);
      if (!remove_ec) ++removed;
      continue;
    }
    names.push_back(entry.path().filename().string());
  }
  if (ec) {
    return Status::IoError("cannot scan checkpoint dir " + dir_ + ": " +
                           ec.message());
  }
  // Sweep cold sidecars whose base container is gone: sidecars are
  // committed BEFORE their container, so a crash in that gap (or a
  // pruning crash after the container was removed) leaves "<base>.cold*"
  // files nothing will ever open. A sidecar whose container exists is
  // live and must stay.
  for (const std::string& name : names) {
    std::string base;
    if (!ParseColdSidecarName(name, &base)) continue;
    if (std::find(names.begin(), names.end(), base) != names.end()) continue;
    std::error_code remove_ec;
    fs::remove(JoinPath(dir_, name), remove_ec);
    if (!remove_ec) ++removed;
  }
  return removed;
}

std::string CheckpointManager::SnapshotPath(uint64_t iteration) const {
  char name[32];
  std::snprintf(name, sizeof(name), "ck-%012" PRIu64 ".hetkg", iteration);
  return JoinPath(dir_, name);
}

Result<std::vector<ManifestEntry>> CheckpointManager::ReadManifest() const {
  std::vector<ManifestEntry> entries;
  std::ifstream in(JoinPath(dir_, kManifestName));
  if (!in) return entries;  // No manifest yet.
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    ManifestEntry entry;
    if (!(fields >> entry.iteration >> entry.file)) {
      return Status::Corruption("malformed manifest line in " + dir_ + ": " +
                                line);
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

Status CheckpointManager::WriteManifest(
    const std::vector<ManifestEntry>& entries) const {
  const std::string path = JoinPath(dir_, kManifestName);
  const std::string tmp_path = path + ".manifest-tmp";
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    if (!out) {
      return Status::IoError("cannot open " + tmp_path + " for writing");
    }
    for (const ManifestEntry& entry : entries) {
      out << entry.iteration << ' ' << entry.file << '\n';
    }
    if (!out) {
      return Status::IoError("short write to " + tmp_path);
    }
  }
  // The manifest is the commit record of the whole checkpoint: fsync
  // the temp file before the rename and the directory entry after, or
  // a power loss could replay an old (or torn) manifest over snapshots
  // it no longer describes.
  if (fsync_) {
    HETKG_RETURN_IF_ERROR(SyncFile(tmp_path));
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    return Status::IoError("cannot rename " + tmp_path + " to " + path);
  }
  if (fsync_) {
    HETKG_RETURN_IF_ERROR(SyncDir(dir_));
  }
  return Status::OK();
}

Status CheckpointManager::Commit(uint64_t iteration) {
  HETKG_ASSIGN_OR_RETURN(std::vector<ManifestEntry> entries, ReadManifest());
  const std::string file =
      fs::path(SnapshotPath(iteration)).filename().string();
  // Re-saving the same iteration (a resumed run re-reaching a save
  // point) replaces the entry instead of duplicating it.
  std::erase_if(entries,
                [&](const ManifestEntry& e) { return e.file == file; });
  entries.push_back(ManifestEntry{iteration, file});
  std::sort(entries.begin(), entries.end(),
            [](const ManifestEntry& a, const ManifestEntry& b) {
              return a.iteration < b.iteration;
            });

  std::vector<std::string> pruned;
  if (keep_ > 0 && entries.size() > keep_) {
    const size_t drop = entries.size() - keep_;
    for (size_t i = 0; i < drop; ++i) {
      pruned.push_back(entries[i].file);
    }
    entries.erase(entries.begin(),
                  entries.begin() + static_cast<ptrdiff_t>(drop));
  }
  // Manifest first, then the pruned files: a crash between the two
  // leaves unreferenced snapshots (harmless), never a manifest entry
  // pointing at a deleted file.
  HETKG_RETURN_IF_ERROR(WriteManifest(entries));
  for (const std::string& file_name : pruned) {
    std::error_code ec;
    fs::remove(JoinPath(dir_, file_name), ec);
    // A tiered snapshot's cold sidecars ("<file>.cold<tag>") are only
    // reachable through its container; prune them with it or quantized
    // runs leak one slab-sized file per dropped snapshot.
    std::error_code scan_ec;
    for (const auto& entry : fs::directory_iterator(dir_, scan_ec)) {
      if (!entry.is_regular_file()) continue;
      std::string base;
      if (ParseColdSidecarName(entry.path().filename().string(), &base) &&
          base == file_name) {
        std::error_code remove_ec;
        fs::remove(entry.path(), remove_ec);
      }
    }
  }
  return Status::OK();
}

Status CheckpointManager::Save(uint64_t iteration,
                               const embedding::CheckpointWriter& snapshot) {
  HETKG_RETURN_IF_ERROR(snapshot.WriteAtomic(SnapshotPath(iteration), fsync_));
  return Commit(iteration);
}

Status CheckpointManager::TryCandidates(
    const std::string& resume_from, MetricRegistry* recovery,
    const std::function<Status(const std::string& path)>& try_one) {
  HETKG_ASSIGN_OR_RETURN(const std::vector<std::string> candidates,
                         ResumeCandidates(resume_from));
  Status last = Status::NotFound("no resume candidates");
  for (size_t i = 0; i < candidates.size(); ++i) {
    last = try_one(candidates[i]);
    if (last.ok()) break;
    HETKG_LOG(Warning) << "snapshot " << candidates[i]
                       << " rejected: " << last.ToString();
    if (i + 1 < candidates.size()) {
      recovery->Increment(metric::kCheckpointFallbacks);
    }
  }
  return last;
}

Result<std::vector<std::string>> CheckpointManager::ResumeCandidates(
    const std::string& resume_from) {
  std::error_code ec;
  if (fs::is_directory(resume_from, ec)) {
    CheckpointManager manager(resume_from, 0);
    HETKG_ASSIGN_OR_RETURN(std::vector<ManifestEntry> entries,
                           manager.ReadManifest());
    if (entries.empty()) {
      return Status::NotFound("no checkpoints in manifest of " + resume_from);
    }
    std::vector<std::string> candidates;
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
      candidates.push_back(JoinPath(resume_from, it->file));
    }
    return candidates;
  }
  if (!fs::exists(resume_from, ec)) {
    return Status::NotFound("resume path does not exist: " + resume_from);
  }
  return std::vector<std::string>{resume_from};
}

}  // namespace hetkg::core
