#ifndef HETKG_CORE_SNAPSHOT_CODEC_H_
#define HETKG_CORE_SNAPSHOT_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/serialize.h"
#include "embedding/checkpoint.h"
#include "sim/transport.h"

namespace hetkg::core {

/// kTrainerMeta (DESIGN.md §9): the writing engine and the config shape
/// a resume must match.
struct TrainerMeta {
  std::string engine;  // TrainingEngine::name()
  uint64_t num_machines = 0;
  uint64_t dim = 0;
  uint64_t relation_dim = 0;
  uint64_t batch_size = 0;
  uint64_t schedule = 0;  // PS: iterations per epoch. PBG: partitions.
  uint64_t seed = 0;

  bool operator==(const TrainerMeta&) const = default;
  void Encode(embedding::CheckpointWriter* writer) const;
  /// Corruption unless `payload` is exactly one encoded TrainerMeta.
  static Result<TrainerMeta> Decode(std::string_view payload);
  /// FailedPrecondition unless `snapshot` was written for this shape.
  Status Match(const TrainerMeta& snapshot) const;
};

/// The payload of the first `tag` section; Corruption when absent.
Result<std::string_view> RequireSection(
    const embedding::CheckpointReader& reader, embedding::SectionTag tag);

/// kClusterState: the cluster's counters, then the transport's clock,
/// fault cursor and metrics.
void EncodeClusterSection(const sim::ClusterSim& cluster,
                          const sim::Transport& transport,
                          embedding::CheckpointWriter* writer);
Result<Commit> StageClusterSection(std::string_view payload,
                                   sim::ClusterSim* cluster,
                                   sim::Transport* transport);

}  // namespace hetkg::core

#endif  // HETKG_CORE_SNAPSHOT_CODEC_H_
