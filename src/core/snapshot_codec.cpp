#include "core/snapshot_codec.h"

namespace hetkg::core {

void TrainerMeta::Encode(embedding::CheckpointWriter* writer) const {
  ByteWriter w;
  w.Str(engine);
  for (uint64_t v : {num_machines, dim, relation_dim, batch_size, schedule,
                     seed}) {
    w.U64(v);
  }
  writer->AddSection(embedding::SectionTag::kTrainerMeta, std::move(w));
}

Result<TrainerMeta> TrainerMeta::Decode(std::string_view payload) {
  ByteReader r(payload);
  TrainerMeta meta;
  meta.engine = r.Str();
  for (uint64_t* v : {&meta.num_machines, &meta.dim, &meta.relation_dim,
                      &meta.batch_size, &meta.schedule, &meta.seed}) {
    *v = r.U64();
  }
  if (!r.ok() || r.remaining() != 0) {
    return Status::Corruption("bad trainer meta section");
  }
  return meta;
}

Status TrainerMeta::Match(const TrainerMeta& snapshot) const {
  if (snapshot == *this) return Status::OK();
  return Status::FailedPrecondition(
      "snapshot was written by a different training configuration");
}

Result<std::string_view> RequireSection(
    const embedding::CheckpointReader& reader, embedding::SectionTag tag) {
  const std::string* payload = reader.Find(tag);
  if (payload == nullptr) {
    return Status::Corruption("snapshot missing section " +
                              std::to_string(static_cast<uint32_t>(tag)));
  }
  return std::string_view(*payload);
}

void EncodeClusterSection(const sim::ClusterSim& cluster,
                          const sim::Transport& transport,
                          embedding::CheckpointWriter* writer) {
  ByteWriter w;
  cluster.SaveState(&w);
  transport.SaveState(&w);
  writer->AddSection(embedding::SectionTag::kClusterState, std::move(w));
}

Result<Commit> StageClusterSection(std::string_view payload,
                                   sim::ClusterSim* cluster,
                                   sim::Transport* transport) {
  ByteReader r(payload);
  Commit counters = cluster->StageState(&r);
  Commit clock = counters ? transport->StageState(&r) : Commit();
  if (!clock || r.remaining() != 0) {
    return Status::Corruption("bad cluster section");
  }
  return Commit([counters = std::move(counters), clock = std::move(clock)] {
    counters();
    clock();
  });
}

}  // namespace hetkg::core
