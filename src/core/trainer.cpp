#include "core/trainer.h"

#include "core/pbg_engine.h"
#include "core/ps_engine.h"

namespace hetkg::core {

Status SaveEngineCheckpoint(const TrainingEngine& engine,
                            const std::string& path) {
  const eval::EmbeddingLookup& lookup = engine.Embeddings();
  const size_t entity_dim = lookup.Entity(0).size();
  const size_t relation_dim = lookup.Relation(0).size();
  embedding::EmbeddingTable entities(lookup.num_entities(), entity_dim);
  embedding::EmbeddingTable relations(lookup.num_relations(), relation_dim);
  for (size_t e = 0; e < lookup.num_entities(); ++e) {
    entities.SetRow(e, lookup.Entity(static_cast<EntityId>(e)));
  }
  for (size_t r = 0; r < lookup.num_relations(); ++r) {
    relations.SetRow(r, lookup.Relation(static_cast<RelationId>(r)));
  }
  return embedding::SaveCheckpoint(path, entities, relations);
}

Status ValidateConfig(SystemKind system, const TrainerConfig& config,
                      bool proc_runtime) {
  const bool pbg = system == SystemKind::kPbg;
  if (config.storage.enabled && config.storage.cold_dir.empty()) {
    return Status::InvalidArgument(
        "--storage=tiered needs --cold_dir=<dir> for the cold-tier slab "
        "files");
  }
  if (config.storage.enabled && pbg) {
    return Status::InvalidArgument(
        "--storage=tiered requires a parameter-server engine; "
        "--system=pbg partitions swap whole buckets and gain nothing from "
        "row-granular tiering");
  }
  if (!proc_runtime) return Status::OK();
  if (pbg) {
    return Status::InvalidArgument(
        "--runtime=proc supports the parameter-server engines only "
        "(--system=pbg trains partition-at-a-time in one process; keep "
        "--runtime=sim for it)");
  }
  if (config.storage.enabled) {
    // Forked workers would share the coordinator's live slabs, and
    // --connect workers build their own parameter server whose startup
    // sweep targets the same *.cold.tmp names in --cold_dir.
    return Status::InvalidArgument(
        "--storage=tiered supports --runtime=sim only (the --runtime=proc "
        "coordinator owns the PS in its own process; its workers never "
        "map the cold slabs)");
  }
  // The step driver services worker RPCs strictly in sim order, which
  // is only well-defined for the deterministic scheduler, and real
  // worker processes make the sim's scheduled process faults redundant
  // — real SIGKILLs replace them.
  if (config.sync.async_pipeline) {
    return Status::InvalidArgument(
        "--runtime=proc requires the deterministic scheduler (drop "
        "--async)");
  }
  if (!config.fault.process_faults.empty()) {
    return Status::InvalidArgument(
        "--runtime=proc replaces simulated process faults with real worker "
        "kills (drop --fault_worker_crash / --fault_ps_restart; use "
        "--proc_kill)");
  }
  return Status::OK();
}

Result<std::unique_ptr<TrainingEngine>> MakeEngine(
    SystemKind system, const TrainerConfig& config,
    const graph::KnowledgeGraph& graph, const std::vector<Triple>& train) {
  HETKG_RETURN_IF_ERROR(ValidateConfig(system, config, /*proc_runtime=*/false));
  TrainerConfig effective = config;
  switch (system) {
    case SystemKind::kHetKgCps:
      effective.sync.strategy = CacheStrategy::kCps;
      break;
    case SystemKind::kHetKgDps:
      effective.sync.strategy = CacheStrategy::kDps;
      break;
    case SystemKind::kDglKe:
      effective.sync.strategy = CacheStrategy::kNone;
      break;
    case SystemKind::kPbg: {
      HETKG_ASSIGN_OR_RETURN(std::unique_ptr<PbgEngine> engine,
                             PbgEngine::Create(effective, graph, train));
      return std::unique_ptr<TrainingEngine>(std::move(engine));
    }
  }
  HETKG_ASSIGN_OR_RETURN(std::unique_ptr<PsTrainingEngine> engine,
                         PsTrainingEngine::Create(effective, graph, train));
  return std::unique_ptr<TrainingEngine>(std::move(engine));
}

}  // namespace hetkg::core
