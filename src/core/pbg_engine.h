#ifndef HETKG_CORE_PBG_ENGINE_H_
#define HETKG_CORE_PBG_ENGINE_H_

#include <memory>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "core/checkpoint_manager.h"
#include "core/parallel_batch.h"
#include "core/snapshot_codec.h"
#include "core/trainer.h"
#include "embedding/adagrad.h"
#include "embedding/embedding_table.h"
#include "embedding/loss.h"
#include "partition/bucketizer.h"

namespace hetkg::core {

/// EmbeddingLookup over in-process tables (used by PbgEngine).
class TableLookup : public eval::EmbeddingLookup {
 public:
  TableLookup(const embedding::EmbeddingTable* entities,
              const embedding::EmbeddingTable* relations)
      : entities_(entities), relations_(relations) {}
  std::span<const float> Entity(EntityId id) const override {
    return entities_->Row(id);
  }
  std::span<const float> Relation(RelationId id) const override {
    return relations_->Row(id);
  }
  size_t num_entities() const override { return entities_->num_rows(); }
  size_t num_relations() const override { return relations_->num_rows(); }

 private:
  const embedding::EmbeddingTable* entities_;
  const embedding::EmbeddingTable* relations_;
};

/// The PyTorch-BigGraph baseline (Sec. III-B): entities are split into
/// p uniform partitions; triples form p x p buckets; a lock server
/// schedules non-conflicting buckets onto machines; entity partitions
/// are swapped through a shared filesystem between buckets; negatives
/// are corrupted within the loaded partitions; and relation embeddings
/// are treated as DENSE model weights synchronized with a shared
/// parameter server every iteration — the behaviour the paper blames
/// for PBG's communication volume (Fig. 7).
class PbgEngine : public TrainingEngine {
 public:
  static Result<std::unique_ptr<PbgEngine>> Create(
      const TrainerConfig& config, const graph::KnowledgeGraph& graph,
      const std::vector<Triple>& train);

  std::string_view name() const override { return "PBG"; }
  void EnableValidation(const graph::KnowledgeGraph* graph,
                        std::span<const Triple> valid,
                        const eval::EvalOptions& options) override;
  Result<TrainReport> Train(size_t num_epochs) override;
  const eval::EmbeddingLookup& Embeddings() const override {
    return lookup_;
  }
  const embedding::ScoreFunction& ScoreFn() const override {
    return *score_fn_;
  }

  const partition::BucketPlan& plan() const { return plan_; }
  const sim::ClusterSim& cluster() const { return cluster_; }

  /// Fault-injection transport carrying the dense relation-weight
  /// round-trips to the shared PS. Partition swaps go through the
  /// shared filesystem, which the fault model treats as reliable.
  const sim::Transport& transport() const { return transport_; }

  /// Crash recovery (DESIGN.md §9), at EPOCH granularity: PBG's unit of
  /// durable progress is the completed epoch (partitions are saved back
  /// to the shared filesystem between buckets, but the lock-server
  /// schedule restarts per epoch). `checkpoint_every` counts epochs
  /// here, not iterations.
  Status SaveTrainState(const std::string& path) const override;
  Status RestoreTrainState(const std::string& path_or_dir) override;
  Result<Commit> StageSnapshotSection(embedding::SectionTag tag,
                                      std::string_view payload) override;
  const MetricRegistry& RecoveryMetrics() const override {
    return recovery_metrics_;
  }

 private:
  PbgEngine(const TrainerConfig& config, const graph::KnowledgeGraph& graph);
  Status Setup(const std::vector<Triple>& train);

  /// Charges the shared-filesystem swap for `machine` taking bucket
  /// (i, j): saves partitions it holds but no longer needs, loads the
  /// missing ones.
  void SwapPartitions(uint32_t machine, uint32_t i, uint32_t j);

  /// Trains all triples of one bucket once on `machine`. Returns
  /// (summed pair loss, pair count).
  std::pair<double, uint64_t> TrainBucket(uint32_t machine,
                                          uint32_t bucket_id);

  /// Cumulative metric state for reports and time-series samples; see
  /// PsTrainingEngine::CollectObsMetrics for the contract.
  MetricRegistry CollectObsMetrics(double sim_seconds) const;

  // -- Crash recovery internals (DESIGN.md §9) --------------------------

  /// The kTrainerMeta a snapshot of this engine carries.
  TrainerMeta SnapshotMeta() const;

  /// Appends meta + tables + kPbgState + kClusterState sections.
  void BuildSnapshot(embedding::CheckpointWriter* writer) const;

  Result<Commit> StagePbgState(std::string_view payload);

  /// Full-state restore from one snapshot file, all or nothing.
  Status RestoreFromFile(const std::string& path);

  /// Consumes due process-level fault events at a bucket boundary. A
  /// kWorkerCrash drops the machine's resident partitions (they reload
  /// from the shared filesystem on the next bucket — charged as a
  /// normal swap); a kPsShardRestart is an instant + metric only, since
  /// the shared relation PS mirrors weights every machine also holds.
  void MaybeInjectProcessFaults();

  TrainerConfig config_;
  const graph::KnowledgeGraph& graph_;
  sim::ClusterSim cluster_;
  sim::Transport transport_;

  std::unique_ptr<embedding::ScoreFunction> score_fn_;
  std::unique_ptr<embedding::LossFunction> loss_fn_;
  embedding::EmbeddingTable entities_{1, 1};
  embedding::EmbeddingTable relations_{1, 1};
  std::unique_ptr<embedding::AdaGrad> entity_opt_;
  std::unique_ptr<embedding::AdaGrad> relation_opt_;
  TableLookup lookup_{nullptr, nullptr};

  partition::BucketPlan plan_;
  std::vector<std::vector<EntityId>> partition_entities_;
  std::vector<std::vector<uint32_t>> machine_held_;  // Partitions held.
  Rng rng_{0};
  MetricRegistry metrics_;

  // Crash recovery (epoch granularity). `epochs_done_` is the resume
  // cursor; a restored engine's Train(n) continues at that epoch.
  size_t epochs_done_ = 0;
  double cumulative_seconds_ = 0.0;
  bool resume_pending_ = false;
  MetricRegistry recovery_metrics_;
  std::unique_ptr<CheckpointManager> ckpt_manager_;

  // Observability (src/obs/); gated exactly like PsTrainingEngine.
  // PBG's Fig. 7 phases: partition swap, compute, dense relation sync.
  bool obs_active_ = false;
  struct PhaseSeconds {
    double swap = 0.0;
    double compute = 0.0;
    double relation_sync = 0.0;
  };
  PhaseSeconds phase_;

  const graph::KnowledgeGraph* valid_graph_ = nullptr;
  std::span<const Triple> valid_triples_;
  eval::EvalOptions valid_options_;

  // Deterministic intra-batch parallelism (null pool when
  // config.num_threads <= 1); see ps_engine.h for the scheme. Negative
  // sampling stays serial so the rng_ stream is unchanged.
  std::unique_ptr<ThreadPool> pool_;
  ParallelBatchScorer scorer_;

  // Per-batch scratch, reused across batches. Rows and gradients are
  // addressed by the dense index of the batch's sorted key list.
  std::vector<EmbKey> scratch_keys_;
  std::vector<float> scratch_grads_;
  std::vector<std::span<float>> scratch_row_spans_;
  std::vector<size_t> scratch_grad_offsets_;  // K+1 prefix offsets.
  std::vector<ResolvedTriple> scratch_positives_;
  std::vector<ResolvedPair> scratch_pairs_;
  std::vector<double> scratch_pos_scores_;
};

}  // namespace hetkg::core

#endif  // HETKG_CORE_PBG_ENGINE_H_
