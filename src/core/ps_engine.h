#ifndef HETKG_CORE_PS_ENGINE_H_
#define HETKG_CORE_PS_ENGINE_H_

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "core/checkpoint_manager.h"
#include "core/hot_embedding_table.h"
#include "core/hot_filter.h"
#include "core/parallel_batch.h"
#include "core/pipeline.h"
#include "core/prefetcher.h"
#include "core/ps_backend.h"
#include "core/snapshot_codec.h"
#include "core/sync_controller.h"
#include "core/trainer.h"
#include "embedding/loss.h"
#include "embedding/negative_sampler.h"
#include "ps/parameter_server.h"

namespace hetkg::net {
class ProcCoordinator;
class ProcWorker;
}  // namespace hetkg::net

namespace hetkg::core {

/// EmbeddingLookup over a parameter server's global tables (evaluation
/// reads are not charged to the network model).
class PsEmbeddingLookup : public eval::EmbeddingLookup {
 public:
  explicit PsEmbeddingLookup(const ps::ParameterServer* server)
      : server_(server) {}
  std::span<const float> Entity(EntityId id) const override {
    return server_->Value(EntityKey(id));
  }
  std::span<const float> Relation(RelationId id) const override {
    return server_->Value(RelationKey(id));
  }
  size_t num_entities() const override {
    return server_->config().num_entities;
  }
  size_t num_relations() const override {
    return server_->config().num_relations;
  }

 private:
  const ps::ParameterServer* server_;
};

/// Parameter-server training engine implementing Algorithms 1-4. The
/// three PS-based systems of the paper are configurations of this one
/// engine:
///   * HET-KG-C : sync.strategy = kCps (whole-epoch hot set, fixed)
///   * HET-KG-D : sync.strategy = kDps (hot set rebuilt every D iters)
///   * DGL-KE   : sync.strategy = kNone (no worker cache)
/// One worker runs per machine; each training iteration executes every
/// worker once against the shared (simulated) cluster, and all
/// embedding traffic flows through the ParameterServer's accounted
/// pull/push paths.
class PsTrainingEngine : public TrainingEngine {
 public:
  static Result<std::unique_ptr<PsTrainingEngine>> Create(
      const TrainerConfig& config, const graph::KnowledgeGraph& graph,
      const std::vector<Triple>& train);

  std::string_view name() const override;
  /// Which PS system this engine is (from its cache strategy) and the
  /// config it trains with — what the proc launch entry points hand to
  /// ValidateConfig.
  SystemKind system() const;
  const TrainerConfig& config() const { return config_; }
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

  /// Iterations that constitute one epoch (max over workers).
  size_t IterationsPerEpoch() const { return iterations_per_epoch_; }

  /// Cache hit ratio accumulated since construction.
  double OverallHitRatio() const;

  /// The simulated cluster (exposed for benches that inspect traffic).
  const sim::ClusterSim& cluster() const { return cluster_; }

  /// The fault-injection transport carrying all PS traffic (exposed for
  /// benches/tests that inspect retry and degradation counters).
  const sim::Transport& transport() const { return transport_; }

  /// Async pipeline introspection (0 in deterministic mode). The max
  /// observed lag is the largest (pull iteration - completed iteration)
  /// any pull stage ran at — the staleness-bound property tests assert
  /// it never exceeds --max_pipeline_staleness.
  size_t MaxObservedPipelineLag() const { return max_observed_lag_; }
  uint64_t PipelineStalenessWaits() const { return staleness_waits_total_; }

  /// Crash recovery (DESIGN.md §9): full-training-state snapshots.
  Status SaveTrainState(const std::string& path) const override;
  Status RestoreTrainState(const std::string& path_or_dir) override;
  Result<Commit> StageSnapshotSection(embedding::SectionTag tag,
                                      std::string_view payload) override;
  const MetricRegistry& RecoveryMetrics() const override {
    return recovery_metrics_;
  }

  // -- Process runtime hooks (src/net/, DESIGN.md §13) -------------------

  /// Coordinator-side driver of real worker processes. When installed,
  /// Train() forwards each worker step / epoch flush / state sync to
  /// this interface instead of executing the stages locally; the
  /// driver services the worker's PsBackend RPCs against this engine's
  /// authoritative server/cluster in sim order.
  class StepDriver {
   public:
    virtual ~StepDriver() = default;
    /// Runs one worker step remotely; returns {loss_sum, pair_count}.
    virtual Result<std::pair<double, uint64_t>> DriveStep(uint32_t machine,
                                                          size_t iter) = 0;
    /// Epoch boundary: remote write-back flush, then harvest the
    /// worker's hit/miss counters into the engine's worker mirror.
    virtual Status DriveEpochEnd(uint32_t machine) = 0;
    /// Pulls the worker's full serialized state into the engine's
    /// worker mirror (checkpoint barriers and end of training).
    virtual Status SyncWorkerState(uint32_t machine) = 0;
    /// True when a worker process died since the last restart.
    virtual bool WorkerFailed() const = 0;
    /// Kills and relaunches every worker process from the engine's
    /// current (just-restored) state; clears the failure flag.
    virtual Status RestartWorkers() = 0;

    // -- Cross-process observability (DESIGN.md §14). Default no-ops so
    // -- drivers without obs support need no changes. ------------------
    /// Called once at the start of TrainInner when config.obs is
    /// enabled: arms per-process tracers/metrics in the workers and
    /// runs the clock-offset handshake.
    virtual Status SetupObs() { return Status::OK(); }
    /// Final shipment drain before the engine writes its trace/metrics
    /// files (end of training and halt paths).
    virtual Status FlushObs() { return Status::OK(); }
    /// Merged never-serialized runtime metrics (transport histograms,
    /// per-worker gauges) for CollectObsMetrics, or null when the
    /// driver has none.
    virtual const MetricRegistry* ObsMetrics() const { return nullptr; }
  };

  /// Installs the process-runtime driver (nullptr restores sim mode).
  void SetStepDriver(StepDriver* driver) { step_driver_ = driver; }

  /// Reroutes the pipeline stages' shared-state calls — a forked worker
  /// process installs its RPC backend here (nullptr restores the local
  /// in-process backend).
  void SetPsBackend(PsBackend* backend) {
    backend_ = backend != nullptr ? backend : local_backend_.get();
  }

 private:
  friend class ::hetkg::net::ProcCoordinator;
  friend class ::hetkg::net::ProcWorker;
  struct Worker {
    uint32_t machine = 0;
    std::vector<Triple> triples;
    std::unique_ptr<embedding::NegativeSampler> sampler;
    std::unique_ptr<Prefetcher> prefetcher;
    std::unique_ptr<HotEmbeddingTable> cache;
    std::deque<MiniBatch> batch_queue;
    uint64_t hits = 0;
    uint64_t misses = 0;
    /// Construction seeds, kept so an in-sim worker crash with no
    /// snapshot can rebuild its sampling pipeline deterministically.
    uint64_t sampler_seed = 0;
    uint64_t prefetch_seed = 0;
    /// kOnAccess refresh bookkeeping: iteration of each cached row's
    /// last pull from the PS.
    std::unordered_map<EmbKey, size_t> last_refresh;
    /// Write-back mode: locally accumulated, not-yet-pushed gradients
    /// of cached rows.
    std::unordered_map<EmbKey, std::vector<float>> pending_grads;
  };

  /// One iteration of one worker flowing through the pipeline
  /// (DESIGN.md §12). The task owns every buffer its stages touch, so
  /// in async mode tasks of different iterations can be in flight on
  /// different stage threads without sharing scratch. Cached rows are
  /// COPIED into `values` by the pull stage (a bit-exact float copy),
  /// so the compute stage never reads cache storage that a concurrent
  /// push stage may be updating.
  struct StepTask {
    Worker* w = nullptr;
    size_t iter = 0;
    MiniBatch batch;

    // Plan produced by the sample stage, applied by the pull stage.
    bool flush_writeback = false;
    bool rebuild = false;
    bool whole_epoch = false;
    FrequencyMap rebuild_freq;
    uint64_t rebuild_accesses = 0;
    uint64_t refill_accesses = 0;

    // Row/gradient buffers addressed by the dense index of the sorted
    // key list (`keys`), not by hash lookups.
    std::vector<EmbKey> keys;
    std::vector<EmbKey> missing;
    std::vector<float> values;
    std::vector<float> grads;
    std::vector<std::span<float>> pull_spans;
    std::vector<std::span<float>> row_spans;  // Per key index.
    std::vector<size_t> grad_offsets;         // K+1 prefix offsets.
    std::vector<ResolvedTriple> positives;
    std::vector<ResolvedPair> pairs;
    std::vector<double> pos_scores;

    // Results, filled by the compute stage.
    double loss_sum = 0.0;
    uint64_t pair_count = 0;

    void Reset(Worker* worker, size_t iteration) {
      w = worker;
      iter = iteration;
      flush_writeback = false;
      rebuild = false;
      whole_epoch = false;
      rebuild_freq.clear();
      rebuild_accesses = 0;
      refill_accesses = 0;
      loss_sum = 0.0;
      pair_count = 0;
    }
  };

  PsTrainingEngine(const TrainerConfig& config, SyncController sync,
                   const graph::KnowledgeGraph& graph);

  Status Setup(const std::vector<Triple>& train);

  /// Prefetcher-side half of a hot-set (re)build: counts (CPS: whole
  /// epoch) or counts-and-queues (DPS: next D batches) accesses into
  /// `freq`, returning the counted access total. Touches only the
  /// worker's sampling pipeline — safe on the sample stage.
  uint64_t CollectHotSetPlan(Worker* w, bool whole_epoch,
                             FrequencyMap* freq);

  /// PS-side half: filters `freq`, assigns the hot set, re-anchors
  /// staleness clocks at `iter`, and pulls newly admitted rows. Runs on
  /// the pull stage (or the scheduling thread during recovery).
  void ApplyHotSet(Worker* w, size_t iter, const FrequencyMap& freq,
                   uint64_t accesses);

  /// Both halves back-to-back — the recovery path's rebuild, which runs
  /// serially outside the pipeline.
  void ConstructHotSet(Worker* w, bool whole_epoch, size_t iter);

  /// Ensures the worker has a mini-batch ready. Returns the prefetch
  /// access count to charge (0 when no refill happened); the caller
  /// records it on the pull stage so sim accounting stays ordered with
  /// the iteration's other cluster traffic.
  uint64_t FillBatchQueue(Worker* w);

  /// Pushes all locally accumulated (write-back) gradients to the PS.
  void FlushPendingGradients(Worker* w);

  /// Degradation path of a pull whose retries were exhausted: cached
  /// keys keep serving their stale copy (and stay refresh-eligible);
  /// uncached keys fall back to an unaccounted degraded read so the
  /// iteration can proceed. `keys[failed[i]]` are the unserved keys,
  /// `spans[failed[i]]` their destinations.
  void HandleFailedPulls(Worker* w, size_t iter,
                         std::span<const EmbKey> keys,
                         std::span<const std::span<float>> spans,
                         std::span<const uint32_t> failed);

  // -- Pipeline stages (DESIGN.md §12) ----------------------------------
  // Each stage owns a disjoint slice of engine state: sample touches
  // only the worker's sampling pipeline (prefetcher, negative sampler,
  // batch queue); pull and push touch the shared PS/cluster/transport
  // state (under ps_mu_ in async mode); compute touches only the
  // task-private buffers. In deterministic mode the scheduling thread
  // ticks all four inline, in pre-pipeline order, so results are
  // bit-identical to the former monolithic Step().

  /// Sample/prefetch stage: plans any hot-set rebuild, refills the
  /// batch queue, and pops the iteration's mini-batch into the task.
  void RunSampleStage(StepTask* task);

  /// Cache-refresh/pull stage: applies the rebuild plan, resolves the
  /// batch's rows (cache hits vs PS pulls, staleness-driven refreshes),
  /// and leaves every row's bits in the task's private buffer.
  void RunPullStage(StepTask* task);

  /// Batch compute stage: forward + backward over all pairs via the
  /// deterministic chunked executor.
  void RunComputeStage(StepTask* task);

  /// Gradient push stage: local cache updates, write-back accumulation,
  /// and the iteration's PS push.
  void RunPushStage(StepTask* task);

  // Async stage-thread loop bodies (return false to stop; a closed
  // upstream queue cascades shutdown to the next stage).
  bool SampleLoop();
  bool PullLoop();
  bool ComputeLoop();
  bool PushLoop();

  /// Runs up to `max_iters` full iterations (all workers each) through
  /// the threaded pipeline, stopping early at an iteration boundary
  /// when a process fault comes due. Returns iterations completed and
  /// advances global_iteration_; on return the pipeline is drained, so
  /// engine state is at a consistent barrier.
  size_t RunAsyncSegment(size_t max_iters);

  StepTask* AcquireTask();
  void ReleaseTask(StepTask* task);

  /// Critical path of the current epoch's traffic: the plain serial
  /// path in deterministic mode, the overlap-adjusted path in async
  /// mode (stages ahead by up to the pipeline staleness hide the
  /// smaller of compute/comm behind the larger).
  sim::TimeBreakdown EpochCriticalPath() const {
    return async_mode_
               ? cluster_.OverlappedCriticalPath(sync_.PipelineStaleness())
               : cluster_.CriticalPath();
  }

  /// One training iteration for one worker at global iteration `iter`:
  /// routes one task through the staged pipeline inline (deterministic
  /// mode and the recovery replay path).
  /// Returns the summed pair loss and pair count.
  std::pair<double, uint64_t> Step(Worker* w, size_t iter);

  /// The body of Train(); the public Train() adds the process-runtime
  /// crash-retry wrapper around it when a StepDriver is installed.
  Result<TrainReport> TrainInner(size_t num_epochs);

  /// Process runtime: refreshes every worker mirror from its process
  /// (no-op in sim mode). Runs before checkpoints, halts, and the end
  /// of training so serialized worker sections are always current.
  Status SyncAllWorkers();

  /// fork() hygiene for the process runtime: joins and destroys the
  /// compute pool so the process is single-threaded across fork(), then
  /// rebuilds it (in parent and child independently) afterwards.
  void TeardownPool();
  void RebuildPool();
  /// Whether EnableValidation borrowed pool_ (so RebuildPool re-patches
  /// the dangling pointer after a fork-cycle rebuild).
  bool pool_valid_options_aliased_ = false;

  /// Cumulative metric state for reports and time-series samples:
  /// server + transport counters, cache hit/miss totals, and — when
  /// observability is active — the phase gauges and latency histograms.
  /// `sim_seconds` is the cumulative critical-path time at the sample.
  MetricRegistry CollectObsMetrics(double sim_seconds) const;

  // -- Crash recovery internals (DESIGN.md §9) --------------------------

  /// The sampler spec Setup() would build for `seed` (shared by setup
  /// and the no-snapshot worker recovery path).
  embedding::NegativeSamplerSpec SamplerSpecFor(uint64_t seed) const;

  /// The kTrainerMeta a snapshot of this engine carries.
  TrainerMeta SnapshotMeta() const;

  /// Appends meta + PS + cluster/transport + per-worker sections.
  void BuildSnapshotSections(embedding::CheckpointWriter* writer) const;

  /// Appends the engine-counter section (always last: its payload size
  /// is excluded from the checkpoint.bytes accounting, breaking the
  /// self-reference of a counter stored inside the file it measures).
  void AppendEngineCountersSection(embedding::CheckpointWriter* writer) const;

  /// `iteration` (when set) receives the payload's global iteration.
  Result<Commit> StageEngineCounters(std::string_view payload,
                                     uint64_t* iteration);

  /// One worker's state: a kWorker payload after its machine id, and
  /// the proc runtime's kLoadState/kWorkerState blob. Staging requires
  /// the rest of `r` to be exactly one such payload.
  void SaveWorkerState(const Worker& w, ByteWriter* out) const;
  Commit StageWorkerState(Worker* w, ByteReader* r);

  /// Full-state restore from one snapshot file, all or nothing.
  Status RestoreFromFile(const std::string& path);

  /// Periodic save: counters, snapshot write, manifest commit.
  Status WritePeriodicCheckpoint();

  /// Newest snapshot readable from checkpoint_dir (manifest fallback on
  /// corruption); NotFound when checkpointing is off or nothing saved.
  Result<embedding::CheckpointReader> OpenLatestSnapshot();

  /// Consumes due process-level fault events at an iteration boundary.
  Status MaybeInjectProcessFaults();

  /// kWorkerCrash handler: drops the worker's volatile state, then
  /// restores from the latest snapshot + idempotent replay, or rebuilds
  /// from seeds when no snapshot exists.
  Status RecoverWorker(uint32_t machine);

  TrainerConfig config_;
  SyncController sync_;
  const graph::KnowledgeGraph& graph_;

  sim::ClusterSim cluster_;
  sim::Transport transport_;
  std::unique_ptr<ps::ParameterServer> server_;
  /// PS/cluster seam (DESIGN.md §13): stage code mutates shared state
  /// through backend_ only. Sim runtime: the local backend below.
  /// Process runtime: a forked worker swaps in its RPC backend.
  std::unique_ptr<LocalPsBackend> local_backend_;
  PsBackend* backend_ = nullptr;
  /// Process runtime driver (coordinator side); null in sim mode.
  StepDriver* step_driver_ = nullptr;
  std::unique_ptr<embedding::ScoreFunction> score_fn_;
  std::unique_ptr<embedding::LossFunction> loss_fn_;
  PsEmbeddingLookup lookup_{nullptr};

  std::vector<Worker> workers_;
  size_t iterations_per_epoch_ = 0;
  size_t global_iteration_ = 0;
  uint64_t total_hits_ = 0;
  uint64_t total_misses_ = 0;

  // Crash recovery. The run-cursor members below were Train() locals
  // before snapshots existed; they are engine state now so a mid-epoch
  // resume continues the epoch's accumulation bit-identically.
  double cumulative_seconds_ = 0.0;
  double epoch_loss_sum_ = 0.0;
  uint64_t epoch_pair_count_ = 0;
  /// Set only by RestoreTrainState; the next Train() starts mid-run.
  bool resume_pending_ = false;
  /// checkpoint.*/recovery.* counters that live INSIDE the training
  /// snapshot (both the crashed and the reference run take the same
  /// schedule, so merging them into reports keeps bit-identity).
  MetricRegistry engine_metrics_;
  /// Process-local restore/fallback/orphan counters — never serialized,
  /// never merged into reports (see TrainingEngine::RecoveryMetrics).
  MetricRegistry recovery_metrics_;
  /// Cold-tier -> cache promotions (tier.promotions). A plain engine
  /// counter — like the table-side cold_reads counters it must never
  /// enter serialized state, or tiered and in-RAM snapshots of the same
  /// run would diverge.
  uint64_t tier_promotions_ = 0;
  std::unique_ptr<CheckpointManager> ckpt_manager_;
  /// Degree table for rebuilding degree-weighted samplers on recovery
  /// (empty unless config_.degree_weighted_negatives).
  std::vector<uint32_t> train_degrees_;

  // Observability (src/obs/). `obs_active_` is latched from
  // config_.obs at setup; every instrumentation branch below is gated
  // on it, so disabled runs take the exact pre-obs code path. Phase
  // times are *simulated* seconds (MachineTime deltas around each Step
  // phase), cumulative over the run — deterministic at any thread
  // count, matching the Fig. 7 taxonomy.
  bool obs_active_ = false;
  struct PhaseSeconds {
    double prefetch = 0.0;
    double rebuild = 0.0;
    double pull = 0.0;
    double compute = 0.0;
    double push = 0.0;
  };
  PhaseSeconds phase_;
  /// Gauge/histogram side-registry (scheduling thread only), merged
  /// into reports by CollectObsMetrics.
  MetricRegistry obs_metrics_;

  // Validation hookup.
  const graph::KnowledgeGraph* valid_graph_ = nullptr;
  std::span<const Triple> valid_triples_;
  eval::EvalOptions valid_options_;

  // Deterministic intra-batch parallelism: worker forward/backward math
  // fans out over this pool (null when config.num_threads <= 1); the
  // scorer's ordered reduction keeps results bit-identical at any
  // thread count.
  std::unique_ptr<ThreadPool> pool_;
  ParallelBatchScorer scorer_;

  // Hot-set construction scratch (pull stage / recovery only).
  std::vector<std::span<float>> rebuild_pull_spans_;

  // -- Pipeline engine (DESIGN.md §12) ----------------------------------
  // Both modes route every iteration through these bounded queues; the
  // deterministic mode ticks the stages inline on the scheduling thread
  // (each push is immediately popped — a once-per-iteration
  // rendezvous), while --async runs one thread per stage and lets them
  // advance independently under backpressure.
  bool async_mode_ = false;
  std::unique_ptr<BoundedQueue<StepTask*>> q_sample_pull_;
  std::unique_ptr<BoundedQueue<StepTask*>> q_pull_compute_;
  std::unique_ptr<BoundedQueue<StepTask*>> q_compute_push_;
  /// HET-style bounded-staleness admission: the pull stage of iteration
  /// i waits until i <= completed + N (async mode only).
  BoundedStalenessClock clock_;
  /// Async mode: coarse lock serializing the shared PS-side state
  /// (server_, cluster_, transport_, caches, write-back maps) between
  /// the pull and push stages. Compute holds it only for its sim-flop
  /// accounting, so batch math overlaps communication.
  std::mutex ps_mu_;
  /// Task recycling (any stage thread).
  std::mutex task_mu_;
  std::vector<std::unique_ptr<StepTask>> task_pool_;
  std::vector<StepTask*> free_tasks_;
  // Per-segment sample-stage cursor (sample thread only while running).
  size_t segment_end_ = 0;
  size_t sample_next_iter_ = 0;
  uint32_t sample_next_worker_ = 0;
  /// Set by the push stage when a process fault comes due; the sample
  /// stage stops feeding at the next iteration boundary so the drained
  /// pipeline leaves a consistent barrier for recovery.
  std::atomic<bool> stop_feeding_{false};
  // Async observability, read by the driver after Join().
  size_t max_observed_lag_ = 0;        // Pull thread only.
  uint64_t staleness_waits_total_ = 0;  // Accumulated across segments.
  // Queue stall/depth profile accumulated across segments: Reopen()
  // zeroes the per-queue counters, so the driver folds each drained
  // segment's numbers in here before reopening.
  uint64_t queue_stalls_total_ = 0;
  size_t queue_high_water_sample_ = 0;
  size_t queue_high_water_compute_ = 0;
  size_t queue_high_water_push_ = 0;
};

}  // namespace hetkg::core

#endif  // HETKG_CORE_PS_ENGINE_H_
