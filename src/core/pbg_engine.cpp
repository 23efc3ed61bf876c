#include "core/pbg_engine.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "obs/trace.h"

namespace hetkg::core {

namespace {
constexpr uint64_t kUpdateFlopsPerParam = 6;
}  // namespace

PbgEngine::PbgEngine(const TrainerConfig& config,
                     const graph::KnowledgeGraph& graph)
    : config_(config),
      graph_(graph),
      cluster_(config.num_machines, config.network, config.compute),
      transport_(&cluster_, config.fault),
      rng_(config.seed ^ 0xB16) {}

Result<std::unique_ptr<PbgEngine>> PbgEngine::Create(
    const TrainerConfig& config, const graph::KnowledgeGraph& graph,
    const std::vector<Triple>& train) {
  if (config.num_machines == 0) {
    return Status::InvalidArgument("need at least one machine");
  }
  if (train.empty()) {
    return Status::InvalidArgument("empty training set");
  }
  if (config.pbg_partitions < config.num_machines) {
    return Status::InvalidArgument(
        "PBG needs at least as many partitions as machines");
  }
  std::unique_ptr<PbgEngine> engine(new PbgEngine(config, graph));
  HETKG_RETURN_IF_ERROR(engine->Setup(train));
  return engine;
}

Status PbgEngine::Setup(const std::vector<Triple>& train) {
  if (config_.sync.async_pipeline) {
    // The staged pipeline engine (DESIGN.md §12) covers the PS-based
    // systems; PBG's bucket scheduler is already its own overlap model.
    HETKG_LOG(Warning)
        << "--async applies to the PS engines; PBG trains serially";
  }
  // Kernel dispatch for the score/optimizer hot loops is process-wide
  // (DESIGN.md §10); every path is bit-identical, so it only affects
  // speed.
  embedding::kernels::LogDispatchOnce();

  HETKG_ASSIGN_OR_RETURN(
      score_fn_, embedding::MakeScoreFunction(config_.model, config_.dim));
  HETKG_ASSIGN_OR_RETURN(
      loss_fn_,
      embedding::MakeLossFunction(config_.loss, config_.margin,
                                  config_.negatives_per_positive));

  HETKG_ASSIGN_OR_RETURN(
      graph::KnowledgeGraph train_graph,
      graph::KnowledgeGraph::Create(graph_.num_entities(),
                                    graph_.num_relations(), train,
                                    "train"));
  partition::PbgBucketizer bucketizer(config_.seed);
  HETKG_ASSIGN_OR_RETURN(
      plan_, bucketizer.Build(train_graph, config_.pbg_partitions,
                              config_.num_machines));

  partition_entities_.assign(plan_.num_partitions, {});
  for (EntityId e = 0; e < graph_.num_entities(); ++e) {
    partition_entities_[plan_.entity_part[e]].push_back(e);
  }

  const size_t relation_dim = score_fn_->RelationDim(config_.dim);
  entities_ = embedding::EmbeddingTable(graph_.num_entities(), config_.dim);
  relations_ =
      embedding::EmbeddingTable(graph_.num_relations(), relation_dim);
  Rng init_rng(config_.seed ^ 0xE1B0);
  entities_.InitXavierUniform(&init_rng);
  relations_.InitXavierUniform(&init_rng);
  if (score_fn_->NormalizesEntities()) {
    for (size_t e = 0; e < entities_.num_rows(); ++e) {
      entities_.L2NormalizeRow(e);
    }
  }
  entity_opt_ = std::make_unique<embedding::AdaGrad>(
      graph_.num_entities(), config_.dim, config_.learning_rate);
  relation_opt_ = std::make_unique<embedding::AdaGrad>(
      graph_.num_relations(), relation_dim, config_.learning_rate);
  lookup_ = TableLookup(&entities_, &relations_);

  // Worker compute fans out over this pool; bucket scheduling, partition
  // swaps, and rng sampling stay single-threaded.
  if (config_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(config_.num_threads);
  }

  machine_held_.assign(config_.num_machines, {});
  obs_active_ = config_.obs.Enabled();

  HETKG_ASSIGN_OR_RETURN(
      ckpt_manager_, CheckpointManager::ForConfig(config_, &recovery_metrics_));
  return Status::OK();
}

void PbgEngine::SwapPartitions(uint32_t machine, uint32_t i, uint32_t j) {
  obs::TraceSpan span("pbg.swap", "pbg");
  span.Arg("machine", static_cast<double>(machine));
  std::vector<uint32_t> want = {i};
  if (j != i) want.push_back(j);

  auto& held = machine_held_[machine];
  const uint64_t row_bytes = config_.dim * sizeof(float);

  // Save partitions no longer needed (embeddings + optimizer state go
  // back to the shared filesystem).
  for (uint32_t p : held) {
    if (std::find(want.begin(), want.end(), p) != want.end()) continue;
    const uint64_t bytes = partition_entities_[p].size() * row_bytes * 2;
    cluster_.RecordExternalOut(machine, bytes);
    metrics_.Increment(metric::kPartitionSwaps);
    metrics_.Increment(metric::kPartitionSwapBytes, bytes);
  }
  // Load the missing ones.
  for (uint32_t p : want) {
    if (std::find(held.begin(), held.end(), p) != held.end()) continue;
    const uint64_t bytes = partition_entities_[p].size() * row_bytes * 2;
    cluster_.RecordExternalIn(machine, bytes);
    metrics_.Increment(metric::kPartitionSwaps);
    metrics_.Increment(metric::kPartitionSwapBytes, bytes);
  }
  held = want;
}

std::pair<double, uint64_t> PbgEngine::TrainBucket(uint32_t machine,
                                                   uint32_t bucket_id) {
  obs::TraceSpan bucket_span("pbg.bucket", "pbg");
  bucket_span.Arg("bucket", static_cast<double>(bucket_id));
  bucket_span.Arg("machine", static_cast<double>(machine));
  // Per-phase simulated time (see PsTrainingEngine::Step).
  const bool obs = obs_active_;
  double phase_mark =
      obs ? cluster_.MachineTime(machine).total_seconds() : 0.0;
  auto account = [&](double* bucket_seconds) {
    if (!obs) return;
    const double now = cluster_.MachineTime(machine).total_seconds();
    *bucket_seconds += now - phase_mark;
    phase_mark = now;
  };

  const uint32_t i =
      static_cast<uint32_t>(bucket_id / plan_.num_partitions);
  const uint32_t j =
      static_cast<uint32_t>(bucket_id % plan_.num_partitions);
  SwapPartitions(machine, i, j);
  account(&phase_.swap);

  // Candidate pool for corruption: only the loaded partitions (PBG
  // samples negatives from in-memory partitions).
  const auto& pool_i = partition_entities_[i];
  const auto& pool_j = partition_entities_[j];
  const size_t pool_size = pool_i.size() + (j != i ? pool_j.size() : 0);
  auto pool_at = [&](uint64_t idx) -> EntityId {
    return idx < pool_i.size() ? pool_i[idx]
                               : pool_j[idx - pool_i.size()];
  };

  std::vector<Triple> triples = plan_.bucket_triples[bucket_id];
  rng_.Shuffle(&triples);

  const size_t relation_dim = score_fn_->RelationDim(config_.dim);
  const uint64_t dense_relation_bytes =
      graph_.num_relations() * relation_dim * sizeof(float);

  double loss_sum = 0.0;
  uint64_t pairs = 0;
  const uint64_t score_flops = score_fn_->FlopsPerTriple(config_.dim);
  const size_t sync_period = std::max<size_t>(
      1, config_.pbg_relation_sync_period);
  size_t iteration_in_bucket = 0;

  std::vector<Triple> batch_negatives;
  for (size_t begin = 0; begin < triples.size();
       begin += config_.batch_size) {
    const size_t end = std::min(triples.size(), begin + config_.batch_size);
    const size_t batch_count = end - begin;

    // Materialize the batch's negatives serially first: the rng_ stream
    // (one NextBounded + one NextBernoulli per negative, in triple
    // order) is exactly what the old inline loop consumed, so sampling
    // is unchanged by the parallel scoring that follows.
    batch_negatives.clear();
    scratch_pairs_.clear();
    for (size_t b = begin; b < end; ++b) {
      const Triple& pos = triples[b];
      for (size_t k = 0; k < config_.negatives_per_positive; ++k) {
        if (pool_size == 0) break;
        const EntityId replacement = pool_at(rng_.NextBounded(pool_size));
        const bool corrupt_head = rng_.NextBernoulli(0.5);
        Triple neg = pos;
        (corrupt_head ? neg.head : neg.tail) = replacement;
        batch_negatives.push_back(neg);
        ResolvedPair pair;
        pair.positive_index = static_cast<uint32_t>(b - begin);
        scratch_pairs_.push_back(pair);
      }
    }

    // Resolve every key the batch touches to a dense index once
    // (sorted-unique list + binary search), so the score/backward hot
    // loops index spans instead of hashing.
    scratch_keys_.clear();
    for (size_t b = begin; b < end; ++b) {
      const Triple& pos = triples[b];
      scratch_keys_.push_back(EntityKey(pos.head));
      scratch_keys_.push_back(RelationKey(pos.relation));
      scratch_keys_.push_back(EntityKey(pos.tail));
    }
    for (const Triple& neg : batch_negatives) {
      scratch_keys_.push_back(EntityKey(neg.head));
      scratch_keys_.push_back(EntityKey(neg.tail));
    }
    std::sort(scratch_keys_.begin(), scratch_keys_.end());
    scratch_keys_.erase(
        std::unique(scratch_keys_.begin(), scratch_keys_.end()),
        scratch_keys_.end());
    const size_t num_keys = scratch_keys_.size();

    scratch_grad_offsets_.assign(1, 0);
    scratch_row_spans_.clear();
    for (EmbKey key : scratch_keys_) {
      if (IsRelationKey(key)) {
        scratch_row_spans_.push_back(relations_.Row(KeyRelation(key)));
        scratch_grad_offsets_.push_back(scratch_grad_offsets_.back() +
                                        relation_dim);
      } else {
        scratch_row_spans_.push_back(entities_.Row(KeyEntity(key)));
        scratch_grad_offsets_.push_back(scratch_grad_offsets_.back() +
                                        config_.dim);
      }
    }
    auto key_index = [&](EmbKey key) -> uint32_t {
      return static_cast<uint32_t>(
          std::lower_bound(scratch_keys_.begin(), scratch_keys_.end(), key) -
          scratch_keys_.begin());
    };

    scratch_positives_.clear();
    for (size_t b = begin; b < end; ++b) {
      const Triple& pos = triples[b];
      ResolvedTriple rt;
      rt.head = key_index(EntityKey(pos.head));
      rt.relation = key_index(RelationKey(pos.relation));
      rt.tail = key_index(EntityKey(pos.tail));
      scratch_positives_.push_back(rt);
    }
    for (size_t p = 0; p < scratch_pairs_.size(); ++p) {
      const Triple& neg = batch_negatives[p];
      ResolvedTriple& nt = scratch_pairs_[p].negative;
      nt.head = key_index(EntityKey(neg.head));
      nt.relation = key_index(RelationKey(neg.relation));
      nt.tail = key_index(EntityKey(neg.tail));
    }

    scratch_grads_.assign(scratch_grad_offsets_.back(), 0.0f);
    const BatchStats stats = scorer_.Run(
        *score_fn_, *loss_fn_, scratch_positives_, scratch_pairs_,
        scratch_row_spans_, scratch_grad_offsets_, scratch_grads_,
        &scratch_pos_scores_, pool_.get());
    loss_sum += stats.loss_sum;
    pairs += stats.pairs;
    const uint64_t scored = batch_count + stats.pairs;
    cluster_.RecordCompute(
        machine, (scored + stats.backward_calls) * score_flops / 2);

    // Apply updates: entities locally (the partitions are resident);
    // relations locally, then the DENSE relation weights are pushed to /
    // pulled from the shared parameter server hosted on machine 0.
    // All-zero rows were never touched by a backward call and are
    // skipped, matching the old hash-map scratch behaviour.
    uint64_t updated_params = 0;
    for (size_t k = 0; k < num_keys; ++k) {
      const std::span<float> g(
          scratch_grads_.data() + scratch_grad_offsets_[k],
          scratch_grad_offsets_[k + 1] - scratch_grad_offsets_[k]);
      const bool touched = std::any_of(g.begin(), g.end(),
                                       [](float v) { return v != 0.0f; });
      if (!touched) continue;
      updated_params += g.size();
      const EmbKey key = scratch_keys_[k];
      if (IsRelationKey(key)) {
        const RelationId r = KeyRelation(key);
        relation_opt_->ApplyBatch(r, relations_.Row(r), g);
      } else {
        const EntityId e = KeyEntity(key);
        entity_opt_->ApplyBatch(e, entities_.Row(e), g);
        if (score_fn_->NormalizesEntities()) {
          entities_.L2NormalizeRow(e);
        }
      }
    }
    cluster_.RecordCompute(machine, updated_params * kUpdateFlopsPerParam);
    account(&phase_.compute);

    // Dense relation weights round-trip to the shared parameter server
    // (hosted on machine 0) every `sync_period` iterations — PBG's
    // rate-limited asynchronous relation synchronization.
    if (iteration_in_bucket % sync_period == 0) {
      if (machine == 0) {
        cluster_.RecordLocalCopy(0, 2 * dense_relation_bytes);
        metrics_.Increment(metric::kDenseRelationBytes,
                           2 * dense_relation_bytes);
      } else {
        // Push-then-pull round-trip with the shared PS on machine 0.
        // When the exchange exhausts its retries the sync is skipped —
        // the machine trains on its local relation weights until the
        // next period (graceful degradation; PBG's async PS has the
        // same behaviour under backpressure).
        const sim::Delivery delivery = transport_.Exchange(
            machine, 0, dense_relation_bytes, dense_relation_bytes);
        if (delivery.delivered) {
          metrics_.Increment(metric::kDenseRelationBytes,
                             2 * dense_relation_bytes);
        } else {
          metrics_.Increment(metric::kTransportSkippedSyncs);
          obs::Tracer::Instant("net.skipped_sync", "net", "machine",
                               static_cast<double>(machine));
        }
      }
    }
    account(&phase_.relation_sync);
    ++iteration_in_bucket;
    metrics_.Increment(metric::kTriplesTrained, end - begin);
  }
  return {loss_sum, pairs};
}

void PbgEngine::EnableValidation(const graph::KnowledgeGraph* graph,
                                 std::span<const Triple> valid,
                                 const eval::EvalOptions& options) {
  valid_graph_ = graph;
  valid_triples_ = valid;
  valid_options_ = options;
  if (valid_options_.pool == nullptr) {
    valid_options_.pool = pool_.get();  // Lend the engine's pool.
  }
}

MetricRegistry PbgEngine::CollectObsMetrics(double sim_seconds) const {
  MetricRegistry m;
  m.Merge(metrics_);
  // Empty unless a fault fired, keeping fault-free reports unchanged.
  m.Merge(transport_.metrics());
  if (obs_active_) {
    m.SetGauge(metric::kSimSeconds, sim_seconds);
    m.SetGauge(metric::kPhaseSwapSeconds, phase_.swap);
    m.SetGauge(metric::kPhaseComputeSeconds, phase_.compute);
    m.SetGauge(metric::kPhaseRelationSyncSeconds, phase_.relation_sync);
    m.SetGauge(metric::kKernelDispatch, embedding::kernels::DispatchGauge());
  }
  return m;
}

Result<TrainReport> PbgEngine::Train(size_t num_epochs) {
  obs::TracerLease trace_lease{obs::TraceOptions{config_.obs.trace_out}};
  const bool metrics_on = config_.obs.MetricsRequested();
  Stopwatch train_wall;

  size_t start_epoch = 0;
  if (resume_pending_) {
    resume_pending_ = false;
    start_epoch = epochs_done_;
  } else {
    epochs_done_ = 0;
    cumulative_seconds_ = 0.0;
  }

  TrainReport report;
  for (size_t epoch = start_epoch; epoch < num_epochs; ++epoch) {
    obs::TraceSpan epoch_span("pbg.epoch", "pbg");
    epoch_span.Arg("epoch", static_cast<double>(epoch));
    double loss_sum = 0.0;
    uint64_t pair_count = 0;
    sim::TimeBreakdown epoch_time;
    uint64_t epoch_remote_bytes = 0;
    size_t round_index = 0;

    Stopwatch wall;
    // Lock-server rounds: buckets inside a round run concurrently on
    // distinct machines, so the round's cost is its critical path and
    // the epoch is the sum of rounds (a machine idles when its round
    // has no bucket for it — exactly PBG's scheduling stall).
    for (const auto& round : plan_.schedule) {
      cluster_.Reset();
      for (size_t slot = 0; slot < round.size(); ++slot) {
        const uint32_t machine =
            static_cast<uint32_t>(slot % config_.num_machines);
        MaybeInjectProcessFaults();
        const auto [loss, pairs] = TrainBucket(machine, round[slot]);
        loss_sum += loss;
        pair_count += pairs;
      }
      const sim::TimeBreakdown round_time = cluster_.CriticalPath();
      epoch_time.compute_seconds += round_time.compute_seconds;
      epoch_time.comm_seconds += round_time.comm_seconds;
      epoch_remote_bytes += cluster_.TotalRemoteBytes();
      ++round_index;
      const double sim_now =
          cumulative_seconds_ + epoch_time.total_seconds();
      if (obs::Tracer::Enabled()) {
        obs::Tracer::PublishSimSeconds(sim_now);
        obs::Tracer::Counter(
            "net.remote_bytes",
            static_cast<double>(report.total_remote_bytes +
                                epoch_remote_bytes));
      }
      // PBG has no iteration-level staleness window; when a window is
      // requested, sample at lock-server round granularity instead.
      if (metrics_on && config_.obs.metrics_window > 0 &&
          round_index % config_.obs.metrics_window == 0 &&
          round_index != plan_.schedule.size()) {
        obs::MetricsSample sample;
        sample.kind = "window";
        sample.epoch = epoch;
        sample.iteration = round_index;
        sample.sim_seconds = sim_now;
        sample.wall_seconds = train_wall.ElapsedSeconds();
        sample.metrics = CollectObsMetrics(sim_now);
        report.metrics_series.Add(std::move(sample));
      }
    }

    EpochReport er;
    er.epoch = epoch;
    er.mean_loss = pair_count == 0 ? 0.0 : loss_sum / pair_count;
    er.epoch_time = epoch_time;
    cumulative_seconds_ += epoch_time.total_seconds();
    er.cumulative_seconds = cumulative_seconds_;
    er.wall_seconds = wall.ElapsedSeconds();
    er.cache_hit_ratio = 0.0;
    er.remote_bytes = epoch_remote_bytes;
    report.total_remote_bytes += epoch_remote_bytes;
    report.total_time.compute_seconds += epoch_time.compute_seconds;
    report.total_time.comm_seconds += epoch_time.comm_seconds;
    report.total_wall_seconds += er.wall_seconds;

    if (valid_graph_ != nullptr && !valid_triples_.empty()) {
      HETKG_ASSIGN_OR_RETURN(
          er.valid_metrics,
          eval::EvaluateLinkPrediction(lookup_, *score_fn_, *valid_graph_,
                                       valid_triples_, valid_options_));
      er.has_valid_metrics = true;
    }
    report.epochs.push_back(er);
    epochs_done_ = epoch + 1;

    if (ckpt_manager_ != nullptr && config_.checkpoint_every > 0 &&
        epochs_done_ % config_.checkpoint_every == 0) {
      obs::TraceSpan ckpt_span("ckpt.save", "ckpt");
      ckpt_span.Arg("epoch", static_cast<double>(epochs_done_));
      embedding::CheckpointWriter writer;
      BuildSnapshot(&writer);
      // PBG counts saves in the process-local registry (unlike the PS
      // engines, whose save counters ride inside the snapshot): the
      // serialized metrics_ then never mention checkpointing, so a
      // resumed run's report matches a reference run trained without
      // any checkpoint configuration at all.
      recovery_metrics_.Increment(metric::kCheckpointSaves);
      recovery_metrics_.Increment(metric::kCheckpointBytes,
                                  writer.payload_bytes());
      HETKG_RETURN_IF_ERROR(ckpt_manager_->Save(epochs_done_, writer));
    }

    if (metrics_on) {
      obs::MetricsSample sample;
      sample.kind = "epoch";
      sample.epoch = epoch;
      sample.iteration = plan_.schedule.size();
      sample.sim_seconds = cumulative_seconds_;
      sample.wall_seconds = train_wall.ElapsedSeconds();
      sample.metrics = CollectObsMetrics(cumulative_seconds_);
      report.metrics_series.Add(std::move(sample));
    }
  }
  report.metrics = CollectObsMetrics(cumulative_seconds_);
  if (trace_lease.owns()) {
    const uint64_t dropped = obs::Tracer::DroppedEvents();
    if (dropped > 0) {
      report.metrics.Increment(metric::kTraceDroppedEvents, dropped);
    }
    const Status trace_status = trace_lease.Finish();
    if (!trace_status.ok()) {
      HETKG_LOG(Warning) << "trace write failed: "
                         << trace_status.ToString();
    }
  }
  if (metrics_on) {
    const Status status =
        report.metrics_series.WriteJson(config_.obs.metrics_json);
    if (!status.ok()) {
      HETKG_LOG(Warning) << "metrics export failed: " << status.ToString();
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// Crash recovery (DESIGN.md §9), epoch granularity.

void PbgEngine::MaybeInjectProcessFaults() {
  if (!transport_.HasPendingProcessFaults()) return;
  for (const sim::ProcessFault& fault : transport_.TakeDueProcessFaults()) {
    if (fault.machine >= config_.num_machines) {
      HETKG_LOG(Warning) << "process fault targets machine "
                         << fault.machine << " of " << config_.num_machines
                         << "; ignored";
      continue;
    }
    switch (fault.kind) {
      case sim::ProcessFaultKind::kWorkerCrash:
        obs::Tracer::Instant("recovery.worker_crash", "recovery",
                             "machine", static_cast<double>(fault.machine));
        // The crashed trainer loses its resident partitions; the next
        // bucket it takes reloads them from the shared filesystem
        // through the ordinary SwapPartitions accounting. Partition
        // saves happen at bucket boundaries, so nothing written there
        // is lost.
        machine_held_[fault.machine].clear();
        metrics_.Increment(metric::kRecoveryWorkerCrashes);
        break;
      case sim::ProcessFaultKind::kPsShardRestart:
        // The shared relation PS mirrors dense weights every machine
        // also holds locally; a restart re-seeds from any trainer's
        // copy at the next sync, so only the event is recorded.
        obs::Tracer::Instant("recovery.ps_shard_restart", "recovery",
                             "machine", static_cast<double>(fault.machine));
        metrics_.Increment(metric::kRecoveryPsShardRestarts);
        break;
    }
  }
}

TrainerMeta PbgEngine::SnapshotMeta() const {
  return {std::string(name()), config_.num_machines, config_.dim,
          score_fn_->RelationDim(config_.dim), config_.batch_size,
          config_.pbg_partitions, config_.seed};
}

void PbgEngine::BuildSnapshot(embedding::CheckpointWriter* writer) const {
  SnapshotMeta().Encode(writer);
  embedding::AppendTableSection(writer, embedding::SectionTag::kEntityTable,
                                entities_);
  embedding::AppendTableSection(writer,
                                embedding::SectionTag::kRelationTable,
                                relations_);

  ByteWriter state;
  state.U64(epochs_done_);
  state.F64(cumulative_seconds_);
  state.F64(phase_.swap);
  state.F64(phase_.compute);
  state.F64(phase_.relation_sync);
  rng_.SaveState(&state);
  entity_opt_->SaveState(&state);
  relation_opt_->SaveState(&state);
  state.U64(machine_held_.size());
  for (const std::vector<uint32_t>& held : machine_held_) {
    state.U64(held.size());
    for (uint32_t p : held) state.U32(p);
  }
  metrics_.SaveState(&state);
  writer->AddSection(embedding::SectionTag::kPbgState, std::move(state));

  EncodeClusterSection(cluster_, transport_, writer);
}

Result<Commit> PbgEngine::StagePbgState(std::string_view payload) {
  ByteReader r(payload);
  const uint64_t epochs_done = r.U64();
  const double cumulative = r.F64();
  PhaseSeconds phase;
  phase.swap = r.F64();
  phase.compute = r.F64();
  phase.relation_sync = r.F64();
  const Status bad = Status::Corruption("bad PBG state section");
  Rng rng(0);
  if (!r.ok() || !rng.LoadState(&r)) return bad;
  Commit entity_opt = entity_opt_->StageState(&r);
  Commit relation_opt = entity_opt ? relation_opt_->StageState(&r) : Commit();
  const uint64_t held_count = r.U64();
  if (!relation_opt || !r.ok() || held_count != machine_held_.size()) {
    return bad;
  }
  std::vector<std::vector<uint32_t>> held(machine_held_.size());
  for (std::vector<uint32_t>& partitions_held : held) {
    const uint64_t n = r.U64();
    if (!r.ok() || n > plan_.num_partitions) return bad;
    partitions_held.resize(n);
    for (uint32_t& p : partitions_held) {
      p = r.U32();
      if (!r.ok() || p >= plan_.num_partitions) return bad;
    }
  }
  MetricRegistry metrics;
  if (!metrics.LoadState(&r) || r.remaining() != 0) return bad;
  return Commit([=, this, entity_opt = std::move(entity_opt),
                 relation_opt = std::move(relation_opt),
                 held = std::move(held),
                 metrics = std::move(metrics)]() mutable {
    entity_opt();
    relation_opt();
    rng_ = rng;
    machine_held_ = std::move(held);
    metrics_ = std::move(metrics);
    epochs_done_ = static_cast<size_t>(epochs_done);
    cumulative_seconds_ = cumulative;
    phase_ = phase;
  });
}

Result<Commit> PbgEngine::StageSnapshotSection(embedding::SectionTag tag,
                                               std::string_view payload) {
  switch (tag) {
    case embedding::SectionTag::kTrainerMeta: {
      HETKG_ASSIGN_OR_RETURN(const TrainerMeta meta,
                             TrainerMeta::Decode(payload));
      HETKG_RETURN_IF_ERROR(SnapshotMeta().Match(meta));
      return Commit([] {});
    }
    case embedding::SectionTag::kPbgState:
      return StagePbgState(payload);
    case embedding::SectionTag::kClusterState:
      return StageClusterSection(payload, &cluster_, &transport_);
    default:
      return Status::InvalidArgument("not a PBG engine section");
  }
}

Status PbgEngine::SaveTrainState(const std::string& path) const {
  embedding::CheckpointWriter writer;
  BuildSnapshot(&writer);
  return writer.WriteAtomic(path, config_.checkpoint_fsync);
}

Status PbgEngine::RestoreFromFile(const std::string& path) {
  using embedding::SectionTag;
  HETKG_ASSIGN_OR_RETURN(const embedding::CheckpointReader reader,
                         embedding::CheckpointReader::Open(path));
  // Decode every section before the first commit, so a rejected
  // snapshot leaves the engine untouched.
  std::vector<Commit> staged;
  for (const SectionTag tag : {SectionTag::kTrainerMeta,
                               SectionTag::kPbgState,
                               SectionTag::kClusterState}) {
    HETKG_ASSIGN_OR_RETURN(const std::string_view payload,
                           RequireSection(reader, tag));
    HETKG_ASSIGN_OR_RETURN(staged.emplace_back(),
                           StageSnapshotSection(tag, payload));
  }
  HETKG_ASSIGN_OR_RETURN(
      embedding::EmbeddingTable entities,
      ReadTableSection(reader, SectionTag::kEntityTable));
  HETKG_ASSIGN_OR_RETURN(
      embedding::EmbeddingTable relations,
      ReadTableSection(reader, SectionTag::kRelationTable));
  if (entities.num_rows() != entities_.num_rows() ||
      entities.dim() != entities_.dim() ||
      relations.num_rows() != relations_.num_rows() ||
      relations.dim() != relations_.dim()) {
    return Status::Corruption("snapshot table shape mismatch");
  }

  for (const Commit& commit : staged) commit();
  entities_ = std::move(entities);
  relations_ = std::move(relations);
  lookup_ = TableLookup(&entities_, &relations_);
  resume_pending_ = true;
  return Status::OK();
}

Status PbgEngine::RestoreTrainState(const std::string& path_or_dir) {
  HETKG_RETURN_IF_ERROR(CheckpointManager::TryCandidates(
      path_or_dir, &recovery_metrics_,
      [this](const std::string& path) { return RestoreFromFile(path); }));
  recovery_metrics_.Increment(metric::kCheckpointRestores);
  obs::Tracer::Instant("ckpt.restore", "ckpt", "epoch",
                       static_cast<double>(epochs_done_));
  return Status::OK();
}

}  // namespace hetkg::core
