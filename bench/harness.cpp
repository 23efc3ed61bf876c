#include "harness.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/logging.h"
#include "common/proc_stats.h"
#include "graph/serialize.h"

namespace hetkg::bench {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  HETKG_CHECK(cells.size() == headers_.size())
      << "row has " << cells.size() << " cells, expected " << headers_.size();
  rows_.push_back(std::move(cells));
}

std::string Table::ToString() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (size_t c = 0; c < row.size(); ++c) {
      os << " " << row[c];
      os << std::string(widths[c] - row[c].size(), ' ') << " |";
    }
    os << "\n";
  };
  emit_row(headers_);
  os << "|";
  for (size_t c = 0; c < headers_.size(); ++c) {
    os << std::string(widths[c] + 2, '-') << "|";
  }
  os << "\n";
  for (const auto& row : rows_) {
    emit_row(row);
  }
  return os.str();
}

std::string Table::ToCsv() const {
  std::string out;
  auto emit_row = [&out](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c != 0) out.push_back(',');
      const std::string& cell = row[c];
      if (cell.find_first_of(",\"\n\r") == std::string::npos) {
        out.append(cell);
        continue;
      }
      out.push_back('"');
      for (char ch : cell) {
        if (ch == '"') out.push_back('"');
        out.push_back(ch);
      }
      out.push_back('"');
    }
    out.push_back('\n');
  };
  emit_row(headers_);
  for (const auto& row : rows_) {
    emit_row(row);
  }
  return out;
}

void Table::Print(const std::string& title) const {
  std::printf("\n== %s ==\n%s", title.c_str(), ToString().c_str());
  std::fflush(stdout);
}

std::string Fmt(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

void PrintBanner(const std::string& name, const std::string& what) {
  std::printf("==============================================================\n");
  std::printf("%s\nReproduces: %s\n", name.c_str(), what.c_str());
  std::printf("==============================================================\n");
  std::fflush(stdout);
}

void DefineCommonFlags(FlagParser* flags) {
  flags->Define("dim", "16", "embedding dimension (paper: 400)");
  flags->Define("epochs", "6", "training epochs");
  flags->Define("machines", "4", "simulated machines / workers");
  flags->Define("lr", "0.1", "AdaGrad learning rate");
  flags->Define("batch", "32", "mini-batch size per worker (paper Table II)");
  flags->Define("negatives", "8", "negatives per positive (paper Table II)");
  flags->Define("cache", "64", "hot-embedding cache rows per worker");
  flags->Define("staleness", "8", "staleness bound P (iterations)");
  flags->Define("dps_window", "64", "DPS prefetch window D (iterations)");
  flags->Define("entity_ratio", "0.25", "entity share of the cache");
  flags->Define("triple_fraction", "0.25",
                "fraction of the dataset's triples to generate");
  flags->Define("freebase_scale", "0.002",
                "Freebase-86m entity/triple scale (paper: 1.0; full scale "
                "needs --storage=tiered to fit in RAM)");
  flags->Define("eval_triples", "400", "test triples evaluated (0 = all)");
  flags->Define("eval_candidates", "1000",
                "ranking candidates (0 = all entities)");
  flags->Define("threads", "1",
                "compute threads for the intra-batch forward/backward "
                "fan-out (bit-identical results at any value)");
  flags->Define("seed", "1234", "global seed");
  // Async pipeline engine (DESIGN.md §12). Off by default: the
  // deterministic mode ticks the stages in lockstep and stays
  // bit-identical to the pre-pipeline engine.
  flags->Define("async", "false",
                "run the PS engines' sample/pull/compute/push stages on "
                "their own threads with bounded-staleness overlap "
                "(results no longer bit-reproducible run to run)");
  flags->Define("max_pipeline_staleness", "2",
                "async mode: iterations the pull stage may run ahead of "
                "the last fully pushed iteration (0 = rendezvous)");
  // Fault-injection transport knobs (sim/transport.h). All-zero
  // probabilities (the default) keep the perfect-network behaviour
  // bit-identical; a fixed --fault_seed replays a scenario exactly.
  flags->Define("fault_drop", "0",
                "probability one wire attempt is lost in the network");
  flags->Define("fault_duplicate", "0",
                "probability a delivered message arrives twice");
  flags->Define("fault_delay", "0",
                "probability a delivered message is late");
  flags->Define("fault_delay_us", "500",
                "modeled lateness of one delayed delivery (microseconds)");
  flags->Define("fault_retries", "3",
                "retransmissions before the sender gives up");
  flags->Define("fault_backoff_us", "200",
                "first retry backoff (microseconds, doubles per retry)");
  flags->Define("fault_seed", "42", "seed of the deterministic fault plan");
  // Process-level fault events (DESIGN.md §9). Unlike the probability
  // knobs these are explicit schedules on the transport's logical
  // clock, so a crash scenario replays bit-identically; they fire even
  // when every probability above is zero.
  flags->Define("fault_worker_crash", "",
                "scheduled worker crashes as machine:tick[,machine:tick...] "
                "on the transport's logical clock (empty = none)");
  flags->Define("fault_ps_restart", "",
                "scheduled PS shard restarts as machine:tick[,...] "
                "(empty = none)");
  flags->Define("fault_halt_after", "0",
                "simulate a hard crash: stop training after N global "
                "iterations without flushing (0 = run to completion)");
  // Crash-recovery checkpointing (DESIGN.md §9).
  flags->Define("checkpoint_dir", "",
                "directory receiving periodic full-training-state "
                "snapshots + MANIFEST (empty = checkpointing off)");
  flags->Define("checkpoint_every", "0",
                "snapshot every N global iterations (PBG: every N "
                "epochs; 0 = no periodic saves)");
  flags->Define("keep_checkpoints", "3",
                "retained snapshots; older ones are pruned (0 = keep all)");
  flags->Define("resume_from", "",
                "resume training from a snapshot file or checkpoint "
                "directory (newest valid manifest entry wins)");
  flags->Define("checkpoint_fsync", "true",
                "fsync snapshot/manifest temp files before the rename "
                "and the directory after it (power-loss durability; "
                "false = faster saves, process-crash durability only)");
  // Observability outputs (src/obs/, DESIGN.md §8). Empty paths keep
  // tracing and metrics export disabled, which is bit-identical to a
  // build without the obs layer.
  flags->Define("trace_out", "",
                "Chrome/Perfetto trace-event JSON output path "
                "(empty = tracing off)");
  flags->Define("metrics_json", "",
                "per-epoch metrics time-series JSON output path "
                "(empty = export off)");
  flags->Define("metrics_window", "0",
                "also sample metrics every N iterations within an epoch "
                "(0 = per-epoch only; needs --metrics_json)");
  // Two-tier embedding storage (DESIGN.md §16).
  flags->Define("storage", "ram",
                "embedding table backing: ram (all rows resident) | "
                "tiered (mmap-backed cold tier; PS engines only)");
  flags->Define("cold_dir", "",
                "directory for the tiered cold-tier slab files (required "
                "with --storage=tiered)");
  flags->Define("cold_dtype", "fp32",
                "cold-tier row encoding: fp32 | fp16 | int8");
}

Result<std::vector<sim::ProcessFault>> ParseProcessFaultSpec(
    const std::string& spec, sim::ProcessFaultKind kind) {
  std::vector<sim::ProcessFault> events;
  size_t pos = 0;
  while (pos <= spec.size() && !spec.empty()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    const size_t colon = item.find(':');
    // Both fields must be non-empty pure-digit runs. strtoul alone is
    // too lenient here: it skips leading whitespace, accepts a sign
    // (strtoull silently WRAPS "-5" to ULLONG_MAX - 4 with no ERANGE),
    // and an empty field like ":5" parses zero digits yet lands end ==
    // start, which the pointer check below cannot distinguish.
    const auto all_digits = [&item](size_t from, size_t to) {
      if (from >= to) return false;
      for (size_t i = from; i < to; ++i) {
        if (item[i] < '0' || item[i] > '9') return false;
      }
      return true;
    };
    if (colon == std::string::npos || !all_digits(0, colon) ||
        !all_digits(colon + 1, item.size())) {
      return Status::InvalidArgument("bad event \"" + item +
                                     "\" (want machine:tick)");
    }
    char* end = nullptr;
    sim::ProcessFault fault;
    fault.kind = kind;
    errno = 0;
    const unsigned long machine = std::strtoul(item.c_str(), &end, 10);
    // strtoul both clamps at ULONG_MAX (ERANGE) and, on LP64, happily
    // returns values a uint32 machine id cannot hold — either way the
    // schedule would silently target the wrong machine.
    if (errno == ERANGE || machine > UINT32_MAX) {
      return Status::InvalidArgument("machine id out of range in \"" + item +
                                     "\"");
    }
    fault.machine = static_cast<uint32_t>(machine);
    errno = 0;
    fault.tick = std::strtoull(item.c_str() + colon + 1, &end, 10);
    if (end != item.c_str() + item.size()) {
      return Status::InvalidArgument("bad event \"" + item +
                                     "\" (want machine:tick)");
    }
    // An overflowing tick clamps to ULLONG_MAX: the fault would wait
    // forever instead of firing — reject it instead.
    if (errno == ERANGE) {
      return Status::InvalidArgument("tick out of range in \"" + item +
                                     "\"");
    }
    events.push_back(fault);
    if (comma == spec.size()) break;
    pos = comma + 1;
  }
  return events;
}

namespace {

/// Flag plumbing around ParseProcessFaultSpec: malformed or
/// out-of-range schedules are rejected loudly (exit 2) rather than
/// silently skipped or clamped — a typo'd crash schedule must not turn
/// a recovery bench into a fault-free run.
std::vector<sim::ProcessFault> ParseProcessFaults(
    const std::string& spec, sim::ProcessFaultKind kind,
    const char* flag_name) {
  Result<std::vector<sim::ProcessFault>> events =
      ParseProcessFaultSpec(spec, kind);
  if (!events.ok()) {
    std::fprintf(stderr, "--%s: %s\n", flag_name,
                 events.status().message().c_str());
    std::exit(2);
  }
  return std::move(events).value();
}

}  // namespace

sim::FaultConfig FaultConfigFromFlags(const FlagParser& flags) {
  sim::FaultConfig fault;
  fault.drop_prob = flags.GetDouble("fault_drop");
  fault.duplicate_prob = flags.GetDouble("fault_duplicate");
  fault.delay_prob = flags.GetDouble("fault_delay");
  fault.delay_seconds = flags.GetDouble("fault_delay_us") * 1e-6;
  fault.max_retries = static_cast<size_t>(flags.GetInt("fault_retries"));
  fault.retry_backoff_seconds = flags.GetDouble("fault_backoff_us") * 1e-6;
  fault.seed = static_cast<uint64_t>(flags.GetInt("fault_seed"));
  fault.enabled = fault.drop_prob > 0.0 || fault.duplicate_prob > 0.0 ||
                  fault.delay_prob > 0.0;
  for (const sim::ProcessFault& f : ParseProcessFaults(
           flags.GetString("fault_worker_crash"),
           sim::ProcessFaultKind::kWorkerCrash, "fault_worker_crash")) {
    fault.process_faults.push_back(f);
  }
  for (const sim::ProcessFault& f : ParseProcessFaults(
           flags.GetString("fault_ps_restart"),
           sim::ProcessFaultKind::kPsShardRestart, "fault_ps_restart")) {
    fault.process_faults.push_back(f);
  }
  return fault;
}

obs::ObsConfig ObsConfigFromFlags(const FlagParser& flags) {
  obs::ObsConfig obs;
  obs.trace_out = flags.GetString("trace_out");
  obs.metrics_json = flags.GetString("metrics_json");
  obs.metrics_window = static_cast<size_t>(flags.GetInt("metrics_window"));
  return obs;
}

std::string SuffixedPath(const std::string& path, const std::string& tag) {
  if (path.empty() || tag.empty()) return path;
  const size_t slash = path.find_last_of('/');
  const size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + "_" + tag;
  }
  return path.substr(0, dot) + "_" + tag + path.substr(dot);
}

core::TrainerConfig ConfigFromFlags(const FlagParser& flags) {
  core::TrainerConfig config;
  config.dim = static_cast<size_t>(flags.GetInt("dim"));
  config.learning_rate = flags.GetDouble("lr");
  config.batch_size = static_cast<size_t>(flags.GetInt("batch"));
  config.negatives_per_positive =
      static_cast<size_t>(flags.GetInt("negatives"));
  config.negative_chunk_size = std::max<size_t>(
      1, config.negatives_per_positive);
  config.num_machines = static_cast<size_t>(flags.GetInt("machines"));
  config.cache_capacity = static_cast<size_t>(flags.GetInt("cache"));
  config.cache_entity_ratio = flags.GetDouble("entity_ratio");
  config.sync.staleness_bound =
      static_cast<size_t>(flags.GetInt("staleness"));
  config.sync.dps_window = static_cast<size_t>(flags.GetInt("dps_window"));
  config.sync.async_pipeline = flags.GetBool("async");
  config.sync.pipeline_staleness =
      static_cast<size_t>(flags.GetInt("max_pipeline_staleness"));
  config.pbg_partitions = 2 * config.num_machines;
  config.num_threads = static_cast<size_t>(flags.GetInt("threads"));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  config.fault = FaultConfigFromFlags(flags);
  config.obs = ObsConfigFromFlags(flags);
  config.checkpoint_dir = flags.GetString("checkpoint_dir");
  config.checkpoint_every =
      static_cast<size_t>(flags.GetInt("checkpoint_every"));
  config.keep_checkpoints =
      static_cast<size_t>(flags.GetInt("keep_checkpoints"));
  config.resume_from = flags.GetString("resume_from");
  config.halt_after_iterations =
      static_cast<size_t>(flags.GetInt("fault_halt_after"));
  config.checkpoint_fsync = flags.GetBool("checkpoint_fsync");
  const std::string storage = flags.GetString("storage");
  HETKG_CHECK(storage == "ram" || storage == "tiered")
      << "--storage: want ram | tiered, got \"" << storage << "\"";
  if (storage == "tiered") {
    HETKG_CHECK(!flags.GetString("cold_dir").empty())
        << "--storage=tiered needs --cold_dir=<dir>";
    auto dtype = embedding::ParseColdDtype(flags.GetString("cold_dtype"));
    HETKG_CHECK(dtype.ok()) << dtype.status().ToString();
    config.storage.enabled = true;
    config.storage.cold_dir = flags.GetString("cold_dir");
    config.storage.dtype = *dtype;
  }
  return config;
}

eval::EvalOptions EvalOptionsFromFlags(const FlagParser& flags) {
  eval::EvalOptions options;
  options.max_triples = static_cast<size_t>(flags.GetInt("eval_triples"));
  options.num_candidates =
      static_cast<size_t>(flags.GetInt("eval_candidates"));
  options.num_threads = static_cast<size_t>(flags.GetInt("threads"));
  options.seed = static_cast<uint64_t>(flags.GetInt("seed")) ^ 0xEEAA;
  return options;
}

graph::SyntheticDataset GetDataset(const std::string& name,
                                   const FlagParser& flags) {
  const double fraction = flags.GetDouble("triple_fraction");
  graph::SyntheticSpec spec;
  if (name == "fb15k") {
    spec = graph::Fb15kSpec();
  } else if (name == "wn18") {
    spec = graph::Wn18Spec();
  } else if (name == "freebase86m") {
    spec = graph::Freebase86mSpec(flags.GetDouble("freebase_scale"));
  } else {
    HETKG_CHECK(false) << "unknown dataset: " << name;
  }
  spec.num_triples = std::max<size_t>(
      10000, static_cast<size_t>(spec.num_triples * fraction));

  // Generation is the slowest part of a bench run; cache the snapshot
  // keyed by every generation parameter.
  char cache_path[256];
  std::snprintf(cache_path, sizeof(cache_path),
                "/tmp/hetkg_dataset_%s_%zu_%zu_%zu_%.3f_%.3f_%zu_%zu_%llu.bin",
                spec.name.c_str(), spec.num_entities, spec.num_relations,
                spec.num_triples, spec.entity_exponent,
                spec.relation_exponent, spec.latent_dim,
                spec.tail_candidates,
                static_cast<unsigned long long>(spec.seed));
  if (auto cached = graph::LoadDataset(cache_path); cached.ok()) {
    return graph::SyntheticDataset{std::move(cached->graph),
                                   std::move(cached->split)};
  }
  auto dataset = graph::GenerateDataset(spec);
  HETKG_CHECK(dataset.ok()) << dataset.status().ToString();
  graph::SaveDataset(cache_path, dataset->graph, dataset->split)
      .ok();  // Best-effort; regeneration is always possible.
  return std::move(dataset).value();
}

void InitBench(FlagParser* flags, int argc, char** argv) {
  const Status status = flags->Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags->Usage(argv[0]).c_str());
    std::exit(2);
  }
  SetLogLevel(LogLevel::kWarning);
}

void ApplyDatasetDefaults(const std::string& dataset_name,
                          const FlagParser& flags,
                          core::TrainerConfig* config) {
  if (dataset_name != "freebase86m") return;
  if (!flags.IsSet("batch")) {
    config->batch_size = 512;  // Paper Table II: b = 512 on Freebase-86m.
    config->negative_chunk_size = std::max(
        config->negative_chunk_size, config->negatives_per_positive);
  }
  if (!flags.IsSet("cache")) {
    // "setting the top-k value larger" (Sec. VI-B3): bigger batches make
    // more rows profitable to cache.
    config->cache_capacity = 1024;
  }
}

RunOutcome RunSystem(core::SystemKind system,
                     const core::TrainerConfig& config,
                     const graph::SyntheticDataset& dataset,
                     size_t num_epochs, const eval::EvalOptions& eval_options,
                     bool with_validation_curve) {
  // Benches train several systems against one set of flags; give each
  // run its own trace/metrics file instead of overwriting the last.
  core::TrainerConfig run_config = config;
  const std::string tag(core::SystemKindName(system));
  run_config.obs.trace_out = SuffixedPath(config.obs.trace_out, tag);
  run_config.obs.metrics_json = SuffixedPath(config.obs.metrics_json, tag);
  auto engine = core::MakeEngine(system, run_config, dataset.graph,
                                 dataset.split.train);
  HETKG_CHECK(engine.ok()) << engine.status().ToString();
  if (with_validation_curve) {
    eval::EvalOptions valid_options = eval_options;
    valid_options.max_triples =
        std::min<size_t>(eval_options.max_triples == 0
                             ? 200
                             : eval_options.max_triples,
                         200);
    (*engine)->EnableValidation(&dataset.graph, dataset.split.valid,
                                valid_options);
  }
  if (!run_config.resume_from.empty()) {
    const Status status =
        (*engine)->RestoreTrainState(run_config.resume_from);
    HETKG_CHECK(status.ok()) << status.ToString();
  }
  auto report = (*engine)->Train(num_epochs);
  HETKG_CHECK(report.ok()) << report.status().ToString();
  auto metrics = eval::EvaluateLinkPrediction(
      (*engine)->Embeddings(), (*engine)->ScoreFn(), dataset.graph,
      dataset.split.test, eval_options);
  HETKG_CHECK(metrics.ok()) << metrics.status().ToString();
  return RunOutcome{std::move(report).value(), std::move(metrics).value()};
}

void RunLinkPredictionTable(const std::string& title,
                            const graph::SyntheticDataset& dataset,
                            const core::TrainerConfig& base_config,
                            const std::vector<embedding::ModelKind>& models,
                            size_t num_epochs,
                            const eval::EvalOptions& eval_options) {
  static const core::SystemKind kSystems[] = {
      core::SystemKind::kPbg, core::SystemKind::kDglKe,
      core::SystemKind::kHetKgCps, core::SystemKind::kHetKgDps};
  Table table({"System", "Model", "MRR", "Hits@1", "Hits@10", "Time(s)",
               "Hit ratio", "Rows/s", "RSS(MB)"});
  for (embedding::ModelKind model : models) {
    for (core::SystemKind system : kSystems) {
      core::TrainerConfig config = base_config;
      config.model = model;
      // PBG rejects --storage=tiered (it swaps whole partitions from
      // disk by design — that IS its tiering); keep the baseline
      // comparable by running it in-RAM as always.
      if (system == core::SystemKind::kPbg) config.storage = {};
      // RunSystem adds the per-system suffix; the model tag here keeps
      // multi-model tables from reusing a file across models.
      const std::string tag(embedding::ModelKindName(model));
      config.obs.trace_out = SuffixedPath(base_config.obs.trace_out, tag);
      config.obs.metrics_json =
          SuffixedPath(base_config.obs.metrics_json, tag);
      const RunOutcome outcome = RunSystem(system, config, dataset,
                                           num_epochs, eval_options);
      // Trained-triples throughput against real wall time (the
      // simulated Time(s) column models the cluster critical path, not
      // this process), and the process RSS right after the run — the
      // number the tiered storage mode exists to shrink.
      const double wall = outcome.report.total_wall_seconds;
      const double rows_per_sec =
          wall > 0.0 ? static_cast<double>(dataset.split.train.size()) *
                           static_cast<double>(num_epochs) / wall
                     : 0.0;
      table.AddRow({std::string(core::SystemKindName(system)),
                    std::string(embedding::ModelKindName(model)),
                    Fmt(outcome.test_metrics.mrr, 3),
                    Fmt(outcome.test_metrics.hits1, 3),
                    Fmt(outcome.test_metrics.hits10, 3),
                    Fmt(outcome.report.total_time.total_seconds(), 2),
                    system == core::SystemKind::kPbg ||
                            system == core::SystemKind::kDglKe
                        ? "-"
                        : Fmt(outcome.report.overall_hit_ratio, 3),
                    Fmt(rows_per_sec, 0),
                    Fmt(static_cast<double>(CurrentRssBytes()) / 1048576.0,
                        1)});
    }
  }
  table.Print(title);
}

}  // namespace hetkg::bench
