// Full command-line trainer: pick a dataset (synthetic preset or TSV
// files), a system, a model, and the cache/sync knobs; train; evaluate;
// optionally checkpoint. This is the "binary you would actually deploy"
// walkthrough of the public API.
//
//   ./example_hetkg_train --dataset fb15k --system hetkg-d --model transe
//       --epochs 10 --dim 32 --checkpoint /tmp/model.ck
//   ./example_hetkg_train --train train.tsv --valid valid.tsv --test test.tsv
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "hetkg/hetkg.h"

namespace {

// Parses a "machine:tick[,machine:tick...]" process-fault schedule;
// exits with usage on malformed input — including machine ids that do
// not fit a uint32 and ticks that overflow uint64 (ERANGE) — so a
// typo'd crash scenario never silently degrades or wraps around.
std::vector<hetkg::sim::ProcessFault> ParseProcessFaults(
    const std::string& spec, hetkg::sim::ProcessFaultKind kind,
    const char* flag_name) {
  std::vector<hetkg::sim::ProcessFault> events;
  size_t pos = 0;
  while (!spec.empty() && pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    const size_t colon = item.find(':');
    // Both fields must be non-empty pure-digit runs: strtoul skips
    // whitespace, accepts signs (strtoull wraps "-5" without ERANGE),
    // and parses zero digits for an empty field like ":5".
    const auto all_digits = [&item](size_t from, size_t to) {
      if (from >= to) return false;
      for (size_t i = from; i < to; ++i) {
        if (item[i] < '0' || item[i] > '9') return false;
      }
      return true;
    };
    if (colon == std::string::npos || !all_digits(0, colon) ||
        !all_digits(colon + 1, item.size())) {
      std::fprintf(stderr, "--%s: bad event \"%s\" (want machine:tick)\n",
                   flag_name, item.c_str());
      std::exit(2);
    }
    char* end = nullptr;
    hetkg::sim::ProcessFault fault;
    fault.kind = kind;
    errno = 0;
    const unsigned long machine = std::strtoul(item.c_str(), &end, 10);
    if (errno == ERANGE || machine > UINT32_MAX) {
      std::fprintf(stderr, "--%s: machine id out of range in \"%s\"\n",
                   flag_name, item.c_str());
      std::exit(2);
    }
    fault.machine = static_cast<uint32_t>(machine);
    errno = 0;
    fault.tick = std::strtoull(item.c_str() + colon + 1, &end, 10);
    if (end != item.c_str() + item.size()) {
      std::fprintf(stderr, "--%s: bad event \"%s\" (want machine:tick)\n",
                   flag_name, item.c_str());
      std::exit(2);
    }
    if (errno == ERANGE) {
      std::fprintf(stderr, "--%s: tick out of range in \"%s\"\n",
                   flag_name, item.c_str());
      std::exit(2);
    }
    events.push_back(fault);
    if (comma == spec.size()) break;
    pos = comma + 1;
  }
  return events;
}

// Parses a "machine:iter[,machine:iter...]" real-kill schedule for the
// process runtime (the worker SIGKILLs itself at that step command).
std::vector<hetkg::net::ProcKill> ParseProcKills(const std::string& spec) {
  std::vector<hetkg::net::ProcKill> kills;
  for (const hetkg::sim::ProcessFault& f : ParseProcessFaults(
           spec, hetkg::sim::ProcessFaultKind::kWorkerCrash, "proc_kill")) {
    kills.push_back(hetkg::net::ProcKill{f.machine, f.tick});
  }
  return kills;
}

// Splits "host:port"; exits with usage on malformed input.
std::pair<std::string, uint16_t> ParseHostPort(const std::string& spec) {
  const size_t colon = spec.rfind(':');
  char* end = nullptr;
  errno = 0;
  const unsigned long port =
      colon == std::string::npos
          ? 0
          : std::strtoul(spec.c_str() + colon + 1, &end, 10);
  if (colon == std::string::npos || colon == 0 ||
      end != spec.c_str() + spec.size() || errno == ERANGE || port == 0 ||
      port > 65535) {
    std::fprintf(stderr, "--connect: want host:port, got \"%s\"\n",
                 spec.c_str());
    std::exit(2);
  }
  return {spec.substr(0, colon), static_cast<uint16_t>(port)};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hetkg;

  FlagParser flags;
  flags.Define("dataset", "fb15k",
               "synthetic preset: fb15k | wn18 | freebase86m (ignored when "
               "--train is given)");
  flags.Define("triple_fraction", "0.1", "scale of the synthetic dataset");
  flags.Define("freebase_scale", "0.002",
               "scale of the freebase86m synthetic preset: 1.0 = full "
               "86.1M entities (needs --storage=tiered to fit)");
  flags.Define("train", "", "TSV training triples (head\\trel\\ttail)");
  flags.Define("valid", "", "TSV validation triples");
  flags.Define("test", "", "TSV test triples");
  flags.Define("system", "hetkg-d", "pbg | dglke | hetkg-c | hetkg-d");
  flags.Define("model", "transe",
               "transe | transe_l2 | distmult | complex | transh | transr | "
               "transd | hole | rescal");
  flags.Define("loss", "margin", "margin | logistic");
  flags.Define("dim", "32", "embedding dimension");
  flags.Define("epochs", "10", "training epochs");
  flags.Define("lr", "0.1", "AdaGrad learning rate");
  flags.Define("batch", "64", "mini-batch size per worker");
  flags.Define("negatives", "8", "negatives per positive");
  flags.Define("machines", "4", "simulated machines");
  flags.Define("cache", "256", "hot-embedding rows per worker");
  flags.Define("staleness", "8", "staleness bound P");
  flags.Define("dps_window", "64", "DPS window D");
  flags.Define("threads", "1",
               "compute threads for the intra-batch forward/backward "
               "fan-out (results are bit-identical at any value)");
  flags.Define("checkpoint", "", "path to write the trained embeddings");
  flags.Define("seed", "1234", "seed");
  flags.Define("async", "false",
               "threaded sample/pull/compute/push pipeline with "
               "bounded-staleness overlap (PS engines only; results no "
               "longer bit-reproducible run to run)");
  flags.Define("max_pipeline_staleness", "2",
               "async mode: iterations the pull stage may run ahead "
               "(0 = rendezvous)");
  // Fault injection: simulate an unreliable worker <-> PS network.
  // All-zero probabilities (default) = perfect network; with a fixed
  // --fault_seed the same scenario replays bit-identically.
  flags.Define("fault_drop", "0",
               "probability one wire attempt is lost in the network");
  flags.Define("fault_duplicate", "0",
               "probability a delivered message arrives twice");
  flags.Define("fault_delay", "0",
               "probability a delivered message is late");
  flags.Define("fault_retries", "3",
               "retransmissions before the sender gives up");
  flags.Define("fault_seed", "42", "seed of the deterministic fault plan");
  // Process-level faults + crash recovery (DESIGN.md §9).
  flags.Define("fault_worker_crash", "",
               "scheduled worker crashes as machine:tick[,machine:tick...] "
               "on the transport's logical clock (empty = none)");
  flags.Define("fault_ps_restart", "",
               "scheduled PS shard restarts as machine:tick[,...] "
               "(empty = none)");
  flags.Define("fault_halt_after", "0",
               "simulate a hard crash: stop after N global iterations "
               "without flushing (0 = run to completion)");
  flags.Define("checkpoint_dir", "",
               "directory receiving periodic full-training-state "
               "snapshots + MANIFEST (empty = checkpointing off)");
  flags.Define("checkpoint_every", "0",
               "snapshot every N global iterations (PBG: every N epochs; "
               "0 = no periodic saves)");
  flags.Define("keep_checkpoints", "3",
               "retained snapshots; older ones are pruned (0 = keep all)");
  flags.Define("checkpoint_fsync", "true",
               "fsync snapshot/manifest writes for power-loss durability "
               "(false = faster saves)");
  flags.Define("resume_from", "",
               "resume training from a snapshot file or checkpoint "
               "directory (newest valid manifest entry wins)");
  // Observability (DESIGN.md §8): empty paths keep tracing and metrics
  // export disabled, bit-identical to a build without the obs layer.
  flags.Define("trace_out", "",
               "Chrome/Perfetto trace-event JSON output path; open at "
               "ui.perfetto.dev (empty = tracing off)");
  flags.Define("metrics_json", "",
               "per-epoch metrics time-series JSON output path "
               "(empty = export off)");
  flags.Define("metrics_window", "0",
               "also sample metrics every N iterations within an epoch "
               "(0 = per-epoch only; needs --metrics_json)");
  // Process runtime (DESIGN.md §13): real worker processes behind the
  // same engine; checkpoints stay bit-identical to --runtime=sim.
  flags.Define("runtime", "sim",
               "sim (in-process simulated workers) | proc (one real OS "
               "process per worker; PS engines, deterministic mode only)");
  flags.Define("workers", "0",
               "proc runtime: worker process count (overrides --machines "
               "when > 0)");
  flags.Define("proc_transport", "shm",
               "proc runtime coordinator<->worker transport: shm "
               "(shared-memory rings) | tcp (loopback sockets)");
  flags.Define("listen", "0",
               "proc runtime: accept externally started workers on this "
               "TCP port instead of forking (0 = fork locally)");
  flags.Define("connect", "",
               "run as a standalone proc worker: coordinator host:port "
               "(requires --worker_id; suppresses training output)");
  flags.Define("worker_id", "0", "machine id of this --connect worker");
  flags.Define("proc_kill", "",
               "real fault injection: machine:iter[,machine:iter...] — the "
               "worker process SIGKILLs itself at that step (proc runtime "
               "analogue of --fault_worker_crash)");
  flags.Define("proc_stop", "",
               "hung-worker injection: machine:iter[,machine:iter...] — the "
               "worker process SIGSTOPs itself at that step; only the "
               "heartbeat watchdog can detect and recover it");
  // Real-transport wire faults (DESIGN.md §15): injected on actual
  // shm/tcp frames of every link, healed by CRC + retransmit so the
  // run's final bytes stay identical to a fault-free one.
  flags.Define("proc_fault_drop", "0",
               "probability one sent proc frame is silently lost");
  flags.Define("proc_fault_duplicate", "0",
               "probability one sent proc frame crosses the wire twice");
  flags.Define("proc_fault_delay", "0",
               "probability one sent proc frame is delayed");
  flags.Define("proc_fault_corrupt", "0",
               "probability one byte of a sent proc frame is flipped "
               "(caught by the CRC-32 frame trailer)");
  flags.Define("proc_fault_reset", "0",
               "probability a mid-frame connection reset truncates a sent "
               "proc frame");
  flags.Define("proc_fault_seed", "42",
               "seed of the deterministic wire-fault plan (per-link "
               "counter-mode, replayable)");
  flags.Define("proc_heartbeat_ms", "1000",
               "worker liveness-beacon period in ms (0 = heartbeats off)");
  flags.Define("proc_watchdog_ms", "15000",
               "coordinator hung-worker deadline in ms: no frame or "
               "heartbeat for this long mid-turn SIGKILLs the worker into "
               "crash recovery (0 = watchdog off; requires heartbeats)");
  flags.Define("save_state", "",
               "write a full training-state snapshot here after Train() "
               "(the byte-comparable artifact of equivalence tests)");
  // Two-tier embedding storage (DESIGN.md §16): hot rows stay in the
  // worker caches; the full tables live behind a memory-mapped cold
  // file, optionally quantized.
  flags.Define("storage", "ram",
               "embedding table backing: ram (all rows resident) | tiered "
               "(mmap-backed cold tier; PS engines + sim runtime only)");
  flags.Define("cold_dir", "",
               "directory for the tiered cold-tier slab files (required "
               "with --storage=tiered)");
  flags.Define("cold_dtype", "fp32",
               "cold-tier row encoding: fp32 | fp16 | int8 (per-row "
               "affine scale; fp32 accumulation everywhere)");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 2;
  }

  // ---- Dataset --------------------------------------------------------
  graph::SyntheticDataset dataset{
      graph::KnowledgeGraph::Create(1, 1, {}, "empty").value(), {}};
  if (!flags.GetString("train").empty()) {
    auto loaded = graph::LoadTsvDataset(flags.GetString("train"),
                                        flags.GetString("valid"),
                                        flags.GetString("test"), "tsv");
    if (!loaded.ok()) {
      std::fprintf(stderr, "load: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    dataset.graph = std::move(loaded->graph);
    dataset.split = std::move(loaded->split);
  } else {
    graph::SyntheticSpec spec;
    const std::string name = flags.GetString("dataset");
    if (name == "fb15k") {
      spec = graph::Fb15kSpec();
    } else if (name == "wn18") {
      spec = graph::Wn18Spec();
    } else if (name == "freebase86m") {
      spec = graph::Freebase86mSpec(flags.GetDouble("freebase_scale"));
    } else {
      std::fprintf(stderr, "unknown dataset: %s\n", name.c_str());
      return 2;
    }
    spec.num_triples = static_cast<size_t>(
        spec.num_triples * flags.GetDouble("triple_fraction"));
    auto generated = graph::GenerateDataset(spec);
    if (!generated.ok()) {
      std::fprintf(stderr, "generate: %s\n",
                   generated.status().ToString().c_str());
      return 1;
    }
    dataset = std::move(generated).value();
  }
  std::printf("dataset %s: %zu entities, %zu relations, %zu train triples\n",
              dataset.graph.name().c_str(), dataset.graph.num_entities(),
              dataset.graph.num_relations(), dataset.split.train.size());

  // ---- Engine ---------------------------------------------------------
  auto system = core::ParseSystemKind(flags.GetString("system"));
  auto model = embedding::ParseModelKind(flags.GetString("model"));
  if (!system.ok() || !model.ok()) {
    std::fprintf(stderr, "%s\n",
                 (!system.ok() ? system.status() : model.status())
                     .ToString()
                     .c_str());
    return 2;
  }
  core::TrainerConfig config;
  config.model = *model;
  config.loss = flags.GetString("loss");
  config.dim = static_cast<size_t>(flags.GetInt("dim"));
  config.learning_rate = flags.GetDouble("lr");
  config.batch_size = static_cast<size_t>(flags.GetInt("batch"));
  config.negatives_per_positive =
      static_cast<size_t>(flags.GetInt("negatives"));
  config.negative_chunk_size = config.negatives_per_positive;
  config.num_machines = static_cast<size_t>(flags.GetInt("machines"));
  const std::string runtime = flags.GetString("runtime");
  if (runtime != "sim" && runtime != "proc") {
    std::fprintf(stderr, "--runtime: want sim | proc, got \"%s\"\n",
                 runtime.c_str());
    return 2;
  }
  const bool proc_runtime = runtime == "proc";
  if (proc_runtime && flags.GetInt("workers") > 0) {
    config.num_machines = static_cast<size_t>(flags.GetInt("workers"));
  }
  config.cache_capacity = static_cast<size_t>(flags.GetInt("cache"));
  config.sync.staleness_bound =
      static_cast<size_t>(flags.GetInt("staleness"));
  config.sync.dps_window = static_cast<size_t>(flags.GetInt("dps_window"));
  config.sync.async_pipeline = flags.GetBool("async");
  config.sync.pipeline_staleness =
      static_cast<size_t>(flags.GetInt("max_pipeline_staleness"));
  config.pbg_partitions = 2 * config.num_machines;
  config.num_threads = static_cast<size_t>(flags.GetInt("threads"));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  config.fault.drop_prob = flags.GetDouble("fault_drop");
  config.fault.duplicate_prob = flags.GetDouble("fault_duplicate");
  config.fault.delay_prob = flags.GetDouble("fault_delay");
  config.fault.max_retries = static_cast<size_t>(flags.GetInt("fault_retries"));
  config.fault.seed = static_cast<uint64_t>(flags.GetInt("fault_seed"));
  config.fault.enabled = config.fault.drop_prob > 0.0 ||
                         config.fault.duplicate_prob > 0.0 ||
                         config.fault.delay_prob > 0.0;
  for (const sim::ProcessFault& f : ParseProcessFaults(
           flags.GetString("fault_worker_crash"),
           sim::ProcessFaultKind::kWorkerCrash, "fault_worker_crash")) {
    config.fault.process_faults.push_back(f);
  }
  for (const sim::ProcessFault& f : ParseProcessFaults(
           flags.GetString("fault_ps_restart"),
           sim::ProcessFaultKind::kPsShardRestart, "fault_ps_restart")) {
    config.fault.process_faults.push_back(f);
  }
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
  if (storage != "ram" && storage != "tiered") {
    std::fprintf(stderr, "--storage: want ram | tiered, got \"%s\"\n",
                 storage.c_str());
    return 2;
  }
  if (storage == "tiered") {
    if (flags.GetString("cold_dir").empty()) {
      std::fprintf(stderr,
                   "--storage=tiered needs --cold_dir=<dir> for the "
                   "cold-tier slab files\n");
      return 2;
    }
    if (proc_runtime) {
      std::fprintf(stderr,
                   "--storage=tiered supports --runtime=sim only (the "
                   "proc coordinator owns the PS in its own process; its "
                   "workers never map the cold slabs)\n");
      return 2;
    }
    auto dtype = embedding::ParseColdDtype(flags.GetString("cold_dtype"));
    if (!dtype.ok()) {
      std::fprintf(stderr, "--cold_dtype: %s\n",
                   dtype.status().ToString().c_str());
      return 2;
    }
    config.storage.enabled = true;
    config.storage.cold_dir = flags.GetString("cold_dir");
    config.storage.dtype = *dtype;
  }
  config.obs.trace_out = flags.GetString("trace_out");
  config.obs.metrics_json = flags.GetString("metrics_json");
  config.obs.metrics_window =
      static_cast<size_t>(flags.GetInt("metrics_window"));

  auto engine =
      core::MakeEngine(*system, config, dataset.graph, dataset.split.train);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    return 1;
  }

  // ---- Process runtime setup ------------------------------------------
  net::ProcOptions proc_options;
  core::PsTrainingEngine* ps_engine = nullptr;
  if (proc_runtime) {
    ps_engine = dynamic_cast<core::PsTrainingEngine*>(engine->get());
    if (ps_engine == nullptr) {
      std::fprintf(stderr,
                   "--runtime=proc supports the parameter-server engines "
                   "only (pbg trains partition-at-a-time in one process; "
                   "keep --runtime=sim for it)\n");
      return 2;
    }
    auto transport =
        net::ParseTransportKind(flags.GetString("proc_transport"));
    if (!transport.ok()) {
      std::fprintf(stderr, "%s\n", transport.status().ToString().c_str());
      return 2;
    }
    proc_options.transport = *transport;
    proc_options.retry = net::RetryPolicy::FromFaultConfig(config.fault);
    proc_options.kills = ParseProcKills(flags.GetString("proc_kill"));
    for (const net::ProcKill& stop :
         ParseProcKills(flags.GetString("proc_stop"))) {
      proc_options.stops.push_back(stop);
    }
    proc_options.fault.drop_prob = flags.GetDouble("proc_fault_drop");
    proc_options.fault.duplicate_prob =
        flags.GetDouble("proc_fault_duplicate");
    proc_options.fault.delay_prob = flags.GetDouble("proc_fault_delay");
    proc_options.fault.corrupt_prob = flags.GetDouble("proc_fault_corrupt");
    proc_options.fault.reset_prob = flags.GetDouble("proc_fault_reset");
    proc_options.fault.seed =
        static_cast<uint64_t>(flags.GetInt("proc_fault_seed"));
    proc_options.fault.enabled = proc_options.fault.drop_prob > 0.0 ||
                                 proc_options.fault.duplicate_prob > 0.0 ||
                                 proc_options.fault.delay_prob > 0.0 ||
                                 proc_options.fault.corrupt_prob > 0.0 ||
                                 proc_options.fault.reset_prob > 0.0;
    proc_options.heartbeat_ms = flags.GetInt("proc_heartbeat_ms");
    proc_options.watchdog_ms = flags.GetInt("proc_watchdog_ms");
    if (proc_options.watchdog_ms > 0 && proc_options.heartbeat_ms <= 0) {
      std::fprintf(stderr,
                   "--proc_watchdog_ms needs --proc_heartbeat_ms > 0 (a "
                   "silent-but-healthy worker would be escalated); pass "
                   "--proc_watchdog_ms=0 to disable the watchdog\n");
      return 2;
    }
    if (!proc_options.stops.empty() &&
        (proc_options.watchdog_ms <= 0 || proc_options.heartbeat_ms <= 0)) {
      std::fprintf(stderr,
                   "--proc_stop freezes a worker forever; only the "
                   "watchdog can recover it (needs --proc_heartbeat_ms > 0 "
                   "and --proc_watchdog_ms > 0)\n");
      return 2;
    }
  }
  if (!flags.GetString("connect").empty()) {
    // Standalone worker: serve the remote coordinator until shutdown;
    // no local training, evaluation, or output.
    if (!proc_runtime) {
      std::fprintf(stderr, "--connect requires --runtime=proc\n");
      return 2;
    }
    const auto [host, port] = ParseHostPort(flags.GetString("connect"));
    const auto machine =
        static_cast<uint32_t>(flags.GetInt("worker_id"));
    if (machine >= config.num_machines) {
      std::fprintf(stderr, "--worker_id %u out of range (%zu machines)\n",
                   machine, config.num_machines);
      return 2;
    }
    const Status served = net::RunStandaloneWorker(
        ps_engine, machine, host, port, proc_options);
    if (!served.ok()) {
      std::fprintf(stderr, "worker: %s\n", served.ToString().c_str());
      return 1;
    }
    return 0;
  }

  eval::EvalOptions eval_options;
  eval_options.max_triples = 500;
  eval_options.num_candidates = 1000;
  eval_options.num_threads = config.num_threads;
  if (!dataset.split.valid.empty()) {
    eval::EvalOptions valid_options = eval_options;
    valid_options.max_triples = 200;
    (*engine)->EnableValidation(&dataset.graph, dataset.split.valid,
                                valid_options);
  }

  // ---- Train ----------------------------------------------------------
  if (!config.resume_from.empty()) {
    const Status restored = (*engine)->RestoreTrainState(config.resume_from);
    if (!restored.ok()) {
      std::fprintf(stderr, "resume: %s\n", restored.ToString().c_str());
      return 1;
    }
    std::printf("resumed training state from %s\n",
                config.resume_from.c_str());
  }
  // Launch worker processes AFTER any restore so they inherit (fork) or
  // are shipped (listen) the resumed state, then train through them.
  std::unique_ptr<net::ProcCoordinator> coordinator;
  if (proc_runtime) {
    const auto listen_port = static_cast<uint16_t>(flags.GetInt("listen"));
    auto launched =
        listen_port != 0
            ? net::ProcCoordinator::ListenForWorkers(ps_engine, listen_port,
                                                     proc_options)
            : net::ProcCoordinator::ForkWorkers(ps_engine, proc_options);
    if (!launched.ok()) {
      std::fprintf(stderr, "proc launch: %s\n",
                   launched.status().ToString().c_str());
      return 1;
    }
    coordinator = std::move(launched).value();
  }
  auto report = (*engine)->Train(static_cast<size_t>(flags.GetInt("epochs")));
  if (!report.ok()) {
    std::fprintf(stderr, "train: %s\n", report.status().ToString().c_str());
    return 1;
  }
  for (const auto& epoch : report->epochs) {
    std::printf("epoch %2zu  loss=%.4f  sim=%s  hit=%.2f%s\n",
                epoch.epoch + 1, epoch.mean_loss,
                HumanSeconds(epoch.epoch_time.total_seconds()).c_str(),
                epoch.cache_hit_ratio,
                epoch.has_valid_metrics
                    ? ("  validMRR=" +
                       std::to_string(epoch.valid_metrics.mrr))
                          .c_str()
                    : "");
  }
  std::printf("total %s simulated, %s transferred, hit ratio %.3f\n",
              HumanSeconds(report->total_time.total_seconds()).c_str(),
              HumanBytes(static_cast<double>(report->total_remote_bytes))
                  .c_str(),
              report->overall_hit_ratio);
  if (config.fault.enabled) {
    std::printf(
        "faults: %llu dropped, %llu retries, %llu duplicates ignored, "
        "%llu stale serves, %llu lost push rows\n",
        static_cast<unsigned long long>(
            report->metrics.Get(metric::kTransportDroppedMessages)),
        static_cast<unsigned long long>(
            report->metrics.Get(metric::kTransportRetries)),
        static_cast<unsigned long long>(
            report->metrics.Get(metric::kTransportDuplicatesIgnored)),
        static_cast<unsigned long long>(
            report->metrics.Get(metric::kTransportStaleServes)),
        static_cast<unsigned long long>(
            report->metrics.Get(metric::kTransportLostPushRows)));
  }
  if (coordinator != nullptr) {
    // Real-transport totals (DESIGN.md §14): always counted, even with
    // observability off — they live outside the training state.
    const net::ProcCoordinator::TransportTotals totals =
        coordinator->Totals();
    std::printf(
        "proc net (%s): %llu rpc round trips, %llu frames / %s sent, "
        "%llu frames / %s received, %llu send stalls\n",
        coordinator->TransportName(),
        static_cast<unsigned long long>(totals.rpc_round_trips),
        static_cast<unsigned long long>(totals.frames_sent),
        HumanBytes(static_cast<double>(totals.bytes_sent)).c_str(),
        static_cast<unsigned long long>(totals.frames_received),
        HumanBytes(static_cast<double>(totals.bytes_received)).c_str(),
        static_cast<unsigned long long>(totals.send_stalls));
    if (proc_options.fault.enabled || totals.watchdog_escalations > 0) {
      // Coordinator-direction counters only; each worker's own
      // injections ship through the obs registry (net.fault.* keys).
      std::printf(
          "proc faults (coordinator side): %llu injected, %llu crc "
          "errors, %llu retransmits, %llu heartbeats seen, %llu watchdog "
          "escalations\n",
          static_cast<unsigned long long>(totals.faults_injected),
          static_cast<unsigned long long>(totals.crc_errors),
          static_cast<unsigned long long>(totals.retransmits),
          static_cast<unsigned long long>(totals.heartbeats_received),
          static_cast<unsigned long long>(totals.watchdog_escalations));
    }
    if (config.obs.Enabled()) {
      const Histogram* rpc = report->metrics.FindHistogram(
          std::string(metric::kNetRpcLatency) + "." +
          coordinator->TransportName());
      if (rpc != nullptr && rpc->count() > 0) {
        std::printf(
            "proc rpc latency (%s): p50=%.0fus p99=%.0fus over %llu "
            "timed rpcs\n",
            coordinator->TransportName(), rpc->Quantile(0.5),
            rpc->Quantile(0.99),
            static_cast<unsigned long long>(rpc->count()));
      }
    }
  }

  const std::string save_state = flags.GetString("save_state");
  if (!save_state.empty()) {
    const Status saved = (*engine)->SaveTrainState(save_state);
    if (!saved.ok()) {
      std::fprintf(stderr, "save_state: %s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("training state saved to %s\n", save_state.c_str());
  }
  if (coordinator != nullptr) {
    const Status stopped = coordinator->Shutdown();
    if (!stopped.ok()) {
      std::fprintf(stderr, "proc shutdown: %s\n",
                   stopped.ToString().c_str());
    }
    // Abnormal worker terminations the coordinator reaped (injected
    // kills, watchdog escalations, genuine crashes). Orderly exits are
    // silent.
    for (const net::ProcCoordinator::WorkerExit& we :
         coordinator->WorkerExits()) {
      std::printf("proc worker %u terminated abnormally: %s %d (%s)\n",
                  we.machine, we.signaled ? "signal" : "exit code", we.code,
                  we.context.c_str());
    }
  }

  if (config.obs.TraceRequested()) {
    std::printf("trace written to %s (open at https://ui.perfetto.dev)\n",
                config.obs.trace_out.c_str());
  }
  if (config.obs.MetricsRequested()) {
    std::printf("metrics time-series written to %s\n",
                config.obs.metrics_json.c_str());
  }

  // ---- Evaluate + checkpoint -------------------------------------------
  if (!dataset.split.test.empty()) {
    auto metrics = eval::EvaluateLinkPrediction(
        (*engine)->Embeddings(), (*engine)->ScoreFn(), dataset.graph,
        dataset.split.test, eval_options);
    if (metrics.ok()) {
      std::printf("test: MRR=%.3f MR=%.1f Hits@1=%.3f Hits@3=%.3f "
                  "Hits@10=%.3f\n",
                  metrics->mrr, metrics->mr, metrics->hits1, metrics->hits3,
                  metrics->hits10);
    }
  }
  const std::string checkpoint = flags.GetString("checkpoint");
  if (!checkpoint.empty()) {
    const Status saved = core::SaveEngineCheckpoint(**engine, checkpoint);
    if (!saved.ok()) {
      std::fprintf(stderr, "checkpoint: %s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("checkpoint saved to %s\n", checkpoint.c_str());
  }
  return 0;
}
