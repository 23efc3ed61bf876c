#include "core/config_flags.h"

#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdlib>

namespace hetkg::core {
namespace {

// Flags that do not carry their field's own value: microseconds over a
// seconds field, one process-fault schedule per kind, and --storage
// over TieredOptions::enabled.
struct Micros {
  double& seconds;
};
struct Schedule {
  std::vector<sim::ProcessFault>& faults;
  sim::ProcessFaultKind kind;
};
struct Storage {
  bool& tiered;
};

// Every trainer flag with the config field it binds, in one list:
// DefineTrainerFlags prints each field of the defaults, and
// TrainerConfigFromFlags parses each flag back into the same field.
template <typename Bind>
void ForEachFlag(TrainerConfig& c, Bind&& bind) {
  bind("loss", c.loss, "margin | logistic");
  bind("dim", c.dim, "embedding dimension (paper: 400)");
  bind("lr", c.learning_rate, "AdaGrad learning rate");
  bind("batch", c.batch_size, "mini-batch size per worker (paper Table II)");
  bind("negatives", c.negatives_per_positive,
       "negatives per positive (paper Table II)");
  bind("machines", c.num_machines, "simulated machines / workers");
  bind("threads", c.num_threads,
       "compute threads for the intra-batch forward/backward fan-out "
       "(results are bit-identical at any value)");
  bind("seed", c.seed, "global seed");
  bind("cache", c.cache_capacity, "hot-embedding cache rows per worker");
  bind("entity_ratio", c.cache_entity_ratio, "entity share of the cache");
  bind("staleness", c.sync.staleness_bound, "staleness bound P (iterations)");
  bind("dps_window", c.sync.dps_window, "DPS prefetch window D (iterations)");
  // Async pipeline engine (DESIGN.md §12). Off by default: the
  // deterministic mode ticks the stages in lockstep and stays
  // bit-identical to the pre-pipeline engine.
  bind("async", c.sync.async_pipeline,
       "run the PS engines' sample/pull/compute/push stages on their own "
       "threads with bounded-staleness overlap (results no longer "
       "bit-reproducible run to run)");
  bind("max_pipeline_staleness", c.sync.pipeline_staleness,
       "async mode: iterations the pull stage may run ahead of the last "
       "fully pushed iteration (0 = rendezvous)");
  // Fault-injection transport knobs (sim/transport.h). All-zero
  // probabilities (the default) keep the perfect-network behaviour
  // bit-identical; a fixed --fault_seed replays a scenario exactly.
  bind("fault_drop", c.fault.drop_prob,
       "probability one wire attempt is lost in the network");
  bind("fault_duplicate", c.fault.duplicate_prob,
       "probability a delivered message arrives twice");
  bind("fault_delay", c.fault.delay_prob,
       "probability a delivered message is late");
  bind("fault_delay_us", Micros{c.fault.delay_seconds},
       "modeled lateness of one delayed delivery (microseconds)");
  bind("fault_retries", c.fault.max_retries,
       "retransmissions before the sender gives up");
  bind("fault_backoff_us", Micros{c.fault.retry_backoff_seconds},
       "first retry backoff (microseconds, doubles per retry)");
  bind("fault_seed", c.fault.seed, "seed of the deterministic fault plan");
  // Process-level fault events (DESIGN.md §9). Unlike the probability
  // knobs these are explicit schedules on the transport's logical
  // clock, so a crash scenario replays bit-identically; they fire even
  // when every probability above is zero.
  bind("fault_worker_crash",
       Schedule{c.fault.process_faults, sim::ProcessFaultKind::kWorkerCrash},
       "scheduled worker crashes as machine:tick[,machine:tick...] on the "
       "transport's logical clock (empty = none)");
  bind("fault_ps_restart",
       Schedule{c.fault.process_faults,
                sim::ProcessFaultKind::kPsShardRestart},
       "scheduled PS shard restarts as machine:tick[,...] (empty = none)");
  bind("fault_halt_after", c.halt_after_iterations,
       "simulate a hard crash: stop training after N global iterations "
       "without flushing (0 = run to completion)");
  // Crash-recovery checkpointing (DESIGN.md §9).
  bind("checkpoint_dir", c.checkpoint_dir,
       "directory receiving periodic full-training-state snapshots + "
       "MANIFEST (empty = checkpointing off)");
  bind("checkpoint_every", c.checkpoint_every,
       "snapshot every N global iterations (PBG: every N epochs; 0 = no "
       "periodic saves)");
  bind("keep_checkpoints", c.keep_checkpoints,
       "retained snapshots; older ones are pruned (0 = keep all)");
  bind("checkpoint_fsync", c.checkpoint_fsync,
       "fsync snapshot/manifest temp files before the rename and the "
       "directory after it (power-loss durability; false = faster saves, "
       "process-crash durability only)");
  bind("resume_from", c.resume_from,
       "resume training from a snapshot file or checkpoint directory "
       "(newest valid manifest entry wins)");
  // Observability outputs (src/obs/, DESIGN.md §8). Empty paths keep
  // tracing and metrics export disabled, which is bit-identical to a
  // build without the obs layer.
  bind("trace_out", c.obs.trace_out,
       "Chrome/Perfetto trace-event JSON output path; open at "
       "ui.perfetto.dev (empty = tracing off)");
  bind("metrics_json", c.obs.metrics_json,
       "per-epoch metrics time-series JSON output path (empty = export off)");
  bind("metrics_window", c.obs.metrics_window,
       "also sample metrics every N iterations within an epoch (0 = "
       "per-epoch only; needs --metrics_json)");
  // Two-tier embedding storage (DESIGN.md §16): hot rows stay in the
  // worker caches; the full tables live behind a memory-mapped cold
  // file, optionally quantized.
  bind("storage", Storage{c.storage.enabled},
       "embedding table backing: ram (all rows resident) | tiered "
       "(mmap-backed cold tier; PS engines + sim runtime only)");
  bind("cold_dir", c.storage.cold_dir,
       "directory for the tiered cold-tier slab files (required with "
       "--storage=tiered; created if missing)");
  bind("cold_dtype", c.storage.dtype,
       "cold-tier row encoding: fp32 | fp16 | int8 (per-row affine scale; "
       "fp32 accumulation everywhere)");
}

// A field's value as a flag default.
std::string Str(const std::string& value) { return value; }
std::string Str(size_t value) { return std::to_string(value); }
std::string Str(bool value) { return value ? "true" : "false"; }
// Shortest form that parses back to the same double ("0.1", "500").
std::string Str(double value) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, end);
}
std::string Str(Micros us) { return Str(us.seconds * 1e6); }
std::string Str(const Schedule& schedule) {
  std::string out;
  for (const sim::ProcessFault& f : schedule.faults) {
    if (f.kind != schedule.kind) continue;
    if (!out.empty()) out += ',';
    out += std::to_string(f.machine) + ":" + std::to_string(f.tick);
  }
  return out;
}
std::string Str(Storage storage) { return storage.tiered ? "tiered" : "ram"; }
std::string Str(embedding::ColdDtype dtype) {
  return std::string(embedding::ColdDtypeName(dtype));
}

// A flag's value into its field. Numeric and boolean syntax errors
// CHECK-fail inside FlagParser, as for every other flag.
Status Parse(const FlagParser& flags, const char* name, std::string& field) {
  field = flags.GetString(name);
  return Status::OK();
}
Status Parse(const FlagParser& flags, const char* name, size_t& field) {
  field = static_cast<size_t>(flags.GetInt(name));
  return Status::OK();
}
Status Parse(const FlagParser& flags, const char* name, bool& field) {
  field = flags.GetBool(name);
  return Status::OK();
}
Status Parse(const FlagParser& flags, const char* name, double& field) {
  field = flags.GetDouble(name);
  return Status::OK();
}
Status Parse(const FlagParser& flags, const char* name, Micros us) {
  // Division by 1e6 is exact for whole microseconds (500 -> 500e-6),
  // so the flag defaults reproduce FaultConfig's to the bit.
  us.seconds = flags.GetDouble(name) / 1e6;
  return Status::OK();
}
Status Parse(const FlagParser& flags, const char* name,
             const Schedule& schedule) {
  HETKG_ASSIGN_OR_RETURN(
      std::vector<sim::ProcessFault> events,
      ParseProcessFaultSpec(flags.GetString(name), schedule.kind));
  schedule.faults.insert(schedule.faults.end(), events.begin(), events.end());
  return Status::OK();
}
Status Parse(const FlagParser& flags, const char* name, Storage storage) {
  const std::string value = flags.GetString(name);
  if (value != "ram" && value != "tiered") {
    return Status::InvalidArgument("want ram | tiered, got \"" + value +
                                   "\"");
  }
  storage.tiered = value == "tiered";
  return Status::OK();
}
Status Parse(const FlagParser& flags, const char* name,
             embedding::ColdDtype& field) {
  HETKG_ASSIGN_OR_RETURN(field,
                         embedding::ParseColdDtype(flags.GetString(name)));
  return Status::OK();
}

}  // namespace

void DefineTrainerFlags(FlagParser* flags, const TrainerConfig& defaults) {
  TrainerConfig d = defaults;
  ForEachFlag(d, [flags](const char* name, auto&& field, const char* help) {
    flags->Define(name, Str(field), help);
  });
}

Result<TrainerConfig> TrainerConfigFromFlags(const FlagParser& flags) {
  TrainerConfig config;
  Status status;
  ForEachFlag(config, [&](const char* name, auto&& field, const char*) {
    const Status parsed = Parse(flags, name, field);
    if (!parsed.ok() && status.ok()) {
      status = Status::InvalidArgument("--" + std::string(name) + ": " +
                                       parsed.message());
    }
  });
  HETKG_RETURN_IF_ERROR(status);
  // Fields the flags imply rather than name.
  config.negative_chunk_size = config.negatives_per_positive;
  config.pbg_partitions = 2 * config.num_machines;
  config.fault.enabled = config.fault.drop_prob > 0.0 ||
                         config.fault.duplicate_prob > 0.0 ||
                         config.fault.delay_prob > 0.0;
  return config;
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

}  // namespace hetkg::core
