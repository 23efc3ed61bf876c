// End-to-end benchmark program (bench/e2e/README.md). One process trains
// one workload through the library's public API and writes its raw
// measurements as one JSON object; bench/e2e/run.py turns them into the
// metrics that BENCHMARK.json declares and checks them.
//
//   bench_e2e --mode=generate --dataset=fb15k --seed=1234 --data=d.bin
//   bench_e2e --mode=run --data=d.bin --system=hetkg-d --epochs=2
//       --seconds=10 --work_dir=w --out=result.json
//
// A run repeats whole trials (set-ups, then training) until --seconds is
// used up, so run.py can report the fastest or the median repeat; training
// is deterministic, so every trial must produce the same epoch reports.
// Timed evaluation passes over the last trial's embeddings follow.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/flags.h"
#include "common/proc_stats.h"
#include "common/stopwatch.h"
#include "core/ps_engine.h"
#include "core/trainer.h"
#include "embedding/kernels.h"
#include "eval/link_prediction.h"
#include "graph/serialize.h"
#include "graph/synthetic.h"
#include "net/proc_runtime.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "probes.h"

namespace hetkg::bench_e2e {
namespace {

/// Set-ups per untraced trial: set-up time is a median, so each trial
/// gives it more than one sample.
constexpr size_t kSetupsPerTrial = 2;
/// Untraced trials per run whatever the window: the fastest of them is
/// the run's training speed, so even a slow first trial gets a second.
constexpr size_t kMinTrials = 2;
/// Candidates per ranking, as in the paper's Freebase-86m evaluation.
constexpr size_t kEvalCandidates = 1000;
/// The traced run's timed evaluation passes (after one warm-up pass) and
/// the test triples each ranks.
constexpr size_t kTimedEvalPasses = 5;
constexpr size_t kTimedEvalTriples = 2000;

// The cluster and cache every workload shares.
constexpr size_t kMachines = 4;
constexpr size_t kCacheRows = 1024;
constexpr size_t kStalenessBound = 8;
constexpr size_t kDpsWindow = 64;
constexpr embedding::ColdDtype kColdDtype = embedding::ColdDtype::kInt8;

/// Minimal JSON object builder over the library's number/string writers
/// (shortest round-trip doubles, so losses compare bit-exactly).
class JsonObject {
 public:
  JsonObject& Num(std::string_view key, double value) {
    Key(key);
    obs::AppendJsonNumber(&out_, value);
    return *this;
  }
  JsonObject& Int(std::string_view key, uint64_t value) {
    Key(key);
    obs::AppendJsonNumber(&out_, value);
    return *this;
  }
  JsonObject& Str(std::string_view key, std::string_view value) {
    Key(key);
    obs::AppendJsonString(&out_, value);
    return *this;
  }
  /// `json` must already be a serialized JSON value.
  JsonObject& Raw(std::string_view key, const std::string& json) {
    Key(key);
    out_ += json;
    return *this;
  }
  std::string Close() const { return out_ + "}"; }

 private:
  void Key(std::string_view key) {
    if (out_.size() > 1) out_ += ",";
    obs::AppendJsonString(&out_, key);
    out_ += ":";
  }
  std::string out_ = "{";
};

std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += items[i];
  }
  return out + "]";
}

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

/// CPU seconds of this process plus its reaped children (the proc
/// runtime's workers count once they have been waited for).
double CpuSeconds() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    getrusage(who, &usage);
    total += TimevalSeconds(usage.ru_utime) + TimevalSeconds(usage.ru_stime);
  }
  return total;
}

/// CPUs this process may run on.
size_t Cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
}

uint64_t PeakRssWithChildren() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  const uint64_t children = static_cast<uint64_t>(usage.ru_maxrss) * 1024;
  return std::max(PeakRssBytes(), children);
}

/// One workload as the command line defines it.
struct Spec {
  core::SystemKind system = core::SystemKind::kHetKgDps;
  core::TrainerConfig config;
  size_t epochs = 1;
  bool proc = false;
  std::string data;
  std::string work_dir;
};

/// One set-up: the dataset load, the engine, and (proc) the workers.
struct Setup {
  double load_s = 0.0;
  double make_engine_s = 0.0;
  double fork_s = 0.0;
};

struct Trial {
  std::vector<Setup> setups;
  double train_s = 0.0;
  double cpu_s = 0.0;
  size_t iterations_per_epoch = 0;
  std::vector<core::EpochReport> epochs;
  MetricRegistry metrics;
  net::ProcCoordinator::TransportTotals net;
  /// Pull and push rows over every Train call of the trial, and the
  /// operations among them that failed.
  uint64_t attempted_ops = 0;
  uint64_t failed_ops = 0;
  uint64_t worker_exits = 0;
  uint64_t trace_dropped = 0;
};

/// Adds one Train call's pull and push rows to the trial, and its failed
/// operations: stale serves, degraded reads and lost push rows.
void CountOps(const MetricRegistry& m, Trial* trial) {
  trial->attempted_ops +=
      m.Get(metric::kRemotePullRows) + m.Get(metric::kLocalPullRows) +
      m.Get(metric::kRemotePushRows) + m.Get(metric::kLocalPushRows);
  trial->failed_ops += m.Get(metric::kTransportStaleServes) +
                       m.Get(metric::kTransportDegradedReads) +
                       m.Get(metric::kTransportLostPushRows);
}

/// Owns the dataset, engine and worker fleet of the latest trial, so the
/// evaluation after the trials can read the trained embeddings.
class Session {
 public:
  explicit Session(Spec spec) : spec_(std::move(spec)) {}
  ~Session() { Release(); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Runs one trial: `setups` timed set-ups, each replacing the previous
  /// one, then training on the last. With a non-empty `trace_path`, the
  /// training is traced into it through a session this program owns.
  Result<Trial> Run(size_t setups, const std::string& trace_path,
                    size_t ring_capacity);

  const core::TrainingEngine& engine() const { return *engine_; }
  const graph::SerializedDataset& dataset() const { return *dataset_; }

 private:
  void Release() {
    coordinator_.reset();
    engine_.reset();
    dataset_.reset();
  }
  std::string CkptDir() const { return spec_.work_dir + "/ckpt"; }
  Status SetUp(const std::string& trace_path, Trial* trial);
  Result<core::TrainReport> TrainOnce();

  Spec spec_;
  /// spec_.config with this trial's directories and trace file.
  core::TrainerConfig config_;
  std::unique_ptr<graph::SerializedDataset> dataset_;
  std::unique_ptr<core::TrainingEngine> engine_;
  std::unique_ptr<net::ProcCoordinator> coordinator_;
};

Status Session::SetUp(const std::string& trace_path, Trial* trial) {
  Release();
  const std::string cold_dir = spec_.work_dir + "/cold";
  std::filesystem::remove_all(CkptDir());
  std::filesystem::remove_all(cold_dir);
  std::filesystem::create_directories(cold_dir);
  config_ = spec_.config;
  if (config_.storage.enabled) config_.storage.cold_dir = cold_dir;
  if (config_.checkpoint_every > 0) config_.checkpoint_dir = CkptDir();
  config_.obs.trace_out = trace_path;

  Setup setup;
  Stopwatch sw;
  HETKG_ASSIGN_OR_RETURN(graph::SerializedDataset loaded,
                         graph::LoadDataset(spec_.data));
  dataset_ = std::make_unique<graph::SerializedDataset>(std::move(loaded));
  setup.load_s = sw.ElapsedSeconds();

  sw.Reset();
  HETKG_ASSIGN_OR_RETURN(engine_,
                         core::MakeEngine(spec_.system, config_,
                                          dataset_->graph,
                                          dataset_->split.train));
  setup.make_engine_s = sw.ElapsedSeconds();
  auto* ps_engine = dynamic_cast<core::PsTrainingEngine*>(engine_.get());
  if (ps_engine == nullptr) {
    return Status::InvalidArgument("the benchmark drives PS engines only");
  }
  trial->iterations_per_epoch = ps_engine->IterationsPerEpoch();

  if (spec_.proc) {
    net::ProcOptions options;
    options.transport = net::TransportKind::kShm;
    options.retry = net::RetryPolicy::FromFaultConfig(config_.fault);
    // Workers ship their rings at every epoch barrier.
    options.trace_ring_capacity =
        std::max<size_t>(options.trace_ring_capacity,
                         64 * trial->iterations_per_epoch);
    sw.Reset();
    HETKG_ASSIGN_OR_RETURN(coordinator_, net::ProcCoordinator::ForkWorkers(
                                             ps_engine, options));
    setup.fork_s = sw.ElapsedSeconds();
  }
  trial->setups.push_back(setup);
  return Status::OK();
}

Result<core::TrainReport> Session::TrainOnce() {
  obs::TraceSpan span("bench.train", "bench");
  return engine_->Train(spec_.epochs);
}

Result<Trial> Session::Run(size_t setups, const std::string& trace_path,
                           size_t ring_capacity) {
  Trial trial;
  for (size_t i = 0; i < setups; ++i) {
    HETKG_RETURN_IF_ERROR(SetUp(trace_path, &trial));
  }

  if (!trace_path.empty()) {
    HETKG_RETURN_IF_ERROR(
        obs::Tracer::Start(obs::TraceOptions{trace_path, ring_capacity}));
  }
  const double cpu_before = CpuSeconds();
  Stopwatch train;
  Result<core::TrainReport> report = TrainOnce();
  if (report.ok() && config_.halt_after_iterations > 0) {
    if (report->epochs.size() >= spec_.epochs) {
      return Status::Internal("the run finished before its halt point");
    }
    trial.epochs = report->epochs;
    CountOps(report->metrics, &trial);
    {
      obs::TraceSpan span("bench.resume", "bench");
      engine_.reset();
      config_.halt_after_iterations = 0;
      HETKG_ASSIGN_OR_RETURN(
          engine_, core::MakeEngine(spec_.system, config_, dataset_->graph,
                                    dataset_->split.train));
      HETKG_RETURN_IF_ERROR(engine_->RestoreTrainState(CkptDir()));
    }
    report = TrainOnce();
  }
  trial.train_s = train.ElapsedSeconds();
  Status shutdown = Status::OK();
  if (coordinator_ != nullptr) {
    shutdown = coordinator_->Shutdown();
    trial.net = coordinator_->Totals();
    trial.worker_exits = coordinator_->WorkerExits().size();
  }
  if (!trace_path.empty()) {
    trial.trace_dropped = obs::Tracer::DroppedEvents();
    HETKG_RETURN_IF_ERROR(obs::Tracer::Stop());
  }
  trial.cpu_s = CpuSeconds() - cpu_before;
  HETKG_RETURN_IF_ERROR(report.status());
  HETKG_RETURN_IF_ERROR(shutdown);
  // A resumed run reports again every epoch from the checkpoint's on.
  if (!report->epochs.empty()) {
    std::erase_if(trial.epochs, [&](const core::EpochReport& e) {
      return e.epoch >= report->epochs.front().epoch;
    });
  }
  trial.epochs.insert(trial.epochs.end(), report->epochs.begin(),
                      report->epochs.end());
  trial.metrics = report->metrics;
  CountOps(trial.metrics, &trial);
  trial.trace_dropped += trial.metrics.Get(metric::kTraceDroppedEvents);
  return trial;
}

std::string EpochsJson(const std::vector<core::EpochReport>& epochs) {
  std::vector<std::string> items;
  for (const core::EpochReport& e : epochs) {
    items.push_back(JsonObject()
                        .Num("mean_loss", e.mean_loss)
                        .Int("remote_bytes", e.remote_bytes)
                        .Num("sim_s", e.epoch_time.total_seconds())
                        .Close());
  }
  return JsonArray(items);
}

std::string TrialJson(const Trial& t) {
  std::vector<std::string> setups;
  for (const Setup& s : t.setups) {
    setups.push_back(JsonObject()
                         .Num("load_s", s.load_s)
                         .Num("make_engine_s", s.make_engine_s)
                         .Num("fork_s", s.fork_s)
                         .Close());
  }
  return JsonObject()
      .Raw("setups", JsonArray(setups))
      .Num("train_s", t.train_s)
      .Num("cpu_s", t.cpu_s)
      .Int("iterations_per_epoch", t.iterations_per_epoch)
      .Int("attempted_ops", t.attempted_ops)
      .Int("failed_ops", t.failed_ops)
      .Int("worker_exits", t.worker_exits)
      .Int("trace_dropped", t.trace_dropped)
      .Raw("epochs", EpochsJson(t.epochs))
      .Close();
}

/// Counters and gauges of one trial's report, plus the proc runtime's
/// transport totals under net_totals.*.
std::string CountsJson(const Trial& t) {
  JsonObject counts;
  for (const auto& [name, value] : t.metrics.Snapshot()) {
    counts.Int(name, value);
  }
  for (const auto& [name, value] : t.metrics.GaugeSnapshot()) {
    counts.Num(name, value);
  }
  counts.Int("net_totals.rpc_round_trips", t.net.rpc_round_trips)
      .Int("net_totals.frames_sent", t.net.frames_sent)
      .Int("net_totals.bytes_sent", t.net.bytes_sent)
      .Int("net_totals.frames_received", t.net.frames_received)
      .Int("net_totals.bytes_received", t.net.bytes_received)
      .Int("net_totals.send_stalls", t.net.send_stalls);
  return counts.Close();
}

/// Histogram quantiles of the traced run's merged metrics (the proc
/// runtime's RPC latencies exist only with obs on).
std::string HistogramsJson(const MetricRegistry& metrics) {
  JsonObject out;
  for (const char* transport : {"shm", "tcp"}) {
    const std::string name =
        std::string(metric::kNetRpcLatency) + "." + transport;
    const Histogram* h = metrics.FindHistogram(name);
    if (h == nullptr || h->count() == 0) continue;
    out.Raw(name, JsonObject()
                      .Int("count", h->count())
                      .Num("p50", h->Quantile(0.5))
                      .Num("p99", h->Quantile(0.99))
                      .Close());
  }
  return out.Close();
}

Result<Spec> SpecFromFlags(const FlagParser& flags) {
  Spec spec;
  HETKG_ASSIGN_OR_RETURN(spec.system,
                         core::ParseSystemKind(flags.GetString("system")));
  if (spec.system == core::SystemKind::kPbg) {
    return Status::InvalidArgument("the benchmark drives PS engines only");
  }
  core::TrainerConfig& c = spec.config;
  c.model = embedding::ModelKind::kTransEL1;
  c.dim = static_cast<size_t>(flags.GetInt("dim"));
  c.batch_size = static_cast<size_t>(flags.GetInt("batch"));
  c.negatives_per_positive = static_cast<size_t>(flags.GetInt("negatives"));
  c.negative_chunk_size = c.negatives_per_positive;
  c.num_machines = kMachines;
  c.num_threads = 1;
  c.cache_capacity = kCacheRows;
  c.sync.staleness_bound = kStalenessBound;
  c.sync.dps_window = kDpsWindow;
  c.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  c.checkpoint_every = static_cast<size_t>(flags.GetInt("checkpoint_every"));
  const std::string storage = flags.GetString("storage");
  if (storage == "tiered") {
    c.storage.enabled = true;
    c.storage.dtype = kColdDtype;
  } else if (storage != "ram") {
    return Status::InvalidArgument("--storage: want ram | tiered");
  }
  const std::string runtime = flags.GetString("runtime");
  if (runtime != "sim" && runtime != "proc") {
    return Status::InvalidArgument("--runtime: want sim | proc");
  }
  spec.proc = runtime == "proc";
  spec.epochs = static_cast<size_t>(flags.GetInt("epochs"));
  c.halt_after_iterations = static_cast<size_t>(flags.GetInt("halt_after"));
  if (c.halt_after_iterations > 0 && c.checkpoint_every == 0) {
    return Status::InvalidArgument("--halt_after needs --checkpoint_every");
  }
  spec.data = flags.GetString("data");
  spec.work_dir = flags.GetString("work_dir");
  return spec;
}

Status Generate(const FlagParser& flags) {
  const std::string name = flags.GetString("dataset");
  graph::SyntheticSpec spec;
  if (name == "fb15k") {
    spec = graph::Fb15kSpec();
  } else if (name == "fb86m") {
    spec = graph::Freebase86mSpec(flags.GetDouble("freebase_scale"));
  } else {
    return Status::InvalidArgument("--dataset: want fb15k | fb86m");
  }
  spec.num_triples = static_cast<size_t>(
      static_cast<double>(spec.num_triples) *
      flags.GetDouble("triple_fraction"));
  spec.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  HETKG_ASSIGN_OR_RETURN(graph::SyntheticDataset dataset,
                         graph::GenerateDataset(spec));
  return graph::SaveDataset(flags.GetString("data"), dataset.graph,
                            dataset.split);
}

/// Trains the spec once under the sim runtime and returns its epochs.
Result<std::vector<core::EpochReport>> SimReference(Spec spec) {
  spec.proc = false;
  Session session(std::move(spec));
  HETKG_ASSIGN_OR_RETURN(const Trial trial, session.Run(1, "", 0));
  return trial.epochs;
}

Status RunWorkload(const FlagParser& flags) {
  HETKG_ASSIGN_OR_RETURN(Spec spec, SpecFromFlags(flags));
  std::filesystem::create_directories(spec.work_dir);
  JsonObject out;

  // Untraced trials fill the measuring window; at least kMinTrials.
  Session session(spec);
  const double seconds = flags.GetDouble("seconds");
  std::vector<Trial> trials;
  uint64_t peak_rss = 0;
  Stopwatch window;
  double last = 0.0;
  while (trials.size() < kMinTrials ||
         window.ElapsedSeconds() + last <= seconds) {
    Stopwatch one;
    HETKG_ASSIGN_OR_RETURN(Trial trial, session.Run(kSetupsPerTrial, "", 0));
    trials.push_back(std::move(trial));
    // Later trials reuse freed heap in ways that vary from run to run;
    // the first one, in a fresh process, is what a user's run costs.
    if (trials.size() == 1) peak_rss = PeakRssWithChildren();
    last = one.ElapsedSeconds();
  }
  out.Int("peak_rss_bytes", peak_rss);
  std::vector<std::string> trial_json;
  for (const Trial& t : trials) trial_json.push_back(TrialJson(t));
  out.Raw("trials", JsonArray(trial_json));
  out.Raw("counts", CountsJson(trials.back()));

  // Accuracy of the last trial's embeddings. The pass is not timed, so it
  // runs on every core: the metrics are the same at any thread count.
  eval::EvalOptions eval_options;
  eval_options.num_candidates = kEvalCandidates;
  eval_options.filtered = true;
  eval_options.num_threads = Cores();
  eval_options.max_triples = static_cast<size_t>(flags.GetInt("eval_triples"));
  auto evaluate = [&] {
    return eval::EvaluateLinkPrediction(
        session.engine().Embeddings(), session.engine().ScoreFn(),
        session.dataset().graph, session.dataset().split.test, eval_options);
  };
  HETKG_ASSIGN_OR_RETURN(const eval::EvalMetrics accuracy, evaluate());
  out.Raw("test", JsonObject()
                      .Num("mrr", accuracy.mrr)
                      .Num("mean_rank", accuracy.mr)
                      .Int("rankings", accuracy.rankings)
                      .Close());

  // Under the proc runtime, the same workload trained by the sim runtime
  // (untimed) is the reference its epochs must equal bit for bit.
  std::string reference = "null";
  if (spec.proc) {
    HETKG_ASSIGN_OR_RETURN(const std::vector<core::EpochReport> epochs,
                           SimReference(spec));
    reference = EpochsJson(epochs);
  }
  out.Raw("sim_reference_epochs", reference);
  out.Int("machines", kMachines);
  out.Int("train_triples", session.dataset().split.train.size());
  out.Int("test_triples", session.dataset().split.test.size());

  if (flags.GetBool("trace")) {
    // Evaluation speed: one thread, a fixed sample of the test split, and
    // the timed passes after one warm-up pass.
    eval_options.num_threads = 1;
    eval_options.max_triples = kTimedEvalTriples;
    std::vector<std::string> passes;
    for (size_t pass = 0; pass <= kTimedEvalPasses; ++pass) {
      Stopwatch sw;
      HETKG_ASSIGN_OR_RETURN(const eval::EvalMetrics m, evaluate());
      if (pass == 0) continue;
      passes.push_back(JsonObject()
                           .Num("pass_s", sw.ElapsedSeconds())
                           .Int("rankings", m.rankings)
                           .Close());
    }
    out.Raw("eval_passes", JsonArray(passes));

    // One traced trial with a ring sized for every event it can emit, so
    // nothing is dropped.
    const Trial& first = trials.front();
    const size_t steps = spec.epochs * first.iterations_per_epoch * kMachines;
    const size_t ring = std::max<size_t>(size_t{1} << 16, 32 * steps);
    const std::string trace_path = spec.work_dir + "/trace.json";
    HETKG_ASSIGN_OR_RETURN(const Trial traced,
                           session.Run(1, trace_path, ring));
    out.Raw("traced_trial", TrialJson(traced));
    out.Raw("traced_histograms", HistogramsJson(traced.metrics));
    out.Str("trace_path", trace_path);

    const MetricRegistry& m = first.metrics;
    const uint64_t messages = m.Get(metric::kRemoteMessages);
    ProbeShape shape;
    shape.dim = spec.config.dim;
    shape.negatives = spec.config.negatives_per_positive;
    shape.frame_bytes =
        messages == 0 ? 1 : m.Get(metric::kRemoteBytes) / messages;
    shape.work_dir = spec.work_dir;
    shape.seed = spec.config.seed;
    HETKG_ASSIGN_OR_RETURN(const ProbeResults probes, RunProbes(shape));
    out.Raw("probes",
            JsonObject()
                .Num("kernel_ns_per_pair", probes.kernel_ns_per_pair)
                .Num("adagrad_ns_per_row", probes.adagrad_ns_per_row)
                .Num("tier_decode_ns_per_row", probes.tier_decode_ns_per_row)
                .Num("tier_encode_ns_per_row", probes.tier_encode_ns_per_row)
                .Num("shm_rtt_p50_us", probes.shm_rtt_p50_us)
                .Num("shm_rtt_p99_us", probes.shm_rtt_p99_us)
                .Int("frame_bytes", shape.frame_bytes)
                .Close());
  }

  out.Str("kernel_path", embedding::kernels::KernelPathName(
                             embedding::kernels::ActivePath()));
  out.Str("cpu_features",
          embedding::kernels::DetectCpuFeatures().ToString());
  std::filesystem::remove_all(spec.work_dir + "/ckpt");
  std::filesystem::remove_all(spec.work_dir + "/cold");

  const std::string path = flags.GetString("out");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  const std::string text = out.Close() + "\n";
  const bool written = std::fwrite(text.data(), 1, text.size(), f) ==
                       text.size();
  if (std::fclose(f) != 0 || !written) {
    return Status::IoError("short write to " + path);
  }
  return Status::OK();
}

}  // namespace
}  // namespace hetkg::bench_e2e

int main(int argc, char** argv) {
  using hetkg::FlagParser;
  FlagParser flags;
  flags.Define("mode", "run", "generate | run");
  flags.Define("data", "", "dataset snapshot (written by generate)");
  flags.Define("seed", "1234", "dataset and training seed");
  flags.Define("dataset", "fb15k", "generate: fb15k | fb86m");
  flags.Define("triple_fraction", "1", "generate: share of triples kept");
  flags.Define("freebase_scale", "0.01", "generate: fb86m entity scale");
  flags.Define("system", "hetkg-d", "hetkg-c | hetkg-d | dglke");
  flags.Define("dim", "32", "embedding dimension");
  flags.Define("batch", "128", "mini-batch size per worker");
  flags.Define("negatives", "8", "negatives per positive");
  flags.Define("epochs", "1", "epochs per trial");
  flags.Define("runtime", "sim", "sim | proc (shm, one process per worker)");
  flags.Define("storage", "ram", "ram | tiered (int8 cold rows)");
  flags.Define("checkpoint_every", "0", "snapshot every N iterations");
  flags.Define("halt_after", "0",
               "halt after N global iterations, then resume a fresh engine "
               "from the checkpoint directory (0 = train straight through)");
  flags.Define("seconds", "10", "measuring window for the untraced trials");
  flags.Define("eval_triples", "0",
               "test triples ranked by the accuracy pass (0 = the whole split)");
  flags.Define("trace", "false", "add one traced trial and the probes");
  flags.Define("work_dir", "", "scratch directory");
  flags.Define("out", "", "result JSON path");
  const hetkg::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  const hetkg::Status status =
      flags.GetString("mode") == "generate"
          ? hetkg::bench_e2e::Generate(flags)
          : hetkg::bench_e2e::RunWorkload(flags);
  if (!status.ok()) {
    std::fprintf(stderr, "bench_e2e: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
