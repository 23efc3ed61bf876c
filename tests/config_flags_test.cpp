// The configuration surface (DESIGN.md §5): the shared flag mapping
// of core/config_flags.h, the compatibility rules of
// core::ValidateConfig and net::ValidateProcOptions, the dataset-preset
// lookup, and the sim half of the feature matrix (config_matrix.h).

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "config_matrix.h"
#include "hetkg/hetkg.h"

namespace hetkg {
namespace {

using core::TrainerConfig;

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

// Field-for-field equality, doubles compared bit for bit.
void ExpectSameConfig(const TrainerConfig& want, const TrainerConfig& got) {
  EXPECT_EQ(want.model, got.model);
  EXPECT_EQ(want.dim, got.dim);
  EXPECT_EQ(Bits(want.learning_rate), Bits(got.learning_rate));
  EXPECT_EQ(want.loss, got.loss);
  EXPECT_EQ(Bits(want.margin), Bits(got.margin));
  EXPECT_EQ(want.batch_size, got.batch_size);
  EXPECT_EQ(want.negatives_per_positive, got.negatives_per_positive);
  EXPECT_EQ(want.negative_sampler, got.negative_sampler);
  EXPECT_EQ(want.negative_chunk_size, got.negative_chunk_size);
  EXPECT_EQ(Bits(want.relation_corruption_prob),
            Bits(got.relation_corruption_prob));
  EXPECT_EQ(want.degree_weighted_negatives, got.degree_weighted_negatives);
  EXPECT_EQ(want.num_machines, got.num_machines);
  EXPECT_EQ(want.partitioner, got.partitioner);
  EXPECT_EQ(want.num_threads, got.num_threads);
  EXPECT_EQ(want.sync.strategy, got.sync.strategy);
  EXPECT_EQ(want.sync.staleness_bound, got.sync.staleness_bound);
  EXPECT_EQ(want.sync.dps_window, got.sync.dps_window);
  EXPECT_EQ(want.sync.refresh_mode, got.sync.refresh_mode);
  EXPECT_EQ(want.sync.write_back_period, got.sync.write_back_period);
  EXPECT_EQ(want.sync.async_pipeline, got.sync.async_pipeline);
  EXPECT_EQ(want.sync.pipeline_staleness, got.sync.pipeline_staleness);
  EXPECT_EQ(want.cache_capacity, got.cache_capacity);
  EXPECT_EQ(Bits(want.cache_entity_ratio), Bits(got.cache_entity_ratio));
  EXPECT_EQ(want.heterogeneity_aware, got.heterogeneity_aware);
  EXPECT_EQ(want.pbg_partitions, got.pbg_partitions);
  EXPECT_EQ(want.pbg_relation_sync_period, got.pbg_relation_sync_period);
  EXPECT_EQ(Bits(want.network.bandwidth_bytes_per_sec),
            Bits(got.network.bandwidth_bytes_per_sec));
  EXPECT_EQ(Bits(want.network.latency_seconds),
            Bits(got.network.latency_seconds));
  EXPECT_EQ(want.network.header_bytes, got.network.header_bytes);
  EXPECT_EQ(Bits(want.network.memory_bandwidth_bytes_per_sec),
            Bits(got.network.memory_bandwidth_bytes_per_sec));
  EXPECT_EQ(Bits(want.compute.flops_per_second),
            Bits(got.compute.flops_per_second));
  EXPECT_EQ(want.fault.enabled, got.fault.enabled);
  EXPECT_EQ(want.fault.seed, got.fault.seed);
  EXPECT_EQ(Bits(want.fault.drop_prob), Bits(got.fault.drop_prob));
  EXPECT_EQ(Bits(want.fault.duplicate_prob), Bits(got.fault.duplicate_prob));
  EXPECT_EQ(Bits(want.fault.delay_prob), Bits(got.fault.delay_prob));
  EXPECT_EQ(Bits(want.fault.delay_seconds), Bits(got.fault.delay_seconds));
  EXPECT_EQ(want.fault.max_retries, got.fault.max_retries);
  EXPECT_EQ(Bits(want.fault.retry_backoff_seconds),
            Bits(got.fault.retry_backoff_seconds));
  EXPECT_EQ(want.fault.outages.size(), got.fault.outages.size());
  ASSERT_EQ(want.fault.process_faults.size(),
            got.fault.process_faults.size());
  for (size_t i = 0; i < want.fault.process_faults.size(); ++i) {
    EXPECT_EQ(want.fault.process_faults[i].kind,
              got.fault.process_faults[i].kind);
    EXPECT_EQ(want.fault.process_faults[i].machine,
              got.fault.process_faults[i].machine);
    EXPECT_EQ(want.fault.process_faults[i].tick,
              got.fault.process_faults[i].tick);
  }
  EXPECT_EQ(want.obs.trace_out, got.obs.trace_out);
  EXPECT_EQ(want.obs.metrics_json, got.obs.metrics_json);
  EXPECT_EQ(want.obs.metrics_window, got.obs.metrics_window);
  EXPECT_EQ(want.seed, got.seed);
  EXPECT_EQ(want.checkpoint_dir, got.checkpoint_dir);
  EXPECT_EQ(want.checkpoint_every, got.checkpoint_every);
  EXPECT_EQ(want.keep_checkpoints, got.keep_checkpoints);
  EXPECT_EQ(want.resume_from, got.resume_from);
  EXPECT_EQ(want.halt_after_iterations, got.halt_after_iterations);
  EXPECT_EQ(want.checkpoint_fsync, got.checkpoint_fsync);
  EXPECT_EQ(want.storage.enabled, got.storage.enabled);
  EXPECT_EQ(want.storage.cold_dir, got.storage.cold_dir);
  EXPECT_EQ(want.storage.dtype, got.storage.dtype);
}

// DefineTrainerFlags(defaults), parse `args`, TrainerConfigFromFlags.
Result<TrainerConfig> MapArgs(const TrainerConfig& defaults,
                              std::vector<std::string> args) {
  FlagParser flags;
  core::DefineTrainerFlags(&flags, defaults);
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  HETKG_RETURN_IF_ERROR(
      flags.Parse(static_cast<int>(argv.size()), argv.data()));
  return core::TrainerConfigFromFlags(flags);
}

// Every flag left at its default reproduces the defaults it was
// printed from, bit for bit — the launcher's, the benches', the
// library's, and one with every flag moved off the library default.
// The old bench mapping failed this: it turned the printed "200" back
// into 200 * 1e-6, one ulp below FaultConfig's 200e-6.
TEST(ConfigFlagsTest, EmptyArgvReproducesDefaults) {
  TrainerConfig launcher;
  launcher.dim = 32;
  launcher.batch_size = 64;
  launcher.cache_capacity = 256;
  TrainerConfig bench;
  bench.dim = 16;
  bench.batch_size = 32;
  bench.cache_capacity = 64;
  TrainerConfig moved;
  moved.loss = "logistic";
  moved.dim = 24;
  moved.learning_rate = 0.07;
  moved.batch_size = 48;
  moved.negatives_per_positive = 5;
  moved.negative_chunk_size = 5;
  moved.num_machines = 3;
  moved.pbg_partitions = 6;
  moved.num_threads = 2;
  moved.seed = 99;
  moved.cache_capacity = 77;
  moved.cache_entity_ratio = 0.3;
  moved.sync.staleness_bound = 3;
  moved.sync.dps_window = 17;
  moved.sync.async_pipeline = true;
  moved.sync.pipeline_staleness = 4;
  moved.fault.enabled = true;
  moved.fault.drop_prob = 0.01;
  moved.fault.duplicate_prob = 0.02;
  moved.fault.delay_prob = 0.1;
  moved.fault.delay_seconds = 1500e-6;
  moved.fault.max_retries = 5;
  moved.fault.retry_backoff_seconds = 75e-6;
  moved.fault.seed = 9;
  moved.fault.process_faults = {
      {sim::ProcessFaultKind::kWorkerCrash, 1, 40},
      {sim::ProcessFaultKind::kWorkerCrash, 2, 7},
      {sim::ProcessFaultKind::kPsShardRestart, 0, 90}};
  moved.halt_after_iterations = 123;
  moved.checkpoint_dir = "/ck";
  moved.checkpoint_every = 10;
  moved.keep_checkpoints = 0;
  moved.checkpoint_fsync = false;
  moved.resume_from = "/ck/x";
  moved.obs.trace_out = "t.json";
  moved.obs.metrics_json = "m.json";
  moved.obs.metrics_window = 5;
  moved.storage.enabled = true;
  moved.storage.cold_dir = "/cold";
  moved.storage.dtype = embedding::ColdDtype::kFp16;
  for (const TrainerConfig& defaults :
       {TrainerConfig{}, launcher, bench, moved}) {
    SCOPED_TRACE("dim " + std::to_string(defaults.dim));
    const Result<TrainerConfig> got = MapArgs(defaults, {});
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameConfig(defaults, *got);
  }
}

TEST(ConfigFlagsTest, HelpPrintsDefaultsFromTheConfig) {
  TrainerConfig defaults;
  defaults.dim = 16;
  FlagParser flags;
  core::DefineTrainerFlags(&flags, defaults);
  const std::string usage = flags.Usage("prog");
  for (const char* want :
       {"--dim (default: 16)", "--lr (default: 0.1)",
        "--entity_ratio (default: 0.25)", "--fault_drop (default: 0)",
        "--fault_delay_us (default: 500)",
        "--fault_backoff_us (default: 200)", "--async (default: false)",
        "--checkpoint_fsync (default: true)", "--storage (default: ram)",
        "--cold_dtype (default: fp32)", "--fault_worker_crash (default: )"}) {
    EXPECT_NE(usage.find(want), std::string::npos) << want << "\n" << usage;
  }
}

TEST(ConfigFlagsTest, MalformedValuesNameTheFlag) {
  for (const auto& [arg, flag] :
       std::vector<std::pair<std::string, std::string>>{
           {"--storage=disk", "--storage"},
           {"--cold_dtype=fp8", "--cold_dtype"},
           {"--fault_worker_crash=1:x", "--fault_worker_crash"},
           {"--fault_ps_restart=4294967296:1", "--fault_ps_restart"}}) {
    const Result<TrainerConfig> got = MapArgs(TrainerConfig{}, {arg});
    ASSERT_FALSE(got.ok()) << arg;
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(got.status().message().find(flag), std::string::npos)
        << got.status().ToString();
  }
}

TEST(ConfigFlagsTest, SchedulesMergeInFlagOrder) {
  const TrainerConfig got =
      MapArgs(TrainerConfig{},
              {"--fault_ps_restart=0:9", "--fault_worker_crash=1:3,2:4"})
          .value();
  ASSERT_EQ(got.fault.process_faults.size(), 3u);
  EXPECT_EQ(got.fault.process_faults[0].kind,
            sim::ProcessFaultKind::kWorkerCrash);
  EXPECT_EQ(got.fault.process_faults[2].kind,
            sim::ProcessFaultKind::kPsShardRestart);
  EXPECT_EQ(got.fault.process_faults[2].tick, 9u);
  EXPECT_FALSE(got.fault.enabled);
}

// Rules the matrix cannot reach: its tiered cells always name a
// --cold_dir, and it launches with default proc options.
TEST(ValidateConfigTest, TieredStorageNeedsColdDir) {
  TrainerConfig config;
  config.storage.enabled = true;
  const Status status = core::ValidateConfig(core::SystemKind::kHetKgDps,
                                             config, /*proc_runtime=*/false);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--storage=tiered"), std::string::npos);
  EXPECT_NE(status.message().find("--cold_dir"), std::string::npos);
}

TEST(ValidateConfigTest, ProcOptionRules) {
  EXPECT_TRUE(net::ValidateProcOptions(net::ProcOptions{}).ok());
  net::ProcOptions no_heartbeat;
  no_heartbeat.heartbeat_ms = 0;
  Status status = net::ValidateProcOptions(no_heartbeat);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--proc_watchdog_ms"), std::string::npos);
  EXPECT_NE(status.message().find("--proc_heartbeat_ms"), std::string::npos);
  no_heartbeat.watchdog_ms = 0;
  EXPECT_TRUE(net::ValidateProcOptions(no_heartbeat).ok());

  net::ProcOptions stop_unwatched;
  stop_unwatched.stops = {net::ProcKill{1, 5}};
  stop_unwatched.watchdog_ms = 0;
  status = net::ValidateProcOptions(stop_unwatched);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--proc_stop"), std::string::npos);
  EXPECT_NE(status.message().find("--proc_watchdog_ms"), std::string::npos);
}

TEST(SyntheticSpecByNameTest, PresetsAndRejections) {
  EXPECT_EQ(graph::SyntheticSpecByName("fb15k", 0.5).value().name, "FB15k");
  EXPECT_EQ(graph::SyntheticSpecByName("wn18", 0.5).value().name, "WN18");
  const graph::SyntheticSpec freebase =
      graph::SyntheticSpecByName("freebase86m", 0.002).value();
  EXPECT_EQ(freebase.num_entities,
            graph::Freebase86mSpec(0.002).num_entities);
  for (const auto& [name, scale] :
       std::vector<std::pair<std::string, double>>{
           {"fb15", 0.5}, {"", 0.5}, {"freebase86m", 0.0},
           {"freebase86m", 1.5}}) {
    const auto spec = graph::SyntheticSpecByName(name, scale);
    ASSERT_FALSE(spec.ok()) << name << " " << scale;
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------
// Bugfix regressions: --fault_worker_crash / --fault_ps_restart parsing
// ---------------------------------------------------------------------

TEST(ProcessFaultParseTest, AcceptsValidSchedule) {
  const auto faults =
      core::ParseProcessFaultSpec("0:10,1:250",
                                  sim::ProcessFaultKind::kWorkerCrash)
          .value();
  ASSERT_EQ(faults.size(), 2u);
  EXPECT_EQ(faults[0].machine, 0u);
  EXPECT_EQ(faults[0].tick, 10u);
  EXPECT_EQ(faults[1].machine, 1u);
  EXPECT_EQ(faults[1].tick, 250u);
  EXPECT_EQ(faults[1].kind, sim::ProcessFaultKind::kWorkerCrash);
}

TEST(ProcessFaultParseTest, RejectsMachineIdAboveUint32) {
  // 2^32 does not fit a uint32 machine id; before the fix strtoul on
  // LP64 silently accepted it (unsigned long is 64-bit there).
  const auto result = core::ParseProcessFaultSpec(
      "4294967296:10", sim::ProcessFaultKind::kWorkerCrash);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProcessFaultParseTest, RejectsTickOverflow) {
  // Overflows uint64: strtoull sets ERANGE and clamps to ULLONG_MAX,
  // which the pre-fix parser accepted as a wrapped/clamped tick.
  const auto result = core::ParseProcessFaultSpec(
      "1:99999999999999999999999999", sim::ProcessFaultKind::kPsShardRestart);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProcessFaultParseTest, RejectsMalformedItems) {
  for (const std::string spec :
       {"abc", "1", "1:", ":5", "1:x", "1:2:3", "-1:5", "1:-5", "1: 5",
        "+1:5", "1:5,"}) {
    SCOPED_TRACE("spec=\"" + spec + "\"");
    EXPECT_FALSE(core::ParseProcessFaultSpec(
                     spec, sim::ProcessFaultKind::kWorkerCrash)
                     .ok());
  }
  // The empty default of --fault_worker_crash is an empty schedule,
  // not an error.
  EXPECT_TRUE(core::ParseProcessFaultSpec(
                  "", sim::ProcessFaultKind::kWorkerCrash)
                  .value()
                  .empty());
}


// ---------------------------------------------------------------------
// Feature matrix, sim half (the proc half is config_matrix_proc_test.cpp)
// ---------------------------------------------------------------------

class ConfigMatrixTest
    : public ::testing::TestWithParam<config_matrix::Cell> {};

TEST_P(ConfigMatrixTest, TrainsOrNamesTheConflict) {
  config_matrix::RunCell(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sim, ConfigMatrixTest,
                         ::testing::ValuesIn(config_matrix::Cells(false)),
                         config_matrix::CellNamer());

}  // namespace
}  // namespace hetkg
