// The feature matrix (DESIGN.md §5 "Configuration surface"): runtime
// {sim, proc} x storage {ram, tiered} x system {pbg, dglke, hetkg-c,
// hetkg-d} x async {0, 1} x obs {off, on} x faults {none, message,
// process}. Every cell either trains one tiny epoch to a finite loss or
// is refused with InvalidArgument naming both conflicting flags — by
// MakeEngine, or by the proc launch before any worker is forked. The
// expected conflicts are spelled out here, independently of
// core::ValidateConfig, so a rule that goes missing or appears by
// accident fails a cell. Shared by the sim half (hetkg_config_tests)
// and the proc half (hetkg_config_proc_tests).
#ifndef HETKG_TESTS_CONFIG_MATRIX_H_
#define HETKG_TESTS_CONFIG_MATRIX_H_

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hetkg/hetkg.h"

namespace hetkg::config_matrix {

enum class Faults { kNone, kMessage, kProcess };

struct Cell {
  bool proc = false;
  bool tiered = false;
  core::SystemKind system = core::SystemKind::kHetKgDps;
  bool async = false;
  bool obs = false;
  Faults faults = Faults::kNone;
};

inline std::string CellName(const Cell& c) {
  static const char* const kFaults[] = {"nofault", "msgfault", "procfault"};
  std::string system;
  switch (c.system) {
    case core::SystemKind::kPbg: system = "pbg"; break;
    case core::SystemKind::kDglKe: system = "dglke"; break;
    case core::SystemKind::kHetKgCps: system = "hetkgc"; break;
    case core::SystemKind::kHetKgDps: system = "hetkgd"; break;
  }
  return std::string(c.proc ? "proc" : "sim") + "_" +
         (c.tiered ? "tiered" : "ram") + "_" + system + "_" +
         (c.async ? "async" : "sync") + "_" + (c.obs ? "obs" : "noobs") +
         "_" + kFaults[static_cast<int>(c.faults)];
}

inline std::vector<Cell> Cells(bool proc) {
  std::vector<Cell> cells;
  for (bool tiered : {false, true}) {
    for (core::SystemKind system :
         {core::SystemKind::kPbg, core::SystemKind::kDglKe,
          core::SystemKind::kHetKgCps, core::SystemKind::kHetKgDps}) {
      for (bool async : {false, true}) {
        for (bool obs : {false, true}) {
          for (Faults faults :
               {Faults::kNone, Faults::kMessage, Faults::kProcess}) {
            cells.push_back(Cell{proc, tiered, system, async, obs, faults});
          }
        }
      }
    }
  }
  return cells;
}

/// The flag pairs a cell's configuration conflicts on; empty means the
/// cell must train.
inline std::vector<std::pair<std::string, std::string>> ExpectedConflicts(
    const Cell& c) {
  const bool pbg = c.system == core::SystemKind::kPbg;
  std::vector<std::pair<std::string, std::string>> conflicts;
  if (c.tiered && pbg) {
    conflicts.push_back({"--storage=tiered", "--system=pbg"});
  }
  if (c.proc && pbg) conflicts.push_back({"--runtime=proc", "--system=pbg"});
  if (c.proc && c.tiered) {
    conflicts.push_back({"--runtime=proc", "--storage=tiered"});
  }
  if (c.proc && c.async) conflicts.push_back({"--runtime=proc", "--async"});
  if (c.proc && c.faults == Faults::kProcess) {
    conflicts.push_back({"--runtime=proc", "--fault_worker_crash"});
  }
  return conflicts;
}

/// A few thousand triples: one epoch is ~80 iterations per worker.
inline const graph::SyntheticDataset& TinyDataset() {
  static const graph::SyntheticDataset dataset = [] {
    graph::SyntheticSpec spec;
    spec.name = "matrix";
    spec.num_entities = 300;
    spec.num_relations = 12;
    spec.num_triples = 3000;
    spec.seed = 5;
    return graph::GenerateDataset(spec).value();
  }();
  return dataset;
}

inline core::TrainerConfig CellConfig(const Cell& c, const std::string& dir) {
  core::TrainerConfig config;
  config.dim = 8;
  config.batch_size = 16;
  config.negatives_per_positive = 4;
  config.negative_chunk_size = 4;
  config.num_machines = 2;
  config.pbg_partitions = 4;
  config.cache_capacity = 32;
  config.sync.staleness_bound = 2;
  config.sync.dps_window = 8;
  config.sync.async_pipeline = c.async;
  config.seed = 11;
  if (c.tiered) {
    config.storage.enabled = true;
    config.storage.cold_dir = dir + "/cold";
    config.storage.dtype = embedding::ColdDtype::kInt8;
  }
  if (c.obs) {
    config.obs.trace_out = dir + "/trace.json";
    config.obs.metrics_json = dir + "/metrics.json";
  }
  if (c.faults == Faults::kMessage) {
    config.fault.enabled = true;
    config.fault.seed = 7;
    config.fault.drop_prob = 0.05;
    config.fault.duplicate_prob = 0.05;
    config.fault.delay_prob = 0.05;
  } else if (c.faults == Faults::kProcess) {
    config.fault.process_faults = {
        {sim::ProcessFaultKind::kWorkerCrash, 1, 20},
        {sim::ProcessFaultKind::kPsShardRestart, 0, 60}};
  }
  return config;
}

/// True when this process has no child process, reaped or not.
inline bool NoChildren() {
  return ::waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD;
}

/// Runs one cell: MakeEngine, then (proc) the fork launch, then one
/// epoch; checks the outcome against ExpectedConflicts.
inline void RunCell(const Cell& c) {
  const std::string dir = ::testing::TempDir() + "/matrix-" + CellName(c) +
                          "-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const core::TrainerConfig config = CellConfig(c, dir);
  const graph::SyntheticDataset& data = TinyDataset();
  if (c.proc) {
    ASSERT_TRUE(NoChildren());
  }

  Status status = Status::OK();
  auto engine =
      core::MakeEngine(c.system, config, data.graph, data.split.train);
  std::unique_ptr<net::ProcCoordinator> coordinator;
  if (!engine.ok()) {
    status = engine.status();
  } else if (c.proc) {
    auto* ps = dynamic_cast<core::PsTrainingEngine*>(engine->get());
    if (ps == nullptr) {
      // No proc entry point takes a PBG engine; the launcher refuses it
      // through the same rules before building one.
      status = core::ValidateConfig(c.system, config, /*proc_runtime=*/true);
    } else {
      auto launched = net::ProcCoordinator::ForkWorkers(ps, {});
      if (launched.ok()) {
        coordinator = std::move(launched).value();
      } else {
        status = launched.status();
      }
    }
  }

  const auto conflicts = ExpectedConflicts(c);
  if (!conflicts.empty()) {
    ASSERT_FALSE(status.ok()) << "expected a rejection naming "
                              << conflicts[0].first << " and "
                              << conflicts[0].second;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    bool named = false;
    for (const auto& [a, b] : conflicts) {
      named = named || (status.message().find(a) != std::string::npos &&
                        status.message().find(b) != std::string::npos);
    }
    EXPECT_TRUE(named) << status.ToString();
    if (c.proc) {
      EXPECT_TRUE(NoChildren()) << "a worker forked before the rejection";
    }
    std::filesystem::remove_all(dir);
    return;
  }
  ASSERT_TRUE(status.ok()) << status.ToString();
  auto report = (*engine)->Train(1);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->epochs.size(), 1u);
  EXPECT_TRUE(std::isfinite(report->epochs[0].mean_loss));
  if (coordinator != nullptr) {
    EXPECT_TRUE(coordinator->Shutdown().ok());
    EXPECT_TRUE(coordinator->WorkerExits().empty());
  }
  if (c.obs) {
    EXPECT_TRUE(std::filesystem::exists(config.obs.trace_out));
    EXPECT_TRUE(std::filesystem::exists(config.obs.metrics_json));
  }
  coordinator.reset();
  engine->reset();
  std::filesystem::remove_all(dir);
}

struct CellNamer {
  std::string operator()(const ::testing::TestParamInfo<Cell>& info) const {
    return CellName(info.param);
  }
};

}  // namespace hetkg::config_matrix

#endif  // HETKG_TESTS_CONFIG_MATRIX_H_
