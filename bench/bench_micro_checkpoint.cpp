// google-benchmark micro-benchmarks for the crash-recovery hot paths
// (DESIGN.md §9): HETKGCK2 eval-checkpoint save/load at several table
// sizes, full training-state snapshot save/restore through a live
// engine, and the CRC-32 engine that checksums every snapshot and wire
// frame. Throughput is reported as rows/sec (items) and bytes/sec.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/crc32_internal.h"
#include "hetkg/hetkg.h"

namespace {

using namespace hetkg;

std::string BenchPath(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("hetkg-bench-") + name))
      .string();
}

embedding::EmbeddingTable FilledTable(size_t rows, size_t dim,
                                      uint64_t seed) {
  embedding::EmbeddingTable table(rows, dim);
  Rng rng(seed);
  table.InitGaussian(&rng, 1.0f);
  return table;
}

void BM_CheckpointSave(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t dim = 64;
  const auto entities = FilledTable(rows, dim, 3);
  const auto relations = FilledTable(64, dim, 4);
  const std::string path = BenchPath("save.ck");
  for (auto _ : state) {
    const Status status = embedding::SaveCheckpoint(path, entities, relations);
    if (!status.ok()) state.SkipWithError(status.ToString().c_str());
  }
  const size_t total_rows = rows + 64;
  state.SetItemsProcessed(state.iterations() * total_rows);
  state.SetBytesProcessed(state.iterations() * total_rows * dim *
                          sizeof(float));
  std::remove(path.c_str());
}
BENCHMARK(BM_CheckpointSave)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 17)
    ->Unit(benchmark::kMillisecond);

void BM_CheckpointLoad(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t dim = 64;
  const auto entities = FilledTable(rows, dim, 5);
  const auto relations = FilledTable(64, dim, 6);
  const std::string path = BenchPath("load.ck");
  if (!embedding::SaveCheckpoint(path, entities, relations).ok()) {
    state.SkipWithError("setup save failed");
    return;
  }
  for (auto _ : state) {
    auto loaded = embedding::LoadCheckpoint(path);
    if (!loaded.ok()) state.SkipWithError(loaded.status().ToString().c_str());
    benchmark::DoNotOptimize(loaded);
  }
  const size_t total_rows = rows + 64;
  state.SetItemsProcessed(state.iterations() * total_rows);
  state.SetBytesProcessed(state.iterations() * total_rows * dim *
                          sizeof(float));
  std::remove(path.c_str());
}
BENCHMARK(BM_CheckpointLoad)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 17)
    ->Unit(benchmark::kMillisecond);

/// Builds a briefly trained engine so the snapshot carries realistic
/// optimizer, cache, and queue state — the full-training-state path a
/// periodic checkpoint pays, not just the two embedding tables.
std::unique_ptr<core::TrainingEngine> TrainedEngine(
    const graph::SyntheticDataset& dataset) {
  core::TrainerConfig config;
  config.dim = 32;
  config.batch_size = 32;
  config.negatives_per_positive = 4;
  config.num_machines = 4;
  config.cache_capacity = 512;
  auto engine = core::MakeEngine(core::SystemKind::kHetKgDps, config,
                                 dataset.graph, dataset.split.train)
                    .value();
  engine->Train(1).value();
  return engine;
}

graph::SyntheticDataset BenchDataset() {
  graph::SyntheticSpec spec;
  spec.name = "ckpt-bench";
  spec.num_entities = 4096;
  spec.num_relations = 32;
  spec.num_triples = 20000;
  spec.seed = 9;
  return graph::GenerateDataset(spec).value();
}

void BM_TrainStateSave(benchmark::State& state) {
  const auto dataset = BenchDataset();
  const auto engine = TrainedEngine(dataset);
  const std::string path = BenchPath("train-state.ck");
  size_t bytes = 0;
  for (auto _ : state) {
    const Status status = engine->SaveTrainState(path);
    if (!status.ok()) state.SkipWithError(status.ToString().c_str());
  }
  std::error_code ec;
  bytes = static_cast<size_t>(std::filesystem::file_size(path, ec));
  state.SetItemsProcessed(state.iterations() *
                          (dataset.graph.num_entities() +
                           dataset.graph.num_relations()));
  state.SetBytesProcessed(state.iterations() * bytes);
  std::remove(path.c_str());
}
BENCHMARK(BM_TrainStateSave)->Unit(benchmark::kMillisecond);

void BM_TrainStateRestore(benchmark::State& state) {
  const auto dataset = BenchDataset();
  const auto engine = TrainedEngine(dataset);
  const std::string path = BenchPath("train-state-restore.ck");
  if (!engine->SaveTrainState(path).ok()) {
    state.SkipWithError("setup snapshot failed");
    return;
  }
  auto target = TrainedEngine(dataset);
  for (auto _ : state) {
    const Status status = target->RestoreTrainState(path);
    if (!status.ok()) state.SkipWithError(status.ToString().c_str());
  }
  std::error_code ec;
  const auto bytes =
      static_cast<size_t>(std::filesystem::file_size(path, ec));
  state.SetItemsProcessed(state.iterations() *
                          (dataset.graph.num_entities() +
                           dataset.graph.num_relations()));
  state.SetBytesProcessed(state.iterations() * bytes);
  std::remove(path.c_str());
}
BENCHMARK(BM_TrainStateRestore)->Unit(benchmark::kMillisecond);

/// One CRC-32 body (common/crc32_internal.h) over one buffer. Arg 0
/// picks the body (0 slicing-by-8, 1 PCLMULQDQ folding); arg 1 is the
/// size: the mean frame of each bench/e2e workload (64, 6212, 19989 and
/// 86795 B) and a checkpoint-sized 16 MiB.
void BM_Crc32(benchmark::State& state) {
  const bool folding = state.range(0) == 1;
  const size_t size = static_cast<size_t>(state.range(1));
  auto update = &crc32_internal::UpdatePortable;
  bool supported = !folding;
#if defined(__x86_64__)
  if (folding) {
    update = &crc32_internal::UpdateFolding;
    supported = crc32_internal::CpuHasFolding();
  }
#endif
  if (!supported) {
    state.SkipWithError("the folding body needs PCLMULQDQ and SSE4.1");
    return;
  }
  state.SetLabel(folding ? "folding" : "slicing-by-8");
  std::vector<uint8_t> data(size);
  Rng rng(17);
  for (uint8_t& b : data) b = static_cast<uint8_t>(rng.NextUint64());
  for (auto _ : state) {
    uint32_t crc = update(Crc32Init(), data.data(), data.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * size);
}
BENCHMARK(BM_Crc32)
    ->ArgsProduct({{0, 1}, {64, 6212, 19989, 86795, 16 << 20}})
    ->ArgNames({"folding", "bytes"});

}  // namespace

BENCHMARK_MAIN();
