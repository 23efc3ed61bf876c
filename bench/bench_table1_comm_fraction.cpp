// Reproduces Table I: the fraction of DGL-KE's end-to-end training time
// spent in network communication, the observation that motivates the
// hot-embedding cache ("network communication dominates more than 70% of
// the end-to-end training time" on Freebase-86m with TransE).
#include "harness.h"

#include "hetkg/hetkg.h"

int main(int argc, char** argv) {
  using namespace hetkg;
  FlagParser flags;
  const core::TrainerConfig base = bench::InitBench(&flags, argc, argv);

  bench::PrintBanner(
      "bench_table1_comm_fraction",
      "Table I - share of DGL-KE epoch time spent in network I/O");

  const size_t epochs = 1;

  bench::Table table({"Dataset", "Model", "Compute(s)", "Network(s)",
                      "Total(s)", "Network share"});
  for (const std::string& name : {"fb15k", "wn18", "freebase86m"}) {
    const auto dataset = bench::GetDataset(name, flags);
    core::TrainerConfig config = base;
    bench::ApplyDatasetDefaults(name, flags, &config);
    config.obs = bench::SuffixedObs(config.obs, name);
    auto engine = core::MakeEngine(core::SystemKind::kDglKe, config,
                                   dataset.graph, dataset.split.train)
                      .value();
    const auto report = engine->Train(epochs).value();
    const sim::TimeBreakdown t = report.total_time;
    table.AddRow({dataset.graph.name(),
                  std::string(embedding::ModelKindName(config.model)),
                  bench::Fmt(t.compute_seconds, 2),
                  bench::Fmt(t.comm_seconds, 2),
                  bench::Fmt(t.total_seconds(), 2),
                  bench::Fmt(100.0 * t.comm_seconds / t.total_seconds(), 1) +
                      "%"});
  }
  table.Print("Table I: DGL-KE communication share per epoch (simulated "
              "4-machine cluster, 1 Gbps)");
  std::printf("\nPaper reference: >70%% of end-to-end time is network on "
              "Freebase-86m (d=400).\nAt reduced dimension the compute "
              "share shrinks relative to fixed per-row transfer cost, so "
              "the share here is expected to be at least as high.\n");
  return 0;
}
