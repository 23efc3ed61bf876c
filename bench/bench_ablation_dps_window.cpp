// Ablation (Sec. IV-B): the DPS prefetch window D. Small D tracks the
// short-term access pattern closely (higher hit ratio) but rebuilds the
// hot table often (more filter work and admission pulls); large D
// converges to CPS behaviour. The paper fixes D per run and contrasts
// CPS (D = whole epoch) with DPS.
#include "harness.h"

#include "hetkg/hetkg.h"

int main(int argc, char** argv) {
  using namespace hetkg;
  FlagParser flags;
  core::TrainerConfig base = bench::InitBench(&flags, argc, argv);

  bench::PrintBanner("bench_ablation_dps_window",
                     "Ablation - DPS prefetch window D sweep");

  const auto dataset = bench::GetDataset("fb15k", flags);
  const size_t epochs = static_cast<size_t>(flags.GetInt("epochs"));
  const eval::EvalOptions eval_options = bench::EvalOptionsFromFlags(flags);

  bench::Table table({"Window D", "Hit ratio", "Cache rebuilds",
                      "Remote bytes", "Time(s)"});
  for (size_t window : {8u, 32u, 128u, 512u, 2048u}) {
    core::TrainerConfig config = base;
    config.sync.dps_window = window;
    const auto outcome =
        bench::RunSystem(core::SystemKind::kHetKgDps, config, dataset,
                         epochs, eval_options);
    table.AddRow(
        {std::to_string(window),
         bench::Fmt(outcome.report.overall_hit_ratio, 3),
         std::to_string(outcome.report.metrics.Get(metric::kCacheRebuilds)),
         HumanBytes(static_cast<double>(outcome.report.total_remote_bytes)),
         bench::Fmt(outcome.report.total_time.total_seconds(), 2)});
  }
  // CPS reference (fixed whole-epoch hot set).
  const auto cps = bench::RunSystem(core::SystemKind::kHetKgCps, base,
                                    dataset, epochs, eval_options);
  table.AddRow({"CPS (epoch)", bench::Fmt(cps.report.overall_hit_ratio, 3),
                std::to_string(cps.report.metrics.Get(metric::kCacheRebuilds)),
                HumanBytes(static_cast<double>(cps.report.total_remote_bytes)),
                bench::Fmt(cps.report.total_time.total_seconds(), 2)});
  table.Print("Ablation: DPS window D (FB15k synthetic)");
  std::printf("\nExpected: smaller D gives the freshest hot set (highest "
              "hit ratio) at the cost of more rebuild work.\n");
  return 0;
}
