// Reproduces Fig. 5: validation-MRR-versus-time convergence curves for
// PBG / DGL-KE / HET-KG-C / HET-KG-D on all three datasets. Paper shape:
// all systems converge to similar accuracy; HET-KG reaches any given
// accuracy level earlier (its epochs are cheaper).
#include "harness.h"

#include "hetkg/hetkg.h"

int main(int argc, char** argv) {
  using namespace hetkg;
  FlagParser flags;
  const core::TrainerConfig base = bench::InitBench(&flags, argc, argv);

  bench::PrintBanner("bench_fig5_convergence",
                     "Fig. 5 - convergence (valid MRR vs simulated time)");

  const size_t epochs = static_cast<size_t>(flags.GetInt("epochs"));
  const eval::EvalOptions eval_options = bench::EvalOptionsFromFlags(flags);

  for (const std::string& name : {"fb15k", "wn18", "freebase86m"}) {
    const auto dataset = bench::GetDataset(name, flags);
    core::TrainerConfig config = base;
    bench::ApplyDatasetDefaults(name, flags, &config);
    bench::Table table({"System", "Epoch", "Sim time(s)", "Valid MRR"});
    for (core::SystemKind system :
         {core::SystemKind::kPbg, core::SystemKind::kDglKe,
          core::SystemKind::kHetKgCps, core::SystemKind::kHetKgDps}) {
      const auto outcome =
          bench::RunSystem(system, config, dataset, epochs, eval_options,
                           /*with_validation_curve=*/true);
      for (const auto& epoch : outcome.report.epochs) {
        table.AddRow({std::string(core::SystemKindName(system)),
                      std::to_string(epoch.epoch + 1),
                      bench::Fmt(epoch.cumulative_seconds, 2),
                      bench::Fmt(epoch.valid_metrics.mrr, 3)});
      }
    }
    table.Print("Fig. 5 (" + dataset.graph.name() +
                "): MRR over simulated training time");
  }
  std::printf("\nPaper reference: all systems converge to comparable MRR; "
              "HET-KG's curve is shifted left (less time per epoch), PBG's "
              "far right.\n");
  return 0;
}
