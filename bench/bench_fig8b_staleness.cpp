// Reproduces Fig. 8(b): impact of the staleness bound P on performance
// and MRR (Freebase-86m). Paper shape: communication falls (the
// refresh amortizes over more iterations) as P grows; MRR is stable for
// P <= 8 and degrades beyond.
#include "harness.h"

#include "hetkg/hetkg.h"

int main(int argc, char** argv) {
  using namespace hetkg;
  FlagParser flags;
  core::TrainerConfig base = bench::InitBench(&flags, argc, argv);

  bench::PrintBanner("bench_fig8b_staleness",
                     "Fig. 8(b) - impact of bounded staleness P");

  const auto dataset = bench::GetDataset("freebase86m", flags);
  bench::ApplyDatasetDefaults("freebase86m", flags, &base);
  const size_t epochs = static_cast<size_t>(flags.GetInt("epochs"));
  const eval::EvalOptions eval_options = bench::EvalOptionsFromFlags(flags);

  // DGL-KE reference for the communication-reduction column.
  const auto baseline = bench::RunSystem(core::SystemKind::kDglKe, base,
                                         dataset, epochs, eval_options);
  const double base_bytes =
      static_cast<double>(baseline.report.total_remote_bytes);

  bench::Table table({"Staleness P", "Test MRR", "Comm reduction",
                      "Time(s)", "Hit ratio"});
  table.AddRow({"DGL-KE (no cache)", bench::Fmt(baseline.test_metrics.mrr, 3),
                "-", bench::Fmt(baseline.report.total_time.total_seconds(), 2),
                "-"});
  for (size_t staleness : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    core::TrainerConfig config = base;
    config.sync.staleness_bound = staleness;
    const auto outcome =
        bench::RunSystem(core::SystemKind::kHetKgDps, config, dataset,
                         epochs, eval_options);
    const double reduction =
        1.0 - static_cast<double>(outcome.report.total_remote_bytes) /
                  base_bytes;
    table.AddRow(
        {std::to_string(staleness), bench::Fmt(outcome.test_metrics.mrr, 3),
         bench::Fmt(reduction * 100.0, 1) + "%",
         bench::Fmt(outcome.report.total_time.total_seconds(), 2),
         bench::Fmt(outcome.report.overall_hit_ratio, 3)});
  }
  table.Print("Fig. 8(b): staleness sweep, HET-KG-D on Freebase-86m "
              "synthetic");
  std::printf("\nPaper reference: communication shrinks as P grows; MRR is "
              "flat for P <= 8 and degrades for larger P.\n");
  return 0;
}
