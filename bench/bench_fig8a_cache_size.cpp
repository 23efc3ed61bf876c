// Reproduces Fig. 8(a): impact of cache size on hit ratio and MRR
// (Freebase-86m). Paper shape: hit ratio climbs steeply with cache size
// then flattens; MRR is essentially unaffected because the stale share
// of the traffic stays small.
#include "harness.h"

#include "hetkg/hetkg.h"

int main(int argc, char** argv) {
  using namespace hetkg;
  FlagParser flags;
  core::TrainerConfig base = bench::InitBench(&flags, argc, argv);

  bench::PrintBanner("bench_fig8a_cache_size",
                     "Fig. 8(a) - impact of cache size (Freebase-86m)");

  const auto dataset = bench::GetDataset("freebase86m", flags);
  bench::ApplyDatasetDefaults("freebase86m", flags, &base);
  const size_t epochs = static_cast<size_t>(flags.GetInt("epochs"));
  const eval::EvalOptions eval_options = bench::EvalOptionsFromFlags(flags);

  bench::Table table({"Cache rows", "Hit ratio", "Test MRR", "Time(s)",
                      "Remote bytes"});
  for (size_t cache : {16u, 64u, 256u, 1024u, 4096u, 16384u}) {
    core::TrainerConfig config = base;
    config.cache_capacity = cache;
    const auto outcome =
        bench::RunSystem(core::SystemKind::kHetKgDps, config, dataset,
                         epochs, eval_options);
    table.AddRow(
        {std::to_string(cache),
         bench::Fmt(outcome.report.overall_hit_ratio, 3),
         bench::Fmt(outcome.test_metrics.mrr, 3),
         bench::Fmt(outcome.report.total_time.total_seconds(), 2),
         HumanBytes(static_cast<double>(outcome.report.total_remote_bytes))});
  }
  table.Print("Fig. 8(a): HET-KG-D cache size sweep on Freebase-86m "
              "synthetic");
  std::printf("\nPaper reference: hit ratio rises with cache size and "
              "flattens; MRR stays flat across the sweep.\n");
  return 0;
}
