// Reproduces Fig. 8(c): impact of the entity share of the cache on hit
// ratio (Freebase-86m). Paper shape: hit ratio rises then falls as the
// entity ratio grows, peaking near 25% entities / 75% relations —
// relation embeddings are the denser traffic.
#include "harness.h"

#include "hetkg/hetkg.h"

int main(int argc, char** argv) {
  using namespace hetkg;
  FlagParser flags;
  core::TrainerConfig base = bench::InitBench(&flags, argc, argv);

  bench::PrintBanner("bench_fig8c_entity_ratio",
                     "Fig. 8(c) - impact of the cache's entity ratio");

  const auto dataset = bench::GetDataset("freebase86m", flags);
  bench::ApplyDatasetDefaults("freebase86m", flags, &base);
  const size_t epochs = 1;

  bench::Table table({"Entity ratio", "Hit ratio", "Remote bytes"});
  for (double ratio : {0.0, 0.125, 0.25, 0.375, 0.5, 0.75, 1.0}) {
    core::TrainerConfig config = base;
    config.cache_entity_ratio = ratio;
    const std::string tag = "ratio" + bench::Fmt(ratio * 100.0, 1);
    config.obs = bench::SuffixedObs(base.obs, tag);
    auto engine = core::MakeEngine(core::SystemKind::kHetKgDps, config,
                                   dataset.graph, dataset.split.train)
                      .value();
    const auto report = engine->Train(epochs).value();
    table.AddRow(
        {bench::Fmt(ratio * 100.0, 1) + "%",
         bench::Fmt(report.overall_hit_ratio, 3),
         HumanBytes(static_cast<double>(report.total_remote_bytes))});
  }
  table.Print("Fig. 8(c): entity-ratio sweep, HET-KG-D on Freebase-86m "
              "synthetic (cache=" + std::to_string(base.cache_capacity) +
              " rows)");
  std::printf("\nPaper reference: hit ratio peaks at a 25%% entity share "
              "- relation embeddings are denser in the access stream.\n");
  return 0;
}
