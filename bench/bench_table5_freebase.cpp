// Reproduces Table V: link prediction on Freebase-86m with TransE.
// Paper shape: HET-KG matches or slightly beats DGL-KE accuracy while
// training faster; PBG is ~3.6x slower than either. The dataset is
// generated at --freebase_scale of the real 86M-entity graph; at
// --freebase_scale=1.0 pass --storage=tiered --cold_dir=<dir> (and
// optionally --cold_dtype=int8) so the full tables fit one machine.
#include "harness.h"

#include "hetkg/hetkg.h"

int main(int argc, char** argv) {
  using namespace hetkg;
  FlagParser flags;
  core::TrainerConfig config = bench::InitBench(&flags, argc, argv);

  bench::PrintBanner("bench_table5_freebase",
                     "Table V - link prediction results on Freebase-86m");

  const auto dataset = bench::GetDataset("freebase86m", flags);
  bench::ApplyDatasetDefaults("freebase86m", flags, &config);
  bench::RunLinkPredictionTable(
      "Table V: Freebase-86m (synthetic @" +
          flags.GetString("freebase_scale") + " scale, " +
          std::to_string(dataset.graph.num_triples()) +
          " triples, d=" + std::to_string(config.dim) + ", storage=" +
          flags.GetString("storage") +
          (config.storage.enabled
               ? "/" + std::string(embedding::ColdDtypeName(
                     config.storage.dtype))
               : "") +
          ")",
      dataset, config, {embedding::ModelKind::kTransEL1},
      static_cast<size_t>(flags.GetInt("epochs")),
      bench::EvalOptionsFromFlags(flags));

  std::printf(
      "\nPaper reference (Table V, TransE, 10 epochs): PBG 0.669/1126min, "
      "DGL-KE 0.671/313min,\nHET-KG-C 0.678/313min, HET-KG-D 0.677/305min "
      "- the headline 3.7x (vs PBG) and 1.1x (vs DGL-KE) speedups.\n");
  return 0;
}
