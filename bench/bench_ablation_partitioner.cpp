// Ablation (Sec. V "Graph Partitioning"): METIS-style min-cut
// partitioning versus random partitioning. The paper adopts METIS
// because it "significantly reduces the network communication for
// pulling entity embeddings across machines"; this bench quantifies the
// cut quality and the resulting traffic difference on our substrate.
#include "harness.h"

#include "hetkg/hetkg.h"

int main(int argc, char** argv) {
  using namespace hetkg;
  FlagParser flags;
  core::TrainerConfig base = bench::InitBench(&flags, argc, argv);

  bench::PrintBanner("bench_ablation_partitioner",
                     "Ablation - METIS vs random entity partitioning");


  bench::Table table({"Dataset", "Partitioner", "Cut fraction", "System",
                      "Remote bytes", "Epoch time(s)"});
  for (const std::string& name : {"fb15k", "freebase86m"}) {
    const auto dataset = bench::GetDataset(name, flags);
    // Stand-alone cut statistics.
    graph::KnowledgeGraph train_graph =
        graph::KnowledgeGraph::Create(dataset.graph.num_entities(),
                                      dataset.graph.num_relations(),
                                      dataset.split.train, "train")
            .value();
    for (const std::string& partitioner : {"metis", "random"}) {
      double cut_fraction = 0.0;
      if (partitioner == "metis") {
        partition::MetisPartitioner metis;
        const auto parts =
            metis.Partition(train_graph, base.num_machines).value();
        cut_fraction =
            partition::ComputePartitionStats(train_graph, parts).cut_fraction;
      } else {
        partition::RandomPartitioner random(base.seed);
        const auto parts =
            random.Partition(train_graph, base.num_machines).value();
        cut_fraction =
            partition::ComputePartitionStats(train_graph, parts).cut_fraction;
      }
      for (core::SystemKind system :
           {core::SystemKind::kDglKe, core::SystemKind::kHetKgDps}) {
        core::TrainerConfig config = base;
        config.partitioner = partitioner;
        const std::string tag =
            name + "_" + partitioner + "_" +
            std::string(core::SystemKindName(system));
        config.obs = bench::SuffixedObs(base.obs, tag);
        auto engine = core::MakeEngine(system, config, dataset.graph,
                                       dataset.split.train)
                          .value();
        const auto report = engine->Train(1).value();
        table.AddRow(
            {dataset.graph.name(), partitioner,
             bench::Fmt(cut_fraction, 3),
             std::string(core::SystemKindName(system)),
             HumanBytes(static_cast<double>(report.total_remote_bytes)),
             bench::Fmt(report.total_time.total_seconds(), 2)});
      }
    }
  }
  table.Print("Ablation: partitioner quality -> communication volume");
  std::printf("\nExpected: METIS cuts fewer triples than random, lowering "
              "remote entity pulls for both systems.\n");
  return 0;
}
