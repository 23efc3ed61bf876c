// google-benchmark micro-kernels for the inner loops every experiment
// leans on: score forward/backward per model, sparse AdaGrad, cache
// lookup/assignment, Zipf sampling, and the prefetch+filter pipeline.
#include <benchmark/benchmark.h>

#include "hetkg/hetkg.h"

namespace {

using namespace hetkg;

/// Registers one benchmark instance per ModelKind (all 9).
void AllModelKinds(benchmark::internal::Benchmark* b) {
  for (embedding::ModelKind kind :
       {embedding::ModelKind::kTransEL1, embedding::ModelKind::kTransEL2,
        embedding::ModelKind::kDistMult, embedding::ModelKind::kComplEx,
        embedding::ModelKind::kTransH, embedding::ModelKind::kTransR,
        embedding::ModelKind::kTransD, embedding::ModelKind::kHolE,
        embedding::ModelKind::kRescal}) {
    b->Arg(static_cast<int>(kind));
  }
}

void BM_ScoreForward(benchmark::State& state) {
  const auto kind = static_cast<embedding::ModelKind>(state.range(0));
  const size_t dim = 64;
  auto fn = embedding::MakeScoreFunction(kind, dim).value();
  Rng rng(1);
  std::vector<float> h(dim), t(dim), r(fn->RelationDim(dim));
  for (auto* v : {&h, &t, &r}) {
    for (auto& x : *v) x = static_cast<float>(rng.NextGaussian());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fn->Score(h, r, t));
  }
  state.SetLabel(std::string(fn->name()));
}
BENCHMARK(BM_ScoreForward)->Apply(AllModelKinds);

void BM_ScoreBackward(benchmark::State& state) {
  const auto kind = static_cast<embedding::ModelKind>(state.range(0));
  const size_t dim = 64;
  auto fn = embedding::MakeScoreFunction(kind, dim).value();
  Rng rng(2);
  std::vector<float> h(dim), t(dim), r(fn->RelationDim(dim));
  std::vector<float> gh(dim), gt(dim), gr(fn->RelationDim(dim));
  for (auto* v : {&h, &t, &r}) {
    for (auto& x : *v) x = static_cast<float>(rng.NextGaussian());
  }
  for (auto _ : state) {
    fn->ScoreBackward(h, r, t, 1.0, gh, gr, gt);
    benchmark::DoNotOptimize(gh.data());
  }
  state.SetLabel(std::string(fn->name()));
}
BENCHMARK(BM_ScoreBackward)->Apply(AllModelKinds);

/// Pins the kernel dispatch: the scalar path, or the CPU's best batch
/// path (the AVX2 build when the CPU has AVX2).
void PinKernelPath(bool batched) {
  using embedding::kernels::KernelPath;
  const KernelPath path = !batched ? KernelPath::kScalar
                          : embedding::kernels::DetectCpuFeatures().avx2
                              ? KernelPath::kAvx2
                              : KernelPath::kPortableVector;
  if (!embedding::kernels::SetKernelPath(path).ok()) std::abort();
}

// Batched forward+backward of one positive and N tail-corrupt
// negatives, the exact shape ParallelBatchScorer::ProcessChunk issues.
// range(3) selects the path: 0 = per-triple scalar loop on the scalar
// path (the baseline x86-64 build), 1 = the batch API on the CPU's best
// path. Items/sec ratio between the two at equal (model, dim, negs) is
// the batched-kernel speedup (EXPERIMENTS.md).
void BM_ScoreBatch(benchmark::State& state) {
  const auto kind = static_cast<embedding::ModelKind>(state.range(0));
  const size_t dim = static_cast<size_t>(state.range(1));
  const size_t negs = static_cast<size_t>(state.range(2));
  const bool batched = state.range(3) != 0;
  PinKernelPath(batched);

  auto fn = embedding::MakeScoreFunction(kind, dim).value();
  const size_t rdim = fn->RelationDim(dim);
  Rng rng(5);
  std::vector<float> h(dim), r(rdim), t(dim);
  for (auto* v : {&h, &r, &t}) {
    for (auto& x : *v) x = static_cast<float>(rng.NextGaussian());
  }
  std::vector<std::vector<float>> neg_tails(negs, std::vector<float>(dim));
  for (auto& tail : neg_tails) {
    for (auto& x : tail) x = static_cast<float>(rng.NextGaussian());
  }

  const embedding::TripleView ref{h, r, t};
  std::vector<embedding::TripleView> views(negs + 1);
  views[0] = ref;
  for (size_t g = 0; g < negs; ++g) {
    views[g + 1] = {h, r, neg_tails[g]};
  }
  std::vector<double> upstreams(negs + 1, 1.0 / static_cast<double>(negs));
  upstreams[0] = -1.0;
  std::vector<float> gh(dim, 0.0f), gr(rdim, 0.0f);
  std::vector<std::vector<float>> gts(negs + 1, std::vector<float>(dim));
  std::vector<embedding::GradView> grads(negs + 1);
  for (size_t k = 0; k <= negs; ++k) {
    grads[k] = {gh, gr, gts[k]};
  }
  std::vector<double> scores(negs);
  embedding::kernels::KernelScratch scratch;

  for (auto _ : state) {
    if (batched) {
      fn->ScoreBatch(ref,
                     std::span<const embedding::TripleView>(views).subspan(1),
                     scores, &scratch);
      fn->ScoreBackwardBatch(ref, views, upstreams, grads, &scratch);
    } else {
      for (size_t g = 0; g < negs; ++g) {
        scores[g] = fn->Score(views[g + 1].h, views[g + 1].r, views[g + 1].t);
      }
      for (size_t k = 0; k <= negs; ++k) {
        fn->ScoreBackward(views[k].h, views[k].r, views[k].t, upstreams[k],
                          grads[k].h, grads[k].r, grads[k].t);
      }
    }
    benchmark::DoNotOptimize(scores.data());
    benchmark::DoNotOptimize(gh.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(negs + 1));
  state.SetLabel(std::string(fn->name()) + " dim=" + std::to_string(dim) +
                 " negs=" + std::to_string(negs) +
                 (batched ? " batch" : " scalar"));
  (void)embedding::kernels::SetKernelPath(std::nullopt);
}
BENCHMARK(BM_ScoreBatch)
    ->ArgsProduct({{static_cast<int>(embedding::ModelKind::kTransEL1),
                    static_cast<int>(embedding::ModelKind::kTransEL2),
                    static_cast<int>(embedding::ModelKind::kDistMult),
                    static_cast<int>(embedding::ModelKind::kComplEx)},
                   {64, 128, 400},
                   {1, 8, 64},
                   {0, 1}});

void BM_AdaGradApply(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  embedding::EmbeddingTable table(1024, dim);
  embedding::AdaGrad opt(1024, dim, 0.1);
  std::vector<float> grad(dim, 0.01f);
  size_t row = 0;
  for (auto _ : state) {
    opt.Apply(row, table.Row(row), grad);
    row = (row + 1) % 1024;
  }
  state.SetBytesProcessed(state.iterations() * dim * sizeof(float));
}
BENCHMARK(BM_AdaGradApply)->Arg(16)->Arg(64)->Arg(400);

// AdaGrad whole-row update: range(1) = 0 runs Apply on the scalar
// path, 1 runs ApplyBatch on the CPU's best path.
void BM_AdaGradApplyBatch(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const bool batched = state.range(1) != 0;
  PinKernelPath(batched);
  embedding::EmbeddingTable table(1024, dim);
  embedding::AdaGrad opt(1024, dim, 0.1);
  std::vector<float> grad(dim, 0.01f);
  size_t row = 0;
  for (auto _ : state) {
    if (batched) {
      opt.ApplyBatch(row, table.Row(row), grad);
    } else {
      opt.Apply(row, table.Row(row), grad);
    }
    row = (row + 1) % 1024;
  }
  state.SetBytesProcessed(state.iterations() * dim * sizeof(float));
  state.SetLabel("dim=" + std::to_string(dim) +
                 (batched ? " batch" : " scalar"));
  (void)embedding::kernels::SetKernelPath(std::nullopt);
}
BENCHMARK(BM_AdaGradApplyBatch)->ArgsProduct({{64, 128, 400}, {0, 1}});

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(static_cast<size_t>(state.range(0)), 0.8, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next());
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1 << 14)->Arg(1 << 20);

void BM_HotTableLookup(benchmark::State& state) {
  core::HotEmbeddingTable table(512, 1536, 64, 64, 0.1);
  std::vector<EmbKey> keys;
  for (EntityId e = 0; e < 512; ++e) keys.push_back(EntityKey(e));
  for (RelationId r = 0; r < 1536; ++r) keys.push_back(RelationKey(r));
  table.Assign(keys);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Contains(keys[i]));
    benchmark::DoNotOptimize(table.Row(keys[i]).data());
    i = (i + 1) % keys.size();
  }
}
BENCHMARK(BM_HotTableLookup);

void BM_PrefetchAndFilter(benchmark::State& state) {
  graph::SyntheticSpec spec;
  spec.num_entities = 5000;
  spec.num_relations = 100;
  spec.num_triples = 50000;
  spec.planted_structure = false;
  auto graph = graph::GenerateSynthetic(spec).value();
  embedding::BatchedNegativeSampler sampler(spec.num_entities, 8, 8, 5);
  const auto& triples = graph.triples();
  core::Prefetcher prefetcher(&triples, 32, &sampler, 7);
  const core::FilterOptions options{256, 0.25, true};
  const core::FilterQuota quota =
      core::ComputeQuota(options, spec.num_entities, spec.num_relations);
  for (auto _ : state) {
    core::FrequencyMap freq;
    prefetcher.PrefetchCountOnly(64, &freq);
    benchmark::DoNotOptimize(core::FilterHotKeys(freq, options, quota));
  }
}
BENCHMARK(BM_PrefetchAndFilter)->Unit(benchmark::kMillisecond);

// Full batch forward/backward through the deterministic parallel
// scorer at 1/2/4/8 threads. The decomposition is identical at every
// thread count, so this measures pure fan-out speedup (on a machine
// with that many cores; a single-core host shows ~flat numbers plus
// scheduling overhead).
void BM_BatchForwardBackward(benchmark::State& state) {
  const size_t num_threads = static_cast<size_t>(state.range(0));
  const size_t dim = 64;
  const size_t num_entities = 1024;
  const size_t num_relations = 32;
  const size_t num_positives = 128;
  const size_t negatives_per_positive = 8;

  auto score_fn =
      embedding::MakeScoreFunction(embedding::ModelKind::kTransEL1, dim)
          .value();
  auto loss_fn =
      embedding::MakeLossFunction("margin", 1.0, negatives_per_positive)
          .value();

  // One dense key table standing in for a resolved mini-batch: entity
  // rows first, relation rows after (same layout the engines build).
  const size_t num_keys = num_entities + num_relations;
  Rng rng(17);
  std::vector<float> table(num_keys * dim);
  for (float& v : table) {
    v = static_cast<float>(rng.NextUniform(-0.5, 0.5));
  }
  std::vector<std::span<float>> rows;
  std::vector<size_t> offsets = {0};
  for (size_t k = 0; k < num_keys; ++k) {
    rows.emplace_back(table.data() + k * dim, dim);
    offsets.push_back(offsets.back() + dim);
  }

  std::vector<core::ResolvedTriple> positives;
  std::vector<core::ResolvedPair> pairs;
  for (size_t p = 0; p < num_positives; ++p) {
    core::ResolvedTriple pos;
    pos.head = static_cast<uint32_t>(rng.NextBounded(num_entities));
    pos.relation = static_cast<uint32_t>(
        num_entities + rng.NextBounded(num_relations));
    pos.tail = static_cast<uint32_t>(rng.NextBounded(num_entities));
    positives.push_back(pos);
    for (size_t n = 0; n < negatives_per_positive; ++n) {
      core::ResolvedPair pair;
      pair.positive_index = static_cast<uint32_t>(p);
      pair.negative = pos;
      (rng.NextBernoulli(0.5) ? pair.negative.head : pair.negative.tail) =
          static_cast<uint32_t>(rng.NextBounded(num_entities));
      pairs.push_back(pair);
    }
  }

  std::unique_ptr<ThreadPool> pool;
  if (num_threads > 1) pool = std::make_unique<ThreadPool>(num_threads);
  core::ParallelBatchScorer scorer;
  std::vector<float> grads(offsets.back(), 0.0f);
  std::vector<double> pos_scores;
  for (auto _ : state) {
    std::fill(grads.begin(), grads.end(), 0.0f);
    const core::BatchStats stats =
        scorer.Run(*score_fn, *loss_fn, positives, pairs, rows, offsets,
                   grads, &pos_scores, pool.get());
    benchmark::DoNotOptimize(stats.loss_sum);
    benchmark::DoNotOptimize(grads.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pairs.size()));
  state.SetLabel("threads=" + std::to_string(num_threads));
}
BENCHMARK(BM_BatchForwardBackward)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_LinkPredictionRanking(benchmark::State& state) {
  graph::SyntheticSpec spec;
  spec.num_entities = 2000;
  spec.num_relations = 20;
  spec.num_triples = 20000;
  auto dataset = graph::GenerateDataset(spec).value();
  embedding::EmbeddingTable entities(spec.num_entities, 32);
  embedding::EmbeddingTable relations(spec.num_relations, 32);
  Rng rng(9);
  entities.InitXavierUniform(&rng);
  relations.InitXavierUniform(&rng);
  core::TableLookup lookup(&entities, &relations);
  auto fn =
      embedding::MakeScoreFunction(embedding::ModelKind::kTransEL1, 32)
          .value();
  eval::EvalOptions options;
  options.max_triples = 20;
  options.num_candidates = 500;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::EvaluateLinkPrediction(
        lookup, *fn, dataset.graph, dataset.split.test, options));
  }
}
BENCHMARK(BM_LinkPredictionRanking)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
