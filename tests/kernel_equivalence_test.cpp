// Kernel-layer equivalence (DESIGN.md §10): the batched ScoreBatch /
// ScoreBackwardBatch / AdaGrad::ApplyBatch APIs must be BIT-identical
// to looping the scalar API, for every model and every kernel path,
// and the paths must be bit-identical to each other — the dispatch
// path is a pure performance knob.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/trainer.h"
#include "embedding/adagrad.h"
#include "embedding/kernels.h"
#include "embedding/score_function.h"
#include "graph/synthetic.h"
#include "kernel_paths.h"

namespace hetkg {
namespace {

using embedding::GradView;
using embedding::ModelKind;
using embedding::ScoreFunction;
using embedding::TripleView;
namespace kernels = embedding::kernels;
using kernels::KernelPath;

constexpr ModelKind kAllModels[] = {
    ModelKind::kTransEL1, ModelKind::kTransEL2, ModelKind::kDistMult,
    ModelKind::kComplEx,  ModelKind::kTransH,   ModelKind::kTransR,
    ModelKind::kTransD,   ModelKind::kHolE,     ModelKind::kRescal,
};

bool RequiresEvenDim(ModelKind kind) {
  return kind == ModelKind::kComplEx || kind == ModelKind::kTransD;
}

/// The models whose math lives in embedding/kernels.cpp.
bool HasBatchKernel(ModelKind kind) {
  return kind == ModelKind::kTransEL1 || kind == ModelKind::kTransEL2 ||
         kind == ModelKind::kDistMult || kind == ModelKind::kComplEx;
}

/// A pool of entity/relation rows plus a positive and a mixed bag of
/// negatives (tail-corrupt sharing the positive's (h, r) rows — the
/// hoisted path — head-corrupt, relation-corrupt, and one self-loop
/// whose head and tail gradients alias the same row).
struct BatchFixture {
  size_t dim = 0;
  size_t rdim = 0;
  std::vector<float> entities;   // kNumEntities x dim
  std::vector<float> relations;  // kNumRelations x rdim
  TripleView positive;
  std::vector<TripleView> views;      // [0] = positive, [1..] negatives.
  std::vector<double> upstreams;      // [0] = positive's upstream.
  std::vector<size_t> head_keys;      // Entity index per view.
  std::vector<size_t> rel_keys;       // Relation index per view.
  std::vector<size_t> tail_keys;      // Entity index per view.

  static constexpr size_t kNumEntities = 12;
  static constexpr size_t kNumRelations = 4;

  std::span<const float> Entity(size_t e) const {
    return {entities.data() + e * dim, dim};
  }
  std::span<const float> Relation(size_t r) const {
    return {relations.data() + r * rdim, rdim};
  }
};

/// `special` mixes in ±0.0, float denormals and large magnitudes, and
/// zeroes r0/r2 on even coordinates with e1 = e0 there, so the positive
/// and the self-loop hit TransE's exact-zero residual (sign(0)).
BatchFixture MakeFixture(const ScoreFunction& fn, size_t dim, uint64_t seed,
                         bool special = false) {
  BatchFixture fx;
  fx.dim = dim;
  fx.rdim = fn.RelationDim(dim);
  Rng rng(seed);
  fx.entities.resize(BatchFixture::kNumEntities * dim);
  for (float& v : fx.entities) {
    v = static_cast<float>(rng.NextUniform(-0.8, 0.8));
  }
  fx.relations.resize(BatchFixture::kNumRelations * fx.rdim);
  for (float& v : fx.relations) {
    v = static_cast<float>(rng.NextUniform(-0.8, 0.8));
  }
  if (special) {
    constexpr float kSpecials[] = {0.0f, -0.0f, 1e-40f, -3e-41f, 1e15f,
                                   -1e15f, 2.5e14f};
    constexpr size_t kNumSpecials = std::size(kSpecials);
    for (size_t i = 0; i < fx.entities.size(); i += 3) {
      fx.entities[i] = kSpecials[(i / 3) % kNumSpecials];
    }
    for (size_t i = 1; i < fx.relations.size(); i += 3) {
      fx.relations[i] = kSpecials[(i / 3) % kNumSpecials];
    }
    for (size_t j = 0; j < dim; j += 2) {
      fx.relations[0 * fx.rdim + j] = 0.0f;
      fx.relations[2 * fx.rdim + j] = 0.0f;
      fx.entities[1 * dim + j] = fx.entities[0 * dim + j];
    }
  }

  auto add = [&](size_t h, size_t r, size_t t, double upstream) {
    fx.views.push_back({fx.Entity(h), fx.Relation(r), fx.Entity(t)});
    fx.head_keys.push_back(h);
    fx.rel_keys.push_back(r);
    fx.tail_keys.push_back(t);
    fx.upstreams.push_back(upstream);
  };

  // Positive: (e0, r0, e1).
  add(0, 0, 1, rng.NextUniform(-1.0, 1.0));
  fx.positive = fx.views[0];
  // Tail-corrupt negatives (shared (h, r) → hoisted inside the kernel).
  for (size_t t : {2, 3, 4, 5, 6}) {
    add(0, 0, t, rng.NextUniform(-1.0, 1.0));
  }
  // One zero upstream on a tail-corrupt entry (must be skipped).
  add(0, 0, 7, 0.0);
  // Head-corrupt negatives (full vectorized form).
  for (size_t h : {8, 9, 10}) {
    add(h, 0, 1, rng.NextUniform(-1.0, 1.0));
  }
  // Relation-corrupt negative.
  add(0, 1, 1, rng.NextUniform(-1.0, 1.0));
  // Self-loop: head and tail gradients alias one row.
  add(11, 2, 11, rng.NextUniform(-1.0, 1.0));
  return fx;
}

/// Per-key gradient buffers for one full batch-backward application.
struct GradBuffers {
  std::vector<float> entities;
  std::vector<float> relations;

  explicit GradBuffers(const BatchFixture& fx)
      : entities(BatchFixture::kNumEntities * fx.dim, 0.0f),
        relations(BatchFixture::kNumRelations * fx.rdim, 0.0f) {}

  GradView View(const BatchFixture& fx, size_t k) {
    return {{entities.data() + fx.head_keys[k] * fx.dim, fx.dim},
            {relations.data() + fx.rel_keys[k] * fx.rdim, fx.rdim},
            {entities.data() + fx.tail_keys[k] * fx.dim, fx.dim}};
  }
};

// Independent scalar reference for the kernel-backed models: the
// canonical element expressions of DESIGN.md §10, one element at a
// time, in lane j % 8 order. Every kernel path shares one body, so the
// cross-path checks alone could not catch a wrong expression.

double ReferenceScore(ModelKind kind, const TripleView& v) {
  const bool complex = kind == ModelKind::kComplEx;
  const size_t n = complex ? v.h.size() / 2 : v.h.size();
  double lane[kernels::kLaneWidth] = {};
  for (size_t j = 0; j < n; ++j) {
    const double h = v.h[j], r = v.r[j], t = v.t[j];
    double term = (h * r) * t;  // DistMult.
    if (kind == ModelKind::kTransEL1) term = std::fabs((h + r) - t);
    if (kind == ModelKind::kTransEL2) term = ((h + r) - t) * ((h + r) - t);
    if (complex) {
      const double him = v.h[n + j], rim = v.r[n + j], tim = v.t[n + j];
      term = (((h * r) - (him * rim)) * t) + (((him * r) + (h * rim)) * tim);
    }
    lane[j % kernels::kLaneWidth] += term;
  }
  const double sum = kernels::TreeReduce8(lane);
  if (kind == ModelKind::kTransEL1) return -sum;
  return kind == ModelKind::kTransEL2 ? -std::sqrt(sum) : sum;
}

void ReferenceBackward(ModelKind kind, const TripleView& v, double u,
                       const GradView& g) {
  if (kind == ModelKind::kComplEx) {
    const size_t m = v.h.size() / 2;
    const float uf = static_cast<float>(u);
    for (size_t j = 0; j < m; ++j) {
      const float hre = v.h[j], him = v.h[m + j], rre = v.r[j],
                  rim = v.r[m + j], tre = v.t[j], tim = v.t[m + j];
      g.h[j] += uf * (rre * tre + rim * tim);
      g.h[m + j] += uf * (rre * tim - rim * tre);
      g.r[j] += uf * (hre * tre + him * tim);
      g.r[m + j] += uf * (hre * tim - him * tre);
      g.t[j] += uf * (hre * rre - him * rim);
      g.t[m + j] += uf * (him * rre + hre * rim);
    }
    return;
  }
  const double norm = -ReferenceScore(ModelKind::kTransEL2, v);
  if (kind == ModelKind::kTransEL2 && norm <= 1e-12) return;
  for (size_t j = 0; j < v.h.size(); ++j) {
    const double h = v.h[j], r = v.r[j], t = v.t[j], e = (h + r) - t;
    if (kind == ModelKind::kDistMult) {
      g.h[j] += static_cast<float>((u * r) * t);
      g.r[j] += static_cast<float>((u * h) * t);
      g.t[j] += static_cast<float>((u * h) * r);
      continue;
    }
    const double sign = e > 0.0 ? 1.0 : (e < 0.0 ? -1.0 : 0.0);
    const float step = static_cast<float>(
        kind == ModelKind::kTransEL1 ? -u * sign : (-u / norm) * e);
    g.h[j] += step;
    g.r[j] += step;
    g.t[j] -= step;
  }
}

std::vector<size_t> DimsFor(ModelKind kind) {
  // 30 and 64: even, one NOT a multiple of the lane width (8); 5 and
  // 19: odd (tail-loop coverage) where the model allows it.
  std::vector<size_t> dims = {8, 30, 64};
  if (!RequiresEvenDim(kind)) {
    dims.push_back(5);
    dims.push_back(19);
  }
  return dims;
}

/// Runs ScoreBatch + ScoreBackwardBatch on the CURRENT kernel path and
/// checks both against the scalar per-triple loop, and the kernel-backed
/// models against the reference above, bitwise. Fills `out` (scores,
/// grads) so callers can also compare across paths.
/// (void so ASSERT_* may be used.)
struct BatchResult {
  std::vector<double> scores;
  std::vector<float> entity_grads;
  std::vector<float> relation_grads;
};

void RunAndCheckAgainstScalarLoop(const ScoreFunction& fn,
                                  const BatchFixture& fx, BatchResult* out) {
  kernels::KernelScratch scratch;

  // Forward: batch vs per-triple Score.
  out->scores.resize(fx.views.size());
  fn.ScoreBatch(fx.positive, fx.views, out->scores, &scratch);
  for (size_t k = 0; k < fx.views.size(); ++k) {
    const double expect =
        fn.Score(fx.views[k].h, fx.views[k].r, fx.views[k].t);
    ASSERT_EQ(std::bit_cast<uint64_t>(out->scores[k]),
              std::bit_cast<uint64_t>(expect))
        << fn.name() << " dim=" << fx.dim << " view " << k;
    if (HasBatchKernel(fn.kind())) {
      ASSERT_EQ(std::bit_cast<uint64_t>(expect),
                std::bit_cast<uint64_t>(ReferenceScore(fn.kind(), fx.views[k])))
          << fn.name() << " dim=" << fx.dim << " view " << k << " reference";
    }
  }

  // Backward: batch vs scalar loop, into separate buffers.
  GradBuffers batch_bufs(fx);
  GradBuffers loop_bufs(fx);
  GradBuffers reference_bufs(fx);
  std::vector<GradView> grad_views(fx.views.size());
  for (size_t k = 0; k < fx.views.size(); ++k) {
    // Entries with a zero upstream keep an empty GradView — the batch
    // contract says they are skipped and never dereferenced.
    if (fx.upstreams[k] != 0.0) grad_views[k] = batch_bufs.View(fx, k);
  }
  fn.ScoreBackwardBatch(fx.positive, fx.views, fx.upstreams, grad_views,
                        &scratch);
  for (size_t k = 0; k < fx.views.size(); ++k) {
    if (fx.upstreams[k] == 0.0) continue;
    const GradView g = loop_bufs.View(fx, k);
    fn.ScoreBackward(fx.views[k].h, fx.views[k].r, fx.views[k].t,
                     fx.upstreams[k], g.h, g.r, g.t);
    if (HasBatchKernel(fn.kind())) {
      ReferenceBackward(fn.kind(), fx.views[k], fx.upstreams[k],
                        reference_bufs.View(fx, k));
    }
  }
  ASSERT_TRUE(SameBits(batch_bufs.entities, loop_bufs.entities))
      << fn.name() << " dim=" << fx.dim << " entity grads";
  ASSERT_TRUE(SameBits(batch_bufs.relations, loop_bufs.relations))
      << fn.name() << " dim=" << fx.dim << " relation grads";
  if (HasBatchKernel(fn.kind())) {
    ASSERT_TRUE(SameBits(loop_bufs.entities, reference_bufs.entities))
        << fn.name() << " dim=" << fx.dim << " entity grads vs reference";
    ASSERT_TRUE(SameBits(loop_bufs.relations, reference_bufs.relations))
        << fn.name() << " dim=" << fx.dim << " relation grads vs reference";
  }
  out->entity_grads = std::move(batch_bufs.entities);
  out->relation_grads = std::move(batch_bufs.relations);
}

TEST(KernelBatchEquivalenceTest, BatchMatchesScalarLoopOnEveryPath) {
  for (ModelKind kind : kAllModels) {
    for (size_t dim : DimsFor(kind)) {
      for (bool special : {false, true}) {
        if (special && !HasBatchKernel(kind)) continue;
        auto fn = embedding::MakeScoreFunction(kind, dim).value();
        const BatchFixture fx = MakeFixture(*fn, dim, 1000 + dim, special);

        std::optional<BatchResult> scalar_result;
        for (KernelPath path : KernelPaths()) {
          ScopedKernelPath scoped(path);
          BatchResult result;
          RunAndCheckAgainstScalarLoop(*fn, fx, &result);
          if (::testing::Test::HasFatalFailure()) return;
          if (!scalar_result.has_value()) {
            scalar_result = result;
            continue;
          }
          // Across paths: every build produces the scalar path's bits.
          const std::string where = std::string(fn->name()) +
                                    " dim=" + std::to_string(dim) +
                                    (special ? " special" : "") + " path=" +
                                    std::string(kernels::KernelPathName(path));
          ASSERT_TRUE(SameBits(result.scores, scalar_result->scores)) << where;
          ASSERT_TRUE(
              SameBits(result.entity_grads, scalar_result->entity_grads))
              << where;
          ASSERT_TRUE(
              SameBits(result.relation_grads, scalar_result->relation_grads))
              << where;
        }
      }
    }
  }
}

TEST(KernelEdgeCaseTest, EmptyNegativesAreANoOp) {
  for (KernelPath path : KernelPaths()) {
    ScopedKernelPath scoped(path);
    for (ModelKind kind : kAllModels) {
      const size_t dim = 16;
      auto fn = embedding::MakeScoreFunction(kind, dim).value();
      const BatchFixture fx = MakeFixture(*fn, dim, 7);
      kernels::KernelScratch scratch;
      fn->ScoreBatch(fx.positive, {}, {}, &scratch);
      fn->ScoreBackwardBatch(fx.positive, {}, {}, {}, &scratch);
    }
  }
}

TEST(KernelEdgeCaseTest, TransEL2ZeroGradientAtExactMinimum) {
  // h == t elementwise and r == 0 put every e_j at exactly 0, where the
  // L2 gradient -e/||e|| is defined to be zero: no grads may change.
  const size_t dim = 24;
  auto fn =
      embedding::MakeScoreFunction(ModelKind::kTransEL2, dim).value();
  std::vector<float> h(dim);
  Rng rng(3);
  for (float& v : h) v = static_cast<float>(rng.NextUniform(-1.0, 1.0));
  std::vector<float> r(dim, 0.0f);
  std::vector<float> t = h;

  for (KernelPath path : KernelPaths()) {
    ScopedKernelPath scoped(path);
    const TripleView ref{h, r, t};
    const std::vector<TripleView> views = {ref};
    std::vector<double> scores(1);
    kernels::KernelScratch scratch;
    fn->ScoreBatch(ref, views, scores, &scratch);
    EXPECT_EQ(scores[0], 0.0) << kernels::KernelPathName(path);

    std::vector<float> gh(dim, 0.0f), gr(dim, 0.0f), gt(dim, 0.0f);
    const std::vector<GradView> grads = {GradView{gh, gr, gt}};
    const std::vector<double> upstreams = {1.0};
    fn->ScoreBackwardBatch(ref, views, upstreams, grads, &scratch);
    for (size_t j = 0; j < dim; ++j) {
      ASSERT_EQ(gh[j], 0.0f) << kernels::KernelPathName(path);
      ASSERT_EQ(gr[j], 0.0f);
      ASSERT_EQ(gt[j], 0.0f);
    }
  }
}

TEST(KernelAdaGradTest, ApplyBatchBitIdenticalToApply) {
  for (size_t dim : {1u, 5u, 8u, 27u, 64u, 400u}) {
    Rng rng(40 + dim);
    const size_t kRows = 3;
    std::vector<float> init(kRows * dim);
    for (float& v : init) v = static_cast<float>(rng.NextUniform(-1.0, 1.0));

    std::optional<std::vector<float>> first_rows;
    for (KernelPath path : KernelPaths()) {
      ScopedKernelPath scoped(path);
      embedding::AdaGrad scalar_opt(kRows, dim, 0.1);
      embedding::AdaGrad batch_opt(kRows, dim, 0.1);
      std::vector<float> scalar_rows = init;
      std::vector<float> batch_rows = init;
      // Several steps so the accumulators are nontrivial.
      Rng grad_rng(99);
      for (int step = 0; step < 4; ++step) {
        for (size_t row = 0; row < kRows; ++row) {
          std::vector<float> grad(dim);
          for (float& g : grad) {
            g = static_cast<float>(grad_rng.NextUniform(-0.5, 0.5));
          }
          scalar_opt.Apply(row, {scalar_rows.data() + row * dim, dim}, grad);
          batch_opt.ApplyBatch(row, {batch_rows.data() + row * dim, dim},
                               grad);
        }
      }
      ASSERT_TRUE(SameBits(batch_rows, scalar_rows))
          << "dim=" << dim << " path=" << kernels::KernelPathName(path);
      for (size_t row = 0; row < kRows; ++row) {
        const auto a = scalar_opt.AccumulatorRow(row);
        const auto b = batch_opt.AccumulatorRow(row);
        ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
            << "dim=" << dim << " row=" << row;
      }
      if (!first_rows.has_value()) {
        first_rows = batch_rows;
      } else {
        ASSERT_TRUE(SameBits(batch_rows, *first_rows)) << "dim=" << dim;
      }
    }
  }
}

TEST(KernelDispatchTest, PathNames) {
  EXPECT_EQ(kernels::KernelPathName(KernelPath::kScalar), "scalar");
  EXPECT_EQ(kernels::KernelPathName(KernelPath::kPortableVector),
            "portable-vector");
  EXPECT_EQ(kernels::KernelPathName(KernelPath::kAvx2), "avx2");
}

TEST(KernelDispatchTest, PinnedPathWinsGaugeTracksPath) {
  for (KernelPath path : KernelPaths()) {
    ScopedKernelPath scoped(path);
    EXPECT_EQ(kernels::ActivePath(), path);
    EXPECT_EQ(kernels::UseVectorPath(), path != KernelPath::kScalar);
    EXPECT_EQ(kernels::DispatchGauge(), static_cast<double>(path));
  }
  if (!kernels::DetectCpuFeatures().avx2) {
    EXPECT_FALSE(kernels::SetKernelPath(KernelPath::kAvx2).ok());
  }
}

TEST(KernelDispatchTest, EnvironmentSteersAutoOnly) {
  const char* saved = std::getenv("HETKG_KERNEL");
  const std::string saved_value = saved != nullptr ? saved : "";

  ::setenv("HETKG_KERNEL", "scalar", 1);
  ASSERT_TRUE(kernels::SetKernelPath(std::nullopt).ok());
  EXPECT_EQ(kernels::ActivePath(), KernelPath::kScalar);
  // A pinned path ignores the environment (the equivalence tests rely
  // on this to force every path under a CI-set HETKG_KERNEL).
  ASSERT_TRUE(kernels::SetKernelPath(KernelPath::kPortableVector).ok());
  EXPECT_EQ(kernels::ActivePath(), KernelPath::kPortableVector);

  ::setenv("HETKG_KERNEL", "vector", 1);
  ASSERT_TRUE(kernels::SetKernelPath(std::nullopt).ok());
  EXPECT_NE(kernels::ActivePath(), KernelPath::kScalar);
  ASSERT_TRUE(kernels::SetKernelPath(KernelPath::kScalar).ok());
  EXPECT_EQ(kernels::ActivePath(), KernelPath::kScalar);

  // Unknown values fall back to the CPU-feature default.
  ::setenv("HETKG_KERNEL", "quantum", 1);
  ASSERT_TRUE(kernels::SetKernelPath(std::nullopt).ok());
  EXPECT_NE(kernels::ActivePath(), KernelPath::kScalar);

  if (saved != nullptr) {
    ::setenv("HETKG_KERNEL", saved_value.c_str(), 1);
  } else {
    ::unsetenv("HETKG_KERNEL");
  }
  ASSERT_TRUE(kernels::SetKernelPath(std::nullopt).ok());
}

// ---------------------------------------------------------------------
// End-to-end: whole training runs must be bit-identical across kernel
// paths (the training-level analogue of the unit checks).
// ---------------------------------------------------------------------

struct TrainOutput {
  std::vector<float> embeddings;
  std::vector<double> losses;
  std::vector<std::pair<std::string, uint64_t>> metrics;
};

TrainOutput Train(core::SystemKind system, ModelKind model,
                  const graph::SyntheticDataset& dataset) {
  core::TrainerConfig config;
  config.model = model;
  config.dim = 16;
  config.batch_size = 32;
  config.negatives_per_positive = 8;
  config.num_machines = 2;
  config.cache_capacity = 64;
  config.sync.staleness_bound = 4;
  config.sync.dps_window = 8;
  config.pbg_partitions = 4;
  config.seed = 5;
  config.num_threads = 2;
  auto engine =
      core::MakeEngine(system, config, dataset.graph, dataset.split.train)
          .value();
  auto report = engine->Train(2).value();

  TrainOutput out;
  const eval::EmbeddingLookup& lookup = engine->Embeddings();
  for (size_t e = 0; e < lookup.num_entities(); ++e) {
    const auto row = lookup.Entity(static_cast<EntityId>(e));
    out.embeddings.insert(out.embeddings.end(), row.begin(), row.end());
  }
  for (size_t r = 0; r < lookup.num_relations(); ++r) {
    const auto row = lookup.Relation(static_cast<RelationId>(r));
    out.embeddings.insert(out.embeddings.end(), row.begin(), row.end());
  }
  for (const auto& epoch : report.epochs) {
    out.losses.push_back(epoch.mean_loss);
  }
  out.metrics = report.metrics.Snapshot();
  return out;
}

TEST(KernelTrainingIdentityTest, BitIdenticalAcrossKernelSettings) {
  graph::SyntheticSpec spec;
  spec.name = "kernel-det";
  spec.num_entities = 200;
  spec.num_relations = 8;
  spec.num_triples = 2000;
  spec.seed = 33;
  const auto dataset = graph::GenerateDataset(spec).value();

  for (ModelKind model : {ModelKind::kTransEL1, ModelKind::kDistMult,
                          ModelKind::kComplEx}) {
    std::optional<TrainOutput> scalar;
    for (KernelPath path : KernelPaths()) {
      ScopedKernelPath scoped(path);
      const TrainOutput out =
          Train(core::SystemKind::kHetKgDps, model, dataset);
      if (!scalar.has_value()) {
        ASSERT_FALSE(out.losses.empty());
        scalar = out;
        continue;
      }
      const std::string where = std::string(embedding::ModelKindName(model)) +
                                " path=" +
                                std::string(kernels::KernelPathName(path));
      EXPECT_TRUE(SameBits(out.losses, scalar->losses)) << where;
      EXPECT_EQ(out.metrics, scalar->metrics) << where;
      ASSERT_TRUE(SameBits(out.embeddings, scalar->embeddings)) << where;
    }
  }
}

}  // namespace
}  // namespace hetkg
