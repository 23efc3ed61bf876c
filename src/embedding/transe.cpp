#include "embedding/transe.h"

#include <cassert>

#include "embedding/kernels.h"

namespace hetkg::embedding {

// The math lives in embedding/kernels.cpp; the scalar API delegates to
// the canonical per-triple kernels so Score/ScoreBackward and the batch
// overrides share one floating-point operation order (DESIGN.md §10).

TransE::TransE(int p) : p_(p) { assert(p == 1 || p == 2); }

double TransE::Score(std::span<const float> h, std::span<const float> r,
                     std::span<const float> t) const {
  return kernels::Score(kind(), {h, r, t});
}

void TransE::ScoreBackward(std::span<const float> h, std::span<const float> r,
                           std::span<const float> t, double upstream,
                           std::span<float> gh, std::span<float> gr,
                           std::span<float> gt) const {
  kernels::ScoreBackward(kind(), {h, r, t}, upstream, {gh, gr, gt});
}

void TransE::ScoreBatch(const TripleView& ref,
                        std::span<const TripleView> triples,
                        std::span<double> scores,
                        kernels::KernelScratch* scratch) const {
  kernels::ScoreBatch(kind(), ref, triples, scores, scratch);
}

void TransE::ScoreBackwardBatch(const TripleView& ref,
                                std::span<const TripleView> triples,
                                std::span<const double> upstreams,
                                std::span<const GradView> grads,
                                kernels::KernelScratch* scratch) const {
  kernels::ScoreBackwardBatch(kind(), ref, triples, upstreams, grads,
                              scratch);
}

}  // namespace hetkg::embedding
