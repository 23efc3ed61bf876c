#include "embedding/complex.h"

#include <cassert>

#include "embedding/kernels.h"

namespace hetkg::embedding {

// The math lives in embedding/kernels.cpp; the scalar API delegates to
// the canonical per-triple kernels so Score/ScoreBackward and the batch
// overrides share one floating-point operation order (DESIGN.md §10).
// The canonical score groups the sum by the h∘r complex product:
//   A_j = hRe_j rRe_j - hIm_j rIm_j,  B_j = hIm_j rRe_j + hRe_j rIm_j,
//   score = sum_j A_j tRe_j + B_j tIm_j
// which is the same Re(<h, r, conj(t)>) with the (A, B) intermediate
// hoistable across negatives sharing (h, r).

double ComplEx::Score(std::span<const float> h, std::span<const float> r,
                      std::span<const float> t) const {
  assert(h.size() % 2 == 0);
  assert(h.size() == r.size() && h.size() == t.size());
  return kernels::Score(kind(), {h, r, t});
}

void ComplEx::ScoreBackward(std::span<const float> h, std::span<const float> r,
                            std::span<const float> t, double upstream,
                            std::span<float> gh, std::span<float> gr,
                            std::span<float> gt) const {
  assert(h.size() % 2 == 0);
  kernels::ScoreBackward(kind(), {h, r, t}, upstream, {gh, gr, gt});
}

void ComplEx::ScoreBatch(const TripleView& ref,
                         std::span<const TripleView> triples,
                         std::span<double> scores,
                         kernels::KernelScratch* scratch) const {
  kernels::ScoreBatch(kind(), ref, triples, scores, scratch);
}

void ComplEx::ScoreBackwardBatch(const TripleView& ref,
                                 std::span<const TripleView> triples,
                                 std::span<const double> upstreams,
                                 std::span<const GradView> grads,
                                 kernels::KernelScratch* scratch) const {
  kernels::ScoreBackwardBatch(kind(), ref, triples, upstreams, grads,
                              scratch);
}

}  // namespace hetkg::embedding
