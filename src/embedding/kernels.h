#ifndef HETKG_EMBEDDING_KERNELS_H_
#define HETKG_EMBEDDING_KERNELS_H_

// Batched, vectorized score/optimizer kernels with deterministic SIMD
// dispatch (DESIGN.md §10).
//
// Every kernel in this layer obeys one rule: the floating-point
// operation sequence — element expressions, lane mapping, and reduction
// tree — is FIXED, independent of which implementation executes it.
// Reductions accumulate into `kLaneWidth` partial lanes (element j goes
// to lane j % kLaneWidth) merged by `TreeReduce8`, and elementwise
// expressions keep one canonical association. Each operation is written
// once and compiled for baseline x86-64 and for AVX2, so the scalar
// per-triple API and the batch kernels give the same bits on every
// dispatch path: the path only changes speed (enforced by
// tests/kernel_equivalence_test.cpp).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace hetkg::embedding {

/// Embedding rows of one (h, r, t) triple. Spans alias the caller's row
/// storage; batched kernels detect rows shared with a reference triple
/// BY DATA POINTER to hoist shared query intermediates.
struct TripleView {
  std::span<const float> h;
  std::span<const float> r;
  std::span<const float> t;
};

/// Gradient rows matching a TripleView. Entries may be empty when the
/// corresponding upstream is zero (the kernel skips them).
struct GradView {
  std::span<float> h;
  std::span<float> r;
  std::span<float> t;
};

enum class ModelKind;  // embedding/score_function.h

namespace kernels {

// -- Runtime dispatch --------------------------------------------------

/// Resolved executable path. Gauge encoding (`kernel.dispatch`):
/// 0 = scalar (per-triple loop, baseline build), 1 = batch kernels in
/// the baseline build, 2 = batch kernels in the AVX2 build.
enum class KernelPath {
  kScalar = 0,
  kPortableVector = 1,
  kAvx2 = 2,
};

/// Runtime-detected CPU SIMD features (x86 only; all-false elsewhere).
struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
  bool f16c = false;  // Hardware fp32<->fp16 conversion (VCVTPH2PS).
  std::string ToString() const;
};
CpuFeatures DetectCpuFeatures();

std::string_view KernelPathName(KernelPath path);

/// Sets the process-wide dispatch. A path pins it (kAvx2 is refused on
/// a CPU without AVX2); std::nullopt re-resolves the default: the CPU's
/// best path, or kScalar when HETKG_KERNEL=scalar. Every path is
/// bit-identical, so switching mid-process changes only speed.
Status SetKernelPath(std::optional<KernelPath> path);
KernelPath ActivePath();

/// True when the batched kernels should take their vectorized paths.
bool UseVectorPath();

/// ActivePath() as a double, for the `kernel.dispatch` metric gauge.
double DispatchGauge();

/// The HETKG_KERNEL value observed by the most recent dispatch
/// resolution ("<unset>" when absent). The environment is read exactly
/// once per resolution; this snapshot is what the startup log reports,
/// so log and dispatch can never disagree.
std::string DispatchEnvSnapshot();

/// Logs detected CPU features + the chosen kernel path once per
/// process (engines call this at startup).
void LogDispatchOnce();

// -- Deterministic lane reduction --------------------------------------

/// Fixed accumulation width: element j of a reduction is accumulated
/// into lane j % kLaneWidth on every path (one AVX2 float vector).
inline constexpr size_t kLaneWidth = 8;

/// Canonical merge of the 8 partial lanes. The tree shape is part of
/// the determinism contract — every kernel path funnels through it.
inline double TreeReduce8(const double lane[kLaneWidth]) {
  const double s01 = lane[0] + lane[1];
  const double s23 = lane[2] + lane[3];
  const double s45 = lane[4] + lane[5];
  const double s67 = lane[6] + lane[7];
  return (s01 + s23) + (s45 + s67);
}

/// Reusable per-thread/per-chunk scratch for the hoisted query
/// intermediates (h+r, h∘r, the ComplEx (A, B) pair). Contents never
/// affect results; holding one per chunk amortizes allocations.
struct KernelScratch {
  std::vector<double> a;
  std::vector<double> b;
};

// -- Score kernels -----------------------------------------------------
// The math of TransE, DistMult and ComplEx; their ScoreFunction classes
// delegate here. Score/ScoreBackward take one triple. The batch calls
// score `triples` (resp. accumulate their gradients) in one call:
// triples sharing (h, r) with `ref` reuse a hoisted per-query
// intermediate, all others read their rows. Output is bit-identical to
// looping the per-triple calls, on every dispatch path. Backward applies
// entries in ascending index order and skips any k with
// upstreams[k] == 0 (its GradView may be empty).

// `model` is kTransEL1, kTransEL2, kDistMult or kComplEx.

double Score(ModelKind model, const TripleView& v);
void ScoreBackward(ModelKind model, const TripleView& v, double upstream,
                   const GradView& g);
void ScoreBatch(ModelKind model, const TripleView& ref,
                std::span<const TripleView> triples, std::span<double> scores,
                KernelScratch* scratch);
void ScoreBackwardBatch(ModelKind model, const TripleView& ref,
                        std::span<const TripleView> triples,
                        std::span<const double> upstreams,
                        std::span<const GradView> grads,
                        KernelScratch* scratch);

/// Vectorized sparse-AdaGrad row update:
///   acc[j] += float(g*g);  row[j] -= float(lr * g / sqrt(acc[j] + eps))
/// with g = double(grad[j]). sqrt and divide are IEEE-exact, so every
/// build is bit-identical to AdaGrad::Apply's scalar loop.
void AdaGradApplyRow(std::span<float> row, std::span<const float> grad,
                     float* acc, double learning_rate, double epsilon);

// -- Cold-tier row codecs (DESIGN.md §16) ------------------------------
// The quantize-on-write-back / dequantize-on-pull primitives of the
// tiered embedding store (embedding/tiered_store.h). They follow the
// same contract as every other kernel here: every dispatch path produces
// identical bits, even when cold rows round-trip through int8/fp16.
//
// fp16 is IEEE binary16 with round-to-nearest-even (the F16C hardware
// rounding); the scalar encoder reproduces the hardware bits exactly,
// including denormal and infinity handling. int8 is per-row affine:
//   scale = (max - min) / 255,  q[j] = rne((v[j] - min) / scale)
// stored alongside the row; decode is v = min + q * scale (explicit
// mul+add, never an FMA, so vector and scalar bits agree).

/// fp32 -> binary16 (RNE), one value. Exposed for tests.
uint16_t Fp16FromFloat(float v);
/// binary16 -> fp32, exact.
float Fp16ToFloat(uint16_t h);

/// Row encode/decode; `dst`/`src` hold src.size() halves.
void EncodeRowFp16(std::span<const float> src, uint16_t* dst);
void DecodeRowFp16(const uint16_t* src, std::span<float> dst);

/// Row encode: writes q[j] for all j and the row's (scale, min) affine
/// parameters. A constant row encodes as scale 0 (all q = 0).
void EncodeRowInt8(std::span<const float> src, uint8_t* q, float* scale,
                   float* min);
void DecodeRowInt8(const uint8_t* q, float scale, float min,
                   std::span<float> dst);

}  // namespace kernels
}  // namespace hetkg::embedding

#endif  // HETKG_EMBEDDING_KERNELS_H_
