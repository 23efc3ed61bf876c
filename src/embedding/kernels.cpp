#include "embedding/kernels.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/logging.h"
#include "embedding/score_function.h"

// Every kernel body is written once, in GCC vector extensions, and
// built for baseline x86-64 and under target("avx2"); dispatch picks
// the AVX2 build only when the CPU reports AVX2. Bit-identity relies on
// every lane op being IEEE-exact (add, sub, mul, div, sqrt, cvt, and
// bitwise abs/sign games) and on FMA contraction being disabled
// project-wide (-ffp-contract=off): a fused multiply-add rounds once
// where the scalar expression rounds twice. No target enables fma.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HETKG_KERNELS_X86 1
#include <immintrin.h>
#endif

// Lane helpers pass 32-byte vectors by value but are always inlined,
// so GCC's baseline-ABI note on such signatures does not apply.
#pragma GCC diagnostic ignored "-Wpsabi"

namespace hetkg::embedding::kernels {

// ======================================================================
// Dispatch
// ======================================================================

namespace {

std::atomic<int> g_path{-1};  // -1 = not yet resolved.
std::once_flag g_log_once;

// HETKG_KERNEL is read exactly ONCE per dispatch resolution and the
// observed value cached here, so the startup log always reports the
// env string that actually steered the decision — never a second read
// that could disagree if the environment changed in between.
std::mutex g_env_mu;
std::string g_env_snapshot;
bool g_env_snapshot_set = false;

/// The CPU's best path, unless HETKG_KERNEL=scalar. "auto", "vector"
/// (the CPU's best path anyway) and unknown values keep the default.
/// This is the single environment read feeding one resolution.
KernelPath ResolveFromCpuAndEnv() {
  const char* env = std::getenv("HETKG_KERNEL");
  const bool set = env != nullptr && *env != '\0';
  {
    std::lock_guard<std::mutex> lock(g_env_mu);
    g_env_snapshot_set = set;
    g_env_snapshot = set ? env : "";
  }
  if (set && std::string_view(env) == "scalar") return KernelPath::kScalar;
  return DetectCpuFeatures().avx2 ? KernelPath::kAvx2
                                  : KernelPath::kPortableVector;
}

}  // namespace

CpuFeatures DetectCpuFeatures() {
  CpuFeatures f;
#if HETKG_KERNELS_X86
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
  f.fma = __builtin_cpu_supports("fma") != 0;
  f.f16c = __builtin_cpu_supports("f16c") != 0;
#endif
  return f;
}

std::string CpuFeatures::ToString() const {
  std::string s;
  if (avx2) s += "avx2";
  if (fma) s += s.empty() ? "fma" : "+fma";
  if (f16c) s += s.empty() ? "f16c" : "+f16c";
  return s.empty() ? "none" : s;
}

std::string_view KernelPathName(KernelPath path) {
  switch (path) {
    case KernelPath::kScalar:
      return "scalar";
    case KernelPath::kPortableVector:
      return "portable-vector";
    case KernelPath::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Status SetKernelPath(std::optional<KernelPath> path) {
  if (path == KernelPath::kAvx2 && !DetectCpuFeatures().avx2) {
    return Status::FailedPrecondition(
        "kernel path avx2 needs a CPU with AVX2");
  }
  const KernelPath resolved =
      path.has_value() ? *path : ResolveFromCpuAndEnv();
  g_path.store(static_cast<int>(resolved), std::memory_order_relaxed);
  return Status::OK();
}

KernelPath ActivePath() {
  int p = g_path.load(std::memory_order_relaxed);
  if (p < 0) {
    p = static_cast<int>(ResolveFromCpuAndEnv());
    g_path.store(p, std::memory_order_relaxed);
  }
  return static_cast<KernelPath>(p);
}

bool UseVectorPath() { return ActivePath() != KernelPath::kScalar; }

double DispatchGauge() { return static_cast<double>(ActivePath()); }

std::string DispatchEnvSnapshot() {
  std::lock_guard<std::mutex> lock(g_env_mu);
  return g_env_snapshot_set ? g_env_snapshot : "<unset>";
}

void LogDispatchOnce() {
  // Report the SAME env snapshot that steered the dispatch decision —
  // a second getenv here could disagree with the resolution if the
  // environment changed between the two reads.
  std::call_once(g_log_once, [] {
    HETKG_LOG(Info) << "kernel dispatch: path=" << KernelPathName(ActivePath())
                    << " (cpu features: " << DetectCpuFeatures().ToString()
                    << ", HETKG_KERNEL=" << DispatchEnvSnapshot() << ")";
  });
}

// ======================================================================
// Lanes
// ======================================================================
//
// A lane type V is a 32-byte vector (D4: 4 doubles, F8: 8 floats; F4 is
// the 4-float half that widens to a D4) or the matching scalar for the
// tail. Each body is one generic expression evaluated at both widths, so
// the vector blocks and the scalar tail cannot drift apart. Every
// reduction accumulates element j into lane j % kLaneWidth and merges
// through TreeReduce8, whatever build runs it.

namespace {

#define HETKG_LANES inline __attribute__((always_inline))
#define HETKG_LANES_LAMBDA __attribute__((always_inline))

typedef float F4 __attribute__((vector_size(16)));
typedef float F8 __attribute__((vector_size(32)));
typedef double D4 __attribute__((vector_size(32)));
typedef int64_t I4 __attribute__((vector_size(32)));

/// The element type of lane type V (V itself for a scalar), and the
/// number of elements V holds.
template <class V>
auto ElemOf() {
  if constexpr (std::is_arithmetic_v<V>) return V{};
  else return V{}[0];
}
template <class V>
using Elem = decltype(ElemOf<V>());
template <class V>
constexpr size_t kWidth = sizeof(V) / sizeof(Elem<V>);

/// Loads kWidth<V> values of T at p, converted to V's element type.
/// (Element-wise braces, not __builtin_convertvector of a loaded
/// vector: GCC 12 splits that widening into 128-bit halves.)
template <class V, class T>
HETKG_LANES V Load(const T* p) {
  if constexpr (std::is_arithmetic_v<V>) {
    return static_cast<V>(*p);
  } else {
    typedef int32_t Ints __attribute__((vector_size(kWidth<V> * 4)));
    return [p]<size_t... i>(std::index_sequence<i...>) HETKG_LANES_LAMBDA {
      if constexpr (std::is_integral_v<T>) {
        return __builtin_convertvector(Ints{p[i]...}, V);
      } else {
        return V{p[i]...};
      }
    }(std::make_index_sequence<kWidth<V>>{});
  }
}

/// Stores v at p through V's own type (GCC gives a vector type its
/// element type's alias set), not memcpy: the store then cannot alias
/// the row pointers and sizes the loop keeps in registers.
template <class V, class T>
HETKG_LANES void Store(T* p, V v) {
  static_assert(std::is_same_v<Elem<V>, T>);
  typedef V Unaligned __attribute__((aligned(alignof(T))));
  *reinterpret_cast<Unaligned*>(p) = v;
}

HETKG_LANES float Narrow(double v) { return static_cast<float>(v); }
HETKG_LANES F4 Narrow(D4 v) { return __builtin_convertvector(v, F4); }
HETKG_LANES double Widen(float v) { return v; }
HETKG_LANES D4 Widen(F4 v) { return D4{v[0], v[1], v[2], v[3]}; }

HETKG_LANES double Abs(double e) { return std::fabs(e); }
HETKG_LANES D4 Abs(D4 e) {
  return reinterpret_cast<D4>(reinterpret_cast<I4>(e) & INT64_MAX);
}

// sign(e) as (e > 0) - (e < 0) built from compare masks; multiplying by
// the exact constants {1.0, -1.0, 0.0} matches the scalar branches (NaN
// and ±0 give +0.0 on both).
HETKG_LANES double Sign(double e) {
  return e > 0.0 ? 1.0 : (e < 0.0 ? -1.0 : 0.0);
}
HETKG_LANES D4 Sign(D4 e) {
  const I4 one = reinterpret_cast<I4>(D4{} + 1.0);
  return reinterpret_cast<D4>((e > D4{}) & one) -
         reinterpret_cast<D4>((e < D4{}) & one);
}

HETKG_LANES double Sqrt(double x) { return std::sqrt(x); }
// Vectorizes because this file builds with -fno-math-errno.
HETKG_LANES D4 Sqrt(D4 x) {
  for (int i = 0; i < 4; ++i) x[i] = std::sqrt(x[i]);
  return x;
}

/// Calls f(V{}, j) on each whole block of kWidth<V> elements, then
/// f(Elem<V>{}, j) on each element of the tail.
template <class V, class F>
HETKG_LANES void ForLanes(size_t n, F&& f) {
  size_t j = 0;
  for (; j + kWidth<V> <= n; j += kWidth<V>) f(V{}, j);
  for (; j < n; ++j) f(Elem<V>{}, j);
}

/// sum_j term(j) over [0, n): element j accumulates into lane j % 8
/// (two D4 blocks per 8 elements), then TreeReduce8.
template <class F>
HETKG_LANES double LaneSum(size_t n, F&& term) {
  D4 lo = {};
  D4 hi = {};
  size_t j = 0;
  for (; j + kLaneWidth <= n; j += kLaneWidth) {
    lo += term(D4{}, j);
    hi += term(D4{}, j + 4);
  }
  double lane[kLaneWidth];
  std::memcpy(lane, &lo, sizeof(lo));
  std::memcpy(lane + 4, &hi, sizeof(hi));
  for (size_t k = 0; j < n; ++j, ++k) lane[k] += term(0.0, j);
  return TreeReduce8(lane);
}

// ======================================================================
// Models
// ======================================================================
//
// A model is its element expressions: RowQuery (the per-element query
// intermediate from the (h, r) rows), Term (one reduction term), Finish
// (score from the sum) and Backward, over n elements. The query source
// (the rows, or a buffer one Hoist filled) lets a tail-corrupt negative
// reuse the positive's (h, r) intermediate through the same body.

/// Per-element query intermediate; only ComplEx uses the second half.
template <class V>
struct Query {
  V a;
  V b;
};

/// Query source: the (h, r) rows themselves ...
struct FromRows {
  const float* h;
  const float* r;
};

/// ... or the double buffers one Hoist filled from the reference rows.
struct FromHoisted {
  const double* a;
  const double* b;
};

template <class V, class M>
HETKG_LANES Query<V> At(const M& model, FromRows q, size_t j) {
  return model.template RowQuery<V>(q, j);
}
template <class V, class M>
HETKG_LANES Query<V> At(const M&, FromHoisted q, size_t j) {
  return {Load<V>(q.a + j), Load<V>(q.b + j)};
}

/// The model's score of the triple with query source q and tail row t.
template <class M, class Src>
HETKG_LANES double ScoreOf(const M& model, const Src& q, const float* t) {
  return model.Finish(
      LaneSum(model.n, [&](auto x, size_t j) HETKG_LANES_LAMBDA {
        return model.Term(At<decltype(x)>(model, q, j), t, j);
      }));
}

// ---- TransE ----------------------------------------------------------
// Canonical element term: e_j = (double(h_j) + r_j) - t_j.
// Score: -sum |e| (L1) or -sqrt(sum e^2) (L2).

template <int P>
struct TransE {
  static constexpr bool kPairQuery = false;
  static constexpr bool kHoistsBackward = true;
  size_t n;

  template <class V>
  HETKG_LANES Query<V> RowQuery(FromRows q, size_t j) const {
    return {Load<V>(q.h + j) + Load<V>(q.r + j), V{}};
  }

  template <class V>
  HETKG_LANES V Term(Query<V> q, const float* t, size_t j) const {
    const V e = q.a - Load<V>(t + j);
    return P == 1 ? Abs(e) : e * e;
  }

  double Finish(double acc) const { return P == 1 ? -acc : -std::sqrt(acc); }

  // Gradient application; coeff = -upstream (L1, multiplied by sign(e))
  // or -upstream/||e|| (L2, multiplied by e). The three updates run in
  // the same per-element order as the scalar API so aliased rows
  // (self-loop triples where gh and gt are the same row) stay identical.
  template <class Src>
  HETKG_LANES void Backward(const Src& q, const TripleView& v,
                            double upstream, const GradView& g) const {
    const float* t = v.t.data();
    // d(-|e|_1)/de_i = -sign(e_i).
    double coeff = -upstream;
    if constexpr (P == 2) {
      // d(-||e||_2)/de_i = -e_i / ||e||_2, and the L2 score is -||e||_2.
      const double norm = -ScoreOf(*this, q, t);
      if (norm <= 1e-12) return;  // Gradient is zero at the exact minimum.
      coeff = -upstream / norm;
    }
    ForLanes<D4>(n, [&](auto x, size_t j) HETKG_LANES_LAMBDA {
      using V = decltype(x);
      const V e = At<V>(*this, q, j).a - Load<V>(t + j);
      const auto gv = Narrow(coeff * (P == 1 ? Sign(e) : e));
      using F = decltype(gv);
      Store(g.h.data() + j, Load<F>(g.h.data() + j) + gv);
      Store(g.r.data() + j, Load<F>(g.r.data() + j) + gv);
      Store(g.t.data() + j, Load<F>(g.t.data() + j) - gv);
    });
  }
};

// ---- DistMult --------------------------------------------------------
// Canonical element term: (double(h_j) * r_j) * t_j.

struct DistMult {
  static constexpr bool kPairQuery = false;
  // The DistMult gradient has no reusable (h, r) intermediate under the
  // canonical association; each entry takes the full form.
  static constexpr bool kHoistsBackward = false;
  size_t n;

  template <class V>
  HETKG_LANES Query<V> RowQuery(FromRows q, size_t j) const {
    return {Load<V>(q.h + j) * Load<V>(q.r + j), V{}};
  }

  template <class V>
  HETKG_LANES V Term(Query<V> q, const float* t, size_t j) const {
    return q.a * Load<V>(t + j);
  }

  double Finish(double acc) const { return acc; }

  template <class Src>
  HETKG_LANES void Backward(const Src&, const TripleView& v, double upstream,
                            const GradView& g) const {
    ForLanes<D4>(n, [&](auto x, size_t j) HETKG_LANES_LAMBDA {
      using V = decltype(x);
      const V h = Load<V>(v.h.data() + j);
      const V r = Load<V>(v.r.data() + j);
      const V t = Load<V>(v.t.data() + j);
      using F = decltype(Narrow(h));
      Store(g.h.data() + j,
            Load<F>(g.h.data() + j) + Narrow((upstream * r) * t));
      Store(g.r.data() + j,
            Load<F>(g.r.data() + j) + Narrow((upstream * h) * t));
      Store(g.t.data() + j,
            Load<F>(g.t.data() + j) + Narrow((upstream * h) * r));
    });
  }
};

// ---- ComplEx ---------------------------------------------------------
// Rows store [real; imag] halves of length m = dim/2 (the model's n).
// Canonical score term groups by the tail (the h∘r complex product):
//   A_j = (double(hRe_j) * rRe_j) - (double(hIm_j) * rIm_j)
//   B_j = (double(hIm_j) * rRe_j) + (double(hRe_j) * rIm_j)
//   term_j = (A_j * tRe_j) + (B_j * tIm_j)

struct ComplEx {
  static constexpr bool kPairQuery = true;
  // Backward keeps the scalar API's float expression trees; there is no
  // double-precision intermediate to reuse.
  static constexpr bool kHoistsBackward = false;
  size_t n;

  template <class V>
  HETKG_LANES Query<V> RowQuery(FromRows q, size_t j) const {
    const V hre = Load<V>(q.h + j);
    const V him = Load<V>(q.h + n + j);
    const V rre = Load<V>(q.r + j);
    const V rim = Load<V>(q.r + n + j);
    return {(hre * rre) - (him * rim), (him * rre) + (hre * rim)};
  }

  template <class V>
  HETKG_LANES V Term(Query<V> q, const float* t, size_t j) const {
    return (q.a * Load<V>(t + j)) + (q.b * Load<V>(t + n + j));
  }

  double Finish(double acc) const { return acc; }

  template <class Src>
  HETKG_LANES void Backward(const Src&, const TripleView& v, double upstream,
                            const GradView& g) const {
    const float u = static_cast<float>(upstream);
    ForLanes<F8>(n, [&](auto x, size_t j) HETKG_LANES_LAMBDA {
      using V = decltype(x);
      const V hre = Load<V>(v.h.data() + j);
      const V him = Load<V>(v.h.data() + n + j);
      const V rre = Load<V>(v.r.data() + j);
      const V rim = Load<V>(v.r.data() + n + j);
      const V tre = Load<V>(v.t.data() + j);
      const V tim = Load<V>(v.t.data() + n + j);
      const auto add = [&](float* p, V d) HETKG_LANES_LAMBDA {
        Store(p + j, Load<V>(p + j) + u * d);
      };
      add(g.h.data(), rre * tre + rim * tim);
      add(g.h.data() + n, rre * tim - rim * tre);
      add(g.r.data(), hre * tre + him * tim);
      add(g.r.data() + n, hre * tim - him * tre);
      add(g.t.data(), hre * rre - him * rim);
      add(g.t.data() + n, him * rre + hre * rim);
    });
  }
};

// ======================================================================
// Bodies
// ======================================================================

/// True when `v` can reuse a query intermediate hoisted from `ref`
/// (same head and relation ROWS — detected by storage identity, which
/// is exact because both alias the same batch scratch).
bool SharesQuery(const TripleView& v, const TripleView& ref) {
  return v.h.data() == ref.h.data() && v.r.data() == ref.r.data();
}

template <class M>
HETKG_LANES FromHoisted Hoist(const M& model, const TripleView& ref,
                              KernelScratch* scratch) {
  if (scratch->a.size() < model.n) scratch->a.resize(model.n);
  if (M::kPairQuery && scratch->b.size() < model.n) scratch->b.resize(model.n);
  double* a = scratch->a.data();
  double* b = M::kPairQuery ? scratch->b.data() : a;
  const FromRows rows{ref.h.data(), ref.r.data()};
  ForLanes<D4>(model.n, [&](auto x, size_t j) HETKG_LANES_LAMBDA {
    const auto q = At<decltype(x)>(model, rows, j);
    Store(a + j, q.a);
    if constexpr (M::kPairQuery) Store(b + j, q.b);
  });
  return {a, b};
}

/// Calls f(k, source) for each triple in order. Triples sharing (h, r)
/// with `ref` read one intermediate hoisted into `scratch`; the rest
/// read their rows. A null scratch makes this the per-triple loop.
template <class M, class F>
HETKG_LANES void ForEachQuery(const M& model, const TripleView& ref,
                              std::span<const TripleView> triples,
                              KernelScratch* scratch, F&& f) {
  std::optional<FromHoisted> hoisted;
  for (size_t k = 0; k < triples.size(); ++k) {
    const TripleView& v = triples[k];
    if (scratch != nullptr && SharesQuery(v, ref)) {
      if (!hoisted) hoisted = Hoist(model, ref, scratch);
      f(k, *hoisted);
    } else {
      f(k, FromRows{v.h.data(), v.r.data()});
    }
  }
}

template <class M>
HETKG_LANES void ScoreBody(const M& model, const TripleView& ref,
                           std::span<const TripleView> triples,
                           std::span<double> scores, KernelScratch* scratch) {
  ForEachQuery(model, ref, triples, scratch,
               [&](size_t k, const auto& q) HETKG_LANES_LAMBDA {
                 scores[k] = ScoreOf(model, q, triples[k].t.data());
               });
}

template <class M>
HETKG_LANES void BackwardBody(const M& model, const TripleView& v,
                              double upstream, const GradView& g) {
  model.Backward(FromRows{v.h.data(), v.r.data()}, v, upstream, g);
}

// Entries with a zero upstream are skipped; only a model whose gradient
// reads the query intermediate hoists it.
template <class M>
HETKG_LANES void BackwardBatchBody(const M& model, const TripleView& ref,
                                   std::span<const TripleView> triples,
                                   std::span<const double> upstreams,
                                   std::span<const GradView> grads,
                                   KernelScratch* scratch) {
  ForEachQuery(model, ref, triples, M::kHoistsBackward ? scratch : nullptr,
               [&](size_t k, const auto& q) HETKG_LANES_LAMBDA {
                 if (upstreams[k] == 0.0) return;
                 model.Backward(q, triples[k], upstreams[k], grads[k]);
               });
}

// IEEE sqrt and divide are correctly rounded, so this is bit-identical
// to AdaGrad::Apply's scalar loop; no rsqrt approximation is allowed.
HETKG_LANES void AdaGradRowBody(float* row, const float* grad, float* acc,
                                size_t n, double lr, double eps) {
  ForLanes<D4>(n, [&](auto x, size_t j) HETKG_LANES_LAMBDA {
    using V = decltype(x);
    const V g = Load<V>(grad + j);
    using F = decltype(Narrow(g));
    const F a = Load<F>(acc + j) + Narrow(g * g);
    Store(acc + j, a);
    Store(row + j, Load<F>(row + j) - Narrow(lr * g / Sqrt(Widen(a) + eps)));
  });
}

// int8 dequantize: v = min + q * scale, explicit mul then add (never an
// FMA) so every build matches the scalar expression.
HETKG_LANES void DecodeInt8Body(const uint8_t* q, float scale, float min,
                                float* dst, size_t n) {
  ForLanes<F8>(n, [&](auto x, size_t j) HETKG_LANES_LAMBDA {
    Store(dst + j, Load<decltype(x)>(q + j) * scale + min);
  });
}

// ======================================================================
// The two builds
// ======================================================================
//
// TwoTargets<Body> wraps one always_inline body twice: Base, compiled
// for baseline x86-64, and Avx2, compiled under target("avx2"); each is
// a whole copy of the body. Kernels() hands out the table of one build
// per ActivePath().

#if HETKG_KERNELS_X86
#define HETKG_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define HETKG_TARGET_AVX2  // Never selected: no CPU here reports AVX2.
#endif

template <auto Body>
struct TwoTargets;
template <class... A, void (*Body)(A...)>
struct TwoTargets<Body> {
  static void Base(A... a) { Body(a...); }
  HETKG_TARGET_AVX2 static void Avx2(A... a) { Body(a...); }
};

template <bool kAvx2, auto Body>
constexpr auto Build() {
  return kAvx2 ? &TwoTargets<Body>::Avx2 : &TwoTargets<Body>::Base;
}

template <class M>
struct ModelKernels {
  decltype(Build<false, &ScoreBody<M>>()) score;
  decltype(Build<false, &BackwardBody<M>>()) backward;
  decltype(Build<false, &BackwardBatchBody<M>>()) backward_batch;
};

template <bool kAvx2, class M>
constexpr ModelKernels<M> kModelKernels = {
    Build<kAvx2, &ScoreBody<M>>(), Build<kAvx2, &BackwardBody<M>>(),
    Build<kAvx2, &BackwardBatchBody<M>>()};

struct KernelTable {
  ModelKernels<TransE<1>> transe_l1;
  ModelKernels<TransE<2>> transe_l2;
  ModelKernels<DistMult> distmult;
  ModelKernels<ComplEx> complex;
  decltype(Build<false, &AdaGradRowBody>()) adagrad_row;
  decltype(Build<false, &DecodeInt8Body>()) decode_int8;
};

template <bool kAvx2>
constexpr KernelTable kTable = {
    kModelKernels<kAvx2, TransE<1>>, kModelKernels<kAvx2, TransE<2>>,
    kModelKernels<kAvx2, DistMult>,  kModelKernels<kAvx2, ComplEx>,
    Build<kAvx2, &AdaGradRowBody>(), Build<kAvx2, &DecodeInt8Body>()};

const KernelTable& Kernels() {
  return ActivePath() == KernelPath::kAvx2 ? kTable<true> : kTable<false>;
}

/// The scalar path loops the per-triple kernels: no hoisted scratch.
KernelScratch* BatchScratch(KernelScratch* scratch) {
  return UseVectorPath() ? scratch : nullptr;
}

/// Calls f(entries, model) with the active build's entries for `kind`
/// and its model for rows of `dim` floats.
template <class F>
void WithModel(ModelKind kind, size_t dim, F&& f) {
  const KernelTable& k = Kernels();
  switch (kind) {
    case ModelKind::kTransEL1:
      return f(k.transe_l1, TransE<1>{dim});
    case ModelKind::kTransEL2:
      return f(k.transe_l2, TransE<2>{dim});
    case ModelKind::kDistMult:
      return f(k.distmult, DistMult{dim});
    case ModelKind::kComplEx:
      assert(dim % 2 == 0);
      return f(k.complex, ComplEx{dim / 2});
    default:
      assert(false && "no kernel for this model");
  }
}

}  // namespace

// ======================================================================
// Score kernels
// ======================================================================

double Score(ModelKind kind, const TripleView& v) {
  assert(v.h.size() == v.r.size() && v.h.size() == v.t.size());
  double score = 0.0;
  WithModel(kind, v.h.size(), [&](const auto& k, const auto& model) {
    k.score(model, v, {&v, 1}, {&score, 1}, nullptr);
  });
  return score;
}

void ScoreBackward(ModelKind kind, const TripleView& v, double upstream,
                   const GradView& g) {
  assert(v.h.size() == v.r.size() && v.h.size() == v.t.size());
  assert(g.h.size() == v.h.size() && g.r.size() == v.r.size() &&
         g.t.size() == v.t.size());
  WithModel(kind, v.h.size(), [&](const auto& k, const auto& model) {
    k.backward(model, v, upstream, g);
  });
}

void ScoreBatch(ModelKind kind, const TripleView& ref,
                std::span<const TripleView> triples, std::span<double> scores,
                KernelScratch* scratch) {
  assert(scores.size() == triples.size());
  WithModel(kind, ref.h.size(), [&](const auto& k, const auto& model) {
    k.score(model, ref, triples, scores, BatchScratch(scratch));
  });
}

void ScoreBackwardBatch(ModelKind kind, const TripleView& ref,
                        std::span<const TripleView> triples,
                        std::span<const double> upstreams,
                        std::span<const GradView> grads,
                        KernelScratch* scratch) {
  assert(upstreams.size() == triples.size() &&
         grads.size() == triples.size());
  WithModel(kind, ref.h.size(), [&](const auto& k, const auto& model) {
    k.backward_batch(model, ref, triples, upstreams, grads,
                     BatchScratch(scratch));
  });
}

// ======================================================================
// AdaGrad
// ======================================================================

void AdaGradApplyRow(std::span<float> row, std::span<const float> grad,
                     float* acc, double learning_rate, double epsilon) {
  assert(row.size() == grad.size());
  Kernels().adagrad_row(row.data(), grad.data(), acc, row.size(),
                        learning_rate, epsilon);
}

// ======================================================================
// Cold-tier row codecs (DESIGN.md §16)
// ======================================================================

// Scalar fp32 -> binary16 with round-to-nearest-even, bit-exact with
// the F16C VCVTPS2PH(_MM_FROUND_TO_NEAREST_INT) hardware conversion:
// NaN/Inf map to their half encodings, overflow saturates to Inf, and
// values below the half-normal range round into (or out of) the
// denormal encodings via the same shifted-RNE arithmetic.
uint16_t Fp16FromFloat(float v) {
  uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  const uint32_t sign = (bits >> 16) & 0x8000u;
  const uint32_t abs = bits & 0x7FFFFFFFu;
  if (abs >= 0x7F800000u) {  // Inf / NaN.
    const uint32_t mantissa = abs > 0x7F800000u ? 0x0200u : 0;
    return static_cast<uint16_t>(sign | 0x7C00u | mantissa |
                                 ((abs >> 13) & 0x03FFu));
  }
  if (abs >= 0x47800000u) {  // >= 65536: overflows half, saturate to Inf.
    return static_cast<uint16_t>(sign | 0x7C00u);
  }
  if (abs < 0x38800000u) {  // Below half-normal: denormal or zero.
    // Add the implicit bit, then shift right so the result's ULP is the
    // half-denormal ULP (2^-24); RNE on the shifted-out bits.
    const uint32_t mantissa = (abs & 0x007FFFFFu) | 0x00800000u;
    const int shift = 126 - static_cast<int>(abs >> 23);
    if (shift > 24) return static_cast<uint16_t>(sign);  // Rounds to 0.
    const uint32_t shifted = mantissa >> shift;
    const uint32_t rest = mantissa & ((1u << shift) - 1);
    const uint32_t half = 1u << (shift - 1);
    uint32_t q = shifted;
    if (rest > half || (rest == half && (shifted & 1))) ++q;
    return static_cast<uint16_t>(sign | q);
  }
  // Normal range: rebias exponent (127 -> 15), RNE on the low 13 bits.
  uint32_t half_bits = sign | ((abs - 0x38000000u) >> 13);
  const uint32_t rest = abs & 0x1FFFu;
  if (rest > 0x1000u || (rest == 0x1000u && (half_bits & 1))) ++half_bits;
  return static_cast<uint16_t>(half_bits);
}

float Fp16ToFloat(uint16_t h) {
  const uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
  const uint32_t exp = (h >> 10) & 0x1Fu;
  const uint32_t mantissa = h & 0x03FFu;
  uint32_t bits;
  if (exp == 0x1Fu) {  // Inf / NaN.
    bits = sign | 0x7F800000u | (mantissa << 13);
  } else if (exp != 0) {  // Normal.
    bits = sign | ((exp + 112u) << 23) | (mantissa << 13);
  } else if (mantissa != 0) {  // Denormal: renormalize.
    uint32_t m = mantissa;
    uint32_t e = 113;
    while ((m & 0x0400u) == 0) {
      m <<= 1;
      --e;
    }
    bits = sign | (e << 23) | ((m & 0x03FFu) << 13);
  } else {  // Zero.
    bits = sign;
  }
  float v = 0.0f;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// The two codec steps below keep their intrinsics: no portable
// expression yields the F16C conversion, and __builtin_convertvector
// truncates where int8 encode must round to nearest even. Each handles
// whole 8-element blocks and returns where the scalar tail starts.
namespace {
#if HETKG_KERNELS_X86

__attribute__((target("f16c"))) size_t EncodeRowFp16F16c(const float* src,
                                                         uint16_t* dst,
                                                         size_t n) {
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 v = _mm256_loadu_ps(src + j);
    const __m128i h = _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + j), h);
  }
  return j;
}

__attribute__((target("f16c"))) size_t DecodeRowFp16F16c(const uint16_t* src,
                                                         float* dst,
                                                         size_t n) {
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + j));
    _mm256_storeu_ps(dst + j, _mm256_cvtph_ps(h));
  }
  return j;
}

// int8 quantize: t = (v - min) * inv; q = clamp(rne(t), 0, 255).
// CVTPS2DQ rounds RNE under the default MXCSR mode, matching the scalar
// lrintf; sub and mul are IEEE-exact, so both paths emit the same q.
__attribute__((target("avx2"))) size_t EncodeRowInt8Avx2(const float* src,
                                                         uint8_t* q,
                                                         float min, float inv,
                                                         size_t n) {
  const __m256 vmin = _mm256_set1_ps(min);
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256i lo = _mm256_setzero_si256();
  const __m256i hi = _mm256_set1_epi32(255);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 t = _mm256_mul_ps(
        _mm256_sub_ps(_mm256_loadu_ps(src + j), vmin), vinv);
    __m256i qi = _mm256_cvtps_epi32(t);
    qi = _mm256_min_epi32(_mm256_max_epi32(qi, lo), hi);
    alignas(32) int32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), qi);
    for (int k = 0; k < 8; ++k) q[j + k] = static_cast<uint8_t>(lanes[k]);
  }
  return j;
}

/// F16C rides the vector dispatch: available on every AVX2 part this
/// project targets, but gated independently for odd configurations.
bool UseF16c() {
  return ActivePath() == KernelPath::kAvx2 && DetectCpuFeatures().f16c;
}

#endif  // HETKG_KERNELS_X86

}  // namespace

void EncodeRowFp16(std::span<const float> src, uint16_t* dst) {
  size_t j = 0;
#if HETKG_KERNELS_X86
  if (UseF16c()) j = EncodeRowFp16F16c(src.data(), dst, src.size());
#endif
  for (; j < src.size(); ++j) dst[j] = Fp16FromFloat(src[j]);
}

void DecodeRowFp16(const uint16_t* src, std::span<float> dst) {
  size_t j = 0;
#if HETKG_KERNELS_X86
  if (UseF16c()) j = DecodeRowFp16F16c(src, dst.data(), dst.size());
#endif
  for (; j < dst.size(); ++j) dst[j] = Fp16ToFloat(src[j]);
}

void EncodeRowInt8(std::span<const float> src, uint8_t* q, float* scale,
                   float* min) {
  assert(!src.empty());
  // Range scan stays scalar on every path: it costs one pass, and a
  // vectorized min/max would have to reproduce scalar NaN semantics to
  // keep the (scale, min) bits identical.
  float lo = src[0];
  float hi = src[0];
  for (const float v : src) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const float range = hi - lo;
  *min = lo;
  if (!(range > 0.0f)) {  // Constant row (or NaN range): all-zero codes.
    *scale = 0.0f;
    std::memset(q, 0, src.size());
    return;
  }
  *scale = range / 255.0f;
  const float inv = 255.0f / range;
  size_t j = 0;
#if HETKG_KERNELS_X86
  if (ActivePath() == KernelPath::kAvx2) {
    j = EncodeRowInt8Avx2(src.data(), q, lo, inv, src.size());
  }
#endif
  for (; j < src.size(); ++j) {
    const float t = (src[j] - lo) * inv;
    long v = std::lrintf(t);
    if (v < 0) v = 0;
    if (v > 255) v = 255;
    q[j] = static_cast<uint8_t>(v);
  }
}

void DecodeRowInt8(const uint8_t* q, float scale, float min,
                   std::span<float> dst) {
  Kernels().decode_int8(q, scale, min, dst.data(), dst.size());
}

}  // namespace hetkg::embedding::kernels
