#include "nnrt/backend.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace raven::nnrt {
namespace {

// ---------------------------------------------------------------------------
// SIMD kernels.
//
// Byte-identity contract with kernels.cc: every element undergoes exactly the
// same sequence of IEEE single-precision operations in the same order as the
// scalar reference — vectorizing only across elements that the scalar code
// computes independently (the j/column axis), never across a reduction.
// No FMA: the accumulate is an explicit mul-round then add-round, matching
// `orow[j] += av * brow[j]` built without -mfma/-ffast-math. Order-sensitive
// ops (Softmax, ReduceSum, TreeEnsemble, ...) stay on the reference registry.
// ---------------------------------------------------------------------------

std::pair<std::int64_t, std::int64_t> AsMatrix(const Tensor& t) {
  if (t.rank() == 2) return {t.dim(0), t.dim(1)};
  if (t.rank() == 1) return {1, t.dim(0)};
  return {1, t.num_elements()};
}

#if defined(__SSE2__)

enum class BinOp { kAdd, kSub, kMul, kDiv };

template <BinOp op>
inline float ScalarBin(float x, float y) {
  if constexpr (op == BinOp::kAdd) return x + y;
  if constexpr (op == BinOp::kSub) return x - y;
  if constexpr (op == BinOp::kMul) return x * y;
  return x / y;
}

template <BinOp op>
inline __m128 VecBin(__m128 x, __m128 y) {
  if constexpr (op == BinOp::kAdd) return _mm_add_ps(x, y);
  if constexpr (op == BinOp::kSub) return _mm_sub_ps(x, y);
  if constexpr (op == BinOp::kMul) return _mm_mul_ps(x, y);
  return _mm_div_ps(x, y);
}

template <BinOp op>
Status SimdElementwiseBinary(KernelContext* ctx) {
  if (ctx->inputs.size() != 2) {
    return Status::InvalidArgument(ctx->node->op_type + " expects 2 inputs");
  }
  const Tensor& a = ctx->input(0);
  const Tensor& b = ctx->input(1);
  Tensor out = Tensor::Zeros(a.shape());
  const auto [rows, cols] = AsMatrix(a);
  const std::int64_t n = a.num_elements();
  const std::int64_t bn = b.num_elements();
  if (bn == n) {
    std::int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
      _mm_storeu_ps(out.raw() + i, VecBin<op>(_mm_loadu_ps(a.raw() + i),
                                              _mm_loadu_ps(b.raw() + i)));
    }
    for (; i < n; ++i) out.raw()[i] = ScalarBin<op>(a.raw()[i], b.raw()[i]);
  } else if (bn == 1) {
    const float bv = b.raw()[0];
    const __m128 vb = _mm_set1_ps(bv);
    std::int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
      _mm_storeu_ps(out.raw() + i, VecBin<op>(_mm_loadu_ps(a.raw() + i), vb));
    }
    for (; i < n; ++i) out.raw()[i] = ScalarBin<op>(a.raw()[i], bv);
  } else if (bn == cols) {
    for (std::int64_t r = 0; r < rows; ++r) {
      const float* arow = a.raw() + r * cols;
      float* orow = out.raw() + r * cols;
      std::int64_t c = 0;
      for (; c + 4 <= cols; c += 4) {
        _mm_storeu_ps(orow + c, VecBin<op>(_mm_loadu_ps(arow + c),
                                           _mm_loadu_ps(b.raw() + c)));
      }
      for (; c < cols; ++c) orow[c] = ScalarBin<op>(arow[c], b.raw()[c]);
    }
  } else {
    return Status::InvalidArgument(
        ctx->node->op_type + ": cannot broadcast " + ShapeToString(b.shape()) +
        " against " + ShapeToString(a.shape()));
  }
  ctx->flops = static_cast<double>(n);
  ctx->outputs[0] = std::move(out);
  return Status::OK();
}

// Relu as cmpgt+and: x > 0 ? x : 0 — identical to the scalar conditional for
// -0.0f (compare false -> +0) and NaN (compare false -> +0), where
// _mm_max_ps's operand-ordering subtleties would invite drift.
inline __m128 ReluVec(__m128 x) {
  return _mm_and_ps(x, _mm_cmpgt_ps(x, _mm_setzero_ps()));
}

Status SimdReluKernel(KernelContext* ctx) {
  if (ctx->inputs.size() != 1) {
    return Status::InvalidArgument("Relu expects 1 input");
  }
  const Tensor& a = ctx->input(0);
  Tensor out = Tensor::Zeros(a.shape());
  const std::int64_t n = a.num_elements();
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(out.raw() + i, ReluVec(_mm_loadu_ps(a.raw() + i)));
  }
  for (; i < n; ++i) out.raw()[i] = a.raw()[i] > 0 ? a.raw()[i] : 0.f;
  ctx->flops = static_cast<double>(n);
  ctx->outputs[0] = std::move(out);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Register-blocked Gemm/MatMul.
//
// Each output element runs the reference's exact sequence: acc = bias[j] (or
// +0), then for k ascending, when a[i,k] != 0, acc = acc + a[i,k] * b[k,j]
// (mul rounded, then add rounded), then the fused ReLU if any. Blocking only
// changes where acc lives: a panel of output columns of one row stays in
// registers across the whole k loop instead of being stored and reloaded
// for every k.
//   - Columns [0, m - m % 4) go in panels of 32, 16 and 4 columns (8, 4 and
//     1 vectors). Each row's kept (a != 0) terms are compacted once, four
//     activations per test, so the zero skip costs no branch per (row, k)
//     and every panel reuses them.
//     The 16- and 4-column panels run two rows at once: two independent add
//     chains hide the add latency that bounds a narrow panel.
//   - The last m % 4 columns put 4 rows in a vector (two vectors at once
//     when 8 rows remain); there the skip is an exact blend that keeps acc
//     in the lanes whose a is zero. Leftover rows run the reference loop.
// ---------------------------------------------------------------------------

/// The terms the reference's zero skip keeps for one row of A: for each k
/// with a[i,k] != 0 (NaN included), the value and B's row k, in k order.
struct RowTerms {
  const float* const* brows;
  const float* avals;
  std::int64_t count;
};

RowTerms CompactRow(const float* arow, std::int64_t k, const float* b,
                    std::int64_t m, const float** brows, float* avals) {
  std::int64_t n = 0;
  std::int64_t kk = 0;
  // Hidden activations after a ReLU are mostly zero: test four at a time
  // and skip a group whose four are all zero. cmpeq is false for NaN, so
  // NaN is kept, as in the reference.
  for (; kk + 4 <= k; kk += 4) {
    const __m128 group = _mm_loadu_ps(arow + kk);
    const int zeros = _mm_movemask_ps(_mm_cmpeq_ps(group, _mm_setzero_ps()));
    if (zeros == 0xF) continue;
    for (int t = 0; t < 4; ++t) {
      brows[n] = b + (kk + t) * m;
      avals[n] = arow[kk + t];
      n += (zeros >> t) & 1 ? 0 : 1;
    }
  }
  for (; kk < k; ++kk) {
    const float av = arow[kk];
    brows[n] = b + kk * m;
    avals[n] = av;
    n += av != 0.0f ? 1 : 0;
  }
  return RowTerms{brows, avals, n};
}

template <int V>
inline void PanelInit(const float* bias, std::int64_t j, __m128* acc) {
  for (int v = 0; v < V; ++v) {
    acc[v] = bias != nullptr ? _mm_loadu_ps(bias + j + 4 * v)
                             : _mm_setzero_ps();
  }
}

template <int V>
inline void PanelStep(const RowTerms& t, std::int64_t p, std::int64_t j,
                      __m128* acc) {
  const __m128 va = _mm_set1_ps(t.avals[p]);
  const float* brow = t.brows[p] + j;
  for (int v = 0; v < V; ++v) {
    acc[v] = _mm_add_ps(acc[v], _mm_mul_ps(va, _mm_loadu_ps(brow + 4 * v)));
  }
}

template <int V>
inline void PanelStore(const __m128* acc, bool relu, float* out) {
  for (int v = 0; v < V; ++v) {
    _mm_storeu_ps(out + 4 * v, relu ? ReluVec(acc[v]) : acc[v]);
  }
}

/// Columns [j, j + 4V) of one row.
template <int V>
void PanelOneRow(const RowTerms& t, const float* bias, std::int64_t j,
                 bool relu, float* orow) {
  __m128 acc[V];
  PanelInit<V>(bias, j, acc);
  for (std::int64_t p = 0; p < t.count; ++p) PanelStep<V>(t, p, j, acc);
  PanelStore<V>(acc, relu, orow + j);
}

/// Columns [j, j + 4V) of two rows, their k loops interleaved.
template <int V>
void PanelTwoRows(const RowTerms& t0, const RowTerms& t1, const float* bias,
                  std::int64_t j, bool relu, float* orow0, float* orow1) {
  __m128 acc0[V];
  __m128 acc1[V];
  PanelInit<V>(bias, j, acc0);
  PanelInit<V>(bias, j, acc1);
  const std::int64_t both = std::min(t0.count, t1.count);
  std::int64_t p = 0;
  for (; p < both; ++p) {
    PanelStep<V>(t0, p, j, acc0);
    PanelStep<V>(t1, p, j, acc1);
  }
  for (std::int64_t q = p; q < t0.count; ++q) PanelStep<V>(t0, q, j, acc0);
  for (std::int64_t q = p; q < t1.count; ++q) PanelStep<V>(t1, q, j, acc1);
  PanelStore<V>(acc0, relu, orow0 + j);
  PanelStore<V>(acc1, relu, orow1 + j);
}

/// Columns [0, m4) of one row, or of two rows when `t1` is set.
void PanelsForRows(const RowTerms& t0, const RowTerms* t1, const float* bias,
                   std::int64_t m4, bool relu, float* orow0, float* orow1) {
  std::int64_t j = 0;
  for (; j + 32 <= m4; j += 32) {
    PanelOneRow<8>(t0, bias, j, relu, orow0);
    if (t1 != nullptr) PanelOneRow<8>(*t1, bias, j, relu, orow1);
  }
  for (; j + 16 <= m4; j += 16) {
    if (t1 != nullptr) {
      PanelTwoRows<4>(t0, *t1, bias, j, relu, orow0, orow1);
    } else {
      PanelOneRow<4>(t0, bias, j, relu, orow0);
    }
  }
  for (; j + 4 <= m4; j += 4) {
    if (t1 != nullptr) {
      PanelTwoRows<1>(t0, *t1, bias, j, relu, orow0, orow1);
    } else {
      PanelOneRow<1>(t0, bias, j, relu, orow0);
    }
  }
}

/// Columns [0, m4) of every row, two rows at a time. Out of line: inlined
/// into SimdMatMulImpl it made the 1-row, 1-column calls that never reach it
/// measurably slower than the reference kernel (bench_nnrt_ops).
[[gnu::noinline]] void PanelColumns(const float* pa, std::int64_t n, std::int64_t k,
                  const float* pb, std::int64_t m, std::int64_t m4,
                  const float* pbias, bool relu, float* po) {
  // Compacted terms of a row pair (B-row pointers and A values); on the
  // stack for the usual layer depths, so a 1-row call allocates nothing
  // beyond its output.
  constexpr std::int64_t kStackDepth = 64;
  const float* brows_stack[2 * kStackDepth];
  float avals_stack[2 * kStackDepth];
  std::vector<const float*> brows_heap;
  std::vector<float> avals_heap;
  const float** brows = brows_stack;
  float* avals = avals_stack;
  if (k > kStackDepth) {
    brows_heap.resize(static_cast<std::size_t>(2 * k));
    avals_heap.resize(static_cast<std::size_t>(2 * k));
    brows = brows_heap.data();
    avals = avals_heap.data();
  }
  std::int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const RowTerms t0 = CompactRow(pa + i * k, k, pb, m, brows, avals);
    const RowTerms t1 =
        CompactRow(pa + (i + 1) * k, k, pb, m, brows + k, avals + k);
    PanelsForRows(t0, &t1, pbias, m4, relu, po + i * m, po + (i + 1) * m);
  }
  if (i < n) {
    const RowTerms t0 = CompactRow(pa + i * k, k, pb, m, brows, avals);
    PanelsForRows(t0, nullptr, pbias, m4, relu, po + i * m, nullptr);
  }
}

/// acc + av * bv in the lanes where av != 0 (NaN included); acc elsewhere —
/// the reference's per-(row, k) zero skip, as a blend.
inline __m128 BlendStep(__m128 acc, __m128 av, __m128 bv) {
  const __m128 sum = _mm_add_ps(acc, _mm_mul_ps(av, bv));
  const __m128 skip = _mm_cmpeq_ps(av, _mm_setzero_ps());
  return _mm_or_ps(_mm_and_ps(skip, acc), _mm_andnot_ps(skip, sum));
}

/// Output column j of rows [i, i + 4G): lane r of vector g is row i + 4g + r.
/// A is read in 4x4 blocks, transposed so each vector holds one k.
template <int G>
void TailColumn(const float* a, std::int64_t k, const float* b,
                std::int64_t m, const float* bias, std::int64_t i,
                std::int64_t j, bool relu, float* out) {
  __m128 acc[G];
  for (int g = 0; g < G; ++g) {
    acc[g] = _mm_set1_ps(bias != nullptr ? bias[j] : 0.0f);
  }
  std::int64_t kk = 0;
  for (; kk + 4 <= k; kk += 4) {
    __m128 col[G][4];
    for (int g = 0; g < G; ++g) {
      const float* a0 = a + (i + 4 * g) * k + kk;
      __m128 r0 = _mm_loadu_ps(a0);
      __m128 r1 = _mm_loadu_ps(a0 + k);
      __m128 r2 = _mm_loadu_ps(a0 + 2 * k);
      __m128 r3 = _mm_loadu_ps(a0 + 3 * k);
      _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
      col[g][0] = r0;
      col[g][1] = r1;
      col[g][2] = r2;
      col[g][3] = r3;
    }
    for (int t = 0; t < 4; ++t) {
      const __m128 bv = _mm_set1_ps(b[(kk + t) * m + j]);
      for (int g = 0; g < G; ++g) acc[g] = BlendStep(acc[g], col[g][t], bv);
    }
  }
  for (; kk < k; ++kk) {
    const __m128 bv = _mm_set1_ps(b[kk * m + j]);
    for (int g = 0; g < G; ++g) {
      const float* a0 = a + (i + 4 * g) * k + kk;
      const __m128 av = _mm_setr_ps(a0[0], a0[k], a0[2 * k], a0[3 * k]);
      acc[g] = BlendStep(acc[g], av, bv);
    }
  }
  for (int g = 0; g < G; ++g) {
    alignas(16) float lanes[4];
    _mm_store_ps(lanes, relu ? ReluVec(acc[g]) : acc[g]);
    for (int r = 0; r < 4; ++r) out[(i + 4 * g + r) * m + j] = lanes[r];
  }
}

/// Columns [m4, m) of row i, in the reference's own loop order.
inline void ScalarTail(const float* arow, std::int64_t k, const float* b,
                       std::int64_t m, std::int64_t m4, const float* bias,
                       bool relu, float* orow) {
  for (std::int64_t j = m4; j < m; ++j) {
    orow[j] = bias != nullptr ? bias[j] : 0.0f;
  }
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float av = arow[kk];
    if (av == 0.0f) continue;
    const float* brow = b + kk * m;
    for (std::int64_t j = m4; j < m; ++j) orow[j] += av * brow[j];
  }
  if (relu) {
    for (std::int64_t j = m4; j < m; ++j) {
      orow[j] = orow[j] > 0 ? orow[j] : 0.f;
    }
  }
}

Status SimdMatMulImpl(const Tensor& a, const Tensor& b, const Tensor* bias,
                      bool relu, KernelContext* ctx) {
  const auto [n, k] = AsMatrix(a);
  if (b.rank() != 2 || b.dim(0) != k) {
    return Status::InvalidArgument(
        "MatMul shape mismatch: " + ShapeToString(a.shape()) + " x " +
        ShapeToString(b.shape()));
  }
  const std::int64_t m = b.dim(1);
  if (bias != nullptr && bias->num_elements() != m) {
    return Status::InvalidArgument("Gemm bias size mismatch");
  }
  Tensor out = Tensor::Zeros({n, m});
  const float* pa = a.raw();
  const float* pb = b.raw();
  const float* pbias = bias != nullptr ? bias->raw() : nullptr;
  float* po = out.raw();
  const std::int64_t m4 = m - m % 4;
  if (m4 > 0) PanelColumns(pa, n, k, pb, m, m4, pbias, relu, po);
  if (m4 < m) {
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      for (std::int64_t j = m4; j < m; ++j) {
        TailColumn<2>(pa, k, pb, m, pbias, i, j, relu, po);
      }
    }
    for (; i + 4 <= n; i += 4) {
      for (std::int64_t j = m4; j < m; ++j) {
        TailColumn<1>(pa, k, pb, m, pbias, i, j, relu, po);
      }
    }
    for (; i < n; ++i) {
      ScalarTail(pa + i * k, k, pb, m, m4, pbias, relu, po + i * m);
    }
  }
  ctx->flops = 2.0 * static_cast<double>(n) * static_cast<double>(k) *
               static_cast<double>(m);
  ctx->outputs[0] = std::move(out);
  return Status::OK();
}

Status SimdMatMulKernel(KernelContext* ctx) {
  if (ctx->inputs.size() != 2) {
    return Status::InvalidArgument("MatMul expects 2 inputs");
  }
  return SimdMatMulImpl(ctx->input(0), ctx->input(1), nullptr,
                        /*relu=*/false, ctx);
}

Status SimdGemmKernel(KernelContext* ctx) {
  if (ctx->inputs.size() < 2 || ctx->inputs.size() > 3) {
    return Status::InvalidArgument("Gemm expects 2 or 3 inputs");
  }
  RAVEN_ASSIGN_OR_RETURN(const bool relu, GemmFusesRelu(*ctx->node));
  const Tensor* bias = ctx->num_inputs() == 3 ? &ctx->input(2) : nullptr;
  return SimdMatMulImpl(ctx->input(0), ctx->input(1), bias, relu, ctx);
}

Status SimdScalerKernel(KernelContext* ctx) {
  if (ctx->inputs.size() != 1) {
    return Status::InvalidArgument("Scaler expects 1 input");
  }
  RAVEN_ASSIGN_OR_RETURN(auto offset, ctx->node->GetFloatsAttr("offset"));
  RAVEN_ASSIGN_OR_RETURN(auto scale, ctx->node->GetFloatsAttr("scale"));
  const Tensor& a = ctx->input(0);
  const auto [rows, cols] = AsMatrix(a);
  if (static_cast<std::int64_t>(offset.size()) != cols ||
      static_cast<std::int64_t>(scale.size()) != cols) {
    return Status::InvalidArgument("Scaler offset/scale size mismatch");
  }
  // Hoist the per-element double->float casts out of the row loop; the cast
  // result is position-independent so the values match the reference exactly.
  std::vector<float> offs(static_cast<std::size_t>(cols));
  std::vector<float> scls(static_cast<std::size_t>(cols));
  for (std::int64_t c = 0; c < cols; ++c) {
    offs[static_cast<std::size_t>(c)] =
        static_cast<float>(offset[static_cast<std::size_t>(c)]);
    scls[static_cast<std::size_t>(c)] =
        static_cast<float>(scale[static_cast<std::size_t>(c)]);
  }
  Tensor out = Tensor::Zeros(a.shape());
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* in = a.raw() + r * cols;
    float* o = out.raw() + r * cols;
    std::int64_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      const __m128 x = _mm_sub_ps(_mm_loadu_ps(in + c),
                                  _mm_loadu_ps(offs.data() + c));
      _mm_storeu_ps(o + c, _mm_mul_ps(x, _mm_loadu_ps(scls.data() + c)));
    }
    for (; c < cols; ++c) {
      o[c] = (in[c] - offs[static_cast<std::size_t>(c)]) *
             scls[static_cast<std::size_t>(c)];
    }
  }
  ctx->flops = 2.0 * static_cast<double>(a.num_elements());
  ctx->outputs[0] = std::move(out);
  return Status::OK();
}

const std::map<std::string, Kernel>& SimdOverrides() {
  static const std::map<std::string, Kernel>* overrides =
      new std::map<std::string, Kernel>{
          {"Add", SimdElementwiseBinary<BinOp::kAdd>},
          {"Sub", SimdElementwiseBinary<BinOp::kSub>},
          {"Mul", SimdElementwiseBinary<BinOp::kMul>},
          {"Div", SimdElementwiseBinary<BinOp::kDiv>},
          {"Relu", SimdReluKernel},
          {"MatMul", SimdMatMulKernel},
          {"Gemm", SimdGemmKernel},
          {"Scaler", SimdScalerKernel},
      };
  return *overrides;
}

#else  // !__SSE2__

// Non-x86 builds: the "simd" backend degrades to the reference registry, so
// backend selection stays portable and the differential tests pass trivially.
const std::map<std::string, Kernel>& SimdOverrides() {
  static const std::map<std::string, Kernel>* overrides =
      new std::map<std::string, Kernel>{};
  return *overrides;
}

#endif  // __SSE2__

// ---------------------------------------------------------------------------
// fp16 storage rounding.
// ---------------------------------------------------------------------------

std::uint16_t F32ToF16Bits(float x) {
  std::uint32_t f;
  std::memcpy(&f, &x, sizeof(f));
  const std::uint32_t sign = (f >> 16) & 0x8000u;
  const std::uint32_t exp = (f >> 23) & 0xffu;
  std::uint32_t man = f & 0x7fffffu;
  if (exp == 255u) {  // Inf / NaN (keep NaN-ness via a sticky mantissa bit).
    return static_cast<std::uint16_t>(
        sign | 0x7c00u | (man != 0 ? (0x200u | (man >> 13)) : 0u));
  }
  const int e = static_cast<int>(exp) - 127 + 15;
  if (e >= 31) return static_cast<std::uint16_t>(sign | 0x7c00u);  // -> inf
  if (e <= 0) {
    if (e < -10) return static_cast<std::uint16_t>(sign);  // -> signed zero
    // Subnormal half: shift the 24-bit significand down, rounding to even.
    man |= 0x800000u;
    const int shift = 14 - e;
    const std::uint32_t half = man >> shift;
    const std::uint32_t rem = man & ((1u << shift) - 1u);
    const std::uint32_t mid = 1u << (shift - 1);
    std::uint16_t out = static_cast<std::uint16_t>(sign | half);
    if (rem > mid || (rem == mid && (half & 1u))) ++out;
    return out;
  }
  std::uint32_t out =
      sign | (static_cast<std::uint32_t>(e) << 10) | (man >> 13);
  const std::uint32_t rem = man & 0x1fffu;
  // Round to nearest even; a carry ripples into the exponent (and up to inf)
  // through the packed representation, which is exactly what IEEE wants.
  if (rem > 0x1000u || (rem == 0x1000u && (out & 1u))) ++out;
  return static_cast<std::uint16_t>(out);
}

float F16BitsToF32(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1fu;
  std::uint32_t man = h & 0x3ffu;
  std::uint32_t f;
  if (exp == 0u) {
    if (man == 0u) {
      f = sign;
    } else {
      int e = -1;
      do {
        man <<= 1;
        ++e;
      } while ((man & 0x400u) == 0u);
      man &= 0x3ffu;
      f = sign | (static_cast<std::uint32_t>(127 - 15 - e) << 23) | (man << 13);
    }
  } else if (exp == 31u) {
    f = sign | 0x7f800000u | (man << 13);
  } else {
    f = sign | ((exp - 15u + 127u) << 23) | (man << 13);
  }
  float out;
  std::memcpy(&out, &f, sizeof(out));
  return out;
}

// ---------------------------------------------------------------------------
// Backend implementations.
// ---------------------------------------------------------------------------

class ReferenceBackend final : public Backend {
 public:
  const char* name() const override { return "reference"; }
  const Kernel* FindKernel(const std::string& op_type) const override {
    return nnrt::FindKernel(op_type);
  }
};

class SimdBackend final : public Backend {
 public:
  const char* name() const override { return "simd"; }
  const Kernel* FindKernel(const std::string& op_type) const override {
    const auto& overrides = SimdOverrides();
    auto it = overrides.find(op_type);
    if (it != overrides.end()) return &it->second;
    return nnrt::FindKernel(op_type);
  }
};

/// Decorates the SIMD backend: runs its kernel, then rounds every output
/// element to the nearest binary16 value. Compute stays fp32 — this models
/// fp16 *storage* of activations, the dominant error source of a real
/// half-precision engine, without a second dtype in Tensor.
class Fp16Backend final : public Backend {
 public:
  const char* name() const override { return "fp16"; }
  bool fp16() const override { return true; }
  const Kernel* FindKernel(const std::string& op_type) const override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = wrapped_.find(op_type);
    if (it != wrapped_.end()) return &it->second;
    const Kernel* inner = GetBackend(BackendKind::kSimd)->FindKernel(op_type);
    if (inner == nullptr) return nullptr;
    Kernel k = [inner](KernelContext* ctx) -> Status {
      RAVEN_RETURN_IF_ERROR((*inner)(ctx));
      for (Tensor& out : ctx->outputs) {
        float* p = out.raw();
        const std::int64_t n = out.num_elements();
        for (std::int64_t i = 0; i < n; ++i) p[i] = RoundToFp16(p[i]);
      }
      return Status::OK();
    };
    auto [pos, inserted] = wrapped_.emplace(op_type, std::move(k));
    (void)inserted;
    return &pos->second;
  }

 private:
  mutable std::mutex mu_;
  mutable std::map<std::string, Kernel> wrapped_;
};

}  // namespace

float RoundToFp16(float x) { return F16BitsToF32(F32ToF16Bits(x)); }

const Backend* GetBackend(BackendKind kind) {
  static const ReferenceBackend* reference = new ReferenceBackend();
  static const SimdBackend* simd = new SimdBackend();
  static const Fp16Backend* fp16 = new Fp16Backend();
  switch (kind) {
    case BackendKind::kSimd:
      return simd;
    case BackendKind::kFp16:
      return fp16;
    case BackendKind::kReference:
    default:
      return reference;
  }
}

const char* BackendKindToString(BackendKind kind) {
  switch (kind) {
    case BackendKind::kSimd:
      return "simd";
    case BackendKind::kFp16:
      return "fp16";
    case BackendKind::kReference:
    default:
      return "reference";
  }
}

Result<BackendKind> ParseBackendKind(const std::string& name) {
  if (name == "reference") return BackendKind::kReference;
  if (name == "simd") return BackendKind::kSimd;
  if (name == "fp16") return BackendKind::kFp16;
  return Status::InvalidArgument(
      "unknown nn_backend '" + name +
      "' (expected one of: reference, simd, fp16)");
}

}  // namespace raven::nnrt
