#include "nnrt/backend.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#if defined(__SSE2__)
#include <immintrin.h>
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
// `orow[j] += av * brow[j]`; the build passes -ffp-contract=off and no
// target here enables FMA. Order-sensitive ops (Softmax, ReduceSum,
// TreeEnsemble, ...) stay on the reference registry.
// ---------------------------------------------------------------------------

/// Node arity shared by the SIMD kernels: one output, `min`..`max` inputs.
Status CheckSimdArity(const Node& node, std::size_t min_inputs,
                      std::size_t max_inputs) {
  if (node.inputs.size() < min_inputs || node.inputs.size() > max_inputs ||
      node.outputs.size() != 1) {
    return Status::InvalidArgument(
        node.op_type + " expects " + std::to_string(min_inputs) + ".." +
        std::to_string(max_inputs) + " inputs and one output");
  }
  return Status::OK();
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
  const Tensor& a = ctx->input(0);
  const Tensor& b = ctx->input(1);
  const auto [rows, cols] = AsMatrix(a);
  const std::int64_t n = a.num_elements();
  const std::int64_t bn = b.num_elements();
  if (bn != n && bn != 1 && bn != cols) {
    return Status::InvalidArgument(
        ctx->node->op_type + ": cannot broadcast " + ShapeToString(b.shape()) +
        " against " + ShapeToString(a.shape()));
  }
  Tensor* out = ctx->output(0);
  out->Resize(a.shape());
  float* o = out->raw();
  if (bn == n) {
    std::int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
      _mm_storeu_ps(o + i, VecBin<op>(_mm_loadu_ps(a.raw() + i),
                                      _mm_loadu_ps(b.raw() + i)));
    }
    for (; i < n; ++i) o[i] = ScalarBin<op>(a.raw()[i], b.raw()[i]);
  } else if (bn == 1) {
    const float bv = b.raw()[0];
    const __m128 vb = _mm_set1_ps(bv);
    std::int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
      _mm_storeu_ps(o + i, VecBin<op>(_mm_loadu_ps(a.raw() + i), vb));
    }
    for (; i < n; ++i) o[i] = ScalarBin<op>(a.raw()[i], bv);
  } else {
    for (std::int64_t r = 0; r < rows; ++r) {
      const float* arow = a.raw() + r * cols;
      float* orow = o + r * cols;
      std::int64_t c = 0;
      for (; c + 4 <= cols; c += 4) {
        _mm_storeu_ps(orow + c, VecBin<op>(_mm_loadu_ps(arow + c),
                                           _mm_loadu_ps(b.raw() + c)));
      }
      for (; c < cols; ++c) orow[c] = ScalarBin<op>(arow[c], b.raw()[c]);
    }
  }
  ctx->flops = static_cast<double>(n);
  return Status::OK();
}

template <BinOp op>
Result<Kernel> SimdBinaryFactory(const Node& node) {
  RAVEN_RETURN_IF_ERROR(CheckSimdArity(node, 2, 2));
  return Kernel(SimdElementwiseBinary<op>);
}

// Relu as cmpgt+and: x > 0 ? x : 0 — identical to the scalar conditional for
// -0.0f (compare false -> +0) and NaN (compare false -> +0), where
// _mm_max_ps's operand-ordering subtleties would invite drift.
inline __m128 ReluVec(__m128 x) {
  return _mm_and_ps(x, _mm_cmpgt_ps(x, _mm_setzero_ps()));
}

Status SimdReluKernel(KernelContext* ctx) {
  const Tensor& a = ctx->input(0);
  Tensor* out = ctx->output(0);
  out->Resize(a.shape());
  float* o = out->raw();
  const std::int64_t n = a.num_elements();
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(o + i, ReluVec(_mm_loadu_ps(a.raw() + i)));
  }
  for (; i < n; ++i) o[i] = a.raw()[i] > 0 ? a.raw()[i] : 0.f;
  ctx->flops = static_cast<double>(n);
  return Status::OK();
}

Result<Kernel> SimdReluFactory(const Node& node) {
  RAVEN_RETURN_IF_ERROR(CheckSimdArity(node, 1, 1));
  return Kernel(SimdReluKernel);
}

/// Scaler with the double->float casts hoisted to preparation; the cast is
/// position-independent, so the values match the reference exactly.
Result<Kernel> SimdScalerFactory(const Node& node) {
  RAVEN_RETURN_IF_ERROR(CheckSimdArity(node, 1, 1));
  RAVEN_ASSIGN_OR_RETURN(auto offset, node.GetFloatsAttr("offset"));
  RAVEN_ASSIGN_OR_RETURN(auto scale, node.GetFloatsAttr("scale"));
  if (offset.size() != scale.size()) {
    return Status::InvalidArgument("Scaler offset/scale size mismatch");
  }
  std::vector<float> offs(offset.begin(), offset.end());
  std::vector<float> scls(scale.begin(), scale.end());
  return Kernel([offs = std::move(offs),
                 scls = std::move(scls)](KernelContext* ctx) -> Status {
    const Tensor& a = ctx->input(0);
    const auto [rows, cols] = AsMatrix(a);
    if (static_cast<std::int64_t>(offs.size()) != cols) {
      return Status::InvalidArgument("Scaler offset/scale size mismatch");
    }
    Tensor* out = ctx->output(0);
    out->Resize(a.shape());
    for (std::int64_t r = 0; r < rows; ++r) {
      const float* in = a.raw() + r * cols;
      float* o = out->raw() + r * cols;
      std::int64_t c = 0;
      for (; c + 4 <= cols; c += 4) {
        const __m128 x =
            _mm_sub_ps(_mm_loadu_ps(in + c), _mm_loadu_ps(offs.data() + c));
        _mm_storeu_ps(o + c, _mm_mul_ps(x, _mm_loadu_ps(scls.data() + c)));
      }
      for (; c < cols; ++c) {
        o[c] = (in[c] - offs[static_cast<std::size_t>(c)]) *
               scls[static_cast<std::size_t>(c)];
      }
    }
    ctx->flops = 2.0 * static_cast<double>(a.num_elements());
    return Status::OK();
  });
}

// ---------------------------------------------------------------------------
// Register-blocked Gemm/MatMul and the fused Featurize + Gemm, per width
// (gemm_panels.inc).
// ---------------------------------------------------------------------------

/// Rows whose kept terms are listed together before their panels run.
constexpr int kPanelGroupRows = 4;

/// Room for listed terms: B-row offsets and values. GemmRows lists
/// kPanelGroupRows rows of up to k terms; FeaturizeGemmRows keeps a row
/// group's template values and codes and its irregular rows' terms
/// (FeaturizeGemmEntries).
struct TermScratch {
  std::int32_t* offs;
  float* avals;
};

/// A FeaturizeLayout as the fixed term list of the fused first layer:
/// one slot per copied or scaled column and per one-hot segment, in
/// ascending output column. A row whose every value is nonzero and whose
/// every one-hot segment has exactly one hot column has exactly these
/// terms, in this order (the hot column's own, for a one-hot slot).
struct FeatureTemplate {
  enum class Kind : std::uint8_t { kCopy, kScale, kOneHot };
  /// Vector codes are exact for |x| < 2^31; larger magnitudes and NaN
  /// give INT_MIN, INT_MIN + 1 or INT_MAX. A one-hot code above this bound
  /// is left out of the vector compare, so none of those can match, and
  /// matches only through the scalar path.
  static constexpr std::int64_t kMaxVectorCode = std::int64_t{1} << 30;
  struct Slot {
    Kind kind;
    std::int64_t src;
    /// First output column (a value slot's only one).
    std::int32_t dst;
    float offset, scale;
    /// One-hot: the segment, and the (code, column) pairs a vector code
    /// can match in codes[code_begin, code_end).
    const FeaturizeLayout::OneHot* onehot;
    std::size_t code_begin, code_end;
  };
  /// Slots [begin, end) of one kind class: copy and scale slots (whose
  /// output columns are consecutive, from `dst`), or one-hot slots.
  struct Run {
    bool onehot;
    std::size_t begin, end;
    std::int32_t dst;
  };
  std::vector<Slot> slots;
  std::vector<Run> runs;
  std::vector<std::pair<std::int32_t, std::int32_t>> codes;
  /// Holds the segments the one-hot slots point into.
  std::shared_ptr<const FeaturizeLayout> layout;

  explicit FeatureTemplate(std::shared_ptr<const FeaturizeLayout> from)
      : layout(std::move(from)) {
    for (const FeaturizeLayout::Segment& seg : layout->segments) {
      if (seg.kind != FeaturizeLayout::Kind::kOneHot) {
        for (std::size_t c = seg.begin; c < seg.end; ++c) {
          const FeaturizeLayout::Column& col = layout->columns[c];
          slots.push_back({seg.kind == FeaturizeLayout::Kind::kCopy
                               ? Kind::kCopy
                               : Kind::kScale,
                           col.src, static_cast<std::int32_t>(col.dst),
                           col.offset, col.scale, nullptr, 0, 0});
        }
        continue;
      }
      // A zero-width segment adds no output column and no term.
      const FeaturizeLayout::OneHot& oh = layout->onehots[seg.begin];
      if (oh.width == 0) continue;
      Slot slot{Kind::kOneHot, oh.src, static_cast<std::int32_t>(oh.dst),
                0.0f, 1.0f, &oh, codes.size(), codes.size()};
      for (std::int64_t t = 0; t < oh.width; ++t) {
        if (oh.Code(t) > kMaxVectorCode) continue;
        codes.emplace_back(static_cast<std::int32_t>(oh.Code(t)),
                           static_cast<std::int32_t>(t));
      }
      slot.code_end = codes.size();
      slots.push_back(slot);
    }
    for (std::size_t s = 0; s < slots.size(); ++s) {
      const bool onehot = slots[s].kind == Kind::kOneHot;
      if (runs.empty() || runs.back().onehot != onehot) {
        runs.push_back({onehot, s, s, slots[s].dst});
      }
      runs.back().end = s + 1;
    }
  }
};

/// TermScratch entries FeaturizeGemmRows needs for `lanes`-row groups of
/// a `width`-column layout with `slots` template slots: template values,
/// offsets and codes (slots x lanes each) and irregular rows' terms
/// (width x lanes). Offsets and codes share `offs`.
constexpr std::int64_t FeaturizeGemmEntries(std::int64_t slots,
                                            std::int64_t width, int lanes) {
  return (2 * slots + width) * lanes;
}

namespace sse2 {
#define RAVEN_NNRT_PANEL_LANES 4
#include "nnrt/gemm_panels.inc"
#undef RAVEN_NNRT_PANEL_LANES
}  // namespace sse2

#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {
#define RAVEN_NNRT_PANEL_LANES 8
#include "nnrt/gemm_panels.inc"
#undef RAVEN_NNRT_PANEL_LANES
}  // namespace avx2
#pragma GCC pop_options

/// One width's panel entry points.
struct PanelKernels {
  decltype(&sse2::GemmRows) gemm;
  decltype(&sse2::FeaturizeGemmRows) featurize_gemm;
  /// Rows per FeaturizeGemm row group: one per vector lane.
  int lanes;
};

template <SimdWidth W>
constexpr PanelKernels kPanels =
    W == SimdWidth::kAvx2
        ? PanelKernels{avx2::GemmRows, avx2::FeaturizeGemmRows,
                       avx2::Wide::kLanes}
        : PanelKernels{sse2::GemmRows, sse2::FeaturizeGemmRows,
                       sse2::Wide::kLanes};

/// TermScratch of `entries` offsets and values: on the stack for the usual
/// layer depths, so a 1-row call allocates nothing beyond its output.
class TermScratchBuffer {
 public:
  explicit TermScratchBuffer(std::int64_t entries) {
    if (entries <= kStackEntries) {
      view_ = {offs_, avals_};
      return;
    }
    const auto size = static_cast<std::size_t>(entries);
    heap_offs_.resize(size);
    heap_avals_.resize(size);
    view_ = {heap_offs_.data(), heap_avals_.data()};
  }
  const TermScratch& view() const { return view_; }

 private:
  static constexpr std::int64_t kStackEntries = 256;
  std::int32_t offs_[kStackEntries];
  float avals_[kStackEntries];
  std::vector<std::int32_t> heap_offs_;
  std::vector<float> heap_avals_;
  TermScratch view_;
};

template <SimdWidth W>
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
  if (k * m > std::numeric_limits<std::int32_t>::max()) {
    // Terms address B's rows by 32-bit offsets.
    return Status::InvalidArgument("MatMul weights too large: " +
                                   ShapeToString(b.shape()));
  }
  Tensor* out = ctx->output(0);
  out->ResizeMatrix(n, m);
  const TermScratchBuffer scratch(kPanelGroupRows * k);
  kPanels<W>.gemm(a.raw(), n, k, b.raw(), m,
                  bias != nullptr ? bias->raw() : nullptr, relu, out->raw(),
                  scratch.view());
  ctx->flops = 2.0 * static_cast<double>(n) * static_cast<double>(k) *
               static_cast<double>(m);
  return Status::OK();
}

template <SimdWidth W>
Status SimdMatMulKernel(KernelContext* ctx) {
  return SimdMatMulImpl<W>(ctx->input(0), ctx->input(1), nullptr,
                           /*relu=*/false, ctx);
}

template <SimdWidth W>
Result<Kernel> SimdMatMulFactory(const Node& node) {
  RAVEN_RETURN_IF_ERROR(CheckSimdArity(node, 2, 2));
  return Kernel(SimdMatMulKernel<W>);
}

template <SimdWidth W>
Result<Kernel> SimdGemmFactory(const Node& node) {
  RAVEN_RETURN_IF_ERROR(CheckSimdArity(node, 2, 3));
  RAVEN_ASSIGN_OR_RETURN(const bool relu, GemmFusesRelu(node));
  return Kernel([relu](KernelContext* ctx) {
    const Tensor* bias = ctx->num_inputs() == 3 ? &ctx->input(2) : nullptr;
    return SimdMatMulImpl<W>(ctx->input(0), ctx->input(1), bias, relu, ctx);
  });
}

/// FeaturizeGemm(X, W[, bias]): a Featurize node's segment attributes plus
/// the Gemm's activation; computes Gemm(Featurize(X), W, bias) bit for bit
/// without the feature matrix. Execution plans build it from a Featurize
/// whose only reader is a Gemm; it never appears in a stored graph.
template <SimdWidth W>
Result<Kernel> SimdFeaturizeGemmFactory(const Node& node) {
  RAVEN_RETURN_IF_ERROR(CheckSimdArity(node, 2, 3));
  RAVEN_ASSIGN_OR_RETURN(const bool relu, GemmFusesRelu(node));
  RAVEN_ASSIGN_OR_RETURN(auto layout, PrepareFeaturizeLayout(node));
  auto tmpl = std::make_shared<const FeatureTemplate>(std::move(layout));
  return Kernel([tmpl = std::move(tmpl), relu](KernelContext* ctx) -> Status {
    const FeaturizeLayout& layout = *tmpl->layout;
    const Tensor& x = ctx->input(0);
    const Tensor& w = ctx->input(1);
    const Tensor* bias = ctx->num_inputs() == 3 ? &ctx->input(2) : nullptr;
    const auto [n, cols] = AsMatrix(x);
    RAVEN_RETURN_IF_ERROR(layout.CheckInput(x, cols));
    const std::int64_t f = layout.width;
    if (w.rank() != 2 || w.dim(0) != f) {
      return Status::InvalidArgument(
          "MatMul shape mismatch: " + ShapeToString({n, f}) + " x " +
          ShapeToString(w.shape()));
    }
    const std::int64_t m = w.dim(1);
    if (bias != nullptr && bias->num_elements() != m) {
      return Status::InvalidArgument("Gemm bias size mismatch");
    }
    if (f * m > std::numeric_limits<std::int32_t>::max()) {
      return Status::InvalidArgument("MatMul weights too large: " +
                                     ShapeToString(w.shape()));
    }
    if (cols > std::numeric_limits<std::int32_t>::max() / 8) {
      // A row group's source columns are gathered by 32-bit lane offsets.
      return Status::InvalidArgument("Featurize input too wide: " +
                                     ShapeToString(x.shape()));
    }
    Tensor* out = ctx->output(0);
    out->ResizeMatrix(n, m);
    const TermScratchBuffer scratch(FeaturizeGemmEntries(
        static_cast<std::int64_t>(tmpl->slots.size()), f, kPanels<W>.lanes));
    kPanels<W>.featurize_gemm(*tmpl, x.raw(), n, cols, w.raw(), m,
                              bias != nullptr ? bias->raw() : nullptr, relu,
                              out->raw(), scratch.view());
    ctx->flops = static_cast<double>(n * f) +
                 2.0 * static_cast<double>(n) * static_cast<double>(f) *
                     static_cast<double>(m);
    return Status::OK();
  });
}

template <SimdWidth W>
const std::map<std::string, KernelFactory>& SimdOverrides() {
  static const std::map<std::string, KernelFactory>* overrides =
      new std::map<std::string, KernelFactory>{
          {"Add", SimdBinaryFactory<BinOp::kAdd>},
          {"Sub", SimdBinaryFactory<BinOp::kSub>},
          {"Mul", SimdBinaryFactory<BinOp::kMul>},
          {"Div", SimdBinaryFactory<BinOp::kDiv>},
          {"Relu", SimdReluFactory},
          {"MatMul", SimdMatMulFactory<W>},
          {"Gemm", SimdGemmFactory<W>},
          {"FeaturizeGemm", SimdFeaturizeGemmFactory<W>},
          {"Scaler", SimdScalerFactory},
      };
  return *overrides;
}

bool CpuHasAvx2() {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}

#else  // !__SSE2__

// Non-x86 builds: the "simd" backend degrades to the reference registry, so
// backend selection stays portable and the differential tests pass trivially.
template <SimdWidth W>
const std::map<std::string, KernelFactory>& SimdOverrides() {
  static const std::map<std::string, KernelFactory>* overrides =
      new std::map<std::string, KernelFactory>{};
  return *overrides;
}

bool CpuHasAvx2() { return false; }

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
  const KernelFactory* FindKernel(const std::string& op_type) const override {
    return nnrt::FindKernel(op_type);
  }
};

/// The SIMD kernels of one width over the reference registry. The fp16
/// flavour runs the same kernels; its plans round every step's outputs to
/// binary16 (compute stays fp32 — this models fp16 *storage* of
/// activations, the dominant error source of a real half-precision engine,
/// without a second dtype in Tensor).
class SimdBackend final : public Backend {
 public:
  SimdBackend(const std::map<std::string, KernelFactory>* overrides, bool fp16)
      : overrides_(overrides), fp16_(fp16) {}

  const char* name() const override { return fp16_ ? "fp16" : "simd"; }
  bool fp16() const override { return fp16_; }
  const KernelFactory* FindKernel(const std::string& op_type) const override {
    auto it = overrides_->find(op_type);
    if (it != overrides_->end()) return &it->second;
    return nnrt::FindKernel(op_type);
  }

 private:
  const std::map<std::string, KernelFactory>* overrides_;
  bool fp16_;
};

SimdWidth WidestWidth() {
  return CpuHasAvx2() ? SimdWidth::kAvx2 : SimdWidth::kSse2;
}

const Backend* SimdBackendFor(SimdWidth width, bool fp16) {
  static const SimdBackend* sse2 =
      new SimdBackend(&SimdOverrides<SimdWidth::kSse2>(), false);
  static const SimdBackend* avx2 =
      new SimdBackend(&SimdOverrides<SimdWidth::kAvx2>(), false);
  static const SimdBackend* sse2_fp16 =
      new SimdBackend(&SimdOverrides<SimdWidth::kSse2>(), true);
  static const SimdBackend* avx2_fp16 =
      new SimdBackend(&SimdOverrides<SimdWidth::kAvx2>(), true);
  if (width == SimdWidth::kAvx2) return fp16 ? avx2_fp16 : avx2;
  return fp16 ? sse2_fp16 : sse2;
}

}  // namespace

float RoundToFp16(float x) { return F16BitsToF32(F32ToF16Bits(x)); }

const Backend* GetBackend(BackendKind kind) {
  static const ReferenceBackend* reference = new ReferenceBackend();
  switch (kind) {
    case BackendKind::kSimd:
      return SimdBackendFor(WidestWidth(), /*fp16=*/false);
    case BackendKind::kFp16:
      return SimdBackendFor(WidestWidth(), /*fp16=*/true);
    case BackendKind::kReference:
    default:
      return reference;
  }
}

std::vector<SimdWidth> SupportedSimdWidths() {
#if defined(__SSE2__)
  if (CpuHasAvx2()) return {SimdWidth::kSse2, SimdWidth::kAvx2};
  return {SimdWidth::kSse2};
#else
  return {};
#endif
}

const Backend* GetSimdBackend(SimdWidth width) {
  return SimdBackendFor(width, /*fp16=*/false);
}

const char* SimdWidthToString(SimdWidth width) {
  return width == SimdWidth::kAvx2 ? "avx2" : "sse2";
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
