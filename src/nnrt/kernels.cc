#include "nnrt/kernels.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace raven::nnrt {
namespace {

Status CheckInputCount(const KernelContext& ctx, std::size_t min_inputs,
                       std::size_t max_inputs) {
  if (ctx.inputs.size() < min_inputs || ctx.inputs.size() > max_inputs) {
    return Status::InvalidArgument(
        ctx.node->op_type + " expects between " + std::to_string(min_inputs) +
        " and " + std::to_string(max_inputs) + " inputs, got " +
        std::to_string(ctx.inputs.size()));
  }
  return Status::OK();
}

/// Rows/cols of a tensor treated as a matrix: rank-1 [n] is a single row.
std::pair<std::int64_t, std::int64_t> AsMatrix(const Tensor& t) {
  if (t.rank() == 2) return {t.dim(0), t.dim(1)};
  if (t.rank() == 1) return {1, t.dim(0)};
  return {1, t.num_elements()};
}

// ---------------------------------------------------------------------------
// Element-wise binary ops with row-vector / scalar broadcasting.
// ---------------------------------------------------------------------------

template <typename F>
Status ElementwiseBinary(KernelContext* ctx, F f) {
  RAVEN_RETURN_IF_ERROR(CheckInputCount(*ctx, 2, 2));
  const Tensor& a = ctx->input(0);
  const Tensor& b = ctx->input(1);
  Tensor out = Tensor::Zeros(a.shape());
  const auto [rows, cols] = AsMatrix(a);
  const std::int64_t bn = b.num_elements();
  if (bn == a.num_elements()) {
    for (std::int64_t i = 0; i < a.num_elements(); ++i) {
      out.data()[static_cast<std::size_t>(i)] =
          f(a.raw()[i], b.raw()[i]);
    }
  } else if (bn == 1) {
    const float bv = b.raw()[0];
    for (std::int64_t i = 0; i < a.num_elements(); ++i) {
      out.data()[static_cast<std::size_t>(i)] = f(a.raw()[i], bv);
    }
  } else if (bn == cols) {
    // Broadcast b across rows.
    for (std::int64_t r = 0; r < rows; ++r) {
      const float* arow = a.raw() + r * cols;
      float* orow = out.raw() + r * cols;
      for (std::int64_t c = 0; c < cols; ++c) orow[c] = f(arow[c], b.raw()[c]);
    }
  } else {
    return Status::InvalidArgument(
        ctx->node->op_type + ": cannot broadcast " +
        ShapeToString(b.shape()) + " against " + ShapeToString(a.shape()));
  }
  ctx->flops = static_cast<double>(a.num_elements());
  ctx->outputs[0] = std::move(out);
  return Status::OK();
}

Status AddKernel(KernelContext* ctx) {
  return ElementwiseBinary(ctx, [](float x, float y) { return x + y; });
}
Status SubKernel(KernelContext* ctx) {
  return ElementwiseBinary(ctx, [](float x, float y) { return x - y; });
}
Status MulKernel(KernelContext* ctx) {
  return ElementwiseBinary(ctx, [](float x, float y) { return x * y; });
}
Status DivKernel(KernelContext* ctx) {
  return ElementwiseBinary(ctx, [](float x, float y) { return x / y; });
}
Status LessKernel(KernelContext* ctx) {
  return ElementwiseBinary(ctx,
                           [](float x, float y) { return x < y ? 1.f : 0.f; });
}
Status LessOrEqualKernel(KernelContext* ctx) {
  return ElementwiseBinary(
      ctx, [](float x, float y) { return x <= y ? 1.f : 0.f; });
}
Status GreaterKernel(KernelContext* ctx) {
  return ElementwiseBinary(ctx,
                           [](float x, float y) { return x > y ? 1.f : 0.f; });
}
Status EqualKernel(KernelContext* ctx) {
  return ElementwiseBinary(
      ctx, [](float x, float y) { return x == y ? 1.f : 0.f; });
}

// ---------------------------------------------------------------------------
// Element-wise unary ops.
// ---------------------------------------------------------------------------

template <typename F>
Status ElementwiseUnary(KernelContext* ctx, F f, double flops_per_elem = 1.0) {
  RAVEN_RETURN_IF_ERROR(CheckInputCount(*ctx, 1, 1));
  const Tensor& a = ctx->input(0);
  Tensor out = Tensor::Zeros(a.shape());
  for (std::int64_t i = 0; i < a.num_elements(); ++i) {
    out.data()[static_cast<std::size_t>(i)] = f(a.raw()[i]);
  }
  ctx->flops = flops_per_elem * static_cast<double>(a.num_elements());
  ctx->outputs[0] = std::move(out);
  return Status::OK();
}

Status IdentityKernel(KernelContext* ctx) {
  return ElementwiseUnary(ctx, [](float x) { return x; }, 0.0);
}
Status ReluKernel(KernelContext* ctx) {
  return ElementwiseUnary(ctx, [](float x) { return x > 0 ? x : 0.f; });
}
Status SigmoidKernel(KernelContext* ctx) {
  return ElementwiseUnary(
      ctx, [](float x) { return 1.0f / (1.0f + std::exp(-x)); }, 4.0);
}
Status TanhKernel(KernelContext* ctx) {
  return ElementwiseUnary(ctx, [](float x) { return std::tanh(x); }, 4.0);
}
Status NegKernel(KernelContext* ctx) {
  return ElementwiseUnary(ctx, [](float x) { return -x; });
}

// ---------------------------------------------------------------------------
// Matrix ops.
// ---------------------------------------------------------------------------

Status MatMulImpl(const Tensor& a, const Tensor& b, const Tensor* bias,
                  KernelContext* ctx) {
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
  float* po = out.raw();
  for (std::int64_t i = 0; i < n; ++i) {
    if (bias != nullptr) {
      for (std::int64_t j = 0; j < m; ++j) po[i * m + j] = bias->raw()[j];
    }
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = pa[i * k + kk];
      if (av == 0.0f) continue;  // Sparse inputs (one-hot) skip work.
      const float* brow = pb + kk * m;
      float* orow = po + i * m;
      for (std::int64_t j = 0; j < m; ++j) orow[j] += av * brow[j];
    }
  }
  ctx->flops = 2.0 * static_cast<double>(n) * static_cast<double>(k) *
               static_cast<double>(m);
  ctx->outputs[0] = std::move(out);
  return Status::OK();
}

Status MatMulKernel(KernelContext* ctx) {
  RAVEN_RETURN_IF_ERROR(CheckInputCount(*ctx, 2, 2));
  return MatMulImpl(ctx->input(0), ctx->input(1), nullptr, ctx);
}

/// Gemm: Y = X * W (+ bias), then the fused activation if any. W is
/// [in, out]; bias broadcasts over rows.
Status GemmKernel(KernelContext* ctx) {
  RAVEN_RETURN_IF_ERROR(CheckInputCount(*ctx, 2, 3));
  RAVEN_ASSIGN_OR_RETURN(const bool relu, GemmFusesRelu(*ctx->node));
  const Tensor* bias = ctx->num_inputs() == 3 ? &ctx->input(2) : nullptr;
  RAVEN_RETURN_IF_ERROR(MatMulImpl(ctx->input(0), ctx->input(1), bias, ctx));
  if (relu) {
    Tensor& out = ctx->outputs[0];
    for (std::int64_t i = 0; i < out.num_elements(); ++i) {
      out.raw()[i] = out.raw()[i] > 0 ? out.raw()[i] : 0.f;
    }
  }
  return Status::OK();
}

Status SoftmaxKernel(KernelContext* ctx) {
  RAVEN_RETURN_IF_ERROR(CheckInputCount(*ctx, 1, 1));
  const Tensor& a = ctx->input(0);
  const auto [rows, cols] = AsMatrix(a);
  Tensor out = Tensor::Zeros(a.shape());
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* in = a.raw() + r * cols;
    float* o = out.raw() + r * cols;
    float mx = in[0];
    for (std::int64_t c = 1; c < cols; ++c) mx = std::max(mx, in[c]);
    float sum = 0.f;
    for (std::int64_t c = 0; c < cols; ++c) {
      o[c] = std::exp(in[c] - mx);
      sum += o[c];
    }
    for (std::int64_t c = 0; c < cols; ++c) o[c] /= sum;
  }
  ctx->flops = 6.0 * static_cast<double>(a.num_elements());
  ctx->outputs[0] = std::move(out);
  return Status::OK();
}

Status ConcatKernel(KernelContext* ctx) {
  if (ctx->inputs.empty()) {
    return Status::InvalidArgument("Concat needs at least one input");
  }
  // Axis 1 (feature concatenation), the layout FeatureUnion produces.
  std::int64_t rows = AsMatrix(ctx->input(0)).first;
  std::int64_t total_cols = 0;
  for (const Tensor* t : ctx->inputs) {
    const auto [r, c] = AsMatrix(*t);
    if (r != rows) {
      return Status::InvalidArgument("Concat row mismatch");
    }
    total_cols += c;
  }
  Tensor out = Tensor::Zeros({rows, total_cols});
  std::int64_t offset = 0;
  for (const Tensor* t : ctx->inputs) {
    const auto [r, c] = AsMatrix(*t);
    (void)r;
    for (std::int64_t i = 0; i < rows; ++i) {
      std::copy(t->raw() + i * c, t->raw() + (i + 1) * c,
                out.raw() + i * total_cols + offset);
    }
    offset += c;
  }
  ctx->flops = static_cast<double>(out.num_elements());
  ctx->outputs[0] = std::move(out);
  return Status::OK();
}

/// Gather: selects columns given by the "indices" int-list attribute.
Status GatherColumnsKernel(KernelContext* ctx) {
  RAVEN_RETURN_IF_ERROR(CheckInputCount(*ctx, 1, 1));
  RAVEN_ASSIGN_OR_RETURN(auto indices, ctx->node->GetIntsAttr("indices"));
  const Tensor& a = ctx->input(0);
  const auto [rows, cols] = AsMatrix(a);
  for (std::int64_t idx : indices) {
    if (idx < 0 || idx >= cols) {
      return Status::OutOfRange("GatherColumns index " + std::to_string(idx) +
                                " out of range for " +
                                ShapeToString(a.shape()));
    }
  }
  const std::int64_t m = static_cast<std::int64_t>(indices.size());
  Tensor out = Tensor::Zeros({rows, m});
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* in = a.raw() + r * cols;
    float* o = out.raw() + r * m;
    for (std::int64_t j = 0; j < m; ++j) o[j] = in[indices[static_cast<std::size_t>(j)]];
  }
  ctx->flops = static_cast<double>(out.num_elements());
  ctx->outputs[0] = std::move(out);
  return Status::OK();
}

/// OneHot: category codes [n] or [n,1] -> [n, depth]; out-of-range codes
/// produce an all-zero row (scikit-learn handle_unknown="ignore").
Status OneHotKernel(KernelContext* ctx) {
  RAVEN_RETURN_IF_ERROR(CheckInputCount(*ctx, 1, 1));
  RAVEN_ASSIGN_OR_RETURN(std::int64_t depth, ctx->node->GetIntAttr("depth"));
  if (depth <= 0) return Status::InvalidArgument("OneHot depth must be > 0");
  const Tensor& a = ctx->input(0);
  const std::int64_t n = a.rank() == 2 ? a.dim(0) : a.num_elements();
  if (a.rank() == 2 && a.dim(1) != 1) {
    return Status::InvalidArgument("OneHot expects a single input column");
  }
  Tensor out = Tensor::Zeros({n, depth});
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t code = static_cast<std::int64_t>(std::llround(a.raw()[i]));
    if (code >= 0 && code < depth) out.raw()[i * depth + code] = 1.0f;
  }
  ctx->flops = static_cast<double>(n);
  ctx->outputs[0] = std::move(out);
  return Status::OK();
}

/// Typed pointer to a node attribute, without copying it; nullptr when
/// absent or of another type.
template <typename T>
const T* AttrPtr(const Node& node, const char* key) {
  auto it = node.attrs.find(key);
  return it == node.attrs.end() ? nullptr : std::get_if<T>(&it->second);
}

/// std::llround(x), exactly, with the usual case inline. Below 2^23 a float
/// may have a fraction: truncate, then step away from zero when the
/// fraction (x - t, exact) is at least one half. Larger magnitudes, inf
/// and NaN take the library call.
inline long long LlroundFloat(float x) {
  if (std::fabs(x) < 8388608.0f) {
    const float t = static_cast<float>(static_cast<std::int32_t>(x));
    const float frac = x - t;
    return static_cast<long long>(t) + (frac >= 0.5f ? 1 : 0) -
           (frac <= -0.5f ? 1 : 0);
  }
  return std::llround(x);
}

/// Featurize: the featurizer fan-in the graph optimizer collapses
/// (GatherColumns, Scaler, OneHot and restricted OneHot under a Concat) in
/// one kernel. Input X [n, C]; output [n, F], written one row at a time as a
/// sequence of segments, each equal op for op to the nodes it replaced.
/// Attributes (parallel over segments, values concatenated in order):
///   kinds   [S]  0 copy, 1 scale, 2 one-hot
///   widths  [S]  output columns of the segment
///   columns      copy/scale: `width` source columns; one-hot: one
///   offset, scale  per scale segment, `width` values: (x - offset) * scale
///   codes        per one-hot segment, `width` category codes: column t is
///                1 iff llround(x) == codes[t]. A NaN, negative or unlisted
///                code leaves the segment all zero.
Status FeaturizeKernel(KernelContext* ctx) {
  RAVEN_RETURN_IF_ERROR(CheckInputCount(*ctx, 1, 1));
  using Ints = std::vector<std::int64_t>;
  using Floats = std::vector<double>;
  const Node& node = *ctx->node;
  const Ints* kinds = AttrPtr<Ints>(node, "kinds");
  const Ints* widths = AttrPtr<Ints>(node, "widths");
  const Ints* columns = AttrPtr<Ints>(node, "columns");
  const Ints* codes = AttrPtr<Ints>(node, "codes");
  const Floats* offset = AttrPtr<Floats>(node, "offset");
  const Floats* scale = AttrPtr<Floats>(node, "scale");
  if (kinds == nullptr || widths == nullptr || columns == nullptr ||
      codes == nullptr || offset == nullptr || scale == nullptr ||
      widths->size() != kinds->size() || offset->size() != scale->size()) {
    return Status::InvalidArgument("Featurize: malformed segment attributes");
  }
  const Tensor& x = ctx->input(0);
  const auto [rows, cols] = AsMatrix(x);
  // Flatten the segments into per-kind column lists, checking each against
  // the value lists and X, so each row runs three tight loops instead of
  // dispatching per segment.
  struct Scaled {
    std::int64_t src, dst;
    float offset, scale;
  };
  struct OneHot {
    std::int64_t src, dst, width;
    const std::int64_t* codes;
    std::int64_t first;  // codes[t] == first + t for every t, else -1
  };
  std::vector<std::pair<std::int64_t, std::int64_t>> copies;
  std::vector<Scaled> scaled;
  std::vector<OneHot> onehots;
  std::size_t c = 0, sc = 0, code = 0;
  std::int64_t dst = 0;
  const auto source = [&](std::int64_t* src) -> Status {
    if (c >= columns->size()) {
      return Status::InvalidArgument("Featurize: too few columns");
    }
    *src = (*columns)[c++];
    if (*src < 0 || *src >= cols) {
      return Status::OutOfRange("Featurize column " + std::to_string(*src) +
                                " out of range for " +
                                ShapeToString(x.shape()));
    }
    return Status::OK();
  };
  for (std::size_t s = 0; s < kinds->size(); ++s) {
    const std::int64_t kind = (*kinds)[s];
    const std::int64_t w = (*widths)[s];
    if (w < 0 || kind < 0 || kind > 2) {
      return Status::InvalidArgument("Featurize: bad segment");
    }
    const auto width = static_cast<std::size_t>(w);
    if (kind == 2) {
      OneHot oh{0, dst, w, codes->data() + code, -1};
      RAVEN_RETURN_IF_ERROR(source(&oh.src));
      if (code + width > codes->size()) {
        return Status::InvalidArgument("Featurize: too few codes");
      }
      for (std::int64_t t = 0; t < w; ++t) {
        if (oh.codes[t] < 0) {
          return Status::InvalidArgument("Featurize: negative code");
        }
      }
      if (w > 0) {
        oh.first = oh.codes[0];
        for (std::int64_t t = 0; t < w; ++t) {
          if (oh.codes[t] != oh.first + t) oh.first = -1;
        }
      }
      onehots.push_back(oh);
      code += width;
    } else if (kind == 1 && sc + width > offset->size()) {
      return Status::InvalidArgument("Featurize: too few offsets");
    } else {
      for (std::int64_t t = 0; t < w; ++t) {
        std::int64_t src = 0;
        RAVEN_RETURN_IF_ERROR(source(&src));
        if (kind == 0) {
          copies.emplace_back(src, dst + t);
        } else {
          scaled.push_back(Scaled{src, dst + t,
                                  static_cast<float>((*offset)[sc]),
                                  static_cast<float>((*scale)[sc])});
          ++sc;
        }
      }
    }
    dst += w;
  }
  if (c != columns->size() || sc != offset->size() || code != codes->size()) {
    return Status::InvalidArgument("Featurize: segment sizes mismatch");
  }
  // Zeros, so a one-hot segment only writes its 1 (if any).
  Tensor out = Tensor::Zeros({rows, dst});
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* in = x.raw() + r * cols;
    float* o = out.raw() + r * dst;
    for (const auto& [src, to] : copies) o[to] = in[src];
    for (const Scaled& sv : scaled) {
      o[sv.dst] = (in[sv.src] - sv.offset) * sv.scale;
    }
    for (const OneHot& oh : onehots) {
      const std::int64_t v = LlroundFloat(in[oh.src]);
      if (oh.first >= 0) {
        const std::int64_t t = v - oh.first;
        if (t >= 0 && t < oh.width) o[oh.dst + t] = 1.0f;
      } else {
        for (std::int64_t t = 0; t < oh.width; ++t) {
          if (v == oh.codes[t]) o[oh.dst + t] = 1.0f;
        }
      }
    }
  }
  ctx->flops = static_cast<double>(out.num_elements());
  ctx->outputs[0] = std::move(out);
  return Status::OK();
}

/// Scaler (ai.onnx.ml semantics): y = (x - offset) * scale, per column.
Status ScalerKernel(KernelContext* ctx) {
  RAVEN_RETURN_IF_ERROR(CheckInputCount(*ctx, 1, 1));
  RAVEN_ASSIGN_OR_RETURN(auto offset, ctx->node->GetFloatsAttr("offset"));
  RAVEN_ASSIGN_OR_RETURN(auto scale, ctx->node->GetFloatsAttr("scale"));
  const Tensor& a = ctx->input(0);
  const auto [rows, cols] = AsMatrix(a);
  if (static_cast<std::int64_t>(offset.size()) != cols ||
      static_cast<std::int64_t>(scale.size()) != cols) {
    return Status::InvalidArgument("Scaler offset/scale size mismatch");
  }
  Tensor out = Tensor::Zeros(a.shape());
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* in = a.raw() + r * cols;
    float* o = out.raw() + r * cols;
    for (std::int64_t c = 0; c < cols; ++c) {
      o[c] = (in[c] - static_cast<float>(offset[static_cast<std::size_t>(c)])) *
             static_cast<float>(scale[static_cast<std::size_t>(c)]);
    }
  }
  ctx->flops = 2.0 * static_cast<double>(a.num_elements());
  ctx->outputs[0] = std::move(out);
  return Status::OK();
}

Status ArgMaxKernel(KernelContext* ctx) {
  RAVEN_RETURN_IF_ERROR(CheckInputCount(*ctx, 1, 1));
  const Tensor& a = ctx->input(0);
  const auto [rows, cols] = AsMatrix(a);
  Tensor out = Tensor::Zeros({rows, 1});
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* in = a.raw() + r * cols;
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < cols; ++c) {
      if (in[c] > in[best]) best = c;
    }
    out.raw()[r] = static_cast<float>(best);
  }
  ctx->flops = static_cast<double>(a.num_elements());
  ctx->outputs[0] = std::move(out);
  return Status::OK();
}

Status ReduceSumKernel(KernelContext* ctx) {
  RAVEN_RETURN_IF_ERROR(CheckInputCount(*ctx, 1, 1));
  const Tensor& a = ctx->input(0);
  const auto [rows, cols] = AsMatrix(a);
  Tensor out = Tensor::Zeros({rows, 1});
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* in = a.raw() + r * cols;
    float sum = 0.f;
    for (std::int64_t c = 0; c < cols; ++c) sum += in[c];
    out.raw()[r] = sum;
  }
  ctx->flops = static_cast<double>(a.num_elements());
  ctx->outputs[0] = std::move(out);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// TreeEnsemble: native interpreted scoring of flattened decision trees, the
// analogue of ai.onnx.ml.TreeEnsembleRegressor. NN translation rewrites this
// node into pure linear-algebra ops (see optimizer/rules/nn_translation).
//
// Attribute layout (all tensor attrs, parallel arrays over node slots):
//   roots:      [num_trees]   index of each tree's root slot
//   feature:    [num_slots]   feature index tested at slot, -1 for leaves
//   threshold:  [num_slots]   split threshold (x <= t goes left)
//   left/right: [num_slots]   child slot indices (unused for leaves)
//   value:      [num_slots]   leaf prediction (unused for internal nodes)
// Int attrs: aggregate (0 = sum, 1 = average); post (0 = none, 1 = sigmoid).
// ---------------------------------------------------------------------------

Status TreeEnsembleKernel(KernelContext* ctx) {
  RAVEN_RETURN_IF_ERROR(CheckInputCount(*ctx, 1, 1));
  RAVEN_ASSIGN_OR_RETURN(Tensor roots, ctx->node->GetTensorAttr("roots"));
  RAVEN_ASSIGN_OR_RETURN(Tensor feature, ctx->node->GetTensorAttr("feature"));
  RAVEN_ASSIGN_OR_RETURN(Tensor threshold,
                         ctx->node->GetTensorAttr("threshold"));
  RAVEN_ASSIGN_OR_RETURN(Tensor left, ctx->node->GetTensorAttr("left"));
  RAVEN_ASSIGN_OR_RETURN(Tensor right, ctx->node->GetTensorAttr("right"));
  RAVEN_ASSIGN_OR_RETURN(Tensor value, ctx->node->GetTensorAttr("value"));
  const std::int64_t aggregate = ctx->node->GetIntAttrOr("aggregate", 0);
  const std::int64_t post = ctx->node->GetIntAttrOr("post", 0);

  const Tensor& x = ctx->input(0);
  const auto [rows, cols] = AsMatrix(x);
  const std::int64_t num_trees = roots.num_elements();
  const std::int64_t num_slots = feature.num_elements();
  Tensor out = Tensor::Zeros({rows, 1});
  double steps = 0;
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* xr = x.raw() + r * cols;
    float acc = 0.f;
    for (std::int64_t t = 0; t < num_trees; ++t) {
      std::int64_t slot = static_cast<std::int64_t>(roots.raw()[t]);
      std::int64_t guard = 0;
      while (true) {
        if (slot < 0 || slot >= num_slots) {
          return Status::ExecutionError("TreeEnsemble: slot out of range");
        }
        const std::int64_t f = static_cast<std::int64_t>(feature.raw()[slot]);
        if (f < 0) {
          acc += value.raw()[slot];
          break;
        }
        if (f >= cols) {
          return Status::ExecutionError(
              "TreeEnsemble: feature index " + std::to_string(f) +
              " out of range for input with " + std::to_string(cols) +
              " columns");
        }
        slot = xr[f] <= threshold.raw()[slot]
                   ? static_cast<std::int64_t>(left.raw()[slot])
                   : static_cast<std::int64_t>(right.raw()[slot]);
        ++steps;
        if (++guard > num_slots) {
          return Status::ExecutionError("TreeEnsemble: cycle in tree");
        }
      }
    }
    if (aggregate == 1 && num_trees > 0) {
      acc /= static_cast<float>(num_trees);
    }
    if (post == 1) acc = 1.0f / (1.0f + std::exp(-acc));
    out.raw()[r] = acc;
  }
  ctx->flops = 2.0 * steps;
  ctx->outputs[0] = std::move(out);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

const std::map<std::string, Kernel>& Registry() {
  static const std::map<std::string, Kernel>* registry =
      new std::map<std::string, Kernel>{
          {"Add", AddKernel},
          {"Sub", SubKernel},
          {"Mul", MulKernel},
          {"Div", DivKernel},
          {"Less", LessKernel},
          {"LessOrEqual", LessOrEqualKernel},
          {"Greater", GreaterKernel},
          {"Equal", EqualKernel},
          {"Identity", IdentityKernel},
          {"Relu", ReluKernel},
          {"Sigmoid", SigmoidKernel},
          {"Tanh", TanhKernel},
          {"Neg", NegKernel},
          {"MatMul", MatMulKernel},
          {"Gemm", GemmKernel},
          {"Softmax", SoftmaxKernel},
          {"Concat", ConcatKernel},
          {"Featurize", FeaturizeKernel},
          {"GatherColumns", GatherColumnsKernel},
          {"OneHot", OneHotKernel},
          {"Scaler", ScalerKernel},
          {"ArgMax", ArgMaxKernel},
          {"ReduceSum", ReduceSumKernel},
          {"TreeEnsemble", TreeEnsembleKernel},
      };
  return *registry;
}

}  // namespace

Result<bool> GemmFusesRelu(const Node& gemm) {
  auto it = gemm.attrs.find(kGemmActivationAttr);
  if (it == gemm.attrs.end()) return false;
  const std::string* act = std::get_if<std::string>(&it->second);
  if (act == nullptr || *act != "Relu") {
    return Status::InvalidArgument("Gemm: unsupported fused activation");
  }
  return true;
}

const Kernel* FindKernel(const std::string& op_type) {
  const auto& registry = Registry();
  auto it = registry.find(op_type);
  return it == registry.end() ? nullptr : &it->second;
}

bool IsOpSupported(const std::string& op_type) {
  return FindKernel(op_type) != nullptr;
}

std::vector<std::string> SupportedOps() {
  std::vector<std::string> out;
  for (const auto& [name, kernel] : Registry()) {
    (void)kernel;
    out.push_back(name);
  }
  return out;
}

}  // namespace raven::nnrt
