#include "nnrt/kernels.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace raven::nnrt {
namespace {

/// Every kernel here produces one output from `min_inputs`..`max_inputs`
/// inputs; checked once, when the kernel is prepared.
Status CheckArity(const Node& node, std::size_t min_inputs,
                  std::size_t max_inputs) {
  if (node.inputs.size() < min_inputs || node.inputs.size() > max_inputs) {
    return Status::InvalidArgument(
        node.op_type + " expects between " + std::to_string(min_inputs) +
        " and " + std::to_string(max_inputs) + " inputs, got " +
        std::to_string(node.inputs.size()));
  }
  if (node.outputs.size() != 1) {
    return Status::InvalidArgument(node.op_type + " produces one output, got " +
                                   std::to_string(node.outputs.size()));
  }
  return Status::OK();
}

/// The factory of a kernel that reads no attributes.
template <Status (*F)(KernelContext*), std::size_t kMinInputs,
          std::size_t kMaxInputs>
Result<Kernel> Stateless(const Node& node) {
  RAVEN_RETURN_IF_ERROR(CheckArity(node, kMinInputs, kMaxInputs));
  return Kernel(F);
}

/// Typed pointer to a node attribute, without copying it; nullptr when
/// absent or of another type. Prepared kernels keep such pointers: the
/// graph outlives every plan built over it.
template <typename T>
const T* AttrPtr(const Node& node, const char* key) {
  auto it = node.attrs.find(key);
  return it == node.attrs.end() ? nullptr : std::get_if<T>(&it->second);
}

// ---------------------------------------------------------------------------
// Element-wise binary ops with row-vector / scalar broadcasting.
// ---------------------------------------------------------------------------

template <float (*F)(float, float)>
Status ElementwiseBinary(KernelContext* ctx) {
  const Tensor& a = ctx->input(0);
  const Tensor& b = ctx->input(1);
  Tensor* out = ctx->output(0);
  const auto [rows, cols] = AsMatrix(a);
  const std::int64_t n = a.num_elements();
  const std::int64_t bn = b.num_elements();
  if (bn != n && bn != 1 && bn != cols) {
    return Status::InvalidArgument(
        ctx->node->op_type + ": cannot broadcast " +
        ShapeToString(b.shape()) + " against " + ShapeToString(a.shape()));
  }
  out->Resize(a.shape());
  float* o = out->raw();
  if (bn == n) {
    for (std::int64_t i = 0; i < n; ++i) o[i] = F(a.raw()[i], b.raw()[i]);
  } else if (bn == 1) {
    const float bv = b.raw()[0];
    for (std::int64_t i = 0; i < n; ++i) o[i] = F(a.raw()[i], bv);
  } else {
    // Broadcast b across rows.
    for (std::int64_t r = 0; r < rows; ++r) {
      const float* arow = a.raw() + r * cols;
      float* orow = o + r * cols;
      for (std::int64_t c = 0; c < cols; ++c) orow[c] = F(arow[c], b.raw()[c]);
    }
  }
  ctx->flops = static_cast<double>(n);
  return Status::OK();
}

float AddOp(float x, float y) { return x + y; }
float SubOp(float x, float y) { return x - y; }
float MulOp(float x, float y) { return x * y; }
float DivOp(float x, float y) { return x / y; }
float LessOp(float x, float y) { return x < y ? 1.f : 0.f; }
float LessOrEqualOp(float x, float y) { return x <= y ? 1.f : 0.f; }
float GreaterOp(float x, float y) { return x > y ? 1.f : 0.f; }
float EqualOp(float x, float y) { return x == y ? 1.f : 0.f; }

template <float (*F)(float, float)>
constexpr KernelFactory kBinary = Stateless<ElementwiseBinary<F>, 2, 2>;

// ---------------------------------------------------------------------------
// Element-wise unary ops.
// ---------------------------------------------------------------------------

template <float (*F)(float), int kFlopsPerElem>
Status ElementwiseUnary(KernelContext* ctx) {
  const Tensor& a = ctx->input(0);
  Tensor* out = ctx->output(0);
  out->Resize(a.shape());
  const std::int64_t n = a.num_elements();
  for (std::int64_t i = 0; i < n; ++i) out->raw()[i] = F(a.raw()[i]);
  ctx->flops = kFlopsPerElem * static_cast<double>(n);
  return Status::OK();
}

float IdentityOp(float x) { return x; }
float ReluOp(float x) { return x > 0 ? x : 0.f; }
float SigmoidOp(float x) { return 1.0f / (1.0f + std::exp(-x)); }
float TanhOp(float x) { return std::tanh(x); }
float NegOp(float x) { return -x; }

template <float (*F)(float), int kFlopsPerElem = 1>
constexpr KernelFactory kUnary =
    Stateless<ElementwiseUnary<F, kFlopsPerElem>, 1, 1>;

// ---------------------------------------------------------------------------
// Matrix ops.
// ---------------------------------------------------------------------------

Status MatMulImpl(const Tensor& a, const Tensor& b, const Tensor* bias,
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
  Tensor* out = ctx->output(0);
  out->ResizeMatrix(n, m);
  const float* pa = a.raw();
  const float* pb = b.raw();
  float* po = out->raw();
  for (std::int64_t i = 0; i < n; ++i) {
    float* orow = po + i * m;
    for (std::int64_t j = 0; j < m; ++j) {
      orow[j] = bias != nullptr ? bias->raw()[j] : 0.0f;
    }
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = pa[i * k + kk];
      if (av == 0.0f) continue;  // Sparse inputs (one-hot) skip work.
      const float* brow = pb + kk * m;
      for (std::int64_t j = 0; j < m; ++j) orow[j] += av * brow[j];
    }
    if (relu) {
      for (std::int64_t j = 0; j < m; ++j) orow[j] = orow[j] > 0 ? orow[j] : 0.f;
    }
  }
  ctx->flops = 2.0 * static_cast<double>(n) * static_cast<double>(k) *
               static_cast<double>(m);
  return Status::OK();
}

Status MatMulKernel(KernelContext* ctx) {
  return MatMulImpl(ctx->input(0), ctx->input(1), nullptr, /*relu=*/false,
                    ctx);
}

/// Gemm: Y = X * W (+ bias), then the fused activation if any. W is
/// [in, out]; bias broadcasts over rows.
Result<Kernel> GemmFactory(const Node& node) {
  RAVEN_RETURN_IF_ERROR(CheckArity(node, 2, 3));
  RAVEN_ASSIGN_OR_RETURN(const bool relu, GemmFusesRelu(node));
  return Kernel([relu](KernelContext* ctx) {
    const Tensor* bias = ctx->num_inputs() == 3 ? &ctx->input(2) : nullptr;
    return MatMulImpl(ctx->input(0), ctx->input(1), bias, relu, ctx);
  });
}

Status SoftmaxKernel(KernelContext* ctx) {
  const Tensor& a = ctx->input(0);
  const auto [rows, cols] = AsMatrix(a);
  Tensor* out = ctx->output(0);
  out->Resize(a.shape());
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* in = a.raw() + r * cols;
    float* o = out->raw() + r * cols;
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
  return Status::OK();
}

Status ConcatKernel(KernelContext* ctx) {
  // Axis 1 (feature concatenation), the layout FeatureUnion produces.
  std::int64_t rows = AsMatrix(ctx->input(0)).first;
  std::int64_t total_cols = 0;
  for (std::size_t i = 0; i < ctx->num_inputs(); ++i) {
    const auto [r, c] = AsMatrix(ctx->input(i));
    if (r != rows) {
      return Status::InvalidArgument("Concat row mismatch");
    }
    total_cols += c;
  }
  Tensor* out = ctx->output(0);
  out->ResizeMatrix(rows, total_cols);
  std::int64_t offset = 0;
  for (std::size_t in = 0; in < ctx->num_inputs(); ++in) {
    const Tensor& t = ctx->input(in);
    const std::int64_t c = AsMatrix(t).second;
    for (std::int64_t i = 0; i < rows; ++i) {
      std::copy(t.raw() + i * c, t.raw() + (i + 1) * c,
                out->raw() + i * total_cols + offset);
    }
    offset += c;
  }
  ctx->flops = static_cast<double>(out->num_elements());
  return Status::OK();
}

/// Gather: selects columns given by the "indices" int-list attribute.
Result<Kernel> GatherColumnsFactory(const Node& node) {
  RAVEN_RETURN_IF_ERROR(CheckArity(node, 1, 1));
  RAVEN_ASSIGN_OR_RETURN(auto indices, node.GetIntsAttr("indices"));
  const std::int64_t max_index =
      indices.empty() ? -1 : *std::max_element(indices.begin(), indices.end());
  for (std::int64_t idx : indices) {
    if (idx < 0) {
      return Status::OutOfRange("GatherColumns index " + std::to_string(idx) +
                                " is negative");
    }
  }
  return Kernel([indices = std::move(indices),
                 max_index](KernelContext* ctx) -> Status {
    const Tensor& a = ctx->input(0);
    const auto [rows, cols] = AsMatrix(a);
    if (max_index >= cols) {
      return Status::OutOfRange("GatherColumns index " +
                                std::to_string(max_index) +
                                " out of range for " +
                                ShapeToString(a.shape()));
    }
    const std::int64_t m = static_cast<std::int64_t>(indices.size());
    Tensor* out = ctx->output(0);
    out->ResizeMatrix(rows, m);
    for (std::int64_t r = 0; r < rows; ++r) {
      const float* in = a.raw() + r * cols;
      float* o = out->raw() + r * m;
      for (std::int64_t j = 0; j < m; ++j) {
        o[j] = in[indices[static_cast<std::size_t>(j)]];
      }
    }
    ctx->flops = static_cast<double>(out->num_elements());
    return Status::OK();
  });
}

/// OneHot: category codes [n] or [n,1] -> [n, depth]; out-of-range codes
/// produce an all-zero row (scikit-learn handle_unknown="ignore").
Result<Kernel> OneHotFactory(const Node& node) {
  RAVEN_RETURN_IF_ERROR(CheckArity(node, 1, 1));
  RAVEN_ASSIGN_OR_RETURN(std::int64_t depth, node.GetIntAttr("depth"));
  if (depth <= 0) return Status::InvalidArgument("OneHot depth must be > 0");
  return Kernel([depth](KernelContext* ctx) -> Status {
    const Tensor& a = ctx->input(0);
    const std::int64_t n = a.rank() == 2 ? a.dim(0) : a.num_elements();
    if (a.rank() == 2 && a.dim(1) != 1) {
      return Status::InvalidArgument("OneHot expects a single input column");
    }
    Tensor* out = ctx->output(0);
    out->ResizeMatrix(n, depth);
    std::fill(out->raw(), out->raw() + n * depth, 0.0f);
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int64_t code =
          static_cast<std::int64_t>(std::llround(a.raw()[i]));
      if (code >= 0 && code < depth) out->raw()[i * depth + code] = 1.0f;
    }
    ctx->flops = static_cast<double>(n);
    return Status::OK();
  });
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
Result<Kernel> FeaturizeFactory(const Node& node) {
  RAVEN_RETURN_IF_ERROR(CheckArity(node, 1, 1));
  RAVEN_ASSIGN_OR_RETURN(auto layout, PrepareFeaturizeLayout(node));
  return Kernel([layout = std::move(layout)](KernelContext* ctx) -> Status {
    const Tensor& x = ctx->input(0);
    const auto [rows, cols] = AsMatrix(x);
    RAVEN_RETURN_IF_ERROR(layout->CheckInput(x, cols));
    const std::int64_t f = layout->width;
    Tensor* out = ctx->output(0);
    out->ResizeMatrix(rows, f);
    for (std::int64_t r = 0; r < rows; ++r) {
      const float* in = x.raw() + r * cols;
      float* o = out->raw() + r * f;
      for (const FeaturizeLayout::Segment& seg : layout->segments) {
        if (seg.kind == FeaturizeLayout::Kind::kOneHot) {
          const FeaturizeLayout::OneHot& oh = layout->onehots[seg.begin];
          const std::int64_t v = LlroundFloat(in[oh.src]);
          for (std::int64_t t = 0; t < oh.width; ++t) {
            o[oh.dst + t] = v == oh.Code(t) ? 1.0f : 0.0f;
          }
          continue;
        }
        for (std::size_t c = seg.begin; c < seg.end; ++c) {
          const FeaturizeLayout::Column& col = layout->columns[c];
          o[col.dst] = seg.kind == FeaturizeLayout::Kind::kCopy
                           ? in[col.src]
                           : (in[col.src] - col.offset) * col.scale;
        }
      }
    }
    ctx->flops = static_cast<double>(rows * f);
    return Status::OK();
  });
}

/// Scaler (ai.onnx.ml semantics): y = (x - offset) * scale, per column.
/// The double attributes are cast to float once, when prepared: the cast
/// is position-independent, so every element sees the same values.
Result<Kernel> ScalerFactory(const Node& node) {
  RAVEN_RETURN_IF_ERROR(CheckArity(node, 1, 1));
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
      for (std::int64_t c = 0; c < cols; ++c) {
        o[c] = (in[c] - offs[static_cast<std::size_t>(c)]) *
               scls[static_cast<std::size_t>(c)];
      }
    }
    ctx->flops = 2.0 * static_cast<double>(a.num_elements());
    return Status::OK();
  });
}

Status ArgMaxKernel(KernelContext* ctx) {
  const Tensor& a = ctx->input(0);
  const auto [rows, cols] = AsMatrix(a);
  Tensor* out = ctx->output(0);
  out->ResizeMatrix(rows, 1);
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* in = a.raw() + r * cols;
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < cols; ++c) {
      if (in[c] > in[best]) best = c;
    }
    out->raw()[r] = static_cast<float>(best);
  }
  ctx->flops = static_cast<double>(a.num_elements());
  return Status::OK();
}

Status ReduceSumKernel(KernelContext* ctx) {
  const Tensor& a = ctx->input(0);
  const auto [rows, cols] = AsMatrix(a);
  Tensor* out = ctx->output(0);
  out->ResizeMatrix(rows, 1);
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* in = a.raw() + r * cols;
    float sum = 0.f;
    for (std::int64_t c = 0; c < cols; ++c) sum += in[c];
    out->raw()[r] = sum;
  }
  ctx->flops = static_cast<double>(a.num_elements());
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

struct TreeArrays {
  const Tensor* roots;
  const Tensor* feature;
  const Tensor* threshold;
  const Tensor* left;
  const Tensor* right;
  const Tensor* value;
  std::int64_t aggregate;
  std::int64_t post;
};

Status RunTreeEnsemble(const TreeArrays& t, KernelContext* ctx) {
  const Tensor& x = ctx->input(0);
  const auto [rows, cols] = AsMatrix(x);
  const std::int64_t num_trees = t.roots->num_elements();
  const std::int64_t num_slots = t.feature->num_elements();
  const float* feature = t.feature->raw();
  const float* threshold = t.threshold->raw();
  const float* left = t.left->raw();
  const float* right = t.right->raw();
  const float* value = t.value->raw();
  Tensor* out = ctx->output(0);
  out->ResizeMatrix(rows, 1);
  double steps = 0;
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* xr = x.raw() + r * cols;
    float acc = 0.f;
    for (std::int64_t tree = 0; tree < num_trees; ++tree) {
      std::int64_t slot = static_cast<std::int64_t>(t.roots->raw()[tree]);
      std::int64_t guard = 0;
      while (true) {
        if (slot < 0 || slot >= num_slots) {
          return Status::ExecutionError("TreeEnsemble: slot out of range");
        }
        const std::int64_t f = static_cast<std::int64_t>(feature[slot]);
        if (f < 0) {
          acc += value[slot];
          break;
        }
        if (f >= cols) {
          return Status::ExecutionError(
              "TreeEnsemble: feature index " + std::to_string(f) +
              " out of range for input with " + std::to_string(cols) +
              " columns");
        }
        slot = xr[f] <= threshold[slot] ? static_cast<std::int64_t>(left[slot])
                                        : static_cast<std::int64_t>(right[slot]);
        ++steps;
        if (++guard > num_slots) {
          return Status::ExecutionError("TreeEnsemble: cycle in tree");
        }
      }
    }
    if (t.aggregate == 1 && num_trees > 0) {
      acc /= static_cast<float>(num_trees);
    }
    if (t.post == 1) acc = 1.0f / (1.0f + std::exp(-acc));
    out->raw()[r] = acc;
  }
  ctx->flops = 2.0 * steps;
  return Status::OK();
}

Result<Kernel> TreeEnsembleFactory(const Node& node) {
  RAVEN_RETURN_IF_ERROR(CheckArity(node, 1, 1));
  TreeArrays t{};
  const std::pair<const char*, const Tensor**> arrays[] = {
      {"roots", &t.roots}, {"feature", &t.feature}, {"threshold", &t.threshold},
      {"left", &t.left},   {"right", &t.right},     {"value", &t.value}};
  for (const auto& [key, slot] : arrays) {
    *slot = AttrPtr<Tensor>(node, key);
    if (*slot == nullptr) {
      return Status::NotFound(std::string("TreeEnsemble: tensor attribute '") +
                              key + "' not present");
    }
  }
  const std::int64_t num_slots = t.feature->num_elements();
  for (const Tensor* array : {t.threshold, t.left, t.right, t.value}) {
    if (array->num_elements() != num_slots) {
      return Status::InvalidArgument("TreeEnsemble: slot arrays differ in size");
    }
  }
  t.aggregate = node.GetIntAttrOr("aggregate", 0);
  t.post = node.GetIntAttrOr("post", 0);
  return Kernel(
      [t](KernelContext* ctx) { return RunTreeEnsemble(t, ctx); });
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

const std::map<std::string, KernelFactory>& Registry() {
  static const std::map<std::string, KernelFactory>* registry =
      new std::map<std::string, KernelFactory>{
          {"Add", kBinary<AddOp>},
          {"Sub", kBinary<SubOp>},
          {"Mul", kBinary<MulOp>},
          {"Div", kBinary<DivOp>},
          {"Less", kBinary<LessOp>},
          {"LessOrEqual", kBinary<LessOrEqualOp>},
          {"Greater", kBinary<GreaterOp>},
          {"Equal", kBinary<EqualOp>},
          {"Identity", kUnary<IdentityOp, 0>},
          {"Relu", kUnary<ReluOp>},
          {"Sigmoid", kUnary<SigmoidOp, 4>},
          {"Tanh", kUnary<TanhOp, 4>},
          {"Neg", kUnary<NegOp>},
          {"MatMul", Stateless<MatMulKernel, 2, 2>},
          {"Gemm", GemmFactory},
          {"Softmax", Stateless<SoftmaxKernel, 1, 1>},
          {"Concat", Stateless<ConcatKernel, 1, 1024>},
          {"Featurize", FeaturizeFactory},
          {"GatherColumns", GatherColumnsFactory},
          {"OneHot", OneHotFactory},
          {"Scaler", ScalerFactory},
          {"ArgMax", Stateless<ArgMaxKernel, 1, 1>},
          {"ReduceSum", Stateless<ReduceSumKernel, 1, 1>},
          {"TreeEnsemble", TreeEnsembleFactory},
      };
  return *registry;
}

}  // namespace

std::pair<std::int64_t, std::int64_t> AsMatrix(const Tensor& t) {
  if (t.rank() == 2) return {t.dim(0), t.dim(1)};
  if (t.rank() == 1) return {1, t.dim(0)};
  return {1, t.num_elements()};
}

Status FeaturizeLayout::CheckInput(const Tensor& x, std::int64_t cols) const {
  if (max_source >= cols) {
    return Status::OutOfRange("Featurize column " + std::to_string(max_source) +
                              " out of range for " + ShapeToString(x.shape()));
  }
  return Status::OK();
}

Result<std::shared_ptr<const FeaturizeLayout>> PrepareFeaturizeLayout(
    const Node& node) {
  using Ints = std::vector<std::int64_t>;
  using Floats = std::vector<double>;
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
  auto layout = std::make_shared<FeaturizeLayout>();
  std::size_t c = 0, sc = 0, code = 0;
  const auto source = [&](std::int64_t* src) -> Status {
    if (c >= columns->size()) {
      return Status::InvalidArgument("Featurize: too few columns");
    }
    *src = (*columns)[c++];
    if (*src < 0) {
      return Status::OutOfRange("Featurize column " + std::to_string(*src) +
                                " is negative");
    }
    layout->max_source = std::max(layout->max_source, *src);
    return Status::OK();
  };
  for (std::size_t s = 0; s < kinds->size(); ++s) {
    const std::int64_t kind = (*kinds)[s];
    const std::int64_t w = (*widths)[s];
    if (w < 0 || kind < 0 || kind > 2) {
      return Status::InvalidArgument("Featurize: bad segment");
    }
    const auto width = static_cast<std::size_t>(w);
    const std::int64_t dst = layout->width;
    if (kind == 2) {
      FeaturizeLayout::OneHot oh{0, dst, w, {}, -1};
      RAVEN_RETURN_IF_ERROR(source(&oh.src));
      if (code + width > codes->size()) {
        return Status::InvalidArgument("Featurize: too few codes");
      }
      oh.codes.assign(codes->begin() + static_cast<std::ptrdiff_t>(code),
                      codes->begin() + static_cast<std::ptrdiff_t>(code + width));
      for (std::int64_t t = 0; t < w; ++t) {
        if (oh.codes[static_cast<std::size_t>(t)] < 0) {
          return Status::InvalidArgument("Featurize: negative code");
        }
      }
      if (w > 0) {
        oh.first = oh.codes[0];
        for (std::int64_t t = 0; t < w; ++t) {
          if (oh.codes[static_cast<std::size_t>(t)] != oh.first + t) {
            oh.first = -1;
          }
        }
      }
      layout->segments.push_back({FeaturizeLayout::Kind::kOneHot,
                                  layout->onehots.size(),
                                  layout->onehots.size() + 1});
      layout->onehots.push_back(std::move(oh));
      code += width;
    } else {
      if (kind == 1 && sc + width > offset->size()) {
        return Status::InvalidArgument("Featurize: too few offsets");
      }
      const std::size_t begin = layout->columns.size();
      for (std::int64_t t = 0; t < w; ++t) {
        FeaturizeLayout::Column col{0, dst + t, 0.0f, 1.0f};
        RAVEN_RETURN_IF_ERROR(source(&col.src));
        if (kind == 1) {
          col.offset = static_cast<float>((*offset)[sc]);
          col.scale = static_cast<float>((*scale)[sc]);
          ++sc;
        }
        layout->columns.push_back(col);
      }
      layout->segments.push_back({kind == 0 ? FeaturizeLayout::Kind::kCopy
                                            : FeaturizeLayout::Kind::kScale,
                                  begin, layout->columns.size()});
    }
    layout->width += w;
  }
  if (c != columns->size() || sc != offset->size() || code != codes->size()) {
    return Status::InvalidArgument("Featurize: segment sizes mismatch");
  }
  return std::shared_ptr<const FeaturizeLayout>(std::move(layout));
}

Result<bool> GemmFusesRelu(const Node& gemm) {
  auto it = gemm.attrs.find(kGemmActivationAttr);
  if (it == gemm.attrs.end()) return false;
  const std::string* act = std::get_if<std::string>(&it->second);
  if (act == nullptr || *act != "Relu") {
    return Status::InvalidArgument("Gemm: unsupported fused activation");
  }
  return true;
}

const KernelFactory* FindKernel(const std::string& op_type) {
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
