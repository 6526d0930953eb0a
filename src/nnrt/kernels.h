#ifndef RAVEN_NNRT_KERNELS_H_
#define RAVEN_NNRT_KERNELS_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "nnrt/graph.h"
#include "tensor/tensor.h"

namespace raven::nnrt {

/// Per-invocation kernel state: bound input tensors, the caller-owned
/// output buffers, and a floating-point-operation estimate used by the
/// simulated-accelerator cost model (see DESIGN.md §1, GPU substitution).
/// A kernel sizes each output with Tensor::Resize/ResizeMatrix and then
/// writes every element: buffers are reused across runs and are never
/// zero-filled for it.
struct KernelContext {
  const Node* node = nullptr;
  const Tensor* const* inputs = nullptr;
  std::size_t input_count = 0;
  Tensor* const* outputs = nullptr;
  std::size_t output_count = 0;
  double flops = 0.0;

  const Tensor& input(std::size_t i) const { return *inputs[i]; }
  std::size_t num_inputs() const { return input_count; }
  Tensor* output(std::size_t i) const { return outputs[i]; }
  std::size_t num_outputs() const { return output_count; }
};

/// A kernel bound to one node: the node's attributes and input count were
/// read and checked once, when the kernel was prepared, and the closure
/// holds what every call reads. Calls only read that state, so one
/// prepared kernel runs on many threads at once.
using Kernel = std::function<Status(KernelContext*)>;

/// Prepares `node`'s kernel (an execution plan does this once per node).
/// An error means the node cannot run: malformed attributes or the wrong
/// number of inputs.
using KernelFactory = Result<Kernel> (*)(const Node& node);

/// Gemm attribute naming an activation the graph optimizer fused into the
/// Gemm. The only value is "Relu": every output element becomes
/// `x > 0 ? x : 0` after its accumulation, exactly what the Relu node it
/// replaces computed. Every backend's Gemm honours it.
inline constexpr char kGemmActivationAttr[] = "activation";

/// True when `gemm` carries a fused ReLU; an error for any other activation.
Result<bool> GemmFusesRelu(const Node& gemm);

/// The reference (scalar) kernel factory for `op_type`; nullptr when
/// unsupported (callers turn that into a Status and, at the Raven layer,
/// into external-runtime fallback).
const KernelFactory* FindKernel(const std::string& op_type);

/// True if the executor has a kernel for this op type.
bool IsOpSupported(const std::string& op_type);

/// All registered op types, sorted (for diagnostics and docs).
std::vector<std::string> SupportedOps();

/// Rows/cols of a tensor treated as a matrix: rank-1 [n] is a single row.
std::pair<std::int64_t, std::int64_t> AsMatrix(const Tensor& t);

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

/// A Featurize node's segments, read and checked once (see FeaturizeKernel
/// in kernels.cc for the attribute layout). Output column order is segment
/// order; within a copy or scale segment, column order.
struct FeaturizeLayout {
  enum class Kind { kCopy, kScale, kOneHot };
  /// One copied or scaled output column: in[src], or
  /// (in[src] - offset) * scale, at output column `dst`.
  struct Column {
    std::int64_t src, dst;
    float offset, scale;
  };
  /// Output columns [dst, dst + width): column t is 1 iff
  /// llround(in[src]) == codes[t], else 0.
  struct OneHot {
    std::int64_t src, dst, width;
    std::vector<std::int64_t> codes;
    /// codes[t] == first + t for every t, else -1.
    std::int64_t first;

    std::int64_t Code(std::int64_t t) const {
      return first >= 0 ? first + t : codes[static_cast<std::size_t>(t)];
    }
  };
  struct Segment {
    Kind kind;
    /// Copy/scale: columns [begin, end). One-hot: onehots[begin].
    std::size_t begin, end;
  };

  std::vector<Column> columns;
  std::vector<OneHot> onehots;
  std::vector<Segment> segments;
  /// Output columns.
  std::int64_t width = 0;
  /// Largest source column read (-1 when none): X needs more columns.
  std::int64_t max_source = -1;

  /// OK when X (cols wide) has every source column.
  Status CheckInput(const Tensor& x, std::int64_t cols) const;
};

/// Reads a Featurize node's (or a fused FeaturizeGemm node's) segment
/// attributes.
Result<std::shared_ptr<const FeaturizeLayout>> PrepareFeaturizeLayout(
    const Node& node);

}  // namespace raven::nnrt

#endif  // RAVEN_NNRT_KERNELS_H_
