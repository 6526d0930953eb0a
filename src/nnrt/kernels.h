#ifndef RAVEN_NNRT_KERNELS_H_
#define RAVEN_NNRT_KERNELS_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "nnrt/graph.h"
#include "tensor/tensor.h"

namespace raven::nnrt {

/// Per-invocation kernel state: bound input tensors, output slots, and a
/// floating-point-operation estimate used by the simulated-accelerator cost
/// model (see DESIGN.md §1, GPU substitution).
struct KernelContext {
  const Node* node = nullptr;
  std::vector<const Tensor*> inputs;
  std::vector<Tensor> outputs;
  double flops = 0.0;

  const Tensor& input(std::size_t i) const { return *inputs[i]; }
  std::size_t num_inputs() const { return inputs.size(); }
};

using Kernel = std::function<Status(KernelContext*)>;

/// Gemm attribute naming an activation the graph optimizer fused into the
/// Gemm. The only value is "Relu": every output element becomes
/// `x > 0 ? x : 0` after its accumulation, exactly what the Relu node it
/// replaces computed. Every backend's Gemm honours it.
inline constexpr char kGemmActivationAttr[] = "activation";

/// True when `gemm` carries a fused ReLU; an error for any other activation.
Result<bool> GemmFusesRelu(const Node& gemm);

/// Looks up the CPU kernel for `op_type`; nullptr when unsupported (callers
/// turn that into a Status and, at the Raven layer, into external-runtime
/// fallback).
const Kernel* FindKernel(const std::string& op_type);

/// True if the executor has a kernel for this op type.
bool IsOpSupported(const std::string& op_type);

/// All registered op types, sorted (for diagnostics and docs).
std::vector<std::string> SupportedOps();

}  // namespace raven::nnrt

#endif  // RAVEN_NNRT_KERNELS_H_
