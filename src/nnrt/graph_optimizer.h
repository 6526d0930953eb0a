#ifndef RAVEN_NNRT_GRAPH_OPTIMIZER_H_
#define RAVEN_NNRT_GRAPH_OPTIMIZER_H_

#include "common/status.h"
#include "nnrt/graph.h"

namespace raven::nnrt {

/// Statistics of one optimization run, used by tests and EXPLAIN output.
struct GraphOptStats {
  std::size_t constants_folded = 0;
  std::size_t identities_removed = 0;
  std::size_t dead_nodes_removed = 0;
  std::size_t gemms_fused = 0;
  /// Relu nodes folded into their Gemm as its fused activation.
  std::size_t relus_fused = 0;
  /// Featurizer fan-ins collapsed into one Featurize node.
  std::size_t featurizers_fused = 0;
};

/// Compiler-style optimizations inside the NN runtime (paper §2 "compiler
/// optimizations", implemented in ONNX Runtime there):
///   1. constant folding — any node whose inputs are all initializers is
///      evaluated at optimization time and replaced by an initializer. This
///      is what makes predicate-derived constants (e.g. pregnant = 1)
///      propagate through the network;
///   2. identity elimination;
///   3. MatMul + Add(bias row vector) fusion into Gemm;
///   4. Gemm + Relu fusion: the Relu becomes the Gemm's fused activation
///      (kGemmActivationAttr) when the Gemm output has no other consumer
///      and is not a graph output;
///   5. featurizer fusion: a Concat (or a Scaler / OneHot / restricted
///      OneHot) over GatherColumns / Scaler / OneHot chains that all read
///      one graph input, with single-use intermediates, becomes one
///      Featurize node (kernels.cc);
///   6. dead-node elimination (nodes not reachable from graph outputs).
/// Runs rules to a fixpoint. The graph's observable outputs are unchanged,
/// bit for bit: every fused kernel runs the replaced nodes' exact float ops.
Status OptimizeGraph(Graph* graph, GraphOptStats* stats = nullptr);

}  // namespace raven::nnrt

#endif  // RAVEN_NNRT_GRAPH_OPTIMIZER_H_
