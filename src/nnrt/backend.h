#ifndef RAVEN_NNRT_BACKEND_H_
#define RAVEN_NNRT_BACKEND_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "nnrt/kernels.h"

namespace raven::nnrt {

/// Which kernel implementation set an inference session executes with.
/// Orthogonal to DeviceSpec (device.h): the device decides how time is
/// *accounted* (measured wall time vs the simulated-accelerator cost
/// model), the backend decides which code actually computes each op.
enum class BackendKind {
  /// Scalar CPU kernels (kernels.cc). The semantic ground truth every
  /// other backend is differentially tested against.
  kReference,
  /// SIMD-vectorized CPU kernels for the hot dense ops (register-blocked
  /// Gemm/MatMul, elementwise, Relu, Scaler), falling back to the reference
  /// registry per op. Plans on this backend also fuse a Featurize into the
  /// Gemm that is its only reader (FeaturizeGemm), so the feature row is
  /// never materialized. Bit-identical to the reference backend: lanes
  /// apply the same mul-then-add rounding per element the scalar loops do,
  /// and order-sensitive reductions are left on the reference kernels. The
  /// Gemm panels run at the widest SimdWidth the CPU supports. The default
  /// for sessions and queries.
  kSimd,
  /// The SIMD kernels with every plan step's outputs rounded to IEEE half
  /// precision (storage rounding) — the accuracy-vs-throughput knob of
  /// fp16 inference without carrying a second dtype through the engine.
  /// Approximate by design; see docs/OPERATIONS.md for the tolerance.
  kFp16,
};

/// Vector width a SIMD backend's Gemm panels are compiled for. Both are
/// built into every x86-64 binary; kAvx2 runs only on CPUs that have AVX2,
/// and never uses FMA.
enum class SimdWidth { kSse2, kAvx2 };

/// A pluggable kernel implementation set (the rwkv-qualcomm-style backend
/// seam: sessions bind one at creation, per-session selectable over the
/// wire via `SET nn_backend`). Stateless and immortal — GetBackend returns
/// process-lifetime singletons, so sessions hold plain pointers.
class Backend {
 public:
  virtual ~Backend() = default;

  virtual const char* name() const = 0;

  /// Kernel factory for `op_type`, or nullptr when neither this backend nor
  /// the reference registry it falls back to implements the op. Besides
  /// graph ops, a backend may offer plan-only fused ops (FeaturizeGemm);
  /// an execution plan uses one when the backend has it.
  virtual const KernelFactory* FindKernel(const std::string& op_type) const = 0;

  /// True when every plan step's outputs are rounded to half precision
  /// (results are approximate relative to the reference backend).
  virtual bool fp16() const { return false; }
};

/// The process-lifetime backend singleton for `kind`. kSimd and kFp16 run
/// at the widest width in SupportedSimdWidths(), chosen once per process.
const Backend* GetBackend(BackendKind kind);

/// The widths this CPU runs, narrowest first: kSse2 on every x86-64 CPU,
/// then kAvx2 when the CPU has it. Empty on non-x86 builds, whose simd
/// backend is the reference registry.
std::vector<SimdWidth> SupportedSimdWidths();

/// The SIMD backend pinned to `width` (which must be supported), for
/// differential tests and benches that cover every width.
const Backend* GetSimdBackend(SimdWidth width);

const char* SimdWidthToString(SimdWidth width);

const char* BackendKindToString(BackendKind kind);

/// Parses a backend name as accepted by `SET nn_backend` (lowercase:
/// reference | simd | fp16).
Result<BackendKind> ParseBackendKind(const std::string& name);

/// Rounds a float to the nearest IEEE binary16 value (round-to-nearest-
/// even) and back. The fp16 backend applies this to every step output;
/// exposed for tests and tolerance documentation.
float RoundToFp16(float x);

}  // namespace raven::nnrt

#endif  // RAVEN_NNRT_BACKEND_H_
