#ifndef RAVEN_NNRT_BACKEND_H_
#define RAVEN_NNRT_BACKEND_H_

#include <string>

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
  /// registry per op. Bit-identical to the reference backend: lanes apply
  /// the same mul-then-add rounding per element the scalar loops do, and
  /// order-sensitive reductions are left on the reference kernels. The
  /// default for sessions and queries.
  kSimd,
  /// The SIMD kernels with every kernel's outputs rounded to IEEE half
  /// precision (storage rounding) — the accuracy-vs-throughput knob of
  /// fp16 inference without carrying a second dtype through the engine.
  /// Approximate by design; see docs/OPERATIONS.md for the tolerance.
  kFp16,
};

/// A pluggable kernel implementation set (the rwkv-qualcomm-style backend
/// seam: sessions bind one at creation, per-session selectable over the
/// wire via `SET nn_backend`). Stateless and immortal — GetBackend returns
/// process-lifetime singletons, so sessions hold plain pointers.
class Backend {
 public:
  virtual ~Backend() = default;

  virtual const char* name() const = 0;

  /// Kernel for `op_type`, or nullptr when neither this backend nor the
  /// reference registry it falls back to implements the op.
  virtual const Kernel* FindKernel(const std::string& op_type) const = 0;

  /// True when kernel outputs are rounded to half precision (results are
  /// approximate relative to the reference backend).
  virtual bool fp16() const { return false; }
};

/// The process-lifetime backend singleton for `kind`.
const Backend* GetBackend(BackendKind kind);

const char* BackendKindToString(BackendKind kind);

/// Parses a backend name as accepted by `SET nn_backend` (lowercase:
/// reference | simd | fp16).
Result<BackendKind> ParseBackendKind(const std::string& name);

/// Rounds a float to the nearest IEEE binary16 value (round-to-nearest-
/// even) and back. The fp16 backend applies this to every kernel output;
/// exposed for tests and tolerance documentation.
float RoundToFp16(float x);

}  // namespace raven::nnrt

#endif  // RAVEN_NNRT_BACKEND_H_
