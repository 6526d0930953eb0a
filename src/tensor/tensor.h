#ifndef RAVEN_TENSOR_TENSOR_H_
#define RAVEN_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"

namespace raven {

/// Shape of a dense tensor; empty shape denotes a scalar.
using Shape = std::vector<std::int64_t>;

/// Number of elements implied by a shape (product of dims; 1 for scalars).
std::int64_t ShapeNumElements(const Shape& shape);

/// Human-readable "[2, 3]" form.
std::string ShapeToString(const Shape& shape);

/// Dense row-major float32 tensor.
///
/// NNRT (the ONNX-Runtime stand-in) is a float32 engine, matching the common
/// inference configuration of the paper's models; integer data (one-hot
/// indices, tree node ids) is represented as exact small floats. This keeps
/// every kernel monomorphic, which is what a vectorized inference runtime
/// wants anyway.
class Tensor {
 public:
  Tensor() = default;

  /// Allocates a zero-initialized tensor of the given shape.
  static Tensor Zeros(Shape shape);
  /// Allocates a tensor filled with `value`.
  static Tensor Full(Shape shape, float value);
  /// Wraps existing data; data.size() must equal the shape's element count.
  static Result<Tensor> FromData(Shape shape, std::vector<float> data);
  /// 1-D convenience constructor.
  static Tensor FromVector(std::vector<float> data);
  /// Scalar convenience constructor.
  static Tensor Scalar(float value);

  const Shape& shape() const { return shape_; }
  std::int64_t num_elements() const {
    return static_cast<std::int64_t>(data_.size());
  }
  std::int64_t rank() const { return static_cast<std::int64_t>(shape_.size()); }

  /// Dimension i; negative axes are not supported at this layer.
  std::int64_t dim(std::int64_t i) const { return shape_[static_cast<std::size_t>(i)]; }

  const std::vector<float>& data() const { return data_; }
  std::vector<float>& data() { return data_; }
  const float* raw() const { return data_.data(); }
  float* raw() { return data_.data(); }

  /// Element access for rank-2 tensors.
  float At(std::int64_t row, std::int64_t col) const {
    return data_[static_cast<std::size_t>(row * shape_[1] + col)];
  }
  float& At(std::int64_t row, std::int64_t col) {
    return data_[static_cast<std::size_t>(row * shape_[1] + col)];
  }

  /// Reinterprets the buffer under a new shape with the same element count.
  Status Reshape(Shape new_shape);

  /// Gives the tensor `shape` for a writer that overwrites every element
  /// (an NNRT kernel output). The allocation is kept: a buffer reused at a
  /// steady size neither reallocates nor fills, and elements keep whatever
  /// they held; only growth past the largest size the buffer had is
  /// zero-filled (std::vector's resize).
  void Resize(const Shape& shape);
  /// Resize to the rank-2 shape [rows, cols], without building a Shape.
  void ResizeMatrix(std::int64_t rows, std::int64_t cols);

  /// Returns rows [begin, end) of a rank-2 tensor as a new tensor.
  Result<Tensor> SliceRows(std::int64_t begin, std::int64_t end) const;

  /// Exact element-wise equality.
  bool Equals(const Tensor& other) const;
  /// Element-wise equality within `atol`.
  bool AllClose(const Tensor& other, float atol = 1e-5f) const;

  std::string ToString(std::int64_t max_elements = 16) const;

  void Serialize(BinaryWriter* writer) const;
  static Result<Tensor> Deserialize(BinaryReader* reader);

 private:
  Shape shape_;
  std::vector<float> data_;
};

}  // namespace raven

#endif  // RAVEN_TENSOR_TENSOR_H_
