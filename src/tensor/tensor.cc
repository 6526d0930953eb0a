#include "tensor/tensor.h"

#include <cmath>
#include <sstream>

namespace raven {

std::int64_t ShapeNumElements(const Shape& shape) {
  std::int64_t n = 1;
  for (std::int64_t d : shape) n *= d;
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

Tensor Tensor::Zeros(Shape shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_.assign(static_cast<std::size_t>(ShapeNumElements(t.shape_)), 0.0f);
  return t;
}

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_.assign(static_cast<std::size_t>(ShapeNumElements(t.shape_)), value);
  return t;
}

Result<Tensor> Tensor::FromData(Shape shape, std::vector<float> data) {
  if (shape.empty() && data.empty()) {
    return Tensor();  // the default (empty) tensor round-trips as itself
  }
  if (ShapeNumElements(shape) != static_cast<std::int64_t>(data.size())) {
    return Status::InvalidArgument(
        "tensor data size " + std::to_string(data.size()) +
        " does not match shape " + ShapeToString(shape));
  }
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = std::move(data);
  return t;
}

Tensor Tensor::FromVector(std::vector<float> data) {
  Tensor t;
  t.shape_ = {static_cast<std::int64_t>(data.size())};
  t.data_ = std::move(data);
  return t;
}

Tensor Tensor::Scalar(float value) {
  Tensor t;
  t.shape_ = {};
  t.data_ = {value};
  return t;
}

Status Tensor::Reshape(Shape new_shape) {
  if (ShapeNumElements(new_shape) != num_elements()) {
    return Status::InvalidArgument("reshape to " + ShapeToString(new_shape) +
                                   " changes element count");
  }
  shape_ = std::move(new_shape);
  return Status::OK();
}

void Tensor::Resize(const Shape& shape) {
  shape_.assign(shape.begin(), shape.end());
  data_.resize(static_cast<std::size_t>(ShapeNumElements(shape_)));
}

void Tensor::ResizeMatrix(std::int64_t rows, std::int64_t cols) {
  shape_.resize(2);
  shape_[0] = rows;
  shape_[1] = cols;
  data_.resize(static_cast<std::size_t>(rows * cols));
}

Result<Tensor> Tensor::SliceRows(std::int64_t begin, std::int64_t end) const {
  if (rank() != 2) {
    return Status::InvalidArgument("SliceRows requires a rank-2 tensor");
  }
  if (begin < 0 || end < begin || end > shape_[0]) {
    return Status::OutOfRange("row slice [" + std::to_string(begin) + ", " +
                              std::to_string(end) + ") out of bounds for " +
                              ShapeToString(shape_));
  }
  const std::int64_t cols = shape_[1];
  Tensor out = Zeros({end - begin, cols});
  std::copy(data_.begin() + static_cast<std::size_t>(begin * cols),
            data_.begin() + static_cast<std::size_t>(end * cols),
            out.data_.begin());
  return out;
}

bool Tensor::Equals(const Tensor& other) const {
  return shape_ == other.shape_ && data_ == other.data_;
}

bool Tensor::AllClose(const Tensor& other, float atol) const {
  if (shape_ != other.shape_) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > atol) return false;
  }
  return true;
}

std::string Tensor::ToString(std::int64_t max_elements) const {
  std::ostringstream os;
  os << "Tensor" << ShapeToString(shape_) << " {";
  const std::int64_t n =
      std::min<std::int64_t>(max_elements, num_elements());
  for (std::int64_t i = 0; i < n; ++i) {
    if (i > 0) os << ", ";
    os << data_[static_cast<std::size_t>(i)];
  }
  if (n < num_elements()) os << ", ...";
  os << "}";
  return os.str();
}

void Tensor::Serialize(BinaryWriter* writer) const {
  writer->WriteI64Vector(
      std::vector<std::int64_t>(shape_.begin(), shape_.end()));
  writer->WriteF32Vector(data_);
}

Result<Tensor> Tensor::Deserialize(BinaryReader* reader) {
  RAVEN_ASSIGN_OR_RETURN(auto dims, reader->ReadI64Vector());
  RAVEN_ASSIGN_OR_RETURN(auto data, reader->ReadF32Vector());
  return FromData(Shape(dims.begin(), dims.end()), std::move(data));
}

}  // namespace raven
