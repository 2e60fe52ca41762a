// Dense float tensor with value semantics.
//
// The whole framework — including quantized inference — computes on float
// storage; quantization constrains values to a bit-accurate representable
// grid ("fake quantization", the Ristretto methodology the paper adopts).
// Bit-true integer arithmetic lives in src/fixed and is used by tests to
// validate that the float grid matches the integer semantics exactly.
#pragma once

#include <span>
#include <vector>

#include "tensor/shape.h"
#include "util/rng.h"

namespace qnn {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape)
      : shape_(std::move(shape)),
        data_(static_cast<std::size_t>(shape_.count()), 0.0f) {}
  Tensor(Shape shape, std::vector<float> data);

  const Shape& shape() const { return shape_; }
  std::int64_t count() const { return shape_.count(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  std::span<float> values() { return data_; }
  std::span<const float> values() const { return data_; }

  float& operator[](std::int64_t i) {
    QNN_DCHECK(i >= 0 && i < count());
    return data_[static_cast<std::size_t>(i)];
  }
  float operator[](std::int64_t i) const {
    QNN_DCHECK(i >= 0 && i < count());
    return data_[static_cast<std::size_t>(i)];
  }

  // NCHW element access (rank-4 only).
  float& at(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) {
    return data_[static_cast<std::size_t>(offset(n, c, h, w))];
  }
  float at(std::int64_t n, std::int64_t c, std::int64_t h,
           std::int64_t w) const {
    return data_[static_cast<std::size_t>(offset(n, c, h, w))];
  }

  // Rank-2 (N, F) element access.
  float& at2(std::int64_t n, std::int64_t f) {
    QNN_DCHECK(shape_.rank() == 2);
    return data_[static_cast<std::size_t>(n * shape_[1] + f)];
  }
  float at2(std::int64_t n, std::int64_t f) const {
    QNN_DCHECK(shape_.rank() == 2);
    return data_[static_cast<std::size_t>(n * shape_[1] + f)];
  }

  void fill(float v);
  void zero() { fill(0.0f); }

  // Reinterprets the same data with a new shape of equal element count.
  Tensor reshaped(Shape new_shape) const;

  // Element-wise in-place helpers.
  void add(const Tensor& other);          // this += other
  void axpy(float alpha, const Tensor& x);  // this += alpha * x
  void scale(float alpha);                 // this *= alpha

  float max_abs() const;
  double sum() const;
  double mean() const;

  // Fills with uniform draws from [lo, hi).
  void fill_uniform(Rng& rng, float lo, float hi);

 private:
  std::int64_t offset(std::int64_t n, std::int64_t c, std::int64_t h,
                      std::int64_t w) const {
    QNN_DCHECK(shape_.rank() == 4);
    QNN_DCHECK(n >= 0 && n < shape_.n());
    QNN_DCHECK(c >= 0 && c < shape_.c());
    QNN_DCHECK(h >= 0 && h < shape_.h());
    QNN_DCHECK(w >= 0 && w < shape_.w());
    return ((n * shape_.c() + c) * shape_.h() + h) * shape_.w() + w;
  }

  Shape shape_;
  std::vector<float> data_;
};

}  // namespace qnn
