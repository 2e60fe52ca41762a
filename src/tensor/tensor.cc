#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace qnn {

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  QNN_CHECK_MSG(static_cast<std::int64_t>(data_.size()) == shape_.count(),
                "data size " << data_.size() << " does not match shape "
                             << shape_.to_string());
}

void Tensor::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

Tensor Tensor::reshaped(Shape new_shape) const {
  QNN_CHECK_MSG(new_shape.count() == shape_.count(),
                "reshape " << shape_.to_string() << " -> "
                           << new_shape.to_string());
  return Tensor(std::move(new_shape), data_);
}

void Tensor::add(const Tensor& other) {
  QNN_CHECK(other.count() == count());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Tensor::axpy(float alpha, const Tensor& x) {
  QNN_CHECK(x.count() == count());
  for (std::size_t i = 0; i < data_.size(); ++i)
    data_[i] += alpha * x.data_[i];
}

void Tensor::scale(float alpha) {
  for (float& v : data_) v *= alpha;
}

float Tensor::max_abs() const {
  // Independent lane maxima over 16-float blocks, then their max: a max
  // over the non-NaN magnitudes (NaN never wins a `<`) is the same value
  // in any order. 4-float vectors are native to every x86-64 build.
  typedef float F4 __attribute__((vector_size(16)));
  typedef std::uint32_t U4 __attribute__((vector_size(16)));
  const auto fold = [](auto m, auto v) { return m < v ? v : m; };
  F4 lanes[4] = {};
  const std::size_t n = data_.size(), body = n - n % 16;
  for (std::size_t i = 0; i < body; i += 16) {
    for (int j = 0; j < 4; ++j) {
      F4 v;
      std::memcpy(&v, data_.data() + i + 4 * j, sizeof v);
      lanes[j] = fold(lanes[j], (F4)((U4)v & 0x7fffffffu));
    }
  }
  float m = 0.0f;
  for (const F4& l : lanes)
    for (int k = 0; k < 4; ++k) m = fold(m, l[k]);
  for (std::size_t i = body; i < n; ++i) m = fold(m, std::fabs(data_[i]));
  return m;
}

double Tensor::sum() const {
  double s = 0.0;
  for (float v : data_) s += v;
  return s;
}

double Tensor::mean() const {
  return data_.empty() ? 0.0 : sum() / static_cast<double>(data_.size());
}

void Tensor::fill_uniform(Rng& rng, float lo, float hi) {
  for (float& v : data_) v = static_cast<float>(rng.uniform(lo, hi));
}

}  // namespace qnn
