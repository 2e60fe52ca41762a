#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>

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
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::fabs(v));
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
