#include "quant/range_analysis.h"

#include <algorithm>

namespace qnn::quant {
namespace {

// Every stride-th value, stride = max(1, size / kMaxCalibrationSamples):
// up to 2 * kMaxCalibrationSamples - 1 of them.
std::vector<float> sample_values(std::span<const float> values) {
  std::vector<float> out;
  if (values.empty()) return out;
  const std::size_t stride =
      std::max<std::size_t>(1, values.size() / kMaxCalibrationSamples);
  out.reserve(values.size() / stride + 1);
  for (std::size_t i = 0; i < values.size(); i += stride)
    out.push_back(values[i]);
  return out;
}

}  // namespace

std::vector<float> merge_samples(
    const std::vector<std::vector<float>>& groups) {
  std::vector<float> into;
  for (const std::vector<float>& add : groups) {
    into.insert(into.end(), add.begin(), add.end());
    if (into.size() > 2 * kMaxCalibrationSamples) {
      std::vector<float> thinned;
      thinned.reserve(kMaxCalibrationSamples);
      const std::size_t stride = into.size() / kMaxCalibrationSamples + 1;
      for (std::size_t i = 0; i < into.size(); i += stride)
        thinned.push_back(into[i]);
      into = std::move(thinned);
    }
  }
  return into;
}

RangeStats analyze_ranges(nn::Network& net, const Tensor& batch) {
  RangeStats stats;
  const auto observe_site = [&](const Tensor& x) {
    const double m = x.max_abs();
    stats.site_max_abs.push_back(m);
    stats.global_data_max_abs = std::max(stats.global_data_max_abs, m);
    stats.site_samples.push_back(sample_values(x.values()));
  };

  for (nn::Param* p : net.trainable_params()) {
    const double m = p->value.max_abs();
    stats.param_max_abs.push_back(m);
    stats.global_param_max_abs = std::max(stats.global_param_max_abs, m);
    stats.param_samples.push_back(sample_values(p->value.values()));
  }

  stats.site_max_abs.reserve(net.num_layers() + 1);
  stats.site_samples.reserve(net.num_layers() + 1);
  observe_site(batch);
  Tensor x;
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    x = net.layer(i).forward(i == 0 ? batch : x);
    observe_site(x);
  }
  return stats;
}

}  // namespace qnn::quant
