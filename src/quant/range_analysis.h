// Dynamic-range analysis (the Ristretto step the paper builds on):
// observe max-abs statistics of parameters and of activations on a
// calibration batch, from which radix-point locations are chosen.
#pragma once

#include <vector>

#include "nn/network.h"
#include "tensor/tensor.h"

namespace qnn::quant {

struct RangeStats {
  // Parameters, in nn::Network::trainable_params() order.
  std::vector<double> param_max_abs;
  double global_param_max_abs = 0.0;

  // Activation "sites": site 0 is the network input; site i+1 is the
  // output of layer i. Sized num_layers + 1.
  std::vector<double> site_max_abs;
  double global_data_max_abs = 0.0;

  // Strided value samples per group, for MSE-optimal format selection.
  std::vector<std::vector<float>> param_samples;  // per param
  std::vector<std::vector<float>> site_samples;   // per site
};

// Cap on samples kept per group during range analysis: a group keeps
// every stride-th value, stride = max(1, size / cap), so at most
// 2 * cap - 1 of them.
inline constexpr std::size_t kMaxCalibrationSamples = 4096;

// The samples of `groups` appended in order, re-thinned to about the cap
// whenever they pass twice it: the one sample set of RadixPolicy::kGlobal.
std::vector<float> merge_samples(
    const std::vector<std::vector<float>>& groups);

// Runs a full-precision forward over `batch` and records max-abs plus
// value samples at every site; parameter stats come from the tensors.
RangeStats analyze_ranges(nn::Network& net, const Tensor& batch);

}  // namespace qnn::quant
