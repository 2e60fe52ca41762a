#include "quant/qnetwork.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "quant/int_inference.h"
#include "util/check.h"

namespace qnn::quant {
namespace {

// Biases accumulate at the adder tree's precision, not the weight
// memory's: binary and power-of-two nets keep fixed-point biases at the
// data width (a ±1 bias would be useless), while pure fixed-point nets
// share the weight width.
std::unique_ptr<ValueQuantizer> make_param_quantizer(
    const PrecisionConfig& config, const nn::Param& p) {
  const bool is_bias = p.name == "b";
  if (config.is_float()) return std::make_unique<IdentityQuantizer>();
  if (is_bias && (config.kind == PrecisionKind::kBinary ||
                  config.kind == PrecisionKind::kPow2))
    return std::make_unique<FixedQuantizer>(config.input_bits,
                                            config.rounding);
  return make_weight_quantizer(config);
}

}  // namespace

QuantizedNetwork::QuantizedNetwork(nn::Network& net,
                                   const PrecisionConfig& config)
    : net_(net), config_(config), params_(net.trainable_params()) {
  for (nn::Param* p : params_)
    weight_quantizers_.push_back(make_param_quantizer(config_, *p));
  for (std::size_t site = 0; site <= net_.num_layers(); ++site)
    data_quantizers_.push_back(make_data_quantizer(config_));
  clip_limits_.assign(params_.size(), 0.0);
  site_guards_.assign(data_quantizers_.size(), GuardCounters{});
  param_guards_.assign(params_.size(), GuardCounters{});
  build_param_spans();
  if (config_.is_float()) calibrated_ = true;  // nothing to calibrate
}

QuantizedNetwork::QuantizedNetwork(
    nn::Network& net, const PrecisionConfig& config,
    const std::vector<int>& weight_bits_per_layer)
    : net_(net), config_(config), params_(net.trainable_params()) {
  QNN_CHECK_MSG(config.kind == PrecisionKind::kFixed,
                "mixed precision supports fixed-point configs only");
  std::size_t weight_index = 0;
  for (nn::Param* p : params_) {
    if (p->name == "w") {
      QNN_CHECK_MSG(weight_index < weight_bits_per_layer.size(),
                    "weight_bits_per_layer has too few entries");
      weight_quantizers_.push_back(std::make_unique<FixedQuantizer>(
          weight_bits_per_layer[weight_index], config.rounding));
      ++weight_index;
    } else {
      weight_quantizers_.push_back(make_param_quantizer(config_, *p));
    }
  }
  QNN_CHECK_MSG(weight_index == weight_bits_per_layer.size(),
                "weight_bits_per_layer has too many entries ("
                    << weight_bits_per_layer.size() << " for "
                    << weight_index << " weight tensors)");
  for (std::size_t site = 0; site <= net_.num_layers(); ++site)
    data_quantizers_.push_back(make_data_quantizer(config_));
  clip_limits_.assign(params_.size(), 0.0);
  site_guards_.assign(data_quantizers_.size(), GuardCounters{});
  param_guards_.assign(params_.size(), GuardCounters{});
  build_param_spans();
}

QuantizedNetwork::~QuantizedNetwork() = default;
QuantizedNetwork::QuantizedNetwork(QuantizedNetwork&&) noexcept = default;

void QuantizedNetwork::build_param_spans() {
  std::size_t off = 0;
  for (std::size_t i = 0; i < net_.num_layers(); ++i) {
    const std::size_t n = net_.layer(i).params().size();
    layer_param_spans_.emplace_back(off, off + n);
    off += n;
  }
  QNN_CHECK_MSG(off == params_.size(),
                "trainable_params() is not the per-layer concatenation ("
                    << off << " vs " << params_.size() << ")");
}

void QuantizedNetwork::calibrate(const Tensor& calibration_batch) {
  restore_masters();
  const RangeStats stats = analyze_ranges(net_, calibration_batch);
  const bool global = config_.radix_policy == RadixPolicy::kGlobal;

  const bool mse = config_.calibration == CalibrationRule::kMse;
  std::vector<float> global_param_samples, global_data_samples;
  if (global && mse) {
    global_param_samples = merge_samples(stats.param_samples);
    global_data_samples = merge_samples(stats.site_samples);
  }
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const double max_abs =
        global ? stats.global_param_max_abs : stats.param_max_abs[i];
    if (mse) {
      weight_quantizers_[i]->calibrate_with_samples(
          global ? global_param_samples : stats.param_samples[i], max_abs);
    } else {
      weight_quantizers_[i]->calibrate(max_abs);
    }
    // Clip masters at the largest representable magnitude of the chosen
    // format so they cannot drift arbitrarily beyond the grid during QAT
    // (BinaryConnect-style clipping generalized to every format).
    clip_limits_[i] = weight_quantizers_[i]->clip_limit();
  }
  for (std::size_t s = 0; s < data_quantizers_.size(); ++s) {
    const double max_abs =
        global ? stats.global_data_max_abs : stats.site_max_abs[s];
    if (mse) {
      data_quantizers_[s]->calibrate_with_samples(
          global ? global_data_samples : stats.site_samples[s], max_abs);
    } else {
      data_quantizers_[s]->calibrate(max_abs);
    }
  }
  calibrated_ = true;
}

void QuantizedNetwork::save_masters() {
  QNN_DCHECK(!masters_saved_);
  masters_.clear();
  masters_.reserve(params_.size());
  for (nn::Param* p : params_) masters_.push_back(p->value);
  masters_saved_ = true;
}

void QuantizedNetwork::restore_masters() {
  frozen_ = false;
  int_engine_.reset();
  fallback_reason_.clear();
  if (!masters_saved_) return;
  for (std::size_t i = 0; i < params_.size(); ++i)
    params_[i]->value = masters_[i];
  masters_saved_ = false;
}

void QuantizedNetwork::freeze_inference() {
  QNN_CHECK_MSG(calibrated_,
                "freeze_inference before calibrate()");
  if (frozen_) return;
  restore_masters();
  save_masters();
  quantize_params();
  frozen_ = true;
  // Native integer path (quant/int_inference): built from the live
  // quantized parameter image when the config qualifies. Hook-free
  // frozen forwards then run int end-to-end.
  fallback_reason_ = IntInferenceEngine::ineligibility_reason(net_, *this);
  if (fallback_reason_.empty())
    int_engine_ = std::make_unique<IntInferenceEngine>(net_, *this);
}

namespace {

// Process-wide mirror of every guarded quantize: lets RunReport surface
// the quantization health of a whole run without plumbing per-site
// counters out of each QuantizedNetwork instance.
struct GuardMetrics {
  obs::Counter values, saturated, nan, inf;
};

GuardMetrics& guard_metrics() {
  obs::Registry& r = obs::Registry::global();
  static GuardMetrics m{
      r.counter("quant.guard.values"), r.counter("quant.guard.saturated"),
      r.counter("quant.guard.nan"), r.counter("quant.guard.inf")};
  return m;
}

// Quantizes `t` in place with `q` and counts, in the same pass, NaN/Inf
// and the values beyond the format's representable magnitude before the
// quantizer clips them to the grid (ValueQuantizer::apply).
void quantize_guarded(const ValueQuantizer& q, Tensor& t,
                      GuardCounters& guards) {
  GuardCounters g;
  q.apply(t.values(), &g, active_simd_level());
  guards += g;
  GuardMetrics& gm = guard_metrics();
  gm.values.add(g.values);
  gm.saturated.add(g.saturated);
  gm.nan.add(g.nan);
  gm.inf.add(g.inf);
}

}  // namespace

void QuantizedNetwork::quantize_params() {
  QNN_SPAN("quantize_params", "quant");
  for (std::size_t i = 0; i < params_.size(); ++i) {
    quantize_guarded(*weight_quantizers_[i], params_[i]->value,
                     param_guards_[i]);
    if (hooks_.on_quantized_param)
      hooks_.on_quantized_param(i, params_[i]->value);
  }
}

void QuantizedNetwork::reset_guards() {
  site_guards_.assign(data_quantizers_.size(), GuardCounters{});
  param_guards_.assign(params_.size(), GuardCounters{});
}

GuardCounters QuantizedNetwork::total_guards() const {
  GuardCounters total;
  for (const GuardCounters& g : site_guards_) total += g;
  for (const GuardCounters& g : param_guards_) total += g;
  return total;
}

Tensor QuantizedNetwork::forward(const Tensor& input) {
  // Frozen + native engine + no fault hooks: run the integer path. The
  // decoded words land on exactly the grid the fake-quantized float
  // path produces (pinned by tests/int_gemm_oracle_test.cc against the
  // NFU oracle), so callers see the same tensor either way. Hooked
  // forwards (fault injection) fall through to the float path, whose
  // site/param mutation points the hooks contract with.
  if (frozen_ && int_engine_ && !hooks_.on_quantized_param &&
      !hooks_.on_accumulator && !hooks_.on_quantized_site)
    return int_engine_->forward(input);
  return forward_observed(input, SiteObserver());
}

Tensor QuantizedNetwork::forward_observed(const Tensor& input,
                                          const SiteObserver& observer) {
  Tensor x = forward_prologue(input);
  if (observer) observer(0, x);
  for (std::size_t i = 0; i < net_.num_layers(); ++i) {
    x = forward_step(i, std::move(x));
    if (observer) observer(i + 1, x);
  }
  return x;
}

Tensor QuantizedNetwork::forward_prologue(const Tensor& input) {
  QNN_CHECK_MSG(calibrated_, "QuantizedNetwork::forward before calibrate()");
  if (!frozen_) {
    restore_masters();
    save_masters();
    quantize_params();
  }

  Tensor x = input;
  {
    QNN_SPAN_N("quantize", "quant", 0);
    quantize_guarded(*data_quantizers_[0], x, site_guards_[0]);
  }
  if (hooks_.on_quantized_site) hooks_.on_quantized_site(0, x);
  return x;
}

void QuantizedNetwork::rescrub_layer_params(std::size_t layer_index) {
  QNN_CHECK_MSG(masters_saved_,
                "rescrub_layer_params outside a forward");
  const auto [begin, end] = layer_param_spans_.at(layer_index);
  for (std::size_t i = begin; i < end; ++i) {
    params_[i]->value = masters_[i];
    weight_quantizers_[i]->apply(params_[i]->value);
    if (hooks_.on_quantized_param)
      hooks_.on_quantized_param(i, params_[i]->value);
  }
}

Tensor QuantizedNetwork::forward_step(std::size_t i, Tensor x) {
  QNN_CHECK_MSG(masters_saved_,
                "forward_step without a preceding forward_prologue");
  // A frozen network's backward throws, so it records nothing.
  Tensor y = frozen_ ? net_.layer(i).forward(x)
                     : net_.forward_layer(i, std::move(x));
  if (hooks_.on_accumulator) hooks_.on_accumulator(i + 1, y);
  {
    QNN_SPAN_N("quantize", "quant", static_cast<std::int64_t>(i) + 1);
    quantize_guarded(*data_quantizers_[i + 1], y, site_guards_[i + 1]);
  }
  if (hooks_.on_quantized_site) hooks_.on_quantized_site(i + 1, y);
  return y;
}

void QuantizedNetwork::backward(const Tensor& grad_output) {
  QNN_CHECK_MSG(!frozen_,
                "backward on an inference-frozen network; thaw_inference() "
                "first");
  QNN_CHECK_MSG(masters_saved_, "backward without a preceding forward");
  // Straight-through estimator: activation and weight quantizers are
  // treated as identity for gradients, so the plain layer backward pass
  // (which ran its forward on quantized values) is exactly STE.
  net_.backward(grad_output);
  restore_masters();

  // Optional fixed-point training (Gupta et al.): constrain the
  // accumulated parameter gradients to a per-tensor fixed-point grid
  // before the optimizer sees them.
  if (config_.gradient_bits > 0) {
    for (nn::Param* p : params_) {
      const double max_abs = p->grad.max_abs();
      if (max_abs == 0.0) continue;
      const FixedPointFormat f = FixedPointFormat::for_range(
          config_.gradient_bits, max_abs, config_.rounding);
      quantize_fixed(f, p->grad.values(), nullptr, active_simd_level());
    }
  }
}

std::vector<nn::Param*> QuantizedNetwork::trainable_params() {
  return params_;
}

QuantizedNetwork QuantizedNetwork::clone_onto(nn::Network& target) const {
  QNN_CHECK_MSG(!masters_saved_,
                "clone_onto while quantized weights are live; call "
                "restore_masters() first");
  QuantizedNetwork copy(target, config_);
  QNN_CHECK_MSG(copy.params_.size() == params_.size() &&
                    copy.data_quantizers_.size() == data_quantizers_.size(),
                "clone_onto target does not match the wrapped network");
  for (std::size_t i = 0; i < params_.size(); ++i)
    copy.weight_quantizers_[i] = weight_quantizers_[i]->clone();
  for (std::size_t s = 0; s < data_quantizers_.size(); ++s)
    copy.data_quantizers_[s] = data_quantizers_[s]->clone();
  copy.clip_limits_ = clip_limits_;
  copy.calibrated_ = calibrated_;
  return copy;
}

void QuantizedNetwork::merge_guards_from(const QuantizedNetwork& other) {
  QNN_CHECK(other.site_guards_.size() == site_guards_.size() &&
            other.param_guards_.size() == param_guards_.size());
  for (std::size_t s = 0; s < site_guards_.size(); ++s)
    site_guards_[s] += other.site_guards_[s];
  for (std::size_t i = 0; i < param_guards_.size(); ++i)
    param_guards_[i] += other.param_guards_[i];
}

std::string QuantizedNetwork::name() const {
  return net_.name() + "[" + config_.id() + "]";
}

void QuantizedNetwork::clip_masters() {
  QNN_CHECK_MSG(!masters_saved_,
                "clip_masters while quantized weights are live");
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const double limit = clip_limits_[i];
    if (limit <= 0.0) continue;
    const float lo = static_cast<float>(-limit);
    const float hi = static_cast<float>(limit);
    float* d = params_[i]->value.data();
    for (std::int64_t j = 0; j < params_[i]->count(); ++j)
      d[j] = std::clamp(d[j], lo, hi);
  }
}

}  // namespace qnn::quant
