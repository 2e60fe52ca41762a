// QuantizedNetwork: fake-quantized inference and quantization-aware
// training around an existing float network — the paper's methodology
// (§IV-A "Training Time Techniques"):
//
//  * initialize from independently trained full-precision weights;
//  * keep TWO sets of weights: full-precision masters that the optimizer
//    updates, and their quantized image used in the forward pass
//    (Courbariaux's dual-weight scheme);
//  * gradients pass through the quantizer unchanged (straight-through
//    estimator), so small updates accumulate in the masters and
//    eventually flip quantized values.
//
// Data (input + every feature map) is quantized at each layer boundary
// with the data-side format; weights/biases with the parameter-side
// format. Radix points are chosen by range analysis under the
// configured RadixPolicy (kGlobal reproduces the paper; kPerLayer is the
// paper's future-work extension, ablated in bench/ablate_radix).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "nn/network.h"
#include "quant/guards.h"
#include "quant/qconfig.h"
#include "quant/quantizer.h"
#include "quant/range_analysis.h"

namespace qnn::quant {

class IntInferenceEngine;

// Mutation points the fault-injection layer (src/faults) hooks into.
// Each callback may be empty; non-empty callbacks run on every forward
// and may mutate the tensor in place. Sites are numbered as in
// forward_observed (site 0 = quantized input, site i+1 = layer i output).
struct ForwardHooks {
  // After parameter `param_index` is quantized for this forward —
  // models upsets in the SB weight buffer.
  std::function<void(std::size_t param_index, Tensor& values)>
      on_quantized_param;
  // After layer i-1 produces site i's raw output, before its data
  // quantizer runs — models upsets in the adder-tree accumulators.
  std::function<void(std::size_t site, Tensor& values)> on_accumulator;
  // After site i's data quantizer runs — models upsets in the Bin/Bout
  // feature-map buffers.
  std::function<void(std::size_t site, Tensor& values)> on_quantized_site;
};

class QuantizedNetwork final : public nn::Model {
 public:
  // Wraps `net` (not owned; must outlive this object).
  QuantizedNetwork(nn::Network& net, const PrecisionConfig& config);

  // Mixed-precision variant (fixed-point only): `weight_bits_per_layer`
  // assigns an individual width to each WEIGHT tensor (order of the
  // network's "w" parameters); biases and data follow `config`. Used by
  // the per-layer precision search (quant/mixed_precision).
  QuantizedNetwork(nn::Network& net, const PrecisionConfig& config,
                   const std::vector<int>& weight_bits_per_layer);

  // Out-of-line because int_engine_ holds an incomplete type here; the
  // move operations keep clone_onto's return-by-value working.
  ~QuantizedNetwork() override;
  QuantizedNetwork(QuantizedNetwork&&) noexcept;

  // Chooses all radix points from a float-precision forward over
  // `calibration_batch`. Must run before forward() for non-float
  // configs. Masters must hold the full-precision weights.
  void calibrate(const Tensor& calibration_batch);

  // Model interface. forward() quantizes parameters in place (masters
  // are saved first) and quantizes every activation site; backward()
  // applies the straight-through estimator and restores masters so the
  // optimizer updates full-precision values.
  void set_training_mode(bool training) override {
    net_.set_training_mode(training);
  }

  Tensor forward(const Tensor& input) override;

  // Forward pass invoking `observer(site, activations)` after each
  // site's quantization (site 0 = quantized input). Used by the noise-
  // analysis tooling; identical numerics to forward().
  using SiteObserver =
      std::function<void(std::size_t site, const Tensor& activations)>;
  Tensor forward_observed(const Tensor& input,
                          const SiteObserver& observer);

  // Step-wise forward, used by protect::ProtectedNetwork to bound
  // re-execution to a single layer: forward(input) is exactly
  // forward_prologue(input) followed by forward_step(0..L-1). The
  // prologue quantizes parameters (masters saved first) and the input
  // site; each step runs layer i and quantizes site i+1, firing the
  // same hooks/guard scans as forward(). Steps must run between a
  // prologue and the next restore_masters(); re-running a step re-fires
  // its injection hooks (a fresh transient-fault draw), while parameter
  // faults persist until the next prologue — matching the hardware
  // model where SB weight corruption survives a layer re-execution
  // unless the retry path explicitly scrubs the weights first (see
  // rescrub_layer_params).
  Tensor forward_prologue(const Tensor& input);
  Tensor forward_step(std::size_t layer_index, const Tensor& x);

  // Re-reads layer `layer_index`'s parameters from the saved masters:
  // restores their full-precision values, re-quantizes them, and fires
  // on_quantized_param again — a fresh weight-memory read. This is the
  // scrub half of protect::ProtectedNetwork's retry path: re-executing
  // a layer re-fetches its weights from (ECC-protected) master storage
  // instead of reusing a possibly corrupted SB image, so weight upsets
  // are survivable rather than fatal to every retry. Only valid between
  // forward_prologue and the next restore_masters(). Does not rescan
  // guard counters — the prologue already scanned these masters, and
  // clip statistics must not depend on how often a layer was retried.
  void rescrub_layer_params(std::size_t layer_index);
  void backward(const Tensor& grad_output) override;
  std::vector<nn::Param*> trainable_params() override;
  std::string name() const override;

  // Restores master weights if a forward left quantized values in the
  // network (e.g. after evaluation). Idempotent. Also leaves inference
  // freeze mode (see freeze_inference).
  void restore_masters();

  // Inference-serving mode: quantizes the parameters ONCE (masters
  // saved first, guard counters scanned once) so subsequent forwards
  // reuse the live quantized image instead of re-running the per-call
  // master save + parameter re-quantization — the dominant fixed cost
  // when one replica serves many requests and the weights never change
  // (src/serve's replica pool freezes every tier at build time).
  // While frozen, backward() is disallowed; thaw_inference() (or
  // restore_masters()) returns to the default train/eval behavior.
  void freeze_inference();
  void thaw_inference() { restore_masters(); }
  bool inference_frozen() const { return frozen_; }

  // True when freeze_inference() installed the native integer engine
  // (quant/int_inference): frozen hook-free forwards then execute
  // conv/inner_product through the int8/int16 GEMM kernels instead of
  // the fake-quantized float path. Built whenever the config is eligible.
  bool native_int_active() const { return int_engine_ != nullptr; }
  const IntInferenceEngine* int_engine() const { return int_engine_.get(); }

  // Clamps master weights into the representable range of the weight
  // format (BinaryConnect-style clipping; keeps masters from drifting
  // arbitrarily far from the grid). Intended as the trainer's
  // after_step hook.
  void clip_masters();

  const PrecisionConfig& config() const { return config_; }
  bool calibrated() const { return calibrated_; }
  nn::Network& network() const { return net_; }

  // Builds a replica of this quantized network around `target`, which
  // must be a clone of the wrapped network (same structure and
  // parameter values). Quantizers, clip limits, and calibration state
  // are deep-copied; hooks and guard counters start empty. Masters must
  // be restored first (call restore_masters()) so the replica's
  // parameters hold full-precision values. Used for parallel fault
  // trials, one replica per worker.
  QuantizedNetwork clone_onto(nn::Network& target) const;

  // Adds a replica's guard counters into this network's, so counters
  // accumulated by per-thread replicas fold back into the original and
  // the totals stay independent of the replica count (integer sums).
  void merge_guards_from(const QuantizedNetwork& other);

  // Fault-injection hooks (see ForwardHooks). Passing {} clears them.
  void set_forward_hooks(ForwardHooks hooks) { hooks_ = std::move(hooks); }
  void clear_forward_hooks() { hooks_ = ForwardHooks{}; }

  // Guard-rail counters, accumulated across every forward since the last
  // reset_guards(), per activation site and per parameter tensor;
  // total_guards() is their sum. Saturation is counted against each
  // quantizer's clip limit on the value *before* it is clipped to the
  // grid.
  void reset_guards();
  GuardCounters total_guards() const;

  // Introspection for tests/reports.
  const ValueQuantizer& weight_quantizer(std::size_t param_index) const {
    return *weight_quantizers_.at(param_index);
  }
  const ValueQuantizer& data_quantizer(std::size_t site) const {
    return *data_quantizers_.at(site);
  }
  std::size_t num_sites() const { return data_quantizers_.size(); }

 private:
  void save_masters();
  void quantize_params();
  void build_param_spans();

  nn::Network& net_;
  PrecisionConfig config_;
  std::vector<nn::Param*> params_;

  // Half-open [begin, end) range into params_ owned by each layer, in
  // layer order — trainable_params() is the per-layer concatenation.
  std::vector<std::pair<std::size_t, std::size_t>> layer_param_spans_;

  // One quantizer per parameter tensor and one per activation site
  // (site 0 = input). Under kGlobal they share calibration statistics
  // but remain distinct objects so kPerLayer needs no special casing.
  std::vector<std::unique_ptr<ValueQuantizer>> weight_quantizers_;
  std::vector<std::unique_ptr<ValueQuantizer>> data_quantizers_;

  std::vector<Tensor> masters_;
  bool masters_saved_ = false;
  bool calibrated_ = false;
  bool frozen_ = false;  // inference freeze; see freeze_inference()
  std::vector<double> clip_limits_;  // per param; 0 disables

  ForwardHooks hooks_;
  std::vector<GuardCounters> site_guards_;   // one per activation site
  std::vector<GuardCounters> param_guards_;  // one per parameter tensor

  // Native integer inference engine; non-null only while frozen with an
  // eligible config (see freeze_inference / native_int_active).
  std::unique_ptr<IntInferenceEngine> int_engine_;
};

}  // namespace qnn::quant
