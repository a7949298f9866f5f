#pragma once
// U-Net for multi-class semantic segmentation (paper §III.C, Fig 7).
//
// The architecture family is parameterized by depth (number of
// down-sampling steps) and base channel width. The paper's model is the
// depth-5 member with 28 convolutional layers:
//   2 convs x 5 encoder steps + 2 bottleneck convs
//   + (1 up-conv + 2 convs) x 5 decoder steps + 1 final 1x1 conv  = 28.
// Benches train a narrower member of the same family for CPU feasibility;
// the geometry formula is unit-tested against the paper's count.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "par/context.h"

namespace polarice::nn {

struct UNetConfig {
  int in_channels = 3;    // RGB tiles
  int num_classes = 3;    // thick ice / thin ice / open water
  int depth = 5;          // down-sampling steps (paper: 5)
  int base_channels = 16; // channels after the first encoder block
  bool use_dropout = true;
  float dropout_rate = 0.2f;  // paper sweeps {0.1, 0.2, 0.3}
  std::uint64_t seed = 1234;  // weight init + dropout masks

  /// Throws std::invalid_argument on nonsense values.
  void validate() const;

  /// Total convolutional layers (counting up-convs and the final 1x1),
  /// matching how the paper counts its "28 convolutional layers".
  [[nodiscard]] int conv_layer_count() const noexcept {
    return 5 * depth + 3;
  }

  /// Input H and W must be divisible by this.
  [[nodiscard]] int spatial_divisor() const noexcept { return 1 << depth; }
};

/// Two 3x3 same-padding convs with ReLUs and an optional dropout between
/// them — the repeating block of both the contracting and expansive paths.
/// Both activations are fused into their conv's GEMM epilogue
/// (Conv2d::forward_relu); the backward pass folds each ReLU's 0/1 mask
/// into the conv gradient packing (Conv2d::backward_masked), so neither the
/// pre-activation tensors nor the masked gradients are ever materialized.
/// Outputs are bit-identical to the unfused conv -> ReLU chain; gradients
/// match to reduction-order tolerance.
class ConvBlock {
 public:
  ConvBlock(int in_ch, int out_ch, std::optional<float> dropout_rate,
            util::Rng& rng, const std::string& name);

  void forward(const tensor::Tensor& x, tensor::Tensor& y, bool training);
  void backward(const tensor::Tensor& dy, tensor::Tensor& dx);
  void collect_params(std::vector<Param>& out);
  void set_pool(par::ThreadPool* pool);
  void set_scratch(tensor::ConvScratch* scratch);

 private:
  Conv2d conv1_;
  std::unique_ptr<Dropout> dropout_;
  Conv2d conv2_;
  // Fused-ReLU pre-activation masks (filled by training forwards).
  std::vector<std::uint8_t> mask1_, mask2_;
  // Cached intermediates (forward) and scratch (backward).
  tensor::Tensor a2_, a3_;
  tensor::Tensor g2_, g3_;
};

class UNet {
 public:
  explicit UNet(UNetConfig config);

  /// logits[N, num_classes, H, W] = f(x[N, in_channels, H, W]).
  /// H and W must be divisible by 2^depth.
  void forward(const tensor::Tensor& x, tensor::Tensor& logits, bool training);

  /// Backpropagates dL/dlogits, accumulating parameter gradients. Input
  /// gradients are not produced (images are not trainable).
  void backward(const tensor::Tensor& dlogits);

  /// Flat list of all trainable parameters (stable order).
  [[nodiscard]] std::vector<Param> params();

  /// Total scalar parameter count.
  [[nodiscard]] std::int64_t parameter_count();

  /// Sets the intra-op pool on every layer (nullptr = sequential).
  void set_pool(par::ThreadPool* pool);

  /// Binds the model to an execution context (today: adopts its pool).
  void bind(const par::ExecutionContext& ctx) { set_pool(ctx.pool()); }

  [[nodiscard]] const UNetConfig& config() const noexcept { return config_; }

  /// Binary weight serialization. save() publishes the file atomically
  /// (util::publish_file); load() validates names and shapes of the whole
  /// file before changing any weight, and throws std::runtime_error.
  void save(const std::string& path);
  void load(const std::string& path);

  /// Copies all parameter values from another structurally identical model.
  void copy_parameters_from(UNet& other);

  /// Fresh model with the same config and a copy of this model's weights —
  /// the replica-cloning hook behind serving-side replica pools. Forward
  /// caches and scratch are NOT copied, so cloning a model that another
  /// thread is running forward passes on is safe (parameters are never
  /// mutated by forward()).
  [[nodiscard]] std::unique_ptr<UNet> clone();

 private:
  UNetConfig config_;
  std::vector<ConvBlock> enc_blocks_;
  std::vector<MaxPool2x2> pools_;
  std::unique_ptr<ConvBlock> bottleneck_;
  std::vector<UpConv2x> upconvs_;
  std::vector<ConvBlock> dec_blocks_;
  std::unique_ptr<Conv2d> final_conv_;

  /// Points every conv layer at the shared im2col arena. Called before each
  /// forward/backward so the wiring survives moves of the UNet object.
  void wire_scratch();

  // Forward caches, one slot per level.
  std::vector<tensor::Tensor> enc_out_, pooled_, up_out_, cat_, dec_out_;
  tensor::Tensor bottleneck_out_;
  // Backward scratch.
  std::vector<tensor::Tensor> scratch_;
  // One im2col arena shared by all conv layers: sized once to the largest
  // layer's panel instead of once per layer (the seed's per-layer buffers
  // peaked at ~conv_layer_count x the largest panel across a train step).
  tensor::ConvScratch conv_scratch_;
};

}  // namespace polarice::nn
