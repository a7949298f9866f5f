#include "nn/unet.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "net/wire.h"
#include "util/durable_file.h"

namespace polarice::nn {

using tensor::Conv2dSpec;
using tensor::Tensor;

void UNetConfig::validate() const {
  if (in_channels <= 0) throw std::invalid_argument("UNet: in_channels <= 0");
  if (num_classes < 2) throw std::invalid_argument("UNet: num_classes < 2");
  if (depth < 1 || depth > 8) {
    throw std::invalid_argument("UNet: depth must be in [1, 8]");
  }
  if (base_channels < 1) throw std::invalid_argument("UNet: base_channels < 1");
  if (use_dropout && (dropout_rate < 0.0f || dropout_rate >= 1.0f)) {
    throw std::invalid_argument("UNet: dropout_rate must be in [0, 1)");
  }
}

ConvBlock::ConvBlock(int in_ch, int out_ch, std::optional<float> dropout_rate,
                     util::Rng& rng, const std::string& name)
    : conv1_(Conv2dSpec::same(in_ch, out_ch, 3), rng, name + ".conv1"),
      conv2_(Conv2dSpec::same(out_ch, out_ch, 3), rng, name + ".conv2") {
  if (dropout_rate.has_value()) {
    dropout_ = std::make_unique<Dropout>(*dropout_rate, rng, name + ".drop");
  }
}

void ConvBlock::forward(const Tensor& x, Tensor& y, bool training) {
  conv1_.forward_relu(x, a2_, training, mask1_);
  if (dropout_) {
    dropout_->forward(a2_, a3_, training);
    conv2_.forward_relu(a3_, y, training, mask2_);
  } else {
    conv2_.forward_relu(a2_, y, training, mask2_);
  }
}

void ConvBlock::backward(const Tensor& dy, Tensor& dx) {
  // conv2's own ReLU mask rides in its dY packing; conv1's rides in the
  // gradient that reaches it (after dropout, whose mask is multiplicative
  // and commutes exactly with the 0/1 ReLU mask).
  conv2_.backward_masked(dy, mask2_, g3_);
  if (dropout_) {
    dropout_->backward(g3_, g2_);
    conv1_.backward_masked(g2_, mask1_, dx);
  } else {
    conv1_.backward_masked(g3_, mask1_, dx);
  }
}

void ConvBlock::collect_params(std::vector<Param>& out) {
  conv1_.collect_params(out);
  conv2_.collect_params(out);
}

void ConvBlock::set_pool(par::ThreadPool* pool) {
  conv1_.set_pool(pool);
  if (dropout_) dropout_->set_pool(pool);
  conv2_.set_pool(pool);
}

void ConvBlock::set_scratch(tensor::ConvScratch* scratch) {
  conv1_.set_scratch(scratch);
  conv2_.set_scratch(scratch);
}

UNet::UNet(UNetConfig config) : config_(config) {
  config_.validate();
  util::Rng rng(config_.seed);
  const std::optional<float> drop =
      config_.use_dropout ? std::optional<float>(config_.dropout_rate)
                          : std::nullopt;

  int ch = config_.base_channels;
  int in_ch = config_.in_channels;
  for (int level = 0; level < config_.depth; ++level) {
    enc_blocks_.emplace_back(in_ch, ch, drop, rng,
                             "enc" + std::to_string(level));
    pools_.emplace_back("pool" + std::to_string(level));
    in_ch = ch;
    ch *= 2;
  }
  // Bottleneck doubles once more: in_ch = base * 2^(depth-1), out = 2x that.
  bottleneck_ = std::make_unique<ConvBlock>(in_ch, ch, drop, rng, "bottleneck");

  for (int level = config_.depth - 1; level >= 0; --level) {
    const int skip_ch = config_.base_channels << level;  // encoder output
    const int deep_ch = skip_ch * 2;                     // layer below
    upconvs_.emplace_back(deep_ch, skip_ch, rng,
                          "up" + std::to_string(level));
    dec_blocks_.emplace_back(skip_ch * 2, skip_ch, drop, rng,
                             "dec" + std::to_string(level));
  }
  final_conv_ = std::make_unique<Conv2d>(
      Conv2dSpec::same(config_.base_channels, config_.num_classes, 1), rng,
      "head");

  enc_out_.resize(config_.depth);
  pooled_.resize(config_.depth);
  up_out_.resize(config_.depth);
  cat_.resize(config_.depth);
  dec_out_.resize(config_.depth);
  scratch_.resize(config_.depth * 4 + 8);
}

void UNet::wire_scratch() {
  for (auto& block : enc_blocks_) block.set_scratch(&conv_scratch_);
  bottleneck_->set_scratch(&conv_scratch_);
  for (auto& up : upconvs_) up.set_scratch(&conv_scratch_);
  for (auto& block : dec_blocks_) block.set_scratch(&conv_scratch_);
  final_conv_->set_scratch(&conv_scratch_);
}

void UNet::forward(const Tensor& x, Tensor& logits, bool training) {
  wire_scratch();
  if (x.ndim() != 4 || x.dim(1) != config_.in_channels) {
    throw std::invalid_argument("UNet::forward: expected [N," +
                                std::to_string(config_.in_channels) +
                                ",H,W], got " + x.shape_str());
  }
  const int div = config_.spatial_divisor();
  if (x.dim(2) % div != 0 || x.dim(3) % div != 0) {
    throw std::invalid_argument(
        "UNet::forward: H and W must be divisible by 2^depth = " +
        std::to_string(div));
  }

  const Tensor* cur = &x;
  for (int level = 0; level < config_.depth; ++level) {
    enc_blocks_[level].forward(*cur, enc_out_[level], training);
    pools_[level].forward(enc_out_[level], pooled_[level], training);
    cur = &pooled_[level];
  }
  bottleneck_->forward(*cur, bottleneck_out_, training);
  cur = &bottleneck_out_;
  for (int i = 0; i < config_.depth; ++i) {
    const int level = config_.depth - 1 - i;  // upconvs_[i] serves `level`
    upconvs_[i].forward(*cur, up_out_[i], training);
    tensor::concat_channels(up_out_[i], enc_out_[level], cat_[i]);
    dec_blocks_[i].forward(cat_[i], dec_out_[i], training);
    cur = &dec_out_[i];
  }
  final_conv_->forward(*cur, logits, training);
}

void UNet::backward(const Tensor& dlogits) {
  wire_scratch();
  Tensor& d_dec = scratch_[0];
  final_conv_->backward(dlogits, d_dec);

  Tensor* cur = &d_dec;
  // Decoder in reverse.
  for (int i = config_.depth - 1; i >= 0; --i) {
    const int level = config_.depth - 1 - i;
    Tensor& d_cat = scratch_[1];
    dec_blocks_[i].backward(*cur, d_cat);
    Tensor& d_up = scratch_[2];
    Tensor& d_skip = scratch_[3 + i];  // kept until the encoder pass
    tensor::split_channels(d_cat, up_out_[i].dim(1), d_up, d_skip);
    Tensor& d_below = scratch_[3 + config_.depth + i];
    upconvs_[i].backward(d_up, d_below);
    cur = &d_below;
    (void)level;
  }
  // Bottleneck.
  Tensor& d_pooled = scratch_[1];
  bottleneck_->backward(*cur, d_pooled);
  cur = &d_pooled;
  // Encoder in reverse; add the skip gradients saved by the decoder.
  for (int level = config_.depth - 1; level >= 0; --level) {
    const int i = config_.depth - 1 - level;  // index used by the decoder
    Tensor& d_enc = scratch_[2];
    pools_[level].backward(*cur, d_enc);
    d_enc.add_(scratch_[3 + i]);  // skip-connection gradient
    if (level == 0) {
      // First encoder block: no input gradient needed.
      Tensor unused;
      enc_blocks_[level].backward(d_enc, unused);
      return;
    }
    Tensor& d_prev = scratch_[3 + 2 * config_.depth + level];
    enc_blocks_[level].backward(d_enc, d_prev);
    cur = &d_prev;
  }
}

std::vector<Param> UNet::params() {
  std::vector<Param> out;
  for (auto& block : enc_blocks_) block.collect_params(out);
  bottleneck_->collect_params(out);
  for (auto& up : upconvs_) up.collect_params(out);
  for (auto& block : dec_blocks_) block.collect_params(out);
  final_conv_->collect_params(out);
  return out;
}

std::int64_t UNet::parameter_count() {
  std::int64_t total = 0;
  for (const auto& p : params()) total += p.value->numel();
  return total;
}

void UNet::set_pool(par::ThreadPool* pool) {
  for (auto& block : enc_blocks_) block.set_pool(pool);
  for (auto& p : pools_) p.set_pool(pool);
  bottleneck_->set_pool(pool);
  for (auto& up : upconvs_) up.set_pool(pool);
  for (auto& block : dec_blocks_) block.set_pool(pool);
  final_conv_->set_pool(pool);
}

namespace {
// PLRICEW1 layout, little-endian: magic | u32 param count | per param:
// u32 name length, name bytes, u32 rank, i32 dims[rank], f32 values.
constexpr char kWeightsMagic[8] = {'P', 'L', 'R', 'I', 'C', 'E', 'W', '1'};
}  // namespace

void UNet::save(const std::string& path) {
  net::WireWriter out;
  out.put_bytes(kWeightsMagic, sizeof(kWeightsMagic));
  const auto ps = params();
  out.put_u32(static_cast<std::uint32_t>(ps.size()));
  for (const auto& p : ps) {
    out.put_string(p.name);
    out.put_u32(static_cast<std::uint32_t>(p.value->ndim()));
    for (const int d : p.value->shape()) out.put_i32(d);
    const float* values = p.value->data();
    for (std::int64_t i = 0; i < p.value->numel(); ++i) out.put_f32(values[i]);
  }
  util::publish_file(path, out.bytes());
}

void UNet::load(const std::string& path) {
  // Parse and validate the whole file before touching a weight, so a
  // truncated or mismatched file leaves the model exactly as it was.
  const util::MappedFile file(path);
  auto ps = params();
  std::vector<std::vector<float>> staged(ps.size());
  try {
    net::WireReader in(file.data(), file.size());
    char magic[sizeof(kWeightsMagic)];
    in.get_bytes(magic, sizeof(magic));
    if (std::memcmp(magic, kWeightsMagic, sizeof(magic)) != 0) {
      throw std::runtime_error("UNet::load: bad magic in " + path);
    }
    if (in.get_u32() != ps.size()) {
      throw std::runtime_error("UNet::load: parameter count mismatch in " +
                               path);
    }
    for (std::size_t i = 0; i < ps.size(); ++i) {
      const Param& p = ps[i];
      const std::string name = in.get_string();
      if (name != p.name) {
        throw std::runtime_error("UNet::load: parameter order mismatch: " +
                                 name + " vs " + p.name);
      }
      if (in.get_u32() != static_cast<std::uint32_t>(p.value->ndim())) {
        throw std::runtime_error("UNet::load: rank mismatch for " + name);
      }
      for (const int d : p.value->shape()) {
        if (in.get_i32() != d) {
          throw std::runtime_error("UNet::load: shape mismatch for " + name);
        }
      }
      staged[i].resize(static_cast<std::size_t>(p.value->numel()));
      for (float& v : staged[i]) v = in.get_f32();
    }
    in.expect_end();
  } catch (const net::WireError& e) {
    throw std::runtime_error("UNet::load: " + path + ": " + e.what());
  }
  for (std::size_t i = 0; i < ps.size(); ++i) {
    std::copy(staged[i].begin(), staged[i].end(), ps[i].value->data());
  }
}

void UNet::copy_parameters_from(UNet& other) {
  auto dst = params();
  auto src = other.params();
  if (dst.size() != src.size()) {
    throw std::invalid_argument("copy_parameters_from: structure mismatch");
  }
  for (std::size_t i = 0; i < dst.size(); ++i) {
    tensor::require_same_shape(*dst[i].value, *src[i].value,
                               "copy_parameters_from");
    *dst[i].value = *src[i].value;
  }
}

std::unique_ptr<UNet> UNet::clone() {
  auto copy = std::make_unique<UNet>(config_);
  copy->copy_parameters_from(*this);
  return copy;
}

}  // namespace polarice::nn
