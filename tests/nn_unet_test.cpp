// U-Net model tests: geometry (paper's 28-conv-layer count), shapes, full
// gradient check through the network, overfitting sanity, serialization,
// data loader behaviour, trainer guards.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "nn/data.h"
#include "nn/trainer.h"
#include "nn/unet.h"
#include "tensor/conv.h"
#include "util/hash.h"
#include "util/rng.h"

namespace pn = polarice::nn;
namespace pt = polarice::tensor;
namespace fs = std::filesystem;

namespace {
pt::Tensor random_tensor(std::vector<int> shape, std::uint64_t seed) {
  polarice::util::Rng rng(seed);
  pt::Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  }
  return t;
}

pn::UNetConfig tiny_config() {
  pn::UNetConfig cfg;
  cfg.in_channels = 3;
  cfg.num_classes = 3;
  cfg.depth = 2;
  cfg.base_channels = 4;
  cfg.use_dropout = false;
  cfg.seed = 7;
  return cfg;
}

// A trivially learnable dataset: class = which third of the x-axis the
// pixel is in, and the image encodes the class directly in its channels.
pn::SegDataset striped_dataset(int n_samples, int size, std::uint64_t seed) {
  polarice::util::Rng rng(seed);
  pn::SegDataset data;
  for (int s = 0; s < n_samples; ++s) {
    pn::SegSample sample;
    sample.image = pt::Tensor({3, size, size});
    sample.labels.resize(static_cast<std::size_t>(size) * size);
    for (int y = 0; y < size; ++y) {
      for (int x = 0; x < size; ++x) {
        const int cls = x * 3 / size;
        sample.labels[y * size + x] = cls;
        for (int c = 0; c < 3; ++c) {
          const float base = c == cls ? 0.8f : 0.1f;
          sample.image[(c * size + y) * size + x] =
              base + static_cast<float>(rng.uniform(-0.05, 0.05));
        }
      }
    }
    data.add(std::move(sample));
  }
  return data;
}
}  // namespace

TEST(UNetConfig, PaperGeometryHas28ConvLayers) {
  pn::UNetConfig cfg;
  cfg.depth = 5;
  EXPECT_EQ(cfg.conv_layer_count(), 28);  // paper §III.C.1
  EXPECT_EQ(cfg.spatial_divisor(), 32);   // 256x256 inputs divide evenly
  EXPECT_EQ(256 % cfg.spatial_divisor(), 0);
}

TEST(UNetConfig, ValidationRejectsNonsense) {
  auto bad = tiny_config();
  bad.depth = 0;
  EXPECT_THROW(pn::UNet{bad}, std::invalid_argument);
  bad = tiny_config();
  bad.num_classes = 1;
  EXPECT_THROW(pn::UNet{bad}, std::invalid_argument);
  bad = tiny_config();
  bad.use_dropout = true;
  bad.dropout_rate = 1.5f;
  EXPECT_THROW(pn::UNet{bad}, std::invalid_argument);
}

TEST(UNet, ForwardProducesClassLogitsAtInputResolution) {
  pn::UNet model(tiny_config());
  const auto x = random_tensor({2, 3, 16, 16}, 1);
  pt::Tensor logits;
  model.forward(x, logits, /*training=*/false);
  EXPECT_EQ(logits.dim(0), 2);
  EXPECT_EQ(logits.dim(1), 3);
  EXPECT_EQ(logits.dim(2), 16);
  EXPECT_EQ(logits.dim(3), 16);
  EXPECT_FALSE(logits.has_non_finite());
}

TEST(UNet, ForwardRejectsIndivisibleSpatialSize) {
  pn::UNet model(tiny_config());  // depth 2 -> divisor 4
  const auto x = random_tensor({1, 3, 10, 12}, 2);
  pt::Tensor logits;
  EXPECT_THROW(model.forward(x, logits, false), std::invalid_argument);
}

TEST(UNet, ForwardRejectsWrongChannelCount) {
  pn::UNet model(tiny_config());
  const auto x = random_tensor({1, 4, 16, 16}, 3);
  pt::Tensor logits;
  EXPECT_THROW(model.forward(x, logits, false), std::invalid_argument);
}

TEST(UNet, ParameterCountMatchesArchitectureFormula) {
  auto cfg = tiny_config();  // depth 2, base 4, in 3, classes 3
  pn::UNet model(cfg);
  // enc0: conv(3->4): 3*4*9+4 = 112 ; conv(4->4): 4*4*9+4 = 148
  // enc1: conv(4->8): 4*8*9+8 = 296 ; conv(8->8): 8*8*9+8 = 584
  // bottleneck: conv(8->16): 8*16*9+16 = 1168 ; conv(16->16): 16*16*9+16=2320
  // up(level1): upconv 16->8 (2x2): 16*8*4+8 = 520
  //   dec1: conv(16->8): 16*8*9+8 = 1160 ; conv(8->8): 584
  // up(level0): upconv 8->4 (2x2): 8*4*4+4 = 132
  //   dec0: conv(8->4): 8*4*9+4 = 292 ; conv(4->4): 148
  // head: conv 1x1 (4->3): 4*3+3 = 15
  const std::int64_t expected = 112 + 148 + 296 + 584 + 1168 + 2320 + 520 +
                                1160 + 584 + 132 + 292 + 148 + 15;
  EXPECT_EQ(model.parameter_count(), expected);
}

TEST(UNet, DeterministicGivenSeed) {
  pn::UNet a(tiny_config()), b(tiny_config());
  const auto x = random_tensor({1, 3, 8, 8}, 4);
  pt::Tensor la, lb;
  a.forward(x, la, false);
  b.forward(x, lb, false);
  for (std::int64_t i = 0; i < la.numel(); ++i) EXPECT_EQ(la[i], lb[i]);
}

TEST(UNet, FullNetworkGradientCheck) {
  // End-to-end finite-difference check on the cross-entropy loss wrt a few
  // weights scattered across the network.
  auto cfg = tiny_config();
  cfg.depth = 1;
  cfg.base_channels = 2;
  pn::UNet model(cfg);
  const auto x = random_tensor({1, 3, 4, 4}, 5);
  std::vector<int> targets(16);
  for (int i = 0; i < 16; ++i) targets[i] = i % 3;

  const auto loss_of = [&]() {
    pt::Tensor logits, probs, dlogits;
    model.forward(x, logits, /*training=*/true);
    return pt::softmax_cross_entropy(logits, targets, probs, dlogits);
  };

  // Analytic gradients.
  auto params = model.params();
  for (auto& p : params) p.grad->zero();
  pt::Tensor logits, probs, dlogits;
  model.forward(x, logits, true);
  pt::softmax_cross_entropy(logits, targets, probs, dlogits);
  model.backward(dlogits);

  const float eps = 1e-2f;
  for (const std::size_t pidx : {std::size_t{0}, params.size() / 2,
                                 params.size() - 1}) {
    auto& p = params[pidx];
    const std::int64_t widx = p.value->numel() / 2;
    const float saved = (*p.value)[widx];
    (*p.value)[widx] = saved + eps;
    const float up = loss_of();
    (*p.value)[widx] = saved - eps;
    const float dn = loss_of();
    (*p.value)[widx] = saved;
    const float numeric = (up - dn) / (2 * eps);
    EXPECT_NEAR((*p.grad)[widx], numeric, 2e-2f)
        << "param " << p.name << " index " << widx;
  }
}

TEST(UNet, OverfitsTinyDataset) {
  auto cfg = tiny_config();
  pn::UNet model(cfg);
  const auto data = striped_dataset(4, 16, 10);
  pn::TrainConfig tc;
  tc.epochs = 30;
  tc.batch_size = 4;
  tc.learning_rate = 5e-3f;
  pn::Trainer trainer(model, tc);
  const auto history = trainer.fit(data);
  // Loss must drop dramatically and accuracy approach 1.
  EXPECT_LT(history.back().mean_loss, history.front().mean_loss * 0.3f);
  EXPECT_GT(history.back().pixel_accuracy, 0.95);
  EXPECT_GT(pn::Trainer::evaluate_accuracy(model, data), 0.95);
}

TEST(UNet, SaveLoadRoundTrip) {
  pn::UNet a(tiny_config());
  const auto path =
      (fs::temp_directory_path() / "polarice_unet_weights.bin").string();
  a.save(path);

  auto cfg_b = tiny_config();
  cfg_b.seed = 9999;  // different init
  pn::UNet b(cfg_b);
  const auto x = random_tensor({1, 3, 8, 8}, 20);
  pt::Tensor la, lb;
  a.forward(x, la, false);
  b.forward(x, lb, false);
  bool differs = false;
  for (std::int64_t i = 0; i < la.numel(); ++i) differs |= la[i] != lb[i];
  EXPECT_TRUE(differs);

  b.load(path);
  b.forward(x, lb, false);
  for (std::int64_t i = 0; i < la.numel(); ++i) EXPECT_EQ(la[i], lb[i]);
  fs::remove(path);
}

// Pins the PLRICEW1 weights format: the digest was taken before save()
// moved onto util/durable_file, and any byte the writer changes moves it.
TEST(UNet, SaveMatchesGoldenDigest) {
  pn::UNet model(tiny_config());
  const auto path =
      (fs::temp_directory_path() / "polarice_unet_golden.bin").string();
  model.save(path);
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  fs::remove(path);
  const auto digest = polarice::util::fnv128(bytes.data(), bytes.size());
  EXPECT_EQ(digest.lo, 0x9304f03d404734f7ULL)
      << std::hex << "lo 0x" << digest.lo;
  EXPECT_EQ(digest.hi, 0x4362628e07388cf2ULL)
      << std::hex << "hi 0x" << digest.hi;
}

TEST(UNet, LoadRejectsStructureMismatch) {
  pn::UNet a(tiny_config());
  const auto path =
      (fs::temp_directory_path() / "polarice_unet_weights2.bin").string();
  a.save(path);
  auto cfg = tiny_config();
  cfg.base_channels = 8;  // different widths
  pn::UNet b(cfg);
  EXPECT_THROW(b.load(path), std::runtime_error);
  fs::remove(path);
}

// Every truncation of a weights file must be refused without changing a
// single weight of the model it was loaded into.
TEST(UNet, LoadOfEveryTruncationThrowsAndLeavesModelUntouched) {
  auto cfg = tiny_config();
  cfg.depth = 1;  // a ~2.5 KB file keeps the sweep short
  cfg.base_channels = 2;
  pn::UNet source(cfg);
  const auto path =
      (fs::temp_directory_path() / "polarice_unet_truncated.bin").string();
  source.save(path);
  const auto size = fs::file_size(path);

  cfg.seed = 31337;
  pn::UNet target(cfg);
  const auto x = random_tensor({1, 3, 8, 8}, 22);
  pt::Tensor before, after;
  target.forward(x, before, false);
  for (auto len = size; len-- > 0;) {
    fs::resize_file(path, len);
    EXPECT_THROW(target.load(path), std::runtime_error) << "length " << len;
    target.forward(x, after, false);
    ASSERT_EQ(std::memcmp(before.data(), after.data(),
                          sizeof(float) * static_cast<std::size_t>(
                                              before.numel())),
              0)
        << "weights changed by a load of length " << len;
  }
  fs::remove(path);
}

TEST(UNet, CopyParametersMakesModelsIdentical) {
  pn::UNet a(tiny_config());
  auto cfg = tiny_config();
  cfg.seed = 4242;
  pn::UNet b(cfg);
  b.copy_parameters_from(a);
  const auto x = random_tensor({1, 3, 8, 8}, 21);
  pt::Tensor la, lb;
  a.forward(x, la, false);
  b.forward(x, lb, false);
  for (std::int64_t i = 0; i < la.numel(); ++i) EXPECT_EQ(la[i], lb[i]);
}

TEST(SegDataset, EnforcesUniformGeometry) {
  pn::SegDataset data;
  pn::SegSample s1{pt::Tensor({3, 8, 8}), std::vector<int>(64, 0)};
  data.add(std::move(s1));
  pn::SegSample s2{pt::Tensor({3, 4, 4}), std::vector<int>(16, 0)};
  EXPECT_THROW(data.add(std::move(s2)), std::invalid_argument);
  pn::SegSample s3{pt::Tensor({3, 8, 8}), std::vector<int>(10, 0)};
  EXPECT_THROW(data.add(std::move(s3)), std::invalid_argument);
}

TEST(SegDataset, SplitPartitionsAllSamples) {
  const auto data = striped_dataset(10, 8, 30);
  const auto [train, test] = data.split(0.8);
  EXPECT_EQ(train.size(), 8u);
  EXPECT_EQ(test.size(), 2u);
  EXPECT_THROW(data.split(0.0), std::invalid_argument);
  EXPECT_THROW(data.split(1.0), std::invalid_argument);
}

TEST(DataLoader, VisitsEverySampleOncePerEpoch) {
  const auto data = striped_dataset(10, 8, 31);
  pn::DataLoader loader(data, 3, /*seed=*/1);
  loader.start_epoch();
  pn::Batch batch;
  std::vector<int> visits(10, 0);
  std::size_t batches = 0;
  while (loader.next(batch)) {
    ++batches;
    for (const auto idx : batch.indices) ++visits[idx];
  }
  EXPECT_EQ(batches, 4u);  // 3+3+3+1
  for (const int v : visits) EXPECT_EQ(v, 1);
}

TEST(DataLoader, DropLastSkipsPartialBatch) {
  const auto data = striped_dataset(10, 8, 32);
  pn::DataLoader loader(data, 3, 1, true, /*drop_last=*/true);
  EXPECT_EQ(loader.batches_per_epoch(), 3u);
  loader.start_epoch();
  pn::Batch batch;
  std::size_t batches = 0, samples = 0;
  while (loader.next(batch)) {
    ++batches;
    samples += batch.indices.size();
    EXPECT_EQ(batch.x.dim(0), 3);
  }
  EXPECT_EQ(batches, 3u);
  EXPECT_EQ(samples, 9u);
}

TEST(DataLoader, ShuffleChangesOrderDeterministically) {
  const auto data = striped_dataset(16, 8, 33);
  pn::DataLoader a(data, 16, 5), b(data, 16, 5), c(data, 16, 6);
  pn::Batch ba, bb, bc;
  a.start_epoch();
  b.start_epoch();
  c.start_epoch();
  a.next(ba);
  b.next(bb);
  c.next(bc);
  EXPECT_EQ(ba.indices, bb.indices);  // same seed, same order
  EXPECT_NE(ba.indices, bc.indices);  // different seed differs
}

TEST(DataLoader, RejectsBadConstruction) {
  const auto data = striped_dataset(4, 8, 34);
  EXPECT_THROW(pn::DataLoader(data, 0, 1), std::invalid_argument);
  pn::SegDataset empty;
  EXPECT_THROW(pn::DataLoader(empty, 4, 1), std::invalid_argument);
}

TEST(Trainer, RejectsBadConfig) {
  pn::UNet model(tiny_config());
  pn::TrainConfig tc;
  tc.epochs = 0;
  EXPECT_THROW(pn::Trainer(model, tc), std::invalid_argument);
  tc = pn::TrainConfig{};
  tc.batch_size = -1;
  EXPECT_THROW(pn::Trainer(model, tc), std::invalid_argument);
  tc = pn::TrainConfig{};
  tc.learning_rate = 0.0f;
  EXPECT_THROW(pn::Trainer(model, tc), std::invalid_argument);
}

TEST(Trainer, OnBatchHookObservesEverySteps) {
  pn::UNet model(tiny_config());
  const auto data = striped_dataset(6, 8, 35);
  pn::TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 3;
  pn::Trainer trainer(model, tc);
  int calls = 0;
  trainer.on_batch = [&](int, std::size_t, float loss) {
    ++calls;
    EXPECT_TRUE(std::isfinite(loss));
  };
  trainer.fit(data);
  EXPECT_EQ(calls, 4);  // 2 epochs x 2 batches
}

TEST(Trainer, PredictReturnsPerPixelClasses) {
  pn::UNet model(tiny_config());
  const auto data = striped_dataset(1, 16, 36);
  const auto pred = pn::Trainer::predict(model, data[0]);
  EXPECT_EQ(pred.size(), 256u);
  for (const int p : pred) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 3);
  }
}
