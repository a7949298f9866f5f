// Fleet-trainer tests: the determinism and fault-tolerance properties the
// distributed training tier rests on.
//
//  * World-size invariance: the same seed produces BIT-identical rank-0
//    parameters at world sizes 1, 2, and 4 (per-sample gradients folded
//    along one canonical tree, regardless of how ranks partition a batch).
//  * Transport invariance: a socket fleet matches the in-process thread
//    reference bitwise.
//  * Kill-and-resume: a rank that dies mid-run and rejoins from the last
//    durable checkpoint converges to the bit-identical parameters of an
//    uninterrupted run.
//  * Typed failures: a fleet that cannot form times out with a
//    CollectiveError, never a hang.
//  * Training semantics: a fleet step equals a single-device Adam step over
//    the whole global batch, loss falls with epochs, and a dataset smaller
//    than one global batch is refused.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ddp/communicator.h"
#include "ddp/fleet_trainer.h"
#include "ddp/socket_communicator.h"
#include "nn/data.h"
#include "nn/optimizer.h"
#include "nn/unet.h"
#include "tensor/conv.h"
#include "util/rng.h"

namespace pd = polarice::ddp;
namespace pn = polarice::nn;
namespace pt = polarice::tensor;
namespace fs = std::filesystem;
using namespace std::chrono_literals;

namespace {

pn::UNetConfig tiny_model() {
  pn::UNetConfig cfg;
  cfg.in_channels = 3;
  cfg.num_classes = 2;
  cfg.depth = 1;
  cfg.base_channels = 4;
  cfg.use_dropout = false;
  cfg.seed = 5;
  return cfg;
}

pd::FleetTrainConfig tiny_fleet(int world_size, int batch_per_device) {
  pd::FleetTrainConfig cfg;
  cfg.model = tiny_model();
  cfg.world_size = world_size;
  cfg.batch_per_device = batch_per_device;
  cfg.epochs = 2;
  cfg.learning_rate = 1e-3f;
  cfg.seed = 7;
  cfg.checkpoint_every = 2;
  cfg.collective.timeout = 30s;
  return cfg;
}

pn::SegDataset tiny_data() {
  return pd::make_synthetic_dataset(/*samples=*/8, /*channels=*/3,
                                    /*height=*/16, /*width=*/16,
                                    /*classes=*/2, /*seed=*/11);
}

std::vector<float> flat_params(pn::UNet& model) {
  std::vector<float> out;
  for (const auto& p : model.params()) {
    const float* v = p.value->data();
    out.insert(out.end(), v, v + p.value->numel());
  }
  return out;
}

/// Learnable three-class data: class = horizontal third of the tile, each
/// class bright in its own channel, plus a little noise.
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
          sample.image[(c * size + y) * size + x] =
              (c == cls ? 0.8f : 0.1f) +
              static_cast<float>(rng.uniform(-0.05, 0.05));
        }
      }
    }
    data.add(std::move(sample));
  }
  return data;
}

pd::FleetTrainConfig striped_fleet(int world_size, int batch_per_device) {
  auto cfg = tiny_fleet(world_size, batch_per_device);
  cfg.model.num_classes = 3;
  return cfg;
}

std::string scratch_dir(const std::string& name) {
  const auto dir = fs::temp_directory_path() / ("polarice-fleet-" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

}  // namespace

TEST(FleetConfig, ValidatesInvariants) {
  auto cfg = tiny_fleet(2, 2);
  EXPECT_NO_THROW(cfg.validate());

  auto bad = cfg;
  bad.world_size = 3;  // not a power of two: breaks the canonical tree
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = cfg;
  bad.batch_per_device = 3;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = cfg;
  bad.model.use_dropout = true;  // mask streams diverge across world sizes
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = cfg;
  bad.epochs = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(FleetConfig, FingerprintIgnoresWorldSplit) {
  // Same trajectory identity for (world 1, batch 4) and (world 4, batch 1):
  // a checkpoint from one fleet shape must resume another.
  const auto a = tiny_fleet(1, 4).fingerprint();
  const auto b = tiny_fleet(4, 1).fingerprint();
  const auto c = tiny_fleet(2, 2).fingerprint();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);

  auto other = tiny_fleet(1, 4);
  other.seed = 8;
  EXPECT_NE(a, other.fingerprint());
}

// The headline determinism property: the same seed and global batch yield
// BITWISE-identical rank-0 parameters at world sizes 1, 2, and 4.
TEST(FleetTrainer, BitIdenticalAcrossWorldSizes) {
  const auto data = tiny_data();
  std::vector<std::vector<float>> params;
  std::vector<float> losses;
  for (const auto [world, batch] : {std::pair{1, 4}, {2, 2}, {4, 1}}) {
    pn::UNet model(tiny_model());
    const auto stats = pd::train_fleet(model, data, tiny_fleet(world, batch));
    EXPECT_GT(stats.steps, 0) << "world " << world;
    params.push_back(flat_params(model));
    losses.push_back(stats.final_loss);
  }
  ASSERT_EQ(params.size(), 3u);
  EXPECT_EQ(params[1], params[0]) << "world 2 diverged from world 1";
  EXPECT_EQ(params[2], params[0]) << "world 4 diverged from world 1";
  EXPECT_EQ(losses[1], losses[0]);
  EXPECT_EQ(losses[2], losses[0]);
}

// Transport invariance: a socket mesh (real wire frames over unix sockets)
// must produce the bit-identical parameters of the thread reference.
TEST(FleetTrainer, SocketMatchesThreadTransportBitwise) {
  const auto data = tiny_data();
  const auto config = tiny_fleet(2, 2);

  pn::UNet thread_model(tiny_model());
  (void)pd::train_fleet(thread_model, data, config);
  const auto reference = flat_params(thread_model);

  const std::string dir = scratch_dir("socket-vs-thread");
  const auto endpoints = pd::fleet_endpoints(dir, config.world_size);
  const auto fingerprint = config.fingerprint();

  std::vector<std::vector<float>> socket_params(2);
  std::vector<std::jthread> ranks;
  for (int r = 0; r < 2; ++r) {
    ranks.emplace_back([&, r] {
      pd::SocketCommunicatorConfig mesh;
      mesh.rank = r;
      mesh.world_size = config.world_size;
      mesh.endpoints = endpoints;
      mesh.fingerprint = fingerprint;
      mesh.collective = config.collective;
      pn::UNet model(tiny_model());
      const auto stats = pd::train_fleet_rank(
          model, data, config, r,
          [&mesh] { return std::make_unique<pd::SocketCommunicator>(mesh); });
      EXPECT_GT(stats.steps, 0);
      socket_params[static_cast<std::size_t>(r)] = flat_params(model);
    });
  }
  ranks.clear();  // join

  EXPECT_EQ(socket_params[0], reference);
  EXPECT_EQ(socket_params[1], reference);
}

// Kill-and-resume determinism, single-rank edition: a rank that dies
// mid-run (a CollectiveError out of the step loop) rolls back to the last
// durable checkpoint, replays, and finishes with parameters bit-identical
// to a run that never crashed.
TEST(FleetTrainer, ResumeFromCheckpointIsBitIdentical) {
  const auto data = tiny_data();
  auto config = tiny_fleet(1, 4);
  config.checkpoint_every = 2;  // steps 0,2,4 durable; 4 steps total

  // Uninterrupted reference.
  pn::UNet reference(tiny_model());
  {
    auto ref_config = config;
    ref_config.checkpoint_dir = scratch_dir("resume-ref");
    const auto stats = pd::train_fleet(reference, data, ref_config);
    EXPECT_EQ(stats.rejoins, 0);
  }

  // Crashing run: die via the step hook at global step 3 (one past the
  // step-2 checkpoint), then let the rejoin loop resume from it.
  config.checkpoint_dir = scratch_dir("resume-crash");
  config.max_rejoins = 2;
  config.rejoin_backoff = 1ms;
  pn::UNet model(tiny_model());
  bool crashed = false;
  const auto factory = [] {
    return std::make_unique<pd::ThreadCommunicator>(
        std::make_shared<pd::World>(1), 0);
  };
  const auto stats = pd::train_fleet_rank(
      model, data, config, /*rank=*/0, factory, /*stop=*/nullptr,
      [&crashed](std::int64_t global_step) {
        if (global_step == 3 && !crashed) {
          crashed = true;
          throw pd::PeerLost("injected crash");
        }
      });

  EXPECT_TRUE(crashed);
  EXPECT_EQ(stats.rejoins, 1);
  EXPECT_GT(stats.resumed_from, 0);  // second join loaded a real checkpoint
  EXPECT_EQ(stats.checkpoint_corrupt, 0);
  EXPECT_EQ(flat_params(model), flat_params(reference));
}

// Exhausting the rejoin budget rethrows the CollectiveError instead of
// spinning forever.
TEST(FleetTrainer, RejoinBudgetExhaustionRethrows) {
  const auto data = tiny_data();
  auto config = tiny_fleet(1, 4);
  config.checkpoint_dir = scratch_dir("budget");
  config.max_rejoins = 1;
  config.rejoin_backoff = 1ms;
  pn::UNet model(tiny_model());
  const auto factory = [] {
    return std::make_unique<pd::ThreadCommunicator>(
        std::make_shared<pd::World>(1), 0);
  };
  EXPECT_THROW(
      (void)pd::train_fleet_rank(
          model, data, config, 0, factory, nullptr,
          [](std::int64_t) { throw pd::PeerLost("always"); }),
      pd::CollectiveError);
}

// A pre-set stop flag is folded into the first collective as a stop vote:
// the fleet exits cleanly before applying any step, with a final durable
// checkpoint behind it.
TEST(FleetTrainer, StopVoteExitsCleanlyWithCheckpoint) {
  const auto data = tiny_data();
  auto config = tiny_fleet(1, 4);
  config.checkpoint_dir = scratch_dir("stop");
  pn::UNet model(tiny_model());
  std::atomic<bool> stop{true};
  const auto factory = [] {
    return std::make_unique<pd::ThreadCommunicator>(
        std::make_shared<pd::World>(1), 0);
  };
  const auto stats =
      pd::train_fleet_rank(model, data, config, 0, factory, &stop);
  EXPECT_TRUE(stats.stopped);
  EXPECT_EQ(stats.steps, 0);
  EXPECT_GE(stats.checkpoints_written, 1);
}

// A fleet step averages per-sample gradients over the whole global batch,
// so world 2 x batch 4 must reproduce a single-device Adam loop over
// batches of 8. With 8 samples every step covers the whole dataset, so the
// fleet's shuffle order cannot matter and the reference runs unshuffled.
TEST(FleetTrainer, MatchesSingleDeviceAdamOverTheGlobalBatch) {
  const auto data = striped_dataset(8, 8, 77);
  const auto config = striped_fleet(2, 4);

  pn::UNet single(config.model);
  {
    pn::DataLoader loader(data, config.global_batch(), 0, /*shuffle=*/false);
    pn::Adam opt(single.params(), config.learning_rate);
    pt::Tensor logits, probs, dlogits;
    pn::Batch batch;
    for (int e = 0; e < config.epochs; ++e) {
      loader.start_epoch();
      while (loader.next(batch)) {
        opt.zero_grad();
        single.forward(batch.x, logits, /*training=*/true);
        pt::softmax_cross_entropy(logits, batch.targets, probs, dlogits);
        single.backward(dlogits);
        opt.step();
      }
    }
  }

  pn::UNet fleet(config.model);
  const auto stats = pd::train_fleet(fleet, data, config);
  EXPECT_EQ(stats.steps, config.epochs);

  const auto a = flat_params(single);
  const auto b = flat_params(fleet);
  ASSERT_EQ(a.size(), b.size());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(double(a[i]) - double(b[i])));
  }
  EXPECT_LT(max_diff, 5e-4);  // float summation-order differences only
}

TEST(FleetTrainer, LossFallsWithEpochs) {
  const auto data = striped_dataset(8, 8, 88);
  const auto final_loss = [&](int epochs) {
    auto config = striped_fleet(4, 2);
    config.epochs = epochs;
    config.learning_rate = 3e-3f;
    pn::UNet model(config.model);
    return pd::train_fleet(model, data, config).final_loss;
  };
  const float after_one = final_loss(1);
  const float after_six = final_loss(6);
  EXPECT_TRUE(std::isfinite(after_one));
  EXPECT_LT(after_six, after_one);
}

TEST(FleetTrainer, RejectsDatasetSmallerThanOneGlobalBatch) {
  const auto data = striped_dataset(2, 8, 99);
  const auto config = striped_fleet(4, 2);  // global batch 8 > 2 samples
  pn::UNet model(config.model);
  EXPECT_THROW((void)pd::train_fleet(model, data, config),
               std::invalid_argument);
}

// A fleet that can never form (no peer ever dials in) must surface a typed
// CollectiveError within the establish budget — not hang.
TEST(SocketCommunicator, EstablishTimesOutTyped) {
  const std::string dir = scratch_dir("lonely");
  pd::SocketCommunicatorConfig mesh;
  mesh.rank = 0;
  mesh.world_size = 2;
  mesh.endpoints = pd::fleet_endpoints(dir, 2);
  mesh.fingerprint = 42;
  mesh.establish_timeout = 200ms;
  EXPECT_THROW(pd::SocketCommunicator{mesh}, pd::CollectiveError);
}

// A peer presenting a different config fingerprint is refused at hello:
// both sides fail typed, neither silently joins a foreign fleet.
TEST(SocketCommunicator, FingerprintMismatchIsRefused) {
  const std::string dir = scratch_dir("mismatch");
  const auto endpoints = pd::fleet_endpoints(dir, 2);
  std::atomic<int> typed_failures{0};
  std::vector<std::jthread> ranks;
  for (int r = 0; r < 2; ++r) {
    ranks.emplace_back([&, r] {
      pd::SocketCommunicatorConfig mesh;
      mesh.rank = r;
      mesh.world_size = 2;
      mesh.endpoints = endpoints;
      mesh.fingerprint = 100 + static_cast<std::uint64_t>(r);  // disagree
      mesh.establish_timeout = 2000ms;
      try {
        pd::SocketCommunicator comm(mesh);
      } catch (const pd::CollectiveError&) {
        ++typed_failures;
      }
    });
  }
  ranks.clear();  // join
  EXPECT_EQ(typed_failures.load(), 2);
}
