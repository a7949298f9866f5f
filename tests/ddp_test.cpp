// Distributed-training substrate tests: channels, point-to-point send/recv,
// broadcast, collective deadline enforcement on a VirtualClock,
// tree-allreduce world-size invariance, and the DGX device model. The
// trainer built on these lives in ddp_fleet_test.cpp.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "ddp/communicator.h"
#include "ddp/device_model.h"
#include "util/rng.h"
#include "util/virtual_clock.h"

namespace pd = polarice::ddp;
using namespace std::chrono_literals;

namespace {
/// Runs `body(rank, comm)` on `n` rank threads and joins.
template <typename Body>
void run_world(int n, Body&& body) {
  auto world = std::make_shared<pd::World>(n);
  std::vector<std::jthread> threads;
  for (int r = 0; r < n; ++r) {
    threads.emplace_back([&, r] {
      pd::ThreadCommunicator comm(world, r);
      body(r, comm);
    });
  }
}
}  // namespace

TEST(Channel, FifoDelivery) {
  pd::Channel ch;
  ch.send({1.0f});
  ch.send({2.0f});
  EXPECT_EQ(ch.recv()[0], 1.0f);
  EXPECT_EQ(ch.recv()[0], 2.0f);
}

TEST(World, RejectsBadConstruction) {
  EXPECT_THROW(pd::World(0), std::invalid_argument);
  pd::World world(2);
  EXPECT_THROW(world.channel(2, 0), std::out_of_range);
  EXPECT_THROW(world.channel(0, -1), std::out_of_range);
}

// Regression (ISSUE 10 satellite): no in-process collective path may block
// forever. The waits below sit on a FROZEN VirtualClock — only an explicit
// advance past the deadline may release them, proving the timeout verdict
// is taken on the injectable clock, not on wall time.
TEST(Channel, RecvTimesOutTypedOnVirtualClock) {
  polarice::util::VirtualClock clock;
  pd::Channel ch;
  std::atomic<bool> timed_out{false};
  std::atomic<bool> returned{false};
  std::jthread waiter([&] {
    try {
      (void)ch.recv(clock.now() + 50ms, &clock);
    } catch (const pd::CollectiveTimeout&) {
      timed_out = true;
    }
    returned = true;
  });
  // Clock frozen short of the deadline: the waiter must still be blocked
  // no matter how much real time passes.
  std::this_thread::sleep_for(30ms);
  EXPECT_FALSE(returned.load());
  clock.advance(100ms);
  waiter.join();
  EXPECT_TRUE(timed_out.load());
}

TEST(ThreadCommunicator, RecvSurfacesCollectiveTimeoutFromOptions) {
  polarice::util::VirtualClock clock;
  auto world = std::make_shared<pd::World>(2);
  pd::CollectiveOptions options;
  options.clock = &clock;
  options.timeout = 20ms;
  pd::ThreadCommunicator comm(world, 0, options);
  std::jthread advancer([&] {
    std::this_thread::sleep_for(20ms);
    clock.advance(100ms);
  });
  EXPECT_THROW((void)comm.recv(1), pd::CollectiveTimeout);
}

TEST(Communicator, ErrorTypesAreOrdered) {
  // PeerLost and CollectiveTimeout must both be catchable as
  // CollectiveError — the rejoin trigger catches the base.
  EXPECT_THROW(throw pd::CollectiveTimeout("x"), pd::CollectiveError);
  EXPECT_THROW(throw pd::PeerLost("x"), pd::CollectiveError);
}

TEST(Communicator, SendRecvPointToPoint) {
  run_world(2, [](int rank, pd::Communicator& comm) {
    if (rank == 0) {
      comm.send(1, {3.5f, 4.5f});
      const auto echo = comm.recv(1);
      EXPECT_EQ(echo.size(), 1u);
      EXPECT_FLOAT_EQ(echo[0], 8.0f);
    } else {
      const auto msg = comm.recv(0);
      comm.send(0, {msg[0] + msg[1]});
    }
  });
}

TEST(Broadcast, CopiesRootToAllRanks) {
  const int n = 4;
  std::vector<std::vector<float>> buffers(n);
  for (int r = 0; r < n; ++r) buffers[r] = {float(r), float(r * 10)};
  run_world(n, [&](int rank, pd::Communicator& comm) {
    comm.broadcast(buffers[rank].data(), 2, /*root=*/2);
  });
  for (int r = 0; r < n; ++r) {
    EXPECT_FLOAT_EQ(buffers[r][0], 2.0f);
    EXPECT_FLOAT_EQ(buffers[r][1], 20.0f);
  }
}

// The fleet trainer's determinism rests on this: the halving-doubling tree
// allreduce applies the identical canonical summation tree at every
// power-of-two world size, provided each rank pre-folds its contiguous
// block with tree_fold. 8 contributions reduced by 1, 2, 4, or 8 ranks
// must agree BITWISE.
TEST(TreeAllreduce, BitIdenticalAcrossWorldSizes) {
  const int contributions = 8, count = 257;
  std::vector<std::vector<float>> source(contributions);
  polarice::util::Rng rng(42);
  for (auto& b : source) {
    b.resize(count);
    for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  }

  std::vector<std::vector<float>> results;  // one per world size
  for (const int world_size : {1, 2, 4, 8}) {
    const int per_rank = contributions / world_size;
    std::vector<std::vector<float>> local(world_size);
    for (int r = 0; r < world_size; ++r) {
      // Each rank folds its contiguous block along the canonical tree...
      std::vector<std::vector<float>> block(
          source.begin() + r * per_rank,
          source.begin() + (r + 1) * per_rank);
      pd::tree_fold(block);
      local[r] = block[0];
    }
    // ...and the cross-rank reduce continues the same tree upward.
    run_world(world_size, [&](int rank, pd::Communicator& comm) {
      comm.tree_allreduce_sum(local[rank].data(), local[rank].size());
    });
    for (int r = 1; r < world_size; ++r) EXPECT_EQ(local[r], local[0]);
    results.push_back(local[0]);
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i], results[0]) << "world size index " << i;
  }
}

TEST(TreeAllreduce, RejectsNonPowerOfTwoWorlds) {
  run_world(3, [](int, pd::Communicator& comm) {
    std::vector<float> buf(4, 1.0f);
    EXPECT_THROW(comm.tree_allreduce_sum(buf.data(), buf.size()),
                 std::invalid_argument);
  });
}

TEST(TreeFold, ValidatesShape) {
  std::vector<std::vector<float>> three(3, std::vector<float>(2, 1.0f));
  EXPECT_THROW(pd::tree_fold(three), std::invalid_argument);
  std::vector<std::vector<float>> ragged{{1.0f, 2.0f}, {3.0f}};
  EXPECT_THROW(pd::tree_fold(ragged), std::invalid_argument);
}

TEST(DeviceModel, ReproducesTable3Shape) {
  pd::DeviceModelConfig cfg;  // defaults = fit to the paper
  const auto t1 = pd::simulate_training(cfg, 1);
  EXPECT_NEAR(t1.epoch_s, 5.5, 0.01);
  EXPECT_NEAR(t1.images_per_s, 585.9, 5.0);
  EXPECT_NEAR(t1.total_s, 275.0, 10.0);  // paper: 280.72 (incl. warmup)
  const auto t8 = pd::simulate_training(cfg, 8);
  EXPECT_NEAR(t8.speedup, 7.21, 0.35);   // paper: 7.21x
  EXPECT_NEAR(t8.epoch_s, 0.79, 0.05);
  EXPECT_NEAR(t8.images_per_s, 4248.0, 300.0);
  // Near-linear but sub-ideal, monotone increasing speedup.
  double last = 0.0;
  for (const int gpus : {1, 2, 4, 6, 8}) {
    const auto t = pd::simulate_training(cfg, gpus);
    EXPECT_GT(t.speedup, last);
    EXPECT_LE(t.speedup, gpus + 1e-9);
    last = t.speedup;
  }
}

TEST(DeviceModel, Validation) {
  pd::DeviceModelConfig cfg;
  cfg.epoch_1gpu_s = 0;
  EXPECT_THROW(pd::simulate_training(cfg, 1), std::invalid_argument);
  cfg = pd::DeviceModelConfig{};
  EXPECT_THROW(pd::simulate_training(cfg, 0), std::invalid_argument);
}
