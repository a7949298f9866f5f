#pragma once
// Communicators for the Horovod substitute: N ranks exchanging float
// buffers, either over in-process mailbox channels (one rank == one
// thread; the deterministic reference) or over the net/ socket mesh (one
// rank == one process; the production fleet, ddp/socket_communicator.h).
//
// A transport supplies only point-to-point send/recv. The two collectives
// live in the abstract base over those virtuals, so the arithmetic —
// including float summation order — is identical on every transport: a
// socket fleet's result is bit-compared against the thread path in tests.
//
//   * tree_allreduce_sum: recursive halving-doubling over a canonical
//     balanced binary tree (power-of-two worlds). The tree over N
//     contributions is the same shape whether it is folded by 1, 2, or 4
//     ranks, so results are bit-identical ACROSS world sizes when each
//     rank's local buffer is itself a canonical tree fold of its
//     contiguous contribution block (tree_fold below). The fleet trainer
//     (ddp/fleet_trainer.h) rests on this: a 4-rank run reproduces a
//     single-rank run bit for bit.
//   * broadcast: ring pipeline from `root`.
//
// Every blocking path takes its deadline from an injectable util::Clock
// (CollectiveOptions) and surfaces CollectiveTimeout/PeerLost (errors.h)
// instead of blocking forever. Waiting stays on real condition variables /
// poll ticks; a frozen VirtualClock never wedges a thread, it just decides
// when the deadline has arrived.

#include <condition_variable>
#include <chrono>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "ddp/errors.h"
#include "util/virtual_clock.h"

namespace polarice::ddp {

/// Timing policy for one communicator: which clock decides deadlines and
/// how long any single collective may run before it fails typed.
struct CollectiveOptions {
  const util::Clock* clock = nullptr;  // nullptr = util::system_clock()
  std::chrono::milliseconds timeout{30000};  // per collective call

  [[nodiscard]] const util::Clock& resolved_clock() const noexcept {
    return clock != nullptr ? *clock : util::system_clock();
  }
};

/// Blocking FIFO mailbox for one directed rank pair (thread path). recv
/// waits on a condvar in short real-time ticks and checks the caller's
/// clock against the deadline, so a stuck sender surfaces
/// CollectiveTimeout instead of deadlocking the world.
class Channel {
 public:
  void send(std::vector<float> message);

  /// Blocks until a message arrives or `deadline` passes on `clock`
  /// (throws CollectiveTimeout). No deadline = wait indefinitely (only for
  /// tests that control both endpoints).
  std::vector<float> recv(
      std::optional<util::Clock::time_point> deadline = {},
      const util::Clock* clock = nullptr);

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::vector<float>> queue_;
};

/// Shared mailbox mesh of one thread-communicator world (create once, hand
/// to all rank threads). Deadlines come from each rank's CollectiveOptions.
class World {
 public:
  explicit World(int size);

  [[nodiscard]] int size() const noexcept { return size_; }
  [[nodiscard]] Channel& channel(int from, int to);

 private:
  int size_;
  std::vector<std::unique_ptr<Channel>> channels_;  // size x size mesh
};

/// Transport-agnostic per-rank handle. The collectives are implemented
/// here over the virtual point-to-point primitives so every transport
/// produces bit-identical arithmetic.
class Communicator {
 public:
  virtual ~Communicator() = default;

  [[nodiscard]] virtual int rank() const noexcept = 0;
  [[nodiscard]] virtual int world_size() const noexcept = 0;

  /// Point-to-point, deadline-enforced. Implementations surface
  /// CollectiveTimeout past `deadline` and PeerLost on a dead/garbling
  /// peer.
  virtual void send(int to, std::vector<float> message,
                    util::Clock::time_point deadline) = 0;
  [[nodiscard]] virtual std::vector<float> recv(
      int from, util::Clock::time_point deadline) = 0;

  // Convenience forms: one fresh per-collective deadline from the options.
  void send(int to, std::vector<float> message) {
    send(to, std::move(message), collective_deadline());
  }
  [[nodiscard]] std::vector<float> recv(int from) {
    return recv(from, collective_deadline());
  }

  /// In-place recursive halving-doubling allreduce (sum) over the
  /// canonical balanced tree. Requires a power-of-two world size (throws
  /// std::invalid_argument otherwise). Bit-identical across ranks AND
  /// across power-of-two world sizes (see header comment / tree_fold).
  void tree_allreduce_sum(float* data, std::size_t count);

  /// Copies `data` from `root` to every rank (ring pipeline).
  void broadcast(float* data, std::size_t count, int root);

  [[nodiscard]] const CollectiveOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const util::Clock& clock() const noexcept {
    return options_.resolved_clock();
  }
  [[nodiscard]] util::Clock::time_point collective_deadline() const noexcept {
    return clock().now() + options_.timeout;
  }

 protected:
  explicit Communicator(CollectiveOptions options) : options_(options) {}

 private:
  CollectiveOptions options_;
};

/// Thread-path communicator: one rank == one thread of this process,
/// messages move through the World's mailbox mesh. The deterministic
/// reference the socket path is bit-compared against.
class ThreadCommunicator final : public Communicator {
 public:
  ThreadCommunicator(std::shared_ptr<World> world, int rank,
                     CollectiveOptions options = {});

  [[nodiscard]] int rank() const noexcept override { return rank_; }
  [[nodiscard]] int world_size() const noexcept override {
    return world_->size();
  }

  void send(int to, std::vector<float> message,
            util::Clock::time_point deadline) override;
  [[nodiscard]] std::vector<float> recv(
      int from, util::Clock::time_point deadline) override;

  using Communicator::recv;
  using Communicator::send;

 private:
  std::shared_ptr<World> world_;
  int rank_;
};

/// Folds `buffers` (all the same length) into buffers[0] along the
/// canonical balanced binary tree: split in half, fold each half, add
/// left + right. The cross-rank tree_allreduce continues this exact tree
/// upward, which is what makes fleet results world-size invariant.
/// Requires a power-of-two buffer count.
void tree_fold(std::vector<std::vector<float>>& buffers);

}  // namespace polarice::ddp
