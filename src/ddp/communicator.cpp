#include "ddp/communicator.h"

#include <cstring>
#include <stdexcept>
#include <string>

namespace polarice::ddp {

namespace {
// Real-time re-check tick for condvar waits: short enough that a test
// advancing a VirtualClock past a deadline is observed promptly, long
// enough not to burn a core.
constexpr std::chrono::milliseconds kWaitTick{1};

[[nodiscard]] bool is_power_of_two(std::size_t n) noexcept {
  return n != 0 && (n & (n - 1)) == 0;
}
}  // namespace

void Channel::send(std::vector<float> message) {
  {
    const std::scoped_lock lock(mutex_);
    queue_.push_back(std::move(message));
  }
  cv_.notify_one();
}

std::vector<float> Channel::recv(
    std::optional<util::Clock::time_point> deadline,
    const util::Clock* clock) {
  const util::Clock& clk = clock != nullptr ? *clock : util::system_clock();
  std::unique_lock lock(mutex_);
  while (queue_.empty()) {
    if (deadline && clk.now() >= *deadline) {
      throw CollectiveTimeout("Channel::recv");
    }
    // Tick-wait: the deadline verdict belongs to the injectable clock, the
    // condvar only naps between re-checks.
    cv_.wait_for(lock, kWaitTick);
  }
  std::vector<float> message = std::move(queue_.front());
  queue_.pop_front();
  return message;
}

World::World(int size) : size_(size) {
  if (size < 1) throw std::invalid_argument("World: size must be >= 1");
  channels_.resize(static_cast<std::size_t>(size) * size);
  for (auto& ch : channels_) ch = std::make_unique<Channel>();
}

Channel& World::channel(int from, int to) {
  if (from < 0 || from >= size_ || to < 0 || to >= size_) {
    throw std::out_of_range("World::channel: bad rank");
  }
  return *channels_[static_cast<std::size_t>(from) * size_ + to];
}

// ---------------------------------------------------------------------------
// Collectives (transport-agnostic; summation order fixed by construction)
// ---------------------------------------------------------------------------

void Communicator::tree_allreduce_sum(float* data, std::size_t count) {
  const int n = world_size();
  if (!is_power_of_two(static_cast<std::size_t>(n))) {
    throw std::invalid_argument(
        "tree_allreduce_sum: world size must be a power of two, got " +
        std::to_string(n));
  }
  if (n == 1 || count == 0) return;
  const int self = rank();
  const auto deadline = collective_deadline();

  // Level l pairs rank r with r ^ 2^l; after the exchange both hold the
  // reduced subtree of the 2^(l+1) ranks sharing their high bits. The sum
  // is always lower-subtree + upper-subtree, so every rank applies the
  // identical canonical tree: ((r0+r1)+(r2+r3))... regardless of which
  // rank evaluates it.
  std::vector<float> incoming;
  for (int bit = 1; bit < n; bit <<= 1) {
    const int partner = self ^ bit;
    // The lower rank of the pair sends first; the upper receives first —
    // full-buffer exchanges can never deadlock on transport backpressure.
    if (self < partner) {
      send(partner, std::vector<float>(data, data + count), deadline);
      incoming = recv(partner, deadline);
    } else {
      incoming = recv(partner, deadline);
      send(partner, std::vector<float>(data, data + count), deadline);
    }
    if (incoming.size() != count) {
      throw PeerLost("tree_allreduce: buffer size mismatch");
    }
    if (self < partner) {
      // data holds the lower subtree: lower + upper.
      for (std::size_t i = 0; i < count; ++i) data[i] += incoming[i];
    } else {
      // data holds the upper subtree: keep the same operand order.
      for (std::size_t i = 0; i < count; ++i) data[i] = incoming[i] + data[i];
    }
  }
}

void Communicator::broadcast(float* data, std::size_t count, int root) {
  const int n = world_size();
  if (n == 1 || count == 0) return;
  if (root < 0 || root >= n) {
    throw std::out_of_range("broadcast: bad root");
  }
  const int self = rank();
  const int right = (self + 1) % n;
  const int left = (self - 1 + n) % n;
  const auto deadline = collective_deadline();
  // Ring pipeline: root sends to its right neighbour; everyone except the
  // rank left of root forwards.
  if (self == root) {
    send(right, std::vector<float>(data, data + count), deadline);
  } else {
    std::vector<float> incoming = recv(left, deadline);
    if (incoming.size() != count) {
      throw PeerLost("broadcast: size mismatch");
    }
    std::memcpy(data, incoming.data(), count * sizeof(float));
    if (right != root) send(right, std::move(incoming), deadline);
  }
}

// ---------------------------------------------------------------------------
// Thread path
// ---------------------------------------------------------------------------

ThreadCommunicator::ThreadCommunicator(std::shared_ptr<World> world, int rank,
                                       CollectiveOptions options)
    : Communicator(options), world_(std::move(world)), rank_(rank) {
  if (rank < 0 || rank >= world_->size()) {
    throw std::out_of_range("ThreadCommunicator: bad rank");
  }
}

void ThreadCommunicator::send(int to, std::vector<float> message,
                              util::Clock::time_point /*deadline*/) {
  // Mailboxes are unbounded; send never blocks on the thread path.
  world_->channel(rank_, to).send(std::move(message));
}

std::vector<float> ThreadCommunicator::recv(int from,
                                            util::Clock::time_point deadline) {
  return world_->channel(from, rank_).recv(deadline, &clock());
}

void tree_fold(std::vector<std::vector<float>>& buffers) {
  if (!is_power_of_two(buffers.size())) {
    throw std::invalid_argument(
        "tree_fold: buffer count must be a power of two, got " +
        std::to_string(buffers.size()));
  }
  const std::size_t count = buffers[0].size();
  for (const auto& b : buffers) {
    if (b.size() != count) {
      throw std::invalid_argument("tree_fold: ragged buffers");
    }
  }
  // Fold pairs at stride 1, 2, 4...: after the last level buffers[0] holds
  // the canonical balanced-tree sum, the exact shape tree_allreduce_sum
  // continues across ranks.
  for (std::size_t stride = 1; stride < buffers.size(); stride <<= 1) {
    for (std::size_t lo = 0; lo + stride < buffers.size(); lo += 2 * stride) {
      float* left = buffers[lo].data();
      const float* right = buffers[lo + stride].data();
      for (std::size_t i = 0; i < count; ++i) left[i] += right[i];
    }
  }
}

}  // namespace polarice::ddp
