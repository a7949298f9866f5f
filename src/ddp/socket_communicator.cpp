#include "ddp/socket_communicator.h"

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

namespace polarice::ddp {

namespace {

// Real-time nap between rendezvous retries (peer listener not up yet,
// garbled hello). The establish verdict stays on the configured clock.
constexpr std::chrono::milliseconds kRetryTick{5};
// Budget for one accepted connection to complete its hello. Short so a
// wedged stranger cannot starve the accept loop of the real peers.
constexpr std::chrono::milliseconds kHelloBudget{2000};

[[noreturn]] void rethrow_as_collective(const char* what) {
  try {
    throw;  // re-raise the in-flight exception to classify it
  } catch (const net::TransportTimeout& e) {
    throw CollectiveTimeout(std::string(what) + ": " + e.what());
  } catch (const net::TransportError& e) {
    throw PeerLost(std::string(what) + ": " + e.what());
  } catch (const net::WireError& e) {
    throw PeerLost(std::string(what) + ": " + e.what());
  }
}

std::vector<std::uint8_t> encode_hello(const SocketCommunicatorConfig& c) {
  net::WireWriter w;
  w.put_u32(static_cast<std::uint32_t>(c.rank));
  w.put_u32(static_cast<std::uint32_t>(c.world_size));
  w.put_u64(c.fingerprint);
  return w.take();
}

struct Hello {
  int rank = -1;
  int world_size = 0;
  std::uint64_t fingerprint = 0;
};

Hello decode_hello(const net::Frame& frame) {
  if (frame.type != net::MsgType::kTrainHello) {
    throw PeerLost("rendezvous: expected train_hello, got " +
                   std::string(net::to_string(frame.type)));
  }
  net::WireReader r(frame.payload);
  Hello hello;
  hello.rank = static_cast<int>(r.get_u32());
  hello.world_size = static_cast<int>(r.get_u32());
  hello.fingerprint = r.get_u64();
  r.expect_end();
  return hello;
}

void check_hello(const Hello& hello, const SocketCommunicatorConfig& c) {
  if (hello.world_size != c.world_size) {
    throw PeerLost("rendezvous: peer world " +
                   std::to_string(hello.world_size) + ", want " +
                   std::to_string(c.world_size));
  }
  if (hello.fingerprint != c.fingerprint) {
    throw PeerLost("rendezvous: config fingerprint mismatch");
  }
  if (hello.rank < 0 || hello.rank >= c.world_size || hello.rank == c.rank) {
    throw PeerLost("rendezvous: peer claims rank " +
                   std::to_string(hello.rank));
  }
}

}  // namespace

SocketCommunicator::SocketCommunicator(SocketCommunicatorConfig config)
    : Communicator(config.collective), config_(std::move(config)) {
  if (config_.world_size < 1) {
    throw std::invalid_argument("SocketCommunicator: world_size must be >= 1");
  }
  if (config_.rank < 0 || config_.rank >= config_.world_size) {
    throw std::invalid_argument("SocketCommunicator: bad rank");
  }
  if (static_cast<int>(config_.endpoints.size()) != config_.world_size) {
    throw std::invalid_argument(
        "SocketCommunicator: need one endpoint per rank");
  }
  peers_.resize(static_cast<std::size_t>(config_.world_size));
  establish();
}

SocketCommunicator::~SocketCommunicator() { teardown(); }

void SocketCommunicator::establish() {
  const auto deadline = clock().now() + config_.establish_timeout;
  const std::vector<std::uint8_t> hello = encode_hello(config_);

  listener_ = net::Listener::bind(config_.endpoints[config_.rank],
                                  config_.collective.clock);

  // Dial every lower rank. A refused connect just means that peer is still
  // launching — retry under the overall deadline.
  for (int peer = 0; peer < config_.rank; ++peer) {
    for (;;) {
      if (clock().now() >= deadline) {
        throw CollectiveTimeout("rendezvous: dialing rank " +
                                std::to_string(peer));
      }
      try {
        net::Connection conn = net::connect(config_.endpoints[peer],
                                            config_.collective.clock, deadline);
        conn.write_frame(net::MsgType::kTrainHello, hello, deadline);
        const Hello ack = decode_hello(conn.read_frame(deadline));
        check_hello(ack, config_);
        if (ack.rank != peer) {
          throw PeerLost("rendezvous: endpoint " +
                         config_.endpoints[peer].to_string() +
                         " answered as rank " + std::to_string(ack.rank));
        }
        peers_[peer].connection = std::move(conn);
        break;
      } catch (const net::TransportError&) {
        // Not up yet (or died mid-hello): nap and redial.
        std::this_thread::sleep_for(kRetryTick);
      } catch (const net::WireError&) {
        std::this_thread::sleep_for(kRetryTick);
      }
    }
  }

  // Accept every higher rank. Strangers and stale incarnations are dropped
  // (bad hello, hello timeout); a re-dialing rank simply replaces its slot.
  int pending = config_.world_size - config_.rank - 1;
  while (pending > 0) {
    if (clock().now() >= deadline) {
      throw CollectiveTimeout("rendezvous: waiting for " +
                              std::to_string(pending) + " higher ranks");
    }
    net::Connection conn = listener_.accept(kRetryTick * 10);
    if (!conn.valid()) continue;
    try {
      const auto hello_deadline =
          std::min(deadline, clock().now() + kHelloBudget);
      const Hello peer = decode_hello(conn.read_frame(hello_deadline));
      check_hello(peer, config_);
      if (peer.rank < config_.rank) {
        throw PeerLost("rendezvous: lower rank dialed the wrong way");
      }
      conn.write_frame(net::MsgType::kTrainHello, hello, hello_deadline);
      if (!peers_[peer.rank].connection.valid()) --pending;
      peers_[peer.rank] = Peer{std::move(conn), 0, 0};
    } catch (const net::TransportError&) {
      // Drop and keep listening; the real peer will (re)dial.
    } catch (const net::WireError&) {
    } catch (const PeerLost&) {
    }
  }
}

void SocketCommunicator::teardown() noexcept {
  listener_.close();
  for (Peer& peer : peers_) peer.connection.close();
}

net::Connection& SocketCommunicator::connection_to(int peer_rank) {
  if (peer_rank < 0 || peer_rank >= config_.world_size ||
      peer_rank == config_.rank) {
    throw std::out_of_range("SocketCommunicator: bad peer rank");
  }
  net::Connection& conn = peers_[peer_rank].connection;
  if (!conn.valid()) {
    throw PeerLost("rank " + std::to_string(peer_rank) + ": connection down");
  }
  return conn;
}

void SocketCommunicator::send(int to, std::vector<float> message,
                              util::Clock::time_point deadline) {
  net::Connection& conn = connection_to(to);
  Peer& peer = peers_[to];
  net::WireWriter w;
  w.put_u32(static_cast<std::uint32_t>(config_.rank));
  w.put_u64(peer.next_send_seq);
  w.put_u64(message.size());
  for (float v : message) w.put_f32(v);
  try {
    conn.write_frame(net::MsgType::kTrainChunk, w.bytes(), deadline);
  } catch (const net::TransportError&) {
    rethrow_as_collective("send");
  }
  ++peer.next_send_seq;
}

std::vector<float> SocketCommunicator::recv(int from,
                                            util::Clock::time_point deadline) {
  net::Connection& conn = connection_to(from);
  net::Frame frame;
  try {
    frame = conn.read_frame(deadline);
  } catch (const net::TransportError&) {
    rethrow_as_collective("recv");
  } catch (const net::WireError&) {
    rethrow_as_collective("recv");
  }
  if (frame.type != net::MsgType::kTrainChunk) {
    throw PeerLost("rank " + std::to_string(from) + ": expected " +
                   net::to_string(net::MsgType::kTrainChunk) + ", got " +
                   net::to_string(frame.type));
  }
  net::WireReader reader(frame.payload);
  const int claimed = static_cast<int>(reader.get_u32());
  if (claimed != from) {
    throw PeerLost("rank " + std::to_string(from) + ": frame claims rank " +
                   std::to_string(claimed));
  }
  const std::uint64_t seq = reader.get_u64();
  Peer& peer = peers_[from];
  if (seq != peer.next_recv_seq) {
    throw PeerLost("rank " + std::to_string(from) + ": sequence " +
                   std::to_string(seq) + ", expected " +
                   std::to_string(peer.next_recv_seq) +
                   " (peer restarted or desynced)");
  }
  ++peer.next_recv_seq;
  const std::uint64_t count = reader.get_u64();
  if (count * sizeof(float) != reader.remaining()) {
    throw PeerLost("rank " + std::to_string(from) + ": chunk length lies");
  }
  std::vector<float> message(count);
  for (std::uint64_t i = 0; i < count; ++i) message[i] = reader.get_f32();
  reader.expect_end();
  return message;
}

}  // namespace polarice::ddp
