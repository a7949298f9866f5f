#pragma once
// ShardRouter — the fleet front end: routes scenes to N ShardWorker
// processes and returns SceneTicket-compatible futures.
//
// Placement is rendezvous (highest-random-weight) hashing of the scene's
// 128-bit content hash (util/hash.h — the very same digest that keys the
// result cache and single-flight coalescing inside each worker) against
// each shard's identity: every router instance agrees on placement without
// coordination, identical scenes always land on the same shard (so the
// shard's cache and coalescing keep working fleet-wide), and
// adding/removing a shard only remaps the scenes that hashed to it — no
// global reshuffle.
//
// Health: a heartbeat thread probes every shard on a period; a shard that
// fails `quarantine_failures` consecutive probes (or dispatches) is
// quarantined — taken out of the candidate set until a probe succeeds
// again. Dispatch failures re-dispatch the scene to the next shard in its
// rendezvous order (failover): workers are deterministic clones, so a
// re-dispatched scene returns a bit-identical plane, making failover
// invisible to the caller except in latency.
//
// Overload shedding: each heartbeat carries the worker's submission-queue
// depth. When a scene's best shard reports depth above shed_queue_depth,
// the router walks down the rendezvous order; if every live shard is over
// the watermark the submission is refused with AdmissionRejected — the
// fleet-level analogue of SceneServer's admission control, applied before
// any bytes cross the wire.
//
// Threading: submit() enqueues and returns immediately; a pool of
// dispatcher threads moves requests over pooled per-shard connections
// (one in-flight request per connection — the protocol's sequential
// request/response discipline; the SceneServer behind each worker batches
// across connections).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/serve/result_cache.h"
#include "core/serve/scene_server.h"
#include "core/serve/shard/protocol.h"
#include "img/image.h"
#include "net/transport.h"
#include "obs/instruments.h"
#include "par/context.h"
#include "util/virtual_clock.h"

namespace polarice::core::serve::shard {

struct ShardRouterConfig {
  std::vector<net::Endpoint> shards;  // one ShardWorker each; order is the
                                      // shard identity, so keep it stable
  // Dispatcher pool: upper bound on requests simultaneously on the wire.
  int dispatchers = 8;
  // Bounded dispatch queue in front of the dispatchers (admission control
  // at the router tier; overflow rejects like a full SceneServer queue).
  std::size_t queue_capacity = 256;
  // Heartbeat probe period per shard, and the probe's own deadline.
  std::chrono::milliseconds heartbeat_period{100};
  std::chrono::milliseconds heartbeat_timeout{250};
  // Consecutive failures (probe or dispatch) that quarantine a shard.
  int quarantine_failures = 3;
  // Per-request failover budget: how many *additional* shards a scene may
  // be re-dispatched to after its first choice fails mid-flight.
  int max_failovers = 2;
  // Worker queue depth above which a shard counts as overloaded (0 =
  // shedding disabled). Compared against the depth in the latest
  // heartbeat.
  std::size_t shed_queue_depth = 0;
  // Quarantined-shard re-dial backoff: after quarantine, probe attempts
  // are spaced redial_base * 2^(attempt-1) apart, capped at redial_cap,
  // plus a deterministic per-shard jitter (<= 25% of the delay) so a fleet
  // of routers does not re-dial a rebooting worker in lockstep. A healthy
  // shard keeps the plain heartbeat_period cadence; the first successful
  // probe resets the backoff.
  std::chrono::milliseconds redial_base{200};
  std::chrono::milliseconds redial_cap{5000};
  // Deadline for one dispatch round trip (connect + send + full scene
  // inference + response). Generous by design: this is a liveness bound
  // for crashed workers, not an SLO (deadlines ride SubmitOptions).
  std::chrono::milliseconds request_timeout{30000};
  // Time source for all router timing; nullptr = process clock. Must
  // outlive the router.
  const util::Clock* clock = nullptr;

  void validate() const;
};

/// Health/telemetry of one shard as the router sees it.
struct ShardState {
  net::Endpoint endpoint;
  bool healthy = true;            // false = quarantined
  bool accepting = true;          // worker said it is shutting down
  int consecutive_failures = 0;
  std::uint64_t queue_depth = 0;  // from the latest heartbeat
  std::size_t dispatched = 0;     // requests sent here
  std::size_t heartbeats_ok = 0;
  std::size_t heartbeats_failed = 0;
  int redial_attempts = 0;        // failed probes since quarantine
  double uptime_seconds = -1.0;   // from the latest heartbeat; -1 = never
  bool brownout_active = false;   // worker reported brownout degradation
  SceneServerStats stats;         // latest heartbeat's server snapshot
};

struct ShardRouterStats {
  std::size_t submitted = 0;       // tickets handed out
  std::size_t completed = 0;       // resolved with a plane
  std::size_t rejected = 0;        // refused admission: queue full, all
                                   // shards over the watermark, or every
                                   // dispatch candidate answered kRejected
  std::size_t shed = 0;            // worker answered DeadlineExceeded
  std::size_t cancelled = 0;
  std::size_t failed = 0;          // resolved with any other error
  std::size_t degraded = 0;        // planes returned brownout-degraded
  std::size_t failovers = 0;       // re-dispatches after a shard failure
  std::size_t dispatch_errors = 0; // transport/wire failures observed
  std::size_t quarantines = 0;     // healthy -> quarantined transitions
  std::size_t recoveries = 0;      // quarantined -> healthy transitions
  std::vector<ShardState> shards;
};

namespace detail {
struct RemoteTicketState;
}  // namespace detail

/// Future-style handle to one routed scene — the fleet-tier mirror of
/// SceneTicket, with identical semantics: shared state, repeatable get(),
/// cooperative cancel, errors rethrown from get().
class ShardTicket {
 public:
  ShardTicket() = default;  // !valid()

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  [[nodiscard]] bool ready() const;
  void wait() const;
  bool wait_for(std::chrono::milliseconds timeout) const;

  /// Blocks until resolved; returns the scene-sized class-id plane or
  /// rethrows the failure (AdmissionRejected / DeadlineExceeded /
  /// par::OperationCancelled / std::runtime_error with the worker's text).
  [[nodiscard]] img::ImageU8 get() const;

  /// Blocks until resolved; true when the worker answered with a
  /// brownout-degraded plane (mirrors SceneTicket::degraded()).
  [[nodiscard]] bool degraded() const;

  /// Requests cancellation: honoured before dispatch (and re-checked
  /// between failover attempts); a request already on the wire completes
  /// remotely and resolves cancelled on return.
  void cancel() const;

 private:
  friend class ShardRouter;
  explicit ShardTicket(std::shared_ptr<detail::RemoteTicketState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::RemoteTicketState> state_;
};

class ShardRouter {
 public:
  /// Starts the dispatcher pool and the heartbeat prober. Does not require
  /// shards to be up yet: a shard is assumed healthy until probes say
  /// otherwise, and dispatch failures trigger failover anyway.
  explicit ShardRouter(ShardRouterConfig config);

  /// Fails pending work with QueueClosed semantics and joins all threads.
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Routes one scene. Throws std::invalid_argument on malformed scenes,
  /// AdmissionRejected when the dispatch queue is full or every live shard
  /// is over the overload watermark, QueueClosed after shutdown().
  ShardTicket submit(img::ImageU8 scene, const SubmitOptions& options = {},
                     const par::ExecutionContext& ctx = {});

  /// Synchronous convenience: submit + get.
  [[nodiscard]] img::ImageU8 classify_scene(const img::ImageU8& scene_rgb);

  /// Stops admission, resolves queued-but-undispatched work with
  /// QueueClosed, joins dispatchers and the heartbeat thread. Idempotent.
  void shutdown();

  /// Waits until at least `count` shards have answered a heartbeat (true),
  /// or `timeout` passes (false). Startup aid for orchestration: workers
  /// spawn concurrently with the router.
  bool wait_for_healthy(int count, std::chrono::milliseconds timeout);

  [[nodiscard]] ShardRouterStats stats() const;
  [[nodiscard]] const ShardRouterConfig& config() const noexcept {
    return config_;
  }

  /// Rendezvous placement order for a scene key: shard indices, best
  /// first, ignoring health (health is applied at dispatch time). Exposed
  /// for tests and capacity tooling.
  [[nodiscard]] std::vector<int> placement(const SceneKey& key) const;

  /// Scrapes every shard's metrics registry over the wire
  /// (kMetricsRequest). One entry per configured shard, in shard order;
  /// nullopt where the worker was unreachable or answered garbage.
  [[nodiscard]] std::vector<std::optional<MetricsResponse>> scrape_metrics();

 private:
  struct Shard;

  void dispatcher_loop();
  void heartbeat_loop();
  void probe(Shard& shard);

  /// Counts a failed probe and schedules the next one: plain heartbeat
  /// cadence while healthy, capped exponential backoff with deterministic
  /// jitter once quarantined.
  void schedule_reprobe(Shard& shard);
  [[nodiscard]] std::chrono::milliseconds redial_delay(const Shard& shard,
                                                       int attempt) const;

  /// One dispatch attempt chain with failover; resolves the ticket.
  void dispatch(const std::shared_ptr<detail::RemoteTicketState>& ticket);

  /// Sends the request on one shard and decodes the response. Transport /
  /// wire failures throw (the caller records them and fails over).
  [[nodiscard]] SubmitResponse round_trip(
      Shard& shard, const std::shared_ptr<detail::RemoteTicketState>& ticket);

  /// Returns true when the success flipped a quarantined shard healthy.
  bool record_success(Shard& shard);
  void record_failure(Shard& shard);

  ShardRouterConfig config_;
  const util::Clock* clock_;
  obs::RouterInstruments& obs_;

  struct Shard {
    net::Endpoint endpoint;
    std::uint64_t id_hash = 0;  // rendezvous identity: fnv64(endpoint)

    std::mutex mutex;  // guards everything below
    bool healthy = true;
    bool accepting = true;
    int consecutive_failures = 0;
    std::uint64_t queue_depth = 0;
    std::size_t dispatched = 0;
    std::size_t heartbeats_ok = 0;
    std::size_t heartbeats_failed = 0;
    // Re-dial pacing (prober only). Default epoch = due immediately, so
    // the first round still probes every shard at startup.
    util::Clock::time_point next_probe_at{};
    int redial_attempts = 0;  // failed probes since quarantine
    // Last heartbeat's worker-reported uptime (-1 = never heard). An
    // uptime that goes BACKWARDS means a new process answered — the
    // worker restarted (cold cache, reset counters) rather than recovered.
    double last_uptime = -1.0;
    bool brownout_active = false;
    SceneServerStats last_stats;
    std::vector<net::Connection> idle;  // pooled connections
    net::Connection heartbeat;          // the prober's own connection
  };
  std::vector<std::unique_ptr<Shard>> shards_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<detail::RemoteTicketState>> queue_;
  bool closed_ = false;  // guarded by queue_mutex_

  mutable std::mutex stats_mutex_;
  ShardRouterStats counters_;  // scalar counters only (shards built fresh)

  std::atomic<std::uint64_t> next_request_id_{1};
  std::atomic<bool> shut_down_{false};
  std::vector<std::jthread> dispatchers_;
  std::jthread heartbeat_;
};

}  // namespace polarice::core::serve::shard
