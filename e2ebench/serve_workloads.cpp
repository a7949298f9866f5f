// Serving workloads: an open loop against an in-process SceneServer with
// every request a distinct scene (serve_unique), and an open loop through a
// ShardRouter to two polarice_worker processes with Zipf-repeated scenes
// (serve_repeat).
//
// The open loop: one generator thread sends each request at its due time
// from a schedule derived from the workload seed, one reaper thread polls
// the outstanding tickets and stamps each as it resolves. Latency runs from
// the due time, so a generator stall is charged to the requests behind it;
// the generator's own lateness is reported as gen.lag_ms, and a run whose
// generator fell behind is invalid.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include <sys/prctl.h>
#include <unistd.h>

#include "bench/process.h"
#include "core/inference_session.h"
#include "core/serve/result_cache.h"
#include "core/serve/scene_server.h"
#include "core/serve/shard/protocol.h"
#include "core/serve/shard/shard_router.h"
#include "core/workflow.h"
#include "img/ops.h"
#include "nn/unet.h"
#include "obs/instruments.h"
#include "obs/metrics.h"
#include "s2/scene.h"
#include "util/mem_stats.h"
#include "util/rng.h"
#include "workloads.h"

namespace polarice::e2e {
namespace {

namespace pv = core::serve;
namespace shard = core::serve::shard;

constexpr int kTile = 64;
// A run whose generator sent a request later than this after its due time
// measured the benchmark, not the server.
constexpr double kMaxLagMs = 50.0;
constexpr auto kDrainTimeout = std::chrono::seconds(60);

double unit(util::Rng& rng) {
  return static_cast<double>(rng() >> 11) * (1.0 / 9007199254740992.0);
}

/// The serving model both workloads use; polarice_worker builds the same
/// one from its default flags.
nn::UNetConfig serve_model_config() {
  nn::UNetConfig cfg;
  cfg.depth = 2;
  cfg.base_channels = 8;
  cfg.use_dropout = false;
  cfg.seed = 88;
  return cfg;
}

/// One request scene cut out of a larger synthesized scene, with its truth.
struct Input {
  img::ImageU8 rgb;
  img::ImageU8 truth;
  [[nodiscard]] double mpix() const {
    return static_cast<double>(rgb.width()) * rgb.height() / 1e6;
  }
};

/// Large seeded scenes that request scenes are cut from; half cloudy.
std::vector<s2::Scene> make_mosaics(std::uint64_t seed, int count, int size) {
  std::vector<s2::Scene> out;
  for (int i = 0; i < count; ++i) {
    s2::SceneConfig sc;
    sc.width = sc.height = size;
    sc.seed = 7000 + 100 * seed + static_cast<std::uint64_t>(i);
    sc.cloudy = i % 2 == 0;
    out.push_back(s2::SceneGenerator(sc).generate());
  }
  return out;
}

/// `count` distinct crops at seeded positions of the mosaics, taken from
/// each mosaic in turn. Every block of sizes.size() crops uses each entry
/// of `sizes` (width, height) once, in a seeded order, so every seed offers
/// the same pixel mix.
std::vector<Input> make_inputs(const std::vector<s2::Scene>& mosaics,
                               std::size_t count,
                               std::vector<std::pair<int, int>> sizes,
                               util::Rng& rng) {
  std::vector<Input> out;
  std::unordered_set<std::uint64_t> seen;
  while (out.size() < count) {
    const std::size_t slot = out.size() % sizes.size();
    if (slot == 0) {
      for (std::size_t i = sizes.size(); i > 1; --i) {
        std::swap(sizes[i - 1], sizes[rng() % i]);
      }
    }
    const auto& m = mosaics[out.size() % mosaics.size()];
    const auto [w, h] = sizes[slot];
    const int x = static_cast<int>(rng() % static_cast<std::uint64_t>(
                                               m.rgb.width() - w + 1));
    const int y = static_cast<int>(rng() % static_cast<std::uint64_t>(
                                               m.rgb.height() - h + 1));
    const std::uint64_t key = (static_cast<std::uint64_t>(&m - &mosaics[0])
                               << 48) ^
                              (static_cast<std::uint64_t>(x) << 32) ^
                              (static_cast<std::uint64_t>(y) << 16) ^
                              static_cast<std::uint64_t>(w * 8 + h);
    if (!seen.insert(key).second) continue;
    out.push_back(Input{img::crop(m.rgb, x, y, w, h),
                        img::crop(m.labels, x, y, w, h)});
  }
  return out;
}

/// Serial references for `inputs`, computed on `threads` threads that each
/// own a model clone. Tile-multiple scenes go through
/// InferenceWorkflow::classify_scene; ragged scenes through a one-replica
/// InferenceSession, the serial path that edge-pads like the server.
std::vector<img::ImageU8> references(const std::vector<const Input*>& inputs,
                                     std::size_t threads) {
  std::vector<img::ImageU8> out(inputs.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(threads);
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        try {
          nn::UNet model(serve_model_config());
          core::InferenceWorkflow workflow(model, {}, kTile);
          core::InferenceSessionConfig session_cfg;
          session_cfg.tile_size = kTile;
          session_cfg.replicas = 1;
          core::InferenceSession session(model, session_cfg);
          for (std::size_t i = next++; i < inputs.size(); i = next++) {
            const auto& rgb = inputs[i]->rgb;
            out[i] = rgb.width() % kTile == 0 && rgb.height() % kTile == 0
                         ? workflow.classify_scene(rgb)
                         : session.classify_scene(rgb);
          }
        } catch (...) {
          errors[t] = std::current_exception();
        }
      });
    }
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return out;
}

std::size_t matching_pixels(const img::ImageU8& a, const img::ImageU8& b) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    n += a.data()[i] == b.data()[i];
  }
  return n;
}

// ---------------------------------------------------------------------------
// Open loop
// ---------------------------------------------------------------------------

struct Arrival {
  double due_s = 0.0;
  std::size_t input = 0;
  pv::SubmitOptions options;
};

/// Open-loop arrivals at one fixed rate: exactly qps * seconds of them,
/// arrival i due at a seeded uniform point of its slot [i, i+1) / qps, so
/// every seed offers the same load with a different interleaving. The
/// priority mix is 25/50/25 interactive/normal/batch; `pick` chooses each
/// arrival's input.
template <typename PickFn>
std::vector<Arrival> fixed_rate_schedule(double qps, double seconds,
                                         std::chrono::milliseconds deadline,
                                         util::Rng& rng, PickFn&& pick) {
  const auto n = static_cast<std::size_t>(qps * seconds);
  std::vector<Arrival> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    Arrival& a = out[i];
    a.due_s = (static_cast<double>(i) + unit(rng)) / qps;
    const double u = unit(rng);
    if (u < 0.25) {
      a.options.priority = pv::Priority::kInteractive;
      a.options.deadline = deadline;
    } else if (u >= 0.75) {
      a.options.priority = pv::Priority::kBatch;
    }
    a.input = pick(rng);
  }
  return out;
}

/// Per-arrival results of one open-loop window. Each index is written by
/// one thread (the generator for rejections, the reaper otherwise) and read
/// after both joined.
struct LoopResult {
  std::vector<Outcome> outcome;
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  std::vector<double> submit_us;
  std::vector<img::ImageU8> planes;  // completed only
  std::vector<Clock::time_point> due, sent, done;
};

/// Runs `schedule` open loop. The reaper polls outstanding tickets every
/// `poll` while none resolves: fine enough to resolve the workload's
/// fastest requests, coarse enough to leave the cores to the server.
template <typename Ticket, typename SubmitFn>
LoopResult open_loop(const std::vector<Arrival>& schedule, SubmitFn&& submit,
                     std::chrono::microseconds poll) {
  const std::size_t n = schedule.size();
  LoopResult r;
  r.outcome.assign(n, Outcome::kFailed);
  r.latency_ms.assign(n, 0.0);
  r.lag_ms.assign(n, 0.0);
  r.submit_us.assign(n, 0.0);
  r.planes.resize(n);
  r.due.resize(n);
  r.sent.resize(n);
  r.done.resize(n);

  struct Pending {
    Ticket ticket;
    std::size_t index;
  };
  std::mutex mailbox_mutex;
  std::vector<Pending> mailbox;
  std::atomic<bool> generator_done{false};
  std::exception_ptr generator_error;

  const auto start = Clock::now() + std::chrono::milliseconds(20);
  {
    std::jthread generator([&] {
      try {
        for (std::size_t i = 0; i < n; ++i) {
          const auto due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(schedule[i].due_s));
          std::this_thread::sleep_until(due);
          const auto sent = Clock::now();
          r.due[i] = due;
          r.sent[i] = sent;
          r.lag_ms[i] = ms_between(due, sent);
          try {
            Ticket ticket = submit(schedule[i], i);
            r.submit_us[i] = ms_between(sent, Clock::now()) * 1e3;
            const std::scoped_lock lock(mailbox_mutex);
            mailbox.push_back(Pending{std::move(ticket), i});
          } catch (const pv::AdmissionRejected&) {
            r.outcome[i] = Outcome::kRejected;
            r.done[i] = Clock::now();
          }
        }
      } catch (...) {
        generator_error = std::current_exception();
      }
      generator_done.store(true);
    });

    std::jthread reaper([&] {
      ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
      std::vector<Pending> pending;
      std::optional<Clock::time_point> drain_deadline;
      for (;;) {
        const bool finished = generator_done.load();
        {
          const std::scoped_lock lock(mailbox_mutex);
          for (auto& p : mailbox) pending.push_back(std::move(p));
          mailbox.clear();
        }
        bool progressed = false;
        for (std::size_t k = 0; k < pending.size();) {
          if (!pending[k].ticket.ready()) {
            ++k;
            continue;
          }
          const auto observed = Clock::now();
          const std::size_t i = pending[k].index;
          r.done[i] = observed;
          try {
            r.planes[i] = pending[k].ticket.get();
            r.outcome[i] = Outcome::kCompleted;
            r.latency_ms[i] = ms_between(r.due[i], observed);
          } catch (const pv::DeadlineExceeded&) {
            r.outcome[i] = Outcome::kShed;
          } catch (const pv::AdmissionRejected&) {
            r.outcome[i] = Outcome::kRejected;
          } catch (...) {
            r.outcome[i] = Outcome::kFailed;
          }
          pending[k] = std::move(pending.back());
          pending.pop_back();
          progressed = true;
        }
        if (finished && pending.empty()) {
          const std::scoped_lock lock(mailbox_mutex);
          if (mailbox.empty()) return;
        }
        if (finished && !drain_deadline) {
          drain_deadline = Clock::now() + kDrainTimeout;
        }
        if (drain_deadline && Clock::now() > *drain_deadline) {
          for (auto& p : pending) p.ticket.cancel();
          return;  // the rest stay kFailed
        }
        if (!progressed) {
          std::this_thread::sleep_for(poll);
        }
      }
    });
  }
  if (generator_error) std::rethrow_exception(generator_error);
  return r;
}

/// End-to-end metrics every serving workload reports, plus the generator
/// validity check. `inputs[k]` is the input of arrival k. Accuracy counts
/// each served scene once, so a seed's few hot scenes do not dominate it.
void report_serving(const LoopResult& r,
                    const std::vector<const Input*>& inputs,
                    double limit_ms, double seconds, Record& record) {
  std::vector<RequestRecord> records;
  std::vector<double> latencies;
  std::unordered_set<const Input*> scored;
  std::size_t match = 0, pixels = 0;
  for (std::size_t i = 0; i < r.outcome.size(); ++i) {
    records.push_back({r.outcome[i], r.latency_ms[i], inputs[i]->mpix()});
    if (r.outcome[i] != Outcome::kCompleted) continue;
    latencies.push_back(r.latency_ms[i]);
    if (scored.insert(inputs[i]).second) {
      match += matching_pixels(r.planes[i], inputs[i]->truth);
      pixels += inputs[i]->truth.size();
    }
  }
  // Goodput per second of the delivery window: from the first due time to
  // the last resolution, so a backlog that outlasts the offered window
  // lowers it even when every request is eventually served.
  Clock::time_point last = r.due.empty() ? Clock::time_point{} : r.due.front();
  for (std::size_t i = 0; i < r.done.size(); ++i) {
    last = std::max({last, r.done[i], r.due[i]});
  }
  const double window_s =
      r.due.empty() ? seconds : ms_between(r.due.front(), last) / 1e3;
  const Goodput g = goodput(records, limit_ms, window_s);
  record.e2e("mpix_per_s", g.mpix_per_s, "Mpix/s");
  report_latency(latencies, record);
  record.e2e("auto_filtered_acc",
             pixels ? 100.0 * static_cast<double>(match) / pixels : 0.0, "%");
  record.note("goodput", std::to_string(g.good) + " of " +
                             std::to_string(records.size()) +
                             " requests within " + std::to_string(limit_ms) +
                             " ms; goodput_qps " + std::to_string(g.qps));
  const auto lag = tail(r.lag_ms);
  const double lag_ms = lag ? lag->value : 0.0;
  if (lag_ms > kMaxLagMs) {
    throw std::runtime_error("generator fell behind its schedule: p99 lag " +
                             std::to_string(lag_ms) + " ms");
  }
}

/// Counts outcomes into the record: incorrect and failed requests are
/// failed operations; shed and rejected ones are misses, not failures.
void count_outcomes(const LoopResult& r, Record& record) {
  std::size_t shed = 0, rejected = 0;
  for (std::size_t i = 0; i < r.outcome.size(); ++i) {
    ++record.attempted;
    switch (r.outcome[i]) {
      case Outcome::kIncorrect:
        record.fail("request " + std::to_string(i) +
                    ": plane differs from its serial reference");
        break;
      case Outcome::kFailed:
        record.fail("request " + std::to_string(i) + " failed");
        break;
      case Outcome::kShed:
        ++shed;
        break;
      case Outcome::kRejected:
        ++rejected;
        break;
      case Outcome::kCompleted:
        break;
    }
  }
  record.note("misses", std::to_string(shed) + " shed, " +
                            std::to_string(rejected) + " rejected");
}

obs::HistogramSample delta(const obs::Snapshot& after,
                           const obs::Snapshot& before,
                           const std::string& name) {
  const auto* a = after.find_histogram(name);
  const auto* b = before.find_histogram(name);
  if (a == nullptr) return {};
  return b ? obs::histogram_delta(*a, *b) : *a;
}

void layer_quantiles(Record& record, const std::string& name,
                     const obs::HistogramSample& seconds) {
  record.layer(name + "_p50", seconds.percentile(0.50) * 1e3, "ms");
  record.layer(name + "_p99", seconds.percentile(0.99) * 1e3, "ms");
}

/// The tail rule of harness.h; the maximum when too few samples exist for
/// it, as report_latency does.
void layer_tail(Record& record, const std::string& name,
                const std::vector<double>& values, const std::string& unit) {
  const auto t = tail(values);
  record.layer(name,
               t ? t->value
                 : (values.empty()
                        ? 0.0
                        : *std::max_element(values.begin(), values.end())),
               unit);
}

/// Spans of one open-loop window: a root span per request from its due
/// time to its observed resolution, with the submit call as a child.
void loop_spans(const LoopResult& r, SpanLog& spans,
                const std::vector<Clock::time_point>* prepare_start = nullptr,
                const std::vector<Clock::time_point>* prepare_end = nullptr) {
  for (std::size_t i = 0; i < r.outcome.size(); ++i) {
    if (r.outcome[i] != Outcome::kCompleted) continue;
    const auto id = spans.add("request", r.due[i], r.done[i], -1, i);
    spans.add("submit", r.sent[i],
              r.sent[i] + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::micro>(
                                  r.submit_us[i])),
              id, i);
    if (prepare_start != nullptr && (*prepare_start)[i] != Clock::time_point{}) {
      spans.add("serve.prepare", (*prepare_start)[i], (*prepare_end)[i], id, i);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// serve_unique
// ---------------------------------------------------------------------------

void run_serve_unique(const WorkloadOptions& o, Record& record) {
  // About 40% of the in-process server's capacity for this size mix (its
  // latency knee is near 30 qps on 4 vCPUs): headroom so that CPU taken by
  // a shared host slows requests instead of building a backlog.
  const double qps = o.mini ? 10.0 : 12.0;
  const double seconds = o.seconds;
  constexpr double kLimitMs = 250.0;
  const auto deadline = std::chrono::milliseconds(500);
  // 128^2 and 192^2 scenes, plus a ragged 160x144 one the server pads.
  const std::vector<std::pair<int, int>> sizes{
      {128, 128}, {128, 128}, {192, 192}, {192, 192}, {160, 144}};

  std::vector<Input> inputs;
  std::vector<Arrival> schedule;
  std::unique_ptr<nn::UNet> model;
  std::unique_ptr<pv::SceneServer> server;
  measure_setup(o.mini ? 1 : kSetupReps, record, [&] {
    server.reset();
    util::Rng rng(o.seed);
    const auto mosaics = make_mosaics(o.seed, 4, 512);
    std::size_t next = 0;
    schedule = fixed_rate_schedule(qps, seconds, deadline, rng,
                                [&](util::Rng&) { return next++; });
    inputs = make_inputs(mosaics, schedule.size() + 1, sizes, rng);
    model = std::make_unique<nn::UNet>(serve_model_config());
    pv::SceneServerConfig cfg;
    cfg.tile_size = kTile;
    server = std::make_unique<pv::SceneServer>(*model, cfg);
    // Warm-up on the one input no arrival uses.
    (void)server->classify_scene(inputs.back().rgb);
  });

  const std::size_t n = schedule.size();
  std::vector<Clock::time_point> prepare_start(n), prepare_end(n);
  (void)obs::ServeInstruments::get();
  const auto before = obs::registry().snapshot();
  const auto stats_before = server->snapshot();
  util::mem_reset_peak();
  SpanLog spans;
  LoopResult r = open_loop<pv::SceneTicket>(
      schedule, [&](const Arrival& a, std::size_t i) {
        if (!o.trace) return server->submit(inputs[a.input].rgb, a.options);
        const par::ExecutionContext ctx;
        ctx.set_progress_sink([&, i](const par::ProgressEvent& e) {
          if (std::string_view(e.stage) != "serve.prepare") return;
          (e.completed == 0 ? prepare_start : prepare_end)[i] = Clock::now();
        });
        return server->submit(inputs[a.input].rgb, a.options, ctx);
      },
      std::chrono::microseconds(250));
  const double peak_mb = static_cast<double>(util::mem_peak_bytes()) / kMiB;
  const auto after = obs::registry().snapshot();
  const auto stats_after = server->snapshot();
  const int batch_tiles = server->config().batch_tiles;
  server.reset();  // drained; no progress sink fires after this

  // Verification, outside the timed window.
  std::vector<const Input*> per_arrival;
  for (const auto& a : schedule) per_arrival.push_back(&inputs[a.input]);
  std::vector<const Input*> completed;
  std::vector<std::size_t> completed_index;
  for (std::size_t i = 0; i < n; ++i) {
    if (r.outcome[i] != Outcome::kCompleted) continue;
    completed.push_back(per_arrival[i]);
    completed_index.push_back(i);
  }
  const auto refs = references(completed, o.threads);
  for (std::size_t k = 0; k < refs.size(); ++k) {
    if (r.planes[completed_index[k]] != refs[k]) {
      r.outcome[completed_index[k]] = Outcome::kIncorrect;
    }
  }
  count_outcomes(r, record);
  report_serving(r, per_arrival, kLimitMs, seconds, record);
  record.e2e("peak_mb", peak_mb, "MiB");
  record.note("serve_unique", std::to_string(n) + " requests at " +
                                  std::to_string(qps) + " qps");
  if (!o.trace) return;

  std::vector<double> prepare_ms;
  for (std::size_t i = 0; i < n; ++i) {
    if (prepare_end[i] != Clock::time_point{}) {
      prepare_ms.push_back(ms_between(prepare_start[i], prepare_end[i]));
    }
  }
  const auto batches =
      static_cast<double>(stats_after.batches - stats_before.batches);
  const auto tiles = static_cast<double>(stats_after.session.tiles -
                                         stats_before.session.tiles);
  const auto cross = static_cast<double>(stats_after.cross_scene_batches -
                                         stats_before.cross_scene_batches);
  layer_tail(record, "serve.submit_us_p99", r.submit_us, "us");
  record.layer("serve.submit_us_p50", median(r.submit_us), "us");
  layer_quantiles(record, "serve.queue_wait_ms",
                  delta(after, before, "serve_queue_wait_seconds"));
  record.layer("serve.prepare_ms", median(prepare_ms), "ms");
  record.layer("serve.forward_ms",
               delta(after, before, "serve_forward_seconds").percentile(0.5) *
                   1e3,
               "ms");
  record.layer("serve.stitch_ms",
               delta(after, before, "serve_stitch_seconds").percentile(0.5) *
                   1e3,
               "ms");
  record.layer("serve.batch_fill",
               batches > 0 ? tiles / batches / batch_tiles : 0.0,
               "ratio");
  record.layer("serve.cross_scene_share", batches > 0 ? cross / batches : 0.0,
               "ratio");
  record.layer("serve.peak_replicas",
               static_cast<double>(stats_after.peak_replicas), "count");
  record.layer("serve.peak_queue_depth",
               static_cast<double>(stats_after.peak_queue_depth), "count");
  record.layer("serve.shed",
               static_cast<double>(stats_after.shed - stats_before.shed),
               "count");
  record.layer("serve.rejected",
               static_cast<double>(stats_after.rejected - stats_before.rejected),
               "count");
  layer_tail(record, "gen.lag_ms", r.lag_ms, "ms");
  loop_spans(r, spans, &prepare_start, &prepare_end);
  record.spans = spans.spans();
}

// ---------------------------------------------------------------------------
// serve_repeat
// ---------------------------------------------------------------------------

namespace {

/// Two polarice_worker processes on unix sockets inside the run directory,
/// fronted by a ShardRouter. Destruction stops the router, then SIGTERMs
/// and reaps the workers, then removes the socket directory.
class Fleet {
 public:
  explicit Fleet(const WorkloadOptions& o) {
    dir_ = o.run_dir + "/fleet-" + std::to_string(::getpid());
    std::filesystem::create_directories(dir_);
    shard::ShardRouterConfig cfg;
    for (int i = 0; i < 2; ++i) {
      const std::string spec =
          "unix:" + dir_ + "/w" + std::to_string(i) + ".sock";
      cfg.shards.push_back(net::Endpoint::parse(spec));
      // Small worker pools: one warm replica, two at most; a 1 MiB cache.
      workers_.emplace_back(o.worker_bin,
                            std::vector<std::string>{
                                "--listen", spec, "--tile_size",
                                std::to_string(kTile), "--min_replicas", "1",
                                "--max_replicas", "2", "--cache_mb", "1"});
    }
    cfg.dispatchers = 8;
    router_ = std::make_unique<shard::ShardRouter>(cfg);
    if (!router_->wait_for_healthy(2, std::chrono::milliseconds(15000))) {
      throw std::runtime_error("shard fleet did not come up (worker binary " +
                               o.worker_bin + ")");
    }
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() {
    router_.reset();
    workers_.clear();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  shard::ShardRouter& router() { return *router_; }

 private:
  std::string dir_;
  std::vector<bench::ChildProcess> workers_;
  std::unique_ptr<shard::ShardRouter> router_;
};

struct FleetCounters {
  std::uint64_t hits = 0, misses = 0;
  std::size_t evictions = 0, coalesced = 0, submitted = 0;
  std::vector<std::size_t> dispatched;
  std::size_t failovers = 0, dispatch_errors = 0;
};

FleetCounters read_counters(shard::ShardRouter& router) {
  FleetCounters c;
  for (const auto& scrape : router.scrape_metrics()) {
    if (!scrape) throw std::runtime_error("worker metrics scrape failed");
    const auto snapshot = obs::parse_text(scrape->text);
    if (const auto* h = snapshot.find_counter("serve_cache_hits_total")) {
      c.hits += h->value;
    }
    if (const auto* m = snapshot.find_counter("serve_cache_misses_total")) {
      c.misses += m->value;
    }
  }
  const auto stats = router.stats();
  for (const auto& s : stats.shards) {
    c.evictions += s.stats.cache_evictions;
    c.coalesced += s.stats.coalesced;
    c.submitted += s.stats.submitted;
    c.dispatched.push_back(s.dispatched);
  }
  c.failovers = stats.failovers;
  c.dispatch_errors = stats.dispatch_errors;
  return c;
}

}  // namespace

void run_serve_repeat(const WorkloadOptions& o, Record& record) {
  const double qps = o.mini ? 40.0 : 60.0;
  const double seconds = o.seconds;
  constexpr double kLimitMs = 100.0;
  const auto deadline = std::chrono::milliseconds(500);
  // 128^2 planes are 16 KiB: 160 of them are 2.5x one worker's 1 MiB cache.
  const std::size_t working_set = o.mini ? 32 : 160;
  constexpr double kZipfS = 1.0;
  constexpr std::size_t kBurstEvery = 20;  // one arrival in 20 comes as 3
  constexpr int kBurst = 3;
  // Unmeasured traffic before the window so the caches reach steady state:
  // the window's misses are capacity and cold-tail misses, not the start.
  const double kWarmupSeconds = o.mini ? 0.5 : 3.0;

  std::vector<Input> inputs;
  std::vector<img::ImageU8> refs;
  std::vector<Arrival> warmup, schedule;
  std::unique_ptr<Fleet> fleet;
  measure_setup(o.mini ? 1 : kSetupReps, record, [&] {
    fleet.reset();
    util::Rng rng(o.seed);
    const auto mosaics = make_mosaics(o.seed, 4, 512);
    inputs = make_inputs(mosaics, working_set + 1, {{128, 128}}, rng);
    std::vector<const Input*> all;
    for (const auto& in : inputs) all.push_back(&in);
    refs = references(all, o.threads);

    // Zipf over the working set; a burst repeats a uniformly drawn (and so
    // usually cold) scene so concurrent misses coalesce.
    std::vector<double> cdf(working_set);
    double sum = 0.0;
    for (std::size_t k = 0; k < working_set; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), kZipfS);
      cdf[k] = sum;
    }
    const auto make_schedule = [&](double window_s) {
      auto arrivals = fixed_rate_schedule(
          qps / (1.0 + (kBurst - 1.0) / kBurstEvery), window_s, deadline, rng,
          [&](util::Rng& g) {
            const double u = unit(g) * sum;
            return static_cast<std::size_t>(
                std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
          });
      std::vector<Arrival> with_bursts;
      const std::size_t burst_slot = rng() % kBurstEvery;
      for (std::size_t i = 0; i < arrivals.size(); ++i) {
        if (i % kBurstEvery == burst_slot) {
          Arrival burst = arrivals[i];
          burst.input = rng() % working_set;
          for (int b = 0; b < kBurst; ++b) with_bursts.push_back(burst);
        } else {
          with_bursts.push_back(arrivals[i]);
        }
      }
      return with_bursts;
    };
    warmup = make_schedule(kWarmupSeconds);
    schedule = make_schedule(seconds);
    fleet = std::make_unique<Fleet>(o);
    // Warm-up on the one input no arrival uses.
    (void)fleet->router().classify_scene(inputs.back().rgb);
  });

  auto& router = fleet->router();
  const auto submit = [&](const Arrival& a, std::size_t) {
    return router.submit(inputs[a.input].rgb, a.options);
  };
  // Hits resolve in about a millisecond: poll finely.
  constexpr std::chrono::microseconds kPoll{50};
  const LoopResult warm =
      open_loop<shard::ShardTicket>(warmup, submit, kPoll);
  for (std::size_t i = 0; i < warmup.size(); ++i) {
    if (warm.outcome[i] == Outcome::kCompleted &&
        warm.planes[i] != refs[warmup[i].input]) {
      record.fail("warm-up request " + std::to_string(i) +
                  ": plane differs from its serial reference");
    }
  }
  (void)obs::RouterInstruments::get();
  const auto before = obs::registry().snapshot();
  const FleetCounters counters_before = read_counters(router);
  util::mem_reset_peak();
  SpanLog spans;
  LoopResult r = open_loop<shard::ShardTicket>(schedule, submit, kPoll);
  const double peak_mb = static_cast<double>(util::mem_peak_bytes()) / kMiB;
  const auto after = obs::registry().snapshot();
  // Heartbeats carry the workers' server counters; wait one round.
  std::this_thread::sleep_for(2 * router.config().heartbeat_period);
  const FleetCounters counters_after = read_counters(router);

  std::vector<const Input*> per_arrival;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    per_arrival.push_back(&inputs[schedule[i].input]);
    if (r.outcome[i] == Outcome::kCompleted &&
        r.planes[i] != refs[schedule[i].input]) {
      r.outcome[i] = Outcome::kIncorrect;
    }
  }
  count_outcomes(r, record);
  report_serving(r, per_arrival, kLimitMs, seconds, record);
  record.e2e("peak_mb", peak_mb, "MiB");
  record.note("serve_repeat", std::to_string(schedule.size()) +
                                  " requests at " + std::to_string(qps) +
                                  " qps over " + std::to_string(working_set) +
                                  " scenes");
  if (!o.trace) return;

  const double hits = static_cast<double>(counters_after.hits -
                                          counters_before.hits);
  const double misses = static_cast<double>(counters_after.misses -
                                            counters_before.misses);
  record.layer("cache.hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  record.layer("cache.evictions",
               static_cast<double>(counters_after.evictions -
                                   counters_before.evictions),
               "count");
  const double worker_submitted = static_cast<double>(
      counters_after.submitted - counters_before.submitted);
  record.layer("serve.coalesced_share",
               worker_submitted > 0
                   ? static_cast<double>(counters_after.coalesced -
                                         counters_before.coalesced) /
                         worker_submitted
                   : 0.0,
               "ratio");
  layer_quantiles(record, "router.dispatch_ms",
                  delta(after, before, "router_dispatch_seconds"));
  layer_quantiles(record, "net.wire_roundtrip_ms",
                  delta(after, before, "router_wire_roundtrip_seconds"));
  double max_dispatched = 0.0, sum_dispatched = 0.0;
  for (std::size_t s = 0; s < counters_after.dispatched.size(); ++s) {
    const auto d = static_cast<double>(counters_after.dispatched[s] -
                                       counters_before.dispatched[s]);
    max_dispatched = std::max(max_dispatched, d);
    sum_dispatched += d;
  }
  record.layer("router.placement_skew",
               sum_dispatched > 0
                   ? max_dispatched /
                         (sum_dispatched /
                          static_cast<double>(counters_after.dispatched.size()))
                   : 0.0,
               "ratio");
  record.layer("router.failovers",
               static_cast<double>(counters_after.failovers -
                                   counters_before.failovers),
               "count");
  record.layer("router.dispatch_errors",
               static_cast<double>(counters_after.dispatch_errors -
                                   counters_before.dispatch_errors),
               "count");

  // hash_scene and submit-frame encode, timed per working-set scene.
  std::vector<double> hash_us, encode_us;
  for (std::size_t k = 0; k < working_set; ++k) {
    const auto t0 = Clock::now();
    const auto key = pv::hash_scene(inputs[k].rgb);
    const auto t1 = Clock::now();
    shard::SubmitRequest request;
    request.request_id = key.hash_lo;
    request.scene = inputs[k].rgb.clone();
    const auto t2 = Clock::now();
    const auto frame = shard::encode(request);
    const auto t3 = Clock::now();
    if (frame.empty()) record.fail("empty submit frame");
    hash_us.push_back(ms_between(t0, t1) * 1e3);
    encode_us.push_back(ms_between(t2, t3) * 1e3);
  }
  record.layer("cache.hash_us", median(hash_us), "us");
  record.layer("net.encode_us", median(encode_us), "us");
  layer_tail(record, "gen.lag_ms", r.lag_ms, "ms");
  loop_spans(r, spans);
  record.spans = spans.spans();
}

}  // namespace polarice::e2e
