// Batch workloads: the paper's auto-labeling corpus build (corpus_autolabel)
// and its Fig 2 training workflow (fig2_train), plus the nn/tensor probes.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/support.h"
#include "core/corpus.h"
#include "core/stages.h"
#include "core/streaming.h"
#include "core/workflow.h"
#include "nn/optimizer.h"
#include "nn/unet.h"
#include "tensor/conv.h"
#include "tensor/gemm.h"
#include "util/hash.h"
#include "util/mem_stats.h"
#include "util/rng.h"
#include "workloads.h"

namespace polarice::e2e {
namespace {

std::uint64_t acquisition_seed(std::uint64_t workload_seed) {
  return 2019 + 1000 * workload_seed;
}

/// Whether another unit of work lasting about `last_s` should start: only
/// while at least half of it would end inside the `seconds` window, so a
/// run measures close to `seconds` however long one unit takes.
bool window_open(Clock::time_point start, double seconds, double last_s) {
  return ms_between(start, Clock::now()) / 1e3 + 0.5 * last_s < seconds;
}

void fnv_plane(util::Fnv128& h, const img::ImageU8& plane) {
  h.update_le(plane.width());
  h.update_le(plane.height());
  h.update_le(plane.channels());
  h.update(plane.data(), plane.size());
}

/// Digest of one scene's tiles (every plane, in tile order).
std::pair<std::uint64_t, std::uint64_t> scene_digest(
    const std::vector<core::LabeledTile>& tiles, int scene) {
  util::Fnv128 h;
  for (const auto& t : tiles) {
    if (t.scene_index != scene) continue;
    h.update_le(t.tile_x);
    h.update_le(t.tile_y);
    h.update_le(t.cloud_fraction);
    for (const auto* plane : {&t.rgb, &t.rgb_filtered, &t.rgb_clean, &t.truth,
                              &t.auto_labels, &t.manual_labels}) {
      fnv_plane(h, *plane);
    }
  }
  return {h.lo, h.hi};
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> scene_digests(
    const std::vector<core::LabeledTile>& tiles, int scenes) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (int s = 0; s < scenes; ++s) out.push_back(scene_digest(tiles, s));
  return out;
}

// ---------------------------------------------------------------------------
// corpus_autolabel
// ---------------------------------------------------------------------------

core::CorpusConfig corpus_config(const WorkloadOptions& o) {
  core::CorpusConfig cfg;
  cfg.acquisition.num_scenes = o.mini ? 2 : 16;
  cfg.acquisition.scene_size = o.mini ? 256 : 512;
  cfg.acquisition.tile_size = 128;
  cfg.acquisition.cloudy_scene_fraction = 0.5;
  cfg.acquisition.seed = acquisition_seed(o.seed);
  cfg.execution = core::CorpusExecution::streaming(o.threads);
  return cfg;
}

/// Per-layer metric name of each corpus stage.
std::string corpus_layer(const std::string& stage) {
  if (stage == "acquire") return "s2.acquire_ms";
  if (stage == "cloud_filter") return "core.cloud_filter_ms";
  if (stage == "auto_label") return "core.autolabel_ms";
  if (stage == "manual_label") return "s2.manual_label_ms";
  if (stage == "tile_split") return "core.tile_split_ms";
  return "core." + stage + "_ms";
}

/// [start, end] of every (scene, stage) call of one build. Each scene runs
/// its stages one after another inside one task, so every row has a single
/// writer and the table needs no lock.
struct StageTimes {
  StageTimes(std::size_t scenes, std::size_t stages)
      : stages(stages), start(scenes * stages), end(scenes * stages) {}
  std::size_t stages;
  std::vector<Clock::time_point> start, end;
};

/// Times each SceneStage::run_scene call of the wrapped stage.
class TimedStage final : public core::SceneStage {
 public:
  TimedStage(std::unique_ptr<core::SceneStage> inner, std::size_t position,
             StageTimes& times)
      : inner_(std::move(inner)), position_(position), times_(times) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::vector<std::string> consumes() const override {
    return inner_->consumes();
  }
  [[nodiscard]] std::vector<std::string> produces() const override {
    return inner_->produces();
  }
  void run(const par::ExecutionContext& ctx,
           core::ArtifactStore& store) override {
    inner_->run(ctx, store);
  }
  void run_scene(const par::ExecutionContext& ctx,
                 core::SceneSlot& slot) const override {
    const auto t0 = Clock::now();
    inner_->run_scene(ctx, slot);
    const std::size_t cell = slot.index * times_.stages + position_;
    times_.start[cell] = t0;
    times_.end[cell] = Clock::now();
  }

 private:
  std::unique_ptr<core::SceneStage> inner_;
  std::size_t position_;
  StageTimes& times_;
};

// ---------------------------------------------------------------------------
// fig2_train
// ---------------------------------------------------------------------------

constexpr int kTrainEpochs = 5;
// Floor for U-Net-Auto on filtered test tiles at this config (seeds 1-8
// measured 0.88-0.91).
constexpr double kAutoFilteredFloor = 0.85;

core::WorkflowConfig train_config(const WorkloadOptions& o) {
  const char* argv[] = {"e2e_bench"};
  const util::Args args(1, argv);
  auto cfg = bench::default_workflow(args);
  cfg.acquisition.seed = acquisition_seed(o.seed);
  cfg.training.epochs = o.mini ? 1 : kTrainEpochs;
  if (o.mini) {
    cfg.acquisition.num_scenes = 2;
    cfg.acquisition.scene_size = 128;
  }
  return cfg;
}

std::string pipeline_layer(std::string stage) {
  for (auto& c : stage) {
    if (c == ':') c = '-';
  }
  return "pipeline." + stage + "_ms";
}

/// Progress events of one workflow run with their arrival times.
struct ProgressLog {
  struct Event {
    std::string stage;
    std::size_t completed = 0;
    Clock::time_point at;
  };
  std::mutex mutex;
  std::vector<Event> events;

  void attach(const par::ExecutionContext& ctx) {
    ctx.set_progress_sink([this](const par::ProgressEvent& e) {
      const auto now = Clock::now();
      const std::scoped_lock lock(mutex);
      events.push_back({e.stage, e.completed, now});
    });
  }
};

// ---------------------------------------------------------------------------
// nn probes
// ---------------------------------------------------------------------------

double conv_flops(int cin, int cout, int k, int h, int w) {
  return 2.0 * cin * cout * k * k * static_cast<double>(h) * w;
}

struct UNetFlops {
  double forward = 0.0;   // per sample
  double backward = 0.0;  // dW for every conv, dX for all but the first
};

/// Counted multiply-adds (x2) of every conv of the U-Net, as unet.cpp
/// builds it: encoder blocks, bottleneck, 2x2 up-convs at the upsampled
/// resolution, decoder blocks, and the 1x1 head.
UNetFlops unet_flops(const nn::UNetConfig& m, int tile) {
  UNetFlops f;
  int ch = m.base_channels;
  int in = m.in_channels;
  double first = 0.0;
  for (int level = 0; level < m.depth; ++level) {
    const int s = tile >> level;
    const double c1 = conv_flops(in, ch, 3, s, s);
    if (level == 0) first = c1;
    f.forward += c1 + conv_flops(ch, ch, 3, s, s);
    in = ch;
    ch *= 2;
  }
  const int sb = tile >> m.depth;
  f.forward += conv_flops(in, ch, 3, sb, sb) + conv_flops(ch, ch, 3, sb, sb);
  for (int level = m.depth - 1; level >= 0; --level) {
    const int skip = m.base_channels << level;
    const int s = tile >> level;
    f.forward += conv_flops(2 * skip, skip, 2, s, s) +
                 conv_flops(2 * skip, skip, 3, s, s) +
                 conv_flops(skip, skip, 3, s, s);
  }
  f.forward += conv_flops(m.base_channels, m.num_classes, 1, tile, tile);
  f.backward = 2.0 * f.forward - first;
  return f;
}

void fill_uniform(tensor::Tensor& t, util::Rng& rng) {
  float* p = t.data();
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    p[i] = static_cast<float>((rng() >> 40) * (1.0 / (1ULL << 24)));
  }
}

}  // namespace

void report_latency(const std::vector<double>& latencies_ms, Record& record) {
  const double p50 = median(latencies_ms);
  record.e2e("p50_ms", p50, "ms");
  const auto t = tail(latencies_ms);
  if (t && t->value >= p50) {
    record.e2e("p99_ms", t->value, "ms");
    record.note("p99_ms", "percentile " + std::to_string(t->q) + " of " +
                              std::to_string(t->n) + " samples");
    return;
  }
  // Too few samples for any percentile at or above the median to have ten
  // beyond it: the maximum is the only tail the sample supports.
  const double max = latencies_ms.empty()
                         ? 0.0
                         : *std::max_element(latencies_ms.begin(),
                                             latencies_ms.end());
  record.e2e("p99_ms", max, "ms");
  record.note("p99_ms", "maximum of " + std::to_string(latencies_ms.size()) +
                            " samples (too few for the ten-beyond rule)");
}

void run_corpus_autolabel(const WorkloadOptions& o, Record& record) {
  const core::CorpusConfig cfg = corpus_config(o);
  const par::ExecutionContext ctx(o.pool, o.seed);
  const int scenes = cfg.acquisition.num_scenes;
  const double scene_mpix =
      static_cast<double>(cfg.acquisition.scene_size) *
      cfg.acquisition.scene_size / 1e6;

  // Setup: the batch-executed reference for the workload's first scenes
  // (scene synthesis plus the whole graph). AcquireStage makes the first
  // round(fraction * scenes) scenes cloudy, so the smaller reference fleet
  // gets the fraction that keeps each of its scenes as cloudy as in the
  // full fleet.
  const int ref_scenes = std::min(scenes, 2);
  const int cloudy = static_cast<int>(
      cfg.acquisition.cloudy_scene_fraction * scenes + 0.5);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> reference;
  measure_setup(o.mini ? 1 : kSetupReps, record, [&] {
    core::CorpusConfig first = cfg;
    first.acquisition.num_scenes = ref_scenes;
    first.acquisition.cloudy_scene_fraction =
        static_cast<double>(std::min(cloudy, ref_scenes)) / ref_scenes;
    first.execution = core::CorpusExecution::batch();
    reference = scene_digests(core::prepare_corpus(first, ctx), ref_scenes);
  });

  auto plain = core::make_corpus_stages(cfg);
  const std::size_t num_stages = plain.size();
  StageTimes times(static_cast<std::size_t>(scenes), num_stages);
  std::vector<std::unique_ptr<core::SceneStage>> stages;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < num_stages; ++i) {
    names.push_back(plain[i]->name());
    stages.push_back(std::make_unique<TimedStage>(std::move(plain[i]), i,
                                                  times));
  }
  const core::StreamingExecutor executor(cfg.execution.window);

  std::vector<double> scene_ms, build_s, peak_mb, overlap;
  std::vector<std::vector<double>> stage_ms(num_stages);
  std::size_t peak_in_flight = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> first_build;
  double acc = 0.0;
  SpanLog spans;
  const auto window_start = Clock::now();
  for (int build = 0; build == 0 || window_open(window_start, o.seconds,
                                               build_s.back());
       ++build) {
    util::mem_reset_peak();
    core::StreamingStats stats;
    const auto t0 = Clock::now();
    const auto tiles =
        executor.run(stages, static_cast<std::size_t>(scenes), ctx, &stats);
    const auto t1 = Clock::now();
    peak_mb.push_back(static_cast<double>(util::mem_peak_bytes()) / kMiB);
    build_s.push_back(ms_between(t0, t1) / 1e3);
    peak_in_flight = std::max(peak_in_flight, stats.peak_in_flight);

    // Correctness: the first scenes match the batch reference; every scene
    // matches the first build; the tile count is the grid's.
    const auto digests = scene_digests(tiles, scenes);
    if (build == 0) first_build = digests;
    record.attempted += static_cast<std::size_t>(scenes);
    for (int s = 0; s < scenes; ++s) {
      const bool ok = digests[s] == first_build[s] &&
                      (s >= ref_scenes || digests[s] == reference[s]);
      if (!ok) {
        record.fail("scene " + std::to_string(s) + " of build " +
                    std::to_string(build) +
                    " differs from its streaming/batch reference");
      }
    }
    if (tiles.size() != static_cast<std::size_t>(
                            cfg.acquisition.total_tiles())) {
      record.fail("corpus tile count " + std::to_string(tiles.size()));
    }
    if (build == 0) {
      std::size_t match = 0, total = 0;
      for (const auto& t : tiles) {
        for (std::size_t i = 0; i < t.truth.size(); ++i) {
          match += t.truth.data()[i] == t.auto_labels.data()[i];
        }
        total += t.truth.size();
      }
      acc = total ? 100.0 * static_cast<double>(match) / total : 0.0;
    }

    double busy_ms = 0.0;
    const std::int64_t build_span =
        o.trace ? spans.add("corpus.build", t0, t1) : -1;
    for (int s = 0; s < scenes; ++s) {
      const std::size_t row = static_cast<std::size_t>(s) * num_stages;
      scene_ms.push_back(
          ms_between(times.start[row], times.end[row + num_stages - 1]));
      const std::int64_t scene_span =
          o.trace ? spans.add("corpus.scene", times.start[row],
                              times.end[row + num_stages - 1], build_span,
                              static_cast<std::uint64_t>(build) * 1000 + s)
                  : -1;
      for (std::size_t k = 0; k < num_stages; ++k) {
        const double ms = ms_between(times.start[row + k], times.end[row + k]);
        stage_ms[k].push_back(ms);
        busy_ms += ms;
        if (o.trace) {
          spans.add(names[k], times.start[row + k], times.end[row + k],
                    scene_span, static_cast<std::uint64_t>(build) * 1000 + s);
        }
      }
    }
    overlap.push_back(busy_ms / ms_between(t0, t1));
  }

  record.note("corpus", std::to_string(build_s.size()) + " builds of " +
                            std::to_string(scenes) + " scenes of " +
                            std::to_string(cfg.acquisition.scene_size) + "^2");
  // Median build, so one build slowed by the host does not move the run.
  record.e2e("mpix_per_s", scene_mpix * scenes / median(build_s), "Mpix/s");
  report_latency(scene_ms, record);
  record.e2e("peak_mb", median(peak_mb), "MiB");
  record.e2e("auto_filtered_acc", acc, "%");
  if (!o.trace) return;
  for (std::size_t k = 0; k < num_stages; ++k) {
    record.layer(corpus_layer(names[k]), median(stage_ms[k]), "ms");
  }
  record.layer("core.stream_overlap", median(overlap), "ratio");
  record.layer("core.stream_peak_in_flight",
               static_cast<double>(peak_in_flight), "count");
  record.spans = spans.spans();
}

void run_fig2_train(const WorkloadOptions& o, Record& record) {
  const core::WorkflowConfig cfg = train_config(o);
  const int scenes = cfg.acquisition.num_scenes;
  const double scene_mpix = static_cast<double>(cfg.acquisition.scene_size) *
                            cfg.acquisition.scene_size / 1e6;

  // Setup: synthesize the scene fleet the workflow will acquire and build
  // both models once (scene synthesis and model init).
  measure_setup(o.mini ? 1 : kSetupReps, record, [&] {
    const par::ExecutionContext ctx(o.pool, o.seed);
    const core::AcquireStage acquire(cfg.acquisition);
    for (int s = 0; s < scenes; ++s) {
      core::SceneSlot slot;
      slot.index = static_cast<std::size_t>(s);
      acquire.run_scene(ctx, slot);
    }
    nn::UNet man(cfg.model), automatic(cfg.model);
  });

  std::vector<std::string> stage_names;
  {
    const auto pipeline = core::TrainingWorkflow(cfg).build_pipeline();
    for (std::size_t i = 0; i < pipeline.size(); ++i) {
      stage_names.push_back(pipeline.stage(i).name());
    }
  }

  std::vector<double> workflow_s, epoch_ms, peak_mb, accuracies;
  std::vector<std::vector<double>> stage_ms(stage_names.size());
  double train_samples = 0.0, train_ms = 0.0;
  SpanLog spans;
  const auto window_start = Clock::now();
  for (int run = 0; run == 0 || window_open(window_start, o.seconds,
                                           workflow_s.back());
       ++run) {
    ProgressLog progress;  // outlives the context whose sink points at it
    const par::ExecutionContext ctx(o.pool, o.seed);
    progress.attach(ctx);
    util::mem_reset_peak();
    core::TrainingWorkflow workflow(cfg);
    const auto t0 = Clock::now();
    const auto result = workflow.run(ctx);
    const auto t1 = Clock::now();
    peak_mb.push_back(static_cast<double>(util::mem_peak_bytes()) / kMiB);
    workflow_s.push_back(ms_between(t0, t1) / 1e3);
    ++record.attempted;

    // Gates: finite losses, the accuracy floor, the Table IV ordering, and
    // run-to-run determinism of the whole workflow.
    bool finite = true;
    for (const auto* history : {&result.man_history, &result.auto_history}) {
      for (const auto& epoch : *history) {
        finite = finite && std::isfinite(epoch.mean_loss);
      }
    }
    const double auto_filtered = result.auto_filtered.accuracy;
    accuracies.push_back(auto_filtered);
    record.note("table_iv",
                "man original/filtered " +
                    std::to_string(result.man_original.accuracy) + "/" +
                    std::to_string(result.man_filtered.accuracy) +
                    ", auto original/filtered " +
                    std::to_string(result.auto_original.accuracy) + "/" +
                    std::to_string(auto_filtered) + ", auto cloudy " +
                    std::to_string(result.auto_cloudy_original.accuracy) +
                    "/" +
                    std::to_string(result.auto_cloudy_filtered.accuracy));
    if (!finite) {
      record.fail("non-finite training loss");
    } else if (auto_filtered < kAutoFilteredFloor && !o.mini) {
      record.fail("U-Net-Auto filtered accuracy " +
                  std::to_string(auto_filtered) + " below the floor");
    } else if (result.auto_cloudy_filtered.accuracy <
                   result.auto_cloudy_original.accuracy &&
               !o.mini) {
      // The filter acts on cloudy tiles; over all test tiles the two
      // variants differ by less than the split noise at this size.
      record.fail("Table IV ordering: U-Net-Auto filtered < original on "
                  "cloudy test tiles");
    } else if (auto_filtered != accuracies.front()) {
      record.fail("workflow run " + std::to_string(run) +
                  " is not deterministic");
    }

    // Stage intervals: Pipeline::run reports "pipeline" (done = i) before
    // stage i and (done = i + 1) after it, so the events alternate. Each
    // "train" event ends one epoch, which began at the previous event.
    const auto request = static_cast<std::uint64_t>(run);
    const std::int64_t root = o.trace ? spans.add("workflow", t0, t1, -1,
                                                  request)
                                      : -1;
    std::vector<Clock::time_point> before(stage_names.size(), t0),
        after(stage_names.size(), t0);
    std::size_t pipeline_events = 0;
    for (const auto& e : progress.events) {
      if (e.stage != "pipeline") continue;
      const std::size_t i = pipeline_events / 2;
      if (i < stage_names.size()) {
        (pipeline_events % 2 == 0 ? before : after)[i] = e.at;
      }
      ++pipeline_events;
    }
    std::vector<std::int64_t> stage_span(stage_names.size(), -1);
    for (std::size_t i = 0; i < stage_names.size(); ++i) {
      const double ms = ms_between(before[i], after[i]);
      stage_ms[i].push_back(ms);
      if (stage_names[i].rfind("train:", 0) == 0) train_ms += ms;
      if (o.trace) {
        stage_span[i] =
            spans.add(stage_names[i], before[i], after[i], root, request);
      }
    }
    Clock::time_point last = t0;
    std::size_t stage = 0;
    for (const auto& e : progress.events) {
      if (e.stage == "train") {
        epoch_ms.push_back(ms_between(last, e.at));
        while (stage + 1 < stage_names.size() && after[stage] < e.at) ++stage;
        if (o.trace) {
          spans.add("nn.epoch", last, e.at, stage_span[stage], request);
        }
      }
      last = e.at;
    }
    train_samples += 2.0 * cfg.training.epochs *
                     std::floor(cfg.train_fraction *
                                cfg.acquisition.total_tiles());
  }

  record.note("fig2_train",
              std::to_string(workflow_s.size()) + " workflows, " +
                  std::to_string(cfg.training.epochs) + " epochs, " +
                  std::to_string(scenes) + " scenes of " +
                  std::to_string(cfg.acquisition.scene_size) + "^2");
  record.e2e("mpix_per_s", scene_mpix * scenes / median(workflow_s),
             "Mpix/s");
  report_latency(epoch_ms, record);
  record.e2e("peak_mb", median(peak_mb), "MiB");
  record.e2e("auto_filtered_acc", 100.0 * accuracies.front(), "%");
  if (!o.trace) return;
  for (std::size_t i = 0; i < stage_names.size(); ++i) {
    record.layer(pipeline_layer(stage_names[i]), median(stage_ms[i]), "ms");
  }
  record.layer("nn.epoch_ms", median(epoch_ms), "ms");
  record.layer("train.samples_per_s", train_samples / (train_ms / 1e3),
               "1/s");
  record.layer("train.workflow_s", median(workflow_s), "s");
  record.spans = spans.spans();
}

void run_nn_probes(const WorkloadOptions& o, Record& record) {
  const int reps = o.mini ? 3 : 15;
  const core::WorkflowConfig cfg = train_config(o);
  const int tile = cfg.acquisition.tile_size;
  const int batch = cfg.training.batch_size;
  util::Rng rng(o.seed);

  // Training step at the Fig 2 geometry, on the benchmark's pool (the
  // pool TrainStage binds its model to).
  nn::UNet model(cfg.model);
  model.set_pool(o.pool);
  tensor::Tensor x({batch, cfg.model.in_channels, tile, tile});
  fill_uniform(x, rng);
  std::vector<int> targets(static_cast<std::size_t>(batch) * tile * tile);
  for (auto& t : targets) t = static_cast<int>(rng() % 3);
  nn::Adam adam(model.params(), cfg.training.learning_rate);
  tensor::Tensor logits, probs, dlogits;
  std::vector<double> fwd, bwd, step;
  for (int i = 0; i < reps + 2; ++i) {
    adam.zero_grad();
    const auto t0 = Clock::now();
    model.forward(x, logits, /*training=*/true);
    const auto t1 = Clock::now();
    const float loss =
        tensor::softmax_cross_entropy(logits, targets, probs, dlogits);
    const auto t2 = Clock::now();
    model.backward(dlogits);
    const auto t3 = Clock::now();
    adam.step();
    const auto t4 = Clock::now();
    if (!std::isfinite(loss)) record.fail("probe loss is not finite");
    if (i < 2) continue;  // warm-up: arenas and caches
    fwd.push_back(ms_between(t0, t1));
    bwd.push_back(ms_between(t2, t3));
    step.push_back(ms_between(t3, t4));
  }
  const UNetFlops flops = unet_flops(cfg.model, tile);
  const double fwd_ms = median(fwd), bwd_ms = median(bwd);
  record.layer("nn.forward_ms", fwd_ms, "ms");
  record.layer("nn.backward_ms", bwd_ms, "ms");
  record.layer("nn.adam_step_ms", median(step), "ms");
  record.layer("nn.train_gflops",
               batch * (flops.forward + flops.backward) /
                   ((fwd_ms + bwd_ms) / 1e3) / 1e9,
               "GF/s");

  // GEMM peak: gemm_nn 256^3 on the same pool.
  constexpr int n = 256;
  tensor::Tensor a({n, n}), b({n, n}), c({n, n});
  fill_uniform(a, rng);
  fill_uniform(b, rng);
  std::vector<double> gemm;
  for (int i = 0; i < reps + 2; ++i) {
    const auto t0 = Clock::now();
    tensor::gemm_nn(n, n, n, a.data(), b.data(), c.data(), false, o.pool);
    if (i >= 2) gemm.push_back(ms_between(t0, Clock::now()));
  }
  record.layer("tensor.gemm_peak_gflops",
               2.0 * n * n * n / (median(gemm) / 1e3) / 1e9, "GF/s");

  // Inference at the serving geometry: the serving model (no dropout),
  // batch_tiles = 8 tiles of 64^2, single-threaded like a server replica.
  nn::UNetConfig serve_cfg;
  serve_cfg.depth = 2;
  serve_cfg.base_channels = 8;
  serve_cfg.use_dropout = false;
  serve_cfg.seed = 88;
  nn::UNet serve_model(serve_cfg);
  constexpr int kBatchTiles = 8;
  tensor::Tensor tiles({kBatchTiles, 3, 64, 64});
  fill_uniform(tiles, rng);
  std::vector<double> infer;
  for (int i = 0; i < reps + 2; ++i) {
    const auto t0 = Clock::now();
    serve_model.forward(tiles, logits, /*training=*/false);
    if (i >= 2) infer.push_back(ms_between(t0, Clock::now()) / kBatchTiles);
  }
  record.layer("nn.infer_ms_per_tile", median(infer), "ms");
}

}  // namespace polarice::e2e
