#pragma once
// The four benchmark workloads. Each one takes the workload seed, builds
// its inputs from it, sets up (several times, reporting the median), runs
// for the requested number of seconds through the public entry points of
// src/, checks every output, and fills a Record.
//
// Untraced (trace = false) a workload reports its end-to-end metrics.
// Traced it reports its per-layer metrics and the spans it recorded around
// its calls into each layer.

#include <cstddef>
#include <cstdint>
#include <string>

#include "harness.h"
#include "par/thread_pool.h"

namespace polarice::e2e {

constexpr int kSetupReps = 3;
constexpr double kMiB = 1024.0 * 1024.0;

struct WorkloadOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // A short fixed-size run used only to fill in the per-layer metrics of a
  // layer the traced workload does not exercise.
  bool mini = false;
  std::size_t threads = 1;          // the benchmark's compute threads
  par::ThreadPool* pool = nullptr;  // `threads` workers
  std::string worker_bin;           // polarice_worker, for serve_repeat
  std::string run_dir;              // scratch dir inside the checkout
};

void run_corpus_autolabel(const WorkloadOptions& options, Record& record);
void run_fig2_train(const WorkloadOptions& options, Record& record);
void run_serve_unique(const WorkloadOptions& options, Record& record);
void run_serve_repeat(const WorkloadOptions& options, Record& record);

/// Timed calls into nn/tensor at the Fig 2 training geometry and the
/// serving geometry: forward/backward/Adam, training GF/s against the GEMM
/// peak measured in the same process, and inference time per tile.
void run_nn_probes(const WorkloadOptions& options, Record& record);

/// Reports the setup time as the median of `reps` runs of `setup`, which
/// must leave the workload's inputs ready for the measured window.
template <typename SetupFn>
void measure_setup(int reps, Record& record, SetupFn&& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    setup();
    seconds.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  record.e2e("setup_s", median(seconds), "s");
}

/// Adds p50_ms and p99_ms (the tail rule of harness.h) over `latencies_ms`;
/// a sample too small for the tail rule is a failed run.
void report_latency(const std::vector<double>& latencies_ms, Record& record);

}  // namespace polarice::e2e
