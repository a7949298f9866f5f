// e2e_bench — runs one benchmark workload and writes its run record.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out <record.json> --worker_bin <polarice_worker>
//             --run_dir <scratch dir>
//
// --trace 0 measures the workload's end-to-end metrics. --trace 1 runs the
// workload twice, untraced and then traced, and reports its per-layer
// metrics, the tracing overhead (traced minus untraced p50), the nn/tensor
// probes, and short fixed-size runs of the other workloads for the layers
// this one does not exercise. run.py builds this binary, stamps the record
// with the build configuration, and prints the result line.
//
// Exit codes: 0 with a record written; 2 for bad arguments; 3 when the run
// is invalid (an exception, or a generator that fell behind its schedule).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "harness.h"
#include "par/thread_pool.h"
#include "util/args.h"
#include "workloads.h"

namespace {

using namespace polarice::e2e;

using WorkloadFn = void (*)(const WorkloadOptions&, Record&);

const std::map<std::string, WorkloadFn>& workloads() {
  static const std::map<std::string, WorkloadFn> table{
      {"corpus_autolabel", &run_corpus_autolabel},
      {"fig2_train", &run_fig2_train},
      {"serve_unique", &run_serve_unique},
      {"serve_repeat", &run_serve_repeat},
  };
  return table;
}

std::string isa_runtime() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return "avx512";
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return "avx2";
  }
  return "sse2";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

void write_record(const std::string& path, const std::string& workload,
                  std::uint64_t seed, bool trace, std::size_t threads,
                  const Record& record) {
  std::ostringstream os;
  os << "{\n  \"workload\": " << json_string(workload)
     << ",\n  \"seed\": " << seed << ",\n  \"trace\": " << (trace ? 1 : 0)
     << ",\n  \"host\": {\"isa_runtime\": " << json_string(isa_runtime())
     << ", \"threads\": " << threads << "}"
     << ",\n  \"correct\": " << (record.correct ? "true" : "false")
     << ",\n  \"attempted\": " << record.attempted
     << ",\n  \"failed\": " << record.failed
     << ",\n  \"end_to_end\": " << json_metrics(record.end_to_end)
     << ",\n  \"per_layer\": " << json_metrics(record.per_layer)
     << ",\n  \"notes\": [";
  for (std::size_t i = 0; i < record.notes.size(); ++i) {
    os << (i ? ",\n    " : "\n    ") << "[" << json_string(record.notes[i].first)
       << ", " << json_string(record.notes[i].second) << "]";
  }
  os << "],\n  \"self_time\": [";
  const auto summary = summarize(record.spans);
  for (std::size_t i = 0; i < summary.size(); ++i) {
    os << (i ? ",\n    " : "\n    ") << "{\"name\": "
       << json_string(summary[i].name) << ", \"count\": " << summary[i].count
       << ", \"total_ms\": " << json_number(summary[i].total_ms)
       << ", \"self_ms\": " << json_number(summary[i].self_ms) << "}";
  }
  os << "]\n}\n";
  std::ofstream(path) << os.str();

  if (!record.spans.empty()) {
    std::ofstream spans(path + ".spans.json");
    spans << "[";
    for (std::size_t i = 0; i < record.spans.size(); ++i) {
      const auto& s = record.spans[i];
      spans << (i ? ",\n " : "\n ") << "{\"id\": " << i
            << ", \"name\": " << json_string(s.name)
            << ", \"start_ms\": " << json_number(s.start_ms)
            << ", \"end_ms\": " << json_number(s.end_ms)
            << ", \"parent\": " << s.parent << ", \"request\": " << s.request
            << "}";
    }
    spans << "\n]\n";
  }
}

/// Folds a helper run's outcome and its per-layer metrics into `into`,
/// keeping metrics `into` already has.
void merge(Record& into, const Record& from, const std::string& source) {
  into.attempted += from.attempted;
  into.failed += from.failed;
  into.correct = into.correct && from.correct;
  for (const auto& m : from.per_layer) {
    if (into.find_layer(m.name) == nullptr) {
      into.per_layer.push_back(m);
      into.note("source:" + m.name, source);
    }
  }
  for (const auto& n : from.notes) {
    if (n.first == "failure") into.notes.push_back(n);
  }
}

/// The machine-wide "cpu" line of /proc/stat (user nice system idle iowait
/// irq softirq steal ...); empty where it cannot be read.
std::vector<unsigned long long> cpu_jiffies() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  std::vector<unsigned long long> out;
  unsigned long long v = 0;
  while (label == "cpu" && out.size() < 8 && stat >> v) out.push_back(v);
  return out;
}

/// Share of CPU time the host stole from this machine between two samples:
/// time the run wanted but another tenant got. Recorded with every run so a
/// slow run can be told apart from a slow program.
double steal_pct(const std::vector<unsigned long long>& a,
                 const std::vector<unsigned long long>& b) {
  if (a.size() < 8 || b.size() < 8) return 0.0;
  unsigned long long total = 0;
  for (std::size_t i = 0; i < 8; ++i) total += b[i] - a[i];
  return total ? 100.0 * static_cast<double>(b[7] - a[7]) / total : 0.0;
}

double e2e_value(const Record& record, const std::string& name) {
  for (const auto& m : record.end_to_end) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  WorkloadOptions options;
  std::string out;
  try {
    const polarice::util::Args args(argc, argv);
    workload = args.require_string("workload");
    options.seed = static_cast<std::uint64_t>(
        args.get_int_in("seed", 1, 0, 1'000'000'000));
    options.seconds = args.get_double("seconds", 10.0);
    options.trace = args.get_int_in("trace", 0, 0, 1) == 1;
    out = args.require_string("out");
    options.worker_bin = args.require_string("worker_bin");
    options.run_dir = args.require_string("run_dir");
    if (workloads().count(workload) == 0) {
      throw std::invalid_argument("unknown workload " + workload);
    }
    if (!(options.seconds > 0.0)) {
      throw std::invalid_argument("--seconds must be positive");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 2;
  }

  try {
    std::filesystem::create_directories(options.run_dir);
    options.threads =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    polarice::par::ThreadPool pool(options.threads);
    options.pool = &pool;
    const WorkloadFn run = workloads().at(workload);

    Record record;
    const auto cpu_before = cpu_jiffies();
    if (!options.trace) {
      run(options, record);
    } else {
      // Untraced and traced windows of the same inputs: their p50
      // difference is the tracing overhead.
      WorkloadOptions untraced = options;
      untraced.trace = false;
      Record baseline;
      run(untraced, baseline);
      run(options, record);
      merge(record, baseline, workload + " untraced");
      const double base_p50 = e2e_value(baseline, "p50_ms");
      record.layer("trace.overhead_pct",
                   base_p50 > 0.0 ? 100.0 * (e2e_value(record, "p50_ms") -
                                             base_p50) /
                                        base_p50
                                  : 0.0,
                   "%");
      Record probes;
      run_nn_probes(options, probes);
      merge(record, probes, "nn probes");
      for (const auto& [name, fn] : workloads()) {
        if (name == workload) continue;
        WorkloadOptions mini = options;
        mini.mini = true;
        mini.seconds = 1.0;
        Record helper;
        fn(mini, helper);
        merge(record, helper, name + " (short fixed-size run)");
      }
    }
    const auto cpu_after = cpu_jiffies();
    record.note("host_steal_pct", std::to_string(steal_pct(cpu_before,
                                                           cpu_after)));
    write_record(out, workload, options.seed, options.trace, options.threads,
                 record);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: run invalid: %s\n", e.what());
    return 3;
  }
}
