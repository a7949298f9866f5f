#!/usr/bin/env python3
"""End-to-end benchmark runner for the polar sea-ice workflow.

Run from the repository root:

  python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 e2ebench/run.py --compare <record_a.json> <record_b.json>
  python3 e2ebench/run.py --selftest

A run builds the benchmark (Release, the repository's default options) into
.bench_build, runs one workload through e2e_bench, stamps the run record in
.bench_out with the build configuration, and prints one JSON result line:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

Every record carries a stamp: build type, POLARICE_* options, sanitizer,
compiler, ISA tier and nproc. Runs whose stamps differ are never compared:
a checkout whose stamp changes between runs refuses to report, and
--compare refuses two records with different stamps.
"""

import argparse
import glob
import json
import os
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
OUT_DIR = ".bench_out"
WORKLOADS = ("corpus_autolabel", "fig2_train", "serve_unique", "serve_repeat")
RUN_TIMEOUT_S = 170
STAMP_OPTIONS = ("CMAKE_BUILD_TYPE", "POLARICE_NATIVE", "POLARICE_METRICS",
                 "POLARICE_MEM_STATS", "POLARICE_FAULT_INJECT",
                 "POLARICE_SANITIZER")


class Refused(Exception):
    """A comparison or report the stamps do not allow."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build(directory):
    """Configures (once) and builds the benchmark targets; True on success."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    # A configure that failed leaves a cache but no build system behind.
    if not any(os.path.exists(os.path.join(directory, name))
               for name in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", directory,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", directory, "-j", jobs, "--target",
                  "e2e_bench", "e2e_selftest", "polarice_worker"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            log("e2ebench: build step failed:", " ".join(cmd))
            return False
    return True


def read_cache(directory):
    values = {}
    with open(os.path.join(directory, "CMakeCache.txt"), encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith(("#", "//")) or "=" not in line:
                continue
            key, value = line.split("=", 1)
            values[key.split(":", 1)[0]] = value
    return values


def compiler_id(directory):
    """Compiler id and version as CMake detected them in the build tree."""
    for path in glob.glob(os.path.join(directory, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        found = {}
        with open(path, encoding="utf-8") as f:
            for line in f:
                for key in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
                    prefix = "set(%s " % key
                    if line.startswith(prefix):
                        found[key] = line[len(prefix):].strip().rstrip(")").strip('"')
        if found:
            return "%s %s" % (found.get("CMAKE_CXX_COMPILER_ID", "?"),
                              found.get("CMAKE_CXX_COMPILER_VERSION", "?"))
    return "unknown"


def make_stamp(cache, compiler, isa_runtime, nproc):
    """The build configuration a run was measured on."""
    stamp = {key: cache.get(key, "") for key in STAMP_OPTIONS}
    stamp["compiler"] = compiler
    native = cache.get("POLARICE_NATIVE", "ON").upper() in ("ON", "1", "TRUE")
    stamp["isa_tier"] = isa_runtime if native else "portable"
    stamp["nproc"] = nproc
    return stamp


def stamp_difference(a, b):
    keys = sorted(set(a) | set(b))
    return ["%s: %r != %r" % (k, a.get(k), b.get(k)) for k in keys
            if a.get(k) != b.get(k)]


def check_stamp(stamp, path):
    """Records the checkout's stamp on first use; refuses a different one."""
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            first = json.load(f)
        diff = stamp_difference(first, stamp)
        if diff:
            raise Refused("build configuration changed since this checkout's "
                          "first run: " + "; ".join(diff))
        return
    with open(path, "w", encoding="utf-8") as f:
        json.dump(stamp, f, indent=2, sort_keys=True)


def compare(record_a, record_b):
    """Rows of (metric, a, b, b/a) for two records with the same stamp."""
    diff = stamp_difference(record_a.get("stamp", {}), record_b.get("stamp", {}))
    if diff:
        raise Refused("stamps differ, refusing to compare: " + "; ".join(diff))
    if record_a.get("workload") != record_b.get("workload"):
        raise Refused("different workloads, refusing to compare")
    rows = []
    for section in ("end_to_end", "per_layer"):
        for name, a in record_a.get(section, {}).items():
            b = record_b.get(section, {}).get(name)
            if b is None:
                continue
            ratio = b["value"] / a["value"] if a["value"] else float("nan")
            rows.append((name, a["value"], b["value"], ratio, a["unit"]))
    return rows


def declared_metrics(trace):
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def result_line(record, trace):
    """The contract's last line: correct/attempted/failed and the metrics."""
    section = record["per_layer" if trace else "end_to_end"]
    names = declared_metrics(trace)
    missing = [n for n in names if n not in section]
    if missing:
        raise Refused("run record lacks metrics: " + ", ".join(missing))
    metrics = {n: {"value": section[n]["value"], "unit": section[n]["unit"]}
               for n in names}
    return {"correct": bool(record["correct"]) and record["failed"] == 0,
            "attempted": int(record["attempted"]),
            "failed": int(record["failed"]),
            "metrics": metrics}


def stop_group(pgid, timeout_s=10.0):
    """Kills whatever is left of a process group (worker processes a crashed
    or timed-out e2e_bench did not reap) and waits until none remains."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_workload(args):
    directory = build_dir()
    if not build(directory):
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, "%s-s%d-t%d.json" % (args.workload, args.seed,
                                                     args.trace))
    cmd = [os.path.join(directory, "e2e_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out,
           "--worker_bin", os.path.join(directory, "polarice", "tools",
                                        "polarice_worker"),
           "--run_dir", os.path.join(OUT_DIR, "tmp")]
    # Its own process group, so the worker processes serve_repeat forks are
    # stopped with it however it ends.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        returncode = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        returncode = None
    stop_group(proc.pid)  # the leader is reaped: only its children remain
    if returncode is None:
        log("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    if returncode != 0:
        log("e2ebench: e2e_bench exited with", returncode)
        return 1
    with open(out, encoding="utf-8") as f:
        record = json.load(f)
    stamp = make_stamp(read_cache(directory), compiler_id(directory),
                       record["host"]["isa_runtime"], os.cpu_count() or 1)
    record["stamp"] = stamp
    with open(out, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2)
    try:
        check_stamp(stamp, os.path.join(OUT_DIR, "stamp.json"))
        line = result_line(record, args.trace == 1)
    except Refused as e:
        log("e2ebench:", e)
        return 4
    log("e2ebench: stamp", json.dumps(stamp, sort_keys=True))
    print(json.dumps(line), flush=True)
    return 0


def run_compare(paths):
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            records.append(json.load(f))
    try:
        rows = compare(*records)
    except Refused as e:
        log("e2ebench:", e)
        return 2
    print("%-34s %14s %14s %8s" % ("metric", "a", "b", "b/a"))
    for name, a, b, ratio, unit in rows:
        print("%-34s %14.6g %14.6g %8.3f %s" % (name, a, b, ratio, unit))
    return 0


def run_selftest():
    directory = build_dir()
    if not build(directory):
        return 1
    native = subprocess.run([os.path.join(directory, "e2e_selftest")],
                            check=False)
    python = subprocess.run([sys.executable, "-m", "unittest", "-q",
                             "test_run"], cwd=BENCH_DIR, check=False)
    return 0 if native.returncode == 0 and python.returncode == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar="RECORD")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.compare:
        return run_compare(args.compare)
    if args.selftest:
        return run_selftest()
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
