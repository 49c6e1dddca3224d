#!/usr/bin/env python3
"""The repo benchmark: build, run one workload, check it, print its metrics.

Run from the root of the repository:

  python3 perfbench/run.py --workload campaign|durable|sweep \\
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py compare BASE HEAD
  python3 perfbench/run.py record

A run builds the library with the repository's own CMake build (Release)
into .bench_build/encore, builds the benchmark package in perfbench/
against it into .bench_build/perfbench, then runs the workload in its own
process. With --trace 0 it prints the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer ones (a per-layer metric of
a layer the workload does not exercise reads 0). The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is non-zero when an output check
failed or the benchmark could not run. Every run also writes its full
result, with build provenance, to .bench_build/results/.

`compare` prints the median of each metric of two result sets (a result
file or a directory of them) and refuses when their build provenance
differs. `record` rewrites perfbench/digests/ from reference runs on the
decoded engine with snapshots off.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("campaign", "durable", "sweep")
# A workload run must end within this many seconds.
RUN_TIMEOUT_S = 170
# Results whose values here differ come from different builds or
# machines, or from another version of the benchmark.
PROVENANCE_KEYS = ("build_type", "compiler", "computed_goto", "nproc",
                   "jobs", "bench_digest")


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def tree_digest(paths):
    """sha256 over the contents of the regular files under `paths`."""
    h = hashlib.sha256()
    files = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if not d.startswith("."))
            files.extend(os.path.join(base, n) for n in names)
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def sh(cmd):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        die("command failed: " + " ".join(cmd))


def build():
    """Builds the workload binary; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("run from the repository root: no CMakeLists.txt and src/ here")
    if shutil.which("cmake") is None:
        die("cmake not found")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(os.cpu_count() or 1)
    lib = os.path.join(BUILD, "encore")
    bench = os.path.join(BUILD, "perfbench")
    if not os.path.isfile(os.path.join(lib, "CMakeCache.txt")):
        sh(["cmake", "-S", ROOT, "-B", lib, *generator,
            "-DCMAKE_BUILD_TYPE=Release"])
    sh(["cmake", "--build", lib, "-j", jobs, "--target", "encore_campaign",
        "encore_workloads"])
    if not os.path.isfile(os.path.join(bench, "CMakeCache.txt")):
        sh(["cmake", "-S", BENCH_DIR, "-B", bench, *generator,
            "-DCMAKE_BUILD_TYPE=Release", "-DENCORE_BUILD_DIR=" + lib])
    sh(["cmake", "--build", bench, "-j", jobs, "--target",
        "perfbench_workload"])
    return os.path.join(bench, "perfbench_workload")


def run_workload(binary, workload, seed, seconds, trace, record=None):
    """Runs the workload binary; returns (exit code, result object)."""
    workdir = os.path.join(BUILD, "work", "%s-%d" % (workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--digests", os.path.join(BENCH_DIR, "digests", workload + ".txt"),
           "--workdir", workdir]
    if record:
        cmd += ["--record", record]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("%s exited %d without a result" % (workload, proc.returncode))
    return proc.returncode, result


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def cmd_run(args):
    spec = load_spec()
    binary = build()
    code, result = run_workload(binary, args.workload, args.seed,
                                args.seconds, args.trace)
    result["provenance"]["source_digest"] = tree_digest(
        [os.path.join(ROOT, p) for p in ("src", "cmake", "CMakeLists.txt")])
    result["provenance"]["bench_digest"] = tree_digest(
        [BENCH_DIR, os.path.join(ROOT, "BENCHMARK.json")])

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    measured = result["metrics"]
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        got = measured.get(name)
        if got is None and not args.trace:
            die("%s did not report end-to-end metric %s" % (args.workload,
                                                            name))
        if got is not None and got["unit"] != unit:
            die("%s reports %s in %s, BENCHMARK.json says %s"
                % (args.workload, name, got["unit"], unit))
        # A per-layer metric of a layer this workload does not exercise.
        metrics[name] = {"value": got["value"] if got else 0, "unit": unit}

    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    path = os.path.join(BUILD, "results", "%s_seed%d_trace%d_%d.json" % (
        args.workload, args.seed, args.trace, time.time_ns()))
    with open(path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    correct = code == 0 and result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def load_results(path):
    paths = ([os.path.join(path, n) for n in sorted(os.listdir(path))
              if n.endswith(".json")] if os.path.isdir(path) else [path])
    results = []
    for p in paths:
        with open(p) as f:
            results.append(json.load(f))
    if not results:
        die("no results in " + path)
    return results


def cmd_compare(args):
    """Medians of two result sets, per workload and metric."""
    base, head = load_results(args.base), load_results(args.head)
    for key in PROVENANCE_KEYS:
        values = {json.dumps(r["provenance"].get(key)) for r in base + head}
        if len(values) > 1:
            die("refusing to compare: build provenance '%s' differs (%s)"
                % (key, ", ".join(sorted(values))))
    for key in ("engine", "snapshot_stride"):
        values = {str(r["provenance"].get(key)) for r in base + head}
        if len(values) > 1:
            print("note: library default '%s' differs: %s"
                  % (key, ", ".join(sorted(values))))
    groups = sorted({(r["workload"], r["trace"]) for r in base + head})
    print("%-9s %-36s %14s %14s %8s" % ("workload", "metric", "base",
                                         "head", "head/base"))
    for workload, trace in groups:
        pick = lambda rs: [r for r in rs if (r["workload"], r["trace"])
                           == (workload, trace)]
        b, h = pick(base), pick(head)
        if not b or not h:
            continue
        for name in b[0]["metrics"]:
            heads = [r["metrics"][name]["value"] for r in h
                     if name in r["metrics"]]
            if not heads:
                continue
            bv = statistics.median(r["metrics"][name]["value"] for r in b)
            hv = statistics.median(heads)
            ratio = "%8.3f" % (hv / bv) if bv else "       -"
            print("%-9s %-36s %14.6g %14.6g %s" % (workload, name, bv, hv,
                                                    ratio))
    return 0


def cmd_record():
    """Rewrites the digests from reference runs at the default seed."""
    binary = build()
    for workload in WORKLOADS:
        code, result = run_workload(
            binary, workload, 1, 0, 0,
            record=os.path.join(BENCH_DIR, "digests", workload + ".txt"))
        if code != 0 or result["failed"]:
            die("reference run of %s failed" % workload)
        print("recorded %s (%s engine, snapshot stride %s)"
              % (workload, result["provenance"]["engine"],
                 result["provenance"]["snapshot_stride"]))
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("head")
        return cmd_compare(parser.parse_args(sys.argv[2:]))
    if len(sys.argv) > 1 and sys.argv[1] == "record":
        return cmd_record()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return cmd_run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
