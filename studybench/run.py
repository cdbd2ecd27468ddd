#!/usr/bin/env python3
"""Study benchmark: builds tts_bench from the checkout and measures one workload.

    python3 studybench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 studybench/run.py --all [--seed <n>] [--seconds <s>] [--trace <0|1>]
    python3 studybench/run.py --smoke

Run from the root of a checkout. tts_bench is built with CMake into
.bench_build on first use.

A measurement runs one study per process, each on its own sub-seed derived
from --seed, until --seconds have passed (at least MIN_STUDIES studies).
--trace 0 reports the end-to-end metrics of BENCHMARK.json: a time or rate
from the run's best study (the lowest time, the highest rate), any other
metric as the median over the studies. setup_s also takes SETUPS_PER_STUDY
extra set-up-only processes per study. --trace 1 runs every sub-seed twice,
plain and traced, fails the study if the two report digests differ, and
reports the median of every per-layer metric, with the tracing overhead.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Each study logs one line to
stderr.

--all prints a table of every workload; --smoke runs each workload once,
cut to at most one sim-day, and fails if a check fails or a metric named in
BENCHMARK.json is missing.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_small", "collect_small", "impaired_sweep", "sharded4_tiny"]
# Fewest studies a measurement takes, whatever --seconds says.
MIN_STUDIES = {False: 3, True: 1}
# Set-up is 3-80 ms and the most disturbed reading, so it takes more samples
# than the studies give.
SETUPS_PER_STUDY = 2
# A measurement stops starting processes after this long, and a process that
# is still running then is killed: the whole run must end within 180 s.
HARD_LIMIT_S = 150
MASK64 = (1 << 64) - 1


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build tts_bench; returns the binary path."""
    build_dir = os.path.join(ROOT, ".bench_build")
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (configure, ["cmake", "--build", build_dir, "-j", jobs, "--target", "tts_bench"]):
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            raise BenchError("building tts_bench failed")
    return os.path.join(build_dir, "tts_bench")


def load_spec():
    """Metric name -> (unit, better), for the plain (False) and traced (True) groups."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {traced: {m["name"]: (m["unit"], m["better"]) for m in spec[group]}
            for traced, group in ((False, "end_to_end"), (True, "per_layer"))}


def sub_seed(seed, k):
    """SplitMix64 of (seed, k): the k-th study's seed within one measurement."""
    z = (seed * 0x9E3779B97F4A7C15 + (k + 1) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def tts_bench(binary, deadline, workload, seed, *flags):
    """One tts_bench process, killed at `deadline`; returns its JSON result."""
    cmd = [binary, f"--workload={workload}", f"--seed={seed}", *flags]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=max(0.1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} seed {seed}: timed out")
    if p.returncode != 0:
        raise BenchError(f"{workload} seed {seed}: exit {p.returncode}: {p.stderr.strip()}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def one_study(binary, deadline, spec, workload, seed, traced, extra):
    """Samples of one sub-seed (name -> values); raises BenchError on a failure."""
    plain = tts_bench(binary, deadline, workload, seed, *extra)
    problems = [name for name, ok in plain["checks"].items() if not ok]
    metrics = {n: [m["value"]] for n, m in plain["metrics"].items()}
    if traced:
        layered = tts_bench(binary, deadline, workload, seed, "--traced", *extra)
        problems += [name for name, ok in layered["checks"].items() if not ok]
        if layered["digest"] != plain["digest"]:
            problems.append(f"traced digest {layered['digest']} != {plain['digest']}")
        metrics = {n: [m["value"]] for n, m in layered["metrics"].items()}
        metrics["trace_overhead"] = [metrics["wall_s"][0] / plain["metrics"]["wall_s"]["value"] - 1]
    else:
        for _ in range(SETUPS_PER_STUDY):
            setup = tts_bench(binary, deadline, workload, seed, "--setup-only", *extra)
            metrics["setup_s"].append(setup["metrics"]["setup_s"]["value"])
    missing = [n for n in spec[traced] if n not in metrics]
    if missing:
        problems.append(f"metrics missing: {missing}")
    reported = (layered if traced else plain)["metrics"]
    problems += [f"{n} in {reported[n]['unit']}, not {u}"
                 for n, (u, _) in spec[traced].items()
                 if n in reported and reported[n]["unit"] != u]
    if problems:
        raise BenchError(f"{workload} seed {seed}: {problems}")
    return metrics


def measure(binary, spec, workload, seed, seconds, traced, extra=(), min_studies=None):
    """Studies on successive sub-seeds until `seconds` pass.

    Returns (metric name -> list of values, studies attempted, studies failed).
    """
    min_studies = MIN_STUDIES[traced] if min_studies is None else min_studies
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    series, attempted, failed = {}, 0, 0
    while True:
        began = time.monotonic()
        s = sub_seed(seed, attempted)
        attempted += 1
        try:
            metrics = one_study(binary, deadline, spec, workload, s, traced, extra)
            for name, values in metrics.items():
                series.setdefault(name, []).extend(values)
            log(f"{workload} seed {s}: wall_s {metrics['wall_s'][0]:.4f}")
        except BenchError as e:
            failed += 1
            log(f"FAILED {e}")
        now = time.monotonic()
        if now >= deadline or (attempted >= min_studies and
                               now - start + (now - began) > seconds):
            return series, attempted, failed


def end_to_end(values, unit, better):
    """A run's reading of an end-to-end metric.

    Another tenant of a shared host can only slow a study down, so for a time
    or a rate the best study is the least disturbed one. Other metrics, such
    as memory, vary with the sub-seed but not with the host: their median.
    """
    if unit not in ("s", "1/s"):
        return statistics.median(values)
    return min(values) if better == "lower" else max(values)


def result_line(binary, spec, workload, seed, seconds, traced):
    series, attempted, failed = measure(binary, spec, workload, seed, seconds, traced)
    if failed == attempted:
        raise BenchError(f"{workload}: no study completed")
    metrics = {}
    for name, (unit, better) in spec[traced].items():
        values = series[name]
        value = statistics.median(values) if traced else end_to_end(values, unit, better)
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def smoke(binary, spec):
    ok = True
    for workload in WORKLOADS:
        for traced in (False, True):
            _, _, failed = measure(binary, spec, workload, 1, 0, traced,
                                   extra=("--smoke",), min_studies=1)
            ok = ok and failed == 0
            print(f"{workload:16} {'traced' if traced else 'plain':6} "
                  f"{'FAILED' if failed else 'ok'}", flush=True)
    print("smoke: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def table(binary, spec, seed, seconds, traced):
    lines = {w: result_line(binary, spec, w, seed, seconds, traced) for w in WORKLOADS}
    print("| metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("|---|---|" + "---:|" * len(WORKLOADS))
    for name, (unit, _) in spec[traced].items():
        row = " | ".join(f"{lines[w]['metrics'][name]['value']:.4g}" for w in WORKLOADS)
        print(f"| `{name}` | {unit} | {row} |")
    row = " | ".join(f"{lines[w]['attempted']} ({lines[w]['failed']})" for w in WORKLOADS)
    print(f"| studies (failed) | count | {row} |")
    return 0 if all(line["correct"] for line in lines.values()) else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--smoke", action="store_true")
    ap.add_argument("--seed", type=int, default=20240720)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        binary = build()
        spec = load_spec()
        traced = args.trace == 1
        if args.smoke:
            return smoke(binary, spec)
        if args.all:
            return table(binary, spec, args.seed, args.seconds, traced)
        line = result_line(binary, spec, args.workload, args.seed, args.seconds, traced)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"run.py: {e}")
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
