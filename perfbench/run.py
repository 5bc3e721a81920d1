#!/usr/bin/env python3
"""The placer benchmark: time to a legal placement on three generated designs.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload stdcell_flat --seed 1 --seconds 30 --trace 0

It builds placer_bench (the repository's own CMake project plus
perfbench/placer_bench.cmake) under .bench_build/, generates the workload's
designs from --seed as Bookshelf files under .bench_build/work/, and places
them round-robin in a closed loop: one process places one design at a time, a
new process per placement, for about --seconds. With --trace 0 the last line
of stdout is the end-to-end result; with --trace 1 one more, traced,
placement of the first design follows and the last line holds the per-layer
metrics. Every placement passes the correctness gate or counts as failed.
README.md explains the workloads and every metric.
"""

import argparse
import collections
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "work")
HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s of the build; children share this budget.
RUN_DEADLINE_S = 165.0
# The layers must explain at least 90% of a stage (ROADMAP.md, aim 1).
COVERAGE_FLOOR = 0.9
# Designs generated per run. Runtime and HPWL vary by about 10% between
# netlists of the same statistics (mIP's CG iteration count alone varies 2x),
# so a run averages several designs; each one is placed at least once, so
# the count falls with placement time to keep a run near --seconds.
DESIGNS = {"stdcell_flat": 4, "mixed_size": 3, "vcycle_50k": 2}

END_TO_END_UNITS = {
    "place_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "hpwl": "dbu",
}


class BenchError(Exception):
    """A benchmark failure that produces no result (build, input, crash)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        raise BenchError("no repository sources here (CMakeLists.txt, src/); "
                         "run from the root of a checkout")
    build_dir = os.path.join(root, BUILD_DIR)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", root, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                    "-DCMAKE_PROJECT_INCLUDE=" +
                    os.path.join(HERE, "placer_bench.cmake")])
    run_logged(["cmake", "--build", build_dir, "--target", "placer_bench",
                "-j", str(os.cpu_count() or 1)])
    return os.path.join(build_dir, "placer_bench")


def run_logged(cmd):
    """Runs a build step with its output on stderr."""
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=850)
    except (OSError, subprocess.SubprocessError) as e:
        raise BenchError("build step failed: %s (%s)" % (" ".join(cmd), e))


def child(cmd, deadline):
    """Runs one placer_bench process; returns its last stdout line as JSON."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before: " + " ".join(cmd))
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise BenchError("exit %d: %s" % (p.returncode, " ".join(cmd)))
    return lines[-1]


def source_digest(root):
    """sha256 over the sources the benchmark builds, for checkouts without
    git metadata."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit(root):
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        return p.stdout.strip() if p.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def check_names(kind, declared, emitted):
    """The metrics emitted must be exactly those BENCHMARK.json declares."""
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in emitted.items()}
    if want != got:
        raise BenchError("%s metrics disagree with BENCHMARK.json: missing %s, "
                         "extra %s, unit mismatch %s" % (
                             kind, sorted(set(want) - set(got)),
                             sorted(set(got) - set(want)),
                             sorted(k for k in want.keys() & got.keys()
                                    if want[k] != got[k])))


def measure(args, root, binary, deadline):
    """Places the run's designs round-robin. Returns each design's untraced
    samples and the traced run of design 0 (None without --trace)."""
    wl = ["--workload", args.workload, "--scale", repr(args.scale)]
    work = os.path.join(root, WORK_DIR, "%s-%d-%d" % (args.workload, args.seed,
                                                      os.getpid()))
    try:
        auxes = []
        for i in range(DESIGNS[args.workload]):
            out = os.path.join(work, str(i))
            os.makedirs(out, exist_ok=True)
            auxes.append(child([binary, "gen", *wl, "--seed",
                                str(args.seed * 16 + i), "--out", out],
                               deadline))
        extra = ["--overlap-cell"] if args.overlap_cell else []
        samples = [[] for _ in auxes]
        start = time.monotonic()
        n = 0
        while True:
            i = n % len(auxes)
            samples[i].append(json.loads(child(
                [binary, "place", *wl, "--aux", auxes[i], *extra], deadline)))
            n += 1
            # Start another placement only if it should end within
            # --seconds, so a run lasts about --seconds on every workload.
            elapsed = time.monotonic() - start
            if n >= len(auxes) and elapsed * (n + 1) / n > args.seconds:
                break
        traced = (json.loads(child([binary, "trace", *wl, "--aux", auxes[0]],
                                   deadline))
                  if args.trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return samples, traced


def gate(samples, traced):
    """Counts failed placements: a failed gate in the program, or HPWL bits
    that differ from the other placements of the same design."""
    attempted = failed = 0
    for i, runs in enumerate(samples):
        runs = runs + ([traced] if traced and i == 0 else [])
        bits = collections.Counter(r["hpwl_bits"] for r in runs if r["ok"])
        ref = bits.most_common(1)[0][0] if bits else None
        for r in runs:
            why = r["why"] if not r["ok"] else (
                "" if r["hpwl_bits"] == ref
                else "HPWL bits %s differ from %s" % (r["hpwl_bits"], ref))
            if why:
                failed += 1
                log("gate: design %d: %s" % (i, why))
        attempted += len(runs)
    return attempted, failed


def mean_hpwl(samples):
    """Mean over the run's designs of each design's final HPWL. A placement
    whose flow failed has no HPWL; it is already counted as failed."""
    per_design = []
    for runs in samples:
        values = [s["hpwl"] for s in runs if s["hpwl"] is not None]
        if not values:
            raise BenchError("no placement of a design produced an HPWL")
        per_design.append(statistics.median(values))
    return statistics.mean(per_design)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(DESIGNS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink the design (the benchmark's test uses 0.1)")
    ap.add_argument("--overlap-cell", action="store_true",
                    help="move one placed cell onto another before the gate "
                         "(the benchmark's test of the gate)")
    args = ap.parse_args()
    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            bench = json.load(f)
        binary = build(root)
        deadline = time.monotonic() + RUN_DEADLINE_S
        info = json.loads(child([binary, "info", "--workload", args.workload],
                                deadline))
        samples, traced = measure(args, root, binary, deadline)
        attempted, failed = gate(samples, traced)
        if args.trace:
            if "layers" not in traced:
                raise BenchError("traced run failed: " + traced["why"])
            metrics = dict(traced["layers"])
            metrics["trace.overhead_s"] = {
                "value": traced["place_s"] -
                statistics.median(s["place_s"] for s in samples[0]),
                "unit": "s"}
            check_names("per_layer", bench["per_layer"], metrics)
            for name in ("eplace.stage_coverage", "opt.kernel_coverage"):
                if metrics[name]["value"] < COVERAGE_FLOOR:
                    print("FLAG: %s = %.3f is below %.1f" % (
                        name, metrics[name]["value"], COVERAGE_FLOOR))
        else:
            flat = [s for runs in samples for s in runs]
            values = {
                "place_s": statistics.median(s["place_s"] for s in flat),
                "setup_s": statistics.median(
                    t for s in flat for t in s["setup_s"]),
                "cpu_s": statistics.median(s["cpu_s"] for s in flat),
                "peak_rss_mb": statistics.median(
                    s["peak_rss_mb"] for s in flat),
                "hpwl": mean_hpwl(samples),
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in values.items()}
            check_names("end_to_end", bench["end_to_end"], metrics)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 1
    info.update(nproc=os.cpu_count(), git_commit=git_commit(root),
                source_sha256=source_digest(root),
                designs=len(samples), placements=sum(map(len, samples)))
    print(json.dumps({"stamp": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
