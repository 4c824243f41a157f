#!/usr/bin/env python3
"""Builds the perfbench binary from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload serve --seed 7 --seconds 25 --trace 0

--trace 0 runs the workload once with tracing off and reports every
end_to_end metric of BENCHMARK.json. --trace 1 runs it twice in separate
processes, untraced then traced, and reports every per_layer metric: the
traced run's layer metrics plus overhead.<metric> = traced - untraced for
each end-to-end metric.

Standard output ends with one JSON line {"correct", "attempted", "failed",
"metrics"}; the line before it is the full run report (host context,
provenance, workload metrics, failed checks). The exit code is 0 only when
every correctness check passed. The build goes to $CARGO_TARGET_DIR, else
.bench_build, relative to the checkout root.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve-greedy", "solve-mcf", "serve")
# A run must end within 180 s of its start, build excluded.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    pass


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds the perfbench target; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("the program's sources (src/) are not in this checkout")
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                      "-j", jobs])
        for step in steps:
            # Build chatter goes to stderr: stdout carries only results.
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                raise BenchError("build step failed: " + " ".join(step))
    return os.path.join(out_dir, "perfbench")


def run_pass(binary, args, trace, work_dir, deadline):
    """Runs the binary once; returns its parsed report line."""
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % trace,
           "--work_dir=" + work_dir]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd.append("--trace_path=" + os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed)))
    env = dict(os.environ, TMPDIR=work_dir)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            cwd=ROOT, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise BenchError("perfbench printed nothing (exit %d)" % proc.returncode)
    report = json.loads(lines[-1])
    if proc.returncode not in (0, 1):
        raise BenchError("perfbench exited with %d" % proc.returncode)
    return report


def select(spec_metrics, values, kind, unreached_is_zero=False):
    """Keeps exactly the metrics BENCHMARK.json names, checking units.

    With unreached_is_zero, a metric the run did not report (its layer was
    not reached) reads 0; a reported metric BENCHMARK.json does not name is
    an error either way.
    """
    units = {metric["name"]: metric["unit"] for metric in spec_metrics}
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise BenchError("%s metrics missing from BENCHMARK.json: %s"
                         % (kind, ", ".join(unknown)))
    out = {}
    for name, unit in units.items():
        if name not in values:
            if not unreached_is_zero:
                raise BenchError("%s metric %s was not measured" % (kind, name))
            out[name] = {"value": 0, "unit": unit}
            continue
        if values[name]["unit"] != unit:
            raise BenchError("%s metric %s has unit %s, BENCHMARK.json says %s"
                             % (kind, name, values[name]["unit"], unit))
        out[name] = {"value": values[name]["value"], "unit": unit}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build(build_dir())
    deadline = time.monotonic() + RUN_BUDGET_S
    work_dir = os.path.join(build_dir(), "run-%d" % os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        untraced = run_pass(binary, args, 0, work_dir, deadline)
        reports = [untraced]
        if args.trace:
            traced = run_pass(binary, args, 1, work_dir, deadline)
            reports.append(traced)
            measured = dict(traced["per_layer"])
            for name, metric in untraced["end_to_end"].items():
                measured["overhead." + name] = {
                    "value": traced["end_to_end"][name]["value"] -
                             metric["value"],
                    "unit": metric["unit"]}
            metrics = select(spec["per_layer"], measured, "per-layer",
                             unreached_is_zero=True)
        else:
            metrics = select(spec["end_to_end"], untraced["end_to_end"],
                             "end-to-end")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    correct = all(r["correct"] for r in reports)
    print(json.dumps({"runs": reports}))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # SIGTERM unwinds through the finally blocks, which stop the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        sys.exit(2)
