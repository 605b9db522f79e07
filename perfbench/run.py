#!/usr/bin/env python3
"""Benchmark of the sgs training paths, end to end and layer by layer.

    python3 perfbench/run.py --workload desk_iterative --seed 1 --seconds 56 --trace 0

Runs from the root of a checkout.  Every timed call runs in its own
fresh Python process (``worker.py``) with ``PYTHONPATH=src`` and BLAS
pinned to one thread; ``--workload all`` runs every workload of
BENCHMARK.json one after another.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
-- the end-to-end metrics of BENCHMARK.json with ``--trace 0``, the
per-layer ones with ``--trace 1``.  Reports and trace files go to
``.perfbench_runs/``.  See README.md beside this file.

``--self-test`` runs a tiny config untraced and traced and fails unless
both leave byte-identical ``losses.csv`` and ``model.bin``.

Never run two workloads, or a workload and the test suite, at the same
time: ``paper_step`` alone peaks above 3 GiB.
"""
from __future__ import annotations

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
CHILD_TIMEOUT_S = 170.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def run_call(workload, seed, out, traced, full_checks):
    """One call in a fresh process; returns its result.json."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **PINNED_ENV)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", out]
    cmd += ["--traced"] if traced else []
    cmd += ["--full-checks"] if full_checks else []
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} did not finish within {CHILD_TIMEOUT_S:.0f} s")
    if code != 0:
        raise BenchError(f"{workload} worker exited with code {code}")
    with open(os.path.join(out, "result.json"), "r", encoding="utf-8") as f:
        result = json.load(f)
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(result["env"]["sgs_path"]).startswith(src + os.sep):
        raise BenchError(f"sgs was imported from {result['env']['sgs_path']}, not {src}")
    return result


def run_workload(workload, seed, seconds, trace):
    """Fresh-process calls for ``seconds``; with ``trace``, calls alternate
    untraced and traced, starting untraced.  Returns the aggregated report."""
    out = os.path.join(ROOT, ".perfbench_runs", f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(out, ignore_errors=True)
    start = time.monotonic()
    calls, durations = [], []
    while True:
        t0 = time.monotonic()
        traced = bool(trace) and len(calls) % 2 == 1
        calls.append(run_call(workload, seed, os.path.join(out, f"call{len(calls)}"),
                              traced, len(calls) == 0))
        calls[-1]["traced"] = traced
        durations.append(time.monotonic() - t0)
        if trace and len(calls) < 2:
            continue
        if time.monotonic() + statistics.median(durations) > start + seconds:
            break

    problems = []
    for i, call in enumerate(calls):
        call["ok"] = not call["problems"] and call["hashes"] == calls[0]["hashes"]
        problems += [f"call {i}: {p}" for p in call["problems"]]
        if call["hashes"] != calls[0]["hashes"]:
            problems.append(f"call {i}: artifacts differ from call 0")
    untraced = [c for c in calls if not c["traced"]]
    report = {
        "workload": workload,
        "env": dict(calls[0]["env"], git_commit=git_commit()),
        "out_dir": out,
        "attempted": len(calls),
        "failed": sum(1 for c in calls if not c["ok"]),
        "problems": problems,
        "hashes": calls[0]["hashes"],
        "calls_s": [c["wall_s"] for c in calls],
        "measured_s": time.monotonic() - start,
        "metrics": {
            "setup_s": statistics.median(t for c in untraced for t in c["setup_times"]),
            "wall_s": statistics.fmean(c["wall_s"] for c in untraced),
            "peak_rss_mib": max(c["peak_rss_mib"] for c in untraced),
            "items_per_s": steps_per_s([s for c in untraced for s in c["steps"]]),
        },
    }
    report["correct"] = report["failed"] == 0
    report["error_rate"] = report["failed"] / report["attempted"]
    steps = [s for c in calls if c["traced"] == bool(trace) for s in c["steps"]]
    for stage in (0, 1):
        secs = [s["seconds"] for s in steps if s["stage"] == stage]
        report[f"step_s.stage{stage}"] = {"n": len(secs), "p50": percentile(secs, 50),
                                          "p90": percentile(secs, 90)}
    if trace:
        traced = [c for c in calls if c["traced"]]
        layer = {name: statistics.fmean(c["per_layer"][name] for c in traced)
                 for name in traced[0]["per_layer"]}
        for stage in (0, 1):
            layer[f"step_s.stage{stage}.p50"] = report[f"step_s.stage{stage}"]["p50"]
            layer[f"step_s.stage{stage}.p90"] = report[f"step_s.stage{stage}"]["p90"]
        layer["trace.overhead_s"] = (statistics.fmean(c["wall_s"] for c in traced)
                                     - report["metrics"]["wall_s"])
        layer["setup.import_s"] = statistics.median(c["import_s"] for c in calls)
        report["per_layer"] = layer
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as f:
        json.dump({"report": report, "calls": calls}, f, indent=1, sort_keys=True)
    return report


def steps_per_s(steps):
    """Optimizer steps per second of stepping, over every timed step."""
    seconds = sum(s["seconds"] for s in steps)
    return len(steps) / seconds if seconds else 0.0


def percentile(values, q):
    """Linear-interpolated percentile; 0.0 when there are no samples."""
    if not values:
        return 0.0
    values = sorted(values)
    pos = (len(values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def report_line(spec, report, trace):
    """The last stdout line: BENCHMARK.json metrics, each with its unit."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = report["per_layer"] if trace else report["metrics"]
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    })


def describe(report):
    """Human-readable lines for standard error."""
    env = report["env"]
    lines = [
        f"== {report['workload']}  seed {env['seed']}  commit {env['git_commit']}",
        f"   python {env['python']}  numpy {env['numpy']}  {env['blas']}  "
        f"blas threads env {env['blas_threads_env']['OPENBLAS_NUM_THREADS']} "
        f"runtime {env['blas_threads_runtime']}  nproc {env['nproc']}",
        f"   calls {report['attempted']} failed {report['failed']} "
        f"error_rate {report['error_rate']:.3f}  call seconds "
        + " ".join(f"{s:.3f}" for s in report["calls_s"]),
    ]
    for name, value in report["metrics"].items():
        lines.append(f"   {name:<16} {value:.6g}")
    for stage in ("stage0", "stage1"):
        st = report[f"step_s.{stage}"]
        if st["n"]:
            lines.append(f"   step_s.{stage}  p50 {st['p50']:.4f}  p90 {st['p90']:.4f}"
                         f"  (n={st['n']})")
    for name, digest in sorted(report["hashes"].items()):
        lines.append(f"   sha256 {name} {digest}")
    lines += [f"   PROBLEM {p}" for p in report["problems"]]
    lines.append(f"   report {os.path.relpath(report['out_dir'], ROOT)}/result.json")
    return "\n".join(lines)


def self_test():
    """Traced and untraced runs of a tiny config must leave identical bytes."""
    report = run_workload("selftest", 1, 0.0, 1)
    print(describe(report), file=sys.stderr)
    same = report["correct"] and report["attempted"] == 2 and bool(report["hashes"])
    print("self-test " + ("passed: traced and untraced artifacts are byte-identical"
                          if same else "FAILED"))
    return 0 if same else 1


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=names + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sgs", "__init__.py")):
        print(f"error: no sgs sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test()
        for workload in names if args.workload == "all" else [args.workload]:
            report = run_workload(workload, args.seed, args.seconds, args.trace)
            print(describe(report), file=sys.stderr)
            print(report_line(spec, report, args.trace), flush=True)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
