#!/usr/bin/env python3
"""The multisymp benchmark: one workload, one run, every metric by name and unit.

    python3 perfbench/run.py --workload cli --seed 1 --seconds 15 --trace 0

A run first imports the program once, untimed, so that bytecode
compilation is charged to no run.  It then runs passes of the workload,
each in a fresh process, until --seconds have gone by; every pass is the
workload's fixed item set, with inputs generated from the seed and the
pass index.  One client, closed loop, no threads, one process at a time.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each pass twice
with the same inputs, untraced and then traced, checks that every item's
output is byte-identical, and reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object;
the lines before it are the human-readable table and the environment.
The exit code is 0 when every item's output was correct, 1 when an item
failed, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from tracer import DERIVED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKDIR = os.path.join(HERE, ".work")
WORKLOADS = ("cli", "audit", "calculus", "fieldlab")
P90_MIN_ITEMS = 100  # a 90th percentile needs at least ten samples beyond it
RUN_LIMIT_S = 170.0  # a run must end within 180 s
MIN_SETUPS = 5  # processes that only set up make up the count when passes are few
PROBE_REF_S = 0.0007  # speed probe time taken as the reference speed


class PassFailed(Exception):
    pass


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "multisymp")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": loadavg(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def spawn(args: list[str], run_start: float) -> None:
    timeout = max(5.0, RUN_LIMIT_S - (time.monotonic() - run_start))
    cmd = [sys.executable, WORKER] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"worker {' '.join(args[:6])} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise PassFailed(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")


def run_pass(workload: str, seed: int, index: int, rundir: str, run_start: float,
             trace_path: str | None = None, setup_only: bool = False) -> dict:
    out = os.path.join(rundir, f"pass-{index}-{'traced' if trace_path else 'plain'}.json")
    args = ["--workload", workload, "--seed", str(seed), "--index", str(index), "--workdir", rundir,
            "--out", out]
    if trace_path:
        args += ["--trace", trace_path]
    if setup_only:
        args.append("--setup-only")
    spawn(args + ["--spawned", repr(time.monotonic())], run_start)
    with open(out, encoding="utf-8") as fh:
        return calibrate(json.load(fh))


def items_of(passes: list[dict]) -> list[dict]:
    return [item for p in passes for item in p["items"]]


def calibrate(p: dict) -> dict:
    """Add each item's latency at reference speed, from the probes around it."""
    probes = p["probes"]
    for k, item in enumerate(p["items"]):
        around = [probes[k], probes[k + 1]] + item["inner_probes"]
        item["ref_s"] = item["latency_s"] * PROBE_REF_S * len(around) / sum(around)
    p["wall_s"] = sum(i["latency_s"] for i in p["items"])
    p["ref_wall_s"] = sum(i["ref_s"] for i in p["items"])
    p["ref_setup_s"] = p["setup_s"] * PROBE_REF_S / probes[0]
    return p


def report_failures(items: list[dict]) -> None:
    for item in items:
        if not item["ok"]:
            print(f"FAILED item {item['id']}: {item['error'] or 'wrong output'}")


def end_to_end(passes: list[dict], setups: list[dict]) -> tuple[dict, list[str]]:
    items = items_of(passes)
    failed = sum(not i["ok"] for i in items)
    n_pass = len(passes)
    lines = []
    both = {}
    for label, lat, wall, setup in (("measured", "latency_s", "wall_s", "setup_s"),
                                    ("at reference speed", "ref_s", "ref_wall_s", "ref_setup_s")):
        latencies_ms = [i[lat] * 1000.0 for i in items]
        both[label] = metrics = {
            "setup_s": (statistics.median(p[setup] for p in setups), "s"),
            "wall_s": (statistics.median(p[wall] for p in passes), "s"),
            "item_p50_ms": (statistics.median(latencies_ms), "ms"),
            "peak_rss_mb": (statistics.median(p["peak_rss_kb"] / 1024.0 for p in passes), "MB"),
        }
        p90 = (f"{statistics.quantiles(latencies_ms, n=10)[8]:.4f} ms"
               if len(latencies_ms) >= P90_MIN_ITEMS else
               f"n/a (not applicable: {len(latencies_ms)} items, fewer than {P90_MIN_ITEMS})")
        lines += [
            f"-- {label}",
            f"setup_s      {metrics['setup_s'][0]:.4f} s   median of {len(setups)} set-ups",
            f"wall_s       {metrics['wall_s'][0]:.4f} s   median of {n_pass} passes of "
            f"{len(passes[0]['items'])} items",
            f"item_p50_ms  {metrics['item_p50_ms'][0]:.4f} ms  ({len(latencies_ms)} samples)",
            f"item_p90_ms  {p90}",
            f"failed_ratio {failed / len(items):.4f} 1   ({failed} of {len(items)})",
            f"peak_rss_mb  {metrics['peak_rss_mb'][0]:.2f} MB  median of {n_pass} processes",
        ]
    probes = [x for p in passes for x in p["probes"]]
    lines.append(f"speed probe {statistics.median(probes) * 1e3:.4f} ms median of {len(probes)} "
                 f"(reference {PROBE_REF_S * 1e3:.4f} ms)")
    lines.insert(0, "# measured " + json.dumps({k: v for k, (v, _) in both["measured"].items()}))
    return both["at reference speed"], lines


def per_layer(pairs: list[tuple[dict, dict]]) -> tuple[dict, list[str]]:
    """Per-pass means of the traced passes, and the checks of a traced run:
    identical item outputs with and without tracing, and self times that
    add up to no more than the traced pass."""
    traced = [t for _, t in pairs]
    n = len(traced)
    metrics: dict[str, tuple[float, str]] = {}
    for name in traced[0]["trace"]["stats"]:
        metrics[f"{name}.calls"] = (sum(t["trace"]["stats"][name][0] for t in traced) / n, "count")
        metrics[f"{name}.self_s"] = (sum(t["trace"]["stats"][name][1] for t in traced) / n, "s")
    units = dict(DERIVED)
    for name in traced[0]["trace"]["derived"]:
        metrics[name] = (sum(t["trace"]["derived"][name] for t in traced) / n, units[name])
    plain_wall = statistics.mean(p["ref_wall_s"] for p, _ in pairs)
    traced_wall = statistics.mean(t["ref_wall_s"] for t in traced)
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")

    lines = []
    mismatched = 0
    for plain, tr in pairs:
        for a, b in zip(plain["items"], tr["items"]):
            if a["sha256"] != b["sha256"]:
                b["ok"] = False
                b["error"] = b["error"] or "output differs with tracing on"
                mismatched += 1
        self_total = sum(s for _, s in tr["trace"]["stats"].values())
        if self_total > tr["wall_s"] + 1e-6:
            last = tr["items"][-1]
            last["ok"] = False
            last["error"] = f"self times {self_total:.4f} s exceed the traced pass {tr['wall_s']:.4f} s"
    absent = traced[0]["trace"]["absent"]
    lines.append(f"traced {n} passes; items whose output differs with tracing on: {mismatched}")
    lines.append(f"tracing overhead at reference speed: traced wall_s {traced_wall:.4f} s - untraced wall_s "
                 f"{plain_wall:.4f} s = {traced_wall - plain_wall:.4f} s")
    measured = [statistics.mean(p["wall_s"] for p, _ in pairs), statistics.mean(t["wall_s"] for t in traced)]
    lines.append(f"tracing overhead as measured: {measured[1]:.4f} s - {measured[0]:.4f} s = "
                 f"{measured[1] - measured[0]:.4f} s")
    if absent:
        lines.append(f"absent hook targets (metrics not reported): {', '.join(absent)}")
    layer_self: dict[str, float] = {}
    for name in traced[0]["trace"]["stats"]:
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + metrics[f"{name}.self_s"][0]
    lines.append("self time per layer: " + ", ".join(f"{k} {v:.3f} s" for k, v in layer_self.items()))
    return metrics, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "multisymp", "__init__.py")):
        print(f"no multisymp sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    env = environment()
    os.makedirs(WORKDIR, exist_ok=True)
    rundir = os.path.join(WORKDIR, f"run-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    trace_path = os.path.join(WORKDIR, f"trace-{args.workload}.jsonl") if args.trace else None
    try:
        run_start = time.monotonic()
        spawn(["--warmup"], run_start)
        if trace_path:
            open(trace_path, "w").close()
        start = time.monotonic()
        passes, pairs, index = [], [], 0
        # Start another pass while at least half of it, and the set-up-only
        # processes still owed after it, fit in --seconds.
        def predicted_end() -> float:
            elapsed = time.monotonic() - start
            owed = 0 if trace_path else max(0, MIN_SETUPS - index - 1)
            return elapsed * (1 + 0.5 / index) + owed * statistics.median(p["setup_s"] for p in passes)

        while index == 0 or predicted_end() <= args.seconds:
            plain = run_pass(args.workload, args.seed, index, rundir, run_start)
            if trace_path:
                pairs.append((plain, run_pass(args.workload, args.seed, index, rundir, run_start, trace_path)))
            passes.append(plain)
            index += 1
        setups = list(passes)
        while not trace_path and len(setups) < MIN_SETUPS:
            setups.append(run_pass(args.workload, args.seed, index, rundir, run_start, setup_only=True))
            index += 1
    except PassFailed as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    env["loadavg_end"] = loadavg()

    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload}, seed {args.seed}, {len(passes)} passes, trace {args.trace}")
    if trace_path:
        metrics, lines = per_layer(pairs)
        checked = items_of(passes) + items_of([t for _, t in pairs])
        lines.append(f"spans and per-item counters: {os.path.relpath(trace_path, ROOT)}")
    else:
        metrics, lines = end_to_end(passes, setups)
        checked = items_of(passes)
    for line in lines:
        print(line)
    report_failures(checked)
    failed = sum(not i["ok"] for i in checked)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
