"""One pass of one workload in a fresh process.

Started by run.py, never by hand.  Set-up time runs from the moment the
parent spawned this process (CLOCK_MONOTONIC is shared by all processes)
to the first timed item: interpreter start, `import multisymp` and input
generation.  The result goes to the JSON file named by --out; the report
bytes the items write to stdout are captured and never reach it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_program():
    """Import multisymp from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import multisymp

    if os.path.dirname(os.path.dirname(os.path.abspath(multisymp.__file__))) != SRC:
        raise SystemExit(f"multisymp imported from {multisymp.__file__}, not from {SRC}")
    import workloads

    return workloads


def speed_probe() -> float:
    """Seconds a fixed piece of exact arithmetic takes right now, best of
    three so that an interrupt does not count."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 100):
            acc += Fraction(i % 7 + 1, i % 5 + 2) * Fraction(1, i % 11 + 1)
        best = min(best, time.perf_counter() - start)
    return best


class InItemProbes:
    """Speed probes inside long items: SIGALRM every PERIOD_S runs a probe
    between two bytecodes of the item.  The handler's own time is kept apart
    and taken out of the item's latency."""

    PERIOD_S = 0.2

    def __init__(self):
        self.values: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._handler)

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.values.append(speed_probe())
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        self.values, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_pass(items, digest, tracer=None) -> tuple[list, list[float]]:
    """Run the items in order, with a speed probe before each item and
    after the last one, and in-item probes in untraced passes."""
    records = []
    probes = []
    inner = None if tracer else InItemProbes()
    for item in items:
        probes.append(speed_probe())
        if tracer:
            tracer.begin_item(item.id, item.verb)
        if inner:
            inner.start()
        start = time.perf_counter()
        error = None
        try:
            output, ok = item.run()
        except Exception as exc:  # an exception is a failed item, reported below
            output, ok, error = b"", False, f"{type(exc).__name__}: {exc}"
        if inner:
            inner.stop()
        end = time.perf_counter()
        if tracer:
            tracer.end_item()
        records.append({"id": item.id, "verb": item.verb, "ok": bool(ok), "sha256": digest(output),
                        "error": error, "latency_s": end - start - (inner.spent if inner else 0.0),
                        "inner_probes": inner.values if inner else []})
    probes.append(speed_probe())
    return records, probes


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--warmup", action="store_true", help="only import, compiling the bytecode")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--spawned", type=float)
    parser.add_argument("--trace", default=None, help="JSONL file for spans; traces the pass")
    parser.add_argument("--setup-only", action="store_true", help="measure set-up, run no item")
    parser.add_argument("--workdir")
    parser.add_argument("--out")
    args = parser.parse_args()

    workloads = import_program()
    if args.warmup:
        import tracer  # noqa: F401

        return 0
    build = workloads.PASSES[args.workload]
    expected = workloads.load_expected() if args.workload in workloads.DIGESTED else None
    items = build(args.seed, args.index, args.workdir, expected)
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        items = []

    tracer = None
    if args.trace:
        from tracer import Tracer

        patch = [m for name, m in sys.modules.items() if name.startswith("multisymp.")] + [workloads]
        tracer = Tracer(patch)
        tracer.install()
    records, probes = run_pass(items, workloads.sha256, tracer)
    result = {
        "setup_s": setup_s,
        "probes": probes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "items": records,
    }
    if tracer:
        tracer.uninstall()
        result["trace"] = {"stats": tracer.stats, "derived": tracer.derived(), "absent": tracer.absent}
        with open(args.trace, "a", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in tracer.span_lines(args.index))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
