"""Tests of the benchmark harness itself (about a minute):

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

import tracer as tracer_module
from worker import import_program, run_pass

workloads = import_program()
HERE = os.path.dirname(os.path.abspath(__file__))


def traced_modules():
    return [m for name, m in sys.modules.items() if name.startswith("multisymp.")] + [workloads]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_outputs_identical_with_tracing_on_and_off(workload, tmp_path):
    expected = workloads.load_expected() if workload in workloads.DIGESTED else None
    plain, _ = run_pass(workloads.PASSES[workload](3, 0, str(tmp_path), expected), workloads.sha256)
    items = workloads.PASSES[workload](3, 0, str(tmp_path), expected)
    tracer = tracer_module.Tracer(traced_modules())
    tracer.install()
    try:
        traced, _ = run_pass(items, workloads.sha256, tracer)
    finally:
        tracer.uninstall()
    assert [(r["id"], r["sha256"]) for r in plain] == [(r["id"], r["sha256"]) for r in traced]
    assert all(r["ok"] for r in plain + traced), [r for r in plain + traced if not r["ok"]]
    assert sum(s for _, s in tracer.stats.values()) <= sum(r["latency_s"] for r in traced)
    assert not tracer.absent


def test_hooks_see_names_imported_by_value():
    from multisymp import dynamics, exterior, linalg

    original_hook_terms = exterior._hook_terms
    tracer = tracer_module.Tracer(traced_modules())
    tracer.install()
    try:
        assert dynamics._hook_terms is not original_hook_terms
        dynamics.contraction_form({(0,): 1}, {(0, 1): 1})
        linalg.nullspace([[1, 0]])
        assert tracer.stats["exterior._hook_terms"][0] == 1
        assert tracer.stats["linalg.nullspace"][0] == 1
    finally:
        tracer.uninstall()
    assert dynamics._hook_terms is original_hook_terms


def test_missing_target_is_reported_absent(monkeypatch):
    gone = tracer_module.Boundary("dynamics", "_no_such_helper")
    monkeypatch.setattr(tracer_module, "BOUNDARIES", tracer_module.BOUNDARIES + [gone])
    tracer = tracer_module.Tracer(traced_modules())
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["dynamics._no_such_helper"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fieldlab", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
