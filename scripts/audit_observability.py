#!/usr/bin/env python3
"""Large-scale audit of the observability dichotomy on full momentum charts.

On a full momentum chart an n-form is observable (its value on the
decomposable solution cone depends only on the contraction) exactly when
it is a contraction image xi . Omega.  The sampling test can only err in
one direction -- a reported counterexample is exact, a pass is
probabilistic -- so this audit hammers the pass direction: it draws many
candidate forms, compares the sampled verdict against exact solvability,
and reports any disagreement with its seed.  It also prints one sha256
over the `repr` of every verdict in order, counterexamples included, so
two versions of the sampler can be compared byte for byte.

Usage:  python scripts/audit_observability.py [n_candidates] [base_seed]
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import random_aof_like_candidate  # noqa: E402

from multisymp.algebra import RationalSampler  # noqa: E402
from multisymp.charts import lepage_dedecker_chart  # noqa: E402
from multisymp.dynamics import of_sampling_test  # noqa: E402
from multisymp.observables import NotAOF, solve_contraction  # noqa: E402


def main() -> int:
    n_candidates = int(sys.argv[1]) if len(sys.argv) > 1 else 1000
    base_seed = int(sys.argv[2]) if len(sys.argv) > 2 else 12345
    charts = [lepage_dedecker_chart(2, 2), lepage_dedecker_chart(2, 3)]
    disagreements = []
    digest = hashlib.sha256()
    start = time.time()
    for chart in charts:
        sampler = RationalSampler(base_seed + chart.dim)
        point = sampler.point(chart.dim)
        solvable_count = 0
        for trial in range(n_candidates):
            candidate = random_aof_like_candidate(chart, sampler)
            if not candidate:
                continue
            at_point = candidate.at_point(point)
            solvable = not isinstance(solve_contraction(chart, at_point), NotAOF)
            solvable_count += solvable
            verdict = of_sampling_test(
                chart, candidate, point, sample_count=5, seed=base_seed ^ trial
            )
            digest.update(repr(verdict).encode())
            if verdict.passed != solvable:
                disagreements.append((chart.name, trial, solvable, verdict.passed))
        print(
            f"{chart.name}: {n_candidates} candidates "
            f"({solvable_count} solvable), disagreements so far: {len(disagreements)}"
        )
    elapsed = time.time() - start
    print(f"verdict digest: {digest.hexdigest()}")
    if disagreements:
        for chart_name, trial, solvable, observed in disagreements:
            print(f"DISAGREEMENT {chart_name} trial {trial}: solvable={solvable} sampled={observed}")
        print(f"audit FAILED in {elapsed:.1f}s")
        return 1
    print(f"audit clean in {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
