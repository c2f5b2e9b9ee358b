#!/usr/bin/env python3
"""Run the shipped conservation experiments and write their CSV series.

Usage:  python scripts/run_conservation.py [output_dir]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from multisymp.fieldlab import conservation_experiment, load_experiment_config, write_series_csv

CONFIGS = ["linear_smeared.json", "nonlinear_smeared.json"]


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("experiment_output")
    out_dir.mkdir(parents=True, exist_ok=True)
    here = Path(__file__).parent
    all_ok = True
    for name in CONFIGS:
        config = load_experiment_config(here / name)
        result = conservation_experiment(config)
        stem = Path(name).stem
        write_series_csv(result, out_dir / f"{stem}.csv")
        summary = result.summary()
        with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
        flag = "ok" if result.matches_expectations else "MISMATCH"
        print(f"{stem}: {flag}")
        for item in summary["functionals"]:
            print(f"  {item['functional']:8s} drift={item['max_drift']:.3e} conserved={item['conserved']}")
        all_ok = all_ok and result.matches_expectations
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
