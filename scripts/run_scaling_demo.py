#!/usr/bin/env python3
"""Desk-scale fixed-ratio scaling demo.

Runs the two companion suites (data growing as q^2 vs q^1.5 at a fixed
~8k-parameter budget), writes plot CSVs plus a JSON summary per suite, and
prints the per-seed monotonicity verdicts.

Usage:
    python scripts/run_scaling_demo.py [--out-dir OUT] [--epochs N] [--threads N]
"""

import argparse
import json
import time
from pathlib import Path

from donlab.atomic import atomic_write_text
from donlab.datagen import AdrConfig
from donlab.scaling import (
    ExperimentPlan,
    check_monotonic,
    emit_plot_data,
    make_plan,
    run_suite,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="scaling-demo-out")
    ap.add_argument("--epochs", type=int, default=60)
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()

    common = dict(
        q_list=[4, 8, 16], target_params=8000, epochs=args.epochs,
        batch_size=256, seeds=[0, 1, 2],
        adr=AdrConfig(D=0.01, k=0.01, nx=101, nt=101),
    )
    suites = {
        "quadratic-data": ExperimentPlan(exponent=0.5, anchor_q=4,
                                         anchor_n=4000, **common),
        "three-halves-data": ExperimentPlan(exponent=2.0 / 3.0, anchor_q=4,
                                            anchor_n=4000, **common),
    }
    out_root = Path(args.out_dir)
    for name, plan in suites.items():
        t0 = time.perf_counter()
        pairs = make_plan((plan.anchor_q, plan.anchor_n), plan.q_list, plan.exponent)
        print(f"== suite {name}: q={plan.q_list}, n={[n for _, n in pairs]}")
        suite = run_suite(plan, max_workers=args.threads)
        verdict = check_monotonic(suite)
        out_dir = out_root / name
        emit_plot_data(suite, out_dir)
        atomic_write_text(out_dir / "suite-summary.json", json.dumps({
            "plan": plan.to_dict(),
            "verdict": verdict,
            "wall_time": time.perf_counter() - t0,
            "failures": [c.to_dict() for c in suite.failures],
        }, indent=1))
        for seed, row in verdict["per_seed"].items():
            print(f"   seed {seed}: best losses {['%.4g' % v for v in row['best_losses']]} "
                  f"monotone={row['monotone']}")
        print(f"   majority monotone: {verdict['majority_monotone']} "
              f"({time.perf_counter() - t0:.0f}s)")


if __name__ == "__main__":
    main()
