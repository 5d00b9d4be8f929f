"""Every plan under plans/ validates and dry-runs through `donlab experiment`."""

import json
from pathlib import Path

import pytest

from donlab.cli import main
from donlab.scaling import ExperimentPlan

from test_acceptance import criterion11_plan

PLANS = Path(__file__).resolve().parents[1] / "plans"

# (q, n, width, params) of the three full-scale reference families at the
# 18010-parameter budget, as the reference-grid printer they replace printed them
REFERENCE_TABLES = {
    "reference-half.json": [
        (5, 10000, 50, 18010), (10, 40000, 49, 17856), (15, 90000, 48, 17694),
        (20, 160000, 48, 18184), (25, 250000, 47, 18004), (30, 360000, 46, 17816),
        (35, 490000, 46, 18286), (40, 640000, 45, 18080), (45, 810000, 44, 17866),
        (50, 1000000, 44, 18316),
    ],
    "reference-two-thirds.json": [
        (10, 31623, 49, 17856), (15, 58095, 48, 17694), (20, 89443, 48, 18184),
        (25, 125001, 47, 18004), (30, 164318, 46, 17816), (35, 207064, 46, 18286),
        (40, 252984, 45, 18080), (45, 301871, 44, 17866), (50, 353556, 44, 18316),
    ],
    "reference-sixth.json": [
        (6, 11650, 50, 18112), (8, 65457, 50, 18316), (10, 249700, 49, 17856),
        (12, 745600, 49, 18056),
    ],
}
CRITERION_11_PLANS = {"quadratic-data.json": 0.5, "three-halves-data.json": 2.0 / 3.0}


def test_plan_files_are_the_known_ones():
    assert sorted(p.name for p in PLANS.glob("*.json")) == sorted(
        [*REFERENCE_TABLES, *CRITERION_11_PLANS])


@pytest.mark.parametrize("name", sorted([*REFERENCE_TABLES, *CRITERION_11_PLANS]))
def test_plan_dry_runs(name, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["experiment", "--config", str(PLANS / name), "--dry-run",
                 "--out-dir", str(out)]) == 0
    header, *rows = capsys.readouterr().out.strip().splitlines()
    assert header.split() == ["q", "n", "width", "params"]
    if name in REFERENCE_TABLES:
        assert [tuple(int(v) for v in row.split()) for row in rows] == REFERENCE_TABLES[name]
    assert not out.exists()


@pytest.mark.parametrize("name, exponent", sorted(CRITERION_11_PLANS.items()))
def test_demo_plans_are_the_criterion_11_plans(name, exponent):
    plan = ExperimentPlan.from_dict(json.loads((PLANS / name).read_text()))
    assert plan.to_dict() == criterion11_plan(exponent).to_dict()
