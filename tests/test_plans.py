"""Every plan under plans/ validates and dry-runs through `donlab experiment`."""

import json
from pathlib import Path

import pytest

from donlab.cli import main
from donlab.errors import ConfigurationError
from donlab.scaling import ExperimentPlan

from test_acceptance import criterion11_plan

PLANS = Path(__file__).resolve().parents[1] / "plans"

# (q, n, width, params) of the three full-scale reference families at the
# 18010-parameter budget, as the reference-grid printer they replace printed them,
# and of the theorem's own rate, n growing as q^4, at the 8000-parameter budget
PINNED_TABLES = {
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
    "theorem-rate.json": [(2, 1000, 32, 7876), (3, 5063, 32, 7942), (4, 16000, 32, 8008)],
}
CRITERION_11_PLANS = {"quadratic-data.json": 0.5, "three-halves-data.json": 2.0 / 3.0}


def test_plan_files_are_the_known_ones():
    assert sorted(p.name for p in PLANS.glob("*.json")) == sorted(
        [*PINNED_TABLES, *CRITERION_11_PLANS])


@pytest.mark.parametrize("name", sorted([*PINNED_TABLES, *CRITERION_11_PLANS]))
def test_plan_dry_runs(name, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["experiment", "--config", str(PLANS / name), "--dry-run",
                 "--out-dir", str(out)]) == 0
    header, *rows = capsys.readouterr().out.strip().splitlines()
    assert header.split() == ["q", "n", "width", "params"]
    if name in PINNED_TABLES:
        assert [tuple(int(v) for v in row.split()) for row in rows] == PINNED_TABLES[name]
    assert not out.exists()


# the exponent's JSON text: JSON reads 1e400 as inf, and "0/1" is the fraction 0
@pytest.mark.parametrize("text, shown", [
    ("0", "0"), ("-0.5", "-0.5"), ('"0/1"', "0.0"), ("true", "True"), ("1e400", "inf"),
    ('"1/4"', None),
])
def test_exponent_is_any_finite_number_above_zero(text, shown, tmp_path, capsys):
    plan_text = (PLANS / "theorem-rate.json").read_text().replace('"1/4"', text, 1)
    config = tmp_path / "plan.json"
    config.write_text(plan_text)
    code = main(["experiment", "--config", str(config), "--dry-run",
                 "--out-dir", str(tmp_path / "o")])
    if shown is None:
        assert code == 0 and ExperimentPlan.from_dict(json.loads(plan_text)).exponent == 0.25
        return
    message = f"exponent must be a finite number > 0, got {shown}"
    assert code == 2 and capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        ExperimentPlan.from_dict(json.loads(plan_text))


@pytest.mark.parametrize("name, exponent", sorted(CRITERION_11_PLANS.items()))
def test_demo_plans_are_the_criterion_11_plans(name, exponent):
    plan = ExperimentPlan.from_dict(json.loads((PLANS / name).read_text()))
    assert plan.to_dict() == criterion11_plan(exponent).to_dict()
