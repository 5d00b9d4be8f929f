"""Fixed-ratio scaling experiments.

Builds (q, n) grids at a fixed q / n^e ratio, sizes branch/trunk widths to
a near-constant parameter budget, trains each cell with mini-batch Adam,
and reports per-seed monotonicity of the best training loss along q.
"""

from __future__ import annotations

import csv
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import nn
from .atomic import atomic_path
from .datagen import AdrConfig, GrfConfig, build_adr_dataset
from .deeponet import (
    Dataset,
    DeepONetModel,
    _RiskEvaluator,
    _TwoTowers,
    init_model,
)
from .errors import ConfigurationError, InputError, NumericalError, check_number


@dataclass
class ExperimentPlan:
    """Full description of one fixed-ratio suite."""

    exponent: float
    anchor_q: int
    anchor_n: int
    q_list: list[int]
    target_params: int
    depth: int = 5
    branch_in: int = 40
    trunk_in: ClassVar[int] = 2  # plans build ADR data, queried at (x, t)
    epochs: int = 120
    batch_size: int = 256
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2])
    adr: AdrConfig = field(default_factory=AdrConfig)
    grf_length_scale: float = GrfConfig.length_scale
    grf_jitter: float = GrfConfig.jitter
    noise_std: float = 0.0
    points_per_function: int = 100
    hidden_activation: str = "relu"
    output_activation: str = "tanh"
    lr: float = 0.001
    param_tolerance: float = 0.05

    def __post_init__(self):
        for name, at_least in (("anchor_q", 1), ("anchor_n", 1), ("target_params", None),
                               ("depth", 2), ("branch_in", None), ("epochs", 0),
                               ("batch_size", 1), ("points_per_function", None)):
            check_number(name, getattr(self, name), ConfigurationError, count=True,
                         at_least=at_least)
        for name, at_least in (("q_list", 1), ("seeds", 0)):
            items = getattr(self, name)
            if not isinstance(items, list):
                raise ConfigurationError(f"{name} must be a list of ints, got {items!r}")
            for i, v in enumerate(items):
                check_number(f"{name}[{i}]", v, ConfigurationError, count=True, at_least=at_least)
        check_number("exponent", self.exponent, ConfigurationError, finite=True, above=0)
        if not self.q_list or sorted(self.q_list) != list(self.q_list):
            raise ConfigurationError("q_list must be non-empty and increasing")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError(f"seeds must be non-empty and distinct; got {self.seeds}")
        check_number("lr", self.lr, ConfigurationError, finite=True, above=0)
        check_number("noise_std", self.noise_std, ConfigurationError, finite=True, at_least=0)
        check_number("param_tolerance", self.param_tolerance, ConfigurationError, finite=True,
                     at_least=0)
        # what run_cell hands on is checked here by its owners' rules, before any work
        nn.MlpSpec((1, 1), hidden_activation=self.hidden_activation,
                   output_activation=self.output_activation)
        try:
            GrfConfig(self.adr.x_grid, self.grf_length_scale, self.grf_jitter)
        except ConfigurationError as exc:  # GrfConfig names its field, the plan adds grf_
            raise ConfigurationError(f"grf_{exc}") from exc

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentPlan":
        d = dict(d)
        exponent = d.pop("exponent")
        if isinstance(exponent, str):
            num, _, den = exponent.partition("/")
            try:
                exponent = float(num) / float(den) if den else float(num)
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigurationError(
                    f"exponent must be a number or a fraction a/b, got {exponent!r}") from exc
        if "anchor" in d:
            anchor = d.pop("anchor")
            if "anchor_q" in d or "anchor_n" in d:
                raise ConfigurationError("anchor cannot be given with anchor_q or anchor_n")
            if not (isinstance(anchor, (list, tuple)) and len(anchor) == 2):
                raise ConfigurationError(f"anchor must be a list [q0, n0], got {anchor!r}")
            d["anchor_q"], d["anchor_n"] = anchor
        adr = d.pop("adr", {})
        return cls(exponent=exponent, adr=AdrConfig(**adr), **d)


def make_plan(anchor: tuple[int, int], q_list, exponent: float) -> list[tuple[int, int]]:
    """(q, n) pairs with n_i = round(n0 * (q_i / q0)^(1/e))."""
    q0, n0 = anchor
    check_number("anchor q0", q0, InputError, count=True, at_least=1)
    check_number("anchor n0", n0, InputError, count=True, at_least=1)
    check_number("exponent", exponent, InputError, above=0)
    out = []
    for i, q in enumerate(q_list):
        check_number(f"q_list[{i}]", q, InputError, count=True, at_least=1)
        try:
            out.append((q, math.floor(n0 * (q / q0) ** (1.0 / exponent) + 0.5)))
        except OverflowError as exc:
            raise InputError(f"n at q={q} overflows a float at exponent {exponent!r}") from exc
    return out


def architecture_params(width: int, q: int, depth: int = 5,
                        branch_in: int = 40, trunk_in: int = 2) -> int:
    """Total parameter count of a branch+trunk pair at uniform hidden width.

    With depth weight layers per net this is
    2 (depth-2) w^2 + (branch_in + trunk_in + 2 (depth-2) + 2) w + 2 w q + 2 q,
    which for depth 5, inputs 40 and 2 reduces to 6 w^2 + 50 w + 2 w q + 2 q.
    """
    hid = depth - 2
    return (
        2 * hid * width * width
        + (branch_in + trunk_in + 2 * hid + 2) * width
        + 2 * width * q
        + 2 * q
    )


def size_architecture(target_params: int, q: int, depth: int = 5,
                      branch_in: int = 40, trunk_in: int = 2) -> int:
    """Integer hidden width minimizing |params - target_params|."""
    check_number("depth", depth, InputError, count=True, at_least=2)
    check_number("q", q, InputError, count=True, at_least=1)
    check_number("target_params", target_params, InputError, count=True, at_least=1)
    # the count is a quadratic a w^2 + b w + f0 in the width w
    f0, f1, f2 = (architecture_params(w, q, depth, branch_in, trunk_in) for w in (0, 1, 2))
    if f1 > target_params:
        raise ConfigurationError(
            f"target {target_params} below the smallest model at q={q}"
        )
    a = (f2 - 2 * f1 + f0) // 2
    b = f1 - f0 - a
    c = f0 - target_params
    # floor of the positive root, in integers so that any target fits
    w = -c // b if a == 0 else (math.isqrt(b * b - 4 * a * c) - b) // (2 * a)
    return min(
        (w, w + 1),
        key=lambda v: (
            abs(architecture_params(v, q, depth, branch_in, trunk_in) - target_params),
            v,
        ),
    )


@dataclass
class PlannedCell:
    q: int
    n: int
    width: int
    param_count: int


def plan_cells(plan: ExperimentPlan) -> list[PlannedCell]:
    """Resolve the plan into concrete cells, enforcing the plan invariants."""
    pairs = make_plan((plan.anchor_q, plan.anchor_n), plan.q_list, plan.exponent)
    ns = [n for _, n in pairs]
    if sorted(ns) != ns or len(set(ns)) != len(ns):
        raise ConfigurationError("n values must be strictly increasing with q")
    cells = []
    for q, n in pairs:
        w = size_architecture(plan.target_params, q, plan.depth,
                              plan.branch_in, plan.trunk_in)
        count = architecture_params(w, q, plan.depth, plan.branch_in, plan.trunk_in)
        if count > np.iinfo(np.intp).max:
            raise ConfigurationError(
                f"cell q={q}: {count} params exceed the {np.iinfo(np.intp).max} entries "
                "one array can hold"
            )
        if abs(count - plan.target_params) / plan.target_params > plan.param_tolerance:
            raise ConfigurationError(
                f"cell q={q}: {count} params misses target {plan.target_params} "
                f"by more than {plan.param_tolerance:.0%}"
            )
        cells.append(PlannedCell(q=q, n=n, width=w, param_count=count))
    return cells


@dataclass
class CellResult(PlannedCell):
    """One trained (or failed) cell; its losses are read off loss_curve."""

    seed: int
    loss_curve: list[float]
    wall_time: float
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def best_loss(self) -> float:
        return min(self.loss_curve, default=math.nan)

    @property
    def final_loss(self) -> float:
        return self.loss_curve[-1] if self.loss_curve else math.nan


@dataclass
class SuiteResult:
    plan: ExperimentPlan
    cells: list[CellResult]

    @property
    def failures(self) -> list[CellResult]:
        return [c for c in self.cells if c.failed]


def train_deeponet(
    model: DeepONetModel,
    dataset: Dataset,
    epochs: int,
    batch_size: int,
    seed: int,
    lr: float = 0.001,
    adam_branch: nn.AdamState | None = None,
    adam_trunk: nn.AdamState | None = None,
    start_epoch: int = 0,
    weight_ball: float | None = None,
) -> tuple[DeepONetModel, nn.AdamState, nn.AdamState, list[float]]:
    """Mini-batch Adam training; logs full-dataset risk at each epoch end.

    The per-epoch shuffle is seeded by (seed, epoch index), so resuming from
    a checkpointed (model, optimizer state, epoch) continues the exact same
    trajectory as an uninterrupted run. With ``weight_ball`` set, both flat
    vectors are projected back onto that 2-norm ball after every step
    (bound-faithful mode); by default the norms are unconstrained and just
    reported by the callers.
    """
    for name, value, at_least in (("epochs", epochs, 0), ("batch_size", batch_size, 1),
                                  ("seed", seed, 0), ("start_epoch", start_epoch, 0)):
        check_number(name, value, InputError, count=True, at_least=at_least)
    if weight_ball is not None:
        check_number("weight_ball", weight_ball, InputError, finite=True, above=0)
    if adam_branch is None:
        adam_branch = nn.adam_init(model.branch.flat.size, lr=lr)
    if adam_trunk is None:
        adam_trunk = nn.adam_init(model.trunk.flat.size, lr=lr)
    shared = [(a.t, a.lr, a.beta1, a.beta2, a.eps) for a in (adam_branch, adam_trunk)]
    if shared[0] != shared[1]:  # one Adam update serves both nets
        raise InputError(f"adam_branch and adam_trunk must share (t, lr, beta1, beta2, eps), "
                         f"got {shared[0]} and {shared[1]}")
    step = _TwoTowers(model)
    joint = step.join(model.branch.flat, model.trunk.flat)
    adam = replace(adam_branch, m=step.join(adam_branch.m, adam_trunk.m),
                   v=step.join(adam_branch.v, adam_trunk.v))
    curve = []
    sensors, source, p, y = dataset.sensors, dataset.source, dataset.p, dataset.y
    n = dataset.n
    risks = _RiskEvaluator(model, dataset).risks if epochs > 0 else None
    for epoch in range(start_epoch, start_epoch + epochs):
        perm = np.random.default_rng([seed, epoch]).permutation(n)
        for lo in range(0, n, batch_size):
            idx = perm[lo : lo + batch_size]
            grad, _ = step(joint, sensors.take(source.take(idx), 0), p.take(idx, 0), y.take(idx))
            adam, joint = nn._adam_update(adam, joint, grad)
            if weight_ball is not None:
                joint = step.join(*(
                    nn.project_to_ball(nn.MlpParams(spec, flat), weight_ball).flat
                    for spec, flat in zip(step.specs, step.split(joint))))
        loss = float(risks(*step.split(joint)))
        if not math.isfinite(loss):
            raise NumericalError(f"non-finite training loss at epoch {epoch}")
        curve.append(loss)
    (branch, trunk), (mb, mt), (vb, vt) = map(step.split, (joint, adam.m, adam.v))
    model = DeepONetModel(nn.MlpParams(step.specs[0], branch), nn.MlpParams(step.specs[1], trunk))
    return model, replace(adam, m=mb, v=vb), replace(adam, m=mt, v=vt), curve


def build_cell_dataset(plan: ExperimentPlan, n: int, seed) -> Dataset:
    """Generation for one cell: enough source functions, truncated to exactly n."""
    grf = GrfConfig(
        grid=plan.adr.x_grid,
        length_scale=plan.grf_length_scale,
        jitter=plan.grf_jitter,
    )
    ppf = plan.points_per_function
    num_functions = math.ceil(n / ppf)
    ds = build_adr_dataset(
        grf=grf,
        adr=plan.adr,
        sensor_count=plan.branch_in,
        num_functions=num_functions,
        points_per_function=ppf,
        noise_std=plan.noise_std,
        seed=seed,
    )
    if ds.n == n:
        return ds
    sub = ds.take(np.arange(n))
    sub.B = float(np.max(np.abs(sub.y)))
    return sub


def run_cell(cell: PlannedCell, plan: ExperimentPlan, seed: int) -> CellResult:
    """Train one (q, n, width) cell; failures are captured, not raised."""
    t0 = time.perf_counter()
    curve, error = [], None
    try:
        dataset = build_cell_dataset(plan, cell.n, seed=[seed, cell.q, cell.n])
        model = init_model(plan.branch_in, plan.trunk_in, cell.q, cell.width,
                           plan.depth, seed, plan.hidden_activation,
                           plan.output_activation, "he")
        _, _, _, curve = train_deeponet(
            model, dataset, plan.epochs, plan.batch_size, seed=seed, lr=plan.lr
        )
    except Exception as exc:  # noqa: BLE001 - failed cells must not abort the suite
        error = f"{type(exc).__name__}: {exc}"
    return CellResult(**asdict(cell), seed=seed, loss_curve=curve,
                      wall_time=time.perf_counter() - t0, error=error)


def run_suite(plan: ExperimentPlan, max_workers: int = 1) -> SuiteResult:
    """All cells x seeds; results are keyed by (q, n, seed), order-independent."""
    check_number("max_workers", max_workers, InputError, count=True, at_least=1)
    cells = plan_cells(plan)
    jobs = [(cell, seed) for cell in cells for seed in plan.seeds]
    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(lambda cs: run_cell(cs[0], plan, cs[1]), jobs))
    else:
        results = [run_cell(cell, plan, seed) for cell, seed in jobs]
    results.sort(key=lambda r: (r.q, r.n, r.seed))
    return SuiteResult(plan=plan, cells=results)


def check_monotonic(suite: SuiteResult) -> dict:
    """Per-seed verdict: is best_loss non-increasing along increasing q?

    Failed cells are excluded from their seed's sequence (and reported);
    a seed with no usable cells casts no vote in the majority verdict.
    """
    per_seed = {}
    votes = []
    for seed in suite.plan.seeds:
        rows = sorted(
            (c for c in suite.cells if c.seed == seed and not c.failed),
            key=lambda c: c.q,
        )
        excluded = [c.q for c in suite.cells if c.seed == seed and c.failed]
        losses = [c.best_loss for c in rows]
        monotone = all(b <= a for a, b in zip(losses, losses[1:]))
        usable = len(rows) >= 1
        per_seed[str(seed)] = {
            "qs": [c.q for c in rows],
            "best_losses": losses,
            "monotone": monotone if usable else None,
            "excluded_failed_qs": excluded,
        }
        if usable:
            votes.append(monotone)
    majority = bool(votes) and sum(votes) * 2 > len(votes)
    return {
        "per_seed": per_seed,
        "seeds_counted": len(votes),
        "majority_monotone": majority,
    }


def emit_plot_data(suite: SuiteResult, out_dir) -> tuple[Path, Path]:
    """Long-format curves CSV and a per-cell summary CSV; emission is
    deterministic, so re-emitting the same suite is byte-identical."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    curves = out_dir / "curves.csv"
    summary = out_dir / "summary.csv"
    with atomic_path(curves) as tmp, tmp.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["q", "n", "seed", "epoch", "loss"])
        for cell in suite.cells:
            for epoch, loss in enumerate(cell.loss_curve):
                w.writerow([cell.q, cell.n, cell.seed, epoch, repr(float(loss))])
    with atomic_path(summary) as tmp, tmp.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["q", "n", "seed", "best_loss", "final_loss"])
        for cell in suite.cells:
            w.writerow([
                cell.q, cell.n, cell.seed,
                repr(float(cell.best_loss)), repr(float(cell.final_loss)),
            ])
    return curves, summary
