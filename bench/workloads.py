"""The benchmark workloads: three gated by BENCHMARK.json, plus suite-pair.

Each workload builds its inputs from the benchmark seed in `setup()` and does
one timed unit of work per `run_pass()`. A pass returns an `Outcome`: how many
checked operations it attempted, which of them failed, the SHA-256 digests of
its outputs (identical on every pass of a run, since a pass is a pure
function of the seed), and the amount of work done, for throughputs.

Why each workload exists, and which layer metrics should move it, is written
up in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from donlab import bounds, cli, datagen, deeponet, nn, scaling

# The criterion-11 companion plans: anchor (4, 4000), q in {4, 8, 16},
# an 8000-parameter budget, depth 5, batch 256.
ANCHOR = (4, 4000)
Q_LIST = [4, 8, 16]
TARGET_PARAMS = 8000
EXPONENTS = {"half": 0.5, "two_thirds": 2.0 / 3.0}


@dataclass
class Outcome:
    attempted: int = 0
    failed: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    work: dict[str, float] = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _criterion11_plan(exponent: float, epochs: int, seeds: list[int]) -> scaling.ExperimentPlan:
    return scaling.ExperimentPlan(
        exponent=exponent, anchor_q=ANCHOR[0], anchor_n=ANCHOR[1], q_list=Q_LIST,
        target_params=TARGET_PARAMS, epochs=epochs, seeds=seeds,
    )


def _cell_model(plan: scaling.ExperimentPlan, q: int, width: int, seed: int) -> deeponet.DeepONetModel:
    """The suite's model for one cell, built from the public nn API."""
    common = dict(hidden_activation=plan.hidden_activation,
                  output_activation=plan.output_activation, init_scheme="he")
    hidden = [width] * (plan.depth - 1)
    return deeponet.DeepONetModel(
        branch=nn.init_mlp(nn.MlpSpec(tuple([plan.branch_in] + hidden + [q]), **common),
                           seed=[seed, 1]),
        trunk=nn.init_mlp(nn.MlpSpec(tuple([plan.trunk_in] + hidden + [q]), **common),
                          seed=[seed, 2]),
    )


def _same_params(a: nn.MlpParams, b: nn.MlpParams) -> bool:
    return a.spec == b.spec and a.flat.tobytes() == b.flat.tobytes()


def _same_adam(a: nn.AdamState, b: nn.AdamState) -> bool:
    return (a.m.tobytes() == b.m.tobytes() and a.v.tobytes() == b.v.tobytes()
            and (a.t, a.lr, a.beta1, a.beta2, a.eps) == (b.t, b.lr, b.beta1, b.beta2, b.eps))


def _same_dataset(a: deeponet.Dataset, b: deeponet.Dataset) -> bool:
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in ((a.s, b.s), (a.p, b.p), (a.y, b.y),
                            (a.sensor_grid, b.sensor_grid))) and (
        (a.B, a.noise_std, a.seed, a.generator) == (b.B, b.noise_std, b.seed, b.generator))


class Workload:
    """Inputs built by `setup(seed, workdir)`, one timed unit per `run_pass()`."""

    # Whether run.py scales this workload's pass times by the host reference
    # kernel (see run.HostSpeed); set-up is single-threaded and always scaled.
    SCALE_PASSES = True


class TrainCell(Workload):
    """The middle criterion-11 cell, trained in two legs joined by a checkpoint."""

    Q = 8
    LEG_EPOCHS = (3, 3)

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.plan = _criterion11_plan(EXPONENTS["half"], sum(self.LEG_EPOCHS), [seed])
        cell = next(c for c in scaling.plan_cells(self.plan) if c.q == self.Q)
        self.dataset = scaling.build_cell_dataset(self.plan, cell.n, seed=[seed, cell.q, cell.n])
        self.model = _cell_model(self.plan, cell.q, cell.width, seed)
        # warm-up: one step's gradients
        deeponet.loss_grads(self.model, self.dataset.take(np.arange(self.plan.batch_size)))

    def run_pass(self) -> Outcome:
        out = Outcome()
        plan, ds = self.plan, self.dataset
        first, second = self.LEG_EPOCHS
        model, ab, at, curve1 = scaling.train_deeponet(
            self.model, ds, first, plan.batch_size, seed=self.seed, lr=plan.lr)
        ckpt = self.workdir / "cell.checkpoint.json"
        deeponet.save_checkpoint(model, ckpt, seeds={"train": self.seed},
                                 adam_branch=ab, adam_trunk=at, epoch=first)
        loaded, lab, lat, epoch, _ = deeponet.load_checkpoint(ckpt)
        out.check("checkpoint_round_trip",
                  _same_params(model.branch, loaded.branch)
                  and _same_params(model.trunk, loaded.trunk)
                  and _same_adam(ab, lab) and _same_adam(at, lat) and epoch == first)
        final, _, _, curve2 = scaling.train_deeponet(
            loaded, ds, second, plan.batch_size, seed=self.seed, lr=plan.lr,
            adam_branch=lab, adam_trunk=lat, start_epoch=epoch)
        for i, loss in enumerate(curve1 + curve2):
            out.check(f"finite_loss_epoch_{i}", math.isfinite(loss))
        out.digests["checkpoint"] = sha256_file(ckpt)
        out.digests["final_params"] = hashlib.sha256(
            final.branch.flat.tobytes() + final.trunk.flat.tobytes()).hexdigest()
        out.work["train_samples"] = (first + second) * ds.n
        out.info["final_loss"] = curve2[-1]
        return out


class GenData(Workload):
    """ADR and pendulum datasets, each written to CSV and read back."""

    SENSORS = 40
    ADR_FUNCTIONS, ADR_POINTS = 60, 100
    PENDULUM_FUNCTIONS, PENDULUM_POINTS = 300, 20

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.adr = datagen.AdrConfig()
        self.adr_grf = datagen.GrfConfig(grid=self.adr.x_grid, length_scale=1e-3)
        self.pendulum_grf = datagen.GrfConfig(grid=np.linspace(0.0, 1.0, 101), length_scale=1e-3)
        # warm-up: one solve of each kind
        datagen.solve_adr(np.zeros(self.adr.nx), self.adr)
        datagen.solve_pendulum(1.0, np.zeros(101), 0.0, 0.0)

    def run_pass(self) -> Outcome:
        out = Outcome()
        built = {
            "adr": datagen.build_adr_dataset(
                self.adr_grf, self.adr, self.SENSORS, self.ADR_FUNCTIONS,
                self.ADR_POINTS, 0.0, seed=2 * self.seed),
            "pendulum": datagen.build_pendulum_dataset(
                self.pendulum_grf, 1.0, self.SENSORS, self.PENDULUM_FUNCTIONS,
                self.PENDULUM_POINTS, 0.0, seed=2 * self.seed + 1),
        }
        for kind, ds in built.items():
            path = self.workdir / f"{kind}.csv"
            datagen.write_dataset_csv(ds, path)
            back = datagen.read_dataset_csv(path)
            out.check(f"{kind}_csv_round_trip", _same_dataset(ds, back))
            out.digests[f"{kind}_csv"] = sha256_file(path)
            out.work["triples"] = out.work.get("triples", 0) + ds.n
        return out


class SuitePair(Workload):
    """Both criterion-11 companion suites, through run_suite and emit_plot_data."""

    EPOCHS = 3
    # The kernel runs on one thread between passes; these passes are long and
    # keep both cores busy, and scaling them widened the run-to-run spread
    # (25% against 17% raw over five seeds).
    SCALE_PASSES = False

    def __init__(self, workers: int):
        self.workers = workers

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.plans = {tag: _criterion11_plan(e, self.EPOCHS, [seed]) for tag, e in EXPONENTS.items()}
        # warm-up: one solve and one step's gradients at the smallest cell's shape
        plan = self.plans["half"]
        cell = scaling.plan_cells(plan)[0]
        ds = scaling.build_cell_dataset(plan, plan.batch_size, seed=[seed, 0, plan.batch_size])
        deeponet.loss_grads(_cell_model(plan, cell.q, cell.width, seed), ds)

    def run_pass(self) -> Outcome:
        out = Outcome()
        improvement = {}
        for tag, plan in self.plans.items():
            suite = scaling.run_suite(plan, max_workers=self.workers)
            curves, summary = scaling.emit_plot_data(suite, self.workdir / tag)
            for c in suite.cells:
                out.check(f"{tag}_cell_q{c.q}_seed{c.seed}",
                          not c.failed and all(math.isfinite(v) for v in c.loss_curve))
            out.digests[f"{tag}_summary_csv"] = sha256_file(summary)
            out.digests[f"{tag}_curves_csv"] = sha256_file(curves)
            verdict = scaling.check_monotonic(suite)
            out.info[f"{tag}_majority_monotone"] = verdict["majority_monotone"]
            best = {(c.seed, c.q): c.best_loss for c in suite.cells}
            improvement[tag] = float(np.mean(
                [best[(s, Q_LIST[0])] - best[(s, Q_LIST[-1])] for s in plan.seeds]))
            out.work["cells"] = out.work.get("cells", 0) + len(suite.cells)
            out.work["train_samples"] = out.work.get("train_samples", 0) + sum(
                plan.epochs * c.n for c in suite.cells)
        out.info["improvement"] = improvement
        # criterion 11(b) asks for a ratio below 0.5; recorded, not counted as a failure
        out.info["improvement_ratio"] = (
            improvement["two_thirds"] / improvement["half"] if improvement["half"] else math.nan)
        return out


class Verify(Workload):
    """`donlab verify` with larger trial counts, plus the q lower bounds."""

    CONFIG = {
        "gradient_models": 20,
        "perturbation_trials": 10000,
        "cover_probes": 100000,
        "hoeffding_trials": 100000,
    }
    # the three reference fixed-ratio families: (anchor, exponent, q list)
    REFERENCE_GRIDS = [
        ((5, 10000), 0.5, list(range(5, 51, 5))),
        ((10, 31623), 2.0 / 3.0, list(range(10, 51, 5))),
        ((6, 11650), 1.0 / 6.0, [6, 8, 10, 12]),
    ]
    REFERENCE_PARAMS = 18010

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.config_path = workdir / "verify.json"
        self.config_path.write_text(json.dumps(self.CONFIG))
        rng = np.random.default_rng([seed, 11])
        self.bound_inputs = []
        for anchor, exponent, q_list in self.REFERENCE_GRIDS:
            for q, n in scaling.make_plan(anchor, q_list, exponent):
                width = scaling.size_architecture(self.REFERENCE_PARAMS, q)
                hidden = [width] * 4
                w = float(rng.uniform(1.0, 20.0))
                fclass = bounds.FunctionClassSpec(
                    d_b=nn.param_count(nn.MlpSpec(tuple([40] + hidden + [q]))),
                    d_t=nn.param_count(nn.MlpSpec(tuple([2] + hidden + [q]))),
                    w_b=w, w_t=w, q=q)
                self.bound_inputs.append(bounds.BoundInputs(
                    n=n, epsilon=float(rng.uniform(0.05, 1.0)),
                    delta=float(rng.uniform(0.05, 0.5)), label_bound=1.0,
                    fclass=fclass, j=float(rng.uniform(1.0, 10.0)), sigma2=0.0,
                    j_source="estimated"))
        # warm-up: one forward pass of a toy sigmoid net
        spec = nn.MlpSpec((6, 8, 4), hidden_activation="tanh", output_activation="sigmoid")
        nn.forward_batch(nn.init_mlp(spec, seed), np.zeros((8, 6)))

    def run_pass(self) -> Outcome:
        out = Outcome()
        out_dir = self.workdir / "verify-out"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["verify", "--config", str(self.config_path),
                           "--seed", str(self.seed), "--out-dir", str(out_dir)])
        report_path = out_dir / "verify-report.json"
        report = json.loads(report_path.read_text())
        for c in report["checks"]:
            out.check(c["name"], bool(c["holds"]))
        out.check("verify_exit_code", rc == 0)
        out.digests["verify_report"] = sha256_file(report_path)
        # each bound is finite, positive, and doubles exactly under n -> 16 n
        q_lower = []
        for inp in self.bound_inputs:
            scaled = dataclasses.replace(inp, n=16 * inp.n)
            for fn in (bounds.q_lower_bound_general, bounds.q_lower_bound_sigmoid):
                got = fn(inp).q_lower
                out.check(f"{fn.__name__}_doubling",
                          math.isfinite(got) and got > 0 and fn(scaled).q_lower == 2.0 * got)
                q_lower.append(got)
        out.digests["q_lower"] = hashlib.sha256(np.array(q_lower).tobytes()).hexdigest()
        return out


def make(name: str, workers: int):
    """The workload called `name`; suite-pair runs its cells on `workers` threads."""
    if name == "suite-pair":
        return SuitePair(workers)
    return {"train-cell": TrainCell, "gen-data": GenData, "verify": Verify}[name]()
