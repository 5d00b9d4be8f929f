"""Command-line entry point.

Subcommands: gen-data, train, experiment, bound, verify. Each takes a JSON
config via --config and an output directory via --out-dir, and echoes its
effective config into that directory so a run can be reproduced
bit-exactly from the echo. All but bound take --seed, which overrides the
config seed; experiment alone takes --threads, its parallel training cells.

Exit codes: 0 success, 1 verification or experiment failure, 2 usage or
config error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import bounds, datagen, gradcheck, nn, scaling
from .atomic import atomic_path, atomic_write_text
from .deeponet import (
    Dataset,
    init_model,
    load_checkpoint,
    loss_grads,
    save_checkpoint,
)
from .errors import DonlabError, FormatError, InputError


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise InputError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise FormatError(f"config file {path} must hold a JSON object")
    return cfg


def _echo_config(cfg: dict, out_dir: Path, subcommand: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out_dir / f"effective-config-{subcommand}.json",
                      json.dumps(cfg, indent=1, sort_keys=True))


def _apply_overrides(cfg: dict, args) -> dict:
    cfg = dict(cfg)
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

def _cmd_gen_data(args) -> int:
    cfg = _apply_overrides(_load_config(args.config), args)
    out_dir = Path(args.out_dir)
    kind = cfg.get("kind", "adr")
    seed = int(cfg.get("seed", 0))
    out_name = cfg.get("out_name", "dataset")
    grf_kw = cfg.get("grf", {})
    common = dict(
        sensor_count=int(cfg.get("sensor_count", 40)),
        num_functions=int(cfg.get("num_functions", 10)),
        points_per_function=int(cfg.get("points_per_function", 100)),
        noise_std=float(cfg.get("noise_std", 0.0)),
        seed=seed,
    )
    if kind == "adr":
        adr = datagen.AdrConfig(**cfg.get("adr", {}))
        grf = datagen.GrfConfig(grid=adr.x_grid, **grf_kw)
        ds = datagen.build_adr_dataset(grf=grf, adr=adr, **common)
    elif kind == "pendulum":
        pend = dict(cfg.get("pendulum", {}))
        pend_k, nt = pend.pop("k", 1.0), pend.pop("nt", 101)
        grf = datagen.GrfConfig(grid=np.linspace(0.0, 1.0, nt), **grf_kw)
        ds = datagen.build_pendulum_dataset(grf=grf, pend_k=pend_k, **pend, **common)
    else:
        raise InputError(f"unknown dataset kind {kind!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{out_name}.csv"
    datagen.write_dataset_csv(ds, csv_path)
    _echo_config(cfg, out_dir, "gen-data")
    print(f"wrote {csv_path} ({ds.n} triples, m={ds.m}, d2={ds.d2}, B={ds.B:.6g})")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _cmd_train(args) -> int:
    cfg = _apply_overrides(_load_config(args.config), args)
    out_dir = Path(args.out_dir)
    dataset = datagen.read_dataset_csv(cfg["dataset"])
    seed = int(cfg.get("seed", 0))
    epochs = int(cfg.get("epochs", 1))
    batch_size = int(cfg.get("batch_size", 256))
    lr = float(cfg.get("lr", 0.001))
    out_name = cfg.get("out_name", "run")

    resume_from = cfg.get("resume_from")
    if resume_from:
        model, adam_b, adam_t, start_epoch, _ = load_checkpoint(resume_from)
        if model.branch.spec.in_dim != dataset.m or model.trunk.spec.in_dim != dataset.d2:
            raise InputError("checkpoint input dims do not match the dataset")
    else:
        model = init_model(
            dataset.m, dataset.d2, int(cfg.get("q", 8)), int(cfg.get("width", 16)),
            int(cfg.get("depth", 3)), seed,
            hidden_activation=cfg.get("hidden_activation", "relu"),
            output_activation=cfg.get("output_activation", "tanh"),
            init_scheme=cfg.get("init_scheme", "he"),
        )
        adam_b = adam_t = None
        start_epoch = 0

    weight_ball = cfg.get("weight_ball")
    model, adam_b, adam_t, curve = scaling.train_deeponet(
        model, dataset, epochs, batch_size, seed=seed, lr=lr,
        adam_branch=adam_b, adam_trunk=adam_t, start_epoch=start_epoch,
        weight_ball=float(weight_ball) if weight_ball is not None else None,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = out_dir / f"{out_name}.checkpoint.json"
    save_checkpoint(
        model, ckpt, seeds={"train": seed}, adam_branch=adam_b,
        adam_trunk=adam_t, epoch=start_epoch + epochs,
    )
    loss_csv = out_dir / f"{out_name}.loss.csv"
    with atomic_path(loss_csv) as tmp, tmp.open("w") as fh:
        fh.write("epoch,loss\n")
        for i, loss in enumerate(curve):
            fh.write(f"{start_epoch + i},{repr(float(loss))}\n")
    _echo_config(cfg, out_dir, "train")
    last = f"{curve[-1]:.6g}" if curve else "n/a"
    norm_b = nn.param_l2_norm(model.branch)
    norm_t = nn.param_l2_norm(model.trunk)
    print(f"wrote {ckpt} and {loss_csv} (last loss {last}; "
          f"realized weight norms branch {norm_b:.4g}, trunk {norm_t:.4g})")
    return 0


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def _cmd_experiment(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg["seeds"] = [args.seed]
    out_dir = Path(args.out_dir)
    plan = scaling.ExperimentPlan.from_dict(cfg)
    cells = scaling.plan_cells(plan)
    print(f"{'q':>4} {'n':>9} {'width':>6} {'params':>8}")
    for cell in cells:
        print(f"{cell.q:>4} {cell.n:>9} {cell.width:>6} {cell.param_count:>8}")
    if args.dry_run:
        return 0
    t0 = time.perf_counter()
    suite = scaling.run_suite(plan, max_workers=max(1, args.threads))
    verdict = scaling.check_monotonic(suite)
    curves, summary = scaling.emit_plot_data(suite, out_dir)
    payload = {
        "plan": plan.to_dict(),
        "verdict": verdict,
        "wall_time": time.perf_counter() - t0,
        "cell_wall_times": {
            f"q={c.q},n={c.n},seed={c.seed}": c.wall_time for c in suite.cells
        },
        "failures": [c.to_dict() for c in suite.failures],
    }
    atomic_write_text(out_dir / "suite-summary.json", json.dumps(payload, indent=1))
    _echo_config(cfg, out_dir, "experiment")
    print(f"wrote {curves}, {summary}, suite-summary.json")
    for seed, row in verdict["per_seed"].items():
        print(f"seed {seed}: best losses {['%.4g' % v for v in row['best_losses']]} "
              f"monotone={row['monotone']}")
    print(f"majority monotone verdict: {verdict['majority_monotone']}")
    if suite.failures:
        print(f"{len(suite.failures)} cell(s) failed", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def _cmd_bound(args) -> int:
    cfg = _load_config(args.config)
    out_dir = Path(args.out_dir)
    variant = cfg.get("variant", "general")
    rest = {k: v for k, v in cfg.items() if k not in ("variant", "class")}
    inputs = bounds.BoundInputs(
        **rest, fclass=bounds.FunctionClassSpec(**cfg.get("class", {})))
    if variant == "general":
        report = bounds.q_lower_bound_general(inputs)
    elif variant == "sigmoid":
        report = bounds.q_lower_bound_sigmoid(inputs)
    else:
        raise InputError(f"unknown bound variant {variant!r}")
    payload = {"inputs": cfg, "report": report.to_dict()}
    text = json.dumps(payload, indent=1)
    print(text)
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out_dir / "bound-report.json", text)
    _echo_config(cfg, out_dir, "bound")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _toy_model_and_data(seed: int):
    rng = np.random.default_rng([seed, 7])
    model = init_model(6, 2, 4, 8, 2, seed, hidden_activation="tanh",
                       output_activation="sigmoid", init_scheme="xavier")
    n = 64
    s = rng.uniform(-1.0, 1.0, size=(n, 6))
    p = rng.uniform(0.0, 1.0, size=(n, 2))
    y = rng.uniform(-1.0, 1.0, size=n)
    ds = Dataset(s=s, p=p, y=y, B=float(np.max(np.abs(y))),
                 sensor_grid=np.linspace(0, 1, 6))
    return model, ds


def _cmd_verify(args) -> int:
    cfg = _apply_overrides(_load_config(args.config) if args.config else {}, args)
    out_dir = Path(args.out_dir)
    seed = int(cfg.get("seed", 0))
    checks = []

    # 1) exact gradients vs central finite differences
    gradient_models = int(cfg.get("gradient_models", 5))
    if gradient_models < 1:
        raise InputError(f"gradient_models must be >= 1, got {gradient_models}")
    worst = 0.0
    for rep in range(gradient_models):
        model, ds = _toy_model_and_data(seed + rep)
        batch = ds.take(np.arange(8))
        gb, gt, _ = loss_grads(model, batch)
        if args.inject_gradient_bug:
            gb = gb.copy()
            gb[0] += 1e-3
        fb, ft = gradcheck.fd_loss_grads(model, batch)
        worst = max(
            worst,
            gradcheck.relative_error(gb, fb),
            gradcheck.relative_error(gt, ft),
        )
    checks.append({
        "name": "gradient_check",
        "observed": worst,
        "bound": 1e-6,
        "holds": bool(worst < 1e-6),
    })

    # 2) risk perturbation bound with the analytic weight-Lipschitz constant
    model, ds = _toy_model_and_data(seed)
    rep = bounds.verify_perturbation(
        model, theta=0.05, dataset=ds,
        trials=int(cfg.get("perturbation_trials", 200)), seed=[seed, 13],
    )
    checks.append({
        "name": "perturbation_bound",
        "observed": rep.max_observed,
        "bound": rep.bound,
        "holds": rep.holds,
    })

    # 3) constructive covering of the weight ball
    cover_ok = all(
        bounds.verify_cover_bruteforce(d, 1.0, theta, int(cfg.get("cover_probes", 10000)),
                                       seed=[seed, d, int(theta * 100)])
        for d in (1, 2)
        for theta in (0.25, 0.5)
    )
    checks.append({
        "name": "cover_bruteforce",
        "observed": cover_ok,
        "bound": True,
        "holds": cover_ok,
    })

    # 4) mean-deviation tail vs its exponential bound
    hrep = bounds.hoeffding_mc_check(
        0.0, 1.0, 100, 0.2, int(cfg.get("hoeffding_trials", 20000)), seed=[seed, 17]
    )
    checks.append({
        "name": "hoeffding_tail",
        "observed": hrep.empirical_tail,
        "bound": hrep.bound + 3.0 * hrep.std_err,
        "holds": hrep.holds,
    })

    failed = [c["name"] for c in checks if not c["holds"]]
    payload = {"checks": checks, "failed": failed}
    text = json.dumps(payload, indent=1)
    print(text)
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out_dir / "verify-report.json", text)
    _echo_config(cfg, out_dir, "verify")
    if failed:
        print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("all checks hold")
    return 0


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="donlab",
        description="Operator-network lab: data generation, training, "
        "size lower bounds, and scaling experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True, seed=True):
        p.add_argument("--config", required=config_required,
                       help="path to the JSON config")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")
        p.add_argument("--out-dir", default="donlab-out",
                       help="directory for outputs and the config echo")

    p = sub.add_parser("gen-data", help="generate a dataset CSV + sidecar")
    common(p)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train a single model")
    common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("experiment", help="run a fixed-ratio suite")
    common(p)
    p.add_argument("--threads", type=int, default=1,
                   help="parallel training cells")
    p.add_argument("--dry-run", action="store_true",
                   help="print the (q, n, width) table and exit")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("bound", help="evaluate a q lower bound")
    common(p, seed=False)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("verify", help="run the built-in verification checks")
    common(p, config_required=False)
    p.add_argument("--inject-gradient-bug", action="store_true",
                   help="test hook: corrupt one gradient component")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.func(args)
    except (ValueError, TypeError, KeyError, OSError) as exc:
        # covers ConfigurationError / InputError / FormatError plus plain
        # malformed-config failures
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DonlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
