"""Command-line entry point.

Subcommands: gen-data, train, experiment, bound, verify. Each takes a JSON
config via --config and an output directory via --out-dir, and echoes its
effective config into that directory so a run can be reproduced
bit-exactly from the echo. All but bound take --seed, which overrides the
config seed; experiment alone takes --threads, its parallel training cells.

A subcommand's config keys are the keyword-only parameters of its _cmd_*
function, with their defaults (bound and experiment pass theirs on to the
dataclasses that own them). main calls it as func(args, cfg, **cfg), so an
unknown or missing key is a TypeError that names the key (exit 2).

Exit codes: 0 success, 1 verification or experiment failure, 2 usage or
config error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
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
from .errors import (ConfigurationError, DonlabError, InputError, check_number,
                     read_json_object)


def _echo_config(cfg: dict, out_dir: Path, subcommand: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out_dir / f"effective-config-{subcommand}.json",
                      json.dumps(cfg, indent=1, sort_keys=True))


def _write_report(cfg: dict, out_dir: Path, subcommand: str, payload: dict) -> None:
    """Print payload as JSON, write it to {subcommand}-report.json, echo the config."""
    text = json.dumps(payload, indent=1)
    print(text)
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out_dir / f"{subcommand}-report.json", text)
    _echo_config(cfg, out_dir, subcommand)


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

def _cmd_gen_data(args, cfg, /, *, kind="adr", seed=0, out_name="dataset", sensor_count=40,
                  num_functions=10, points_per_function=100, noise_std=0.0, adr={},
                  pendulum={}, grf={}) -> int:
    blocks = {"adr": adr, "pendulum": pendulum}
    if kind not in blocks:
        raise InputError(f"unknown dataset kind {kind!r}")
    for name, block in blocks.items():
        if name != kind and block != {}:  # the other kind's settings would go unused
            raise InputError(f"kind {kind!r} takes no {name!r} block, got {block!r}")
    common = dict(sensor_count=sensor_count, num_functions=num_functions,
                  points_per_function=points_per_function, noise_std=noise_std, seed=seed)
    if kind == "adr":
        solver = datagen.AdrConfig(**adr)
        field = datagen.GrfConfig(grid=solver.x_grid, **grf)
        ds = datagen.build_adr_dataset(grf=field, adr=solver, **common)
    else:
        pend = dict(pendulum)
        pend_k, nt = pend.pop("k", 1.0), pend.pop("nt", 101)
        check_number("nt", nt, ConfigurationError, count=True, at_least=2)
        field = datagen.GrfConfig(grid=np.linspace(0.0, 1.0, nt), **grf)
        ds = datagen.build_pendulum_dataset(grf=field, pend_k=pend_k, **pend, **common)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = args.out_dir / f"{out_name}.csv"
    datagen.write_dataset_csv(ds, csv_path)
    _echo_config(cfg, args.out_dir, "gen-data")
    print(f"wrote {csv_path} ({ds.n} triples, m={ds.m}, d2={ds.d2}, B={ds.B:.6g})")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _cmd_train(args, cfg, /, *, dataset, seed=0, epochs=1, batch_size=256, lr=0.001,
               out_name="run", resume_from=None, weight_ball=None, q=8, width=16, depth=3,
               hidden_activation="relu", output_activation="tanh", init_scheme="he") -> int:
    data = datagen.read_dataset_csv(dataset)
    model = init_model(
        data.m, data.d2, q, width, depth, seed, hidden_activation=hidden_activation,
        output_activation=output_activation, init_scheme=init_scheme,
    )
    adam_b = adam_t = None
    start_epoch = 0
    if resume_from:
        # the config describes the run it resumes: a mismatch is an error
        saved, adam_b, adam_t, start_epoch, seeds = load_checkpoint(resume_from)
        pairs = [("branch spec", saved.branch.spec, model.branch.spec),
                 ("trunk spec", saved.trunk.spec, model.trunk.spec)]
        pairs += [("Adam lr", a.lr, lr) for a in (adam_b, adam_t) if a is not None]
        if "train" in seeds:
            pairs.append(("train seed", seeds["train"], seed))
        for name, got, want in pairs:
            if got != want:
                raise InputError(f"checkpoint {resume_from}: {name} {got} does not match "
                                 f"the config's {want}")
        model = saved

    model, adam_b, adam_t, curve = scaling.train_deeponet(
        model, data, epochs, batch_size, seed=seed, lr=lr,
        adam_branch=adam_b, adam_trunk=adam_t, start_epoch=start_epoch,
        weight_ball=weight_ball,
    )
    args.out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = args.out_dir / f"{out_name}.checkpoint.json"
    save_checkpoint(
        model, ckpt, seeds={"train": seed}, adam_branch=adam_b,
        adam_trunk=adam_t, epoch=start_epoch + epochs,
    )
    loss_csv = args.out_dir / f"{out_name}.loss.csv"
    with atomic_path(loss_csv) as tmp, tmp.open("w") as fh:
        fh.write("epoch,loss\n")
        for i, loss in enumerate(curve):
            fh.write(f"{start_epoch + i},{repr(float(loss))}\n")
    _echo_config(cfg, args.out_dir, "train")
    last = f"{curve[-1]:.6g}" if curve else "n/a"
    norm_b = nn.param_l2_norm(model.branch)
    norm_t = nn.param_l2_norm(model.trunk)
    print(f"wrote {ckpt} and {loss_csv} (last loss {last}; "
          f"realized weight norms branch {norm_b:.4g}, trunk {norm_t:.4g})")
    return 0


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def _cmd_experiment(args, cfg, /, **_) -> int:
    # ExperimentPlan.from_dict checks the keys; a bad --threads fails before the table
    check_number("max_workers", args.threads, InputError, count=True, at_least=1)
    plan = scaling.ExperimentPlan.from_dict(cfg)
    cells = scaling.plan_cells(plan)
    print(f"{'q':>4} {'n':>9} {'width':>6} {'params':>8}")
    for cell in cells:
        print(f"{cell.q:>4} {cell.n:>9} {cell.width:>6} {cell.param_count:>8}")
    if args.dry_run:
        return 0
    t0 = time.perf_counter()
    suite = scaling.run_suite(plan, max_workers=args.threads)
    verdict = scaling.check_monotonic(suite)
    curves, summary = scaling.emit_plot_data(suite, args.out_dir)
    payload = {
        "plan": plan.to_dict(),
        "verdict": verdict,
        "wall_time": time.perf_counter() - t0,
        "cell_wall_times": {
            f"q={c.q},n={c.n},seed={c.seed}": c.wall_time for c in suite.cells
        },
        "failures": [asdict(c) for c in suite.failures],
    }
    atomic_write_text(args.out_dir / "suite-summary.json", json.dumps(payload, indent=1))
    _echo_config(cfg, args.out_dir, "experiment")
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

def _cmd_bound(args, cfg, /, *, variant="general", **rest) -> int:
    fclass = bounds.FunctionClassSpec(**rest.pop("class", {}))
    inputs = bounds.BoundInputs(**rest, fclass=fclass)
    if variant == "general":
        report = bounds.q_lower_bound_general(inputs)
    elif variant == "sigmoid":
        report = bounds.q_lower_bound_sigmoid(inputs)
    else:
        raise InputError(f"unknown bound variant {variant!r}")
    _write_report(cfg, args.out_dir, "bound", {"inputs": cfg, "report": report.to_dict()})
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
    ds = Dataset(sensors=s, source=np.arange(n), p=p, y=y, B=float(np.max(np.abs(y))),
                 sensor_grid=np.linspace(0, 1, 6))
    return model, ds


def _cmd_verify(args, cfg, /, *, seed=0, gradient_models=5, perturbation_trials=200,
                cover_probes=10000, hoeffding_trials=20000) -> int:
    for key, value in (("gradient_models", gradient_models),
                       ("perturbation_trials", perturbation_trials),
                       ("cover_probes", cover_probes), ("hoeffding_trials", hoeffding_trials)):
        check_number(key, value, InputError, count=True, at_least=1)  # before any work
    from concurrent.futures import ThreadPoolExecutor  # loaded by the run that uses it

    # The checks draw from their own seeded streams and share no state, so
    # the worker runs 3) and 4), a few large numpy calls that release the GIL,
    # while this thread runs 1), many small calls; then both threads share
    # the trial chunks of 2). The report is the same as on one thread.
    def monte_carlo_checks():
        # 3) constructive covering of the weight ball
        cover_ok = all(
            bounds.verify_cover_bruteforce(d, 1.0, theta, cover_probes,
                                           seed=[seed, d, int(theta * 100)])
            for d in (1, 2)
            for theta in (0.25, 0.5)
        )
        # 4) mean-deviation tail vs its exponential bound
        return cover_ok, bounds.hoeffding_mc_check(
            0.0, 1.0, 100, 0.2, hoeffding_trials, seed=[seed, 17]
        )

    with ThreadPoolExecutor(max_workers=1) as pool:
        monte_carlo = pool.submit(monte_carlo_checks)

        # 1) exact gradients vs central finite differences
        worst = 0.0
        for rep in range(gradient_models):
            model, ds = _toy_model_and_data(seed + rep)
            batch = ds.take(np.arange(8))
            gb, gt, _ = loss_grads(model, batch)
            fb, ft = gradcheck.fd_loss_grads(model, batch)
            worst = max(
                worst,
                gradcheck.relative_error(gb, fb),
                gradcheck.relative_error(gt, ft),
            )

        # 2) risk perturbation bound with the analytic weight-Lipschitz constant
        model, ds = _toy_model_and_data(seed)
        rep = bounds.verify_perturbation(model, theta=0.05, dataset=ds,
                                         trials=perturbation_trials, seed=[seed, 13], pool=pool)
        cover_ok, hrep = monte_carlo.result()

    rows = [("gradient_check", worst, 1e-6, bool(worst < 1e-6)),
            ("perturbation_bound", rep.max_observed, rep.bound, rep.holds),
            ("cover_bruteforce", cover_ok, True, cover_ok),
            ("hoeffding_tail", hrep.empirical_tail, hrep.bound + 3.0 * hrep.std_err, hrep.holds)]
    checks = [dict(zip(("name", "observed", "bound", "holds"), row)) for row in rows]
    failed = [name for name, *_, holds in rows if not holds]
    _write_report(cfg, args.out_dir, "verify", {"checks": checks, "failed": failed})
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

    def common(name, help_text, func, config_required=True, seed=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=config_required,
                       help="path to the JSON config")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")
        p.add_argument("--out-dir", type=Path, default="donlab-out",
                       help="directory for outputs and the config echo")
        p.set_defaults(func=func)
        return p

    common("gen-data", "generate a dataset CSV + sidecar", _cmd_gen_data)
    common("train", "train a single model", _cmd_train)
    p = common("experiment", "run a fixed-ratio suite", _cmd_experiment)
    p.add_argument("--threads", type=int, default=1,
                   help="parallel training cells")
    p.add_argument("--dry-run", action="store_true",
                   help="print the (q, n, width) table and exit")
    common("bound", "evaluate a q lower bound", _cmd_bound, seed=False)
    common("verify", "run the built-in verification checks", _cmd_verify,
           config_required=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        cfg = read_json_object(args.config, "config file") if args.config else {}
        seed = getattr(args, "seed", None)
        if seed is not None and args.command == "experiment":
            cfg["seeds"] = [seed]
        elif seed is not None:
            cfg["seed"] = seed
        if args.command in ("gen-data", "train", "verify") and "seed" in cfg:
            check_number("seed", cfg["seed"], InputError, count=True, at_least=0)
        return args.func(args, cfg, **cfg)
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
