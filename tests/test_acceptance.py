"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the scaling-law criterion trains 18 small models and dominates the
runtime (a few minutes; budget is 45 on a 4-core desktop).
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from donlab import deeponet, gradcheck, nn
from donlab.bounds import (
    BoundInputs,
    FunctionClassSpec,
    hoeffding_mc_check,
    q_lower_bound_general,
    q_lower_bound_sigmoid,
    verify_cover_bruteforce,
    verify_perturbation,
)
from donlab.datagen import (
    AdrConfig,
    GrfConfig,
    build_pendulum_dataset,
    kernel_matrix,
    solve_adr,
    solve_pendulum,
)
from donlab.deeponet import Dataset, DeepONetModel, init_model, loss_grads
from donlab.scaling import (
    ExperimentPlan,
    architecture_params,
    check_monotonic,
    make_plan,
    run_suite,
    size_architecture,
)

mp.mp.dps = 50


def _report(criterion: int, name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion:>2} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {criterion} ({name}) failed: {detail}"


# -- 1 ----------------------------------------------------------------------

def test_criterion_01_gradient_correctness():
    # loss_grads is the training step: even draws come from init_model, whose
    # towers stack past their input layer; odd draws give the towers different
    # hidden widths, so each runs whole
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    layouts = []
    for k in range(50):
        q, m, d2 = int(rng.integers(1, 5)), int(rng.integers(2, 9)), int(rng.integers(1, 9))
        hidden = str(rng.choice(["relu", "tanh"]))
        output = str(rng.choice(["sigmoid", "tanh", "linear"]))
        width_b = int(rng.integers(2, 9))
        if k % 2 == 0:
            model = init_model(m, d2, q, width_b, 2, k, hidden, output, "he")
        else:
            width_t = int(rng.integers(2, 8))
            width_t += width_t >= width_b  # any width in [2, 8] but width_b
            specs = (nn.MlpSpec(dims, hidden_activation=hidden, output_activation=output)
                     for dims in ((m, width_b, q), (d2, width_t, q)))
            model = DeepONetModel(*(nn.init_mlp(spec, k) for spec in specs))
        for net in (model.branch, model.trunk):
            net.flat[:] = rng.uniform(-1, 1, net.flat.size)
        n = 4
        layouts.append(deeponet._TwoTowers(model).heads)
        y = rng.uniform(-1, 1, n)
        ds = Dataset(
            sensors=rng.uniform(-1, 1, (n, m)),
            source=np.arange(n),
            p=rng.uniform(-1, 1, (n, d2)),
            y=y, B=float(np.max(np.abs(y))),
            sensor_grid=np.linspace(0, 1, m),
        )
        gb, gt, _ = loss_grads(model, ds)
        fb, ft = gradcheck.fd_loss_grads(model, ds)
        worst = max(worst, gradcheck.relative_error(gb, fb),
                    gradcheck.relative_error(gt, ft))
    wall = time.perf_counter() - t0
    stacked, whole = layouts.count((1, 1)), layouts.count((2, 2))
    _report(1, "gradient correctness",
            worst < 1e-6 and wall < 10.0 and (stacked, whole) == (25, 25),
            f"max rel error {worst:.3g} over 50 models ({stacked} stacked, {whole} whole "
            f"towers) in {wall:.1f}s")


# -- 2 ----------------------------------------------------------------------

def test_criterion_02_adam_reference_trajectory():
    lr, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8

    def hand(theta, g1, g2):
        m, v = (1 - b1) * g1, (1 - b2) * g1 * g1
        theta -= lr * (m / (1 - b1)) / (math.sqrt(v / (1 - b2)) + eps)
        m, v = b1 * m + (1 - b1) * g2, b2 * v + (1 - b2) * g2 * g2
        theta -= lr * (m / (1 - b1**2)) / (math.sqrt(v / (1 - b2**2)) + eps)
        return theta

    st = nn.adam_init(2)
    st, flat = nn._adam_update(st, np.array([0.25, -0.75]), np.array([0.8, -1.3]))
    st, flat = nn._adam_update(st, flat, np.array([-0.4, 2.2]))
    err = max(abs(flat[0] - hand(0.25, 0.8, -0.4)),
              abs(flat[1] - hand(-0.75, -1.3, 2.2)))
    _report(2, "Adam two-step reference", err <= 1e-12, f"max deviation {err:.2e}")


# -- 3 ----------------------------------------------------------------------

def test_criterion_03_adr_solver():
    t0 = time.perf_counter()
    cfg = AdrConfig(D=0.0, k=0.0, nx=41, nt=31)
    f = np.sin(np.pi * cfg.x_grid)
    exact_err = float(np.max(np.abs(
        solve_adr(f, cfg) - f[:, None] * cfg.t_grid[None, :]
    )))

    def run(nx):
        c = AdrConfig(D=0.01, k=0.01, nx=nx, nt=nx)
        src = np.sin(np.pi * c.x_grid) + 0.5 * np.sin(3 * np.pi * c.x_grid)
        return solve_adr(src, c)

    coarse, mid, fine = run(51), run(101), run(401)
    ratio = (np.max(np.abs(coarse - fine[::8, ::8]))
             / np.max(np.abs(mid[::2, ::2] - fine[::8, ::8])))
    wall = time.perf_counter() - t0
    ok = exact_err < 1e-10 and 3.0 <= ratio <= 5.0 and wall < 30.0
    _report(3, "reaction-diffusion solver", ok,
            f"pure-source error {exact_err:.2e}, halving ratio {ratio:.2f}, {wall:.1f}s")


# -- 4 ----------------------------------------------------------------------

def test_criterion_04_pendulum_solver():
    k = 4.0
    t = np.linspace(0, 1, 201)
    small = float(np.max(np.abs(
        solve_pendulum(k, np.zeros(201), 0.01, 0.0) - 0.01 * np.cos(np.sqrt(k) * t)
    )))

    def end_angle(n):
        return solve_pendulum(4.0, np.zeros(n), 1.2, 0.3)[-1]

    ref = end_angle(3201)
    ratio = abs(end_angle(101) - ref) / abs(end_angle(201) - ref)
    ok = small < 1e-4 and 12.0 <= ratio <= 20.0
    _report(4, "pendulum solver", ok,
            f"small-angle error {small:.2e}, halving ratio {ratio:.2f}")


# -- 5 ----------------------------------------------------------------------

def test_criterion_05_grf():
    # the draws are the s rows of a dataset with one sensor at every node and
    # one point per function, so they come from the program's dataset assembler
    def draws(cfg, count, seed):
        return build_pendulum_dataset(cfg, 0.0, cfg.grid.size, count, 1, 0.0, seed).s

    cfg = GrfConfig(grid=np.linspace(0, 1, 40), length_scale=1e-3)
    var = float(draws(cfg, 10_000, seed=42).var())

    l = 0.2
    cfg2 = GrfConfig(grid=np.linspace(0, 1, 21), length_scale=l)
    rows = draws(cfg2, 10_000, seed=7)
    kmat = kernel_matrix(cfg2.grid, l)
    cov_err = max(
        abs(float(np.mean(rows[:, i] * rows[:, j])) - kmat[i, j])
        for i, j in [(3, 11), (0, 20), (5, 6), (10, 10)]
    )
    ok = abs(var - 1.0) <= 0.05 and cov_err <= 0.05
    _report(5, "Gaussian random field", ok,
            f"tiny-scale variance {var:.4f}, worst covariance error {cov_err:.4f}")


# -- 6 ----------------------------------------------------------------------

def test_criterion_06_covering_bruteforce():
    results = {
        (d, theta): verify_cover_bruteforce(d, 1.0, theta, probes=10_000,
                                            seed=[d, int(theta * 100)])
        for d in (1, 2) for theta in (0.25, 0.5)
    }
    _report(6, "weight-ball covering", all(results.values()), f"{results}")


# -- 7 ----------------------------------------------------------------------

def _bound_inputs(n, eps, delta, B, db, dt, wb, wt, alpha=0.5):
    return BoundInputs(
        n=n, epsilon=eps, delta=delta, label_bound=B,
        fclass=FunctionClassSpec(d_b=db, d_t=dt, w_b=wb, w_t=wt, q=1),
        j=1.0, sigma2=1.0, alpha=alpha,
    )


def _oracle_general(n, eps, delta, B, db, dt, wb, wt):
    n, eps, delta, B, wb, wt = map(mp.mpf, (n, eps, delta, B, wb, wt))
    dmin = min(db, dt)
    big = ((4 * mp.mpf(dmin) ** 2 / eps) ** (db + dt)
           * (wb * mp.sqrt(db)) ** db * (wt * mp.sqrt(dt)) ** dt)
    denom = mp.log(big + 2) + mp.log(2 / (1 - delta))
    return n ** mp.mpf("0.25") * (eps**2 / (288 * B**2) / denom) ** mp.mpf("0.25")


def _oracle_sigmoid(n, eps, delta, B, db, dt, w, alpha):
    n, eps, delta, B, w, alpha = map(mp.mpf, (n, eps, delta, B, w, alpha))
    s, dmin = db + dt, min(db, dt)
    ap = alpha / 2 * mp.log(1 / alpha) + (1 - alpha) / 2 * mp.log(1 / (1 - alpha))
    big = mp.e ** (-s * ap) * (4 * mp.mpf(dmin) ** 2 / eps * w * mp.sqrt(s)) ** s
    denom = mp.log(2 + big) + mp.log(2 / (1 - delta))
    return n ** mp.mpf("0.25") * (eps**2 / (288 * B**2) / denom) ** mp.mpf("0.25")


def test_criterion_07_bound_evaluators():
    rng = np.random.default_rng(7)

    # (a) exact doubling under n -> 16n, both variants
    doubling_ok = True
    for _ in range(20):
        w = float(rng.uniform(1, 40))
        kw = dict(
            n=int(rng.integers(1, 10**9)), eps=float(rng.uniform(0.01, 4)),
            delta=float(rng.uniform(0.01, 0.99)), B=float(rng.uniform(0.1, 8)),
            db=int(rng.integers(1, 10**5)), dt=int(rng.integers(1, 10**5)),
        )
        g1 = q_lower_bound_general(_bound_inputs(wb=w, wt=w * 1.5, **kw)).q_lower
        g2 = q_lower_bound_general(
            _bound_inputs(wb=w, wt=w * 1.5, **{**kw, "n": 16 * kw["n"]})
        ).q_lower
        s1 = q_lower_bound_sigmoid(_bound_inputs(wb=w, wt=w, **kw)).q_lower
        s2 = q_lower_bound_sigmoid(
            _bound_inputs(wb=w, wt=w, **{**kw, "n": 16 * kw["n"]})
        ).q_lower
        doubling_ok &= (g2 == 2.0 * g1) and (s2 == 2.0 * s1)

    # (b) 12-significant-digit agreement with extended-precision evaluation
    oracle_worst = mp.mpf(0)
    for rec in [
        (10**6, 1.0, 0.5, 1.0, 10, 10, 1.0, 1.0),
        (5000, 0.25, 0.1, 2.0, 120, 80, 3.0, 2.0),
        (10**8, 0.01, 0.9, 5.0, 18000, 18000, 10.0, 10.0),
        (37, 2.0, 0.01, 0.5, 40, 25, 1.5, 8.0),
        (123456, 0.5, 0.999, 1.2, 999, 1001, 2.5, 2.5),
    ]:
        n, eps, delta, B, db, dt, wb, wt = rec
        got = q_lower_bound_general(_bound_inputs(*rec)).q_lower
        want = _oracle_general(*rec)
        oracle_worst = max(oracle_worst, abs(mp.mpf(got) - want) / want)
        got_s = q_lower_bound_sigmoid(
            _bound_inputs(n, eps, delta, B, db, dt, wb, wb)
        ).q_lower
        want_s = _oracle_sigmoid(n, eps, delta, B, db, dt, wb, 0.5)
        oracle_worst = max(oracle_worst, abs(mp.mpf(got_s) - want_s) / want_s)

    # (c) monotonicity sweep: never increasing in W, d, delta; never
    # decreasing in n
    violations = 0
    for _ in range(40):
        kw = dict(
            n=int(rng.integers(10, 10**7)), eps=float(rng.uniform(0.05, 2)),
            delta=float(rng.uniform(0.05, 0.9)), B=float(rng.uniform(0.5, 5)),
            db=int(rng.integers(2, 5000)), dt=int(rng.integers(2, 5000)),
        )
        wb, wt = float(rng.uniform(1, 30)), float(rng.uniform(1, 30))
        base = q_lower_bound_general(_bound_inputs(wb=wb, wt=wt, **kw)).q_lower
        checks = [
            q_lower_bound_general(_bound_inputs(wb=2 * wb, wt=wt, **kw)).q_lower <= base,
            q_lower_bound_general(_bound_inputs(wb=wb, wt=2 * wt, **kw)).q_lower <= base,
            q_lower_bound_general(_bound_inputs(
                wb=wb, wt=wt, **{**kw, "db": 2 * kw["db"]})).q_lower <= base,
            q_lower_bound_general(_bound_inputs(
                wb=wb, wt=wt, **{**kw, "dt": 2 * kw["dt"]})).q_lower <= base,
            q_lower_bound_general(_bound_inputs(
                wb=wb, wt=wt, **{**kw, "delta": 0.5 + kw["delta"] / 2})).q_lower <= base,
            q_lower_bound_general(_bound_inputs(
                wb=wb, wt=wt, **{**kw, "n": 3 * kw["n"]})).q_lower >= base,
        ]
        violations += sum(not c for c in checks)

    ok = doubling_ok and oracle_worst < mp.mpf("1e-12") and violations == 0
    _report(7, "q lower-bound evaluators", ok,
            f"doubling exact: {doubling_ok}, oracle rel err {float(oracle_worst):.2e}, "
            f"monotonicity violations {violations}")


# -- 8 ----------------------------------------------------------------------

def test_criterion_08_plan_table_fidelity():
    tables = [
        ((5, 10000), 0.5, [(5, 10000), (10, 40000), (15, 90000),
                           (40, 640000), (45, 810000), (50, 1000000)]),
        ((10, 31623), 2.0 / 3.0, [(10, 31623), (15, 58000), (40, 252982),
                                  (45, 301870), (50, 353553)]),
        ((6, 11650), 1.0 / 6.0, [(6, 11650), (8, 65511), (10, 249906),
                                 (12, 746215)]),
    ]
    worst_rel = 0.0
    for anchor, exponent, rows in tables:
        got = dict(make_plan(anchor, [q for q, _ in rows], exponent))
        for q, n in rows:
            worst_rel = max(worst_rel, abs(got[q] - n) / n)
    # the 2/3 family's first cell was pinned to the 1/2 family's start
    # (10000) rather than its own ratio value; it coincides with the
    # separately checked (5, 10000) anchor cell
    pinned_first_cell = make_plan((5, 10000), [5], 0.5)[0] == (5, 10000)

    reference = {5: 18010, 6: 18112, 8: 18316, 10: 18520, 12: 18724,
                 15: 18568, 40: 18719, 45: 18714, 50: 18760}
    q5_exact = architecture_params(size_architecture(18010, 5), 5) == 18010
    worst_budget = 0.0
    for q, pub in reference.items():
        count = architecture_params(size_architecture(18010, q), q)
        worst_budget = max(worst_budget, abs(count - 18010) / 18010,
                           abs(count - pub) / pub)
    ok = worst_rel <= 0.01 and pinned_first_cell and q5_exact and worst_budget <= 0.05
    _report(8, "plan/table fidelity", ok,
            f"worst n error {worst_rel:.3%}, q=5 count exact: {q5_exact}, "
            f"worst budget deviation {worst_budget:.2%}")


# -- 9 ----------------------------------------------------------------------

def test_criterion_09_perturbation_verification():
    rng = np.random.default_rng(9)
    common = dict(hidden_activation="tanh", output_activation="sigmoid")
    model = DeepONetModel(
        nn.MlpParams(s := nn.MlpSpec((5, 6, 4), **common),
                     rng.uniform(-1, 1, nn.param_count(s))),
        nn.MlpParams(s := nn.MlpSpec((2, 6, 4), **common),
                     rng.uniform(-1, 1, nn.param_count(s))),
    )
    n = 50
    y = rng.uniform(-1, 1, n)
    ds = Dataset(sensors=rng.uniform(-1, 1, (n, 5)), source=np.arange(n),
                 p=rng.uniform(0, 1, (n, 2)),
                 y=y, B=float(np.max(np.abs(y))), sensor_grid=np.linspace(0, 1, 5))
    rep = verify_perturbation(model, theta=0.1, dataset=ds, trials=1000, seed=99)
    _report(9, "risk perturbation bound", rep.holds,
            f"max observed {rep.max_observed:.3g} vs bound {rep.bound:.3g} "
            f"over {rep.trials} trials")


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_hoeffding_tails():
    settings = [(50, 0.10), (100, 0.05), (100, 0.20), (400, 0.04), (25, 0.30)]
    reports = [
        hoeffding_mc_check(0.0, 1.0, n, t, trials=100_000, seed=[10, n])
        for n, t in settings
    ]
    ok = all(r.holds for r in reports)
    detail = "; ".join(
        f"n={n},t={t}: tail {r.empirical_tail:.4g} <= {r.bound:.4g}+3se"
        for (n, t), r in zip(settings, reports)
    )
    _report(10, "mean-deviation tail bound", ok, detail)


# -- 11 ---------------------------------------------------------------------

def criterion11_plan(exponent: float) -> ExperimentPlan:
    """Criterion 11's suite at the given exponent (0.5 for (a), 2/3 for (b));
    plans/quadratic-data.json and plans/three-halves-data.json hold the same plans."""
    return ExperimentPlan(
        exponent=exponent, anchor_q=4, anchor_n=4000,
        q_list=[4, 8, 16], target_params=8000, epochs=60, batch_size=256,
        seeds=[0, 1, 2], adr=AdrConfig(D=0.01, k=0.01, nx=101, nt=101),
        points_per_function=100,
    )


def test_criterion_11_desk_scale_scaling_law():
    t0 = time.perf_counter()
    suite_a = run_suite(criterion11_plan(0.5))
    suite_b = run_suite(criterion11_plan(2.0 / 3.0))
    verdict_a = check_monotonic(suite_a)
    verdict_b = check_monotonic(suite_b)

    def mean_improvement(suite):
        per_seed = []
        for seed in suite.plan.seeds:
            l4 = [c.best_loss for c in suite.cells if c.seed == seed and c.q == 4][0]
            l16 = [c.best_loss for c in suite.cells if c.seed == seed and c.q == 16][0]
            per_seed.append(l4 - l16)
        return float(np.mean(per_seed))

    imp_a = mean_improvement(suite_a)
    imp_b = mean_improvement(suite_b)
    wall = time.perf_counter() - t0

    ok_a = (verdict_a["majority_monotone"] and not suite_a.failures
            and wall < 45 * 60)
    # part (b) asks the slower data growth to visibly fail to leverage q:
    # either a majority-non-monotone verdict or less than half of (a)'s
    # improvement. At this desk scale the best-loss-vs-epoch trajectories
    # are nearly insensitive to n, so both growth laws still convert q into
    # improvement; this part is a known-unattained check (see the printed
    # numbers), kept at its stated threshold rather than loosened.
    ok_b = ((not verdict_b["majority_monotone"]) or (imp_b < 0.5 * imp_a)) \
        and not suite_b.failures
    _report(11, "desk-scale scaling law", ok_a and ok_b,
            f"(a) majority monotone {verdict_a['majority_monotone']}, "
            f"improvement {imp_a:.4g}; (b) majority monotone "
            f"{verdict_b['majority_monotone']}, improvement {imp_b:.4g} "
            f"(ratio {imp_b / imp_a:.2f}, needs < 0.5 or non-monotone); "
            f"wall {wall / 60:.1f} min")
