import math
import re
import struct
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from donlab import bounds, cli, deeponet, nn
from donlab.bounds import (
    BoundInputs,
    FunctionClassSpec,
    alpha_prime,
    analytic_j_for_model,
    hoeffding_mc_check,
    log_covering_number_ball,
    perturbation_bound,
    q_lower_bound_general,
    q_lower_bound_sigmoid,
    verify_cover_bruteforce,
    verify_perturbation,
)
from donlab.deeponet import DeepONetModel, empirical_risk
from donlab.errors import InputError

from conftest import random_dataset, random_model

mp.mp.dps = 50


def _inputs(n=10**6, epsilon=1.0, delta=0.5, label_bound=1.0, d_b=10, d_t=10,
            w_b=1.0, w_t=1.0, c=1.0, q=1, j=1.0, sigma2=1.0, alpha=0.5):
    return BoundInputs(
        n=n, epsilon=epsilon, delta=delta, label_bound=label_bound,
        fclass=FunctionClassSpec(d_b=d_b, d_t=d_t, w_b=w_b, w_t=w_t, c=c, q=q),
        j=j, sigma2=sigma2, alpha=alpha,
    )


def _oracle_general(n, eps, delta, B, db, dt, wb, wt):
    """Extended-precision direct evaluation of the bound display."""
    n, eps, delta, B, wb, wt = map(mp.mpf, (n, eps, delta, B, wb, wt))
    dmin = min(db, dt)
    big = (
        (4 * mp.mpf(dmin) ** 2 / eps) ** (db + dt)
        * (wb * mp.sqrt(db)) ** db
        * (wt * mp.sqrt(dt)) ** dt
    )
    denom = mp.log(big + 2) + mp.log(2 / (1 - delta))
    return n ** mp.mpf("0.25") * (eps**2 / (288 * B**2) / denom) ** mp.mpf("0.25")


def _oracle_sigmoid(n, eps, delta, B, db, dt, w, alpha):
    n, eps, delta, B, w, alpha = map(mp.mpf, (n, eps, delta, B, w, alpha))
    s = db + dt
    dmin = min(db, dt)
    ap = alpha / 2 * mp.log(1 / alpha) + (1 - alpha) / 2 * mp.log(1 / (1 - alpha))
    big = mp.e ** (-s * ap) * (4 * mp.mpf(dmin) ** 2 / eps * w * mp.sqrt(s)) ** s
    denom = mp.log(2 + big) + mp.log(2 / (1 - delta))
    return n ** mp.mpf("0.25") * (eps**2 / (288 * B**2) / denom) ** mp.mpf("0.25")


class TestFunctionClassSpec:
    def test_q_cannot_exceed_parameter_counts(self):
        with pytest.raises(InputError):
            FunctionClassSpec(d_b=5, d_t=8, w_b=1.0, w_t=1.0, q=6)

    @pytest.mark.parametrize("name, value, rule", [
        ("w_b", 0.5, "a number"), ("w_b", math.nan, "a number"), ("w_t", math.nan, "a number"),
        ("d_b", math.nan, "an int"), ("c", 0.5, "a number"), ("c", math.nan, "a number"),
    ])
    def test_range_checks_reject_nan(self, name, value, rule):
        kwargs = dict(d_b=5, d_t=5, w_b=1.0, w_t=1.0, q=1)
        with pytest.raises(InputError, match=f"^{name} must be {rule} >= 1, got {value}"):
            FunctionClassSpec(**dict(kwargs, **{name: value}))


class TestLogCoveringNumber:
    def test_scale_equal_to_diameter_needs_one_ball(self):
        assert log_covering_number_ball(2.0 * 1.0 * math.sqrt(4), 1.0, 4) == 0.0

    def test_unit_case(self):
        assert log_covering_number_ball(1.0, 1.0, 1) == pytest.approx(math.log(2.0))

    def test_clamped_below_at_zero(self):
        assert log_covering_number_ball(1e9, 1.0, 3) == 0.0

    @pytest.mark.parametrize("theta, w", [(0.0, 1.0), (math.nan, 1.0), (1.0, math.nan),
                                          (True, 1.0), (1.0, True), (1.0, 0.0)])
    def test_nonpositive_scale_rejected(self, theta, w):
        with pytest.raises(InputError, match="^(covering scale theta|W) must be a number > 0"):
            log_covering_number_ball(theta, w, 2)

    @pytest.mark.parametrize("d", [0, True, 2.0, math.nan])
    def test_bad_dimension_rejected(self, d):
        with pytest.raises(InputError, match=f"^d must be an int >= 1, got {d}$"):
            log_covering_number_ball(1.0, 1.0, d)

    @given(st.floats(0.01, 10), st.floats(0.5, 20), st.integers(1, 50))
    @settings(max_examples=60, deadline=None)
    def test_product_rule_symmetric_classes(self, theta, w, d):
        # joint ball of the product of two W-balls has radius W sqrt(2) and
        # dimension 2d; its bound never beats the two theta/2 half-bounds
        joint = log_covering_number_ball(theta, w * math.sqrt(2.0), 2 * d)
        halves = 2.0 * log_covering_number_ball(theta / 2.0, w, d)
        assert joint <= halves + 1e-9

    def test_product_cover_constructive(self):
        # theta/2 grids per factor cover the product at scale theta
        rng = np.random.default_rng(0)
        theta, w_b, w_t = 0.4, 1.0, 3.0
        n_b = max(1, math.ceil(w_b / (theta / 2.0)))
        n_t = max(1, math.ceil(w_t / (theta / 2.0)))
        grid_b = -w_b + (np.arange(n_b) + 0.5) * (2 * w_b / n_b)
        grid_t = -w_t + (np.arange(n_t) + 0.5) * (2 * w_t / n_t)
        assert n_b <= math.ceil(2 * w_b / (theta / 2.0))
        assert n_t <= math.ceil(2 * w_t / (theta / 2.0))
        x = rng.uniform([-w_b, -w_t], [w_b, w_t], size=(5000, 2))
        eb = np.min(np.abs(x[:, :1] - grid_b[None, :]), axis=1)
        et = np.min(np.abs(x[:, 1:] - grid_t[None, :]), axis=1)
        assert np.all(np.sqrt(eb**2 + et**2) <= theta)


class TestQLowerBoundGeneral:
    def test_sixteen_fold_n_doubles_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            base = _inputs(
                n=int(rng.integers(1, 10**9)),
                epsilon=float(rng.uniform(0.01, 5)),
                delta=float(rng.uniform(0.01, 0.99)),
                label_bound=float(rng.uniform(0.1, 10)),
                d_b=int(rng.integers(1, 10**5)),
                d_t=int(rng.integers(1, 10**5)),
                w_b=float(rng.uniform(1, 100)),
                w_t=float(rng.uniform(1, 100)),
            )
            scaled = BoundInputs(
                n=16 * base.n, epsilon=base.epsilon, delta=base.delta,
                label_bound=base.label_bound, fclass=base.fclass,
                j=base.j, sigma2=base.sigma2,
            )
            assert (
                q_lower_bound_general(scaled).q_lower
                == 2.0 * q_lower_bound_general(base).q_lower
            )

    def test_delta_toward_one_drives_bound_down(self):
        # the confidence term ln(2/(1-delta)) grows without bound, so the
        # result decays like denominator^(-1/4); float64 caps the term near
        # ln(2e16), so check strict decrease plus the exact decay law
        reports = [
            q_lower_bound_general(_inputs(delta=d))
            for d in (0.5, 0.9, 0.99, 0.999999, 1 - 1e-12)
        ]
        vals = [r.q_lower for r in reports]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        d0 = reports[0].log_cover_terms["log_denominator"]
        d1 = reports[-1].log_cover_terms["log_denominator"]
        assert vals[-1] / vals[0] == pytest.approx((d0 / d1) ** 0.25, rel=1e-12)

    def test_agrees_with_extended_precision_oracle(self):
        records = [
            (10**6, 1.0, 0.5, 1.0, 10, 10, 1.0, 1.0),
            (5000, 0.25, 0.1, 2.0, 120, 80, 3.0, 2.0),
            (10**8, 0.01, 0.9, 5.0, 18000, 18000, 10.0, 10.0),
            (37, 2.0, 0.01, 0.5, 40, 25, 1.5, 8.0),
            (123456, 0.5, 0.999, 1.2, 999, 1001, 2.5, 2.5),
        ]
        for n, eps, delta, B, db, dt, wb, wt in records:
            got = q_lower_bound_general(
                _inputs(n=n, epsilon=eps, delta=delta, label_bound=B,
                        d_b=db, d_t=dt, w_b=wb, w_t=wt)
            ).q_lower
            want = _oracle_general(n, eps, delta, B, db, dt, wb, wt)
            assert abs(mp.mpf(got) - want) / want < mp.mpf("1e-12")

    def test_monotonicity_sweep(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            kw = dict(
                n=int(rng.integers(10, 10**7)),
                epsilon=float(rng.uniform(0.05, 2)),
                delta=float(rng.uniform(0.05, 0.9)),
                label_bound=float(rng.uniform(0.5, 5)),
                d_b=int(rng.integers(2, 5000)),
                d_t=int(rng.integers(2, 5000)),
                w_b=float(rng.uniform(1, 50)),
                w_t=float(rng.uniform(1, 50)),
            )
            base = q_lower_bound_general(_inputs(**kw)).q_lower
            for field, factor in [("w_b", 2.0), ("w_t", 3.0), ("delta", 1.05)]:
                grown = dict(kw)
                grown[field] = min(kw[field] * factor, 0.999) if field == "delta" else kw[field] * factor
                assert q_lower_bound_general(_inputs(**grown)).q_lower <= base
            for field in ("d_b", "d_t"):
                grown = dict(kw)
                grown[field] = kw[field] * 2
                assert q_lower_bound_general(_inputs(**grown)).q_lower <= base
            grown = dict(kw)
            grown["n"] = kw["n"] * 5
            assert q_lower_bound_general(_inputs(**grown)).q_lower >= base

    def test_threshold_strictly_decreasing_in_epsilon(self):
        a = q_lower_bound_general(_inputs(epsilon=0.5, j=2.0, c=1.5)).threshold
        b = q_lower_bound_general(_inputs(epsilon=1.0, j=2.0, c=1.5)).threshold
        # slope is -(1 + c J (B + 2 c^2))
        slope = (b - a) / 0.5
        assert slope == pytest.approx(-(1.0 + 1.5 * 2.0 * (1.0 + 2.0 * 1.5**2)))

    def test_log_terms_finite_at_extreme_sizes(self):
        rep = q_lower_bound_general(
            _inputs(d_b=500_000, d_t=500_000, w_b=1e6, w_t=1e6)
        )
        assert all(math.isfinite(v) for v in rep.log_cover_terms.values())
        assert rep.q_lower > 0

    def test_overflowing_log_product_keeps_q_lower_finite(self):
        # a parameter count beyond any realistic class overflows the
        # log-space sum; the sentinel lands in the breakdown while the
        # bound itself collapses to a finite value (zero)
        rep = q_lower_bound_general(_inputs(d_b=10**308, d_t=10**308))
        assert rep.log_cover_terms["log_product"] == math.inf
        assert math.isfinite(rep.q_lower) and rep.q_lower == 0.0

    def test_invalid_delta_rejected(self):
        with pytest.raises(InputError):
            _inputs(delta=1.0)
        with pytest.raises(InputError):
            _inputs(delta=0.0)
        with pytest.raises(InputError):
            _inputs(delta=math.nan)

    @pytest.mark.parametrize("name, value, message", [
        ("n", 0, "n must be an int >= 1, got 0"),
        ("n", math.nan, "n must be an int >= 1, got nan"),
        pytest.param("n", 10**400, "n must be at most 1.7976931348623157e+308, "
                     "got an int of 1329 bits", id="n-10**400"),
        ("epsilon", math.nan, "epsilon must be a finite number > 0, got nan"),
        ("epsilon", math.inf, "epsilon must be a finite number > 0, got inf"),
        ("label_bound", 0.0, "label_bound must be a number > 0, got 0.0"),
        ("label_bound", math.nan, "label_bound must be a number > 0, got nan"),
        ("j", math.nan, "j must be a number > 0, got nan"),
        ("sigma2", -1.0, "sigma2 must be a number >= 0, got -1.0"),
        ("sigma2", math.nan, "sigma2 must be a number >= 0, got nan"),
        ("alpha", math.nan, "alpha must be a number in (0, 1), got nan"),
    ])
    def test_range_checks_reject_nan(self, name, value, message):
        with pytest.raises(InputError) as info:
            _inputs(**{name: value})
        assert str(info.value) == message

    @pytest.mark.parametrize("j_source", ["measured", None])
    def test_unknown_j_source_rejected(self, j_source):
        inputs = _inputs()
        with pytest.raises(InputError, match="^j_source must be 'estimated' or 'analytic'$"):
            BoundInputs(n=inputs.n, epsilon=inputs.epsilon, delta=inputs.delta,
                        label_bound=inputs.label_bound, fclass=inputs.fclass, j=inputs.j,
                        j_source=j_source)


class TestAlphaPrime:
    def test_balanced_split(self):
        assert alpha_prime(0.5) == pytest.approx(0.5 * math.log(2.0))

    def test_quarter(self):
        want = 0.125 * math.log(4.0) + 0.375 * math.log(4.0 / 3.0)
        assert alpha_prime(0.25) == pytest.approx(want, rel=1e-14)

    @given(st.floats(1e-6, 1 - 1e-6))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, a):
        assert alpha_prime(a) == pytest.approx(alpha_prime(1.0 - a), rel=1e-10)

    @pytest.mark.parametrize("a", [0.0, 1.0, -0.1, 1.1])
    def test_boundary_rejected(self, a):
        with pytest.raises(InputError):
            alpha_prime(a)


class TestQLowerBoundSigmoid:
    def test_sixteen_fold_n_doubles_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            w = float(rng.uniform(1, 50))
            base = _inputs(
                n=int(rng.integers(1, 10**9)),
                epsilon=float(rng.uniform(0.01, 5)),
                delta=float(rng.uniform(0.01, 0.99)),
                label_bound=float(rng.uniform(0.1, 10)),
                d_b=int(rng.integers(1, 10**5)),
                d_t=int(rng.integers(1, 10**5)),
                w_b=w, w_t=w,
                alpha=float(rng.uniform(0.05, 0.95)),
            )
            scaled = BoundInputs(
                n=16 * base.n, epsilon=base.epsilon, delta=base.delta,
                label_bound=base.label_bound, fclass=base.fclass,
                j=base.j, sigma2=base.sigma2, alpha=base.alpha,
            )
            assert (
                q_lower_bound_sigmoid(scaled).q_lower
                == 2.0 * q_lower_bound_sigmoid(base).q_lower
            )

    def test_agrees_with_extended_precision_oracle(self):
        records = [
            (10**6, 1.0, 0.5, 1.0, 10, 10, 1.0, 0.5),
            (5000, 0.25, 0.1, 2.0, 120, 80, 3.0, 0.25),
            (10**8, 0.01, 0.9, 5.0, 18000, 18000, 10.0, 0.7),
            (999, 0.7, 0.42, 0.9, 64, 32, 2.0, 0.9),
            (31415926, 1.5, 0.05, 3.0, 4096, 8192, 7.0, 0.1),
        ]
        for n, eps, delta, B, db, dt, w, alpha in records:
            got = q_lower_bound_sigmoid(
                _inputs(n=n, epsilon=eps, delta=delta, label_bound=B,
                        d_b=db, d_t=dt, w_b=w, w_t=w, alpha=alpha)
            ).q_lower
            want = _oracle_sigmoid(n, eps, delta, B, db, dt, w, alpha)
            assert abs(mp.mpf(got) - want) / want < mp.mpf("1e-12")

    def test_requires_unit_output_bound(self):
        with pytest.raises(InputError):
            q_lower_bound_sigmoid(_inputs(c=2.0))

    def test_requires_common_weight_bound(self):
        with pytest.raises(InputError):
            q_lower_bound_sigmoid(_inputs(w_b=1.0, w_t=2.0))

    def test_shares_prefactor_with_general_variant(self):
        # same n, eps, B: the two variants differ only via the denominator log
        inp = _inputs(n=4096, epsilon=0.3, delta=0.25, label_bound=2.0,
                      d_b=50, d_t=30, w_b=4.0, w_t=4.0, alpha=0.5)
        gen = q_lower_bound_general(inp)
        sig = q_lower_bound_sigmoid(inp)
        assert sig.q_lower >= 0.0
        ratio = sig.q_lower / gen.q_lower
        denom_ratio = (
            gen.log_cover_terms["log_denominator"]
            / sig.log_cover_terms["log_denominator"]
        )
        assert ratio**4 == pytest.approx(denom_ratio, rel=1e-10)


class TestPerturbationBound:
    @pytest.mark.parametrize("j", [2.0, math.inf])
    def test_zero_scale_gives_zero(self, j):
        # +inf is j_upper_bound's overflow value
        assert perturbation_bound(3, 1.0, j, 0.0, 1.0) == 0.0

    def test_linear_in_theta_and_j(self):
        base = perturbation_bound(2, 1.0, 1.0, 0.5, 1.0)
        assert perturbation_bound(2, 1.0, 1.0, 1.0, 1.0) == pytest.approx(2 * base)
        assert perturbation_bound(2, 1.0, 2.0, 0.5, 1.0) == pytest.approx(2 * base)

    def test_unit_values(self):
        assert perturbation_bound(1, 1.0, 1.0, 1.0, 1.0) == pytest.approx(3.0)

    @pytest.mark.parametrize("args", [
        (1, 1.0, 1.0, -0.1, 1.0), (1, 1.0, 1.0, math.nan, 1.0),
        (1, math.nan, 1.0, 1.0, 1.0), (1, 1.0, math.nan, 1.0, 1.0),
        (1, 1.0, 1.0, 1.0, math.nan),
        (True, 1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0, 1.0), (0, 1.0, 1.0, 1.0, 1.0),
        (math.nan, 1.0, 1.0, 1.0, 1.0), (1, True, 1.0, 1.0, 1.0), (1, 1.0, True, 1.0, 1.0),
        (1, 1.0, 1.0, True, 1.0), (1, 1.0, 1.0, 1.0, True), (1, 0.0, 1.0, 1.0, 1.0),
    ])
    def test_bad_range_rejected(self, args):
        with pytest.raises(InputError, match="^(q|c|J|theta|B) must be an? (int|number) "):
            perturbation_bound(*args)


def _reference_verify_perturbation(model, theta, dataset, trials, seed, j):
    """One trial at a time: one row from each of the four spawned streams
    (branch normals, branch radii, trunk normals, trunk radii), then the
    empirical risk of the perturbed model."""
    bn, br, tn, tr = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(4))
    base = empirical_risk(model, dataset)
    max_observed = -math.inf
    for _ in range(trials):
        db = deeponet._uniform_in_ball(bn, br, 1, model.branch.flat.size, theta / 2.0)[0]
        dt = deeponet._uniform_in_ball(tn, tr, 1, model.trunk.flat.size, theta / 2.0)[0]
        pert = DeepONetModel(
            branch=nn.MlpParams(model.branch.spec, model.branch.flat + db),
            trunk=nn.MlpParams(model.trunk.spec, model.trunk.flat + dt),
        )
        increment = empirical_risk(pert, dataset) - base
        if increment > max_observed:
            max_observed = increment
    return max_observed


class TestVerifyPerturbation:
    @pytest.mark.parametrize("output", ["sigmoid", "tanh"])
    @pytest.mark.parametrize("theta", [0.0, 0.05])
    @pytest.mark.parametrize("extra", [None, 0, 1])
    def test_equals_per_trial_loop(self, rng, output, theta, extra):
        model = random_model(rng, q=3, width=5, output=output)
        ds = random_dataset(rng, n=12)
        chunk = deeponet._stack_size(model, ds.n)
        trials = 1 if extra is None else chunk + extra
        rep = verify_perturbation(model, theta, ds, trials=trials, seed=[3, trials], j=2.0)
        want = _reference_verify_perturbation(model, theta, ds, trials, [3, trials], 2.0)
        assert math.copysign(1.0, rep.max_observed) == math.copysign(1.0, want)
        assert rep.max_observed == want and rep.trials == trials
        assert rep.holds == (want <= rep.bound)

    def test_nan_label_gives_minus_infinity(self, rng):
        model = random_model(rng, q=2, output="sigmoid")
        ds = random_dataset(rng, n=6)
        ds.y[2] = math.nan
        rep = verify_perturbation(model, 0.05, ds, trials=40, seed=0, j=1.0)
        assert rep.max_observed == -math.inf and rep.holds
        assert _reference_verify_perturbation(model, 0.05, ds, 40, 0, 1.0) == -math.inf

    def test_nan_increment_does_not_hide_its_chunk(self, rng, monkeypatch):
        model = random_model(rng, q=2, output="tanh")
        ds = random_dataset(rng, n=6)
        base = empirical_risk(model, ds)

        real_risks = deeponet._RiskEvaluator.risks

        def half_nan(self, branch_flats, trunk_flats):
            if branch_flats.ndim == 1:  # the unperturbed base risk
                return real_risks(self, branch_flats, trunk_flats)
            risks = np.full(branch_flats.shape[0], math.nan)
            risks[1::2] = base + 0.25
            return risks

        monkeypatch.setattr(deeponet._RiskEvaluator, "risks", half_nan)
        rep = verify_perturbation(model, 0.05, ds, trials=10, seed=0, j=1.0)
        assert rep.max_observed == (base + 0.25) - base

    def test_zero_theta_increments_zero(self, rng):
        model = random_model(rng, q=2, output="sigmoid")
        ds = random_dataset(rng, n=10)
        rep = verify_perturbation(model, 0.0, ds, trials=5, seed=0, j=1.0)
        assert rep.max_observed == 0.0 and rep.holds

    def test_toy_model_never_violates_with_analytic_j(self, rng):
        model = random_model(rng, q=4, width=6, output="sigmoid")
        ds = random_dataset(rng, n=30)
        rep = verify_perturbation(model, 0.1, ds, trials=300, seed=1)
        assert rep.holds
        assert rep.j_used == analytic_j_for_model(model, ds, 0.1)

    def test_max_observed_nondecreasing_in_trials(self, rng):
        model = random_model(rng, q=2, output="tanh")
        ds = random_dataset(rng, n=10)
        a = verify_perturbation(model, 0.2, ds, trials=20, seed=2, j=1e9)
        b = verify_perturbation(model, 0.2, ds, trials=80, seed=2, j=1e9)
        assert b.max_observed >= a.max_observed

    def test_unbounded_outputs_rejected(self, rng):
        model = random_model(rng, output="linear")
        ds = random_dataset(rng, n=5)
        with pytest.raises(InputError):
            verify_perturbation(model, 0.1, ds, trials=2, seed=0)

    @pytest.mark.parametrize("theta", [-0.1, math.nan, math.inf])
    def test_bad_theta_rejected(self, rng, theta):
        model = random_model(rng, output="sigmoid")
        ds = random_dataset(rng, n=5)
        with pytest.raises(InputError, match=f"theta must be a finite number >= 0, got {theta}"):
            verify_perturbation(model, theta, ds, trials=2, seed=0)

    def test_zero_move_holds_at_the_overflow_j(self, rng):
        model = random_model(rng, output="sigmoid")
        rep = verify_perturbation(model, 0.0, random_dataset(rng, n=5), 5, seed=0, j=math.inf)
        assert (rep.max_observed, rep.bound, rep.holds) == (0.0, 0.0, True)


class TestVerifyPerturbationPool:
    """With a pool, a helper task shares the trial chunks with the calling thread."""

    @staticmethod
    def _fields(rep):
        return (struct.pack("<d", rep.max_observed), rep.bound, rep.holds, rep.j_used, rep.trials)

    @pytest.mark.parametrize("seed", [0, 5, 31])
    @pytest.mark.parametrize("trials", ["1", "chunk-1", "chunk", "chunk+1", "2chunk+5", "10000"])
    def test_pool_equals_one_thread(self, seed, trials):
        model, ds = cli._toy_model_and_data(seed)
        chunk = deeponet._stack_size(model, ds.n)
        trials = {"1": 1, "chunk-1": chunk - 1, "chunk": chunk, "chunk+1": chunk + 1,
                  "2chunk+5": 2 * chunk + 5, "10000": 10_000}[trials]
        serial = verify_perturbation(model, 0.05, ds, trials, seed=[seed, 13])
        with ThreadPoolExecutor(max_workers=1) as pool:
            shared = verify_perturbation(model, 0.05, ds, trials, seed=[seed, 13], pool=pool)
        assert self._fields(shared) == self._fields(serial)

    def test_pool_busy_at_first_equals_one_thread(self, monkeypatch):
        # the CLI's case: the worker is busy when the helper is submitted.
        # It is released at the second chunk, and the calling thread waits
        # in its next pass until the helper has drawn a chunk of its own.
        model, ds = cli._toy_model_and_data(5)
        serial = verify_perturbation(model, 0.05, ds, 2000, seed=[5, 13])
        release, helper_drew = threading.Event(), threading.Event()
        main = threading.current_thread()
        calls = 0
        real_draw, real_risks = bounds._uniform_in_ball, deeponet._RiskEvaluator.risks

        def draw(*args):
            nonlocal calls
            calls += 1
            if calls == 3:
                release.set()
            if threading.current_thread() is not main:
                helper_drew.set()
            return real_draw(*args)

        def risks(self, branch_flats, trunk_flats):
            if threading.current_thread() is main and release.is_set():
                assert helper_drew.wait(timeout=30)
            return real_risks(self, branch_flats, trunk_flats)

        monkeypatch.setattr(bounds, "_uniform_in_ball", draw)
        monkeypatch.setattr(deeponet._RiskEvaluator, "risks", risks)
        with ThreadPoolExecutor(max_workers=1) as pool:
            busy = pool.submit(release.wait, 30)
            shared = verify_perturbation(model, 0.05, ds, 2000, seed=[5, 13], pool=pool)
            assert busy.result() is True
        assert helper_drew.is_set()
        assert self._fields(shared) == self._fields(serial)

    def test_interleaved_threads_draw_each_chunk_once(self, monkeypatch):
        # four runs at once, each with its helper: eight threads on the cores.
        # A short switch interval, and a yield between a chunk's two draws,
        # interleave the hand-outs; each chunk's branch and trunk draws must
        # still come from one thread, in chunk order
        model, ds = cli._toy_model_and_data(31)
        trials, chunk = 2000, deeponet._stack_size(model, ds.n)
        want = self._fields(verify_perturbation(model, 0.05, ds, trials, seed=[31, 13]))
        runs, got = 4, {}
        draws = {f"run{i}": [] for i in range(runs)}  # (thread, dim, count) in draw order
        real_draw = bounds._uniform_in_ball

        def draw(*args):
            name = threading.current_thread().name
            draws[name.split("_")[0]].append((name, args[3], args[2]))
            time.sleep(0)
            return real_draw(*args)

        def run(i):
            with ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"run{i}") as pool:
                got[i] = self._fields(verify_perturbation(model, 0.05, ds, trials,
                                                          seed=[31, 13], pool=pool))

        monkeypatch.setattr(bounds, "_uniform_in_ball", draw)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,), name=f"run{i}_caller")
                       for i in range(runs)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == {i: want for i in range(runs)}
        sizes = [min(chunk, trials - start) for start in range(0, trials, chunk)]
        chunk_draws = [((model.branch.flat.size, k), (model.trunk.flat.size, k)) for k in sizes]
        for seq in draws.values():
            pairs = list(zip(seq[::2], seq[1::2], strict=True))
            assert all(b[0] == t[0] for b, t in pairs)  # one thread draws both
            assert [(b[1:], t[1:]) for b, t in pairs] == chunk_draws

    @pytest.mark.parametrize("pooled", [False, True], ids=["one-thread", "pool"])
    def test_error_in_a_chunk_stops_both_threads(self, monkeypatch, pooled):
        model, ds = cli._toy_model_and_data(5)
        calls = 0
        real_draw = bounds._uniform_in_ball

        def draw(*args):
            nonlocal calls
            calls += 1
            if calls == 3:  # the branch draw of the second chunk
                raise InputError("draw failed")
            return real_draw(*args)

        monkeypatch.setattr(bounds, "_uniform_in_ball", draw)
        before = threading.active_count()
        with ThreadPoolExecutor(max_workers=1) as pool:
            with pytest.raises(InputError, match="^draw failed$"):
                verify_perturbation(model, 0.05, ds, 10_000, seed=[5, 13],
                                    pool=pool if pooled else None)
        assert threading.active_count() == before
        # the other thread draws at most one more chunk of the 93
        assert calls <= 5


_real_default_rng = np.random.default_rng


class _RecordedUniform:
    """A probe stream that records its draws and can move the probe at one
    index outside the ball, far from every grid point."""

    def __init__(self, seed, moved=None):
        self.rng, self.draws, self.moved = _real_default_rng(seed), [], moved

    def uniform(self, low, high, size):
        x = self.rng.uniform(low, high, size)
        start = sum(map(len, self.draws))
        if self.moved is not None and start <= self.moved < start + len(x):
            x[self.moved - start] = 3.0 * high
        self.draws.append(x)
        return x


def _record_probes(monkeypatch, moved=None):
    """Make np.random.default_rng return _RecordedUniform streams; the list
    of streams made."""
    streams = []

    def default_rng(seed):
        streams.append(_RecordedUniform(seed, moved))
        return streams[-1]

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    return streams


class TestVerifyCoverBruteforce:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("extra", [None, 0, 1])
    @pytest.mark.parametrize("theta", [0.25, 1e-12])
    def test_equals_one_array_check(self, monkeypatch, d, extra, theta):
        # the chunks draw the probes of one array, and a valid cover holds
        chunk = deeponet._WORKING_SET // d
        probes = 1 if extra is None else chunk + extra
        streams = _record_probes(monkeypatch)
        assert verify_cover_bruteforce(d, 1.0, theta, probes, seed=[d, probes])
        want = _real_default_rng([d, probes]).uniform(-1.0, 1.0, (probes, d))
        assert max(map(len, streams[0].draws)) <= chunk
        assert np.array_equal(np.concatenate(streams[0].draws), want)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_miss_after_the_first_chunk_found(self, monkeypatch, d):
        chunk = deeponet._WORKING_SET // d
        assert verify_cover_bruteforce(d, 1.0, 0.25, 2 * chunk, seed=d)
        streams = _record_probes(monkeypatch, moved=chunk + 7)  # in the second chunk
        assert not verify_cover_bruteforce(d, 1.0, 0.25, 2 * chunk, seed=d)
        assert len(streams[0].draws) == 2

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("shrink", [2.5, 1e6])
    def test_fails_when_the_bound_allows_too_few_points(self, monkeypatch, d, shrink):
        # the bound's count over shrink^d (at least one point) cannot cover;
        # the cell corner shows it whatever the one probe draws
        real = bounds.log_covering_number_ball
        assert verify_cover_bruteforce(d, 1.0, 0.25, probes=1, seed=0)
        monkeypatch.setattr(bounds, "log_covering_number_ball",
                            lambda theta, w, d: max(0.0, real(theta, w, d) - d * math.log(shrink)))
        assert not verify_cover_bruteforce(d, 1.0, 0.25, probes=1, seed=0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("theta", [1e-12, 1e-14])
    def test_valid_cover_holds_at_tiny_scales(self, d, theta):
        # the grid the bound allows is about twice as fine as a cover needs,
        # so the probes' rounding stays within theta
        assert verify_cover_bruteforce(d, 1.0, theta, probes=200_000, seed=0)

    def test_single_center_point_suffices(self):
        assert verify_cover_bruteforce(1, 1.0, 2.0, probes=1000, seed=0)

    def test_two_d_fine_scale(self):
        assert verify_cover_bruteforce(2, 1.0, 0.5, probes=10_000, seed=1)

    def test_scale_beyond_diameter(self):
        assert verify_cover_bruteforce(3, 1.0, 2.0 * 1.0 * math.sqrt(3) + 1, probes=500, seed=2)

    @pytest.mark.parametrize("d", [4, 0, True, 2.0, math.nan])
    def test_dimension_limited(self, d):
        with pytest.raises(InputError, match=fr"^d must be an int in \[1, 4\), got {d}$"):
            verify_cover_bruteforce(d, 1.0, 0.5, probes=10, seed=0)

    @pytest.mark.parametrize("w, theta", [(0.0, 0.5), (1.0, 0.0), (math.nan, 0.5),
                                          (1.0, math.nan), (True, 0.5), (1.0, True),
                                          (math.inf, 0.5), (1.0, math.inf)])
    def test_bad_range_rejected(self, w, theta):
        with pytest.raises(InputError, match="^(w|theta) must be a finite number > 0, got "):
            verify_cover_bruteforce(2, w, theta, probes=10, seed=0)

    @pytest.mark.parametrize("d, w, theta", [(1, 1e308, 1e-300), (3, 1e300, 1e-300)])
    def test_grid_beyond_float_range_rejected(self, d, w, theta):
        with pytest.raises(InputError, match=re.escape(f"w / theta = {w!r} / {theta!r} needs")):
            verify_cover_bruteforce(d, w, theta, probes=1, seed=0)


def _peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("check", ["cover", "perturbation"])
def test_monte_carlo_pass_stays_within_the_working_set(check):
    # in one array, 10^6 cover probes took 69 MiB and 10^4 perturbation
    # trials 17 MiB; each pass now works on chunks of 2^16 floats (512 KiB)
    model, ds = cli._toy_model_and_data(5)
    run = {
        "cover": lambda: verify_cover_bruteforce(2, 1.0, 0.25, 10**6, seed=0),
        "perturbation": lambda: verify_perturbation(model, 0.05, ds, 10**4, seed=[5, 13]),
    }[check]
    assert _peak_bytes(run) < 8 << 20


class TestHoeffdingMc:
    def test_zero_deviation_bound_is_one(self):
        rep = hoeffding_mc_check(0.0, 1.0, 10, 0.0, trials=200, seed=0)
        assert rep.bound == 1.0 and rep.holds

    def test_impossible_deviation_has_empty_tail(self):
        rep = hoeffding_mc_check(0.0, 1.0, 5, 1.5, trials=500, seed=1)
        assert rep.empirical_tail == 0.0 and rep.holds

    def test_standard_setting_holds(self):
        rep = hoeffding_mc_check(0.0, 1.0, 100, 0.2, trials=100_000, seed=2)
        assert rep.holds

    def test_chunking_keeps_the_draws(self):
        # 3,000 means of 100 draws span several chunks; one array holds them all
        rep = hoeffding_mc_check(0.0, 1.0, 100, 0.02, trials=3000, seed=5)
        means = np.random.default_rng(5).uniform(0.0, 1.0, (3000, 100)).mean(axis=1)
        assert rep.empirical_tail == np.count_nonzero(means - 0.5 >= 0.02) / 3000

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (math.nan, 1.0), (0.0, math.nan)])
    def test_degenerate_interval_rejected(self, a, b):
        with pytest.raises(InputError, match="need a < b"):
            hoeffding_mc_check(a, b, 5, 0.1, trials=10, seed=0)

    @pytest.mark.parametrize("a, b", [(-math.inf, 1.0), (0.0, math.inf)])
    def test_infinite_end_rejected(self, a, b):
        with pytest.raises(InputError, match="^(a|b) must be a finite number, got -?inf$"):
            hoeffding_mc_check(a, b, 5, 0.1, trials=10, seed=0)

    @pytest.mark.parametrize("t", [-0.1, math.nan])
    def test_bad_deviation_rejected(self, t):
        with pytest.raises(InputError, match=f"t must be a number >= 0, got {t}"):
            hoeffding_mc_check(0.0, 1.0, 5, t, trials=10, seed=0)
