import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from donlab import deeponet, gradcheck, nn, scaling
from donlab.deeponet import (
    Dataset,
    DeepONetModel,
    don_forward_batch,
    empirical_risk,
    estimate_J,
    init_model,
    j_upper_bound,
    load_checkpoint,
    loss_grads,
    save_checkpoint,
)
from donlab.errors import InputError

from conftest import random_dataset, random_model, random_params


def _const_output_net(in_dim, out_values, activation="linear"):
    """Single-layer net with zero weights and the given biases."""
    spec = nn.MlpSpec((in_dim, len(out_values)), output_activation=activation)
    flat = np.zeros(nn.param_count(spec))
    flat[in_dim * len(out_values):] = out_values
    return nn.MlpParams(spec, flat)


class TestForward:
    def test_half_times_half(self):
        # zero-parameter sigmoid nets output 0.5 in every component
        bspec = nn.MlpSpec((3, 1), output_activation="sigmoid")
        tspec = nn.MlpSpec((2, 1), output_activation="sigmoid")
        model = DeepONetModel(
            nn.MlpParams(bspec, np.zeros(nn.param_count(bspec))),
            nn.MlpParams(tspec, np.zeros(nn.param_count(tspec))),
        )
        assert don_forward_batch(model, np.ones((1, 3)), np.ones((1, 2)))[0] == pytest.approx(0.25)

    def test_orthogonal_outputs(self):
        model = DeepONetModel(
            _const_output_net(3, [1.0, 0.0]),
            _const_output_net(2, [0.0, 1.0]),
        )
        assert don_forward_batch(model, np.ones((1, 3)), np.ones((1, 2)))[0] == 0.0

    def test_init_model_specs_and_seeds(self):
        model = init_model(6, 2, 4, 8, 3, 5, hidden_activation="tanh",
                           output_activation="sigmoid", init_scheme="xavier")
        common = dict(hidden_activation="tanh", output_activation="sigmoid",
                      init_scheme="xavier")
        for net, dims, seed in ((model.branch, (6, 8, 8, 4), [5, 1]),
                                (model.trunk, (2, 8, 8, 4), [5, 2])):
            assert net.spec == nn.MlpSpec(dims, **common)
            assert np.array_equal(net.flat, nn.init_mlp(net.spec, seed).flat)

    def test_q_mismatch_rejected(self, rng):
        b = random_params(nn.MlpSpec((3, 4, 2)), rng)
        t = random_params(nn.MlpSpec((2, 4, 3)), rng)
        with pytest.raises(InputError):
            DeepONetModel(b, t)

    def test_output_bound_q7_sigmoid(self, rng):
        model = random_model(rng, q=7, hidden="relu", output="sigmoid")
        for _ in range(100):
            s = rng.uniform(-5, 5, 3)[None]
            p = rng.uniform(-5, 5, 2)[None]
            assert abs(don_forward_batch(model, s, p)[0]) <= 7.0

    def test_output_bound_property_1000_draws(self, rng):
        for _ in range(50):
            q = int(rng.integers(1, 6))
            model = random_model(
                rng, q=q,
                hidden=str(rng.choice(["relu", "tanh"])),
                output=str(rng.choice(["sigmoid", "tanh"])),
            )
            s = rng.uniform(-3, 3, (20, 3))
            p = rng.uniform(-3, 3, (20, 2))
            h = don_forward_batch(model, s, p)
            assert np.all(np.abs(h) <= q * model.c_bound**2)

    def test_swap_symmetry(self, rng):
        model = random_model(rng, m=3, d2=3, q=4)
        swapped = DeepONetModel(model.trunk, model.branch)
        for _ in range(10):
            s = rng.uniform(-1, 1, 3)[None]
            p = rng.uniform(-1, 1, 3)[None]
            assert don_forward_batch(model, s, p)[0] == don_forward_batch(swapped, p, s)[0]


class TestEmpiricalRisk:
    def test_zero_when_predictions_match(self):
        model = DeepONetModel(_const_output_net(2, [0.5]), _const_output_net(1, [2.0]))
        ds = Dataset(
            s=np.zeros((3, 2)), p=np.zeros((3, 1)), y=np.full(3, 1.0),
            B=1.0, sensor_grid=np.array([0.0, 1.0]),
        )
        assert empirical_risk(model, ds) == 0.0

    def test_single_unit_residual(self):
        model = DeepONetModel(_const_output_net(2, [0.0]), _const_output_net(1, [0.0]))
        ds = Dataset(
            s=np.zeros((1, 2)), p=np.zeros((1, 1)), y=np.array([1.0]),
            B=1.0, sensor_grid=np.array([0.0, 1.0]),
        )
        assert empirical_risk(model, ds) == 1.0

    def test_mean_of_squares(self):
        model = DeepONetModel(_const_output_net(2, [0.0]), _const_output_net(1, [0.0]))
        ds = Dataset(
            s=np.zeros((2, 2)), p=np.zeros((2, 1)), y=np.array([1.0, 3.0]),
            B=3.0, sensor_grid=np.array([0.0, 1.0]),
        )
        assert empirical_risk(model, ds) == 5.0  # (1 + 9) / 2

    def test_empty_dataset_rejected(self, rng):
        model = random_model(rng)
        ds = random_dataset(rng, n=0)
        with pytest.raises(InputError):
            empirical_risk(model, ds)

    def test_nonnegative_and_zero_iff_exact(self, rng):
        for _ in range(20):
            model = random_model(rng)
            ds = random_dataset(rng)
            assert empirical_risk(model, ds) >= 0.0


class TestLossGrads:
    def test_zero_residuals_give_zero_grads(self):
        model = DeepONetModel(_const_output_net(2, [1.0]), _const_output_net(1, [1.0]))
        ds = Dataset(
            s=np.zeros((4, 2)), p=np.zeros((4, 1)), y=np.ones(4),
            B=1.0, sensor_grid=np.array([0.0, 1.0]),
        )
        gb, gt, loss = loss_grads(model, ds)
        assert loss == 0.0
        assert np.all(gb == 0.0) and np.all(gt == 0.0)

    def test_matches_finite_differences(self, rng):
        worst = 0.0
        for _ in range(8):
            q = int(rng.integers(1, 3))
            model = random_model(rng, q=q, width=int(rng.integers(2, 5)),
                                 output=str(rng.choice(["sigmoid", "tanh", "linear"])))
            ds = random_dataset(rng, n=5)
            gb, gt, _ = loss_grads(model, ds)
            fb, ft = gradcheck.fd_loss_grads(model, ds)
            worst = max(worst, gradcheck.relative_error(gb, fb),
                        gradcheck.relative_error(gt, ft))
        assert worst < 1e-6

    def test_batch_of_one_equals_full_when_n_is_one(self, rng):
        model = random_model(rng)
        ds = random_dataset(rng, n=1)
        gb1, gt1, l1 = loss_grads(model, ds)
        gb2, gt2, l2 = loss_grads(model, ds.take([0]))
        assert np.array_equal(gb1, gb2) and np.array_equal(gt1, gt2) and l1 == l2

    def test_full_gradient_is_mean_of_per_sample(self, rng):
        model = random_model(rng)
        ds = random_dataset(rng, n=6)
        gb, gt, _ = loss_grads(model, ds)
        per_b = np.mean([loss_grads(model, ds.take([i]))[0] for i in range(6)], axis=0)
        per_t = np.mean([loss_grads(model, ds.take([i]))[1] for i in range(6)], axis=0)
        assert np.allclose(gb, per_b, atol=1e-12)
        assert np.allclose(gt, per_t, atol=1e-12)

    def test_empty_batch_rejected(self, rng):
        model = random_model(rng)
        with pytest.raises(InputError):
            loss_grads(model, random_dataset(rng, n=0))


ACTIVATION_PAIRS = [
    (hidden, output)
    for hidden in nn.HIDDEN_ACTIVATIONS
    for output in nn.OUTPUT_ACTIVATIONS
]


def _fd_reference(model, batch):
    """fd_gradient over empirical_risk, one probe vector at a time."""

    def risk_branch(flat):
        return empirical_risk(DeepONetModel(nn.MlpParams(model.branch.spec, flat),
                                            model.trunk), batch)

    def risk_trunk(flat):
        return empirical_risk(DeepONetModel(model.branch,
                                            nn.MlpParams(model.trunk.spec, flat)), batch)

    return (gradcheck.fd_gradient(risk_branch, model.branch.flat),
            gradcheck.fd_gradient(risk_trunk, model.trunk.flat))


@pytest.mark.parametrize("hidden,output", ACTIVATION_PAIRS)
class TestStackedRisks:
    def test_stacked_risks_equal_empirical_risk(self, rng, hidden, output):
        model = random_model(rng, q=3, width=5, hidden=hidden, output=output)
        ds = random_dataset(rng, n=9)
        bflats = rng.uniform(-1, 1, (3, model.branch.flat.size))
        tflats = rng.uniform(-1, 1, (3, model.trunk.flat.size))
        risks = deeponet._RiskEvaluator(model, ds).risks
        both = risks(bflats, tflats)
        trunk_fixed = risks(bflats, model.trunk.flat)
        for k in range(3):
            pair = DeepONetModel(nn.MlpParams(model.branch.spec, bflats[k]),
                                 nn.MlpParams(model.trunk.spec, tflats[k]))
            assert both[k] == empirical_risk(pair, ds)
            pair = DeepONetModel(nn.MlpParams(model.branch.spec, bflats[k]), model.trunk)
            assert trunk_fixed[k] == empirical_risk(pair, ds)

    def test_fd_loss_grads_equals_fd_gradient(self, rng, hidden, output):
        model = random_model(rng, q=2, width=4, hidden=hidden, output=output)
        batch = random_dataset(rng, n=8)
        got, want = gradcheck.fd_loss_grads(model, batch), _fd_reference(model, batch)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_fd_loss_grads_in_several_chunks(self, rng, monkeypatch, hidden, output):
        # 7 vectors per pass: 3 coordinates per chunk, the last one partial
        monkeypatch.setattr(deeponet, "_STACK_VECTORS", 7)
        model = random_model(rng, q=2, width=3, hidden=hidden, output=output)
        batch = random_dataset(rng, n=5)
        got, want = gradcheck.fd_loss_grads(model, batch), _fd_reference(model, batch)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_stack_size_shrinks_for_large_datasets(rng):
    model = random_model(rng, m=3, width=4)
    assert deeponet._stack_size(model, 8) == deeponet._STACK_VECTORS
    assert deeponet._stack_size(model, 1 << 18) == 1
    assert deeponet._stack_size(model, 1 << 14) * (1 << 14) * 4 <= deeponet._WORKING_SET
    # many parameters on one row: the stacked vectors bind, not the buffers
    big = random_model(rng, m=200, width=64)
    k = deeponet._stack_size(big, 1)
    assert k * big.branch.flat.size <= deeponet._WORKING_SET
    assert k < deeponet._WORKING_SET // 200  # what the widest layer alone allows


def _reference_risks(model, branch_flats, trunk_flats, dataset):
    """The risk pass before distinct rows: both nets run on every row."""
    bspec, tspec = model.branch.spec, model.trunk.spec
    b = nn._forward(bspec, branch_flats, nn._check_input(bspec, dataset.s), None)
    t = nn._forward(tspec, trunk_flats, nn._check_input(tspec, dataset.p), None)
    r = dataset.y - np.einsum("...ij,...ij->...i", b, t)
    return np.mean(r * r, axis=-1)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _ulps(a, b):
    return abs(int(_bits(a)) - int(_bits(b)))


def _with_rows(rng, base, order):
    """Dataset whose s and p rows are base's rows taken in the given order."""
    ds = base.take(np.asarray(order))
    ds.y = rng.uniform(-1.0, 1.0, ds.n)
    return ds


# Rows picked from 5 base rows: all distinct, consecutive runs only, and
# repeats that are apart (as in the p column of an ADR dataset).
ROW_ORDERS = {
    "distinct": [0, 1, 2, 3, 4],
    "runs": [0, 0, 0, 1, 1, 2, 3, 3, 3, 3, 4],
    "apart": [2, 0, 1, 2, 4, 0, 0, 3, 1, 2, 4, 2],
}


class TestDistinctRows:
    @pytest.mark.parametrize("name", sorted(ROW_ORDERS))
    def test_first_and_inverse_rebuild_the_rows(self, rng, name):
        base = rng.uniform(-1, 1, (5, 3))
        x = base[ROW_ORDERS[name]]
        first, inverse = deeponet._distinct_rows(x)
        assert np.array_equal(_bits(x[first][inverse]), _bits(x))
        assert first.size == len(set(ROW_ORDERS[name]))
        assert list(first) == sorted(first)  # first occurrences, in order
        assert all(inverse[i] == list(first).index(i) for i in first)

    @pytest.mark.parametrize("n,cols", [(40, 1), (200, 2), (60, 4)])
    def test_equals_first_occurrence_by_bytes(self, rng, n, cols):
        values = np.array([0.0, -0.0, 1.5, np.nan, -np.nan])
        x = values[rng.integers(0, values.size, (n, cols))]
        x = np.repeat(x, rng.integers(1, 4, n), axis=0)  # and consecutive runs
        seen = {}
        for i, row in enumerate(x):
            seen.setdefault(row.tobytes(), i)
        first, inverse = deeponet._distinct_rows(x)
        assert list(first) == list(seen.values())
        assert [first[k] for k in inverse] == [seen[row.tobytes()] for row in x]

    def test_all_distinct_is_the_identity(self, rng):
        first, inverse = deeponet._distinct_rows(rng.uniform(-1, 1, (7, 2)))
        assert np.array_equal(first, np.arange(7)) and np.array_equal(inverse, np.arange(7))

    def test_signed_zeros_differ(self):
        x = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0]])
        first, inverse = deeponet._distinct_rows(x)
        assert list(first) == [0, 1] and list(inverse) == [0, 1, 0, 1]

    def test_nan_rows_match_only_with_their_payload(self):
        quiet = np.float64(np.nan)
        other = np.array([_bits(quiet) | 1], dtype=np.uint64).view(np.float64)[0]
        x = np.array([[quiet], [other], [quiet], [other], [other]])
        first, inverse = deeponet._distinct_rows(x)
        assert list(first) == [0, 1] and list(inverse) == [0, 1, 0, 1, 1]
        assert np.array_equal(_bits(x[first][inverse]), _bits(x))

    def test_empty_and_single_row(self):
        first, inverse = deeponet._distinct_rows(np.empty((0, 3)))
        assert first.size == 0 and inverse.size == 0
        first, inverse = deeponet._distinct_rows(np.ones((1, 3)))
        assert list(first) == [0] and list(inverse) == [0]


class TestRiskOnDistinctRows:
    @pytest.mark.parametrize("name", sorted(ROW_ORDERS))
    def test_equals_per_row_risk(self, rng, name):
        model = random_model(rng, q=3, width=5)
        ds = _with_rows(rng, random_dataset(rng, n=5), ROW_ORDERS[name])
        want = _reference_risks(model, model.branch.flat, model.trunk.flat, ds)
        assert _bits(empirical_risk(model, ds)) == _bits(want)

    def test_signed_zero_and_nan_payload_rows(self, rng):
        model = random_model(rng, q=2, width=4)
        ds = random_dataset(rng, n=6)
        ds.s[:] = ds.s[0]
        ds.s[1::2, 0] = -0.0
        ds.s[::2, 0] = 0.0
        ds.p[:] = ds.p[0]
        ds.p[3:, 1] = np.array([_bits(np.nan) | 1], dtype=np.uint64).view(np.float64)[0]
        ds.p[:3, 1] = np.nan
        ev = deeponet._RiskEvaluator(model, ds)
        assert ev.s.shape[0] == 2 and ev.p.shape[0] == 2
        want = _reference_risks(model, model.branch.flat, model.trunk.flat, ds)
        assert _bits(ev.risks(model.branch.flat, model.trunk.flat)) == _bits(want)

    @pytest.mark.parametrize("k", [1, 3])
    def test_stacked_branch_flats_with_unstacked_trunk(self, rng, k):
        model = random_model(rng, q=3, width=5)
        ds = _with_rows(rng, random_dataset(rng, n=5), ROW_ORDERS["apart"])
        bflats = rng.uniform(-1, 1, (k, model.branch.flat.size))
        got = deeponet._RiskEvaluator(model, ds).risks(bflats, model.trunk.flat)
        want = _reference_risks(model, bflats, model.trunk.flat, ds)
        assert got.shape == (k,) and np.array_equal(_bits(got), _bits(want))

    def test_branch_forward_sees_only_distinct_rows(self, rng, monkeypatch):
        model = random_model(rng, m=3, d2=2, q=2, width=4)
        ds = _with_rows(rng, random_dataset(rng, n=5), ROW_ORDERS["apart"])
        seen = []
        real = nn._forward

        def recording(spec, flat, x, acts):
            seen.append((spec.in_dim, x.shape[0]))
            return real(spec, flat, x, acts)

        monkeypatch.setattr(nn, "_forward", recording)
        empirical_risk(model, ds)
        assert sorted(seen) == [(2, 5), (3, 5)]  # 5 distinct rows of 12

    def test_train_deeponet_curve_equals_per_row_risks(self, rng):
        model = random_model(rng, q=3, width=5)
        ds = _with_rows(rng, random_dataset(rng, n=5), ROW_ORDERS["apart"] * 4)
        _, _, _, curve = scaling.train_deeponet(model, ds, 3, 8, seed=2, lr=0.01)
        ab = at = None
        for epoch in range(3):
            model, ab, at, _ = scaling.train_deeponet(
                model, ds, 1, 8, seed=2, lr=0.01, adam_branch=ab, adam_trunk=at,
                start_epoch=epoch)
            want = _reference_risks(model, model.branch.flat, model.trunk.flat, ds)
            assert _bits(curve[epoch]) == _bits(want)


def _criterion11_cell(q):
    plan = scaling.ExperimentPlan(exponent=0.5, anchor_q=4, anchor_n=4000,
                                  q_list=[4, 8, 16], target_params=8000)
    cell = next(c for c in scaling.plan_cells(plan) if c.q == q)
    ds = scaling.build_cell_dataset(plan, cell.n, seed=[0, cell.q, cell.n])
    model = init_model(plan.branch_in, plan.trunk_in, cell.q, cell.width, plan.depth, 0,
                       plan.hidden_activation, plan.output_activation, "he")
    return model, ds


def test_adr_risk_at_train_cell_shape_is_bit_identical():
    model, ds = _criterion11_cell(8)  # 16,000 rows, width 31
    ev = deeponet._RiskEvaluator(model, ds)
    assert ev.s.shape[0] == 160 and ev.p.shape[0] < ds.n
    want = _reference_risks(model, model.branch.flat, model.trunk.flat, ds)
    assert _bits(ev.risks(model.branch.flat, model.trunk.flat)) == _bits(want)


def test_adr_risk_at_anchor_shape_within_four_ulps():
    # 40 distinct branch rows at width 32 may take the BLAS small-matrix
    # kernel, which can round differently from the 4,000-row product
    model, ds = _criterion11_cell(4)
    want = _reference_risks(model, model.branch.flat, model.trunk.flat, ds)
    assert _ulps(empirical_risk(model, ds), want) <= 4


def _streams(seed):
    return np.random.default_rng([seed, 0]), np.random.default_rng([seed, 1])


@pytest.mark.parametrize("dim", [1, 7, 92])
def test_uniform_in_ball_radius_and_zero_radius(dim):
    rows = deeponet._uniform_in_ball(*_streams(4), 50, dim, 0.3)
    assert rows.shape == (50, dim)
    assert np.all(np.linalg.norm(rows, axis=1) <= 0.3)
    # each row is its normals, rescaled to length radius * u^(1/dim)
    z = _streams(4)[0].standard_normal((50, dim))
    u = _streams(4)[1].random(50)
    want = z / np.linalg.norm(z, axis=1)[:, None] * (0.3 * u ** (1.0 / dim))[:, None]
    np.testing.assert_allclose(rows, want, rtol=1e-13, atol=0.0)
    assert np.all(deeponet._uniform_in_ball(*_streams(4), 5, dim, 0.0) == 0.0)


@pytest.mark.parametrize("dim, radius", [(1, 0.5), (60, 0.0), (92, 0.025), (117, 3.0)])
def test_uniform_in_ball_block_equals_one_row_calls(dim, radius):
    got_streams, want_streams = _streams(9), _streams(9)
    got = deeponet._uniform_in_ball(*got_streams, 37, dim, radius)
    want = np.concatenate([deeponet._uniform_in_ball(*want_streams, 1, dim, radius)
                           for _ in range(37)])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    for got_rng, want_rng in zip(got_streams, want_streams):
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_uniform_in_ball_zero_normals_give_zero_rows_and_take_their_radii():
    class ZeroNormals:
        def standard_normal(self, size):
            return np.full(size, -0.0)

    radii, after = np.random.default_rng(3), np.random.default_rng(3)
    got = deeponet._uniform_in_ball(ZeroNormals(), radii, 4, 5, 1.0)
    assert got.shape == (4, 5) and np.all(got == 0.0)
    after.random(4)
    assert radii.bit_generator.state == after.bit_generator.state


class TestWeightLipschitz:
    def test_degenerate_family_estimates_zero(self):
        spec = nn.MlpSpec((2, 3, 2))
        box = (np.full(2, -1.0), np.full(2, 1.0))
        assert estimate_J(spec, 0.0, box, pairs=20, seed=0) == 0.0

    def test_estimate_below_analytic_bound(self):
        spec = nn.MlpSpec((2, 3, 2), hidden_activation="relu",
                          output_activation="sigmoid")
        box = (np.full(2, -1.0), np.full(2, 1.0))
        p = nn.param_count(spec)
        bound = j_upper_bound(W=1.5, p=p, Q=1, depth=spec.depth, R=math.sqrt(2.0))
        for seed in range(5):
            est = estimate_J(spec, 1.5, box, pairs=50, seed=seed)
            assert 0.0 < est <= bound

    def test_estimate_monotone_in_pairs(self):
        spec = nn.MlpSpec((2, 4, 2))
        box = (np.full(2, -1.0), np.full(2, 1.0))
        e1 = estimate_J(spec, 2.0, box, pairs=10, seed=5)
        e2 = estimate_J(spec, 2.0, box, pairs=40, seed=5)
        assert e2 >= e1

    def test_estimate_requires_pairs(self):
        spec = nn.MlpSpec((2, 4, 2))
        with pytest.raises(InputError):
            estimate_J(spec, 1.0, (np.zeros(2), np.ones(2)), pairs=0, seed=0)

    @pytest.mark.parametrize("kwargs, name", [
        ({"inputs_per_pair": 0}, "inputs_per_pair"),
        ({"inputs_per_pair": -2}, "inputs_per_pair"),
        ({"weight_bound": -1.0}, "weight_bound"),
        ({"weight_bound": math.nan}, "weight_bound"),
        ({"weight_bound": math.inf}, "weight_bound"),
    ])
    def test_estimate_rejects_bad_arguments(self, kwargs, name):
        args = {"spec": nn.MlpSpec((2, 3, 1)), "weight_bound": 1.0,
                "input_domain": (np.zeros(2), np.ones(2)), "pairs": 5, "seed": 0, **kwargs}
        with pytest.raises(InputError, match=f"^{name} must be >= "):
            estimate_J(**args)


class TestJUpperBound:
    def test_all_ones(self):
        assert j_upper_bound(1.0, 1, 1, 1, 1.0) == pytest.approx(1.0)

    def test_linear_in_r(self):
        a = j_upper_bound(2.0, 5, 1, 2, 1.0)
        b = j_upper_bound(2.0, 5, 1, 2, 2.0)
        assert b == pytest.approx(2.0 * a)

    def test_hand_value(self):
        # (2 * sqrt(4))^2 * 1 * 1 * sqrt(4) = 32
        assert j_upper_bound(2.0, 4, 1, 1, 1.0) == pytest.approx(32.0)

    def test_w_below_one_rejected(self):
        with pytest.raises(InputError):
            j_upper_bound(0.5, 4, 1, 1, 1.0)

    def test_overflow_gives_inf(self):
        assert j_upper_bound(1e6, 10**6, 2, 50, 1e3) == math.inf


class TestCheckpoint:
    def test_round_trip_exact(self, rng, tmp_path):
        model = random_model(rng, q=3)
        ab = nn.adam_init(model.branch.flat.size)
        ab, _ = nn.adam_step(ab, model.branch, rng.uniform(-1, 1, model.branch.flat.size))
        path = tmp_path / "model.checkpoint.json"
        save_checkpoint(model, path, seeds={"train": 5}, adam_branch=ab, epoch=7)
        loaded, ab2, at2, epoch, seeds = load_checkpoint(path)
        assert np.array_equal(loaded.branch.flat, model.branch.flat)
        assert np.array_equal(loaded.trunk.flat, model.trunk.flat)
        assert loaded.branch.spec == model.branch.spec
        assert np.array_equal(ab2.m, ab.m) and np.array_equal(ab2.v, ab.v)
        assert ab2.t == ab.t and at2 is None
        assert epoch == 7 and seeds == {"train": 5}

    def test_interrupted_save_keeps_previous_checkpoint(self, rng, tmp_path, monkeypatch):
        model = random_model(rng, q=3)
        path = tmp_path / "model.checkpoint.json"
        save_checkpoint(model, path, epoch=1)
        before = path.read_bytes()

        def write_half_then_fail(self, text, *args, **kwargs):
            with open(self, "w") as fh:
                fh.write(text[: len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(random_model(rng, q=3), path, epoch=2)
        monkeypatch.undo()
        assert path.read_bytes() == before
        loaded, _, _, epoch, _ = load_checkpoint(path)
        assert epoch == 1 and np.array_equal(loaded.branch.flat, model.branch.flat)
        assert [f.name for f in tmp_path.iterdir()] == [path.name]

    def test_reject_non_checkpoint(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("{}")
        with pytest.raises(InputError):
            load_checkpoint(p)
        p.write_text("not json")
        with pytest.raises(InputError):
            load_checkpoint(p)

    @pytest.mark.parametrize("drop", [None, "branch", "trunk"])
    def test_reject_non_object_or_netless_checkpoint(self, rng, tmp_path, drop):
        p = tmp_path / "x.json"
        if drop is None:
            p.write_text("[1, 2]")
        else:
            save_checkpoint(random_model(rng), p)
            payload = json.loads(p.read_text())
            del payload[drop]
            p.write_text(json.dumps(payload))
        with pytest.raises(InputError, match="is not a donlab checkpoint"):
            load_checkpoint(p)

    @pytest.mark.parametrize("edit, message", [
        (lambda c: c.update(branch=1, trunk=1), "malformed branch: "),
        (lambda c: c["trunk"].update(spec=[2, 3]), "malformed trunk: "),
        (lambda c: c["branch"]["spec"].pop("layer_dims"), "malformed branch: .*'layer_dims'"),
        (lambda c: c["trunk"].pop("spec"), "trunk has no 'spec'"),
        (lambda c: c["trunk"].pop("flat"), "trunk has no 'flat'"),
        (lambda c: c["branch"]["spec"].update(layer_dims=4), "malformed branch: "),
        (lambda c: c["trunk"].update(flat="abc"), "malformed trunk: "),
        (lambda c: c["trunk"]["flat"].pop(), "malformed trunk: flat vector has length"),
        (lambda c: c["trunk"]["spec"].update(widths=[3]), "malformed trunk: .*'widths'"),
        (lambda c: c.update(adam_branch=1), "malformed adam_branch: "),
        (lambda c: c["adam_trunk"].pop("v"), "malformed adam_trunk: .*'v'"),
        (lambda c: c["adam_branch"].update(momentum=0.5), "malformed adam_branch: .*'momentum'"),
        (lambda c: c["adam_branch"].update(m=[1.0]), "malformed adam_branch: m and v must"),
        (lambda c: c.update(epoch="x"), "epoch must be an int >= 0, got 'x'"),
        (lambda c: c.update(epoch=-1), "epoch must be an int >= 0, got -1"),
        (lambda c: c.update(epoch=2.5), "epoch must be an int >= 0, got 2.5"),
    ])
    def test_reject_malformed_net(self, rng, tmp_path, edit, message):
        p = tmp_path / "x.json"
        model = random_model(rng)
        save_checkpoint(model, p, adam_branch=nn.adam_init(model.branch.flat.size),
                        adam_trunk=nn.adam_init(model.trunk.flat.size), epoch=3)
        payload = json.loads(p.read_text())
        edit(payload)
        p.write_text(json.dumps(payload))
        with pytest.raises(InputError) as info:
            load_checkpoint(p)
        assert re.match(f"checkpoint {re.escape(str(p))}: {message}", str(info.value))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_inner_product_symmetry_property(seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, m=2, d2=2, q=3)
    s = rng.uniform(-1, 1, 2)[None]
    p = rng.uniform(-1, 1, 2)[None]
    swapped = DeepONetModel(model.trunk, model.branch)
    assert don_forward_batch(model, s, p)[0] == don_forward_batch(swapped, p, s)[0]
