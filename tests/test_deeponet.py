import json
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from donlab import cli, deeponet, gradcheck, nn, scaling
from donlab.deeponet import (
    Dataset,
    DeepONetModel,
    don_forward_batch,
    empirical_risk,
    init_model,
    j_upper_bound,
    load_checkpoint,
    loss_grads,
    save_checkpoint,
)
from donlab.errors import FormatError, InputError

from conftest import (bits_equal, per_net_loss_grads, random_dataset, random_model,
                      random_params)


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
            sensors=np.zeros((1, 2)), source=np.zeros(3, int),
            p=np.zeros((3, 1)), y=np.full(3, 1.0),
            B=1.0, sensor_grid=np.array([0.0, 1.0]),
        )
        assert empirical_risk(model, ds) == 0.0

    def test_single_unit_residual(self):
        model = DeepONetModel(_const_output_net(2, [0.0]), _const_output_net(1, [0.0]))
        ds = Dataset(
            sensors=np.zeros((1, 2)), source=np.zeros(1, int),
            p=np.zeros((1, 1)), y=np.array([1.0]),
            B=1.0, sensor_grid=np.array([0.0, 1.0]),
        )
        assert empirical_risk(model, ds) == 1.0

    def test_mean_of_squares(self):
        model = DeepONetModel(_const_output_net(2, [0.0]), _const_output_net(1, [0.0]))
        ds = Dataset(
            sensors=np.zeros((1, 2)), source=np.zeros(2, int),
            p=np.zeros((2, 1)), y=np.array([1.0, 3.0]),
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
            sensors=np.zeros((1, 2)), source=np.zeros(4, int),
            p=np.zeros((4, 1)), y=np.ones(4),
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



class TestTwoTowerStep:
    """loss_grads runs both nets as one two-tower pass; it must equal the
    per-net reference bit for bit, however the towers split."""

    @pytest.mark.parametrize("hidden", nn.HIDDEN_ACTIVATIONS)
    @pytest.mark.parametrize("output", nn.OUTPUT_ACTIVATIONS)
    @pytest.mark.parametrize("rows", [256, 128])
    def test_criterion_11_shapes(self, rng, hidden, output, rows):
        # the q=8 cell: 40 sensors and (x, t) into four hidden layers of 31;
        # 256 is a training batch and 128 the epoch tail at n = 16000
        model = init_model(40, 2, 8, 31, 5, int(rng.integers(2**31)), hidden, output, "he")
        for net in (model.branch, model.trunk):
            net.flat += rng.normal(0.0, 0.1, net.flat.size)  # nonzero biases too
        batch = random_dataset(rng, n=rows, m=40)
        assert deeponet._TwoTowers(model).heads == (1, 1)  # all but the input layer stack
        got = loss_grads(model, batch)
        want = per_net_loss_grads(model, batch.s, batch.p, batch.y)
        assert all(bits_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("bdims, tdims, trunk_acts, heads", [
        ((5, 6, 6, 3), (2, 6, 6, 3), ("relu", "tanh"), (1, 1)),  # all but the input layer stack
        ((5, 4), (2, 4), ("relu", "tanh"), (1, 1)),  # depth 1: nothing to stack
        ((5, 6, 4), (2, 7, 4), ("relu", "tanh"), (2, 2)),  # differ past the input layer
        ((5, 9, 6, 6, 3), (2, 4, 6, 6, 3), ("relu", "tanh"), (4, 4)),  # a common tail stays apart
        ((5, 6, 6, 3), (2, 6, 3), ("relu", "tanh"), (3, 2)),  # depths differ
        ((5, 6, 3), (2, 6, 3), ("tanh", "sigmoid"), (2, 2)),  # activations differ
        ((5, 6, 3), (2, 6, 3), ("relu", "linear"), (2, 2)),
    ])
    def test_towers_stack_when_they_agree_past_the_input_layer(self, rng, bdims, tdims,
                                                                trunk_acts, heads):
        bspec = nn.MlpSpec(bdims, hidden_activation="relu", output_activation="tanh")
        tspec = nn.MlpSpec(tdims, hidden_activation=trunk_acts[0],
                           output_activation=trunk_acts[1])
        model = DeepONetModel(random_params(bspec, rng), random_params(tspec, rng))
        step = deeponet._TwoTowers(model)
        assert step.heads == heads
        joint = np.concatenate((model.branch.flat, model.trunk.flat))
        joint_before = joint.copy()
        for rows in (9, 4, 20):
            s, p = rng.uniform(-1, 1, (rows, bdims[0])), rng.uniform(0, 1, (rows, tdims[0]))
            y = rng.uniform(-1, 1, rows)
            grad, loss = step(joint, s, p, y)
            gb, gt, want_loss = per_net_loss_grads(model, s, p, y)
            assert bits_equal(grad, np.concatenate((gb, gt))) and loss == want_loss
            assert bits_equal(joint, joint_before)

    def test_tail_views_alias_the_joint_vector_and_its_gradient(self, rng, monkeypatch):
        model = init_model(5, 2, 3, 4, 3, int(rng.integers(2**31)), "tanh", "tanh", "he")
        seen = {}
        real_forward, real_backward = nn._forward, nn._backward

        def forward(spec, flat, x, acts, start=0, **kwargs):
            if start > 0:  # the stacked pass past the input layers
                seen["tail"] = flat
            return real_forward(spec, flat, x, acts, start=start, **kwargs)

        def backward(spec, flat, acts, delta, grad, start=0):
            if start > 0:
                seen["tail_grad"] = grad
            return real_backward(spec, flat, acts, delta, grad, start)

        monkeypatch.setattr(nn, "_forward", forward)
        monkeypatch.setattr(nn, "_backward", backward)
        joint = np.concatenate((model.branch.flat, model.trunk.flat))
        grad, _ = deeponet._TwoTowers(model)(joint, rng.uniform(-1, 1, (4, 5)),
                                             rng.uniform(0, 1, (4, 2)), rng.uniform(-1, 1, 4))
        tail, tail_grad = seen["tail"], seen["tail_grad"]
        hb, ht = 5 * 4 + 4, 2 * 4 + 4  # each input layer's weights and biases
        assert tail.shape == tail_grad.shape == (2, model.branch.flat.size - hb)
        assert np.shares_memory(tail, joint) and np.shares_memory(tail_grad, grad)
        assert bits_equal(tail[0], model.branch.flat[hb:])
        assert bits_equal(tail[1], model.trunk.flat[ht:])

    def test_train_rejects_adam_state_of_the_wrong_length(self, rng):
        model, ds = random_model(rng), random_dataset(rng, n=8)
        short = nn.adam_init(model.branch.flat.size - 1)
        with pytest.raises(InputError,
                           match="^gradient / state length does not match parameter vector$"):
            scaling.train_deeponet(model, ds, 1, 4, seed=0, adam_branch=short,
                                   adam_trunk=nn.adam_init(model.trunk.flat.size))


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
        model = random_model(rng, q=2, width=3, hidden=hidden, output=output)
        batch = random_dataset(rng, n=5)
        per_vector = 5 * 3 + model.branch.flat.size  # rows * widest + P
        monkeypatch.setattr(deeponet, "_WORKING_SET", 7 * per_vector)
        assert deeponet._stack_size(model, batch.n) == 7
        got, want = gradcheck.fd_loss_grads(model, batch), _fd_reference(model, batch)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("noise_std", [-0.1, math.nan])
def test_dataset_rejects_negative_or_nan_noise_std(noise_std):
    message = f"noise_std must be a finite number >= 0, got {noise_std}"
    with pytest.raises(InputError, match=message):
        Dataset(sensors=np.zeros((1, 3)), source=np.zeros(2, int), p=np.zeros((2, 1)),
                y=np.zeros(2), B=0.0, sensor_grid=np.zeros(3), noise_std=noise_std)


@pytest.mark.parametrize("source, message", [
    (np.zeros(2), "source must be a 1-d int array of indices into the 2 sensors rows, "
                  "got float64 values of shape (2,)"),
    (np.array([True, False]), "got bool values"),
    (np.zeros((2, 1), int), "got int64 values of shape (2, 1)"),
    ([0, 2], "source must be a 1-d int array of indices into the 2 sensors rows"),
    ([-1, 0], "source must be a 1-d int array of indices into the 2 sensors rows"),
    ([0, 1, 1], "source, p, y row counts disagree"),
])
def test_dataset_rejects_a_bad_source(source, message):
    with pytest.raises(InputError, match=re.escape(message)):
        Dataset(sensors=np.zeros((2, 3)), source=source, p=np.zeros((2, 1)), y=np.zeros(2),
                B=0.0, sensor_grid=np.zeros(3))


@pytest.mark.parametrize("m, d2", [(0, 1), (3, 0)])
def test_dataset_rejects_sensors_or_p_without_columns(m, d2):
    # no net takes 0 inputs, and the CSV reader rejects such a header too
    with pytest.raises(InputError, match="sensors and p must be 2-d with a column or more"):
        Dataset(sensors=np.zeros((2, m)), source=[0, 1], p=np.zeros((2, d2)), y=np.zeros(2),
                B=0.0, sensor_grid=np.zeros(m))


@pytest.mark.parametrize("label", [1.5, -math.inf, math.inf, math.nan])
def test_dataset_rejects_a_label_beyond_B_or_nan(label):
    with pytest.raises(InputError, match=re.escape("label bound B violated: max|y| > B")):
        Dataset(sensors=np.zeros((1, 3)), source=np.zeros(2, int), p=np.zeros((2, 1)),
                y=np.array([label, 0.2]), B=1.0, sensor_grid=np.zeros(3))


def test_dataset_keeps_nan_sensors_and_p():
    # the CSV writer refuses them, but the in-memory layout takes any bits
    ds = Dataset(sensors=np.full((1, 3), math.nan), source=np.zeros(2, int),
                 p=np.full((2, 1), math.nan), y=np.array([1.0, -1.0]), B=1.0,
                 sensor_grid=np.zeros(3))
    assert np.isnan(ds.sensors).all() and np.isnan(ds.p).all()


@pytest.mark.parametrize("seed, message", [
    (True, "seed must be an int >= 0, got True"),
    (-1, "seed must be an int >= 0, got -1"),
    ([0, 1.5], "seed must be an int >= 0, got 1.5"),
])
def test_dataset_rejects_a_bad_seed(rng, seed, message):
    with pytest.raises(InputError, match=re.escape(message)):
        replace(random_dataset(rng), seed=seed)


def test_s_is_a_read_only_gather_of_the_sensors_rows(rng):
    base = random_dataset(rng, n=4)
    ds = base.take([2, 0, 2])
    # only the used rows 2 and 0 are kept, in order of first use
    assert ds.source.dtype == np.intp and list(ds.source) == [0, 1, 0]
    assert ds.sensors.tobytes() == base.sensors[[2, 0]].tobytes()
    assert np.array_equal(ds.s, base.sensors[[2, 0, 2]])
    with pytest.raises(ValueError, match="read-only"):
        ds.s[0, 0] = 1.0


def test_stack_size_shrinks_for_large_datasets(rng):
    model = random_model(rng, m=3, width=4)
    per_vector = 8 * 4 + model.branch.flat.size  # rows * widest + P
    assert deeponet._stack_size(model, 8) == deeponet._WORKING_SET // per_vector
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


def _first_use_layout(sensors, source):
    """The layout a Dataset should hold, built with a dict: each distinct
    used row's bytes once, in order of first use, and every triple's label."""
    texts = [row.tobytes() for row in np.asarray(sensors, dtype=np.float64)]
    rows = {}  # row bytes -> new label
    labels = [rows.setdefault(texts[i], len(rows)) for i in np.asarray(source).tolist()]
    return b"".join(rows), labels


def _assert_layout(ds, sensors, source):
    """ds holds the first-use layout of (sensors, source) bit for bit."""
    want_sensors, want_source = _first_use_layout(sensors, source)
    assert ds.sensors.tobytes() == want_sensors and ds.sensors.shape[1] == sensors.shape[1]
    assert ds.source.dtype == np.intp and ds.source.tolist() == want_source
    again = replace(ds)  # a dataset in this layout is kept as it is
    assert again.sensors is ds.sensors and again.source is ds.source


def _labels(rng, kind, k, n):
    """n labels into k rows: random, one label, or (for k > 1) never two
    equal in a row."""
    if kind == "one":
        return np.full(n, rng.integers(0, k))
    if kind == "apart" and k > 1:  # each label differs from the one before
        steps = rng.integers(1, k, n)
        return (rng.integers(0, k) + np.cumsum(steps)) % k
    return rng.integers(0, k, n)  # may leave rows unused


@pytest.mark.parametrize("kind", ["random", "none", "one", "apart"])
@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_dataset_keeps_each_used_row_once_in_first_use_order(kind, seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 4)), 0 if kind == "none" else int(rng.integers(1, 25))
    payload = np.array([_bits(np.nan) | 1], dtype=np.uint64).view(np.float64)[0]
    values = np.array([0.0, -0.0, 1.5, -0.25, *rng.uniform(-1.0, 1.0, 2)])
    base = values[rng.integers(0, values.size, (int(rng.integers(1, 6)), m))]
    nan_rows = rng.random(base.shape[0]) < 0.3  # one NaN payload per row
    base[nan_rows, 0] = np.where(rng.random(nan_rows.sum()) < 0.5, np.nan, payload)
    sensors = base[rng.integers(0, base.shape[0], int(rng.integers(1, 9)))]  # bitwise repeats
    source = _labels(rng, kind, sensors.shape[0], n)
    ds = Dataset(sensors=sensors, source=source, p=rng.uniform(0.0, 1.0, (n, 2)),
                 y=rng.uniform(-1.0, 1.0, n), B=1.0, sensor_grid=np.zeros(m))
    _assert_layout(ds, sensors, source)
    if n == 0:  # every row unused
        assert ds.sensors.shape == (0, m)
        return
    indices = rng.integers(0, n, int(rng.integers(1, 2 * n + 1)))
    sub = ds.take(indices)
    _assert_layout(sub, sensors, source[indices])
    model = random_model(rng, m=m, q=2, width=3)
    for d in (ds, sub):
        want = _reference_risks(model, model.branch.flat, model.trunk.flat, d)
        assert _bits(empirical_risk(model, d)) == _bits(want)


def _traced_peak(make):
    """make() and the peak of the memory it traced, in bytes."""
    tracemalloc.start()
    try:
        return make(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_shuffled_labels_are_relabelled_without_a_sort_of_n():
    rng = np.random.default_rng(0)
    n, k = 200_000, 2_000
    sensors = rng.standard_normal((k, 4))
    source = rng.permutation(np.arange(n) % k)
    p, y = rng.random((n, 2)), np.zeros(n)
    ds, peak = _traced_peak(lambda: Dataset(sensors=sensors, source=source, p=p, y=y, B=0.0,
                                            sensor_grid=np.zeros(4)))
    _assert_layout(ds, sensors, source)
    assert peak < 3 * n * 8  # a few (k,) tables and one (n,) index array


def test_risk_set_up_on_distinct_p_rows_copies_them_at_most_once(rng):
    n = 200_000
    ds = Dataset(sensors=rng.standard_normal((1, 3)), source=np.zeros(n, int),
                 p=rng.random((n, 2)), y=np.zeros(n), B=0.0, sensor_grid=np.zeros(3))
    model = random_model(rng, m=3, d2=2)
    ev, peak = _traced_peak(lambda: deeponet._RiskEvaluator(model, ds))
    assert ev.p is ds.p and ev.p_rows is None  # every row distinct: p is kept as it is
    assert peak < 5 * ds.p.nbytes


def test_second_risks_call_at_verify_shape_reuses_the_layer_buffers():
    # verify's perturbation chunk: _stack_size = 108 stacked nets on the toy
    # model's 64 rows, so each hidden layer output is 108 x 64 x 8 floats
    # (442,368 bytes). The second call traced a 1,357,248-byte peak when each
    # layer wrote a fresh array, and 168,096 bytes with the evaluator's buffers
    model, ds = cli._toy_model_and_data(0)
    k = deeponet._stack_size(model, ds.n)
    rng = np.random.default_rng(5)
    flats = [net.flat + rng.uniform(-0.01, 0.01, (k, net.flat.size))
             for net in (model.branch, model.trunk)]
    ev = deeponet._RiskEvaluator(model, ds)
    first = ev.risks(*flats)
    second, peak = _traced_peak(lambda: ev.risks(*flats))
    assert bits_equal(second, first)
    assert bits_equal(first, _reference_risks(model, *flats, ds))
    layer_bytes = k * ds.n * max(model.branch.spec.layer_dims[1:]) * 8
    assert peak < layer_bytes


def test_second_relu_risks_call_allocates_no_layer_sized_array():
    # the epoch-end risk at n = 8058: 63 source functions and every trunk row
    # distinct, through four relu layers of width 31. The second call traced a
    # 2,066,128-byte peak when relu compared against a zeros array as large as
    # a trunk layer (1,998,384 bytes), and 645,944 bytes against the scalar 0
    rng = np.random.default_rng(0)
    n, k = 8058, 63
    model = init_model(40, 2, 8, 31, 5, 7, "relu", "tanh", "he")
    y = rng.uniform(-1, 1, n)
    ds = Dataset(sensors=rng.uniform(-1, 1, (k, 40)), source=np.arange(n) % k,
                 p=rng.uniform(0, 1, (n, 2)), y=y, B=1.0, sensor_grid=np.linspace(0, 1, 40))
    ev = deeponet._RiskEvaluator(model, ds)
    assert ev.p.shape[0] == n
    first = ev.risks(model.branch.flat, model.trunk.flat)
    second, peak = _traced_peak(lambda: ev.risks(model.branch.flat, model.trunk.flat))
    assert bits_equal(second, first) and first == empirical_risk(model, ds)
    assert peak < n * 31 * 8


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
        # six sensors rows of two bit patterns: +0.0 and -0.0 in column 0
        sensors = np.repeat(ds.sensors[:1], 6, axis=0)
        sensors[1::2, 0] = -0.0
        sensors[::2, 0] = 0.0
        ds = replace(ds, sensors=sensors)
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

        def recording(spec, flat, x, acts, **kwargs):
            seen.append((spec.in_dim, x.shape[0]))
            return real(spec, flat, x, acts, **kwargs)

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


@pytest.mark.parametrize("fresh_p", [False, True], ids=["p-repeats", "p-distinct"])
@pytest.mark.parametrize("name", sorted(ROW_ORDERS))
@pytest.mark.parametrize("leads", [((), ()), ((3,), (3,)), ((2, 3), ()), ((), (4,))])
def test_risks_in_small_blocks_equal_one_block(rng, monkeypatch, name, fresh_p, leads):
    model = random_model(rng, q=3, width=5)
    ds = _with_rows(rng, random_dataset(rng, n=5), ROW_ORDERS[name])
    if fresh_p:
        ds = replace(ds, p=rng.uniform(0, 1, ds.p.shape))
    flats = [rng.uniform(-1, 1, lead + (net.flat.size,))
             for lead, net in zip(leads, (model.branch, model.trunk))]
    ev = deeponet._RiskEvaluator(model, ds)
    want = ev.risks(*flats)
    assert np.array_equal(_bits(want), _bits(_reference_risks(model, *flats, ds)))
    per_row = 3 * max(math.prod(lead) for lead in leads)  # q floats per stacked vector
    for rows in (1, 2, 4):  # blocks of this many triples
        monkeypatch.setattr(deeponet, "_WORKING_SET", rows * per_row)
        got = ev.risks(*flats)
        assert got.shape == want.shape and np.array_equal(_bits(got), _bits(want))


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

    @pytest.mark.parametrize("args, message", [
        ((True, 4, 1, 1, 1.0), "W must be a number >= 1, got True"),
        ((math.nan, 4, 1, 1, 1.0), "W must be a number >= 1, got nan"),
        ((2.0, True, 1, 1, 1.0), "p must be an int >= 1, got True"),
        ((2.0, 4.0, 1, 1, 1.0), "p must be an int >= 1, got 4.0"),
        ((2.0, 4, 0, 1, 1.0), "Q must be an int >= 1, got 0"),
        ((2.0, 4, 1, True, 1.0), "depth must be an int >= 1, got True"),
        ((2.0, 4, 1, 1, 0.0), "R must be a number > 0, got 0.0"),
        ((2.0, 4, 1, 1, math.nan), "R must be a number > 0, got nan"),
        ((2.0, 4, 1, 1, True), "R must be a number > 0, got True"),
    ])
    def test_bool_nan_or_out_of_range_rejected(self, args, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            j_upper_bound(*args)

    def test_overflow_gives_inf(self):
        assert j_upper_bound(1e6, 10**6, 2, 50, 1e3) == math.inf
        assert j_upper_bound(math.inf, 4, 1, 1, 1.0) == math.inf
        assert j_upper_bound(2.0, 4, 1, 1, math.inf) == math.inf
        # W = e^354.75 gives log 709.5, just below exp's overflow at about 709.78
        assert j_upper_bound(math.exp(354.75), 1, 1, 1, 1.0) == pytest.approx(1.355e308, rel=1e-3)
        assert j_upper_bound(math.exp(354.9), 1, 1, 1, 1.0) == math.inf  # log 709.8


class TestCheckpoint:
    def test_round_trip_exact(self, rng, tmp_path):
        model = random_model(rng, q=3)
        ab = nn.adam_init(model.branch.flat.size)
        ab, _ = nn._adam_update(ab, model.branch.flat, rng.uniform(-1, 1, model.branch.flat.size))
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

    @pytest.mark.parametrize("text, error, message", [
        ("{}", InputError, "{} is not a donlab checkpoint$"),
        ("not json", FormatError, "checkpoint {} is not valid JSON: "),
        ("[1, 2]", FormatError, "checkpoint {} must hold a JSON object$"),
        (None, InputError, "checkpoint not found: {}$"),  # no file at the path
    ])
    def test_reject_non_checkpoint(self, tmp_path, text, error, message):
        p = tmp_path / "x.json"
        if text is not None:
            p.write_text(text)
        with pytest.raises(error, match="^" + message.format(re.escape(str(p)))):
            load_checkpoint(p)

    @pytest.mark.parametrize("drop", ["branch", "trunk"])
    def test_reject_netless_checkpoint(self, rng, tmp_path, drop):
        p = tmp_path / "x.json"
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
        (lambda c: c["adam_branch"].update(t=2.5),
         "malformed adam_branch: step counter t must be an int >= 0, got 2.5"),
        (lambda c: c["adam_trunk"].update(t=True),
         "malformed adam_trunk: step counter t must be an int >= 0, got True"),
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
