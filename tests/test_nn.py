import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from donlab import gradcheck, nn
from donlab.errors import ConfigurationError, InputError
from donlab.scaling import size_architecture

from conftest import bits_equal, random_params, view_forward, view_vjp


def _layers(params):
    """Per-layer (W, b) views of the flat vector, W of shape (out, in)."""
    return [(params.flat[w_sl].reshape(n_out, n_in), params.flat[b_sl])
            for w_sl, b_sl, n_out, n_in in nn._layer_slices(params.spec)]


def _backward_pass(params, x, out_grads):
    """(out, grad) by the loops loss_grads and training run, on one net:
    nn._forward keeping each layer's input, then nn._backward from out_grads."""
    spec, acts = params.spec, []
    out = nn._forward(spec, params.flat, x, acts)
    delta = nn._scale_by_deriv_(out_grads.copy(), out, spec.output_activation)
    grad = np.empty_like(params.flat)  # every weight and bias slice is written
    nn._backward(spec, params.flat, acts, delta, grad)
    return out, grad


class TestSpecAndCounting:
    def test_param_count_closed_form(self):
        assert nn.param_count(nn.MlpSpec((2, 3, 1))) == 13  # 2*3+3 + 3*1+1

    def test_depth_is_weight_layers(self):
        assert nn.MlpSpec((40, 50, 50, 50, 50, 5)).depth == 5

    @pytest.mark.parametrize("dims", [(0, 3), (3,), (2, 0, 1)])
    def test_bad_dims_rejected(self, dims):
        with pytest.raises(ConfigurationError):
            nn.MlpSpec(dims)

    @pytest.mark.parametrize("dims, index", [(("40", 31, 8), 0), ((40.7, 31, 8), 0),
                                             ((True, 3, 1), 0), ((40, 31.0, 8), 1),
                                             ((np.int64(4), 3), 0)])
    def test_non_int_dims_rejected_not_converted(self, dims, index):
        message = f"layer_dims[{index}] must be an int >= 1, got {dims[index]!r}"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            nn.MlpSpec(dims)

    def test_dims_list_becomes_tuple(self):
        assert nn.MlpSpec([3, 2]) == nn.MlpSpec((3, 2))

    def test_bad_enums_rejected(self):
        with pytest.raises(ConfigurationError):
            nn.MlpSpec((2, 2), hidden_activation="gelu")
        with pytest.raises(ConfigurationError):
            nn.MlpSpec((2, 2), output_activation="relu")
        with pytest.raises(ConfigurationError):
            nn.MlpSpec((2, 2), init_scheme="orthogonal")

    @given(
        dims=st.lists(st.integers(1, 7), min_size=2, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_layer_slices_tile_flat_in_order(self, dims, seed):
        spec = nn.MlpSpec(tuple(dims))
        params = nn.init_mlp(spec, seed)
        slices = nn._layer_slices(spec)
        off = 0
        for (w_sl, b_sl, n_out, n_in), (d_in, d_out) in zip(slices, zip(dims, dims[1:]), strict=True):
            assert (n_in, n_out) == (d_in, d_out)
            assert (w_sl.start, w_sl.stop) == (off, off + n_in * n_out)
            assert (b_sl.start, b_sl.stop) == (w_sl.stop, w_sl.stop + n_out)
            off = b_sl.stop
        assert off == nn.param_count(spec)
        rebuilt = np.concatenate([np.concatenate([w.ravel(), b]) for w, b in _layers(params)])
        assert np.array_equal(rebuilt, params.flat)


class TestInit:
    def test_deterministic_in_seed(self):
        spec = nn.MlpSpec((2, 3, 1))
        a = nn.init_mlp(spec, 7)
        b = nn.init_mlp(spec, 7)
        assert np.array_equal(a.flat, b.flat)
        assert not np.array_equal(a.flat, nn.init_mlp(spec, 8).flat)

    def test_biases_zero(self):
        params = nn.init_mlp(nn.MlpSpec((4, 5, 2)), 0)
        for _, b in _layers(params):
            assert np.all(b == 0.0)

    def test_he_variance_first_layer(self):
        spec = nn.MlpSpec((40, 50, 50, 50, 50, 5), init_scheme="he")
        w0, _ = _layers(nn.init_mlp(spec, 123))[0]
        assert w0.size >= 2000
        assert abs(w0.var() - 2.0 / 40) <= 0.15 * (2.0 / 40)

    def test_xavier_variance_first_layer(self):
        spec = nn.MlpSpec((40, 50, 50, 5), init_scheme="xavier")
        w0, _ = _layers(nn.init_mlp(spec, 9))[0]
        assert abs(w0.var() - 2.0 / 90) <= 0.15 * (2.0 / 90)


class TestForward:
    def test_zero_params_linear_gives_zero(self):
        spec = nn.MlpSpec((3, 4, 2), output_activation="linear")
        params = nn.MlpParams(spec, np.zeros(nn.param_count(spec)))
        assert np.array_equal(nn.forward_batch(params, np.ones((1, 3))), np.zeros((1, 2)))

    def test_zero_params_sigmoid_gives_half(self):
        spec = nn.MlpSpec((3, 4, 2), output_activation="sigmoid")
        params = nn.MlpParams(spec, np.zeros(nn.param_count(spec)))
        assert np.allclose(nn.forward_batch(params, np.ones((1, 3))), 0.5)

    def test_single_layer_identity(self):
        spec = nn.MlpSpec((1, 1), output_activation="linear")
        params = nn.MlpParams(spec, np.array([1.0, 0.0]))
        assert nn.forward_batch(params, np.array([[3.0]]))[0, 0] == 3.0

    def test_dim_mismatch_rejected(self):
        params = nn.init_mlp(nn.MlpSpec((3, 2)), 0)
        with pytest.raises(InputError):
            nn.forward_batch(params, np.ones((1, 4)))

    @pytest.mark.parametrize("act,lo,hi", [("sigmoid", 0.0, 1.0), ("tanh", -1.0, 1.0)])
    def test_bounded_outputs(self, rng, act, lo, hi):
        # saturated gates round to the endpoints in float64, so the sup-norm
        # bound is the closed interval; moderate inputs stay strictly inside
        spec = nn.MlpSpec((3, 6, 4), output_activation=act)
        for _ in range(20):
            params = random_params(spec, rng, scale=5.0)
            out = nn.forward_batch(params, rng.uniform(-10, 10, 3)[None])
            assert np.all(out >= lo) and np.all(out <= hi)
        mild = random_params(spec, rng, scale=0.3)
        out = nn.forward_batch(mild, rng.uniform(-1, 1, 3)[None])
        assert np.all(out > lo) and np.all(out < hi)


class TestBackward:
    def test_zero_out_grad_gives_zero(self, rng):
        spec = nn.MlpSpec((3, 4, 2))
        params = random_params(spec, rng)
        _, g = _backward_pass(params, rng.uniform(-1, 1, 3)[None], np.zeros((1, 2)))
        assert np.all(g == 0.0)

    def test_linear_one_by_one_by_hand(self):
        # forward = w*a + b, so d/dw = a, d/db = 1
        spec = nn.MlpSpec((1, 1), output_activation="linear")
        params = nn.MlpParams(spec, np.array([0.7, 0.2]))
        _, g = _backward_pass(params, np.array([[3.5]]), np.array([[1.0]]))
        assert np.allclose(g, [3.5, 1.0])

    def test_matches_finite_differences(self, rng):
        worst = 0.0
        for _ in range(15):
            n_layers = int(rng.integers(2, 5))
            dims = tuple(int(rng.integers(1, 9)) for _ in range(n_layers))
            spec = nn.MlpSpec(
                dims,
                hidden_activation=str(rng.choice(["relu", "tanh"])),
                output_activation=str(rng.choice(["sigmoid", "tanh", "linear"])),
            )
            params = random_params(spec, rng)
            x = rng.uniform(-1, 1, dims[0])[None]
            out_grads = rng.uniform(-1, 1, dims[-1])[None]
            _, analytic = _backward_pass(params, x, out_grads)
            numeric = gradcheck.fd_gradient(lambda flat: float(np.vdot(
                out_grads, nn.forward_batch(nn.MlpParams(spec, flat), x))), params.flat)
            worst = max(worst, gradcheck.relative_error(analytic, numeric))
        assert worst < 1e-6


ACTIVATION_PAIRS = [
    (hidden, output)
    for hidden in nn.HIDDEN_ACTIVATIONS
    for output in nn.OUTPUT_ACTIVATIONS
]


def _two_pass_backward(params, x, out_grads):
    """Reverse mode written out with pre-activations kept, as a reference."""
    layers = _layers(params)
    zs, acts = [], [x]
    for i, (w, b) in enumerate(layers):
        z = acts[-1] @ w.T + b
        last = i == len(layers) - 1
        name = params.spec.output_activation if last else params.spec.hidden_activation
        zs.append(z)
        acts.append({"relu": lambda v: np.maximum(v, 0.0), "tanh": np.tanh,
                     "sigmoid": lambda v: nn._sigmoid(v.copy()), "linear": lambda v: v}[name](z))

    def deriv(z, a, name):
        return {"relu": lambda: (z > 0).astype(np.float64), "tanh": lambda: 1.0 - a * a,
                "sigmoid": lambda: a * (1.0 - a), "linear": lambda: np.ones_like(z)}[name]()

    grad = np.zeros_like(params.flat)
    slices = list(nn._layer_slices(params.spec))
    delta = out_grads * deriv(zs[-1], acts[-1], params.spec.output_activation)
    for i in range(len(layers) - 1, -1, -1):
        w_sl, b_sl, _, _ = slices[i]
        grad[w_sl] = (delta.T @ acts[i]).ravel()
        grad[b_sl] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ layers[i][0]) * deriv(
                zs[i - 1], acts[i], params.spec.hidden_activation)
    return grad


@pytest.mark.parametrize("hidden,output", ACTIVATION_PAIRS)
class TestForwardBackward:
    @staticmethod
    def _setup(rng, hidden, output):
        spec = nn.MlpSpec((5, 7, 6, 3), hidden_activation=hidden, output_activation=output)
        params = random_params(spec, rng, scale=1.5)
        return params, rng.uniform(-2, 2, (11, 5)), rng.uniform(-1, 1, (11, 3))

    def test_value_is_forward_batch_bit_for_bit(self, rng, hidden, output):
        params, x, g = self._setup(rng, hidden, output)
        out, _ = _backward_pass(params, x, g)
        assert np.array_equal(out, nn.forward_batch(params, x))

    def test_backward_is_two_pass_reference_bit_for_bit(self, rng, hidden, output):
        params, x, g = self._setup(rng, hidden, output)
        _, got = _backward_pass(params, x, g)
        assert np.array_equal(got, _two_pass_backward(params, x, g))

    def test_forward_leaves_input_alone(self, rng, hidden, output):
        params, x, g = self._setup(rng, hidden, output)
        x_before, g_before = x.copy(), g.copy()
        out = nn.forward_batch(params, x)
        _backward_pass(params, x, g)
        assert np.array_equal(x, x_before) and np.array_equal(g, g_before)
        assert not np.shares_memory(out, x)


@pytest.mark.parametrize("hidden,output", ACTIVATION_PAIRS)
@pytest.mark.parametrize("k", [1, 3])
def test_stacked_forward_equals_per_vector_forward_batch(rng, hidden, output, k):
    spec = nn.MlpSpec((5, 7, 6, 3), hidden_activation=hidden, output_activation=output)
    flats = rng.uniform(-1.5, 1.5, (k, nn.param_count(spec)))
    x = rng.uniform(-2, 2, (11, 5))
    x_before = x.copy()
    got = nn._forward(spec, flats, x, None)
    assert got.shape == (k, 11, 3)
    for i in range(k):
        assert np.array_equal(got[i], nn.forward_batch(nn.MlpParams(spec, flats[i]), x))
    assert np.array_equal(x, x_before)


@pytest.mark.parametrize("hidden,output", ACTIVATION_PAIRS)
def test_stacked_backward_slices_equal_view_vjp(rng, hidden, output):
    # the forward and backward loops on lead-stacked flats and inputs, split
    # at layer 1 as the two-tower step splits them
    spec = nn.MlpSpec((5, 7, 6, 3), hidden_activation=hidden, output_activation=output)
    flats = rng.uniform(-1.5, 1.5, (3, nn.param_count(spec)))
    x, g = rng.uniform(-2, 2, (3, 11, 5)), rng.uniform(-1, 1, (3, 11, 3))
    cut = nn._layer_slices(spec, 0, 1)[-1][1].stop
    head_acts, tail_acts = [], []
    mid = nn._forward(spec, flats[:, :cut], x, head_acts, stop=1)
    out = nn._forward(spec, flats[:, cut:], mid, tail_acts, start=1)
    grad = np.empty_like(flats)
    delta = nn._scale_by_deriv_(g.copy(), out, output)
    delta = nn._backward(spec, flats[:, cut:], tail_acts, delta, grad[:, cut:], start=1)
    nn._backward(spec, flats[:, :cut], head_acts, delta, grad[:, :cut])
    for j in range(3):
        want_out, want_grad = view_vjp(nn.MlpParams(spec, flats[j]), x[j], g[j])
        assert bits_equal(out[j], want_out) and bits_equal(grad[j], want_grad)


@pytest.mark.parametrize("hidden,output", ACTIVATION_PAIRS)
@pytest.mark.parametrize("lead", [(), (3,)])
def test_forward_grows_its_callers_scratch_in_place(rng, hidden, output, lead):
    # the middle layer is the widest, so the entries grow within the first pass
    spec = nn.MlpSpec((5, 4, 9, 3), hidden_activation=hidden, output_activation=output)
    flats = rng.uniform(-1.5, 1.5, lead + (nn.param_count(spec),))
    x = rng.uniform(-2, 2, (11, 5))
    want = nn._forward(spec, flats, x, None)
    scratch = [np.empty(0), np.empty(0)]
    got = nn._forward(spec, flats, x, None, scratch=scratch)
    assert bits_equal(got, want)
    entries = list(scratch)
    assert all(e.size == math.prod(lead) * 11 * 9 for e in entries)
    assert any(np.shares_memory(got, e) for e in entries)
    again = nn._forward(spec, flats, x[:7], None, scratch=scratch)  # a smaller pass
    assert bits_equal(again, nn._forward(spec, flats, x[:7], None))
    assert all(e is f for e, f in zip(scratch, entries))


def test_single_layer_linear_forward_is_not_a_view():
    # one linear layer applies no activation, the case most likely to alias
    spec = nn.MlpSpec((2, 2), output_activation="linear")
    params = nn.MlpParams(spec, np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]))
    x = np.array([[1.0, 2.0]])
    out = nn.forward_batch(params, x)
    assert np.array_equal(out, x) and not np.shares_memory(out, x)


def _masked_sigmoid(z):
    """The boolean-mask form of nn._sigmoid, kept as a reference."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_equals_masked_form_bit_for_bit(rng):
    tiny = np.finfo(np.float64).tiny
    special = np.array([0.0, -0.0, 5e-324, -5e-324, tiny / 3, -tiny / 3, tiny, -tiny,
                        709.0, 710.0, -710.0, 745.2, -745.2, 800.0, -800.0, 1e308, -1e308,
                        np.inf, -np.inf, np.nan, -np.nan, 36.7, -36.7, 1e-17, -1e-17])
    z = np.concatenate([special, rng.standard_normal(3975) * 40.0,
                        rng.standard_normal(500) * 1e-310])
    for x in (z, rng.permutation(z).reshape(3, 25, 60), -z):
        buf = x.copy()
        got, want = nn._sigmoid(buf), _masked_sigmoid(x)
        assert got is buf  # written in place
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _where_sigmoid(z):
    """nn._sigmoid with its numerator from np.where, which takes no out
    buffer; the form before the spare buffer, kept as a reference."""
    e = np.negative(z)
    np.exp(np.minimum(z, e, out=e), out=e)
    num = np.where(z < 0, e, 1.0)
    e += 1.0
    return np.divide(num, e, out=z)


# signed zeros, infinities, quiet and signalling NaNs with payloads, subnormals,
# and where exp(-|z|) underflows (|z| > 745.13)
SIGMOID_SPECIAL_BITS = [
    0x0000000000000000, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
    0x7FF8000000000123, 0xFFF8000000000456, 0x7FF8000000000000, 0xFFF8000000000000,
    0x7FF0000000000001, 0xFFF4000000000789, 0x0000000000000001, 0x8000000000000001,
    0x000FFFFFFFFFFFFF, 0x800FFFFFFFFFFFFF,
    *np.array([745.2, -745.2, 800.0, -800.0, 1e-17, -1e-17]).view(np.uint64).tolist(),
]


def _sigmoid_both_ways(z):
    """(nn._sigmoid without a spare, with one, _where_sigmoid) on copies of z."""
    buf, spare_buf, spare = z.copy(), z.copy(), np.empty_like(z)
    got, got_spare = nn._sigmoid(buf), nn._sigmoid(spare_buf, spare)
    assert got is buf and got_spare is spare_buf  # written in place
    return got, got_spare, _where_sigmoid(z.copy())


@given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
@settings(max_examples=200, deadline=None)
def test_sigmoid_equals_where_form_bit_for_bit_property(bits):
    z = np.array(bits + SIGMOID_SPECIAL_BITS, dtype=np.uint64).view(np.float64)
    got, got_spare, want = _sigmoid_both_ways(z)
    assert bits_equal(got, want) and bits_equal(got_spare, want)


def test_sigmoid_equals_where_form_on_a_hundred_thousand_values(rng):
    z = np.concatenate([rng.standard_normal(50_000) * 40.0,
                        rng.integers(0, 2**64, 50_000, dtype=np.uint64).view(np.float64)])
    for x in (z, z.reshape(40, 50, 50)):
        got, got_spare, want = _sigmoid_both_ways(x)
        assert bits_equal(got, want) and bits_equal(got_spare, want)


# criterion 11's nets (target 8000 parameters, depth 5) at each of its q
CRITERION_11_SPECS = [
    nn.MlpSpec((n_in,) + (size_architecture(8000, q),) * 4 + (q,),
               hidden_activation="relu", output_activation="tanh")
    for q in (4, 8, 16) for n_in in (40, 2)
]
LAYOUT_CAUSE = ("this BLAS gives different bits for a C-ordered weight copy than for "
                "the transposed view; nn._forward's layout moves the golden hashes too")


@pytest.mark.parametrize("spec", CRITERION_11_SPECS, ids=lambda s: str(s.layer_dims))
@pytest.mark.parametrize("rows", [256, 128, 8092])
def test_c_ordered_layout_equals_transposed_view_bit_for_bit(rng, spec, rows):
    # 256 is a training batch, 128 the epoch tail at n = 16000, 8092 a risk pass
    params = nn.init_mlp(spec, rng.integers(2**31))
    params.flat[:] += rng.normal(0.0, 0.1, params.flat.size)  # nonzero biases too
    x = rng.uniform(-1, 1, (rows, spec.in_dim))
    g = rng.normal(0.0, 1.0, (rows, spec.out_dim))
    want_out, want_grad = view_vjp(params, x, g)
    out, grad = _backward_pass(params, x, g)
    assert bits_equal(nn.forward_batch(params, x), want_out), LAYOUT_CAUSE
    assert bits_equal(out, want_out), LAYOUT_CAUSE
    assert bits_equal(grad, want_grad), LAYOUT_CAUSE
    for lead in ((3,), (2, 4)):
        flats = params.flat + rng.normal(0.0, 0.05, lead + params.flat.shape)
        want = view_forward(spec, flats, x, [])
        assert bits_equal(nn._forward(spec, flats, x, None), want), LAYOUT_CAUSE


class TestAdam:
    def test_zero_grads_are_a_fixed_point(self):
        spec = nn.MlpSpec((2, 2))
        params = nn.init_mlp(spec, 3)
        state = nn.adam_init(params.flat.size)
        flat = params.flat
        for _ in range(5):
            state, flat = nn._adam_update(state, flat, np.zeros(flat.size))
        assert np.array_equal(flat, params.flat)

    def test_first_step_collapses_to_lr_sign(self):
        _, flat = nn._adam_update(nn.adam_init(2), np.zeros(2), np.array([2.0, 0.0]))
        assert flat[0] == pytest.approx(-0.001 * 2.0 / (2.0 + 1e-8), abs=1e-15)
        assert flat[1] == 0.0

    def test_two_step_trajectory_matches_hand_recurrence(self):
        lr, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8

        def hand(theta, g1, g2):
            m = (1 - b1) * g1
            v = (1 - b2) * g1 * g1
            theta = theta - lr * (m / (1 - b1)) / (math.sqrt(v / (1 - b2)) + eps)
            m = b1 * m + (1 - b1) * g2
            v = b2 * v + (1 - b2) * g2 * g2
            theta = theta - lr * (m / (1 - b1**2)) / (math.sqrt(v / (1 - b2**2)) + eps)
            return theta

        state = nn.adam_init(2)
        state, flat = nn._adam_update(state, np.array([0.5, -0.3]), np.array([1.0, 0.3]))
        state, flat = nn._adam_update(state, flat, np.array([1.0, -0.2]))
        assert flat[0] == pytest.approx(hand(0.5, 1.0, 1.0), abs=1e-12)
        assert flat[1] == pytest.approx(hand(-0.3, 0.3, -0.2), abs=1e-12)

    def test_state_invariants(self):
        with pytest.raises(InputError):
            nn.AdamState(m=np.zeros(2), v=np.zeros(3))
        for t in (-1, 2.5, True, np.int64(2), "3"):
            with pytest.raises(InputError, match="step counter t must be an int >= 0"):
                nn.AdamState(m=np.zeros(2), v=np.zeros(2), t=t)
        for lr in (-1.0, 0.0, math.nan, math.inf, "0.01", True):
            with pytest.raises(InputError, match=f"lr must be a finite number > 0, got {lr!r}"):
                nn.adam_init(2, lr=lr)

    @pytest.mark.parametrize("name, value, rule", [
        ("beta1", 2.0, "a number in [0, 1)"), ("beta1", "0.9", "a number in [0, 1)"),
        ("beta1", 1.0, "a number in [0, 1)"), ("beta1", False, "a number in [0, 1)"),
        ("beta2", math.nan, "a number in [0, 1)"), ("beta2", -0.1, "a number in [0, 1)"),
        ("eps", -1.0, "a finite number > 0"), ("eps", 0.0, "a finite number > 0"),
        ("eps", math.inf, "a finite number > 0"), ("eps", None, "a finite number > 0"),
    ])
    def test_hyperparameters_checked(self, name, value, rule):
        with pytest.raises(InputError, match=re.escape(f"{name} must be {rule}, got {value!r}")):
            nn.AdamState(m=np.zeros(2), v=np.zeros(2), **{name: value})

    def test_hyperparameter_edges_accepted(self):
        state = nn.AdamState(m=np.zeros(2), v=np.zeros(2), lr=1, beta1=0, beta2=0.0, eps=5e-324)
        assert (state.lr, state.beta1, state.beta2, state.eps) == (1, 0, 0.0, 5e-324)


class TestNorms:
    def test_zero_params_zero_norm(self):
        spec = nn.MlpSpec((2, 3, 1))
        assert nn.param_l2_norm(nn.MlpParams(spec, np.zeros(13))) == 0.0

    def test_three_four_five(self):
        spec = nn.MlpSpec((1, 1))
        assert nn.param_l2_norm(nn.MlpParams(spec, np.array([3.0, 4.0]))) == 5.0

    def test_projection_is_identity_inside_ball(self):
        spec = nn.MlpSpec((1, 1))
        params = nn.MlpParams(spec, np.array([3.0, 4.0]))
        assert np.array_equal(nn.project_to_ball(params, 6.0).flat, params.flat)

    def test_projection_rescales_onto_sphere(self):
        spec = nn.MlpSpec((1, 1))
        params = nn.MlpParams(spec, np.array([3.0, 4.0]))
        projected = nn.project_to_ball(params, 1.0)
        assert nn.param_l2_norm(projected) == pytest.approx(1.0)
        assert np.allclose(projected.flat, [0.6, 0.8])

    def test_projection_rejects_bad_radius(self):
        params = nn.MlpParams(nn.MlpSpec((1, 1)), np.array([1.0, 1.0]))
        for radius in (0.0, -1.0, math.nan):
            message = f"projection radius must be a number > 0, got {radius}"
            with pytest.raises(InputError, match=message):
                nn.project_to_ball(params, radius)
