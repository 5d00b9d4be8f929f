from pathlib import Path

import numpy as np
import pytest

from donlab import nn
from donlab.deeponet import Dataset, DeepONetModel


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


class _FailingFile:
    """Passes writes to the real file until the shared budget runs out, then
    raises like a full disk."""

    def __init__(self, inner, budget):
        self.inner, self.budget = inner, budget

    def write(self, data):
        if self.budget[0] == 0:
            raise OSError("disk full")
        self.budget[0] -= 1
        return self.inner.write(data)

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.inner.close()


@pytest.fixture
def fail_writes_after(monkeypatch):
    """Call with n: from then on a file opened for writing through
    ``Path.open`` (which ``Path.write_text`` uses too) raises on ``write`` once
    n more ``write`` calls, counted across all such files, have been made.
    ``csv.writer`` makes one call per row."""
    real = Path.open

    def install(writes):
        budget = [writes]

        def failing_open(self, mode="r", *args, **kwargs):
            fh = real(self, mode, *args, **kwargs)
            return _FailingFile(fh, budget) if set(mode) & set("wax+") else fh

        monkeypatch.setattr(Path, "open", failing_open)

    return install


def random_params(spec: nn.MlpSpec, rng, scale: float = 1.0) -> nn.MlpParams:
    """Continuous random parameters (nonzero biases), so relu nets are
    differentiable at the sampled point with probability one."""
    return nn.MlpParams(spec, rng.uniform(-scale, scale, nn.param_count(spec)))


def random_model(rng, m=3, d2=2, q=2, width=4,
                 hidden="tanh", output="tanh") -> DeepONetModel:
    bspec = nn.MlpSpec((m, width, q), hidden_activation=hidden, output_activation=output)
    tspec = nn.MlpSpec((d2, width, q), hidden_activation=hidden, output_activation=output)
    return DeepONetModel(random_params(bspec, rng), random_params(tspec, rng))


def random_dataset(rng, n=8, m=3, d2=2) -> Dataset:
    y = rng.uniform(-1.0, 1.0, n)
    return Dataset(
        sensors=rng.uniform(-1.0, 1.0, (n, m)),
        source=np.arange(n),
        p=rng.uniform(0.0, 1.0, (n, d2)),
        y=y,
        B=float(np.max(np.abs(y))) if n else 0.0,
        sensor_grid=np.linspace(0.0, 1.0, m),
    )


def view_forward(spec: nn.MlpSpec, flat, x, acts: list):
    """nn._forward with each layer on the transposed view of its weight
    block: the reference that the C-ordered layout must match bit for bit."""
    lead = flat.shape[:-1]
    a = x
    for i, (w_sl, b_sl, n_out, n_in) in enumerate(nn._layer_slices(spec)):
        acts.append(a)
        z = a @ flat[..., w_sl].reshape(lead + (n_out, n_in)).swapaxes(-1, -2)
        z += flat[..., b_sl][..., None, :]
        name = spec.output_activation if i == spec.depth - 1 else spec.hidden_activation
        a = np.maximum(z, 0.0) if name == "relu" else nn._activate_(z, name)
    return a


def view_vjp(params: nn.MlpParams, x, g):
    """(out, grad): view_forward, then reverse mode from the output gradient g
    with row sums by ndarray.sum and the relu mask by *=."""
    spec, acts = params.spec, []
    out = view_forward(spec, params.flat, x, acts)

    def scale(delta, a, name):
        if name == "relu":
            delta *= a > 0
        elif name == "tanh":
            delta *= 1.0 - a * a
        elif name == "sigmoid":
            delta *= a * (1.0 - a)
        return delta

    delta = scale(g.copy(), out, spec.output_activation)
    grad = np.empty_like(params.flat)
    slices = nn._layer_slices(spec)
    for i in range(len(slices) - 1, -1, -1):
        w_sl, b_sl, n_out, n_in = slices[i]
        np.matmul(delta.T, acts[i], out=grad[w_sl].reshape(n_out, n_in))
        grad[b_sl] = delta.sum(axis=0)
        if i > 0:
            w = params.flat[w_sl].reshape(n_out, n_in)
            delta = scale(delta @ w, acts[i], spec.hidden_activation)
    return out, grad


def per_net_loss_grads(model: DeepONetModel, s, p, y):
    """loss_grads as one view_vjp pass per net: the reference that the
    two-tower training step must equal bit for bit."""
    b_out = view_forward(model.branch.spec, model.branch.flat, s, [])
    t_out = view_forward(model.trunk.spec, model.trunk.flat, p, [])
    r = np.einsum("ij,ij->i", b_out, t_out) - y
    scale = (2.0 / y.shape[0] * r)[:, None]
    return (view_vjp(model.branch, s, scale * t_out)[1],
            view_vjp(model.trunk, p, scale * b_out)[1], float(np.mean(r * r)))


def bits_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))
