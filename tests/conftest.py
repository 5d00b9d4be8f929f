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
        s=rng.uniform(-1.0, 1.0, (n, m)),
        p=rng.uniform(0.0, 1.0, (n, d2)),
        y=y,
        B=float(np.max(np.abs(y))) if n else 0.0,
        sensor_grid=np.linspace(0.0, 1.0, m),
    )


def per_net_loss_grads(model: DeepONetModel, s, p, y):
    """loss_grads_arrays as one value_and_vjp pass per net: the reference that
    the two-tower training step must equal bit for bit."""
    b_out, branch_vjp = nn.value_and_vjp(model.branch, s)
    t_out, trunk_vjp = nn.value_and_vjp(model.trunk, p)
    r = np.einsum("ij,ij->i", b_out, t_out) - y
    scale = 2.0 / y.shape[0]
    return (branch_vjp((scale * r)[:, None] * t_out), trunk_vjp((scale * r)[:, None] * b_out),
            float(np.mean(r * r)))


def bits_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))
