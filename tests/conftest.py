import csv

import numpy as np
import pytest

from donlab import nn
from donlab.deeponet import Dataset, DeepONetModel


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


class _FailingCsvWriter:
    """Passes rows to the real writer until the shared budget runs out, then
    raises like a full disk."""

    def __init__(self, inner, budget):
        self.inner, self.budget = inner, budget

    def writerow(self, row):
        if self.budget[0] == 0:
            raise OSError("disk full")
        self.budget[0] -= 1
        return self.inner.writerow(row)


@pytest.fixture
def fail_csv_after(monkeypatch):
    """Call with n: from then on csv writing raises once n more rows, counted
    across all writers, have been written."""
    real = csv.writer

    def install(rows):
        budget = [rows]
        monkeypatch.setattr(
            csv, "writer", lambda fh, *a, **kw: _FailingCsvWriter(real(fh, *a, **kw), budget)
        )

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
