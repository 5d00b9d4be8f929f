"""Central finite-difference oracles for gradient verification.

These only ever call forward evaluations, so they are independent of the
reverse-mode code paths they are used to check.
"""

from __future__ import annotations

import numpy as np

from .deeponet import Dataset, DeepONetModel, _RiskEvaluator, _stack_size

DEFAULT_STEP = 1e-6


def fd_gradient(fun, x0: np.ndarray, step: float = DEFAULT_STEP) -> np.ndarray:
    """Central finite differences of a scalar function of a flat vector."""
    x0 = np.asarray(x0, dtype=np.float64)
    g = np.zeros_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += step
        xm[i] -= step
        g[i] = (fun(xp) - fun(xm)) / (2.0 * step)
    return g


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Sup-norm error normalized by the sup norm of the oracle gradient."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    scale = max(float(np.max(np.abs(numeric))), 1e-12)
    return float(np.max(np.abs(analytic - numeric))) / scale


def fd_loss_grads(model: DeepONetModel, batch: Dataset,
                  step: float = DEFAULT_STEP) -> tuple[np.ndarray, np.ndarray]:
    """FD gradients of the batch empirical risk w.r.t. both flat vectors.

    The +step and -step probes of a net's coordinates are rows of one
    stacked flat array, evaluated in one pass per chunk; the result equals
    fd_gradient over empirical_risk bit for bit.
    """
    coords = max(1, _stack_size(model, batch.n) // 2)

    def fd(flat, risks):
        g = np.empty_like(flat)
        for start in range(0, flat.size, coords):
            idx = np.arange(start, min(start + coords, flat.size))
            probes = np.tile(flat, (2, idx.size, 1))
            rows = np.arange(idx.size)
            probes[0, rows, idx] += step
            probes[1, rows, idx] -= step
            r = risks(probes)
            g[idx] = (r[0] - r[1]) / (2.0 * step)
        return g

    risks = _RiskEvaluator(model, batch).risks
    branch, trunk = model.branch.flat, model.trunk.flat
    return (
        fd(branch, lambda probes: risks(probes, trunk)),
        fd(trunk, lambda probes: risks(branch, probes)),
    )
