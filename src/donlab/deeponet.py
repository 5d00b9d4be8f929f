"""Branch/trunk operator model: h(s, p) = <Branch(s), Trunk(p)>.

Holds the model container, its empirical risk and exact gradients, the
weight-Lipschitz machinery (Monte Carlo estimate and analytic bound), and
checkpoint I/O.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import nn
from .atomic import atomic_write_text
from .errors import InputError

BOUNDED_OUTPUTS = ("sigmoid", "tanh")


@dataclass
class DeepONetModel:
    """A branch net and a trunk net sharing output dimension q."""

    branch: nn.MlpParams
    trunk: nn.MlpParams

    def __post_init__(self):
        if self.branch.spec.out_dim != self.trunk.spec.out_dim:
            raise InputError(
                f"branch q={self.branch.spec.out_dim} != trunk q={self.trunk.spec.out_dim}"
            )

    @property
    def q(self) -> int:
        return self.branch.spec.out_dim

    @property
    def c_bound(self) -> float:
        """Sup-norm bound on branch/trunk outputs: 1 for sigmoid/tanh gates."""
        if (
            self.branch.spec.output_activation in BOUNDED_OUTPUTS
            and self.trunk.spec.output_activation in BOUNDED_OUTPUTS
        ):
            return 1.0
        return math.inf

    def copy(self) -> "DeepONetModel":
        return DeepONetModel(self.branch.copy(), self.trunk.copy())


def init_model(m: int, d2: int, q: int, width: int, depth: int, seed,
               hidden_activation: str, output_activation: str,
               init_scheme: str) -> DeepONetModel:
    """A fresh branch net on m inputs and trunk net on d2 inputs.

    Each has depth weight layers: depth - 1 hidden layers of the given width,
    then q outputs. The branch is drawn with seed [seed, 1] and the trunk
    with [seed, 2].
    """
    common = dict(hidden_activation=hidden_activation,
                  output_activation=output_activation, init_scheme=init_scheme)
    hidden = [width] * (depth - 1)
    return DeepONetModel(
        branch=nn.init_mlp(nn.MlpSpec(tuple([m] + hidden + [q]), **common), seed=[seed, 1]),
        trunk=nn.init_mlp(nn.MlpSpec(tuple([d2] + hidden + [q]), **common), seed=[seed, 2]),
    )


@dataclass
class Dataset:
    """Training triples (s_i, p_i, y_i) stored as arrays, plus metadata.

    s has shape (n, m), p has shape (n, d2), y has shape (n,). B bounds the
    labels: |y_i| <= B, measured as max|y| unless the generator overrode it.
    """

    s: np.ndarray
    p: np.ndarray
    y: np.ndarray
    B: float
    sensor_grid: np.ndarray
    noise_std: float = 0.0
    seed: int | None = None
    generator: dict = field(default_factory=dict)

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=np.float64)
        self.p = np.asarray(self.p, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        self.sensor_grid = np.asarray(self.sensor_grid, dtype=np.float64)
        if self.s.ndim != 2 or self.p.ndim != 2 or self.y.ndim != 1:
            raise InputError("s and p must be 2-d, y 1-d")
        if not (self.s.shape[0] == self.p.shape[0] == self.y.shape[0]):
            raise InputError("s, p, y row counts disagree")
        if self.sensor_grid.shape[0] != self.s.shape[1]:
            raise InputError("sensor grid length != sensor count m")
        if self.noise_std < 0:
            raise InputError("noise_std must be >= 0")
        if self.y.size and np.max(np.abs(self.y)) > self.B:
            raise InputError("label bound B violated: max|y| > B")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def m(self) -> int:
        return self.s.shape[1]

    @property
    def d2(self) -> int:
        return self.p.shape[1]

    def take(self, indices) -> "Dataset":
        """Row subset sharing the metadata (B stays the original bound)."""
        return Dataset(
            s=self.s[indices],
            p=self.p[indices],
            y=self.y[indices],
            B=self.B,
            sensor_grid=self.sensor_grid,
            noise_std=self.noise_std,
            seed=self.seed,
            generator=self.generator,
        )


def don_forward_batch(model: DeepONetModel, s: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Vector of model outputs for row-aligned batches s (n, m), p (n, d2)."""
    b = nn.forward_batch(model.branch, s)
    t = nn.forward_batch(model.trunk, p)
    return np.einsum("ij,ij->i", b, t)


def empirical_risk(model: DeepONetModel, dataset: Dataset) -> float:
    """Mean squared residual (1/n) sum_i (y_i - h(s_i, p_i))^2."""
    return float(_RiskEvaluator(model, dataset).risks(model.branch.flat, model.trunk.flat))


def _distinct_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bitwise-distinct rows of a 2-d float64 array.

    Returns (first, inverse): first holds the index of each distinct row's
    first occurrence, in increasing order, and inverse maps every row to its
    entry of first, so x[first][inverse] equals x bit for bit. Rows compare
    by their bits: 0.0 and -0.0 differ, and NaNs match only with the same
    payload. Runs of equal consecutive rows are collapsed first, and only
    the run heads are sorted.
    """
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    head = np.ones(bits.shape[0], dtype=bool)
    head[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    heads = np.flatnonzero(head)
    run = np.cumsum(head) - 1  # each row's run, as an index into heads
    if heads.size < 2:
        return heads, run
    keys = bits[heads]
    order = np.lexsort(keys.T[::-1])  # stable: equal heads keep their order
    ordered = keys[order]
    starts = np.ones(heads.size, dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    rep = np.empty(heads.size, dtype=np.intp)  # the first head equal to each head
    rep[order] = order[starts][np.cumsum(starts) - 1]
    is_first = rep == np.arange(heads.size)
    rank = np.cumsum(is_first) - 1  # a first head's place among the firsts
    return heads[is_first], rank[rep][run]


# Every stacked or Monte Carlo pass of donlab verify works on at most
# _WORKING_SET floats at a time (512 KiB, which fits in L2); a stacked risk
# pass also takes _STACK_VECTORS parameter vectors at most.
_STACK_VECTORS = 1024
_WORKING_SET = 1 << 16


def _stack_size(model: DeepONetModel, rows: int) -> int:
    """How many parameter vectors of model one stacked pass on rows takes.

    Each vector counts rows * widest floats of layer buffer (the widest layer
    of either net) plus P floats for itself (the larger parameter count), and
    k vectors stay within _WORKING_SET unless k is 1. The buffer term also
    covers the outputs that _RiskEvaluator gathers back to all rows: at most
    k * rows * q floats, and q is a layer width.
    """
    widest = max(model.branch.spec.layer_dims + model.trunk.spec.layer_dims)
    vector = max(model.branch.flat.size, model.trunk.flat.size)
    return max(1, min(_STACK_VECTORS, _WORKING_SET // (rows * widest + vector)))


class _RiskEvaluator:
    """Empirical risks of many (branch, trunk) flat pairs on one dataset.

    The bitwise-distinct rows of dataset.s and dataset.p are found once;
    each pass runs the branch only on distinct s rows and the trunk only on
    distinct p rows, and gathers their outputs back to every row before the
    residuals and their mean are taken.
    """

    def __init__(self, model: DeepONetModel, dataset: Dataset):
        if dataset.n == 0:
            raise InputError("empirical risk of an empty dataset is undefined")
        self.bspec, self.tspec = model.branch.spec, model.trunk.spec
        self.s, self.s_rows = self._distinct(nn._check_input(self.bspec, dataset.s))
        self.p, self.p_rows = self._distinct(nn._check_input(self.tspec, dataset.p))
        self.y = dataset.y

    @staticmethod
    def _distinct(x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """(distinct rows, their gather index), or (x, None) if all differ."""
        first, inverse = _distinct_rows(x)
        if first.size == x.shape[0]:
            return x, None
        return x[first], inverse

    def risks(self, branch_flats: np.ndarray, trunk_flats: np.ndarray) -> np.ndarray:
        """Risk of each (branch, trunk) pair of flats.

        branch_flats and trunk_flats have shape lead + (P,) and broadcast
        against each other over lead; entry k of the result is the risk of
        the pair (branch_flats[k], trunk_flats[k]), bit-identical to
        :func:`empirical_risk` of that pair. Unstacked flats give a 0-d array.
        """
        # np.take keeps the gathered outputs in C order, as the per-row pass
        # had them; a strided layout would make the mean sum in another order
        b = nn._forward(self.bspec, branch_flats, self.s, None)
        if self.s_rows is not None:
            b = np.take(b, self.s_rows, axis=-2)
        t = nn._forward(self.tspec, trunk_flats, self.p, None)
        if self.p_rows is not None:
            t = np.take(t, self.p_rows, axis=-2)
        r = self.y - np.einsum("...ij,...ij->...i", b, t)
        return np.mean(r * r, axis=-1)


def loss_grads(
    model: DeepONetModel, batch: Dataset
) -> tuple[np.ndarray, np.ndarray, float]:
    """Exact gradient of the batch empirical risk w.r.t. both flat vectors."""
    if batch.n == 0:
        raise InputError("cannot take gradients on an empty batch")
    return loss_grads_arrays(model, batch.s, batch.p, batch.y)


def loss_grads_arrays(
    model: DeepONetModel, s: np.ndarray, p: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """:func:`loss_grads` on row-aligned arrays s (n, m), p (n, d2), y (n,).

    One forward pass per net. Per sample, the residual r_i = h_i - y_i feeds
    (2/n) r_i * Trunk(p_i) into the branch output and (2/n) r_i * Branch(s_i)
    into the trunk output.
    """
    b_out, branch_vjp = nn.value_and_vjp(model.branch, s)
    t_out, trunk_vjp = nn.value_and_vjp(model.trunk, p)
    h = np.einsum("ij,ij->i", b_out, t_out)
    r = h - y
    loss = float(np.mean(r * r))
    scale = 2.0 / y.shape[0]
    branch_grads = branch_vjp((scale * r)[:, None] * t_out)
    trunk_grads = trunk_vjp((scale * r)[:, None] * b_out)
    return branch_grads, trunk_grads, loss


def _uniform_in_ball(normals: np.random.Generator, radii: np.random.Generator,
                     count: int, dim: int, radius: float) -> np.ndarray:
    """count uniform draws from the Euclidean ball of the given radius, as rows.

    normals and radii are each read row after row, so one call equals count
    one-row calls; a row of all-zero normals stays zero and takes its radius.
    """
    z = normals.standard_normal((count, dim))
    norms = np.sqrt(np.einsum("ij,ij->i", z, z))
    norms[norms == 0.0] = np.inf  # a zero row scales by 0 and stays zero
    z *= (radius * radii.random(count) ** (1.0 / dim) / norms)[:, None]
    return z


def estimate_J(
    spec: nn.MlpSpec,
    weight_bound: float,
    input_domain: tuple[np.ndarray, np.ndarray],
    pairs: int,
    seed,
    inputs_per_pair: int = 8,
) -> float:
    """Monte Carlo lower estimate of the weight-Lipschitz constant.

    Samples weight pairs uniformly in the 2-norm ball of radius
    ``weight_bound`` and inputs uniformly in the box ``input_domain``
    (lo, hi vectors), pair after pair from three streams spawned from seed;
    returns the max of ||f_w1(x) - f_w2(x)||_inf / ||w1 - w2||. This is a
    lower bound on the true constant.
    """
    if pairs < 1:
        raise InputError("need at least one weight pair")
    if inputs_per_pair < 1:
        raise InputError(f"inputs_per_pair must be >= 1, got {inputs_per_pair}")
    if not 0.0 <= weight_bound < math.inf:
        raise InputError(f"weight_bound must be >= 0 and finite, got {weight_bound}")
    lo = np.asarray(input_domain[0], dtype=np.float64)
    hi = np.asarray(input_domain[1], dtype=np.float64)
    if lo.shape != (spec.in_dim,) or hi.shape != (spec.in_dim,):
        raise InputError("input box must be (lo, hi) vectors of the input dim")
    normals, radii, inputs = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(3))
    dim = nn.param_count(spec)
    best = 0.0
    for _ in range(pairs):
        w1, w2 = _uniform_in_ball(normals, radii, 2, dim, weight_bound)
        dw = np.linalg.norm(w1 - w2)
        xs = inputs.uniform(lo, hi, size=(inputs_per_pair, spec.in_dim))
        if dw == 0.0:
            continue  # degenerate pair
        f1 = nn.forward_batch(nn.MlpParams(spec, w1), xs)
        f2 = nn.forward_batch(nn.MlpParams(spec, w2), xs)
        ratio = float(np.max(np.abs(f1 - f2))) / dw
        best = max(best, ratio)
    return best


def j_upper_bound(W: float, p: int, Q: int, depth: int, R: float) -> float:
    """Analytic weight-Lipschitz bound (W sqrt(pQ))^(2 depth) * Q * R * sqrt(p).

    Evaluated in log space; returns +inf when the value overflows float64.
    """
    if not W >= 1.0:
        raise InputError(f"the analytic bound requires W >= 1, got {W}")
    if not (p >= 1 and Q >= 1 and depth >= 1 and R > 0):
        raise InputError("p, Q, depth must be >= 1 and R > 0")
    log_val = (
        2.0 * depth * (math.log(W) + 0.5 * math.log(p * Q))
        + math.log(Q)
        + math.log(R)
        + 0.5 * math.log(p)
    )
    if log_val > 709.0:  # exp overflow threshold for float64
        return math.inf
    return math.exp(log_val)


# ---------------------------------------------------------------------------
# Checkpoint I/O
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "donlab-checkpoint-v1"


def save_checkpoint(
    model: DeepONetModel,
    path,
    seeds: dict | None = None,
    adam_branch: nn.AdamState | None = None,
    adam_trunk: nn.AdamState | None = None,
    epoch: int = 0,
) -> None:
    """Write the model (and optionally optimizer state) as round-trip-exact JSON.

    The JSON goes to a temporary file beside ``path`` that then replaces it,
    so an interrupted save leaves the previous checkpoint in place.
    """
    payload = {
        "format": CHECKPOINT_FORMAT,
        "q": model.q,
        "seeds": seeds or {},
        "epoch": epoch,
        "branch": {"spec": asdict(model.branch.spec), "flat": model.branch.flat.tolist()},
        "trunk": {"spec": asdict(model.trunk.spec), "flat": model.trunk.flat.tolist()},
        "adam_branch": adam_branch.to_dict() if adam_branch is not None else None,
        "adam_trunk": adam_trunk.to_dict() if adam_trunk is not None else None,
    }
    atomic_write_text(path, json.dumps(payload))


def _checkpoint_part(payload: dict, key: str, path):
    """The net (branch, trunk) or Adam state (adam_branch, adam_trunk) under key.

    An InputError names path and key if the stored object does not build.
    """
    part = payload[key]
    try:
        if key.startswith("adam_"):
            return nn.AdamState(**part)
        return nn.MlpParams(nn.MlpSpec(**part["spec"]), part["flat"])
    except KeyError as exc:
        raise InputError(f"checkpoint {path}: {key} has no {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"checkpoint {path}: malformed {key}: {exc}") from exc


def load_checkpoint(path):
    """Read a checkpoint; returns (model, adam_branch, adam_trunk, epoch, seeds)."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if (not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT
            or "branch" not in payload or "trunk" not in payload):
        raise InputError(f"{path} is not a donlab checkpoint")
    model = DeepONetModel(_checkpoint_part(payload, "branch", path),
                          _checkpoint_part(payload, "trunk", path))
    ab, at = (_checkpoint_part(payload, key, path) if payload.get(key) else None
              for key in ("adam_branch", "adam_trunk"))
    epoch = payload.get("epoch", 0)
    if type(epoch) is not int or epoch < 0:
        raise InputError(f"checkpoint {path}: epoch must be an int >= 0, got {epoch!r}")
    return model, ab, at, epoch, payload.get("seeds", {})
