"""Branch/trunk operator model: h(s, p) = <Branch(s), Trunk(p)>.

Holds the model container, its dataset, its empirical risk and exact
gradients, the ball sampler and the analytic weight-Lipschitz bound that
the perturbation check uses, and checkpoint I/O.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import nn
from .atomic import atomic_write_text
from .errors import ConfigurationError, InputError, check_number, read_json_object

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


def init_model(m: int, d2: int, q: int, width: int, depth: int, seed,
               hidden_activation: str, output_activation: str,
               init_scheme: str) -> DeepONetModel:
    """A fresh branch net on m inputs and trunk net on d2 inputs.

    Each has depth weight layers: depth - 1 hidden layers of the given width,
    then q outputs. The branch is drawn with seed [seed, 1] and the trunk
    with [seed, 2].
    """
    check_number("depth", depth, ConfigurationError, count=True, at_least=1)
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

    Each source function's sensor values are stored once: sensors has shape
    (k, m) and source has shape (n,), the sensors row of each triple, so
    s_i = sensors[source[i]]. Construction leaves sensors holding each
    bitwise-distinct row that some triple uses exactly once, in order of
    first use, and relabels source to match; input already in that form is
    kept as it is, not copied. The labels are relabelled in O(n + k), with
    no sort of the n labels, so a shuffled source costs what a sorted one
    does; only the used rows are sorted, by their bits. p has shape (n, d2)
    and y shape (n,); sensors and p have a column or more. B bounds the
    labels: |y_i| <= B, measured as max|y| unless the generator overrode it.
    seed is the generator's seed (None, an int >= 0 or a list of them) and
    generator its settings.
    """

    sensors: np.ndarray
    source: np.ndarray
    p: np.ndarray
    y: np.ndarray
    B: float
    sensor_grid: np.ndarray
    noise_std: float = 0.0
    seed: int | list[int] | None = None
    generator: dict = field(default_factory=dict)

    def __post_init__(self):
        self.sensors = np.asarray(self.sensors, dtype=np.float64)
        self.source = np.asarray(self.source)
        self.p = np.asarray(self.p, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        self.sensor_grid = np.asarray(self.sensor_grid, dtype=np.float64)
        if (self.sensors.ndim != 2 or self.p.ndim != 2 or self.y.ndim != 1
                or 0 in (self.sensors.shape[1], self.p.shape[1])):
            raise InputError("sensors and p must be 2-d with a column or more, y 1-d")
        k = self.sensors.shape[0]
        if (self.source.ndim != 1 or not np.issubdtype(self.source.dtype, np.integer)
                or self.source.size and not 0 <= self.source.min() <= self.source.max() < k):
            raise InputError(f"source must be a 1-d int array of indices into the {k} sensors "
                             f"rows, got {self.source.dtype} values of shape {self.source.shape}")
        self.source = self.source.astype(np.intp, copy=False)
        if not (self.source.shape[0] == self.p.shape[0] == self.y.shape[0]):
            raise InputError("source, p, y row counts disagree")
        if self.sensor_grid.shape[0] != self.sensors.shape[1]:
            raise InputError("sensor grid length != sensor count m")
        check_number("noise_std", self.noise_std, InputError, finite=True, at_least=0)
        check_number("B", self.B, InputError, finite=True, at_least=0)
        if self.y.size and not np.max(np.abs(self.y)) <= self.B:
            raise InputError("label bound B violated: max|y| > B")
        if self.seed is not None:
            for entry in self.seed if isinstance(self.seed, list) else [self.seed]:
                check_number("seed", entry, InputError, count=True, at_least=0)
        if not isinstance(self.generator, dict):
            raise InputError(f"generator must be a dict, got {self.generator!r}")
        # the layout: each label's first use (n if unused), the used labels in
        # order of first use, then the bitwise-distinct rows among them
        n = self.source.shape[0]
        first = np.full(k, n)
        np.minimum.at(first, self.source, np.arange(n))
        used = np.argsort(first)[:np.count_nonzero(first < n)]
        rows, relabel = _distinct_rows(self.sensors[used])
        keep = used[rows]
        if keep.size != k or np.any(keep != np.arange(k)):
            table = np.empty(k, dtype=np.intp)  # each used label's new label
            table[used] = relabel
            self.sensors, self.source = self.sensors[keep], table[self.source]

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def m(self) -> int:
        return self.sensors.shape[1]

    @property
    def d2(self) -> int:
        return self.p.shape[1]

    @property
    def s(self) -> np.ndarray:
        """The (n, m) branch inputs, gathered from sensors; a read-only copy."""
        s = self.sensors.take(self.source, axis=0)
        s.flags.writeable = False
        return s

    def take(self, indices) -> "Dataset":
        """Row subset with the same metadata (B stays the original bound).

        It shares sensors when the subset uses every row in order, else keeps
        only the rows it uses.
        """
        return replace(self, source=self.source[indices], p=self.p[indices], y=self.y[indices])


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
    payload.
    """
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    rows = bits.shape[0]
    order = np.lexsort(bits.T[::-1])  # stable: equal rows keep their order
    ordered = bits[order]
    starts = np.ones(rows, dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    rep = np.empty(rows, dtype=np.intp)  # the first row equal to each row
    rep[order] = order[starts][np.cumsum(starts) - 1]
    is_first = rep == np.arange(rows)
    rank = np.cumsum(is_first) - 1  # a first row's place among the firsts
    return np.flatnonzero(is_first), rank[rep]


# Every stacked or Monte Carlo pass of donlab verify works on at most
# _WORKING_SET floats at a time (512 KiB, which fits in L2). A _RiskEvaluator
# writes the layers of every pass into the same buffers, so repeated passes
# reuse pages already mapped and cached instead of faulting in fresh ones.
_WORKING_SET = 1 << 16


def _stack_size(model: DeepONetModel, rows: int) -> int:
    """How many parameter vectors of model one stacked pass on rows takes.

    Each vector counts rows * widest floats of layer buffer (the widest layer
    of either net) plus P floats for itself (the larger parameter count), and
    k vectors stay within _WORKING_SET unless k is 1. So each of the layer
    buffers that _RiskEvaluator keeps for a tower, k * rows * widest floats,
    fits too. The buffer term also covers the outputs that _RiskEvaluator
    gathers back to all rows: at most k * rows * q floats, and q is a layer
    width.
    """
    widest = max(model.branch.spec.layer_dims + model.trunk.spec.layer_dims)
    vector = max(model.branch.flat.size, model.trunk.flat.size)
    return max(1, _WORKING_SET // (rows * widest + vector))


class _RiskEvaluator:
    """Empirical risks of many (branch, trunk) flat pairs on one dataset.

    The branch runs on dataset.sensors, which holds each distinct branch row
    once, and the trunk on the bitwise-distinct rows of dataset.p, found once
    in order of first use. Each pass forms the residuals one block of
    triples at a time, gathering the outputs back to that block's rows.

    Each tower's passes write their layers into a scratch list of two
    buffers that the evaluator keeps, which nn._forward grows to the largest
    pass so far, so later passes reuse them. So an evaluator belongs to one
    thread: two threads need two evaluators.
    """

    def __init__(self, model: DeepONetModel, dataset: Dataset):
        if dataset.n == 0:
            raise InputError("empirical risk of an empty dataset is undefined")
        self.bspec, self.tspec = model.branch.spec, model.trunk.spec
        self.s = nn._check_input(self.bspec, dataset.sensors)
        # k == n rows, each used, in order of first use: source is arange(n)
        self.s_rows = None if self.s.shape[0] == dataset.n else dataset.source
        p = nn._check_input(self.tspec, dataset.p)
        first, inverse = _distinct_rows(p)
        self.p, self.p_rows = (p, None) if first.size == p.shape[0] else (p[first], inverse)
        self.y = dataset.y
        self.scratch = [np.empty(0), np.empty(0)], [np.empty(0), np.empty(0)]  # branch's, trunk's

    def risks(self, branch_flats: np.ndarray, trunk_flats: np.ndarray) -> np.ndarray:
        """Risk of each (branch, trunk) pair of flats.

        branch_flats and trunk_flats have shape lead + (P,) and broadcast
        against each other over lead; entry k of the result is the risk of
        the pair (branch_flats[k], trunk_flats[k]), bit-identical to
        :func:`empirical_risk` of that pair. Unstacked flats give a 0-d array.
        A block of triples gathers at most _WORKING_SET floats of either
        tower's outputs, so no (n, q) array is formed.
        """
        b = nn._forward(self.bspec, branch_flats, self.s, None, scratch=self.scratch[0])
        t = nn._forward(self.tspec, trunk_flats, self.p, None, scratch=self.scratch[1])
        n = self.y.shape[0]
        block = max(1, _WORKING_SET // max(b.size // b.shape[-2], t.size // t.shape[-2]))
        r = np.concatenate([self._residuals(b, t, slice(lo, lo + block))
                            for lo in range(0, n, block)], axis=-1)
        return np.mean(r * r, axis=-1)

    def _residuals(self, b: np.ndarray, t: np.ndarray, rows: slice) -> np.ndarray:
        """y - h on the triples in rows, from the towers' outputs on their distinct rows.

        The einsum takes each triple's dot product on its own, so the
        residuals do not depend on how the triples are split into blocks.
        """
        # np.take keeps the gathered outputs in C order, as the per-row pass
        # had them; a strided layout would make the mean sum in another order
        b = b[..., rows, :] if self.s_rows is None else np.take(b, self.s_rows[rows], axis=-2)
        t = t[..., rows, :] if self.p_rows is None else np.take(t, self.p_rows[rows], axis=-2)
        return self.y[rows] - np.einsum("...ij,...ij->...i", b, t)


def loss_grads(
    model: DeepONetModel, batch: Dataset
) -> tuple[np.ndarray, np.ndarray, float]:
    """Exact gradient of the batch empirical risk w.r.t. both flat vectors."""
    if batch.n == 0:
        raise InputError("cannot take gradients on an empty batch")
    step = _TwoTowers(model)
    s = nn._check_input(model.branch.spec, batch.sensors).take(batch.source, 0)
    p = nn._check_input(model.trunk.spec, batch.p)
    grad, loss = step(np.concatenate((model.branch.flat, model.trunk.flat)), s, p, batch.y)
    return grad[:step.pb], grad[step.pb:], loss


class _TwoTowers:
    """The training step of one model shape, on joint vectors [branch | trunk].

    When the towers agree past their input layer (dims and activations, as
    init_model's nets do), each tower's input layer writes into one half of a
    (2, rows, width) buffer and every later layer runs as one stacked pass on
    a (2, P_tail) view of both flats' tails; otherwise each tower runs whole
    and the stacked tail is empty. Every value equals the per-net pass bit
    for bit. A step keeps no buffers, so one serves batches of any size.
    """

    def __init__(self, model: DeepONetModel):
        b, t = self.specs = model.branch.spec, model.trunk.spec
        stack = ((b.layer_dims[1:], b.hidden_activation, b.output_activation)
                 == (t.layer_dims[1:], t.hidden_activation, t.output_activation))
        self.heads = (1, 1) if stack else (b.depth, t.depth)  # each tower's unstacked layers
        self.cuts = tuple(nn._layer_slices(spec, 0, k)[-1][1].stop
                          for spec, k in zip(self.specs, self.heads))
        self.pb = model.branch.flat.size

    def __call__(self, joint: np.ndarray, s, p, y) -> tuple[np.ndarray, float]:
        """(joint gradient, risk) on (s, p, y), row-aligned batches of any size.

        joint is a C-contiguous float64 [branch | trunk] vector. The residual
        r_i = h_i - y_i feeds (2/n) r_i Trunk(p_i) into the branch output and
        (2/n) r_i Branch(s_i) into the trunk's.
        """
        b, kb, pb, (hb, ht) = self.specs[0], self.heads[0], self.pb, self.cuts
        grad = np.empty_like(joint)
        flats, grads = (joint[:hb], joint[pb:pb + ht]), (grad[:hb], grad[pb:pb + ht])
        # a tail view's rows: each tower's layers past its head, pb - hb + ht floats apart
        tail, tail_grad = (np.ndarray((2, pb - hb), float, v, 8 * hb, (8 * (pb - hb + ht), 8))
                           for v in (joint, grad))
        mid = np.empty((2, y.shape[0], b.layer_dims[kb]))
        acts = [], [], []
        for j, (spec, x) in enumerate(zip(self.specs, (s, p))):
            nn._forward(spec, flats[j], x, acts[j], stop=self.heads[j], out=mid[j])
        out = nn._forward(b, tail, mid, acts[2], start=kb)
        r = np.einsum("ij,ij->i", out[0], out[1]) - y
        delta = (2.0 / y.shape[0] * r)[:, None] * out[::-1]
        for j, spec in enumerate(self.specs):
            nn._scale_by_deriv_(delta[j], out[j], spec.output_activation)
        delta = nn._backward(b, tail, acts[2], delta, tail_grad, kb)
        for j, spec in enumerate(self.specs):
            nn._backward(spec, flats[j], acts[j], delta[j], grads[j])
        return grad, float(np.mean(r * r))


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


def j_upper_bound(W: float, p: int, Q: int, depth: int, R: float) -> float:
    """Analytic weight-Lipschitz bound (W sqrt(pQ))^(2 depth) * Q * R * sqrt(p).

    Evaluated in log space; returns +inf when the value overflows float64.
    """
    check_number("W", W, InputError, at_least=1)
    for name, value in (("p", p), ("Q", Q), ("depth", depth)):
        check_number(name, value, InputError, count=True, at_least=1)
    check_number("R", R, InputError, above=0)
    log_val = (
        2.0 * depth * (math.log(W) + 0.5 * math.log(p * Q))
        + math.log(Q)
        + math.log(R)
        + 0.5 * math.log(p)
    )
    try:
        return math.exp(log_val)
    except OverflowError:
        return math.inf


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
    payload = read_json_object(path, "checkpoint")
    if (payload.get("format") != CHECKPOINT_FORMAT
            or "branch" not in payload or "trunk" not in payload):
        raise InputError(f"{path} is not a donlab checkpoint")
    model = DeepONetModel(_checkpoint_part(payload, "branch", path),
                          _checkpoint_part(payload, "trunk", path))
    ab, at = (_checkpoint_part(payload, key, path) if payload.get(key) else None
              for key in ("adam_branch", "adam_trunk"))
    epoch = payload.get("epoch", 0)
    check_number(f"checkpoint {path}: epoch", epoch, InputError, count=True, at_least=0)
    return model, ab, at, epoch, payload.get("seeds", {})
